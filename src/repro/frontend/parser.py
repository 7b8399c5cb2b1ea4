"""Recursive-descent parser for the Lime subset.

Grammar highlights beyond the Java-like core:

- Value array types use double brackets around the dimension list:
  ``float[[][4]]`` is an unbounded array of bounded-4 float value arrays.
- ``task Cls.m`` creates a task with a static worker (a filter candidate);
  ``task Cls(args).m`` creates a stateful task from an instance worker.
- ``a => b`` connects tasks into a graph (lowest precedence,
  left-associative).
- ``Cls.m(bound) @ src`` maps ``m`` over ``src``; the element binds to the
  first parameter, the bound arguments to the rest.
- ``+! src``, ``*! src`` and ``Cls.m ! src`` are reductions.

The parser is deliberately plain: a token cursor with one-token lookahead
plus bounded backtracking (used only to disambiguate declarations from
expression statements and casts from parenthesized expressions).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.lexer import tokenize
from repro.frontend.source import SourceFile
from repro.frontend.tokens import TokenKind as T
from repro.frontend.types import (
    ArrayType,
    ClassType,
    PRIMITIVES,
)

_PRIM_KEYWORDS = {
    T.KW_VOID: "void",
    T.KW_BOOLEAN: "boolean",
    T.KW_BYTE: "byte",
    T.KW_INT: "int",
    T.KW_LONG: "long",
    T.KW_FLOAT: "float",
    T.KW_DOUBLE: "double",
}

# Binary operators by precedence level, loosest first (the table above
# ``parse_expr``); every level is left-associative.
_BINARY_LEVELS = {
    kind: level
    for level, kinds in enumerate(
        (
            (T.OR_OR,),
            (T.AND_AND,),
            (T.PIPE,),
            (T.CARET,),
            (T.AMP,),
            (T.EQ, T.NE),
            (T.LT, T.GT, T.LE, T.GE),
            (T.SHL, T.SHR, T.USHR),
            (T.PLUS, T.MINUS),
            (T.STAR, T.SLASH, T.PERCENT),
        ),
        start=1,
    )
    for kind in kinds
}

_ASSIGN_OPS = {
    T.ASSIGN: None,
    T.PLUS_ASSIGN: "+",
    T.MINUS_ASSIGN: "-",
    T.STAR_ASSIGN: "*",
    T.SLASH_ASSIGN: "/",
}


class Parser:
    def __init__(self, source, filename="<lime>"):
        if isinstance(source, str):
            source = SourceFile(source, filename)
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    # -- cursor helpers ----------------------------------------------------

    def peek(self, offset=0):
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]  # EOF

    def at(self, kind, offset=0):
        return self.peek(offset).kind is kind

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind is not T.EOF:
            self.pos += 1
        return token

    def expect(self, kind, what=None):
        token = self.peek()
        if token.kind is not kind:
            expected = what or kind.value
            raise ParseError(
                "expected {} but found {!r}".format(expected, token.text or "<eof>"),
                token.location,
            )
        return self.advance()

    def accept(self, kind):
        if self.at(kind):
            return self.advance()
        return None

    def _mark(self):
        return self.pos

    def _reset(self, mark):
        self.pos = mark

    # -- program structure --------------------------------------------------

    def parse_program(self):
        classes = []
        while not self.at(T.EOF):
            classes.append(self.parse_class())
        return ast.Program(classes)

    def parse_class(self):
        is_value = bool(self.accept(T.KW_VALUE))
        start = self.expect(T.KW_CLASS)
        name = self.expect(T.IDENT, "class name").text
        self.expect(T.LBRACE)
        fields, methods = [], []
        while not self.at(T.RBRACE):
            member = self.parse_member(name)
            if isinstance(member, ast.MethodDecl):
                methods.append(member)
            else:
                fields.append(member)
        self.expect(T.RBRACE)
        return ast.ClassDecl(
            name=name,
            is_value=is_value,
            fields=fields,
            methods=methods,
            location=start.location,
        )

    def parse_member(self, owner):
        start = self.peek()
        is_static = is_final = is_local = False
        while True:
            if self.accept(T.KW_STATIC):
                is_static = True
            elif self.accept(T.KW_FINAL):
                is_final = True
            elif self.accept(T.KW_LOCAL):
                is_local = True
            else:
                break
        member_type = self.parse_type()
        if (
            isinstance(member_type, ClassType)
            and member_type.name == owner
            and self.at(T.LPAREN)
        ):
            # Constructor: `Owner(params) { ... }`.
            if is_static or is_final:
                raise ParseError(
                    "constructors may not be static or final", start.location
                )
            params = self.parse_params()
            body = self.parse_block()
            return ast.MethodDecl(
                name="<init>",
                params=params,
                return_type=PRIMITIVES["void"],
                is_static=False,
                is_local=is_local,
                body=body,
                location=start.location,
                owner=owner,
            )
        name = self.expect(T.IDENT, "member name").text
        if self.at(T.LPAREN):
            params = self.parse_params()
            body = self.parse_block()
            return ast.MethodDecl(
                name=name,
                params=params,
                return_type=member_type,
                is_static=is_static,
                is_local=is_local,
                body=body,
                location=start.location,
                owner=owner,
            )
        if is_local:
            raise ParseError("'local' applies only to methods", start.location)
        init = None
        if self.accept(T.ASSIGN):
            init = self.parse_expr()
        self.expect(T.SEMI)
        return ast.FieldDecl(
            name=name,
            type=member_type,
            is_static=is_static,
            is_final=is_final,
            init=init,
            location=start.location,
            owner=owner,
        )

    def parse_params(self):
        self.expect(T.LPAREN)
        params = []
        if not self.at(T.RPAREN):
            while True:
                param_type = self.parse_type()
                token = self.expect(T.IDENT, "parameter name")
                params.append(
                    ast.Param(name=token.text, type=param_type, location=token.location)
                )
                if not self.accept(T.COMMA):
                    break
        self.expect(T.RPAREN)
        return params

    # -- types ---------------------------------------------------------------

    def parse_type(self):
        token = self.peek()
        if token.kind in _PRIM_KEYWORDS:
            self.advance()
            base = PRIMITIVES[_PRIM_KEYWORDS[token.kind]]
        elif token.kind is T.IDENT:
            self.advance()
            base = ClassType(token.value)
        else:
            raise ParseError(
                "expected a type but found {!r}".format(token.text or "<eof>"),
                token.location,
            )
        return self._parse_array_suffix(base)

    def _parse_array_suffix(self, base):
        dims = []  # (bound, is_value) outermost first
        while self.at(T.LBRACKET):
            if self.at(T.RBRACKET, 1):
                self.advance()
                self.advance()
                dims.append((None, False))
            elif self.at(T.LBRACKET, 1):
                # Value array group: [[dim][dim]...].
                self.advance()
                group = self._parse_value_dims()
                dims.extend((bound, True) for bound in group)
                break
            else:
                token = self.peek(1)
                raise ParseError(
                    "mutable array dimensions may not carry bounds "
                    "(use a value array like float[[4]])",
                    token.location,
                )
        result = base
        for bound, is_value in reversed(dims):
            result = ArrayType(result, bound=bound, value=is_value)
        return result

    def _parse_value_dims(self):
        """Parse ``[...][...]...]`` after the opening ``[`` of a value
        group: one or more dims each ``[]`` or ``[INT]``, then the closing
        ``]`` of the group."""
        bounds = []
        while True:
            self.expect(T.LBRACKET)
            if self.at(T.INT_LITERAL):
                bounds.append(self.advance().value)
            else:
                bounds.append(None)
            self.expect(T.RBRACKET)
            if self.accept(T.RBRACKET):
                return bounds
            if not self.at(T.LBRACKET):
                raise ParseError(
                    "malformed value array type", self.peek().location
                )

    def _looks_like_type(self):
        """Speculatively check whether a type can be parsed at the cursor
        followed by an identifier — the declaration-statement test."""
        mark = self._mark()
        try:
            self.parse_type()
            ok = self.at(T.IDENT)
        except ParseError:
            ok = False
        self._reset(mark)
        return ok

    # -- statements -----------------------------------------------------------

    def parse_block(self):
        start = self.expect(T.LBRACE)
        stmts = []
        while not self.at(T.RBRACE):
            stmts.append(self.parse_stmt())
        self.expect(T.RBRACE)
        return ast.Block(stmts=stmts, location=start.location)

    def parse_stmt(self):
        token = self.peek()
        kind = token.kind
        if kind is T.LBRACE:
            return self.parse_block()
        if kind is T.KW_IF:
            return self.parse_if()
        if kind is T.KW_WHILE:
            return self.parse_while()
        if kind is T.KW_FOR:
            return self.parse_for()
        if kind is T.KW_RETURN:
            self.advance()
            value = None if self.at(T.SEMI) else self.parse_expr()
            self.expect(T.SEMI)
            return ast.Return(value=value, location=token.location)
        if kind is T.KW_BREAK:
            self.advance()
            self.expect(T.SEMI)
            return ast.Break(location=token.location)
        if kind is T.KW_CONTINUE:
            self.advance()
            self.expect(T.SEMI)
            return ast.Continue(location=token.location)
        if kind is T.KW_THROW:
            self.advance()
            expr = self.parse_expr()
            self.expect(T.SEMI)
            return ast.Throw(expr=expr, location=token.location)
        if kind is T.SEMI:
            self.advance()
            return ast.Block(stmts=[], location=token.location)
        stmt = self.parse_simple_stmt()
        self.expect(T.SEMI)
        return stmt

    def parse_if(self):
        start = self.expect(T.KW_IF)
        self.expect(T.LPAREN)
        cond = self.parse_expr()
        self.expect(T.RPAREN)
        then = self.parse_stmt()
        otherwise = None
        if self.accept(T.KW_ELSE):
            otherwise = self.parse_stmt()
        return ast.If(cond=cond, then=then, otherwise=otherwise, location=start.location)

    def parse_while(self):
        start = self.expect(T.KW_WHILE)
        self.expect(T.LPAREN)
        cond = self.parse_expr()
        self.expect(T.RPAREN)
        body = self.parse_stmt()
        return ast.While(cond=cond, body=body, location=start.location)

    def parse_for(self):
        start = self.expect(T.KW_FOR)
        self.expect(T.LPAREN)
        init = None if self.at(T.SEMI) else self.parse_simple_stmt()
        self.expect(T.SEMI)
        cond = None if self.at(T.SEMI) else self.parse_expr()
        self.expect(T.SEMI)
        update = None if self.at(T.RPAREN) else self.parse_simple_stmt()
        self.expect(T.RPAREN)
        body = self.parse_stmt()
        return ast.For(
            init=init, cond=cond, update=update, body=body, location=start.location
        )

    def parse_simple_stmt(self):
        """A declaration, assignment, increment, or expression — the forms
        allowed without trailing ``;`` (shared with for-headers)."""
        token = self.peek()
        if token.kind is T.KW_VAR:
            self.advance()
            name = self.expect(T.IDENT, "variable name").text
            self.expect(T.ASSIGN)
            init = self.parse_expr()
            return ast.VarDecl(
                name=name, declared_type=None, init=init, location=token.location
            )
        if token.kind in _PRIM_KEYWORDS or (
            token.kind is T.IDENT and self._looks_like_type()
        ):
            decl_type = self.parse_type()
            name = self.expect(T.IDENT, "variable name").text
            init = None
            if self.accept(T.ASSIGN):
                init = self.parse_expr()
            return ast.VarDecl(
                name=name, declared_type=decl_type, init=init, location=token.location
            )
        expr = self.parse_expr()
        assign = self.peek()
        if assign.kind in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            return ast.Assign(
                target=expr,
                op=_ASSIGN_OPS[assign.kind],
                value=value,
                location=assign.location,
            )
        if assign.kind in (T.PLUS_PLUS, T.MINUS_MINUS):
            self.advance()
            op = "+" if assign.kind is T.PLUS_PLUS else "-"
            one = ast.IntLit(location=assign.location, value=1)
            return ast.Assign(
                target=expr, op=op, value=one, location=assign.location
            )
        return ast.ExprStmt(expr=expr, location=token.location)

    # -- expressions ------------------------------------------------------------
    #
    # Precedence, lowest first:
    #   connect (=>)  map (@)  reduce  ternary  ||  &&  |  ^  &  == !=
    #   < > <= >=  << >> >>>  + -  * / %  unary  postfix

    def parse_expr(self):
        left = self.parse_map()
        while self.at(T.CONNECT):
            token = self.advance()
            right = self.parse_map()
            left = ast.ConnectExpr(location=token.location, left=left, right=right)
        return left

    def parse_map(self):
        # Reduction with an operator combinator: `+! src`, `*! src`.
        if self.peek().kind in (T.PLUS, T.STAR) and self.at(T.BANG, 1):
            op_token = self.advance()
            self.advance()  # the bang
            source = self.parse_map()
            return ast.ReduceExpr(
                location=op_token.location,
                op=op_token.text,
                func=None,
                source=source,
            )
        left = self.parse_ternary()
        if self.at(T.AT):
            token = self.advance()
            source = self.parse_map()
            func, bound = self._as_method_ref(left, token.location)
            return ast.MapExpr(
                location=token.location, func=func, bound_args=bound, source=source
            )
        if self.at(T.BANG):
            token = self.advance()
            source = self.parse_map()
            func, bound = self._as_method_ref(left, token.location)
            if bound:
                raise ParseError(
                    "a reduction combinator takes no bound arguments",
                    token.location,
                )
            return ast.ReduceExpr(
                location=token.location, op=None, func=func, source=source
            )
        return left

    def _as_method_ref(self, expr, location):
        """Reinterpret the expression left of ``@``/``!`` as a method
        reference with optional bound arguments."""
        if isinstance(expr, ast.Call) and isinstance(expr.receiver, ast.Name):
            ref = ast.MethodRef(
                location=expr.location,
                class_name=expr.receiver.name,
                method_name=expr.name,
            )
            return ref, expr.args
        if isinstance(expr, ast.FieldAccess) and isinstance(expr.receiver, ast.Name):
            ref = ast.MethodRef(
                location=expr.location,
                class_name=expr.receiver.name,
                method_name=expr.name,
            )
            return ref, []
        raise ParseError(
            "the left operand of '@'/'!' must be a method reference like "
            "Cls.m or a partial application like Cls.m(args)",
            location,
        )

    def parse_ternary(self):
        cond = self.parse_binary()
        if self.accept(T.QUESTION):
            then = self.parse_ternary()
            self.expect(T.COLON)
            otherwise = self.parse_ternary()
            node = ast.Ternary(
                location=cond.location, cond=cond, then=then, otherwise=otherwise
            )
            return node
        return cond

    def parse_binary(self, min_level=1):
        """Precedence climbing over ``_BINARY_LEVELS``: every operator is
        left-associative, so its right operand binds one level tighter."""
        left = self.parse_unary()
        while True:
            token = self.tokens[self.pos]
            level = _BINARY_LEVELS.get(token.kind, 0)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_binary(level + 1)
            left = ast.Binary(
                location=token.location, op=token.text, left=left, right=right
            )

    def parse_unary(self):
        token = self.peek()
        if token.kind is T.MINUS:
            self.advance()
            return ast.Unary(
                location=token.location, op="-", operand=self.parse_unary()
            )
        if token.kind is T.BANG:
            self.advance()
            return ast.Unary(
                location=token.location, op="!", operand=self.parse_unary()
            )
        if token.kind is T.TILDE:
            self.advance()
            return ast.Unary(
                location=token.location, op="~", operand=self.parse_unary()
            )
        if token.kind is T.LPAREN and self._looks_like_cast():
            self.advance()
            target = self.parse_type()
            self.expect(T.RPAREN)
            expr = self.parse_unary()
            return ast.Cast(location=token.location, target=target, expr=expr)
        return self.parse_postfix()

    def _looks_like_cast(self):
        """Distinguish ``(float) x`` and ``(float[[]]) x`` from ``(a + b)``.

        A cast when the parenthesized content is a primitive type, or an
        identifier followed by ``[`` (an array type) or by ``)`` and then a
        token that must start a unary expression and is not an operator
        continuation.
        """
        first = self.peek(1)
        if first.kind in _PRIM_KEYWORDS:
            return True
        if first.kind is not T.IDENT:
            return False
        second = self.peek(2)
        if second.kind is T.LBRACKET:
            # `(Foo[...]...) x` — always a cast; `(arr[i])` would put the
            # bracket inside the parens only after a full postfix parse,
            # and `(arr[i] + 1)` is ruled out by requiring the matching
            # `)` via a speculative type parse.
            mark = self._mark()
            self.advance()  # (
            try:
                self.parse_type()
                ok = self.at(T.RPAREN)
            except ParseError:
                ok = False
            self._reset(mark)
            return ok
        if second.kind is T.RPAREN:
            after = self.peek(3)
            return after.kind in (
                T.IDENT,
                T.INT_LITERAL,
                T.LONG_LITERAL,
                T.FLOAT_LITERAL,
                T.DOUBLE_LITERAL,
                T.LPAREN,
                T.KW_NEW,
            )
        return False

    def parse_postfix(self):
        expr = self.parse_primary()
        if isinstance(expr, ast.Name) and self.at(T.LPAREN):
            # Unqualified call within the enclosing class: `helper(x)`.
            args = self.parse_args()
            expr = ast.Call(
                location=expr.location, receiver=None, name=expr.name, args=args
            )
        while True:
            token = self.peek()
            if token.kind is T.LBRACKET:
                self.advance()
                index = self.parse_expr()
                self.expect(T.RBRACKET)
                expr = ast.Index(location=token.location, array=expr, index=index)
            elif token.kind is T.DOT:
                self.advance()
                name = self.expect(T.IDENT, "member name").text
                if self.at(T.LPAREN):
                    args = self.parse_args()
                    expr = ast.Call(
                        location=token.location,
                        receiver=expr,
                        name=name,
                        args=args,
                    )
                else:
                    expr = ast.FieldAccess(
                        location=token.location, receiver=expr, name=name
                    )
            else:
                return expr

    def parse_args(self):
        self.expect(T.LPAREN)
        args = []
        if not self.at(T.RPAREN):
            while True:
                args.append(self.parse_expr())
                if not self.accept(T.COMMA):
                    break
        self.expect(T.RPAREN)
        return args

    def parse_primary(self):
        token = self.peek()
        kind = token.kind
        if kind is T.INT_LITERAL:
            self.advance()
            return ast.IntLit(location=token.location, value=token.value)
        if kind is T.LONG_LITERAL:
            self.advance()
            return ast.LongLit(location=token.location, value=token.value)
        if kind is T.FLOAT_LITERAL:
            self.advance()
            return ast.FloatLit(location=token.location, value=token.value)
        if kind is T.DOUBLE_LITERAL:
            self.advance()
            return ast.DoubleLit(location=token.location, value=token.value)
        if kind is T.CHAR_LITERAL:
            self.advance()
            return ast.IntLit(location=token.location, value=token.value)
        if kind is T.STRING_LITERAL:
            self.advance()
            return ast.StringLit(location=token.location, value=token.value)
        if kind is T.KW_TRUE:
            self.advance()
            return ast.BoolLit(location=token.location, value=True)
        if kind is T.KW_FALSE:
            self.advance()
            return ast.BoolLit(location=token.location, value=False)
        if kind is T.KW_NULL:
            self.advance()
            return ast.NullLit(location=token.location)
        if kind is T.IDENT:
            self.advance()
            return ast.Name(location=token.location, name=token.value)
        if kind is T.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(T.RPAREN)
            return expr
        if kind is T.KW_NEW:
            return self.parse_new()
        if kind is T.KW_TASK:
            return self.parse_task()
        raise ParseError(
            "expected an expression but found {!r}".format(token.text or "<eof>"),
            token.location,
        )

    def parse_new(self):
        start = self.expect(T.KW_NEW)
        token = self.peek()
        if token.kind in _PRIM_KEYWORDS:
            self.advance()
            elem = PRIMITIVES[_PRIM_KEYWORDS[token.kind]]
            return self._parse_new_array(start, elem)
        name = self.expect(T.IDENT, "type name").text
        if self.at(T.LBRACKET):
            return self._parse_new_array(start, ClassType(name))
        args = self.parse_args()
        return ast.New(location=start.location, class_name=name, args=args)

    def _parse_new_array(self, start, elem):
        dims = []
        saw_empty = False
        while self.at(T.LBRACKET):
            self.advance()
            if self.at(T.RBRACKET):
                self.advance()
                dims.append(None)
                saw_empty = True
            else:
                if saw_empty:
                    raise ParseError(
                        "cannot specify a dimension after an empty one",
                        self.peek().location,
                    )
                dims.append(self.parse_expr())
                self.expect(T.RBRACKET)
        if self.at(T.LBRACE):
            if len(dims) != 1 or dims[0] is not None:
                raise ParseError(
                    "array initializers require a single empty dimension "
                    "like new int[] { ... }",
                    self.peek().location,
                )
            self.advance()
            values = []
            if not self.at(T.RBRACE):
                while True:
                    values.append(self.parse_expr())
                    if not self.accept(T.COMMA):
                        break
            self.expect(T.RBRACE)
            return ast.ArrayInit(location=start.location, elem=elem, values=values)
        if not dims or dims[0] is None:
            raise ParseError(
                "array creation requires at least one sized dimension",
                start.location,
            )
        return ast.NewArray(location=start.location, elem=elem, dims=dims)

    def parse_task(self):
        start = self.expect(T.KW_TASK)
        class_name = self.expect(T.IDENT, "class name").text
        ctor_args = None
        if self.at(T.LPAREN):
            ctor_args = self.parse_args()
        self.expect(T.DOT)
        method_name = self.expect(T.IDENT, "worker method name").text
        worker_args = None
        if ctor_args is None and self.at(T.LPAREN):
            # Partially applied static worker: task Cls.m(args).
            worker_args = self.parse_args()
        return ast.TaskExpr(
            location=start.location,
            class_name=class_name,
            method_name=method_name,
            ctor_args=ctor_args,
            worker_args=worker_args,
        )


def parse_program(source, filename="<lime>"):
    """Parse Lime source text into an (untyped) :class:`repro.frontend.ast.Program`."""
    return Parser(source, filename).parse_program()


def parse_expression(source, filename="<lime-expr>"):
    """Parse a single Lime expression (used heavily by tests)."""
    parser = Parser(source, filename)
    expr = parser.parse_expr()
    parser.expect(T.EOF)
    return expr

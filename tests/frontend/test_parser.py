"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.parser import parse_expression, parse_program
from repro.frontend.types import ArrayType, FLOAT, INT


def test_empty_class():
    program = parse_program("class A { }")
    assert program.classes[0].name == "A"
    assert program.classes[0].fields == []
    assert program.classes[0].methods == []


def test_value_class_modifier():
    program = parse_program("value class V { }")
    assert program.classes[0].is_value


def test_field_declaration():
    program = parse_program("class A { static final int N = 4; }")
    field = program.classes[0].fields[0]
    assert field.is_static and field.is_final
    assert isinstance(field.init, ast.IntLit)


def test_method_modifiers():
    program = parse_program(
        "class A { static local float f(float x) { return x; } }"
    )
    method = program.classes[0].methods[0]
    assert method.is_static and method.is_local
    assert method.return_type == FLOAT
    assert method.params[0].type == FLOAT


def test_constructor():
    program = parse_program("class A { int n; A(int m) { n = m; } }")
    ctor = program.classes[0].lookup_method("<init>")
    assert ctor is not None
    assert not ctor.is_static


def test_value_array_type_shape():
    program = parse_program("class A { static float[[][4]] f() { return A.f(); } }")
    rt = program.classes[0].methods[0].return_type
    assert isinstance(rt, ArrayType)
    assert rt.value and rt.bound is None
    assert rt.elem.value and rt.elem.bound == 4
    assert rt.elem.elem == FLOAT


def test_mutable_array_type():
    program = parse_program("class A { static float[][] f() { return A.f(); } }")
    rt = program.classes[0].methods[0].return_type
    assert not rt.value and rt.bound is None
    assert isinstance(rt.elem, ArrayType) and not rt.elem.value


def test_mutable_bounded_dimension_rejected():
    with pytest.raises(ParseError):
        parse_program("class A { static float[4] f() { return A.f(); } }")


def test_precedence_mul_over_add():
    expr = parse_expression("a + b * c")
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_ternary():
    expr = parse_expression("a < b ? x : y")
    assert isinstance(expr, ast.Ternary)


def test_cast_of_primitive():
    expr = parse_expression("(float) x")
    assert isinstance(expr, ast.Cast)
    assert expr.target == FLOAT


def test_cast_of_value_array():
    expr = parse_expression("(float[[3]]) f")
    assert isinstance(expr, ast.Cast)
    assert expr.target.bound == 3 and expr.target.value


def test_parenthesized_expression_is_not_cast():
    expr = parse_expression("(a) + b")
    assert isinstance(expr, ast.Binary)


def test_map_with_partial_application():
    expr = parse_expression("NBody.forces(all) @ all")
    assert isinstance(expr, ast.MapExpr)
    assert expr.func.class_name == "NBody"
    assert len(expr.bound_args) == 1


def test_map_without_bound_args():
    expr = parse_expression("M.f @ xs")
    assert isinstance(expr, ast.MapExpr)
    assert expr.bound_args == []


def test_operator_reduce():
    expr = parse_expression("+! xs")
    assert isinstance(expr, ast.ReduceExpr)
    assert expr.op == "+"


def test_method_reduce():
    expr = parse_expression("Math.max ! xs")
    assert isinstance(expr, ast.ReduceExpr)
    assert expr.func.method_name == "max"


def test_map_then_reduce_composition():
    expr = parse_expression("+! (M.f @ xs)")
    assert isinstance(expr, ast.ReduceExpr)
    assert isinstance(expr.source, ast.MapExpr)


def test_connect_left_associative():
    expr = parse_expression("a => b => c")
    assert isinstance(expr, ast.ConnectExpr)
    assert isinstance(expr.left, ast.ConnectExpr)


def test_task_static_worker():
    expr = parse_expression("task NBody.computeForces")
    assert isinstance(expr, ast.TaskExpr)
    assert expr.is_static_worker
    assert expr.worker_args is None


def test_task_partial_application():
    expr = parse_expression("task Crypt.encrypt(key)")
    assert expr.is_static_worker
    assert len(expr.worker_args) == 1


def test_task_instance_worker():
    expr = parse_expression("task NBody(data, 3).gen")
    assert not expr.is_static_worker
    assert len(expr.ctor_args) == 2


def test_new_array():
    expr = parse_expression("new float[3]")
    assert isinstance(expr, ast.NewArray)
    assert len(expr.dims) == 1


def test_array_initializer():
    expr = parse_expression("new int[] { 1, 2, 3 }")
    assert isinstance(expr, ast.ArrayInit)
    assert len(expr.values) == 3
    assert expr.elem == INT


def test_for_statement_roundtrip():
    program = parse_program(
        "class A { static int f() { int s = 0;"
        " for (int i = 0; i < 10; i++) { s += i; } return s; } }"
    )
    body = program.classes[0].methods[0].body
    loop = body.stmts[1]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.VarDecl)
    assert isinstance(loop.update, ast.Assign)


def test_throw_underflow():
    program = parse_program(
        "class A { void f() { throw new UnderflowException(); } }"
    )
    stmt = program.classes[0].methods[0].body.stmts[0]
    assert isinstance(stmt, ast.Throw)


def test_unqualified_call():
    program = parse_program("class A { int g() { return h(); } int h() { return 1; } }")
    ret = program.classes[0].methods[0].body.stmts[0]
    assert isinstance(ret.value, ast.Call)
    assert ret.value.receiver is None


def test_missing_semicolon_reports_location():
    with pytest.raises(ParseError) as err:
        parse_program("class A { void f() { int x = 1 } }")
    assert err.value.location is not None


def test_var_inference_syntax():
    program = parse_program("class A { void f() { var g = task A.h; } static void h() {} }")
    decl = program.classes[0].methods[0].body.stmts[0]
    assert isinstance(decl, ast.VarDecl)
    assert decl.declared_type is None


# Binary operators by precedence level, loosest first.
BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]
LEVEL_OF = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}


def _grouping(expr):
    if isinstance(expr, ast.Binary):
        return "({} {} {})".format(_grouping(expr.left), expr.op, _grouping(expr.right))
    return expr.name


@pytest.mark.parametrize("first", sorted(LEVEL_OF))
@pytest.mark.parametrize("second", sorted(LEVEL_OF))
def test_binary_precedence_and_left_associativity(first, second):
    expr = parse_expression("a {} b {} c".format(first, second))
    if LEVEL_OF[first] >= LEVEL_OF[second]:
        expected = "((a {} b) {} c)".format(first, second)
    else:
        expected = "(a {} (b {} c))".format(first, second)
    assert _grouping(expr) == expected

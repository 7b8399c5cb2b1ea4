"""Lexer for the Lime surface language.

One compiled master regex (``_SCAN``) does the common work. Each match
skips trivia (whitespace, ``//`` and ``/* */`` comments) and then names
what follows: an ASCII word (identifier or keyword) or an operator.
Operators are alternatives listed longest first, so the first one that
matches is the maximal munch. The scanner tracks the current line as it
moves forward instead of searching for it per token.

Everything else keeps hand-written code: numbers, string and char
literals, words with non-ASCII letters (classified by ``str.isalpha``
and ``str.isalnum``, which no regex class equals), and every error.
Numeric literals follow Java's conventions: an unsuffixed decimal with a
``.`` or exponent is a ``double``; an ``f`` suffix makes a ``float``; an
``L`` suffix makes a ``long``.
"""

from __future__ import annotations

import bisect
import re

from repro.errors import LexError
from repro.frontend.source import Location, SourceFile
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

# Operators and punctuation, longest first so that the first matching
# alternative of the master regex is the maximal munch.
_OPERATORS = [
    (">>>", TokenKind.USHR),
    ("=>", TokenKind.CONNECT),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND_AND),
    ("||", TokenKind.OR_OR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (".", TokenKind.DOT),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("!", TokenKind.BANG),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("?", TokenKind.QUESTION),
    (":", TokenKind.COLON),
    ("@", TokenKind.AT),
]


_OPERATOR_KINDS = dict(_OPERATORS)


def _operator_pattern(text):
    if text == ".":
        # Before a digit a dot starts a number (``.5``). Before a
        # non-ASCII character it might, as ``str.isdigit`` decides.
        return r"\.(?![0-9]|[^\x00-\x7f])"
    if text == "/":
        # ``/*`` that the trivia did not consume is an unclosed comment.
        return r"/(?!\*)"
    return re.escape(text)


# ``\s`` matches exactly what ``str.isspace`` accepts. A word followed by
# a non-ASCII character may continue under ``str.isalnum``, so it is left
# to the hand-written scanner, as is anything ``other`` stops at. The
# word's lookahead also refuses an ASCII word character, so backtracking
# cannot stop a word short of a non-ASCII letter. The trivia loop is
# never backtracked into: the empty ``other`` always matches after it.
_SCAN = re.compile(
    r"""
    (?: \s+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<word> [A-Za-z_$][A-Za-z0-9_$]* ) (?![A-Za-z0-9_$]|[^\x00-\x7f])
      | (?P<op> {} )
      | (?P<other> )
    )
    """.format("|".join(_operator_pattern(text) for text, _ in _OPERATORS)),
    re.DOTALL | re.VERBOSE,
)


def _is_ident_start(char):
    return char.isalpha() or char == "_" or char == "$"


def _is_ident_part(char):
    return char.isalnum() or char == "_" or char == "$"


class Lexer:
    """Scans a :class:`SourceFile` into a list of tokens."""

    def __init__(self, source):
        if isinstance(source, str):
            source = SourceFile(source)
        self.source = source
        self.text = source.text
        self.pos = 0
        self._location = None  # of the token the hand-written code is at

    def tokens(self):
        """Lex the whole input, returning tokens ending with ``EOF``."""
        text = self.text
        filename = self.source.filename
        scan = _SCAN.match
        keywords = KEYWORDS
        operators = _OPERATOR_KINDS
        ident = TokenKind.IDENT
        result = []
        append = result.append
        line_starts = self.source.line_starts
        # Where the line after each line begins (past the end for the last).
        line_ends = line_starts[1:] + [len(text) + 1]
        pos = 0
        line, line_start, next_line = 1, 0, line_ends[0]
        while True:
            match = scan(text, pos)
            group = match.lastgroup
            start = match.start(group)
            if start >= next_line:
                line = bisect.bisect_right(line_starts, start)
                line_start, next_line = line_starts[line - 1], line_ends[line - 1]
            location = Location(filename, line, start - line_start + 1)
            if group == "word":
                pos = match.end()
                word = text[start:pos]
                kind = keywords.get(word)
                if kind is None:
                    append(Token(ident, word, location, word))
                else:
                    append(Token(kind, word, location))
            elif group == "op":
                pos = match.end()
                op = text[start:pos]
                append(Token(operators[op], op, location))
            elif start >= len(text):
                append(Token(TokenKind.EOF, "", location))
                return result
            else:
                self.pos = start
                self._location = location
                append(self._lex_other())
                pos = self.pos

    def _lex_other(self):
        """The token at ``self.pos`` that the master regex left to
        hand-written code."""
        char = self.text[self.pos]
        if _is_ident_start(char):
            return self._lex_word()
        if char.isdigit() or (char == "." and self._peek_is_digit(1)):
            return self._lex_number()
        if char == '"':
            return self._lex_string()
        if char == "'":
            return self._lex_char()
        if self.text.startswith("/*", self.pos):
            raise LexError(
                "unterminated block comment", self.source.location(self.pos)
            )
        if char == ".":
            self.pos += 1
            return self._make(TokenKind.DOT, self.pos - 1, self.pos)
        raise LexError(
            "unexpected character {!r}".format(char),
            self.source.location(self.pos),
        )

    # -- token classes ----------------------------------------------------

    def _lex_word(self):
        start = self.pos
        while self.pos < len(self.text) and _is_ident_part(self.text[self.pos]):
            self.pos += 1
        text = self.text[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        value = text if kind is TokenKind.IDENT else None
        return self._make(kind, start, self.pos, value)

    def _lex_number(self):
        start = self.pos
        is_float = False
        if self.text.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            while self.pos < len(self.text) and self._is_hex(self.text[self.pos]):
                self.pos += 1
            return self._finish_int(start, base=16)
        while self._peek_is_digit(0):
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            is_float = True
            self.pos += 1
            while self._peek_is_digit(0):
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            lookahead = self.pos + 1
            if lookahead < len(self.text) and self.text[lookahead] in "+-":
                lookahead += 1
            if lookahead < len(self.text) and self.text[lookahead].isdigit():
                is_float = True
                self.pos = lookahead
                while self._peek_is_digit(0):
                    self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "fF":
            self.pos += 1
            text = self.text[start : self.pos]
            return self._make(
                TokenKind.FLOAT_LITERAL, start, self.pos, self._value(start, text[:-1])
            )
        if self.pos < len(self.text) and self.text[self.pos] in "dD":
            self.pos += 1
            text = self.text[start : self.pos]
            return self._make(
                TokenKind.DOUBLE_LITERAL, start, self.pos, self._value(start, text[:-1])
            )
        if is_float:
            text = self.text[start : self.pos]
            return self._make(
                TokenKind.DOUBLE_LITERAL, start, self.pos, self._value(start, text)
            )
        return self._finish_int(start, base=10)

    def _finish_int(self, start, base):
        text = self.text[start : self.pos]
        if not text or (base == 16 and len(text) <= 2):
            raise LexError("malformed number", self.source.location(start))
        kind = TokenKind.INT_LITERAL
        if self.pos < len(self.text) and self.text[self.pos] in "lL":
            self.pos += 1
            kind = TokenKind.LONG_LITERAL
        return self._make(kind, start, self.pos, self._value(start, text, base))

    def _value(self, start, text, base=None):
        """The literal's value: an int in ``base``, or a float. A digit
        that ``str.isdigit`` accepts but ``int``/``float`` reject (``²``)
        makes a malformed number."""
        try:
            return float(text) if base is None else int(text, base)
        except ValueError:
            raise LexError(
                "malformed number", self.source.location(start)
            ) from None

    _ESCAPES = {
        "n": "\n",
        "t": "\t",
        "r": "\r",
        "0": "\0",
        "\\": "\\",
        "'": "'",
        '"': '"',
        "b": "\b",
        "f": "\f",
    }

    def _lex_string(self):
        start = self.pos
        self.pos += 1
        chars = []
        while True:
            if self.pos >= len(self.text) or self.text[self.pos] == "\n":
                raise LexError(
                    "unterminated string literal", self.source.location(start)
                )
            char = self.text[self.pos]
            if char == '"':
                self.pos += 1
                return self._make(
                    TokenKind.STRING_LITERAL, start, self.pos, "".join(chars)
                )
            if char == "\\":
                chars.append(self._lex_escape(start))
            else:
                chars.append(char)
                self.pos += 1

    def _lex_char(self):
        start = self.pos
        self.pos += 1
        if self.pos >= len(self.text):
            raise LexError("unterminated char literal", self.source.location(start))
        if self.text[self.pos] == "\\":
            value = self._lex_escape(start)
        else:
            value = self.text[self.pos]
            self.pos += 1
        if self.pos >= len(self.text) or self.text[self.pos] != "'":
            raise LexError("unterminated char literal", self.source.location(start))
        self.pos += 1
        return self._make(TokenKind.CHAR_LITERAL, start, self.pos, ord(value))

    def _lex_escape(self, literal_start):
        # self.pos points at the backslash.
        if self.pos + 1 >= len(self.text):
            raise LexError(
                "unterminated escape sequence", self.source.location(literal_start)
            )
        escape = self.text[self.pos + 1]
        if escape not in self._ESCAPES:
            raise LexError(
                "unknown escape sequence '\\{}'".format(escape),
                self.source.location(self.pos),
            )
        self.pos += 2
        return self._ESCAPES[escape]

    # -- helpers ----------------------------------------------------------

    def _peek_is_digit(self, offset):
        index = self.pos + offset
        return index < len(self.text) and self.text[index].isdigit()

    @staticmethod
    def _is_hex(char):
        return char.isdigit() or char.lower() in "abcdef"

    def _make(self, kind, start, end, value=None):
        return Token(kind, self.text[start:end], self._location, value)


def tokenize(source, filename="<lime>"):
    """Lex ``source`` (a string or :class:`SourceFile`) into tokens."""
    if isinstance(source, str):
        source = SourceFile(source, filename)
    return Lexer(source).tokens()

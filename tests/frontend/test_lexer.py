"""Lexer unit tests, including token-soup properties of the scanner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.source import Location, SourceFile
from repro.frontend.tokens import KEYWORDS, TokenKind as T

# Operator and punctuation spellings, from the token kinds themselves.
OPERATORS = sorted(
    kind.value
    for kind in T
    if kind is not T.EOF and not kind.value[0].isalnum()
)


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def test_keywords_and_identifiers():
    assert kinds("class task value local foo") == [
        T.KW_CLASS,
        T.KW_TASK,
        T.KW_VALUE,
        T.KW_LOCAL,
        T.IDENT,
    ]


def test_int_literal():
    token = tokenize("42")[0]
    assert token.kind is T.INT_LITERAL
    assert token.value == 42


def test_hex_literal():
    token = tokenize("0xFF")[0]
    assert token.value == 255


def test_long_literal():
    token = tokenize("65537L")[0]
    assert token.kind is T.LONG_LITERAL
    assert token.value == 65537


def test_float_literal_suffix():
    token = tokenize("1.5f")[0]
    assert token.kind is T.FLOAT_LITERAL
    assert token.value == 1.5


def test_double_literal():
    token = tokenize("2.25")[0]
    assert token.kind is T.DOUBLE_LITERAL
    assert token.value == 2.25


def test_scientific_notation():
    token = tokenize("1e3")[0]
    assert token.kind is T.DOUBLE_LITERAL
    assert token.value == 1000.0


def test_exponent_with_sign():
    token = tokenize("2.5e-2")[0]
    assert abs(token.value - 0.025) < 1e-12


def test_integer_then_method_call_is_not_float():
    # `x.length` style: dot after identifier, not part of a number.
    assert kinds("a.length") == [T.IDENT, T.DOT, T.IDENT]


def test_connect_operator():
    assert kinds("a => b") == [T.IDENT, T.CONNECT, T.IDENT]


def test_connect_vs_ge():
    assert kinds("a >= b") == [T.IDENT, T.GE, T.IDENT]


def test_map_and_reduce_tokens():
    assert kinds("f @ xs") == [T.IDENT, T.AT, T.IDENT]
    assert kinds("+! xs") == [T.PLUS, T.BANG, T.IDENT]


def test_shift_operators():
    assert kinds("a >> b >>> c << d") == [
        T.IDENT,
        T.SHR,
        T.IDENT,
        T.USHR,
        T.IDENT,
        T.SHL,
        T.IDENT,
    ]


def test_compound_assignment():
    assert kinds("x += 1") == [T.IDENT, T.PLUS_ASSIGN, T.INT_LITERAL]


def test_increment():
    assert kinds("i++") == [T.IDENT, T.PLUS_PLUS]


def test_line_comment_skipped():
    assert kinds("a // comment\n b") == [T.IDENT, T.IDENT]


def test_block_comment_skipped():
    assert kinds("a /* x\ny */ b") == [T.IDENT, T.IDENT]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_string_literal():
    token = tokenize('"hello\\nworld"')[0]
    assert token.kind is T.STRING_LITERAL
    assert token.value == "hello\nworld"


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_char_literal():
    token = tokenize("'a'")[0]
    assert token.kind is T.CHAR_LITERAL
    assert token.value == ord("a")


def test_unknown_character():
    with pytest.raises(LexError):
        tokenize("#")


def test_locations_track_lines():
    tokens = tokenize("a\n  b")
    assert tokens[0].location.line == 1
    assert tokens[1].location.line == 2
    assert tokens[1].location.column == 3


def test_value_array_brackets():
    assert kinds("float[[][4]]") == [
        T.KW_FLOAT,
        T.LBRACKET,
        T.LBRACKET,
        T.RBRACKET,
        T.LBRACKET,
        T.INT_LITERAL,
        T.RBRACKET,
        T.RBRACKET,
    ]


@pytest.mark.parametrize("source", ["0x", "0x;", "0xL", "0XL;"])
def test_malformed_hex_literal_is_a_lex_error(source):
    with pytest.raises(LexError, match="malformed number") as info:
        tokenize("a = " + source)
    assert info.value.location == Location("<lime>", 1, 5)


@pytest.mark.parametrize(
    "source", ["²", ".²", "1²", "1.²", "1e²", "²f", "1²d", "1²L", "0x²", "٣.²"]
)
def test_digit_that_int_rejects_is_a_lex_error(source):
    """``str.isdigit`` accepts superscripts, which ``int`` and ``float``
    reject: the literal is malformed at its start, not a traceback."""
    with pytest.raises(LexError, match="malformed number") as info:
        tokenize("x = " + source + ";")
    assert info.value.location == Location("<lime>", 1, 5)


@pytest.mark.parametrize(
    "source,kind,value",
    [
        ("٣", T.INT_LITERAL, 3),
        ("٣L", T.LONG_LITERAL, 3),
        ("٣.٥", T.DOUBLE_LITERAL, 3.5),
        ("٣f", T.FLOAT_LITERAL, 3.0),
    ],
)
def test_decimal_digits_int_accepts_still_lex(source, kind, value):
    token = tokenize("x = " + source + ";")[2]
    assert (token.kind, token.text, token.value) == (kind, source, value)


def test_hex_long_literal():
    token = tokenize("0x1fL")[0]
    assert (token.kind, token.text, token.value) == (T.LONG_LITERAL, "0x1fL", 31)


def test_non_ascii_identifiers_follow_str_isalpha():
    tokens = tokenize("été = xé1 + abé + a.été;")
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        (T.IDENT, "été"),
        (T.ASSIGN, "="),
        (T.IDENT, "xé1"),
        (T.PLUS, "+"),
        (T.IDENT, "abé"),
        (T.PLUS, "+"),
        (T.IDENT, "a"),
        (T.DOT, "."),
        (T.IDENT, "été"),
        (T.SEMI, ";"),
    ]


def test_locations_after_multiline_comment_and_char_literal():
    source = "a /* x\n\n y */ b '\n' c"
    tokens = tokenize(source)
    assert [str(t.location) for t in tokens] == [
        "<lime>:1:1",
        "<lime>:3:7",
        "<lime>:3:9",
        "<lime>:4:3",
        "<lime>:4:4",
    ]


@pytest.mark.parametrize(
    "source,texts",
    [(">>>=", [">>>", "="]), ("=>=", ["=>", "="]), ("<<=", ["<<", "="])],
)
def test_adjacent_operators_lex_by_maximal_munch(source, texts):
    assert [t.text for t in tokenize(source)[:-1]] == texts


# -- token soups ---------------------------------------------------------------


def _munch(text):
    """Reference maximal munch over the operator table."""
    out = []
    while text:
        op = max((o for o in OPERATORS if text.startswith(o)), key=len)
        out.append(op)
        text = text[len(op) :]
    return out


_identifiers = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True).filter(
    lambda word: word not in KEYWORDS
) | st.sampled_from(["été", "abé1"])
_digits = st.integers(0, 99999).map(str)
_literals = st.one_of(
    _digits,
    _digits.map(lambda d: d + "L"),
    st.tuples(_digits, _digits).map(lambda p: "{}.{}f".format(*p)),
    st.tuples(_digits, _digits).map(lambda p: "{}.{}".format(*p)),
    st.tuples(_digits, st.integers(-9, 9)).map(lambda p: "{}e{}".format(*p)),
    st.integers(0, 2**31 - 1).map("0x{:X}".format),
    st.text("abc xyz", max_size=6).map(lambda t: '"' + t + '"'),
)
_tokens = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).map(lambda t: (t, "word")),
    st.sampled_from(OPERATORS).map(lambda t: (t, "op")),
    _identifiers.map(lambda t: (t, "word")),
    _literals.map(lambda t: (t, "literal")),
)
# Gaps are trivia, or nothing at all where two tokens may touch.
_gaps = st.one_of(
    st.just(""),
    st.sampled_from(["// note\n", "/* note */", "/*\n*\n*/"]),
    st.tuples(
        st.sampled_from([" ", "\n", "\t", "  \n  "]),
        st.sampled_from(["", "// note\n", "/* note */ ", "/*\n*\n*/\t", "\n\n"]),
    ).map("".join),
)


def _may_touch(left, right):
    """Whether two tokens lex apart with nothing between them: a word or
    literal next to an operator (bar a literal next to ``.``, which may
    join a number), or a word or literal next to a string."""
    (left_text, left_kind), (right_text, right_kind) = left, right
    if "op" not in (left_kind, right_kind):
        return left_text.endswith('"') or right_text.startswith('"')
    if left_kind == right_kind:
        return False  # operator pairs: see the maximal-munch test
    return "." not in (left_text, right_text) or "literal" not in (left_kind, right_kind)


def _separate(left, gap, right):
    """``gap``, widened to a space where it would join its neighbours."""
    if gap == "":
        return gap if right is None or _may_touch(left, right) else " "
    if gap[0] == "/" and left[0].endswith("/"):
        return " " + gap  # ``/`` then ``/*`` would start a comment
    return gap


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.tuples(_tokens, _gaps), max_size=30), _gaps)
def test_token_soup_round_trips_with_locations(pieces, lead):
    source, offsets = lead, []
    for index, (token, gap) in enumerate(pieces):
        after = pieces[index + 1][0] if index + 1 < len(pieces) else None
        offsets.append(len(source))
        source += token[0] + _separate(token, gap, after)
    offsets.append(len(source))
    tokens = tokenize(source)
    # Joining the token texts gives the source without its trivia.
    assert [t.text for t in tokens[:-1]] == [token[0] for token, _ in pieces]
    assert tokens[-1].kind is T.EOF
    # Every token sits where the source file says its offset is.
    where = SourceFile(source)
    assert [t.location for t in tokens] == [where.location(o) for o in offsets]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), st.sampled_from(OPERATORS))
def test_adjacent_operator_pairs_munch_maximally(first, second):
    text = first + second
    if "//" in text or "/*" in text:
        return  # a comment, not two operators
    assert [t.text for t in tokenize(text)[:-1]] == _munch(text)

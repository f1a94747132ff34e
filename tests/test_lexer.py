import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocl import lexer
from bocl.lexer import KEYWORDS, ParseError, tokenize
from bocl.parser import parse_expression

from reference_lex import reference_scan


def tags_and_texts(source):
    return [(tag, text) for tag, text, _ in tokenize(source)]


def test_simple_constraint_body():
    assert tags_and_texts("self.pages>0") == [
        ("self", "self"),
        (".", "."),
        ("ident", "pages"),
        (">", ">"),
        ("int", "0"),
        ("eof", ""),
    ]


def test_string_literal_content():
    tokens = tokenize("'Children Library'")
    assert tokens[0][:2] == ("string", "Children Library")


def test_string_escaped_quote():
    tokens = tokenize("'it''s'")
    assert tokens[0][1] == "it's"


def test_unterminated_string_position():
    with pytest.raises(ParseError) as exc:
        tokenize("'abc")
    assert (exc.value.line, exc.value.col) == (1, 1)


def test_unterminated_string_on_later_line():
    with pytest.raises(ParseError) as exc:
        tokenize("self.pages\n  'oops")
    assert (exc.value.line, exc.value.col) == (2, 3)


def test_illegal_character():
    with pytest.raises(ParseError) as exc:
        tokenize("a ! b")
    assert "!" in exc.value.message
    assert (exc.value.line, exc.value.col) == (1, 3)


def test_comments_skipped():
    assert tags_and_texts("1 -- the rest is ignored\n2") == [
        ("int", "1"),
        ("int", "2"),
        ("eof", ""),
    ]


def test_arrow_is_not_a_comment():
    tokens = tokenize("x->size()")
    assert [text for _, text, _ in tokens[:2]] == ["x", "->"]


def test_keywords_case_insensitive_and_normalized():
    assert tags_and_texts("IF Then ENDIF")[:3] == [
        ("if", "if"),
        ("then", "then"),
        ("endif", "endif"),
    ]


def test_identifiers_case_sensitive():
    assert tags_and_texts("Pages pages")[:2] == [("ident", "Pages"), ("ident", "pages")]


@pytest.mark.parametrize(
    "source,expected",
    [
        ("1.5", [("real", "1.5")]),
        ("1.", [("int", "1"), (".", ".")]),
        ("1.foo", [("int", "1"), (".", "."), ("ident", "foo")]),
        ("007", [("int", "007")]),
    ],
)
def test_number_shapes(source, expected):
    assert tags_and_texts(source)[:-1] == expected


def test_two_char_symbols():
    tokens = tokenize(":: <> <= >= ->")
    assert [(tag, text) for tag, text, _ in tokens[:-1]] == [
        (symbol, symbol) for symbol in ["::", "<>", "<=", ">=", "->"]
    ]


def test_positions_track_lines():
    source = "a\n  b"
    tokens = tokenize(source)
    assert [offset for _, _, offset in tokens] == [0, 4, 5]
    assert lexer.position(source, tokens[0][2]) == (1, 1)
    assert lexer.position(source, tokens[1][2]) == (2, 3)


def test_tokens_tile_eof_position():
    source = "ab cd"
    tokens = tokenize(source)
    assert tokens[-1] == ("eof", "", 5)
    assert lexer.position(source, tokens[-1][2]) == (1, 6)


@given(st.text(max_size=200))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_tokenize_total_on_arbitrary_text(source):
    # Any input either tokenizes or raises ParseError; nothing else escapes.
    try:
        tokens = tokenize(source)
    except ParseError:
        return
    assert tokens[-1] == ("eof", "", len(source))


@given(st.binary(max_size=200))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_tokenize_total_on_arbitrary_bytes(raw):
    try:
        tokenize(raw.decode("latin-1"))
    except ParseError:
        pass


@pytest.mark.parametrize("source", ["'''", "'ab''", "x 'it''"])
def test_unterminated_after_doubled_quotes(source):
    with pytest.raises(ParseError, match="unterminated string literal") as exc:
        tokenize(source)
    assert (exc.value.line, exc.value.col) == (1, source.index("'") + 1)


@pytest.mark.parametrize("source", ["٣", "é", "aé"])
def test_non_ascii_letters_and_digits_are_illegal(source):
    with pytest.raises(ParseError, match="illegal character") as exc:
        tokenize(source)
    assert (exc.value.line, exc.value.col) == (1, len(source))


@pytest.mark.parametrize(
    "source,index,position",
    [
        ("x\r y", 1, (1, 4)),  # \r and \t count one column each
        ("x\t\ty", 1, (1, 4)),
        ("'a\nb' x", 1, (2, 4)),  # a newline inside a string moves the line
        ("a -- c", 1, (1, 7)),  # EOF after a comment
        ("a\n", 1, (2, 1)),
        ("a -- c\n  b", 1, (2, 3)),  # the newline that ends a comment moves the line
        ("'a''\n''b' x", 1, (2, 6)),  # doubled quotes around a newline in a string
        ("'\n\n' -- c\n\n x", 1, (5, 2)),
        ("x\n'it''s'", 1, (2, 1)),
    ],
)
def test_token_positions(source, index, position):
    assert lexer.position(source, tokenize(source)[index][2]) == position


def test_tokens_of_multi_line_source():
    source = "context Book inv -- header\n  self.title <> 'it''s\na' -- tail\n\tAND 1.5"
    assert [(tag, text, *lexer.position(source, offset))
            for tag, text, offset in tokenize(source)] == [
        ("context", "context", 1, 1),
        ("ident", "Book", 1, 9),
        ("inv", "inv", 1, 14),
        ("self", "self", 2, 3),
        (".", ".", 2, 7),
        ("ident", "title", 2, 8),
        ("<>", "<>", 2, 14),
        ("string", "it's\na", 2, 17),
        ("and", "and", 4, 2),
        ("real", "1.5", 4, 6),
        ("eof", "", 4, 9),
    ]


def _offset(source, line, col):
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    return line_starts[line - 1] + col - 1


_PIECES = list("aZ_9 \t\r\n'.-<>=:()|+*/,!é") + ["--", "''", "->", "and", "IF", "1.5", "x1"]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_positions_point_at_source_text(source):
    try:
        tokens = tokenize(source)
    except ParseError as error:
        # The parser reports the scanner's error as it is.
        with pytest.raises(ParseError) as parsed:
            parse_expression(source)
        assert (parsed.value.message, parsed.value.line, parsed.value.col) == (
            error.message, error.line, error.col)
        at = source[_offset(source, error.line, error.col)]
        assert at == "'" if "unterminated" in error.message else repr(at) in error.message
        return
    for tag, text, offset in tokens:
        # position() gives the 1-based line and column that ParseError reports.
        assert _offset(source, *lexer.position(source, offset)) == offset
        at = source[offset:]
        if tag == "string":
            assert at.startswith("'" + text.replace("'", "''") + "'")
        elif tag in KEYWORDS:
            assert at.lower().startswith(text)
        else:
            assert at.startswith(text)
    assert tokens[-1] == ("eof", "", len(source))


# Fragments that stress each choice the scanner makes: keywords in mixed
# case, comments beside '-' and '->', numbers with and without a fraction,
# doubled and unterminated quotes, and characters that are not tokens.
_FRAGMENTS = [
    "context", "INV", "Self", "eNdIf", "AnD", "nOt", "True", "iF", "selfish", "Book", "_x9",
    "--", "-- note\n", "-", "->", "-->", "<", ">", "<>", "<=", ">=", ":", "::", "=", ".",
    "(", ")", "|", ",", "+", "*", "/", "0", "1.", "1.5", "1.5.x", "007", ".5",
    "'", "''", "'a''b'", "'it''s", "'\n'", " ", "\t", "\r", "\n", "\x00", "é", "Ω", "٣", "!",
]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join))
@settings(derandomize=True, max_examples=600, deadline=None)
def test_scan_agrees_with_reference(source):
    try:
        expected = reference_scan(source)
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            tokenize(source)
        found = raised.value
        assert (found.message, found.line, found.col) == (error.message, error.line, error.col)
        # The text before the error scans alike as well.
        source = source[:_offset(source, error.line, error.col)]
        expected = reference_scan(source)
    assert tokenize(source) == expected

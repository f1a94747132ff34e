import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocl.lexer import ParseError, TokenKind, scan, tokenize

from reference_lex import reference_scan


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_simple_constraint_body():
    assert kinds_and_texts("self.pages>0") == [
        (TokenKind.KEYWORD, "self"),
        (TokenKind.SYMBOL, "."),
        (TokenKind.IDENT, "pages"),
        (TokenKind.SYMBOL, ">"),
        (TokenKind.INT, "0"),
        (TokenKind.EOF, ""),
    ]


def test_string_literal_content():
    tokens = tokenize("'Children Library'")
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[0].text == "Children Library"


def test_string_escaped_quote():
    tokens = tokenize("'it''s'")
    assert tokens[0].text == "it's"


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
    assert kinds_and_texts("1 -- the rest is ignored\n2") == [
        (TokenKind.INT, "1"),
        (TokenKind.INT, "2"),
        (TokenKind.EOF, ""),
    ]


def test_arrow_is_not_a_comment():
    tokens = tokenize("x->size()")
    assert [t.text for t in tokens[:2]] == ["x", "->"]


def test_keywords_case_insensitive_and_normalized():
    tokens = tokenize("IF Then ENDIF")
    assert [(t.kind, t.text) for t in tokens[:3]] == [
        (TokenKind.KEYWORD, "if"),
        (TokenKind.KEYWORD, "then"),
        (TokenKind.KEYWORD, "endif"),
    ]


def test_identifiers_case_sensitive():
    tokens = tokenize("Pages pages")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].text == "Pages"
    assert tokens[1].text == "pages"


@pytest.mark.parametrize(
    "source,expected",
    [
        ("1.5", [(TokenKind.REAL, "1.5")]),
        ("1.", [(TokenKind.INT, "1"), (TokenKind.SYMBOL, ".")]),
        ("1.foo", [(TokenKind.INT, "1"), (TokenKind.SYMBOL, "."), (TokenKind.IDENT, "foo")]),
        ("007", [(TokenKind.INT, "007")]),
    ],
)
def test_number_shapes(source, expected):
    assert kinds_and_texts(source)[:-1] == expected


def test_two_char_symbols():
    tokens = tokenize(":: <> <= >= ->")
    assert [t.text for t in tokens[:-1]] == ["::", "<>", "<=", ">=", "->"]


def test_positions_track_lines():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[1].line, tokens[1].col) == (2, 3)


def test_tokens_tile_eof_position():
    tokens = tokenize("ab cd")
    assert tokens[-1].kind is TokenKind.EOF
    assert (tokens[-1].line, tokens[-1].col) == (1, 6)


@given(st.text(max_size=200))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_tokenize_total_on_arbitrary_text(source):
    # Any input either tokenizes or raises ParseError; nothing else escapes.
    try:
        tokens = tokenize(source)
    except ParseError:
        return
    assert tokens[-1].kind is TokenKind.EOF


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
    token = tokenize(source)[index]
    assert (token.line, token.col) == position


def test_tokens_of_multi_line_source():
    source = "context Book inv -- header\n  self.title <> 'it''s\na' -- tail\n\tAND 1.5"
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] == [
        (TokenKind.KEYWORD, "context", 1, 1),
        (TokenKind.IDENT, "Book", 1, 9),
        (TokenKind.KEYWORD, "inv", 1, 14),
        (TokenKind.KEYWORD, "self", 2, 3),
        (TokenKind.SYMBOL, ".", 2, 7),
        (TokenKind.IDENT, "title", 2, 8),
        (TokenKind.SYMBOL, "<>", 2, 14),
        (TokenKind.STRING, "it's\na", 2, 17),
        (TokenKind.KEYWORD, "and", 4, 2),
        (TokenKind.REAL, "1.5", 4, 6),
        (TokenKind.EOF, "", 4, 9),
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
        with pytest.raises(ParseError) as scanned:
            scan(source)
        assert (scanned.value.line, scanned.value.col) == (error.line, error.col)
        at = source[_offset(source, error.line, error.col)]
        assert at == "'" if "unterminated" in error.message else repr(at) in error.message
        return
    for token in tokens[:-1]:
        at = source[_offset(source, token.line, token.col):]
        if token.kind is TokenKind.STRING:
            assert at.startswith("'" + token.text.replace("'", "''") + "'")
        elif token.kind is TokenKind.KEYWORD:
            assert at.lower().startswith(token.text)
        else:
            assert at.startswith(token.text)
    eof = tokens[-1]
    assert _offset(source, eof.line, eof.col) == len(source)
    # The benchmark counts tokens with tokenize; the parser reads scan.
    assert len(tokens) == len(scan(source))


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
            scan(source)
        found = raised.value
        assert (found.message, found.line, found.col) == (error.message, error.line, error.col)
        # The text before the error scans alike as well.
        source = source[:_offset(source, error.line, error.col)]
        expected = reference_scan(source)
    assert scan(source) == expected

"""Reference scanner for constraint text: the regex scanner that
bocl.lexer.tokenize replaced, one match per token shape and one more per
whitespace run; like tokenize, it takes a word for a keyword only as
written. tests/test_lexer.py requires bocl.lexer.tokenize to give the same
entries, or to raise a ParseError with the same message, line and column."""

from __future__ import annotations

import re

from bocl.lexer import ParseError, position

KEYWORDS = frozenset(
    {
        "context", "inv", "pre", "post",
        "if", "then", "else", "endif",
        "and", "or", "not",
        "true", "false", "self",
    }
)

# One alternative per token shape, tried in order. Identifiers and digits
# are ASCII only (\w and \d would admit other scripts). Two-character
# symbols come before their one-character prefixes. A string ends at a
# quote that is not followed by another quote (doubled quotes are an
# escaped quote); an unterminated string leaves its opening quote to the
# catch-all 'bad' group.
_TOKEN_RE = re.compile(
    r"""
      (?P<space>[ \t\r\n]+|--[^\n]*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<real>[0-9]+\.[0-9]+)
    | (?P<int>[0-9]+)
    | (?P<symbol>::|<>|<=|>=|->|[:()|.=<>+\-*/,])
    | (?P<string>'(?:[^']|'')*'(?!'))
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_scan(source: str) -> list[tuple[str, str, int]]:
    """Split source into (tag, text, offset) entries, ending with ("eof", "", len(source)).

    A keyword's or symbol's tag is its text; any other token's tag is its
    group: "ident", "int", "real" or "string". Whitespace and -- line
    comments are skipped. A word is a keyword only when it is in KEYWORDS
    exactly as written; a string's text is its decoded content (''
    inside a literal is a single quote).
    """
    entries: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(source):
        tag = match.lastgroup
        if tag == "space":
            continue
        text = match.group()
        if tag == "word":
            tag = text if text in KEYWORDS else "ident"
        elif tag == "symbol":
            tag = text
        elif tag == "string":
            text = text[1:-1].replace("''", "'")
        elif tag == "bad":
            message = "unterminated string literal" if text == "'" else f"illegal character {text!r}"
            raise ParseError(message, *position(source, match.start()))
        entries.append((tag, text, match.start()))
    entries.append(("eof", "", len(source)))
    return entries

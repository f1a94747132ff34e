"""Regular-expression tokenizer for constraint text."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    IDENT = "identifier"
    INT = "integer"
    REAL = "real"
    STRING = "string"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "end of input"


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

# Scanner tag -> token kind; a tag not listed is a symbol's text.
_TAG_KINDS = dict.fromkeys(KEYWORDS, TokenKind.KEYWORD) | {
    "ident": TokenKind.IDENT, "int": TokenKind.INT, "real": TokenKind.REAL,
    "string": TokenKind.STRING, "eof": TokenKind.EOF,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return f"{self.kind.value} '{self.text}'"


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


def position(source: str, offset: int) -> tuple[int, int]:
    """The line and column of a character offset; called only to raise ParseError."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def describe(tag: str, text: str) -> str:
    """How an error message names a scanned token."""
    return Token(_TAG_KINDS.get(tag, TokenKind.SYMBOL), text, 0, 0).describe()


def scan(source: str) -> list[tuple[str, str, int]]:
    """Split source into (tag, text, offset) entries, ending with ("eof", "", len(source)).

    A keyword's or symbol's tag is its text; any other token's tag is its
    group: "ident", "int", "real" or "string". Whitespace and -- line
    comments are skipped. Keywords are matched case-insensitively and
    normalized to lowercase; a string's text is its decoded content (''
    inside a literal is a single quote).
    """
    entries: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(source):
        tag = match.lastgroup
        if tag == "space":
            continue
        text = match.group()
        if tag == "word":
            word = text.lower()
            tag, text = (word, word) if word in KEYWORDS else ("ident", text)
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


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, ending with an EOF token: scan()'s entries
    with a kind, and a 1-based line and column (characters since the last
    newline) in place of the offset."""
    tokens: list[Token] = []
    line, line_start, last = 1, 0, 0
    for tag, text, offset in scan(source):
        newlines = source.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", last, offset) + 1
        last = offset
        kind = _TAG_KINDS.get(tag, TokenKind.SYMBOL)
        tokens.append(Token(kind, text, line, offset - line_start + 1))
    return tokens

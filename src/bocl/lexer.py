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

_GROUP_KINDS = {"real": TokenKind.REAL, "int": TokenKind.INT, "symbol": TokenKind.SYMBOL}


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


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, ending with an EOF token.

    Whitespace and -- line comments are skipped. Keywords are matched
    case-insensitively and normalized to lowercase; string tokens carry
    the decoded content ('' inside a literal is a single quote). Columns
    count characters from the last newline, starting at 1.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group != "space":
            col = match.start() - line_start + 1
            if group == "word":
                word = text.lower()
                if word in KEYWORDS:
                    tokens.append(Token(TokenKind.KEYWORD, word, line, col))
                else:
                    tokens.append(Token(TokenKind.IDENT, text, line, col))
            elif group == "string":
                tokens.append(Token(TokenKind.STRING, text[1:-1].replace("''", "'"), line, col))
            elif group == "bad":
                if text == "'":
                    raise ParseError("unterminated string literal", line, col)
                raise ParseError(f"illegal character {text!r}", line, col)
            else:
                tokens.append(Token(_GROUP_KINDS[group], text, line, col))
        # Only whitespace and string literals can span lines.
        if "\n" in text:
            line += text.count("\n")
            line_start = match.start() + text.rindex("\n") + 1
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens

"""Regular-expression tokenizer for constraint text."""

from __future__ import annotations

import re

KEYWORDS = frozenset(
    {
        "context", "inv", "pre", "post",
        "if", "then", "else", "endif",
        "and", "or", "not",
        "true", "false", "self",
    }
)

# One match per token: whitespace, then one numbered group per token shape,
# tried in order. A comment comes before '-', two-character symbols before
# their prefixes. Identifiers and digits are ASCII only (\w and \d admit
# other scripts). A string ends at a quote not followed by another (doubled
# quotes are an escaped quote); an unterminated string leaves its opening
# quote to the catch-all group, and \Z keeps trailing whitespace out of it.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*
    (?:
      (--[^\n]*)                          # 1 comment
    | ([A-Za-z_][A-Za-z0-9_]*)             # 2 word
    | ([0-9]+(?:\.[0-9]+)?)                # 3 int or real
    | (::|<>|<=|>=|->|[:()|.=<>+\-*/,])    # 4 symbol
    | '((?:[^']|'')*)'(?!')                # 5 string content
    | (\Z)                                 # 6 end of input
    | (.)                                  # 7 anything else
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# Tag -> the word an error message names its token by; a tag not listed is
# a symbol's text.
_TAG_WORDS = dict.fromkeys(KEYWORDS, "keyword") | {
    "ident": "identifier", "int": "integer", "real": "real", "string": "string",
}


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
    """How an error message names a token."""
    if tag == "eof":
        return "end of input"
    return f"{_TAG_WORDS.get(tag, 'symbol')} '{text}'"


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """Split source into (tag, text, offset) entries, ending with ("eof", "", len(source)).

    A keyword's or symbol's tag is its text; any other token's tag is its
    shape: "ident", "int", "real" or "string". Whitespace and -- line
    comments are skipped: a comment (group 1) takes no branch below. A word
    is a keyword only when it is in KEYWORDS exactly as written, so "if" is
    a keyword and "IF" an identifier, as in OCL; a string's text is its
    decoded content ('' inside a literal is a single quote).
    """
    entries: list[tuple[str, str, int]] = []
    append = entries.append
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        if group == 4:
            text = match[4]
            append((text, text, match.start(4)))
        elif group == 2:
            text = match[2]
            append((text if text in KEYWORDS else "ident", text, match.start(2)))
        elif group == 3:
            text = match[3]
            append(("real" if "." in text else "int", text, match.start(3)))
        elif group == 5:
            append(("string", match[5].replace("''", "'"), match.start(5) - 1))
        elif group == 7:
            text = match[7]
            message = "unterminated string literal" if text == "'" else f"illegal character {text!r}"
            raise ParseError(message, *position(source, match.start(7)))
        elif group == 6:  # the end; after trailing whitespace, \Z would match again
            break
    append(("eof", "", len(source)))
    return entries

"""Recursive-descent parser for invariant constraints.

Precedence, loosest to tightest: or < and < comparison < additive <
multiplicative < unary < postfix. The binary levels come from
ast.BINARY_PREC, the table the printer uses, and are parsed by
precedence climbing. Comparisons are non-associative, the other binary
levels associate left. Postfix covers '.' property access and '->'
collection operations; if/then/else/endif is self-delimiting and parses
as a primary.

Each parse function takes the level its expression starts at, and the
stream keeps the deepest level reached. A parenthesis, unary operator,
if, iterator body or binary operand is one level down, as is each link
of a binary, '.' or '->' chain, so no tree is deeper than its count.
"""

from __future__ import annotations

import math

from .ast import (
    BINARY_PREC,
    COMPARISON_OPERATORS,
    MAX_DEPTH,
    BooleanLiteralExp,
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
    Expr,
    IfExp,
    InfixOperator,
    IntegerLiteralExp,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    RealLiteralExp,
    SelfExp,
    Stereotype,
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from .lexer import ParseError, Token, TokenKind, tokenize
from .model import INT64_MAX

_INFIX_OPERATORS = {op.value: op for op in InfixOperator}

_ITERATOR_KINDS = {kind.value: kind for kind in IteratorKind}
_COLLECTION_OPS = {op.value: op for op in CollectionOp}

# Stereotype words the grammar recognizes but the tool does not support.
_UNSUPPORTED_STEREOTYPES = frozenset({"pre", "post", "derive", "init", "body", "def"})


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.deepest = 0  # the deepest level reached; see _parse_expr

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        """Return the next token and move past it; EOF is never passed."""
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def match(self, kind: TokenKind, text: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind is kind and (text is None or token.text == text):
            return self.take()
        return None

    def expect(self, kind: TokenKind, text: str | None, description: str) -> Token:
        token = self.match(kind, text)
        if token is None:
            found = self.peek()
            raise ParseError(
                f"expected {description}, found {found.describe()}",
                found.line,
                found.col,
                expected=(description,),
            )
        return token


def parse_constraint(source: str) -> ConstraintAst:
    """Parse 'context ID inv [ID] : expr'; raises ParseError otherwise."""
    stream = _TokenStream(tokenize(source))
    stream.expect(TokenKind.KEYWORD, "context", "'context'")
    context = stream.expect(TokenKind.IDENT, None, "context class name").text

    token = stream.peek()
    word = token.text.lower()
    if (
        token.kind in (TokenKind.KEYWORD, TokenKind.IDENT)
        and word in _UNSUPPORTED_STEREOTYPES
    ):
        raise ParseError(
            f"unsupported stereotype '{word}': only 'inv' constraints are evaluated",
            token.line,
            token.col,
            expected=("'inv'",),
        )
    stream.expect(TokenKind.KEYWORD, "inv", "'inv'")

    name_token = stream.match(TokenKind.IDENT)
    name = name_token.text if name_token else None
    stream.expect(TokenKind.SYMBOL, ":", "':'")
    body = _parse_expr(stream, 0)
    stream.expect(TokenKind.EOF, None, "end of input")
    return ConstraintAst(context, Stereotype.INV, name, body)


def parse_expression(source: str) -> Expr:
    """Parse a bare expression (no context header)."""
    stream = _TokenStream(tokenize(source))
    expr = _parse_expr(stream, 0)
    stream.expect(TokenKind.EOF, None, "end of input")
    return expr


def _infix_operator(token: Token) -> InfixOperator | None:
    if token.kind is TokenKind.SYMBOL or token.kind is TokenKind.KEYWORD:
        return _INFIX_OPERATORS.get(token.text)
    return None


def _deeper(s: _TokenStream, level: int, token: Token) -> int:
    """The level below level, recorded as reached; past MAX_DEPTH, token is a syntax error."""
    if level >= MAX_DEPTH:
        raise ParseError("expression nests too deeply", token.line, token.col)
    s.deepest = max(s.deepest, level + 1)
    return level + 1


def _parse_expr(s: _TokenStream, level: int, min_prec: int = 1) -> Expr:
    """Precedence climbing over the printer's BINARY_PREC table."""
    # s.deepest covers only this expression until it returns.
    outer, s.deepest = s.deepest, level
    left = _parse_unary(s, level)
    while True:
        op = _infix_operator(s.peek())
        if op is None or BINARY_PREC[op] < min_prec:
            s.deepest = max(outer, s.deepest)
            return left
        _deeper(s, s.deepest, s.take())
        left = OperationCallExp(op, left, _parse_expr(s, level + 1, BINARY_PREC[op] + 1))
        if op in COMPARISON_OPERATORS:
            follow = s.peek()
            if _infix_operator(follow) in COMPARISON_OPERATORS:
                raise ParseError(
                    "comparison operators are non-associative; use parentheses",
                    follow.line,
                    follow.col,
                )


def _parse_unary(s: _TokenStream, level: int) -> Expr:
    token = s.match(TokenKind.KEYWORD, "not") or s.match(TokenKind.SYMBOL, "-")
    if token is not None:
        return UnaryExp(UnaryOperator(token.text), _parse_unary(s, _deeper(s, level, token)))
    return _parse_postfix(s, level)


def _parse_postfix(s: _TokenStream, level: int) -> Expr:
    expr = _parse_primary(s, level)
    while True:
        token = s.match(TokenKind.SYMBOL, ".") or s.match(TokenKind.SYMBOL, "->")
        if token is None:
            return expr
        _deeper(s, s.deepest, token)
        if token.text == ".":
            expr = PropertyExp(expr, s.expect(TokenKind.IDENT, None, "property name").text)
        else:
            expr = _parse_collection_call(s, expr, level + 1)


def _parse_collection_call(s: _TokenStream, source: Expr, level: int) -> Expr:
    token = s.expect(TokenKind.IDENT, None, "collection operation name")
    name = token.text
    if name in _COLLECTION_OPS:
        s.expect(TokenKind.SYMBOL, "(", "'('")
        s.expect(TokenKind.SYMBOL, ")", "')'")
        return CollectionOpExp(source, _COLLECTION_OPS[name])
    if name in _ITERATOR_KINDS:
        s.expect(TokenKind.SYMBOL, "(", "'('")
        var = s.expect(TokenKind.IDENT, None, "iterator variable name").text
        var_type = None
        if s.match(TokenKind.SYMBOL, ":"):
            var_type = s.expect(TokenKind.IDENT, None, "iterator variable type").text
        s.expect(TokenKind.SYMBOL, "|", "'|'")
        body = _parse_expr(s, level)
        s.expect(TokenKind.SYMBOL, ")", "')'")
        return IteratorExp(source, _ITERATOR_KINDS[name], var, var_type, body)
    known = sorted(_COLLECTION_OPS) + sorted(_ITERATOR_KINDS)
    raise ParseError(
        f"unknown collection operation '{name}'",
        token.line,
        token.col,
        expected=tuple(f"'{op}'" for op in known),
    )


def _parse_primary(s: _TokenStream, level: int) -> Expr:
    token = s.take()
    if token.kind is TokenKind.KEYWORD:
        if token.text == "self":
            return SelfExp()
        if token.text in ("true", "false"):
            return BooleanLiteralExp(token.text == "true")
        if token.text == "if":
            level = _deeper(s, level, token)
            condition = _parse_expr(s, level)
            s.expect(TokenKind.KEYWORD, "then", "'then'")
            then_branch = _parse_expr(s, level)
            s.expect(TokenKind.KEYWORD, "else", "'else'")
            else_branch = _parse_expr(s, level)
            s.expect(TokenKind.KEYWORD, "endif", "'endif'")
            return IfExp(condition, then_branch, else_branch)
    elif token.kind is TokenKind.INT:
        # Compare lengths first: int() refuses text of over 4300 digits.
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:
            raise ParseError(
                "integer literal out of 64-bit range", token.line, token.col
            )
        return IntegerLiteralExp(int(digits))
    elif token.kind is TokenKind.REAL:
        value = float(token.text)
        if value == math.inf:
            raise ParseError("real literal out of range", token.line, token.col)
        return RealLiteralExp(value)
    elif token.kind is TokenKind.STRING:
        return StringLiteralExp(token.text)
    elif token.kind is TokenKind.IDENT:
        return VariableExp(token.text)
    elif token.kind is TokenKind.SYMBOL and token.text == "(":
        expr = _parse_expr(s, _deeper(s, level, token))
        s.expect(TokenKind.SYMBOL, ")", "')'")
        return expr
    raise ParseError(
        f"expected expression, found {token.describe()}",
        token.line,
        token.col,
        expected=("expression",),
    )

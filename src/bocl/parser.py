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
from .lexer import ParseError, describe, position, scan
from .model import INT64_MAX

# Scanner tag -> (operator, BINARY_PREC level) for every binary operator.
_INFIX = {op.value: (op, BINARY_PREC[op]) for op in InfixOperator}
_COMPARISON_TAGS = frozenset(op.value for op in COMPARISON_OPERATORS)
_UNARY = {op.value: op for op in UnaryOperator}

_ITERATOR_KINDS = {kind.value: kind for kind in IteratorKind}
_COLLECTION_OPS = {op.value: op for op in CollectionOp}

# Stereotype words the grammar recognizes but the tool does not support.
_UNSUPPORTED_STEREOTYPES = frozenset({"pre", "post", "derive", "init", "body", "def"})


class _TokenStream:
    """scan()'s entries and the position of the next one; see lexer.scan."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = scan(source)
        self.pos = 0
        self.deepest = 0  # the deepest level reached; see _parse_expr

    def error(self, message: str, offset: int, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, *position(self.source, offset), expected)

    def expect(self, tag: str, description: str) -> str:
        """The next token's text, moving past it; a syntax error unless its tag is tag."""
        found, text, offset = self.tokens[self.pos]
        if found != tag:
            message = f"expected {description}, found {describe(found, text)}"
            raise self.error(message, offset, (description,))
        self.pos += 1
        return text


def parse_constraint(source: str) -> ConstraintAst:
    """Parse 'context ID inv [ID] : expr'; raises ParseError otherwise."""
    stream = _TokenStream(source)
    stream.expect("context", "'context'")
    context = stream.expect("ident", "context class name")

    tag, text, offset = stream.tokens[stream.pos]
    word = text.lower()
    if word in _UNSUPPORTED_STEREOTYPES and tag != "string":
        raise stream.error(
            f"unsupported stereotype '{word}': only 'inv' constraints are evaluated",
            offset,
            ("'inv'",),
        )
    stream.expect("inv", "'inv'")

    name = None
    if stream.tokens[stream.pos][0] == "ident":
        name = stream.expect("ident", "constraint name")
    stream.expect(":", "':'")
    body = _parse_expr(stream, 0)
    stream.expect("eof", "end of input")
    return ConstraintAst(context, Stereotype.INV, name, body)


def parse_expression(source: str) -> Expr:
    """Parse a bare expression (no context header)."""
    stream = _TokenStream(source)
    expr = _parse_expr(stream, 0)
    stream.expect("eof", "end of input")
    return expr


def _deeper(s: _TokenStream, level: int, offset: int) -> int:
    """The level below level, recorded as reached; past MAX_DEPTH, a syntax error at offset."""
    if level >= MAX_DEPTH:
        raise s.error("expression nests too deeply", offset)
    s.deepest = max(s.deepest, level + 1)
    return level + 1


def _parse_expr(s: _TokenStream, level: int, min_prec: int = 1) -> Expr:
    """Precedence climbing over the printer's BINARY_PREC table."""
    # s.deepest covers only this expression until it returns.
    outer, s.deepest = s.deepest, level
    left = _parse_unary(s, level)
    while True:
        tag, _, offset = s.tokens[s.pos]
        infix = _INFIX.get(tag)
        if infix is None or infix[1] < min_prec:
            s.deepest = max(outer, s.deepest)
            return left
        op, prec = infix
        s.pos += 1
        _deeper(s, s.deepest, offset)
        left = OperationCallExp(op, left, _parse_expr(s, level + 1, prec + 1))
        if tag in _COMPARISON_TAGS:
            follow, _, offset = s.tokens[s.pos]
            if follow in _COMPARISON_TAGS:
                raise s.error("comparison operators are non-associative; use parentheses", offset)


def _parse_unary(s: _TokenStream, level: int) -> Expr:
    tag, _, offset = s.tokens[s.pos]
    op = _UNARY.get(tag)
    if op is not None:
        s.pos += 1
        return UnaryExp(op, _parse_unary(s, _deeper(s, level, offset)))
    return _parse_postfix(s, level)


def _parse_postfix(s: _TokenStream, level: int) -> Expr:
    expr = _parse_primary(s, level)
    while True:
        tag, _, offset = s.tokens[s.pos]
        if tag != "." and tag != "->":
            return expr
        s.pos += 1
        _deeper(s, s.deepest, offset)
        if tag == ".":
            expr = PropertyExp(expr, s.expect("ident", "property name"))
        else:
            expr = _parse_collection_call(s, expr, level + 1)


def _parse_collection_call(s: _TokenStream, source: Expr, level: int) -> Expr:
    offset = s.tokens[s.pos][2]
    name = s.expect("ident", "collection operation name")
    if name in _COLLECTION_OPS:
        s.expect("(", "'('")
        s.expect(")", "')'")
        return CollectionOpExp(source, _COLLECTION_OPS[name])
    if name in _ITERATOR_KINDS:
        s.expect("(", "'('")
        var = s.expect("ident", "iterator variable name")
        var_type = None
        if s.tokens[s.pos][0] == ":":
            s.pos += 1
            var_type = s.expect("ident", "iterator variable type")
        s.expect("|", "'|'")
        body = _parse_expr(s, level)
        s.expect(")", "')'")
        return IteratorExp(source, _ITERATOR_KINDS[name], var, var_type, body)
    known = sorted(_COLLECTION_OPS) + sorted(_ITERATOR_KINDS)
    raise s.error(
        f"unknown collection operation '{name}'",
        offset,
        tuple(f"'{op}'" for op in known),
    )


def _parse_primary(s: _TokenStream, level: int) -> Expr:
    tag, text, offset = s.tokens[s.pos]
    s.pos += 1
    if tag == "ident":
        return VariableExp(text)
    if tag == "self":
        return SelfExp()
    if tag == "int":
        # Compare lengths first: int() refuses text of over 4300 digits.
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:
            raise s.error("integer literal out of 64-bit range", offset)
        return IntegerLiteralExp(int(digits))
    if tag == "true" or tag == "false":
        return BooleanLiteralExp(tag == "true")
    if tag == "string":
        return StringLiteralExp(text)
    if tag == "(":
        expr = _parse_expr(s, _deeper(s, level, offset))
        s.expect(")", "')'")
        return expr
    if tag == "if":
        level = _deeper(s, level, offset)
        condition = _parse_expr(s, level)
        s.expect("then", "'then'")
        then_branch = _parse_expr(s, level)
        s.expect("else", "'else'")
        else_branch = _parse_expr(s, level)
        s.expect("endif", "'endif'")
        return IfExp(condition, then_branch, else_branch)
    if tag == "real":
        value = float(text)
        if value == math.inf:
            raise s.error("real literal out of range", offset)
        return RealLiteralExp(value)
    raise s.error(f"expected expression, found {describe(tag, text)}", offset, ("expression",))

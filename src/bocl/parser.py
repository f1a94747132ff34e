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
from .lexer import ParseError, describe, position, tokenize
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
    """tokenize()'s entries and the position of the next one; see lexer.tokenize."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
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


def _parse_expr(s: _TokenStream, level: int, min_prec: int = 1) -> Expr:
    """Precedence climbing over the printer's BINARY_PREC table."""
    # s.deepest covers only this expression until it returns.
    outer, s.deepest = s.deepest, level
    left = _parse_operand(s, level)
    tokens = s.tokens
    while True:
        tag, _, offset = tokens[s.pos]
        infix = _INFIX.get(tag)
        if infix is None or infix[1] < min_prec:
            if s.deepest < outer:
                s.deepest = outer
            return left
        op, prec = infix
        s.pos += 1
        if s.deepest >= MAX_DEPTH:
            raise s.error("expression nests too deeply", offset)
        s.deepest += 1
        left = OperationCallExp(op, left, _parse_expr(s, level + 1, prec + 1))
        if tag in _COMPARISON_TAGS:
            follow, _, offset = tokens[s.pos]
            if follow in _COMPARISON_TAGS:
                raise s.error("comparison operators are non-associative; use parentheses", offset)


def _parse_operand(s: _TokenStream, level: int) -> Expr:
    """A binary operator's operand: prefix operators, a primary and its '.'
    and '->' links. s.deepest is level when it starts."""
    tokens = s.tokens
    tag, text, offset = tokens[s.pos]
    s.pos += 1
    if tag == "ident":
        expr = VariableExp(text)
    elif tag == "self":
        expr = SelfExp()
    elif tag == "int":
        # Compare lengths first: int() refuses text of over 4300 digits.
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:
            raise s.error("integer literal out of 64-bit range", offset)
        expr = IntegerLiteralExp(int(digits))
    elif tag == "(":
        if level >= MAX_DEPTH:
            raise s.error("expression nests too deeply", offset)
        expr = _parse_expr(s, level + 1)
        s.expect(")", "')'")
    elif tag in _UNARY:
        if level >= MAX_DEPTH:
            raise s.error("expression nests too deeply", offset)
        s.deepest = level + 1
        return UnaryExp(_UNARY[tag], _parse_operand(s, level + 1))
    elif tag == "true" or tag == "false":
        expr = BooleanLiteralExp(tag == "true")
    elif tag == "string":
        expr = StringLiteralExp(text)
    elif tag == "if":
        if level >= MAX_DEPTH:
            raise s.error("expression nests too deeply", offset)
        condition = _parse_expr(s, level + 1)
        s.expect("then", "'then'")
        then_branch = _parse_expr(s, level + 1)
        s.expect("else", "'else'")
        else_branch = _parse_expr(s, level + 1)
        s.expect("endif", "'endif'")
        expr = IfExp(condition, then_branch, else_branch)
    elif tag == "real":
        value = float(text)
        if value == math.inf:
            raise s.error("real literal out of range", offset)
        expr = RealLiteralExp(value)
    else:
        raise s.error(f"expected expression, found {describe(tag, text)}", offset, ("expression",))

    while True:
        tag, _, offset = tokens[s.pos]
        if tag != "." and tag != "->":
            return expr
        s.pos += 1
        if s.deepest >= MAX_DEPTH:
            raise s.error("expression nests too deeply", offset)
        s.deepest += 1
        if tag == ".":
            expr = PropertyExp(expr, s.expect("ident", "property name"))
            continue
        name = s.expect("ident", "collection operation name")
        if name in _COLLECTION_OPS:
            s.expect("(", "'('")
            s.expect(")", "')'")
            expr = CollectionOpExp(expr, _COLLECTION_OPS[name])
        elif name in _ITERATOR_KINDS:
            s.expect("(", "'('")
            var = s.expect("ident", "iterator variable name")
            var_type = None
            if tokens[s.pos][0] == ":":
                s.pos += 1
                var_type = s.expect("ident", "iterator variable type")
            s.expect("|", "'|'")
            body = _parse_expr(s, level + 1)
            s.expect(")", "')'")
            expr = IteratorExp(expr, _ITERATOR_KINDS[name], var, var_type, body)
        else:
            known = tuple(f"'{op}'" for op in sorted(_COLLECTION_OPS) + sorted(_ITERATOR_KINDS))
            raise s.error(f"unknown collection operation '{name}'", tokens[s.pos - 1][2], known)

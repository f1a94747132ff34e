"""Constraint syntax tree: node types, canonical printing, JSON form."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .model import INT64_MAX, INT64_MIN

# The deepest tree the parser and the JSON decoder build. Every recursive
# walker takes at most five Python frames per level, which leaves over 200
# of the default recursion limit's 1000 frames to the caller.
MAX_DEPTH = 150


class Stereotype(Enum):
    INV = "inv"


class InfixOperator(Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "and"
    OR = "or"
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


class UnaryOperator(Enum):
    NOT = "not"
    NEG = "-"


class IteratorKind(Enum):
    FOR_ALL = "forAll"
    EXISTS = "exists"
    SELECT = "select"
    REJECT = "reject"
    COLLECT = "collect"


class CollectionOp(Enum):
    SIZE = "size"
    IS_EMPTY = "isEmpty"
    NOT_EMPTY = "notEmpty"


class Expr:
    """Base class of the expression nodes: slotted records that nothing mutates."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SelfExp(Expr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class PropertyExp(Expr):
    source: Expr
    name: str


@dataclass(slots=True, unsafe_hash=True)
class VariableExp(Expr):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class IntegerLiteralExp(Expr):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class RealLiteralExp(Expr):
    value: float


@dataclass(slots=True, unsafe_hash=True)
class StringLiteralExp(Expr):
    value: str


@dataclass(slots=True, unsafe_hash=True)
class BooleanLiteralExp(Expr):
    value: bool


@dataclass(slots=True, unsafe_hash=True)
class OperationCallExp(Expr):
    op: InfixOperator
    left: Expr
    right: Expr


@dataclass(slots=True, unsafe_hash=True)
class UnaryExp(Expr):
    op: UnaryOperator
    operand: Expr


@dataclass(slots=True, unsafe_hash=True)
class IfExp(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass(slots=True, unsafe_hash=True)
class IteratorExp(Expr):
    source: Expr
    kind: IteratorKind
    var_name: str
    var_type_name: str | None
    body: Expr


@dataclass(slots=True, unsafe_hash=True)
class CollectionOpExp(Expr):
    source: Expr
    op: CollectionOp


@dataclass(slots=True, unsafe_hash=True)
class ConstraintAst:
    context_class_name: str
    stereotype: Stereotype
    constraint_name: str | None
    body: Expr


# ---------- Canonical printing ----------

# Binding strength, loosest to tightest. Postfix chains (property access,
# -> operations) sit above unary; literals, self, variables and the
# self-delimiting if/endif form never need parentheses. The parser climbs
# BINARY_PREC too, so printing and parsing agree on every binary level.
_PREC_OR = 1
_PREC_AND = 2
_PREC_CMP = 3
_PREC_ADD = 4
_PREC_MUL = 5
_PREC_UNARY = 6
_PREC_POSTFIX = 7
_PREC_PRIMARY = 8

BINARY_PREC = {
    InfixOperator.OR: _PREC_OR,
    InfixOperator.AND: _PREC_AND,
    InfixOperator.EQ: _PREC_CMP,
    InfixOperator.NE: _PREC_CMP,
    InfixOperator.LT: _PREC_CMP,
    InfixOperator.GT: _PREC_CMP,
    InfixOperator.LE: _PREC_CMP,
    InfixOperator.GE: _PREC_CMP,
    InfixOperator.ADD: _PREC_ADD,
    InfixOperator.SUB: _PREC_ADD,
    InfixOperator.MUL: _PREC_MUL,
    InfixOperator.DIV: _PREC_MUL,
}

COMPARISON_OPERATORS = frozenset(
    op for op, prec in BINARY_PREC.items() if prec == _PREC_CMP
)


def format_real(value: float) -> str:
    """Render a float as digits.digits so it re-lexes as a real literal."""
    text = repr(value)
    if "e" not in text and "E" not in text and "." in text:
        return text
    # repr chose an exponent or integral form; fall back to the exact
    # decimal expansion, which is always finite for a binary float.
    from decimal import Decimal  # only here, so importing bocl skips decimal
    text = format(Decimal(value), "f")
    return text if "." in text else text + ".0"


def format_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _print(expr: Expr, min_prec: int) -> str:
    text, prec = _print_bare(expr)
    return f"({text})" if prec < min_prec else text


def _print_bare(expr: Expr) -> tuple[str, int]:
    """The text of expr, unparenthesized, and its binding strength."""
    if isinstance(expr, SelfExp):
        return "self", _PREC_PRIMARY
    if isinstance(expr, VariableExp):
        return expr.name, _PREC_PRIMARY
    if isinstance(expr, IntegerLiteralExp):
        return str(expr.value), _PREC_PRIMARY
    if isinstance(expr, RealLiteralExp):
        return format_real(expr.value), _PREC_PRIMARY
    if isinstance(expr, StringLiteralExp):
        return format_string(expr.value), _PREC_PRIMARY
    if isinstance(expr, BooleanLiteralExp):
        return "true" if expr.value else "false", _PREC_PRIMARY
    if isinstance(expr, PropertyExp):
        return f"{_print(expr.source, _PREC_POSTFIX)}.{expr.name}", _PREC_POSTFIX
    if isinstance(expr, CollectionOpExp):
        return f"{_print(expr.source, _PREC_POSTFIX)}->{expr.op.value}()", _PREC_POSTFIX
    if isinstance(expr, IteratorExp):
        source = _print(expr.source, _PREC_POSTFIX)
        var = expr.var_name
        if expr.var_type_name is not None:
            var += f" : {expr.var_type_name}"
        return f"{source}->{expr.kind.value}({var} | {_print(expr.body, _PREC_OR)})", _PREC_POSTFIX
    if isinstance(expr, UnaryExp):
        if expr.op is UnaryOperator.NOT:
            return f"not {_print(expr.operand, _PREC_UNARY)}", _PREC_UNARY
        # Parenthesize nested unary operands so "--" never lexes as a comment.
        return f"-{_print(expr.operand, _PREC_POSTFIX)}", _PREC_UNARY
    if isinstance(expr, OperationCallExp):
        prec = BINARY_PREC[expr.op]
        # Left-associative except comparisons, which are non-associative:
        # both comparison operands must bind strictly tighter.
        left_min = prec + 1 if prec == _PREC_CMP else prec
        left = _print(expr.left, left_min)
        right = _print(expr.right, prec + 1)
        return f"{left} {expr.op.value} {right}", prec
    if isinstance(expr, IfExp):
        return (
            f"if {_print(expr.condition, _PREC_OR)}"
            f" then {_print(expr.then_branch, _PREC_OR)}"
            f" else {_print(expr.else_branch, _PREC_OR)} endif"
        ), _PREC_PRIMARY
    raise TypeError(f"not an expression node: {expr!r}")


def pretty_print(node: Expr | ConstraintAst) -> str:
    """Canonical OCL text; parenthesized only where re-parsing needs it."""
    if isinstance(node, ConstraintAst):
        name = f" {node.constraint_name}" if node.constraint_name else ""
        return (
            f"context {node.context_class_name} {node.stereotype.value}{name}: "
            f"{_print(node.body, _PREC_OR)}"
        )
    return _print(node, _PREC_OR)


# ---------- JSON form (schema bocl-ast/1) ----------

AST_SCHEMA_VERSION = "bocl-ast/1"

_OPTIONAL_STR = str | None

# The one description of bocl-ast/1: each node kind's class and its
# (JSON key, field name, field type) triples, in JSON key order. A field
# of type Expr holds a child node; an Enum field is stored by its value.
_NODES = {
    "Self": (SelfExp, ()),
    "Property": (PropertyExp, (("source", "source", Expr), ("name", "name", str))),
    "Variable": (VariableExp, (("name", "name", str),)),
    "IntegerLiteral": (IntegerLiteralExp, (("value", "value", int),)),
    "RealLiteral": (RealLiteralExp, (("value", "value", float),)),
    "StringLiteral": (StringLiteralExp, (("value", "value", str),)),
    "BooleanLiteral": (BooleanLiteralExp, (("value", "value", bool),)),
    "OperationCall": (OperationCallExp, (
        ("op", "op", InfixOperator), ("left", "left", Expr), ("right", "right", Expr))),
    "Unary": (UnaryExp, (("op", "op", UnaryOperator), ("operand", "operand", Expr))),
    "If": (IfExp, (
        ("condition", "condition", Expr), ("then", "then_branch", Expr),
        ("else", "else_branch", Expr))),
    "Iterator": (IteratorExp, (
        ("iterator", "kind", IteratorKind), ("source", "source", Expr), ("var", "var_name", str),
        ("varType", "var_type_name", _OPTIONAL_STR), ("body", "body", Expr))),
    "CollectionOp": (CollectionOpExp, (("op", "op", CollectionOp), ("source", "source", Expr))),
}

_KIND_OF_CLASS = {cls: (kind, spec) for kind, (cls, spec) in _NODES.items()}


def expr_to_json(expr: Expr) -> dict:
    if type(expr) not in _KIND_OF_CLASS:
        raise TypeError(f"not an expression node: {expr!r}")
    kind, spec = _KIND_OF_CLASS[type(expr)]
    doc = {"kind": kind}
    for key, name, type_ in spec:
        value = getattr(expr, name)
        if type_ is Expr:
            value = expr_to_json(value)
        elif isinstance(value, Enum):
            value = value.value
        doc[key] = value
    return doc


def _expect(doc: dict, key: str, types) -> object:
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"node {doc.get('kind', '?')!r} is missing key '{key}'")
    value = doc[key]
    if types is not None and not isinstance(value, types):
        raise ValueError(f"key '{key}' has unexpected type {type(value).__name__}")
    return value


def _decode_leaf(doc: dict, key: str, type_) -> object:
    """Read one field that is not a child node."""
    if type_ is _OPTIONAL_STR:
        value = _expect(doc, key, None)
        if not isinstance(value, type_):
            raise ValueError(f"{key} must be a string or null")
        return value
    if issubclass(type_, Enum):
        return type_(_expect(doc, key, str))
    # JSON has one number type, so a real may be written as an integer;
    # a bool is never a number, though Python counts it as an int.
    value = _expect(doc, key, (int, float) if type_ is float else type_)
    if isinstance(value, bool) and type_ is not bool:
        noun = "a number" if type_ is float else "an integer"
        raise ValueError(f"{doc['kind']} {key} must be {noun}")
    # The parser's literal rules; json.loads reads 1e400 as inf.
    if type_ is int and not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("integer literal out of 64-bit range")
    if type_ is float and not abs(value) <= sys.float_info.max:
        raise ValueError("real literal out of range")
    # The parser reads a minus sign as a Unary node, never into a literal.
    if type_ in (int, float) and math.copysign(1, value) < 0:
        raise ValueError(f"{doc['kind']} {key} must not be negative")
    return float(value) if type_ is float else value


def expr_from_json(doc: dict) -> Expr:
    return _expr_from_json(doc, 0)


def _expr_from_json(doc: dict, level: int) -> Expr:
    if level > MAX_DEPTH:
        raise ValueError("expression nests too deeply")
    kind = _expect(doc, "kind", str)
    if kind not in _NODES:
        raise ValueError(f"unknown node kind {kind!r}")
    cls, spec = _NODES[kind]
    args = {}
    for key, name, type_ in spec:
        if type_ is Expr:
            args[name] = _expr_from_json(_expect(doc, key, dict), level + 1)
        else:
            args[name] = _decode_leaf(doc, key, type_)
    return cls(**args)


def ast_to_json(ast: ConstraintAst) -> dict:
    return {
        "schemaVersion": AST_SCHEMA_VERSION,
        "context": ast.context_class_name,
        "stereotype": ast.stereotype.value,
        "name": ast.constraint_name,
        "body": expr_to_json(ast.body),
    }


def ast_from_json(doc: dict) -> ConstraintAst:
    version = _expect(doc, "schemaVersion", str)
    if version != AST_SCHEMA_VERSION:
        raise ValueError(f"unsupported AST schema version {version!r}")
    name = _decode_leaf(doc, "name", _OPTIONAL_STR)
    context = _decode_leaf(doc, "context", str)
    stereotype = _decode_leaf(doc, "stereotype", Stereotype)
    return ConstraintAst(context, stereotype, name, expr_from_json(_expect(doc, "body", dict)))

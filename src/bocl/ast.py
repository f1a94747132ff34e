"""Constraint syntax tree: node types, canonical printing, JSON form."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum


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
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SelfExp(Expr):
    pass


@dataclass(frozen=True)
class PropertyExp(Expr):
    source: Expr
    name: str


@dataclass(frozen=True)
class VariableExp(Expr):
    name: str


@dataclass(frozen=True)
class IntegerLiteralExp(Expr):
    value: int


@dataclass(frozen=True)
class RealLiteralExp(Expr):
    value: float


@dataclass(frozen=True)
class StringLiteralExp(Expr):
    value: str


@dataclass(frozen=True)
class BooleanLiteralExp(Expr):
    value: bool


@dataclass(frozen=True)
class OperationCallExp(Expr):
    op: InfixOperator
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryExp(Expr):
    op: UnaryOperator
    operand: Expr


@dataclass(frozen=True)
class IfExp(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass(frozen=True)
class IteratorExp(Expr):
    source: Expr
    kind: IteratorKind
    var_name: str
    var_type_name: str | None
    body: Expr


@dataclass(frozen=True)
class CollectionOpExp(Expr):
    source: Expr
    op: CollectionOp


@dataclass(frozen=True)
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
    text = format(Decimal(value), "f")
    return text if "." in text else text + ".0"


def format_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _prec(expr: Expr) -> int:
    if isinstance(expr, OperationCallExp):
        return BINARY_PREC[expr.op]
    if isinstance(expr, UnaryExp):
        return _PREC_UNARY
    if isinstance(expr, (PropertyExp, IteratorExp, CollectionOpExp)):
        return _PREC_POSTFIX
    return _PREC_PRIMARY


def _print(expr: Expr, min_prec: int) -> str:
    text = _print_bare(expr)
    if _prec(expr) < min_prec:
        return f"({text})"
    return text


def _print_bare(expr: Expr) -> str:
    if isinstance(expr, SelfExp):
        return "self"
    if isinstance(expr, VariableExp):
        return expr.name
    if isinstance(expr, IntegerLiteralExp):
        return str(expr.value)
    if isinstance(expr, RealLiteralExp):
        return format_real(expr.value)
    if isinstance(expr, StringLiteralExp):
        return format_string(expr.value)
    if isinstance(expr, BooleanLiteralExp):
        return "true" if expr.value else "false"
    if isinstance(expr, PropertyExp):
        return f"{_print(expr.source, _PREC_POSTFIX)}.{expr.name}"
    if isinstance(expr, CollectionOpExp):
        return f"{_print(expr.source, _PREC_POSTFIX)}->{expr.op.value}()"
    if isinstance(expr, IteratorExp):
        source = _print(expr.source, _PREC_POSTFIX)
        var = expr.var_name
        if expr.var_type_name is not None:
            var += f" : {expr.var_type_name}"
        return f"{source}->{expr.kind.value}({var} | {_print(expr.body, _PREC_OR)})"
    if isinstance(expr, UnaryExp):
        if expr.op is UnaryOperator.NOT:
            return f"not {_print(expr.operand, _PREC_UNARY)}"
        # Parenthesize nested unary operands so "--" never lexes as a comment.
        return f"-{_print(expr.operand, _PREC_POSTFIX)}"
    if isinstance(expr, OperationCallExp):
        prec = BINARY_PREC[expr.op]
        # Left-associative except comparisons, which are non-associative:
        # both comparison operands must bind strictly tighter.
        left_min = prec + 1 if prec == _PREC_CMP else prec
        left = _print(expr.left, left_min)
        right = _print(expr.right, prec + 1)
        return f"{left} {expr.op.value} {right}"
    if isinstance(expr, IfExp):
        return (
            f"if {_print(expr.condition, _PREC_OR)}"
            f" then {_print(expr.then_branch, _PREC_OR)}"
            f" else {_print(expr.else_branch, _PREC_OR)} endif"
        )
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


def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, SelfExp):
        return {"kind": "Self"}
    if isinstance(expr, PropertyExp):
        return {"kind": "Property", "source": expr_to_json(expr.source), "name": expr.name}
    if isinstance(expr, VariableExp):
        return {"kind": "Variable", "name": expr.name}
    if isinstance(expr, IntegerLiteralExp):
        return {"kind": "IntegerLiteral", "value": expr.value}
    if isinstance(expr, RealLiteralExp):
        return {"kind": "RealLiteral", "value": expr.value}
    if isinstance(expr, StringLiteralExp):
        return {"kind": "StringLiteral", "value": expr.value}
    if isinstance(expr, BooleanLiteralExp):
        return {"kind": "BooleanLiteral", "value": expr.value}
    if isinstance(expr, OperationCallExp):
        return {
            "kind": "OperationCall",
            "op": expr.op.value,
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    if isinstance(expr, UnaryExp):
        return {"kind": "Unary", "op": expr.op.value, "operand": expr_to_json(expr.operand)}
    if isinstance(expr, IfExp):
        return {
            "kind": "If",
            "condition": expr_to_json(expr.condition),
            "then": expr_to_json(expr.then_branch),
            "else": expr_to_json(expr.else_branch),
        }
    if isinstance(expr, IteratorExp):
        return {
            "kind": "Iterator",
            "iterator": expr.kind.value,
            "source": expr_to_json(expr.source),
            "var": expr.var_name,
            "varType": expr.var_type_name,
            "body": expr_to_json(expr.body),
        }
    if isinstance(expr, CollectionOpExp):
        return {"kind": "CollectionOp", "op": expr.op.value, "source": expr_to_json(expr.source)}
    raise TypeError(f"not an expression node: {expr!r}")


def _expect(doc: dict, key: str, types) -> object:
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"node {doc.get('kind', '?')!r} is missing key '{key}'")
    value = doc[key]
    if types is not None and not isinstance(value, types):
        raise ValueError(f"key '{key}' has unexpected type {type(value).__name__}")
    return value


def expr_from_json(doc: dict) -> Expr:
    kind = _expect(doc, "kind", str)
    if kind == "Self":
        return SelfExp()
    if kind == "Property":
        return PropertyExp(expr_from_json(_expect(doc, "source", dict)), _expect(doc, "name", str))
    if kind == "Variable":
        return VariableExp(_expect(doc, "name", str))
    if kind == "IntegerLiteral":
        value = _expect(doc, "value", int)
        if isinstance(value, bool):
            raise ValueError("IntegerLiteral value must be an integer")
        return IntegerLiteralExp(value)
    if kind == "RealLiteral":
        value = _expect(doc, "value", (int, float))
        if isinstance(value, bool):
            raise ValueError("RealLiteral value must be a number")
        return RealLiteralExp(float(value))
    if kind == "StringLiteral":
        return StringLiteralExp(_expect(doc, "value", str))
    if kind == "BooleanLiteral":
        return BooleanLiteralExp(_expect(doc, "value", bool))
    if kind == "OperationCall":
        return OperationCallExp(
            InfixOperator(_expect(doc, "op", str)),
            expr_from_json(_expect(doc, "left", dict)),
            expr_from_json(_expect(doc, "right", dict)),
        )
    if kind == "Unary":
        return UnaryExp(
            UnaryOperator(_expect(doc, "op", str)),
            expr_from_json(_expect(doc, "operand", dict)),
        )
    if kind == "If":
        return IfExp(
            expr_from_json(_expect(doc, "condition", dict)),
            expr_from_json(_expect(doc, "then", dict)),
            expr_from_json(_expect(doc, "else", dict)),
        )
    if kind == "Iterator":
        var_type = _expect(doc, "varType", None)
        if var_type is not None and not isinstance(var_type, str):
            raise ValueError("varType must be a string or null")
        return IteratorExp(
            expr_from_json(_expect(doc, "source", dict)),
            IteratorKind(_expect(doc, "iterator", str)),
            _expect(doc, "var", str),
            var_type,
            expr_from_json(_expect(doc, "body", dict)),
        )
    if kind == "CollectionOp":
        return CollectionOpExp(
            expr_from_json(_expect(doc, "source", dict)),
            CollectionOp(_expect(doc, "op", str)),
        )
    raise ValueError(f"unknown node kind {kind!r}")


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
    name = _expect(doc, "name", None)
    if name is not None and not isinstance(name, str):
        raise ValueError("name must be a string or null")
    return ConstraintAst(
        context_class_name=_expect(doc, "context", str),
        stereotype=Stereotype(_expect(doc, "stereotype", str)),
        constraint_name=name,
        body=expr_from_json(_expect(doc, "body", dict)),
    )

"""Tree-walking evaluation of resolved constraints over an object model."""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum

from .ast import (
    BooleanLiteralExp,
    CollectionOp,
    CollectionOpExp,
    IfExp,
    InfixOperator,
    IntegerLiteralExp,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    RealLiteralExp,
    SelfExp,
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from .lexer import ParseError
from .model import ObjectModel, StructuralModel, instances_of, navigate
from .parser import parse_constraint
from .resolver import (
    AttributeAccess,
    ResolutionFailure,
    TypedConstraint,
    TypedExpr,
    TypeKind,
    resolve,
)

# ---------- Runtime errors ----------

class EvalError(Exception):
    """A constraint could not be evaluated on the given objects."""


class MissingSlotError(EvalError):
    pass


class DivisionByZeroError(EvalError):
    pass


class NavigationEmptyError(EvalError):
    pass


# ---------- Verdicts ----------

class VerdictKind(Enum):
    TRUE = "True"
    FALSE = "False"
    ERROR = "Error"


@dataclass(frozen=True)
class ConstraintVerdict:
    constraint_name: str
    overall: VerdictKind
    per_instance: tuple[tuple[str, bool], ...] = ()
    error_message: str | None = None


@dataclass(frozen=True)
class ConstraintResult:
    """One evaluated constraint definition: its raw text plus the verdict."""

    expression: str
    verdict: ConstraintVerdict


@dataclass(frozen=True)
class EvaluationReport:
    results: tuple[ConstraintResult, ...]


# ---------- Expression evaluation ----------
#
# Values are plain Python: bool, int, float, str, datetime.date,
# ObjectInstance, and tuple for collections. The resolver has proved every
# operand's type, so no value is checked again here. Python's arithmetic
# gives the typing rules: Int op Int stays int, / always gives float, and
# mixed operands promote.

_BINARY = {
    InfixOperator.LT: operator.lt,
    InfixOperator.GT: operator.gt,
    InfixOperator.LE: operator.le,
    InfixOperator.GE: operator.ge,
    InfixOperator.ADD: operator.add,
    InfixOperator.SUB: operator.sub,
    InfixOperator.MUL: operator.mul,
}

_UNBOUND = object()


def evaluate_expr(
    typed: TypedExpr,
    scope: dict[str, object],
    objects: ObjectModel,
    model: StructuralModel,
) -> object:
    """Evaluate one resolved expression; raises EvalError subclasses.

    scope maps "self" and each iterator variable in force to its value.
    """
    node = typed.node

    if isinstance(node, SelfExp):
        return scope["self"]
    if isinstance(node, VariableExp):
        return scope[node.name]
    if isinstance(
        node, (IntegerLiteralExp, RealLiteralExp, StringLiteralExp, BooleanLiteralExp)
    ):
        return node.value

    if isinstance(node, PropertyExp):
        source = evaluate_expr(typed.children[0], scope, objects, model)
        access = typed.access
        if isinstance(access, AttributeAccess):
            value = source.slots.get(access.attribute.name)
            if value is None:
                raise MissingSlotError(
                    f"object '{source.name}' has no value for "
                    f"attribute '{access.attribute.name}'"
                )
            return value
        linked = navigate(objects, source, access.end.role, model)
        if access.end.multiplicity.upper == 1:
            if not linked:
                raise NavigationEmptyError(
                    f"no object linked via '{access.end.role}' "
                    f"from '{source.name}'"
                )
            return linked[0]
        return tuple(linked)

    if isinstance(node, OperationCallExp):
        return _evaluate_operation(node.op, typed, scope, objects, model)

    if isinstance(node, UnaryExp):
        operand = evaluate_expr(typed.children[0], scope, objects, model)
        return not operand if node.op is UnaryOperator.NOT else -operand

    if isinstance(node, IfExp):
        condition, then_branch, else_branch = typed.children
        # Only the taken branch is evaluated.
        if evaluate_expr(condition, scope, objects, model):
            return evaluate_expr(then_branch, scope, objects, model)
        return evaluate_expr(else_branch, scope, objects, model)

    if isinstance(node, IteratorExp):
        return _evaluate_iterator(node, typed, scope, objects, model)

    if isinstance(node, CollectionOpExp):
        items = evaluate_expr(typed.children[0], scope, objects, model)
        if node.op is CollectionOp.SIZE:
            return len(items)
        if node.op is CollectionOp.IS_EMPTY:
            return len(items) == 0
        return len(items) > 0

    raise TypeError(f"not an expression node: {node!r}")


def _evaluate_operation(
    op: InfixOperator,
    typed: TypedExpr,
    scope: dict[str, object],
    objects: ObjectModel,
    model: StructuralModel,
) -> object:
    left_child, right_child = typed.children
    left = evaluate_expr(left_child, scope, objects, model)

    # and/or are short-circuit, left to right.
    if op is InfixOperator.AND:
        return left and evaluate_expr(right_child, scope, objects, model)
    if op is InfixOperator.OR:
        return left or evaluate_expr(right_child, scope, objects, model)

    right = evaluate_expr(right_child, scope, objects, model)
    if op is InfixOperator.EQ or op is InfixOperator.NE:
        # Objects are equal when they are the same named object.
        if left_child.type.kind is TypeKind.OBJECT:
            left, right = left.name, right.name
        same = left == right
        return same if op is InfixOperator.EQ else not same
    if op is InfixOperator.DIV:
        if right == 0:
            raise DivisionByZeroError("division by zero")
        return left / right
    return _BINARY[op](left, right)


def _evaluate_iterator(
    node: IteratorExp,
    typed: TypedExpr,
    scope: dict[str, object],
    objects: ObjectModel,
    model: StructuralModel,
) -> object:
    source_child, body_child = typed.children
    items = evaluate_expr(source_child, scope, objects, model)
    var = node.var_name
    outer = scope.get(var, _UNBOUND)

    def body(item: object) -> object:
        scope[var] = item
        return evaluate_expr(body_child, scope, objects, model)

    try:
        kind = node.kind
        if kind is IteratorKind.FOR_ALL:
            return all(body(item) for item in items)
        if kind is IteratorKind.EXISTS:
            return any(body(item) for item in items)
        if kind is IteratorKind.SELECT:
            return tuple(item for item in items if body(item))
        if kind is IteratorKind.REJECT:
            return tuple(item for item in items if not body(item))
        # collect: body values in order, flattened one level.
        if body_child.type.kind is TypeKind.COLLECTION:
            return tuple(value for item in items for value in body(item))
        return tuple(body(item) for item in items)
    finally:
        if outer is _UNBOUND:
            scope.pop(var, None)
        else:
            scope[var] = outer


# ---------- Constraint evaluation ----------

def evaluate_constraint(
    typed: TypedConstraint,
    objects: ObjectModel,
    name: str | None = None,
) -> ConstraintVerdict:
    """Evaluate the body once per context-class instance and conjoin.

    Zero instances yield True vacuously. The first runtime error or an
    Integer too large to convert to Real turns the verdict into Error,
    keeping the per-instance results gathered so far.
    """
    if name is None:
        name = typed.ast.constraint_name or typed.ast.context_class_name
    per_instance: list[tuple[str, bool]] = []
    for instance in instances_of(objects, typed.context_class):
        try:
            holds = evaluate_expr(typed.body, {"self": instance}, objects, typed.model)
        except (EvalError, OverflowError) as error:
            return ConstraintVerdict(name, VerdictKind.ERROR, tuple(per_instance), str(error))
        per_instance.append((instance.name, holds))
    ok = all(holds for _, holds in per_instance)
    return ConstraintVerdict(
        name, VerdictKind.TRUE if ok else VerdictKind.FALSE, tuple(per_instance)
    )


def evaluate_all(model: StructuralModel, objects: ObjectModel) -> EvaluationReport:
    """Parse, resolve, and evaluate every constraint of the model, in order.

    A failure in one constraint is captured as an Error verdict and does
    not stop the remaining constraints.
    """
    results = []
    for con in model.constraints:
        try:
            typed = resolve(parse_constraint(con.expression), model)
        except (ParseError, ResolutionFailure) as error:
            verdict = ConstraintVerdict(con.name, VerdictKind.ERROR, error_message=str(error))
        else:
            verdict = evaluate_constraint(typed, objects, name=con.name)
        if verdict.overall is VerdictKind.ERROR:
            verdict = replace(
                verdict,
                error_message=f"Exception Occured! Info: {verdict.error_message}",
            )
        results.append(ConstraintResult(con.expression, verdict))
    return EvaluationReport(tuple(results))

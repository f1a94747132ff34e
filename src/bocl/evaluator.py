"""Evaluation of resolved constraints over an object model, through closures."""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, compress

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
from .model import ConstraintDef, ObjectModel, StructuralModel, _far_rows, instances_of
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


# ---------- Compilation to closures ----------
#
# A resolved expression is compiled once into a closure f(scope) -> value
# (Feeley & Lapalme, "Using closures for code generation", 1987), so the
# type dispatch runs once per node, not once per node per instance. Values
# are plain Python: bool, int, float, str, datetime.date, ObjectInstance,
# and tuple for collections. The resolver has proved every operand's type,
# so no value is checked again. Python's arithmetic gives the typing rules:
# Int op Int stays int, / always gives float, and mixed operands promote.

def _divide(dividend: object, divisor: object) -> object:
    if divisor == 0:
        raise DivisionByZeroError("division by zero")
    return dividend / divisor


_BINARY = {
    InfixOperator.EQ: operator.eq,
    InfixOperator.NE: operator.ne,
    InfixOperator.LT: operator.lt,
    InfixOperator.GT: operator.gt,
    InfixOperator.LE: operator.le,
    InfixOperator.GE: operator.ge,
    InfixOperator.ADD: operator.add,
    InfixOperator.SUB: operator.sub,
    InfixOperator.MUL: operator.mul,
    InfixOperator.DIV: _divide,
}

# Unary operators and collection operations: one operand each.
_UNARY = {
    UnaryOperator.NOT: operator.not_,
    UnaryOperator.NEG: operator.neg,
    CollectionOp.SIZE: len,
    CollectionOp.IS_EMPTY: operator.not_,
    CollectionOp.NOT_EMPTY: bool,
}

# Each iterator folds the source items and a lazy stream of body values,
# so forAll and exists stop at the first value that decides them.
_FOLDS = {
    IteratorKind.FOR_ALL: lambda items, values: all(values),
    IteratorKind.EXISTS: lambda items, values: any(values),
    IteratorKind.SELECT: lambda items, values: tuple(compress(items, values)),
    IteratorKind.REJECT: lambda items, values: tuple(
        compress(items, map(operator.not_, values))
    ),
    IteratorKind.COLLECT: lambda items, values: tuple(values),
}

_UNBOUND = object()


def _compile(typed: TypedExpr, objects: ObjectModel) -> Callable[[dict], object]:
    """Compile one resolved expression into a closure over objects.

    The closure takes the scope, a dict that maps "self" and each iterator
    variable in force to its value, and raises EvalError subclasses.
    """
    node = typed.node
    if isinstance(node, SelfExp):
        return operator.itemgetter("self")
    if isinstance(node, VariableExp):
        return operator.itemgetter(node.name)
    if isinstance(
        node, (IntegerLiteralExp, RealLiteralExp, StringLiteralExp, BooleanLiteralExp)
    ):
        value = node.value
        return lambda scope: value

    parts = [_compile(child, objects) for child in typed.children]
    if isinstance(node, OperationCallExp):
        left, right = parts
        # and/or are short-circuit, left to right.
        if node.op is InfixOperator.AND:
            return lambda scope: left(scope) and right(scope)
        if node.op is InfixOperator.OR:
            return lambda scope: left(scope) or right(scope)
        function = _BINARY[node.op]
        if typed.children[0].type.kind is TypeKind.OBJECT:
            # Objects are equal when they are the same named object.
            return lambda scope: function(left(scope).name, right(scope).name)
        return lambda scope: function(left(scope), right(scope))

    if isinstance(node, (UnaryExp, CollectionOpExp)):
        function, operand = _UNARY[node.op], parts[0]
        return lambda scope: function(operand(scope))

    if isinstance(node, IfExp):
        condition, then_branch, else_branch = parts
        # Only the taken branch is evaluated.
        return lambda scope: then_branch(scope) if condition(scope) else else_branch(scope)

    if isinstance(node, IteratorExp):
        source, body = parts
        var = node.var_name
        fold = _FOLDS[node.kind]
        body_kind = typed.children[1].type.kind
        if node.kind is IteratorKind.COLLECT and body_kind is TypeKind.COLLECTION:
            # collect flattens collection-valued bodies one level.
            fold = lambda items, values: tuple(chain.from_iterable(values))

        def values(items: tuple, scope: dict) -> Iterator:
            for item in items:
                scope[var] = item
                yield body(scope)

        def iterate(scope: dict) -> object:
            items = source(scope)
            outer = scope.get(var, _UNBOUND)
            try:
                return fold(items, values(items, scope))
            finally:
                if outer is _UNBOUND:
                    scope.pop(var, None)
                else:
                    scope[var] = outer
        return iterate

    if not isinstance(node, PropertyExp):
        raise TypeError(f"not an expression node: {node!r}")
    source, access = parts[0], typed.access
    if isinstance(access, AttributeAccess):
        attribute = access.attribute.name

        def read_slot(scope: dict) -> object:
            obj = source(scope)
            value = obj.slots.get(attribute)
            if value is None:
                raise MissingSlotError(
                    f"object '{obj.name}' has no value for attribute '{attribute}'"
                )
            return value
        return read_slot

    # The resolver picked this end from the model's role table, the one
    # navigate() reads, so the adjacency row toward it is bound here once.
    assoc, end = access.association, access.end
    row = _far_rows(objects, assoc, end)
    if end.multiplicity.upper != 1:
        return lambda scope: tuple(row.get(source(scope).name, ()))

    def navigate_to_one(scope: dict) -> object:
        obj = source(scope)
        linked = row.get(obj.name)
        if not linked:
            raise NavigationEmptyError(f"no object linked via '{end.role}' from '{obj.name}'")
        return linked[0]
    return navigate_to_one


def evaluate_expr(
    typed: TypedExpr, scope: dict[str, object], objects: ObjectModel, model: StructuralModel
) -> object:
    """Compile one resolved expression and evaluate it; raises EvalError subclasses.

    scope maps "self" and each iterator variable in force to its value.
    model is not read: the resolver has bound each navigation to its end.
    """
    return _compile(typed, objects)(scope)


# ---------- Constraint evaluation ----------

def compile_model(
    model: StructuralModel,
) -> Iterator[tuple[ConstraintDef, TypedConstraint | ParseError | ResolutionFailure]]:
    """Parse and resolve each of the model's constraints once, in order.

    Yields each constraint with its typed form, or with the ParseError or
    ResolutionFailure that stopped it.
    """
    for con in model.constraints:
        try:
            yield con, resolve(parse_constraint(con.expression), model)
        except (ParseError, ResolutionFailure) as error:
            yield con, error


def evaluate_constraint(
    typed: TypedConstraint,
    objects: ObjectModel,
    name: str | None = None,
) -> ConstraintVerdict:
    """Evaluate the body once per context-class instance and conjoin.

    The body is compiled once per call. Zero instances yield True
    vacuously. The first runtime error or an Integer too large to convert
    to Real turns the verdict into Error, keeping the per-instance results
    gathered so far.
    """
    if name is None:
        name = typed.ast.constraint_name or typed.ast.context_class_name
    body = _compile(typed.body, objects)
    per_instance: list[tuple[str, bool]] = []
    try:
        for instance in instances_of(objects, typed.context_class):
            per_instance.append((instance.name, body({"self": instance})))
    except (EvalError, OverflowError) as error:
        return ConstraintVerdict(name, VerdictKind.ERROR, tuple(per_instance), str(error))
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
    for con, typed in compile_model(model):
        if isinstance(typed, TypedConstraint):
            verdict = evaluate_constraint(typed, objects, name=con.name)
        else:
            verdict = ConstraintVerdict(con.name, VerdictKind.ERROR, error_message=str(typed))
        if verdict.overall is VerdictKind.ERROR:
            verdict = replace(
                verdict,
                error_message=f"Exception Occured! Info: {verdict.error_message}",
            )
        results.append(ConstraintResult(con.expression, verdict))
    return EvaluationReport(tuple(results))

"""Independent brute-force constraint evaluator used as a differential oracle.

Works straight off the untyped syntax tree with dynamic dispatch on plain
Python values (bool, int, float, str, date, ObjectInstance, list). It
shares no code with the production resolver/evaluator; only the AST and
model dataclasses are reused as inputs.

Semantics implemented here, independently of the main evaluator:
  * one evaluation per context-class instance, by ascending object name;
    conjunction of results, vacuously true on zero instances; the first
    runtime error makes the verdict Error and stops.
  * property = attribute slot first, association role second; navigation
    is set-valued and ordered by object name; an upper-bound-1 role
    scalarizes to the first object and raises NavigationEmpty when there
    is none.
  * and/or short-circuit left to right; forAll/exists stop at the first
    deciding element; if evaluates only the taken branch.
  * int op int stays int except /, which is always real; division by
    zero raises; mixed int/real promotes.
"""

from __future__ import annotations

import dataclasses

from bocl.ast import (
    BooleanLiteralExp,
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
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
from bocl.model import ObjectInstance, ObjectModel, StructuralModel


class RefEvalError(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


@dataclasses.dataclass(frozen=True)
class RefVerdict:
    overall: str  # "True" | "False" | "Error"
    per_instance: tuple[tuple[str, bool], ...]
    error_kind: str | None = None


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _linked_objects(
    objects: ObjectModel, model: StructuralModel, source: ObjectInstance, role: str
) -> list[ObjectInstance]:
    hit = None
    for assoc in model.associations:
        if assoc.end1.role == role and assoc.end2.target.name == source.classifier.name:
            hit = (assoc, 1)
        elif assoc.end2.role == role and assoc.end1.target.name == source.classifier.name:
            hit = (assoc, 2)
    if hit is None:
        raise RefEvalError("UnknownRole")
    assoc, position = hit
    names = {}
    for _, link_assoc, end1, end2 in objects.links:
        if link_assoc.name != assoc.name:
            continue
        if position == 1 and end2.name == source.name:
            names[end1.name] = end1
        elif position == 2 and end1.name == source.name:
            names[end2.name] = end2
    return [names[n] for n in sorted(names)]


def _eval(expr, model, objects, self_obj, scope):
    if isinstance(expr, SelfExp):
        return self_obj
    if isinstance(expr, VariableExp):
        for name, value in reversed(scope):
            if name == expr.name:
                return value
        raise RefEvalError("UnknownVariable")
    if isinstance(expr, (IntegerLiteralExp, RealLiteralExp, StringLiteralExp, BooleanLiteralExp)):
        return expr.value

    if isinstance(expr, PropertyExp):
        obj = _eval(expr.source, model, objects, self_obj, scope)
        assert isinstance(obj, ObjectInstance)
        attr = obj.classifier.attribute_named(expr.name)
        if attr is not None:
            if expr.name not in obj.slots:
                raise RefEvalError("MissingSlot")
            return obj.slots[expr.name]
        end = None
        for assoc in model.associations:
            for candidate, opposite in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)):
                if candidate.role == expr.name and opposite.target.name == obj.classifier.name:
                    end = candidate
        assert end is not None, f"unresolvable property {expr.name}"
        linked = _linked_objects(objects, model, obj, expr.name)
        if end.multiplicity.upper == 1:
            if not linked:
                raise RefEvalError("NavigationEmpty")
            return linked[0]
        return linked

    if isinstance(expr, UnaryExp):
        value = _eval(expr.operand, model, objects, self_obj, scope)
        if expr.op is UnaryOperator.NOT:
            return not value
        return -value

    if isinstance(expr, IfExp):
        if _eval(expr.condition, model, objects, self_obj, scope):
            return _eval(expr.then_branch, model, objects, self_obj, scope)
        return _eval(expr.else_branch, model, objects, self_obj, scope)

    if isinstance(expr, CollectionOpExp):
        items = _eval(expr.source, model, objects, self_obj, scope)
        assert isinstance(items, list)
        if expr.op is CollectionOp.SIZE:
            return len(items)
        if expr.op is CollectionOp.IS_EMPTY:
            return len(items) == 0
        return len(items) > 0

    if isinstance(expr, IteratorExp):
        items = _eval(expr.source, model, objects, self_obj, scope)
        assert isinstance(items, list)

        def body(item):
            scope.append((expr.var_name, item))
            try:
                return _eval(expr.body, model, objects, self_obj, scope)
            finally:
                scope.pop()

        if expr.kind is IteratorKind.FOR_ALL:
            for item in items:
                if not body(item):
                    return False
            return True
        if expr.kind is IteratorKind.EXISTS:
            for item in items:
                if body(item):
                    return True
            return False
        if expr.kind is IteratorKind.SELECT:
            return [item for item in items if body(item)]
        if expr.kind is IteratorKind.REJECT:
            return [item for item in items if not body(item)]
        out = []
        for item in items:
            value = body(item)
            if isinstance(value, list):
                out.extend(value)
            else:
                out.append(value)
        return out

    assert isinstance(expr, OperationCallExp)
    op = expr.op
    if op is InfixOperator.AND:
        left = _eval(expr.left, model, objects, self_obj, scope)
        return bool(left) and bool(_eval(expr.right, model, objects, self_obj, scope))
    if op is InfixOperator.OR:
        left = _eval(expr.left, model, objects, self_obj, scope)
        return bool(left) or bool(_eval(expr.right, model, objects, self_obj, scope))

    left = _eval(expr.left, model, objects, self_obj, scope)
    right = _eval(expr.right, model, objects, self_obj, scope)

    if op is InfixOperator.EQ or op is InfixOperator.NE:
        if isinstance(left, ObjectInstance) and isinstance(right, ObjectInstance):
            same = left.name == right.name
        else:
            same = left == right
        return same if op is InfixOperator.EQ else not same
    if op is InfixOperator.LT:
        return left < right
    if op is InfixOperator.GT:
        return left > right
    if op is InfixOperator.LE:
        return left <= right
    if op is InfixOperator.GE:
        return left >= right
    if op is InfixOperator.DIV:
        if right == 0:
            raise RefEvalError("DivisionByZero")
        return left / right
    if op is InfixOperator.ADD:
        result = left + right
    elif op is InfixOperator.SUB:
        result = left - right
    else:
        result = left * right
    if _is_int(left) and _is_int(right):
        return result
    return float(result)


def reference_verdict(
    ast: ConstraintAst, model: StructuralModel, objects: ObjectModel
) -> RefVerdict:
    context = model.class_named(ast.context_class_name)
    assert context is not None
    instances = sorted(
        (o for o in objects.objects if o.classifier.name == context.name),
        key=lambda o: o.name,
    )
    per: list[tuple[str, bool]] = []
    for obj in instances:
        try:
            value = _eval(ast.body, model, objects, obj, [])
        except RefEvalError as error:
            return RefVerdict("Error", tuple(per), error.kind)
        assert isinstance(value, bool)
        per.append((obj.name, value))
    overall = "True" if all(v for _, v in per) else "False"
    return RefVerdict(overall, tuple(per))

"""Name and type resolution of a constraint tree against a structural model."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .ast import (
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
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from .model import (
    AssociationEnd,
    Attribute,
    BinaryAssociation,
    ClassDef,
    PrimitiveType,
    StructuralModel,
)


class TypeKind(Enum):
    BOOL = "Bool"
    INT = "Int"
    REAL = "Real"
    STR = "Str"
    DATE = "Date"
    OBJECT = "Object"
    COLLECTION = "Collection"
    # Placeholder after a reported error; suppresses cascading diagnostics.
    ERROR = "Error"


@dataclass(frozen=True)
class OclType:
    kind: TypeKind
    class_name: str | None = None
    element: "OclType | None" = None

    def __str__(self) -> str:
        if self.kind is TypeKind.OBJECT:
            return self.class_name or "Object"
        if self.kind is TypeKind.COLLECTION:
            return f"Collection({self.element})"
        return self.kind.value


BOOL_T = OclType(TypeKind.BOOL)
INT_T = OclType(TypeKind.INT)
REAL_T = OclType(TypeKind.REAL)
STR_T = OclType(TypeKind.STR)
DATE_T = OclType(TypeKind.DATE)
ERROR_T = OclType(TypeKind.ERROR)

_PRIMITIVE_TYPES = {
    PrimitiveType.INT: INT_T,
    PrimitiveType.REAL: REAL_T,
    PrimitiveType.STR: STR_T,
    PrimitiveType.BOOL: BOOL_T,
    PrimitiveType.DATE: DATE_T,
}


# Each distinct type is built once; the bound keeps long-lived processes small.
@functools.lru_cache(maxsize=1024)
def object_type(class_name: str) -> OclType:
    return OclType(TypeKind.OBJECT, class_name=class_name)


@functools.lru_cache(maxsize=1024)
def collection_type(element: OclType) -> OclType:
    return OclType(TypeKind.COLLECTION, element=element)


# The kinds and operators the typing rules test, as module names: on
# CPython 3.10 and 3.11, reading a member off an Enum class costs 150-200
# ns, against 15-30 ns for reading a global.
_BOOL, _INT, _REAL, _STR = TypeKind.BOOL, TypeKind.INT, TypeKind.REAL, TypeKind.STR
_DATE, _OBJECT, _COLLECTION = TypeKind.DATE, TypeKind.OBJECT, TypeKind.COLLECTION
_ERROR = TypeKind.ERROR
_NUMERIC = (_INT, _REAL)
_LOGICAL = (InfixOperator.AND, InfixOperator.OR)
_EQUALITY = (InfixOperator.EQ, InfixOperator.NE)
_ORDERING = (InfixOperator.LT, InfixOperator.GT, InfixOperator.LE, InfixOperator.GE)
_PREDICATES = (IteratorKind.FOR_ALL, IteratorKind.EXISTS, IteratorKind.SELECT, IteratorKind.REJECT)
_QUANTIFIERS = (IteratorKind.FOR_ALL, IteratorKind.EXISTS)
_DIV, _NOT, _SIZE = InfixOperator.DIV, UnaryOperator.NOT, CollectionOp.SIZE


class ResolutionErrorKind(Enum):
    UNKNOWN_PROPERTY = "UnknownProperty"
    UNKNOWN_VARIABLE = "UnknownVariable"
    TYPE_MISMATCH = "TypeMismatch"
    UNKNOWN_CONTEXT_CLASS = "UnknownContextClass"


@dataclass(frozen=True)
class ResolutionError:
    kind: ResolutionErrorKind
    ast_path: str
    message: str

    def __str__(self) -> str:
        return f"{self.ast_path}: {self.message}"


class ResolutionFailure(Exception):
    """Raised by resolve() carrying every collected ResolutionError."""

    def __init__(self, errors: list[ResolutionError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = tuple(errors)


@dataclass(slots=True, unsafe_hash=True)
class TypedExpr:
    node: Expr
    type: OclType
    children: tuple["TypedExpr", ...] = ()
    # What a PropertyExp reads, as the model holds it: the class's Attribute, or
    # the (association, far end) entry of the role navigated from its _roles.
    access: Attribute | tuple[BinaryAssociation, AssociationEnd] | None = None


@dataclass(frozen=True)
class TypedConstraint:
    ast: ConstraintAst
    context_class: ClassDef
    body: TypedExpr


class _Resolver:
    def __init__(self, model: StructuralModel):
        self.classes = model._classes  # the model's indexes; see StructuralModel
        self.roles = model._roles
        self.self_type: OclType = ERROR_T
        self.errors: list[ResolutionError] = []
        self.scopes: list[tuple[str, OclType]] = []

    def fail(self, kind: ResolutionErrorKind, path: tuple, message: str) -> OclType:
        """Record an error at path, a (parent path, step) pair whose root's
        parent is None; only here is it joined into "body.left.source"."""
        steps = []
        while path is not None:
            path, step = path
            steps.append(step)
        self.errors.append(ResolutionError(kind, ".".join(reversed(steps)), message))
        return ERROR_T

    def _resolve_variable(self, expr: VariableExp, path: tuple) -> TypedExpr:
        for name, vtype in reversed(self.scopes):
            if name == expr.name:
                return TypedExpr(expr, vtype)
        message = f"unknown variable '{expr.name}'"
        return TypedExpr(expr, self.fail(ResolutionErrorKind.UNKNOWN_VARIABLE, path, message))

    def _resolve_property(self, expr: PropertyExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st = source.type
        if st.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, (source,))
        if st.kind is _COLLECTION:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"property '{expr.name}' needs a single object, "
                f"source is {st}; use -> to operate on collections",
            )
            return TypedExpr(expr, t, (source,))
        if st.kind is not _OBJECT:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"property '{expr.name}' accessed on {st} value",
            )
            return TypedExpr(expr, t, (source,))

        cls = self.classes.get(st.class_name)
        if cls is None:
            return TypedExpr(expr, ERROR_T, (source,))
        attr = cls._attributes.get(expr.name)
        if attr is not None:
            return TypedExpr(expr, _PRIMITIVE_TYPES[attr.type], (source,), attr)
        found = self.roles.get(cls.name, {}).get(expr.name)
        if found is not None:
            end = found[1]
            target = object_type(end.target.name)
            if end.multiplicity.upper == 1:
                result = target
            else:
                result = collection_type(target)
            return TypedExpr(expr, result, (source,), found)
        t = self.fail(
            ResolutionErrorKind.UNKNOWN_PROPERTY,
            path,
            f"class '{cls.name}' has no attribute or association role '{expr.name}'",
        )
        return TypedExpr(expr, t, (source,))

    def _resolve_operation(self, expr: OperationCallExp, path: tuple) -> TypedExpr:
        left = _RESOLVE_BY_TYPE[type(expr.left)](self, expr.left, (path, "left"))
        right = _RESOLVE_BY_TYPE[type(expr.right)](self, expr.right, (path, "right"))
        children = (left, right)
        lt, rt = left.type, right.type
        if lt.kind is _ERROR or rt.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, children)
        op = expr.op

        if op in _LOGICAL:
            result = BOOL_T
            for side, t in (("left", lt), ("right", rt)):
                if t.kind is not _BOOL:
                    result = self.fail(
                        ResolutionErrorKind.TYPE_MISMATCH,
                        (path, side),
                        f"'{op.value}' needs Bool operands, got {t}",
                    )
            return TypedExpr(expr, result, children)

        if op in _EQUALITY:
            comparable = (
                (lt.kind in _NUMERIC and rt.kind in _NUMERIC)
                or (lt.kind is rt.kind and lt.kind in (_STR, _BOOL, _DATE))
                or (lt.kind is _OBJECT and rt.kind is _OBJECT and lt.class_name == rt.class_name)
            )
            if not comparable:
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"cannot compare {lt} and {rt} with '{op.value}'",
                )
                return TypedExpr(expr, t, children)
            return TypedExpr(expr, BOOL_T, children)

        if op in _ORDERING:
            ordered = (lt.kind in _NUMERIC and rt.kind in _NUMERIC) or (
                lt.kind is _DATE and rt.kind is _DATE
            )
            if not ordered:
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"cannot order {lt} and {rt} with '{op.value}'",
                )
                return TypedExpr(expr, t, children)
            return TypedExpr(expr, BOOL_T, children)

        # Arithmetic.
        if not (lt.kind in _NUMERIC and rt.kind in _NUMERIC):
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"operator '{op.value}' needs numeric operands, got {lt} and {rt}",
            )
            return TypedExpr(expr, t, children)
        result = INT_T if op is not _DIV and lt.kind is _INT and rt.kind is _INT else REAL_T
        return TypedExpr(expr, result, children)

    def _resolve_unary(self, expr: UnaryExp, path: tuple) -> TypedExpr:
        operand = _RESOLVE_BY_TYPE[type(expr.operand)](self, expr.operand, (path, "operand"))
        t = operand.type
        if t.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, (operand,))
        if expr.op is _NOT:
            if t.kind is not _BOOL:
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"'not' needs a Bool operand, got {t}",
                )
        elif t.kind not in _NUMERIC:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"unary '-' needs a numeric operand, got {t}",
            )
        return TypedExpr(expr, t, (operand,))

    def _resolve_if(self, expr: IfExp, path: tuple) -> TypedExpr:
        cond = _RESOLVE_BY_TYPE[type(expr.condition)](self, expr.condition, (path, "condition"))
        then = _RESOLVE_BY_TYPE[type(expr.then_branch)](self, expr.then_branch, (path, "then"))
        orelse = _RESOLVE_BY_TYPE[type(expr.else_branch)](self, expr.else_branch, (path, "else"))
        children = (cond, then, orelse)
        if cond.type.kind not in (_BOOL, _ERROR):
            self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                (path, "condition"),
                f"'if' condition must be Bool, got {cond.type}",
            )
        tt, et = then.type, orelse.type
        if tt.kind is _ERROR or et.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, children)
        if tt == et:
            return TypedExpr(expr, tt, children)
        if tt.kind in _NUMERIC and et.kind in _NUMERIC:
            return TypedExpr(expr, REAL_T, children)
        t = self.fail(
            ResolutionErrorKind.TYPE_MISMATCH,
            path,
            f"'if' branches have different types: {tt} vs {et}",
        )
        return TypedExpr(expr, t, children)

    def _resolve_iterator(self, expr: IteratorExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st = source.type
        element = ERROR_T
        if st.kind is _COLLECTION:
            element = st.element or ERROR_T
        elif st.kind is not _ERROR:
            self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                (path, "source"),
                f"'{expr.kind.value}' needs a collection source, got {st}",
            )

        if expr.var_type_name is not None and element.kind is not _ERROR:
            if element.kind is not _OBJECT:
                self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"iterator variable '{expr.var_name}' ranges over {element}, "
                    f"a class annotation does not apply",
                )
            elif expr.var_type_name != element.class_name:
                self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"iterator variable '{expr.var_name}' is declared "
                    f"{expr.var_type_name} but ranges over {element.class_name}",
                )

        self.scopes.append((expr.var_name, element))
        body = _RESOLVE_BY_TYPE[type(expr.body)](self, expr.body, (path, "body"))
        self.scopes.pop()
        children = (source, body)
        bt = body.type

        if expr.kind in _PREDICATES:
            if bt.kind not in (_BOOL, _ERROR):
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    (path, "body"),
                    f"'{expr.kind.value}' body must be Bool, got {bt}",
                )
                return TypedExpr(expr, t, children)
            if element.kind is _ERROR or bt.kind is _ERROR:
                return TypedExpr(expr, ERROR_T, children)
            if expr.kind in _QUANTIFIERS:
                return TypedExpr(expr, BOOL_T, children)
            return TypedExpr(expr, collection_type(element), children)

        # collect
        if bt.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, children)
        if bt.kind is _COLLECTION:
            return TypedExpr(expr, bt, children)  # flattens one level
        return TypedExpr(expr, collection_type(bt), children)

    def _resolve_collection_op(self, expr: CollectionOpExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st = source.type
        if st.kind is _ERROR:
            return TypedExpr(expr, ERROR_T, (source,))
        if st.kind is not _COLLECTION:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                (path, "source"),
                f"'{expr.op.value}()' needs a collection source, got {st}",
            )
            return TypedExpr(expr, t, (source,))
        result = INT_T if expr.op is _SIZE else BOOL_T
        return TypedExpr(expr, result, (source,))


class _ByNodeType(dict):
    """Expression node type -> the function that types it, called with the
    resolver, the node and its path; for any other type, one that raises."""

    def __missing__(self, node_type: type):
        def not_a_node(resolver: _Resolver, expr: object, path: tuple) -> TypedExpr:
            raise TypeError(f"not an expression node: {expr!r}")
        return not_a_node


_RESOLVE_BY_TYPE = _ByNodeType({
    SelfExp: lambda resolver, expr, path: TypedExpr(expr, resolver.self_type),
    IntegerLiteralExp: lambda resolver, expr, path: TypedExpr(expr, INT_T),
    RealLiteralExp: lambda resolver, expr, path: TypedExpr(expr, REAL_T),
    StringLiteralExp: lambda resolver, expr, path: TypedExpr(expr, STR_T),
    BooleanLiteralExp: lambda resolver, expr, path: TypedExpr(expr, BOOL_T),
    VariableExp: _Resolver._resolve_variable,
    PropertyExp: _Resolver._resolve_property,
    OperationCallExp: _Resolver._resolve_operation,
    UnaryExp: _Resolver._resolve_unary,
    IfExp: _Resolver._resolve_if,
    IteratorExp: _Resolver._resolve_iterator,
    CollectionOpExp: _Resolver._resolve_collection_op,
})


def resolve(ast: ConstraintAst, model: StructuralModel) -> TypedConstraint:
    """Type a constraint tree against the model.

    Collects every violation before failing: raises ResolutionFailure with
    the full error list, otherwise returns the typed tree.
    """
    resolver = _Resolver(model)
    context_class = model.class_named(ast.context_class_name)
    if context_class is None:
        resolver.fail(
            ResolutionErrorKind.UNKNOWN_CONTEXT_CLASS,
            (None, "context"),
            f"unknown context class '{ast.context_class_name}'",
        )
    else:
        resolver.self_type = object_type(context_class.name)

    body = _RESOLVE_BY_TYPE[type(ast.body)](resolver, ast.body, (None, "body"))
    if body.type.kind not in (_BOOL, _ERROR):
        resolver.fail(
            ResolutionErrorKind.TYPE_MISMATCH,
            (None, "body"),
            f"invariant body must be Bool, got {body.type}",
        )
    if resolver.errors:
        raise ResolutionFailure(resolver.errors)
    assert context_class is not None
    return TypedConstraint(ast, context_class, body)

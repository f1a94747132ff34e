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


def _is_numeric(t: OclType) -> bool:
    return t.kind in (TypeKind.INT, TypeKind.REAL)


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


# How a resolved PropertyExp reads its value at evaluation time.

@dataclass(frozen=True)
class AttributeAccess:
    attribute: Attribute


@dataclass(frozen=True)
class NavigationAccess:
    association: BinaryAssociation
    end: AssociationEnd  # the far end whose role was navigated


@dataclass(slots=True, unsafe_hash=True)
class TypedExpr:
    node: Expr
    type: OclType
    children: tuple["TypedExpr", ...] = ()
    access: AttributeAccess | NavigationAccess | None = None


@dataclass(frozen=True)
class TypedConstraint:
    ast: ConstraintAst
    context_class: ClassDef
    body: TypedExpr
    model: StructuralModel


class _Resolver:
    def __init__(self, model: StructuralModel):
        self.model = model
        self.self_type: OclType = ERROR_T
        self.errors: list[ResolutionError] = []
        self.scopes: list[tuple[str, OclType]] = []

    def fail(self, kind: ResolutionErrorKind, path: str, message: str) -> OclType:
        self.errors.append(ResolutionError(kind, path, message))
        return ERROR_T

    def resolve(self, expr: Expr, path: str) -> TypedExpr:
        resolve_node = _RESOLVE_BY_TYPE.get(type(expr))
        if resolve_node is None:
            raise TypeError(f"not an expression node: {expr!r}")
        return resolve_node(self, expr, path)

    def _resolve_variable(self, expr: VariableExp, path: str) -> TypedExpr:
        for name, vtype in reversed(self.scopes):
            if name == expr.name:
                return TypedExpr(expr, vtype)
        message = f"unknown variable '{expr.name}'"
        return TypedExpr(expr, self.fail(ResolutionErrorKind.UNKNOWN_VARIABLE, path, message))

    def _resolve_property(self, expr: PropertyExp, path: str) -> TypedExpr:
        source = self.resolve(expr.source, f"{path}.source")
        if source.type.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, (source,))
        if source.type.kind is TypeKind.COLLECTION:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"property '{expr.name}' needs a single object, "
                f"source is {source.type}; use -> to operate on collections",
            )
            return TypedExpr(expr, t, (source,))
        if source.type.kind is not TypeKind.OBJECT:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"property '{expr.name}' accessed on {source.type} value",
            )
            return TypedExpr(expr, t, (source,))

        cls = self.model.class_named(source.type.class_name or "")
        if cls is None:
            return TypedExpr(expr, ERROR_T, (source,))
        attr = cls.attribute_named(expr.name)
        if attr is not None:
            return TypedExpr(
                expr, _PRIMITIVE_TYPES[attr.type], (source,), AttributeAccess(attr)
            )
        ends = self.model.navigable_ends(cls)
        if expr.name in ends:
            assoc, end = ends[expr.name]
            target = object_type(end.target.name)
            if end.multiplicity.upper == 1:
                result = target
            else:
                result = collection_type(target)
            return TypedExpr(expr, result, (source,), NavigationAccess(assoc, end))
        t = self.fail(
            ResolutionErrorKind.UNKNOWN_PROPERTY,
            path,
            f"class '{cls.name}' has no attribute or association role '{expr.name}'",
        )
        return TypedExpr(expr, t, (source,))

    def _resolve_operation(self, expr: OperationCallExp, path: str) -> TypedExpr:
        left = self.resolve(expr.left, f"{path}.left")
        right = self.resolve(expr.right, f"{path}.right")
        children = (left, right)
        lt, rt = left.type, right.type
        if lt.kind is TypeKind.ERROR or rt.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, children)
        op = expr.op

        if op in (InfixOperator.AND, InfixOperator.OR):
            result = BOOL_T
            for side, t in (("left", lt), ("right", rt)):
                if t.kind is not TypeKind.BOOL:
                    result = self.fail(
                        ResolutionErrorKind.TYPE_MISMATCH,
                        f"{path}.{side}",
                        f"'{op.value}' needs Bool operands, got {t}",
                    )
            return TypedExpr(expr, result, children)

        if op in (InfixOperator.EQ, InfixOperator.NE):
            comparable = (
                (_is_numeric(lt) and _is_numeric(rt))
                or (lt.kind is rt.kind and lt.kind in (TypeKind.STR, TypeKind.BOOL, TypeKind.DATE))
                or (
                    lt.kind is TypeKind.OBJECT
                    and rt.kind is TypeKind.OBJECT
                    and lt.class_name == rt.class_name
                )
            )
            if not comparable:
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"cannot compare {lt} and {rt} with '{op.value}'",
                )
                return TypedExpr(expr, t, children)
            return TypedExpr(expr, BOOL_T, children)

        if op in (InfixOperator.LT, InfixOperator.GT, InfixOperator.LE, InfixOperator.GE):
            ordered = (_is_numeric(lt) and _is_numeric(rt)) or (
                lt.kind is TypeKind.DATE and rt.kind is TypeKind.DATE
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
        if not (_is_numeric(lt) and _is_numeric(rt)):
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                path,
                f"operator '{op.value}' needs numeric operands, got {lt} and {rt}",
            )
            return TypedExpr(expr, t, children)
        if op is InfixOperator.DIV:
            result = REAL_T
        elif lt.kind is TypeKind.INT and rt.kind is TypeKind.INT:
            result = INT_T
        else:
            result = REAL_T
        return TypedExpr(expr, result, children)

    def _resolve_unary(self, expr: UnaryExp, path: str) -> TypedExpr:
        operand = self.resolve(expr.operand, f"{path}.operand")
        t = operand.type
        if t.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, (operand,))
        if expr.op is UnaryOperator.NOT:
            if t.kind is not TypeKind.BOOL:
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"'not' needs a Bool operand, got {t}",
                )
            else:
                t = BOOL_T
        else:
            if not _is_numeric(t):
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    path,
                    f"unary '-' needs a numeric operand, got {t}",
                )
        return TypedExpr(expr, t, (operand,))

    def _resolve_if(self, expr: IfExp, path: str) -> TypedExpr:
        condition = self.resolve(expr.condition, f"{path}.condition")
        then_branch = self.resolve(expr.then_branch, f"{path}.then")
        else_branch = self.resolve(expr.else_branch, f"{path}.else")
        children = (condition, then_branch, else_branch)
        if condition.type.kind not in (TypeKind.BOOL, TypeKind.ERROR):
            self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                f"{path}.condition",
                f"'if' condition must be Bool, got {condition.type}",
            )
        tt, et = then_branch.type, else_branch.type
        if tt.kind is TypeKind.ERROR or et.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, children)
        if tt == et:
            return TypedExpr(expr, tt, children)
        if _is_numeric(tt) and _is_numeric(et):
            return TypedExpr(expr, REAL_T, children)
        t = self.fail(
            ResolutionErrorKind.TYPE_MISMATCH,
            path,
            f"'if' branches have different types: {tt} vs {et}",
        )
        return TypedExpr(expr, t, children)

    def _resolve_iterator(self, expr: IteratorExp, path: str) -> TypedExpr:
        source = self.resolve(expr.source, f"{path}.source")
        st = source.type
        if st.kind is TypeKind.COLLECTION:
            element = st.element or ERROR_T
        elif st.kind is TypeKind.ERROR:
            element = ERROR_T
        else:
            self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                f"{path}.source",
                f"'{expr.kind.value}' needs a collection source, got {st}",
            )
            element = ERROR_T

        if expr.var_type_name is not None and element.kind is not TypeKind.ERROR:
            if element.kind is not TypeKind.OBJECT:
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
        body = self.resolve(expr.body, f"{path}.body")
        self.scopes.pop()
        children = (source, body)
        bt = body.type

        if expr.kind in (IteratorKind.FOR_ALL, IteratorKind.EXISTS, IteratorKind.SELECT, IteratorKind.REJECT):
            if bt.kind not in (TypeKind.BOOL, TypeKind.ERROR):
                t = self.fail(
                    ResolutionErrorKind.TYPE_MISMATCH,
                    f"{path}.body",
                    f"'{expr.kind.value}' body must be Bool, got {bt}",
                )
                return TypedExpr(expr, t, children)
            if element.kind is TypeKind.ERROR or bt.kind is TypeKind.ERROR:
                return TypedExpr(expr, ERROR_T, children)
            if expr.kind in (IteratorKind.FOR_ALL, IteratorKind.EXISTS):
                return TypedExpr(expr, BOOL_T, children)
            return TypedExpr(expr, collection_type(element), children)

        # collect
        if bt.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, children)
        if bt.kind is TypeKind.COLLECTION:
            return TypedExpr(expr, bt, children)  # flattens one level
        return TypedExpr(expr, collection_type(bt), children)

    def _resolve_collection_op(self, expr: CollectionOpExp, path: str) -> TypedExpr:
        source = self.resolve(expr.source, f"{path}.source")
        st = source.type
        if st.kind is TypeKind.ERROR:
            return TypedExpr(expr, ERROR_T, (source,))
        if st.kind is not TypeKind.COLLECTION:
            t = self.fail(
                ResolutionErrorKind.TYPE_MISMATCH,
                f"{path}.source",
                f"'{expr.op.value}()' needs a collection source, got {st}",
            )
            return TypedExpr(expr, t, (source,))
        result = INT_T if expr.op is CollectionOp.SIZE else BOOL_T
        return TypedExpr(expr, result, (source,))


# Expression node type -> the function that types it, called with the resolver.
_RESOLVE_BY_TYPE = {
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
}


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
            "context",
            f"unknown context class '{ast.context_class_name}'",
        )
        resolver.self_type = ERROR_T
    else:
        resolver.self_type = object_type(context_class.name)

    body = resolver.resolve(ast.body, "body")
    if body.type.kind not in (TypeKind.BOOL, TypeKind.ERROR):
        resolver.fail(
            ResolutionErrorKind.TYPE_MISMATCH,
            "body",
            f"invariant body must be Bool, got {body.type}",
        )
    if resolver.errors:
        raise ResolutionFailure(resolver.errors)
    assert context_class is not None
    return TypedConstraint(ast, context_class, body, model)

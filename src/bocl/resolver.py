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
_QUANTIFIERS = (IteratorKind.FOR_ALL, IteratorKind.EXISTS)
_COLLECT = IteratorKind.COLLECT
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
    body: TypedExpr


class _Resolver:
    def __init__(self, model: StructuralModel):
        self.classes = model._classes  # the model's indexes; see StructuralModel
        self.roles = model._roles
        self.self_type: OclType = ERROR_T
        self.errors: list[ResolutionError] = []
        self.scopes: list[tuple[str, OclType]] = []

    def fail(self, path: tuple, message: str,
             kind: ResolutionErrorKind = ResolutionErrorKind.TYPE_MISMATCH) -> OclType:
        """Record an error at path, a (parent path, step) pair whose root's
        parent is None; only here is it joined into "body.left.source"."""
        steps = []
        while path is not None:
            path, step = path
            steps.append(step)
        self.errors.append(ResolutionError(kind, ".".join(reversed(steps)), message))
        return ERROR_T

    # Each compound rule resolves its children, picks its type in one chain
    # whose first branch passes an Error child through, and builds one node.

    def _resolve_variable(self, expr: VariableExp, path: tuple) -> TypedExpr:
        for name, t in reversed(self.scopes):
            if name == expr.name:
                break
        else:
            t = self.fail(path, f"unknown variable '{expr.name}'",
                          ResolutionErrorKind.UNKNOWN_VARIABLE)
        return TypedExpr(expr, t)

    def _resolve_property(self, expr: PropertyExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st, name, access = source.type, expr.name, None
        if st.kind is _ERROR:
            t = ERROR_T
        elif st.kind is _COLLECTION:
            t = self.fail(path, f"property '{name}' needs a single object, "
                                f"source is {st}; use -> to operate on collections")
        elif st.kind is not _OBJECT:
            t = self.fail(path, f"property '{name}' accessed on {st} value")
        elif (cls := self.classes.get(st.class_name)) is None:
            t = self.fail(path, f"class '{st.class_name}' is not a model class",
                          ResolutionErrorKind.UNKNOWN_PROPERTY)
        elif (access := cls._attributes.get(name)) is not None:
            t = _PRIMITIVE_TYPES[access.type]
        elif (access := self.roles.get(cls.name, {}).get(name)) is not None:
            end = access[1]
            target = object_type(end.target.name)
            t = target if end.multiplicity.upper == 1 else collection_type(target)
        else:
            t = self.fail(path, f"class '{cls.name}' has no attribute or association "
                                f"role '{name}'", ResolutionErrorKind.UNKNOWN_PROPERTY)
        return TypedExpr(expr, t, (source,), access)

    def _resolve_operation(self, expr: OperationCallExp, path: tuple) -> TypedExpr:
        left = _RESOLVE_BY_TYPE[type(expr.left)](self, expr.left, (path, "left"))
        right = _RESOLVE_BY_TYPE[type(expr.right)](self, expr.right, (path, "right"))
        lt, rt, op = left.type, right.type, expr.op
        lk, rk = lt.kind, rt.kind
        if lk is _ERROR or rk is _ERROR:
            t = ERROR_T
        elif op in _LOGICAL:
            t = BOOL_T
            for side, st in (("left", lt), ("right", rt)):
                if st.kind is not _BOOL:
                    t = self.fail((path, side), f"'{op.value}' needs Bool operands, got {st}")
        elif op in _EQUALITY:
            comparable = (
                (lk in _NUMERIC and rk in _NUMERIC)
                or (lk is rk and lk in (_STR, _BOOL, _DATE))
                or (lk is _OBJECT and rk is _OBJECT and lt.class_name == rt.class_name)
            )
            t = BOOL_T if comparable else self.fail(
                path, f"cannot compare {lt} and {rt} with '{op.value}'")
        elif op in _ORDERING:
            ordered = (lk in _NUMERIC and rk in _NUMERIC) or (lk is _DATE and rk is _DATE)
            t = BOOL_T if ordered else self.fail(
                path, f"cannot order {lt} and {rt} with '{op.value}'")
        elif not (lk in _NUMERIC and rk in _NUMERIC):  # arithmetic
            t = self.fail(path, f"operator '{op.value}' needs numeric operands, got {lt} and {rt}")
        else:
            t = INT_T if op is not _DIV and lk is _INT and rk is _INT else REAL_T
        return TypedExpr(expr, t, (left, right))

    def _resolve_unary(self, expr: UnaryExp, path: tuple) -> TypedExpr:
        operand = _RESOLVE_BY_TYPE[type(expr.operand)](self, expr.operand, (path, "operand"))
        t = operand.type
        if t.kind is _ERROR:
            pass
        elif expr.op is _NOT and t.kind is not _BOOL:
            t = self.fail(path, f"'not' needs a Bool operand, got {t}")
        elif expr.op is not _NOT and t.kind not in _NUMERIC:
            t = self.fail(path, f"unary '-' needs a numeric operand, got {t}")
        return TypedExpr(expr, t, (operand,))

    def _resolve_if(self, expr: IfExp, path: tuple) -> TypedExpr:
        cond = _RESOLVE_BY_TYPE[type(expr.condition)](self, expr.condition, (path, "condition"))
        then = _RESOLVE_BY_TYPE[type(expr.then_branch)](self, expr.then_branch, (path, "then"))
        orelse = _RESOLVE_BY_TYPE[type(expr.else_branch)](self, expr.else_branch, (path, "else"))
        if cond.type.kind not in (_BOOL, _ERROR):
            self.fail((path, "condition"), f"'if' condition must be Bool, got {cond.type}")
        tt, et = then.type, orelse.type
        if tt.kind is _ERROR or et.kind is _ERROR:
            t = ERROR_T
        elif tt == et:
            t = tt
        elif tt.kind in _NUMERIC and et.kind in _NUMERIC:
            t = REAL_T
        else:
            t = self.fail(path, f"'if' branches have different types: {tt} vs {et}")
        return TypedExpr(expr, t, (cond, then, orelse))

    def _resolve_iterator(self, expr: IteratorExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st, kind = source.type, expr.kind
        element = ERROR_T
        if st.kind is _COLLECTION:
            element = st.element or ERROR_T
        elif st.kind is not _ERROR:
            self.fail((path, "source"), f"'{kind.value}' needs a collection source, got {st}")

        if expr.var_type_name is not None and element.kind is not _ERROR:
            if element.kind is not _OBJECT:
                self.fail(path, f"iterator variable '{expr.var_name}' ranges over {element}, "
                                f"a class annotation does not apply")
            elif expr.var_type_name != element.class_name:
                self.fail(path, f"iterator variable '{expr.var_name}' is declared "
                                f"{expr.var_type_name} but ranges over {element.class_name}")

        self.scopes.append((expr.var_name, element))
        body = _RESOLVE_BY_TYPE[type(expr.body)](self, expr.body, (path, "body"))
        self.scopes.pop()
        bt = body.type
        if bt.kind is _ERROR:
            t = ERROR_T
        elif kind is _COLLECT:  # flattens a collection body one level
            t = bt if bt.kind is _COLLECTION else collection_type(bt)
        elif bt.kind is not _BOOL:
            t = self.fail((path, "body"), f"'{kind.value}' body must be Bool, got {bt}")
        elif element.kind is _ERROR:
            t = ERROR_T
        elif kind in _QUANTIFIERS:
            t = BOOL_T
        else:
            t = collection_type(element)
        return TypedExpr(expr, t, (source, body))

    def _resolve_collection_op(self, expr: CollectionOpExp, path: tuple) -> TypedExpr:
        source = _RESOLVE_BY_TYPE[type(expr.source)](self, expr.source, (path, "source"))
        st = source.type
        if st.kind is _ERROR:
            t = ERROR_T
        elif st.kind is not _COLLECTION:
            t = self.fail((path, "source"),
                          f"'{expr.op.value}()' needs a collection source, got {st}")
        else:
            t = INT_T if expr.op is _SIZE else BOOL_T
        return TypedExpr(expr, t, (source,))


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
    if model.class_named(ast.context_class_name) is None:
        resolver.fail((None, "context"), f"unknown context class '{ast.context_class_name}'",
                      ResolutionErrorKind.UNKNOWN_CONTEXT_CLASS)
    else:
        resolver.self_type = object_type(ast.context_class_name)

    body = _RESOLVE_BY_TYPE[type(ast.body)](resolver, ast.body, (None, "body"))
    if body.type.kind not in (_BOOL, _ERROR):
        resolver.fail((None, "body"), f"invariant body must be Bool, got {body.type}")
    if resolver.errors:
        raise ResolutionFailure(resolver.errors)
    return TypedConstraint(ast, body)

"""Evaluation of resolved constraints over an object model, through generated functions."""

from __future__ import annotations

import ast
import itertools
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, NoReturn

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
    RealLiteralExp,
    SelfExp,
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from .lexer import ParseError
from .model import (
    Attribute, ConstraintDef, ObjectInstance, ObjectModel, StructuralModel, _far_rows)
from .parser import parse_constraint
from .resolver import (
    ResolutionError, ResolutionErrorKind, ResolutionFailure, TypedConstraint, TypedExpr, TypeKind,
    resolve)

# ---------- Runtime errors ----------

class EvalError(Exception):
    """A constraint could not be evaluated on the given objects."""


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


# ---------- Compilation to one Python function ----------
#
# A resolved body becomes one Python function that loops over the instances,
# built from stdlib ast nodes, not source text. No name in it comes from the
# input: iterator variables are _v<n>, adjacency rows _r<n> and membership
# tables _s<n>; literals, slot keys and role names are constants. Values are
# plain Python, with a list or tuple for collections, and the resolver has
# proved every operand's type. Python's arithmetic gives the typing rules: Int
# op Int stays int, / always gives float, and mixed operands promote.

def _slot(obj: ObjectInstance, attribute: str) -> object:
    value = obj.slots.get(attribute)
    if value is None:
        raise EvalError(f"object '{obj.name}' has no value for attribute '{attribute}'")
    return value


def _to_one(row: dict, obj: ObjectInstance, role: str) -> ObjectInstance:
    linked = row.get(obj.name)
    if not linked:
        raise EvalError(f"no object linked via '{role}' from '{obj.name}'")
    return linked[0]


def _zero_divisor() -> NoReturn:
    raise EvalError("division by zero")


# A generated function's globals, besides its rows; it sees no other builtins.
_HELPERS = {"__builtins__": {}, "all": all, "any": any, "len": len, "bool": bool,
            "_slot": _slot, "_to_one": _to_one, "_zero_divisor": _zero_divisor}

_OPERATORS = {
    InfixOperator.AND: ast.And, InfixOperator.OR: ast.Or,
    InfixOperator.EQ: ast.Eq, InfixOperator.NE: ast.NotEq, InfixOperator.LT: ast.Lt,
    InfixOperator.GT: ast.Gt, InfixOperator.LE: ast.LtE, InfixOperator.GE: ast.GtE,
    InfixOperator.ADD: ast.Add, InfixOperator.SUB: ast.Sub, InfixOperator.MUL: ast.Mult,
    InfixOperator.DIV: ast.Div, UnaryOperator.NOT: ast.Not, UnaryOperator.NEG: ast.USub,
}
_LITERALS = (IntegerLiteralExp, RealLiteralExp, StringLiteralExp, BooleanLiteralExp)
_LOAD, _STORE = ast.Load(), ast.Store()
# Each expression and statement node is located as it is built: no pass over the tree.
_AT = {"lineno": 1, "col_offset": 0}


def _load(name: str, context: ast.expr_context = _LOAD) -> ast.Name:
    return ast.Name(name, context, **_AT)


def _get(value: ast.expr, attribute: str) -> ast.Attribute:
    return ast.Attribute(value, attribute, _LOAD, **_AT)


def _call(function: str | ast.expr, *args: ast.expr) -> ast.Call:
    return ast.Call(_load(function) if isinstance(function, str) else function, list(args), [], **_AT)


def _member(typed: TypedExpr) -> TypedExpr | None:
    """e, when typed is nav->exists(v | v = e) or nav->exists(v | e = v) with nav
    a to-many navigation and e self or a variable other than v, so e cannot raise."""
    (source, body), var = typed.children, VariableExp(typed.node.var_name)
    if (typed.node.kind is IteratorKind.EXISTS and isinstance(source.access, tuple)
            and isinstance(body.node, OperationCallExp) and body.node.op is InfixOperator.EQ):
        for v, e in (body.children, body.children[::-1]):
            if v.node == var and e.node != var and isinstance(e.node, (SelfExp, VariableExp)):
                return e
    return None


def _generate(typed: TypedConstraint, objects: ObjectModel) -> Callable[[list, Callable], None]:
    """The function f(instances, append) that appends (name, holds) for each
    instance in turn; it raises EvalError."""
    namespace = dict(_HELPERS)  # the function's globals
    variables: list[tuple[str, str]] = []  # (OCL name, Python name), innermost last
    count = itertools.count()

    def expr(typed: TypedExpr) -> ast.expr:
        """typed as a Python expression."""
        node = typed.node
        if isinstance(node, SelfExp):
            return _load("self")
        if isinstance(node, VariableExp):
            return _load(next(py for ocl, py in reversed(variables) if ocl == node.name))
        if isinstance(node, _LITERALS):
            return ast.Constant(node.value, **_AT)
        if isinstance(node, IteratorExp):
            return iterator(typed)

        parts = [expr(child) for child in typed.children]
        if isinstance(node, UnaryExp):
            return ast.UnaryOp(_OPERATORS[node.op](), parts[0], **_AT)
        if isinstance(node, OperationCallExp):
            (left, right), op = parts, _OPERATORS[node.op]()
            if isinstance(op, ast.boolop):
                # and/or are short-circuit, left to right.
                return ast.BoolOp(op, parts, **_AT)
            if isinstance(op, ast.cmpop):
                if typed.children[0].type.kind is TypeKind.OBJECT:
                    # Objects are equal when they are the same named object.
                    left, right = _get(left, "name"), _get(right, "name")
                return ast.Compare(left, [op], [right], **_AT)
            if isinstance(op, ast.Div):
                # A zero divisor is falsy, so it gives way to a call that raises.
                right = ast.BoolOp(ast.Or(), [right, _call("_zero_divisor")], **_AT)
            return ast.BinOp(left, op, right, **_AT)
        if isinstance(node, CollectionOpExp):
            if node.op is CollectionOp.IS_EMPTY:
                return ast.UnaryOp(ast.Not(), parts[0], **_AT)
            return _call("len" if node.op is CollectionOp.SIZE else "bool", parts[0])
        if isinstance(node, IfExp):
            # Only the taken branch is evaluated.
            return ast.IfExp(*parts, **_AT)

        source, access = parts[0], typed.access
        if isinstance(access, Attribute):
            key = ast.Constant(access.name, **_AT)
            read = _call("_slot", source, key)
            if not isinstance(source, ast.Name):
                return read  # so the source is evaluated once
            # A falsy value is read again by _slot, which returns it.
            return ast.BoolOp(ast.Or(), [_call(_get(_get(source, "slots"), "get"), key), read], **_AT)
        # The resolver picked this (association, end) from the model's role
        # table, the one navigate() reads, so the row toward it is bound here once.
        row = f"_r{next(count)}"
        namespace[row] = _far_rows(objects, *access)
        if typed.type.kind is TypeKind.OBJECT:  # the resolver's to-one decision
            return _call("_to_one", _load(row), source, ast.Constant(access[1].role, **_AT))
        return _call(_get(_load(row), "get"), _get(source, "name"), ast.Constant((), **_AT))

    def iterator(typed: TypedExpr) -> ast.expr:
        member = _member(typed)
        if member is not None:
            # e.name in _s.get(near.name, ()), _s mapping each near name to its far names.
            nav, table = typed.children[0], f"_s{next(count)}"
            namespace[table] = {near: {far.name for far in row}
                                for near, row in _far_rows(objects, *nav.access).items()}
            row = _call(_get(_load(table), "get"), _get(expr(nav.children[0]), "name"),
                        ast.Constant((), **_AT))
            return ast.Compare(_get(expr(member), "name"), [ast.In()], [row], **_AT)
        kind, var = typed.node.kind, f"_v{next(count)}"
        source = expr(typed.children[0])
        # collect flattens a collection-valued body one level, through a
        # second loop, so that body is an iterator source too.
        flatten = kind is IteratorKind.COLLECT and typed.children[1].type.kind is TypeKind.COLLECTION
        variables.append((typed.node.var_name, var))
        body = expr(typed.children[1])
        variables.pop()
        loops = [ast.comprehension(_load(var, _STORE), source, [], 0)]
        if kind is IteratorKind.FOR_ALL or kind is IteratorKind.EXISTS:
            # all and any stop at the first body value that decides them.
            function = "all" if kind is IteratorKind.FOR_ALL else "any"
            return _call(function, ast.GeneratorExp(body, loops, **_AT))
        if kind is IteratorKind.SELECT or kind is IteratorKind.REJECT:
            test = body if kind is IteratorKind.SELECT else ast.UnaryOp(ast.Not(), body, **_AT)
            loops[0].ifs.append(test)
        elif not flatten:
            return ast.ListComp(body, loops, **_AT)
        else:
            var = f"_v{next(count)}"
            loops.append(ast.comprehension(_load(var, _STORE), body, [], 0))
        return ast.ListComp(_load(var), loops, **_AT)

    # def _check(_instances, _append):
    #     for self in _instances: _append((self.name, <body>))
    holds = ast.Tuple([_get(_load("self"), "name"), expr(typed.body)], _LOAD, **_AT)
    check = ast.Expr(_call("_append", holds), **_AT)
    loop = ast.For(_load("self", _STORE), _load("_instances"), [check], [], **_AT)
    arguments = [ast.arg("_instances", **_AT), ast.arg("_append", **_AT)]
    parameters = ast.arguments([], arguments, None, [], [], None, [])
    module = ast.Module([ast.FunctionDef("_check", parameters, [loop], [], type_params=[], **_AT)], [])
    exec(compile(module, "<bocl constraint>", "exec"), namespace)
    return namespace.pop("_check")  # so the function and its globals go with the last reference


# ---------- Constraint evaluation ----------

def compile_model(
    model: StructuralModel,
) -> Iterator[tuple[ConstraintDef, TypedConstraint | ParseError | ResolutionFailure]]:
    """Parse and resolve each of the model's constraints once, in order.

    Yields each constraint with its typed form, or with the ParseError or
    ResolutionFailure that stopped it, such as a context in the expression
    text that is not the constraint's own.
    """
    for con in model.constraints:
        try:
            parsed = parse_constraint(con.expression)
            if parsed.context_class_name != con.context_class.name:
                raise ResolutionFailure([ResolutionError(
                    ResolutionErrorKind.UNKNOWN_CONTEXT_CLASS, "context",
                    f"expression context '{parsed.context_class_name}' is not the "
                    f"constraint's context '{con.context_class.name}'")])
            yield con, resolve(parsed, model)
        except (ParseError, ResolutionFailure) as error:
            yield con, error


def evaluate_constraint(
    typed: TypedConstraint,
    objects: ObjectModel,
    name: str | None = None,
) -> ConstraintVerdict:
    """Evaluate the body once per context-class instance and conjoin.

    The instances are the object model's own index row for the class, in
    name order, which the generated function only reads. The body is
    compiled once per call. Zero instances yield True vacuously. The first
    runtime error, an Integer too large to convert to Real, running out of
    memory, or a slot value of the wrong type or slots that are not a dict,
    in an object model that was not validated, turns the verdict into
    Error, keeping the per-instance results gathered so far.
    """
    if name is None:
        name = typed.ast.constraint_name or typed.ast.context_class_name
    check = _generate(typed, objects)
    per_instance: list[tuple[str, bool]] = []
    try:
        check(objects._instances.get(typed.ast.context_class_name, ()), per_instance.append)
    except (EvalError, OverflowError, TypeError, AttributeError) as error:
        overall, message = VerdictKind.ERROR, str(error)
    except MemoryError:
        overall, message = VerdictKind.ERROR, "evaluation ran out of memory"
    else:
        overall = VerdictKind.TRUE if all(holds for _, holds in per_instance) else VerdictKind.FALSE
        message = None
    return ConstraintVerdict(name, overall, tuple(per_instance), message)


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


# ---------- Reports ----------

class ReportFormat(Enum):
    TEXT = "text"
    JSON = "json"


def _verdict_text(verdict) -> str:
    if verdict.overall is VerdictKind.ERROR:
        return f"Error({verdict.error_message})"
    return verdict.overall.value


def write_report(report: EvaluationReport, format: ReportFormat, sink: IO[str]) -> None:
    """Write the report: one 'Invariant:<text>:<verdict>' line per
    constraint in text mode, a {"results": [...]} document in JSON mode."""
    if format is ReportFormat.TEXT:
        for result in report.results:
            sink.write(f"Invariant:{result.expression}:{_verdict_text(result.verdict)}\n")
        return
    # json.dump of the whole document with indent=2 runs the pure-Python
    # encoder; this writes the same bytes, a result at a time.
    string = json.encoder.encode_basestring_ascii
    sink.write('{\n  "results": [')
    for index, result in enumerate(report.results):
        verdict = result.verdict
        rows = ",".join([
            f'\n        {{\n          "object": {string(obj)},\n          "holds": '
            f'{"true" if holds else "false"}\n        }}'
            for obj, holds in verdict.per_instance
        ])
        error = ""
        if verdict.overall is VerdictKind.ERROR:
            error = f',\n      "error": {json.dumps(verdict.error_message)}'
        rows = f"[{rows}\n      ]" if rows else "[]"
        sink.write(
            f'{"," if index else ""}\n    {{\n      "name": {string(verdict.constraint_name)},'
            f'\n      "expression": {string(result.expression)},'
            f'\n      "overall": {string(verdict.overall.value)},'
            f'\n      "perInstance": {rows}{error}\n    }}'
        )
    sink.write("\n  ]\n}\n" if report.results else "]\n}\n")

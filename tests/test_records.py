"""Syntax trees, typed trees, constraint definitions and object instances
are slotted records that nothing mutates: pin that convention and the
records' shape."""

import copy
import io
import pickle
import random
from dataclasses import fields, replace

import pytest

from bocl.ast import (
    BooleanLiteralExp,
    CollectionOpExp,
    ConstraintAst,
    Expr,
    IfExp,
    IntegerLiteralExp,
    IteratorExp,
    OperationCallExp,
    PropertyExp,
    RealLiteralExp,
    SelfExp,
    StringLiteralExp,
    UnaryExp,
    VariableExp,
    ast_to_json,
    pretty_print,
)
from bocl.evaluator import ReportFormat, compile_model, evaluate_all, evaluate_constraint, write_report
from bocl.model import Attribute, ClassDef, ConstraintDef, ObjectInstance, StructuralModel
from bocl.model_io import load_objects, load_structural
from bocl.parser import parse_constraint
from bocl.resolver import TypedConstraint, TypedExpr, resolve

from conftest import MODEL_PATH, OBJECTS_PATH
from generators import gen_typed_constraint, make_random_model, make_random_objects

# Each record class and its dataclass field names, in order; the AST JSON
# table and every caller that builds a record positionally rely on them.
_EXPR_FIELDS = {
    SelfExp: (),
    PropertyExp: ("source", "name"),
    VariableExp: ("name",),
    IntegerLiteralExp: ("value",),
    RealLiteralExp: ("value",),
    StringLiteralExp: ("value",),
    BooleanLiteralExp: ("value",),
    OperationCallExp: ("op", "left", "right"),
    UnaryExp: ("op", "operand"),
    IfExp: ("condition", "then_branch", "else_branch"),
    IteratorExp: ("source", "kind", "var_name", "var_type_name", "body"),
    CollectionOpExp: ("source", "op"),
}
_RECORD_FIELDS = {
    **_EXPR_FIELDS,
    ConstraintAst: ("context_class_name", "stereotype", "constraint_name", "body"),
    TypedExpr: ("node", "type", "children", "access"),
    TypedConstraint: ("ast", "body"),
    ConstraintDef: ("name", "context_class", "expression", "language"),
    ObjectInstance: ("name", "classifier", "slots"),
}

# One constraint over the library model with a node of every kind.
_EVERY_KIND = (
    "context Library inv everyKind: if -self.contains->size() < 2.5 and not true"
    " then self.contains->select(b : Book | b.title <> 'x')->isEmpty()"
    " else self.name = 'y' or self.contains->size() > 0 endif"
)


def _nodes(expr):
    yield expr
    for f in fields(expr):
        child = getattr(expr, f.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


def _typed_nodes(typed):
    yield typed
    for child in typed.children:
        yield from _typed_nodes(child)


def _scenarios():
    """(structural model, object model) pairs: the library models, and
    generated two-class scenarios whose constraints are random type-correct
    trees printed as text, over objects that may lack slots."""
    model = load_structural(MODEL_PATH)
    yield model, load_objects(OBJECTS_PATH, model)[0]
    rng = random.Random(12)
    for _ in range(30):
        base = make_random_model(rng)
        trees = [gen_typed_constraint(rng) for _ in range(5)]
        constraints = tuple(
            ConstraintDef(f"c{i}", base.class_named(tree.context_class_name), pretty_print(tree))
            for i, tree in enumerate(trees)
        )
        model = StructuralModel(base.name, base.classes, base.associations, constraints)
        yield model, make_random_objects(rng, model)


def test_the_pipeline_changes_none_of_its_inputs():
    for model, objects in _scenarios():
        asts = [parse_constraint(con.expression) for con in model.constraints]
        snapshots = [ast_to_json(ast) for ast in asts]
        typed = [resolve(ast, model) for ast in asts]
        instances = [(o, o.name, o.classifier, dict(o.slots)) for o in objects.objects]
        verdicts = [evaluate_constraint(t, objects) for t in typed]

        assert [t for _, t in compile_model(model)] == typed
        report = evaluate_all(model, objects)
        for fmt in ReportFormat:
            write_report(report, fmt, io.StringIO())

        assert [ast_to_json(ast) for ast in asts] == snapshots
        assert all(t.ast is ast for t, ast in zip(typed, asts))
        assert typed == [resolve(ast, model) for ast in asts]
        for o, (instance, name, classifier, slots) in zip(objects.objects, instances):
            assert o is instance and o.name == name and o.classifier is classifier
            assert o.slots == slots
        assert [evaluate_constraint(t, objects) for t in typed] == verdicts


def _accesses(typed):
    return [node.access for node in _typed_nodes(typed.body) if node.access is not None]


def test_records_are_slotted(library_model, library_objects):
    ast = parse_constraint(_EVERY_KIND)
    nodes = list(_nodes(ast.body))
    assert {type(node) for node in nodes} == set(_EXPR_FIELDS)
    typed = resolve(ast, library_model)
    accesses = _accesses(typed)
    # A property node holds the model's own record: an Attribute, or an
    # (association, end) tuple.
    assert {type(access) for access in accesses} == {Attribute, tuple}
    for record in (ast, *nodes, *_typed_nodes(typed.body),
                   *library_model.constraints, *library_objects.objects):
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")


def test_record_field_names_are_unchanged():
    for cls, names in _RECORD_FIELDS.items():
        assert tuple(f.name for f in fields(cls)) == names


def test_record_repr_is_unchanged():
    assert repr(PropertyExp(SelfExp(), "name")) == "PropertyExp(source=SelfExp(), name='name')"
    assert repr(ConstraintDef("c", ClassDef("C"), "x")) == (
        "ConstraintDef(name='c', context_class=ClassDef(name='C', attributes=()), "
        "expression='x', language='OCL')"
    )
    assert repr(ObjectInstance("o", ClassDef("C"))) == (
        "ObjectInstance(name='o', classifier=ClassDef(name='C', attributes=()), slots={})"
    )


def test_equal_parses_are_equal_and_hash_equal(library_model):
    first, second = parse_constraint(_EVERY_KIND), parse_constraint(_EVERY_KIND)
    for a, b in zip([first, *_nodes(first.body)], [second, *_nodes(second.body)]):
        assert a is not b and a == b and hash(a) == hash(b)
    typed_first, typed_second = resolve(first, library_model), resolve(second, library_model)
    assert typed_first == typed_second and hash(typed_first) == hash(typed_second)
    for a, b in zip(_typed_nodes(typed_first.body), _typed_nodes(typed_second.body)):
        assert a is not b and a == b and hash(a) == hash(b)
    other = parse_constraint(_EVERY_KIND.replace("2.5", "3.5"))
    assert other != first and resolve(other, library_model) != typed_first


def test_constraint_defs_and_accesses_hash_as_their_fields(library_model):
    # Equality and hash are those of the frozen dataclasses they replaced:
    # both follow the tuple of the fields, in order.
    typed = resolve(parse_constraint(_EVERY_KIND), library_model)
    attributes = [access for access in _accesses(typed) if isinstance(access, Attribute)]
    for record in (*library_model.constraints, *attributes):
        values = tuple(getattr(record, f.name) for f in fields(record))
        twin = type(record)(*values)
        assert twin is not record and twin == record
        assert hash(twin) == hash(record) == hash(values)
    first = library_model.constraints[0]
    for name, value in (("name", "other"), ("context_class", ClassDef("Other")),
                        ("expression", "true"), ("language", "other")):
        assert replace(first, **{name: value}) != first


def test_object_instances_stay_unhashable(library_objects):
    with pytest.raises(TypeError):
        hash(library_objects.objects[0])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["deepcopy", "pickle"])
def test_trees_and_object_models_survive_copies(clone, library_model, library_objects):
    ast = parse_constraint(_EVERY_KIND)
    typed = resolve(ast, library_model)
    assert clone(ast) == ast
    assert clone(typed) == typed
    objects = clone(library_objects)
    assert objects == library_objects
    assert evaluate_all(library_model, objects) == evaluate_all(library_model, library_objects)

import json
import random

import pytest

from bocl.ast import (
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
    InfixOperator,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    SelfExp,
    Stereotype,
    UnaryExp,
    UnaryOperator,
)
from bocl.evaluator import (
    DivisionByZeroError,
    VerdictKind,
    compile_model,
    evaluate_all,
    evaluate_constraint,
    evaluate_expr,
)
from bocl.lexer import ParseError
from bocl.model import (
    ConstraintDef,
    ObjectInstance,
    ObjectModel,
    PrimitiveType,
    StructuralModel,
)
from bocl.parser import parse_constraint
from bocl.resolver import ResolutionFailure, TypedConstraint, resolve

from conftest import build_library_objects, report_to_document
from generators import (
    gen_total_predicate,
    gen_typed_constraint,
    make_random_model,
    make_random_objects,
)
from reference_eval import reference_verdict


def run(model, objects, text, name=None):
    typed = resolve(parse_constraint(text), model)
    return evaluate_constraint(typed, objects, name=name)


def eval_body(model, objects, text):
    """Evaluate a constraint body with self bound to its single instance."""
    typed = resolve(parse_constraint(text), model)
    instance = next(
        o for o in objects.objects if o.classifier.name == typed.context_class.name
    )
    return evaluate_expr(typed.body, {"self": instance}, objects, model)


# -- shipped library corpus --

def test_page_number_invariant_holds(built_model, built_objects):
    verdict = run(built_model, built_objects, "context Book inv pageNumberInv: self.pages>0")
    assert verdict.overall is VerdictKind.TRUE
    assert verdict.per_instance == (("book_obj", True),)


def test_at_least_one_small_book_holds(built_model, built_objects):
    verdict = run(
        built_model,
        built_objects,
        "context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0",
    )
    assert verdict.overall is VerdictKind.TRUE


def test_zero_pages_fails(built_model):
    objects = build_library_objects(built_model, pages=0)
    verdict = run(built_model, objects, "context Book inv pageNumberInv: self.pages>0")
    assert verdict.overall is VerdictKind.FALSE
    assert verdict.per_instance == (("book_obj", False),)


def test_division_by_zero_is_error(built_model, built_objects):
    verdict = run(built_model, built_objects, "context Book inv q: 1/0 = 1")
    assert verdict.overall is VerdictKind.ERROR
    assert "division by zero" in verdict.error_message


def test_if_constraint_takes_then_branch(built_model, built_objects):
    verdict = run(
        built_model,
        built_objects,
        "context Library inv Constraint2: if self.name = 'Children Library' then "
        "self.contains->forAll(i_book : Book | i_book.pages <= 100) else true endif",
    )
    assert verdict.overall is VerdictKind.TRUE


# -- expression semantics --

def test_collect_pages(built_model, built_objects):
    value = eval_body(
        built_model,
        built_objects,
        "context Library inv x: self.contains->collect(b | b.pages)->size() = 1",
    )
    assert value is True
    typed = resolve(
        parse_constraint("context Library inv x: self.contains->collect(b | b.pages)->size() = 1"),
        built_model,
    )
    library_obj = built_objects.object_named("library_obj")
    collect = typed.body.children[0].children[0]
    collected = evaluate_expr(collect, {"self": library_obj}, built_objects, built_model)
    assert collected == (20,)
    assert type(collected[0]) is int


def test_select_then_size_chain(built_model, built_objects):
    value = eval_body(
        built_model,
        built_objects,
        "context Library inv x: "
        "self.contains->select(b : Book | b.pages <= 110)->size() > 0",
    )
    assert value is True


def test_for_all_over_empty_navigation(built_model):
    library = built_model.class_named("Library")
    lonely = ObjectInstance(
        "lib",
        library,
        {"name": "x"},
    )
    objects = ObjectModel("m", (lonely,))
    verdict = run(
        built_model, objects, "context Library inv v: self.contains->forAll(b | false)"
    )
    assert verdict.overall is VerdictKind.TRUE
    verdict = run(
        built_model, objects, "context Library inv v: self.contains->exists(b | true)"
    )
    assert verdict.overall is VerdictKind.FALSE
    verdict = run(
        built_model, objects, "context Library inv v: self.contains->size() = 0"
    )
    assert verdict.overall is VerdictKind.TRUE
    verdict = run(built_model, objects, "context Library inv v: self.contains->isEmpty()")
    assert verdict.overall is VerdictKind.TRUE


def test_untaken_branch_not_evaluated(built_model, built_objects):
    verdict = run(
        built_model,
        built_objects,
        "context Library inv v: if self.name = 'Children Library' "
        "then true else 1/0 = 1 endif",
    )
    assert verdict.overall is VerdictKind.TRUE


def test_and_or_short_circuit(built_model, built_objects):
    assert eval_body(
        built_model, built_objects, "context Book inv v: false and 1/0 = 1"
    ) is False
    assert eval_body(
        built_model, built_objects, "context Book inv v: true or 1/0 = 1"
    ) is True
    with pytest.raises(DivisionByZeroError):
        eval_body(built_model, built_objects, "context Book inv v: true and 1/0 = 1")


def test_vacuous_truth_with_no_instances(built_model):
    verdict = run(built_model, ObjectModel("empty"), "context Book inv v: false")
    assert verdict.overall is VerdictKind.TRUE
    assert verdict.per_instance == ()


def test_missing_slot_error(built_model):
    book = built_model.class_named("Book")
    obj = ObjectInstance("b", book, {})
    verdict = run(
        built_model, ObjectModel("m", (obj,)), "context Book inv v: self.pages > 0"
    )
    assert verdict.overall is VerdictKind.ERROR
    assert "no value for attribute 'pages'" in verdict.error_message


def test_scalar_navigation_without_link_is_error(built_model):
    book = built_model.class_named("Book")
    obj = ObjectInstance("b", book, {})
    verdict = run(
        built_model,
        ObjectModel("m", (obj,)),
        "context Book inv v: self.locatedIn.name = 'x'",
    )
    assert verdict.overall is VerdictKind.ERROR
    assert "locatedIn" in verdict.error_message


def test_error_keeps_partial_per_instance(built_model):
    book = built_model.class_named("Book")
    good = ObjectInstance("a_ok", book, {"pages": 3})
    bad = ObjectInstance("b_bad", book, {})
    objects = ObjectModel("m", (good, bad))
    verdict = run(built_model, objects, "context Book inv v: self.pages > 0")
    assert verdict.overall is VerdictKind.ERROR
    assert verdict.per_instance == (("a_ok", True),)


def test_date_comparison(built_model, built_objects):
    assert eval_body(
        built_model, built_objects, "context Book inv v: self.release < self.release"
    ) is False
    assert eval_body(
        built_model, built_objects, "context Book inv v: self.release = self.release"
    ) is True


def test_int_division_is_real(built_model, built_objects):
    assert eval_body(built_model, built_objects, "context Book inv v: 6 / 3 = 2.0") is True
    typed = resolve(parse_constraint("context Book inv v: 6 / 3 = 2.0"), built_model)
    division = typed.body.children[0]
    book_obj = built_objects.object_named("book_obj")
    value = evaluate_expr(division, {"self": book_obj}, built_objects, built_model)
    assert type(value) is float
    assert value == 2.0


def test_int_arithmetic_stays_int(built_model, built_objects):
    typed = resolve(parse_constraint("context Book inv v: 2 + 3 = 5"), built_model)
    add = typed.body.children[0]
    book_obj = built_objects.object_named("book_obj")
    value = evaluate_expr(add, {"self": book_obj}, built_objects, built_model)
    assert type(value) is int
    assert value == 5


def test_object_identity_comparison(built_model, built_objects):
    assert eval_body(
        built_model,
        built_objects,
        "context Book inv v: self.locatedIn = self.locatedIn",
    ) is True


def test_iterator_restores_scope(built_model, built_objects):
    # The inner forAll over an empty collection shadows b; the outer b
    # must be bound again for b.pages afterwards.
    text = (
        "context Library inv v: self.contains->forAll(b | "
        "self.contains->select(x | false)->forAll(b | false) and b.pages = 20)"
    )
    typed = resolve(parse_constraint(text), built_model)
    library_obj = built_objects.object_named("library_obj")
    scope = {"self": library_obj}
    assert evaluate_expr(typed.body, scope, built_objects, built_model) is True
    assert scope == {"self": library_obj}
    empty = "context Library inv v: self.contains->select(x | false)->exists(b | true)"
    typed = resolve(parse_constraint(empty), built_model)
    assert evaluate_expr(typed.body, scope, built_objects, built_model) is False
    assert scope == {"self": library_obj}


# -- whole-model evaluation --

def test_evaluate_all_golden_corpus(built_model, built_objects):
    report = evaluate_all(built_model, built_objects)
    assert [r.verdict.overall for r in report.results] == [
        VerdictKind.TRUE,
        VerdictKind.TRUE,
    ]
    assert [r.verdict.constraint_name for r in report.results] == [
        "BookPageNumber",
        "LibaryCollect",
    ]


def test_evaluate_all_isolates_failures(built_model, built_objects):
    book = built_model.class_named("Book")
    constraints = (
        ConstraintDef("broken", book, "context Book inv b: self.pages >"),
        ConstraintDef("fine", book, "context Book inv f: self.pages > 0"),
    )
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, constraints
    )
    report = evaluate_all(model, built_objects)
    assert report.results[0].verdict.overall is VerdictKind.ERROR
    assert "Exception Occured! Info:" in report.results[0].verdict.error_message
    assert report.results[1].verdict.overall is VerdictKind.TRUE


def test_compile_model_yields_each_constraint_in_order(built_model):
    book = built_model.class_named("Book")
    constraints = (
        ConstraintDef("broken", book, "context Book inv b: self.pages >"),
        ConstraintDef("fine", book, "context Book inv f: self.pages > 0"),
        ConstraintDef("typo", book, "context Book inv t: self.pagecount > 0"),
    )
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, constraints
    )
    compiled = list(compile_model(model))
    assert [con for con, _ in compiled] == list(constraints)
    kinds = [type(typed) for _, typed in compiled]
    assert kinds == [ParseError, TypedConstraint, ResolutionFailure]
    assert compiled[1][1] == resolve(parse_constraint(constraints[1].expression), model)


def test_evaluate_all_empty_constraint_list(built_model, built_objects):
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, ()
    )
    report = evaluate_all(model, built_objects)
    assert report.results == ()


def test_evaluate_all_reports_resolution_errors(built_model, built_objects):
    book = built_model.class_named("Book")
    constraints = (
        ConstraintDef("typo", book, "context Book inv t: self.pagecount > 0"),
    )
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, constraints
    )
    report = evaluate_all(model, built_objects)
    assert report.results[0].verdict.overall is VerdictKind.ERROR
    assert "pagecount" in report.results[0].verdict.error_message


def test_evaluate_all_deterministic(built_model, built_objects):
    first = evaluate_all(built_model, built_objects)
    second = evaluate_all(built_model, built_objects)
    assert first == second
    assert json.dumps(report_to_document(first)) == json.dumps(report_to_document(second))


# -- algebraic laws (small seeded samples; the counted runs live in the
#    acceptance suite) --

def _law_scenario(rng):
    model = make_random_model(rng)
    objects = make_random_objects(rng, model, fill_all_slots=True)
    return model, objects


def _items():
    return PropertyExp(SelfExp(), "items")


def test_partition_law_sample():
    rng = random.Random(3)
    for _ in range(40):
        model, objects = _law_scenario(rng)
        pred = gen_total_predicate(rng, "v", depth=2)
        body = OperationCallExp(
            InfixOperator.EQ,
            OperationCallExp(
                InfixOperator.ADD,
                CollectionOpExp(
                    IteratorExp(_items(), IteratorKind.SELECT, "v", None, pred),
                    CollectionOp.SIZE,
                ),
                CollectionOpExp(
                    IteratorExp(_items(), IteratorKind.REJECT, "v", None, pred),
                    CollectionOp.SIZE,
                ),
            ),
            CollectionOpExp(_items(), CollectionOp.SIZE),
        )
        ast = ConstraintAst("A", Stereotype.INV, "partition", body)
        verdict = evaluate_constraint(resolve(ast, model), objects)
        assert verdict.overall is VerdictKind.TRUE


def test_duality_law_sample():
    rng = random.Random(4)
    for _ in range(40):
        model, objects = _law_scenario(rng)
        pred = gen_total_predicate(rng, "v", depth=2)
        body = OperationCallExp(
            InfixOperator.EQ,
            IteratorExp(_items(), IteratorKind.EXISTS, "v", None, pred),
            UnaryExp(
                UnaryOperator.NOT,
                IteratorExp(
                    _items(),
                    IteratorKind.FOR_ALL,
                    "v",
                    None,
                    UnaryExp(UnaryOperator.NOT, pred),
                ),
            ),
        )
        ast = ConstraintAst("A", Stereotype.INV, "duality", body)
        verdict = evaluate_constraint(resolve(ast, model), objects)
        assert verdict.overall is VerdictKind.TRUE


def test_comparison_trichotomy_sample():
    rng = random.Random(5)
    for _ in range(200):
        if rng.random() < 0.5:
            a = rng.randint(-50, 50)
        else:
            a = rng.randint(-200, 200) / 4.0
        if rng.random() < 0.5:
            b = rng.randint(-50, 50)
        else:
            b = rng.randint(-200, 200) / 4.0
        assert (a < b) + (a == b) + (a > b) == 1


# -- differential smoke test (full run in the acceptance suite) --

def test_matches_reference_evaluator_sample():
    rng = random.Random(6)
    for _ in range(60):
        model = make_random_model(rng)
        objects = make_random_objects(rng, model)
        ast = gen_typed_constraint(rng)
        typed = resolve(ast, model)
        mine = evaluate_constraint(typed, objects)
        ref = reference_verdict(ast, model, objects)
        assert mine.overall.value == ref.overall, (ast, objects)
        assert mine.per_instance == ref.per_instance
        assert all(type(holds) is bool for _, holds in mine.per_instance)

import dataclasses
import itertools
import json
import random
import re
import sys
import types

import pytest

from bocl.ast import (
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
    Expr,
    InfixOperator,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    SelfExp,
    Stereotype,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from bocl.evaluator import (
    VerdictKind,
    _generate,
    compile_model,
    evaluate_all,
    evaluate_constraint,
)
from bocl.lexer import ParseError
from bocl.model import (
    AssociationEnd,
    Attribute,
    BinaryAssociation,
    ClassDef,
    ConstraintDef,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    PrimitiveType,
    StructuralModel,
)
from bocl.parser import parse_constraint
from bocl.resolver import ResolutionFailure, TypedConstraint, resolve

from conftest import build_library_objects, report_to_document
from generators import (
    add_pick_role,
    gen_member_constraint,
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
    """The body's value on the context class's single instance."""
    verdict = run(model, objects, text)
    assert verdict.overall is not VerdictKind.ERROR, verdict.error_message
    [(_, holds)] = verdict.per_instance
    return holds


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
    # The collected pages are the Integer 20: Int arithmetic on them is exact
    # past 2**53, where Real arithmetic would round.
    assert eval_body(
        built_model,
        built_objects,
        "context Library inv x: self.contains->collect(b | b.pages)->forAll(p | "
        "p = 20 and p + 9007199254740993 - 9007199254740992 = p + 1)",
    ) is True


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
    verdict = run(built_model, built_objects, "context Book inv v: true and 1/0 = 1")
    assert verdict.overall is VerdictKind.ERROR
    assert verdict.error_message == "division by zero"


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
    assert eval_body(built_model, built_objects, "context Book inv v: 7 / 2 = 3.5") is True
    # A Real quotient stays Real: adding 2**53 + 1 to it rounds.
    assert eval_body(
        built_model,
        built_objects,
        "context Book inv v: 6 / 3 + 9007199254740993 - 9007199254740992 = 3",
    ) is False


def test_int_arithmetic_stays_int(built_model, built_objects):
    assert eval_body(built_model, built_objects, "context Book inv v: 2 + 3 = 5") is True
    # Exact only in Int arithmetic: a Real sum would round past 2**53.
    assert eval_body(
        built_model,
        built_objects,
        "context Book inv v: 2 + 9007199254740993 - 9007199254740992 = 3",
    ) is True


def test_object_identity_comparison(built_model, built_objects):
    assert eval_body(
        built_model,
        built_objects,
        "context Book inv v: self.locatedIn = self.locatedIn",
    ) is True


def test_iterator_restores_scope(built_model, built_objects):
    # The inner forAll over an empty collection shadows b; the outer b
    # must be bound again for b.pages afterwards.
    assert eval_body(
        built_model,
        built_objects,
        "context Library inv v: self.contains->forAll(b | "
        "self.contains->select(x | false)->forAll(b | false) and b.pages = 20)",
    ) is True
    # An inner b that ranges over other objects leaves the outer b as it was.
    assert eval_body(
        built_model,
        built_objects,
        "context Library inv v: self.contains->forAll(b | "
        "self.contains->collect(b | b.locatedIn)->forAll(b | b.name = self.name) "
        "and b.pages = 20)",
    ) is True
    assert eval_body(
        built_model,
        built_objects,
        "context Library inv v: self.contains->select(x | false)->exists(b | true)",
    ) is False


# -- generated code: names and depth --

# The message of each EvalError, by the reference evaluator's error kind.
REFERENCE_ERRORS = {
    "MissingSlot": "has no value for attribute",
    "NavigationEmpty": "no object linked via",
    "DivisionByZero": "division by zero",
}


def assert_matches_reference(ast, model, objects):
    mine = evaluate_constraint(resolve(ast, model), objects)
    ref = reference_verdict(ast, model, objects)
    assert (mine.overall.value, mine.per_instance) == (ref.overall, ref.per_instance)
    if ref.error_kind is not None:
        assert REFERENCE_ERRORS[ref.error_kind] in mine.error_message
    return mine


def _keyword_model():
    """Class, attribute and role names that are Python keywords and builtins."""
    item = ClassDef(
        "Item", (Attribute("class", PrimitiveType.INT), Attribute("lambda", PrimitiveType.STR))
    )
    box = ClassDef("Box", (Attribute("len", PrimitiveType.INT), Attribute("None", PrimitiveType.BOOL)))
    assoc = BinaryAssociation(
        "lambda",
        AssociationEnd("class", item, Multiplicity(1, 1)),
        AssociationEnd("len", box, Multiplicity(0, None)),
    )
    model = StructuralModel("keywords", (item, box), (assoc,))
    i1 = ObjectInstance("i1", item, {"class": 3, "lambda": "x"})
    i2 = ObjectInstance("i2", item, {"class": 0, "lambda": ""})
    b1 = ObjectInstance("b1", box, {"len": 2, "None": True})
    b2 = ObjectInstance("b2", box, {"len": 0, "None": False})
    b3 = ObjectInstance("b3", box, {"len": 5})
    b4 = ObjectInstance("b4", box, {"len": 1, "None": False})  # linked to no Item
    links = tuple(
        (f"l{k}", assoc, owner, box_obj)
        for k, (owner, box_obj) in enumerate([(i1, b1), (i1, b2), (i2, b3)])
    )
    return model, ObjectModel("keywords", (i1, i2, b1, b2, b3, b4), links)


# Each reads A and B as iterator variables; the test renames them.
KEYWORD_CONSTRAINTS = [
    "context Item inv k: self.len->forAll(A | A.len >= 0 and self.len->exists(B | B.len = A.len))",
    "context Item inv k: self.len->select(A | A.len > 0)->size() <= self.len->size()",
    "context Item inv k: self.len->collect(A | A.len)->forAll(B | B * 2 >= B)",
    "context Box inv k: self.class.lambda <> '' and self.class.class / (self.len + 1) >= 0",
    "context Item inv k: self.len->forAll(A | A.class.len->notEmpty() and not A.None)",
    "context Item inv k: self.len->collect(A | A.class.len)->reject(B | B.len / B.len > 0)->isEmpty()",
    "context Item inv k: self.len->select(A | A.class.lambda = self.lambda)->forAll(B | B.class = self)",
    "context Item inv k: self.len->reject(A | A.None)->collect(B | B.class)->forAll(A | A.class > 0)",
    "context Item inv k: self.class - self.len->size() > 0 or self.lambda = 'x'",
    "context Item inv k: self.len->forAll(A | self.len->exists(B | B = A) and A.class.len->exists(B | A = B))",
]

# Python keywords and builtins, and each name the generator itself uses.
KEYWORD_VARIABLES = [
    "all", "any", "tuple", "len", "True", "None", "self", "bool", "_slot", "_to_one",
    "_missing_slot", "_no_link", "_zero_divisor", "_v0", "_v1", "_t2", "_r3",
    "_instances", "_append", "_check", "__builtins__", ".0",
]

# Every name the generated code may hold: its own vocabulary and the names
# it numbers. None comes from the input.
GENERATED_NAMES = {
    "self", "name", "slots", "get", "_instances", "_append", "all", "any", "len", "bool",
    "_slot", "_to_one", "_missing_slot", "_no_link", "_zero_divisor", ".0",
}


def _renamed(expr, names):
    """expr with each iterator variable renamed through names."""
    if isinstance(expr, VariableExp):
        return VariableExp(names[expr.name])
    if not isinstance(expr, Expr):
        return expr
    fields = {f.name: _renamed(getattr(expr, f.name), names) for f in dataclasses.fields(expr)}
    if isinstance(expr, IteratorExp):
        fields["var_name"] = names[expr.var_name]
    return type(expr)(**fields)


def _code_names(code):
    names = {*code.co_names, *code.co_varnames, *code.co_cellvars, *code.co_freevars}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


@pytest.mark.parametrize("text", KEYWORD_CONSTRAINTS)
def test_no_input_name_reaches_the_generated_code(text):
    model, objects = _keyword_model()
    parsed = parse_constraint(text)
    overall = set()
    for a, b in zip(KEYWORD_VARIABLES, KEYWORD_VARIABLES[1:] + KEYWORD_VARIABLES[:1]):
        ast = dataclasses.replace(parsed, body=_renamed(parsed.body, {"A": a, "B": b}))
        overall.add(assert_matches_reference(ast, model, objects).overall)
        names = _code_names(_generate(resolve(ast, model), objects).__code__)
        stray = {n for n in names - GENERATED_NAMES if not re.fullmatch(r"_[vrs]\d+", n)}
        assert not stray, (text, a, b)
    # The names change no verdict.
    assert len(overall) == 1


def _deepest(shape):
    """The deepest constraint of shape that parses."""
    for n in itertools.count(1):
        try:
            parse_constraint(shape(n + 1))
        except ParseError:
            return parse_constraint(shape(n))


# context Book over the library objects: one book in one library.
DEEP_SHAPES = {
    "not": lambda n: "context Book inv d: " + "not " * n + "(self.pages > 0)",
    "and": lambda n: "context Book inv d: " + " and ".join(["self.pages > 0"] * n),
    "divide": lambda n: "context Book inv d: self.pages" + " / self.pages" * n + " > 0",
    "divide_by_zero": lambda n: (
        "context Book inv d: self.pages" + " / self.pages" * n + " / (self.pages - 20) > 0"
    ),
    "if": lambda n: (
        "context Book inv d: " + "if self.pages > 0 then " * n + "self.title <> ''"
        + " else false endif" * n
    ),
    "forAll": lambda n: (
        "context Book inv d: " + "self.locatedIn.contains->forAll(b | " * n + "b.pages > 0"
        + ")" * n
    ),
    "collect": lambda n: (
        "context Book inv d: self.locatedIn.contains"
        + "->collect(b | b.locatedIn.contains)" * n + "->forAll(b | b.pages > 0)"
    ),
    "select_slot_in_source": lambda n: (
        "context Book inv d: self.locatedIn.contains"
        + "->select(b | b.pages > 1 and b.locatedIn.name <> '')" * n
        + "->forAll(c | c.pages > 1)"
    ),
    # A set lookup, whose near object is a deep if.
    "exists_member": lambda n: (
        "context Book inv d: " + "(if self.pages > 0 then " * n + "self.locatedIn"
        + " else self.locatedIn endif)" * n + ".contains->exists(b | b = self)"
    ),
    # A walk, whose e is a deep if.
    "exists_deep_e": lambda n: (
        "context Book inv d: self.locatedIn.contains->exists(b | b = "
        + "if self.pages > 0 then " * n + "self" + " else self endif" * n + ")"
    ),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deepest_constraint_matches_reference(built_model, built_objects, shape):
    assert sys.getrecursionlimit() == 1000
    ast = _deepest(DEEP_SHAPES[shape])
    verdict = assert_matches_reference(ast, built_model, built_objects)
    assert (verdict.overall is VerdictKind.ERROR) == (shape == "divide_by_zero")
    assert bool(_set_lookups(resolve(ast, built_model), built_objects)) == (shape == "exists_member")


# -- nav->exists(v | v = e) as a set lookup --

def _member_scenario():
    """A/B with a to-one A.pick toward B. a0 owns no B and picks none, a1 owns
    and picks b1, and a2 owns b0 and picks none."""
    model, _ = add_pick_role(random.Random(0), make_random_model(random.Random(0)), ObjectModel("-"))
    items, pick = model.associations
    a0, a1, a2 = (ObjectInstance(f"a{k}", model.class_named("A"), {}) for k in range(3))
    b0, b1 = (ObjectInstance(f"b{k}", model.class_named("B"), {}) for k in range(2))
    links = (("l0", items, a1, b1), ("l1", items, a2, b0), ("p0", pick, a1, b1))
    return model, ObjectModel("member", (a0, a1, a2, b0, b1), links)


def _set_lookups(typed, objects):
    return {n for n in _code_names(_generate(typed, objects).__code__) if re.fullmatch(r"_s\d+", n)}


# (body over context A, whether it compiles to a set lookup, overall verdict)
MEMBER_CASES = [
    # e may raise, so it keeps the walk, which reads e only on a non-empty row:
    # a0 False, a1 True, and a2 has no pick.
    ("self.items->exists(v | v = self.pick)", False, "Error"),
    ("self.items->exists(v | self.pick = v)", False, "Error"),
    ("self.items->exists(v | v = if self.items->exists(v | true) then self.pick else self.pick endif)",
     False, "Error"),
    ("self.items->exists(v | v = if self.items->exists(v | v.owner = self) then self.pick else self.pick endif)",
     False, "Error"),
    # e is another variable, in another iterator's body.
    ("self.items->forAll(w | self.items->exists(v | v = w))", True, "True"),
    # e names v.
    ("self.items->exists(v | v = v)", False, "False"),
    ("self.items->exists(v | v.owner.pick = v)", False, "Error"),
    ("self.items->exists(v | v = if self.items->exists(v | true) then self.pick else v.owner.pick endif)",
     False, "Error"),
    # e is another variable, inside an iterator's source.
    ("self.items->select(w | self.items->exists(v | v = w))->exists(x | x = x)", True, "False"),
    ("self.items->collect(w | w.owner.items->select(u | w.owner.items->exists(v | u = v)))->size() >= 0",
     True, "True"),
    # Not the shape: <>, and a source that is not a navigation.
    ("self.items->exists(v | v <> self.pick)", False, "Error"),
    ("self.items->select(w | true)->exists(v | v = self.pick)", False, "Error"),
]


@pytest.mark.parametrize("body, looked_up, overall", MEMBER_CASES)
def test_membership_matches_reference(body, looked_up, overall):
    model, objects = _member_scenario()
    ast = parse_constraint(f"context A inv m: {body}")
    verdict = assert_matches_reference(ast, model, objects)
    assert verdict.overall.value == overall
    assert bool(_set_lookups(resolve(ast, model), objects)) == looked_up


def test_membership_on_the_far_side_of_a_to_one_role():
    # self.owner.items->exists(b | b = self), as the benchmark's shelvedWhereListed.
    model, objects = _member_scenario()
    ast = parse_constraint("context B inv m: self.owner.items->exists(v | v = self)")
    assert assert_matches_reference(ast, model, objects).overall is VerdictKind.TRUE
    assert _set_lookups(resolve(ast, model), objects)


def test_planted_membership_matches_reference():
    # Random scenarios whose bodies plant nav->exists(v | v = e) or e = v,
    # with e any B-typed expression, nested in every other generated shape.
    rng = random.Random(23)
    looked_up = errors = 0
    for _ in range(300):
        model = make_random_model(rng)
        model, objects = add_pick_role(rng, model, make_random_objects(rng, model))
        ast = gen_member_constraint(rng)
        looked_up += bool(_set_lookups(resolve(ast, model), objects))
        errors += assert_matches_reference(ast, model, objects).overall is VerdictKind.ERROR
    assert 0 < looked_up < 300 and 0 < errors < 300


# -- slot reads --

def _slot_scenario(cls, attr, value):
    """_member_scenario's model over a0, a1, b0 and b1, with ak linked to bk by
    items and by pick. Every slot but A.d1 holds a truthy value, except attr
    of the second object of cls, which holds value, or is missing for None."""
    model, _ = _member_scenario()
    items, pick = model.associations
    truthy = {"A": {"i1": 1, "s1": "s", "b1": True}, "B": {"i2": 1, "r2": 0.5, "s2": "s"}}
    a0, a1, b0, b1 = (
        ObjectInstance(f"{c.lower()}{k}", model.class_named(c), dict(truthy[c]))
        for c in "AB" for k in range(2))
    held = (a1 if cls == "A" else b1).slots
    if value is None:
        del held[attr]
    else:
        held[attr] = value
    links = (("l0", items, a0, b0), ("l1", items, a1, b1), ("p0", pick, a0, b0), ("p1", pick, a1, b1))
    return model, ObjectModel("slots", (a0, a1, b0, b1), links)


# Per class: a to-many role from it, and a to-many and a to-one role toward it.
SLOT_ROLES = {"A": ("items", "pickedBy", "owner"), "B": ("pickedBy", "items", "pick")}

# A falsy value of each int, real, str and bool attribute, as a literal.
FALSY_SLOTS = [
    ("A", "i1", 0, "0"), ("A", "s1", "", "''"), ("A", "b1", False, "false"),
    ("B", "i2", 0, "0"), ("B", "r2", 0.0, "0.0"), ("B", "s2", "", "''"),
]


@pytest.mark.parametrize("cls, attr, value, literal", FALSY_SLOTS)
def test_falsy_and_missing_slots_match_reference(cls, attr, value, literal):
    read, other = f"{attr} = {literal}", "B" if cls == "A" else "A"
    many, others, one = SLOT_ROLES[cls]
    positions = [
        (cls, f"self.{read}"),  # through self
        (other, f"self.{others}->exists(x | x.{read})"),  # through an iterator variable
        # inside an iterator's source, through an iterator variable and through self
        (other, f"self.{others}->select(x | x.{read})->forAll(y | y.{read})"),
        (cls, f"self.{many}->select(x | self.{read})->forAll(y | true)"),
        (other, f"self.{one}.{read}"),  # through a to-one navigation
    ]
    missing = f"object '{cls.lower()}1' has no value for attribute '{attr}'"
    for held, message in ((value, None), (None, missing)):
        model, objects = _slot_scenario(cls, attr, held)
        for context, body in positions:
            verdict = assert_matches_reference(
                parse_constraint(f"context {context} inv s: {body}"), model, objects)
            assert verdict.error_message == message, body


def test_a_slot_read_evaluates_a_source_that_is_not_a_name_once(built_model):
    class CountingSlots(dict):
        def get(self, *args):
            self.gets += 1
            return super().get(*args)

    slots = CountingSlots(pages=0)
    slots.gets = 0
    # S_0 = self and S_(k+1) = (if S_k.pages = 0 then self else self endif): a
    # source read twice would double the reads, and the generated code, at each
    # level, so n is kept small enough for that to fail quickly.
    n, source = 12, "self"
    for _ in range(n):
        source = f"(if {source}.pages = 0 then self else self endif)"
    book = ObjectInstance("b", built_model.class_named("Book"), slots)
    verdict = run(built_model, ObjectModel("m", (book,)), f"context Book inv v: {source}.pages = 0")
    assert verdict.per_instance == (("b", True),)
    assert slots.gets <= 2 * (n + 1)


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


def test_evaluate_all_survives_a_slot_of_the_wrong_type(built_model):
    # An object model that was never validated: Book.pages holds a str, so
    # comparing it raises TypeError, and only its own constraint is an Error.
    book = built_model.class_named("Book")
    constraints = (
        ConstraintDef("pages", book, "context Book inv p: self.pages > 0"),
        ConstraintDef("title", book, "context Book inv t: self.title <> ''"),
    )
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, constraints
    )
    report = evaluate_all(model, build_library_objects(model, pages="abc"))
    pages, title = (result.verdict for result in report.results)
    assert pages.overall is VerdictKind.ERROR
    assert pages.error_message == (
        "Exception Occured! Info: '>' not supported between instances of 'str' and 'int'")
    assert title.overall is VerdictKind.TRUE


def test_evaluate_all_survives_an_object_without_slots(built_model, built_objects):
    # An object model that was never validated: book_obj's slots are None, so
    # reading one raises AttributeError, and only the constraints that read
    # one of its slots are Errors.
    book = built_model.class_named("Book")
    constraints = (
        ConstraintDef("pages", book, "context Book inv p: self.pages > 0"),
        ConstraintDef("shelved", book,
                      "context Book inv s: self.locatedIn.contains->exists(b | b = self)"),
        ConstraintDef("named", built_model.class_named("Library"),
                      "context Library inv n: self.name <> ''"),
    )
    model = StructuralModel(
        built_model.name, built_model.classes, built_model.associations, constraints
    )
    bare = {obj.name: obj for obj in built_objects.objects}
    bare["book_obj"] = ObjectInstance("book_obj", book, None)
    links = tuple((name, assoc, bare[end1.name], bare[end2.name])
                  for name, assoc, end1, end2 in built_objects.links)
    report = evaluate_all(model, ObjectModel("bare", tuple(bare.values()), links))
    pages, shelved, named = (result.verdict for result in report.results)
    assert pages.overall is VerdictKind.ERROR
    assert pages.error_message == (
        "Exception Occured! Info: 'NoneType' object has no attribute 'get'")
    assert shelved.overall is VerdictKind.TRUE
    assert named.overall is VerdictKind.TRUE


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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced; without -s they appear in captured output.
"""

import json
import random
import time
from contextlib import contextmanager

from bocl.ast import (
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
    InfixOperator,
    IntegerLiteralExp,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    SelfExp,
    Stereotype,
    UnaryExp,
    UnaryOperator,
    pretty_print,
)
from bocl.cli import main
from bocl.evaluator import VerdictKind, evaluate_constraint
from bocl.lexer import ParseError, tokenize
from bocl.model import ObjectModel
from bocl.parser import parse_constraint
from bocl.resolver import resolve

from conftest import build_library_objects
from generators import (
    gen_syntactic_constraint,
    gen_total_predicate,
    gen_typed_constraint,
    make_random_model,
    make_random_objects,
)
from reference_eval import reference_verdict

CONSTRAINT_2 = (
    "context Library inv Constraint2: if self.name = 'Children Library' then "
    "self.contains->forAll(i_book : Book | i_book.pages <= 100) else true endif"
)
CONSTRAINT_2_TRAP_ELSE = (
    "context Library inv Constraint2: if self.name = 'Children Library' then "
    "self.contains->forAll(i_book : Book | i_book.pages <= 100) else 1/0 = 1 endif"
)

EXPECTED_EVAL_LINES = [
    "Invariant:context Book inv pageNumberInv: self.pages>0:True",
    "Invariant:context Library inv atLeastOneSmallBook: "
    "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0:True",
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def test_criterion_1_golden_corpus(model_path, objects_path, capsys):
    with criterion(1, "golden corpus evaluates to the expected verdicts"):
        started = time.monotonic()
        code = main(["eval", str(model_path), str(objects_path)])
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == EXPECTED_EVAL_LINES
        assert elapsed < 1.0


def test_criterion_2_if_then_else_paths(built_model):
    with criterion(2, "if/then/else selects and isolates branches"):
        started = time.monotonic()
        objects = build_library_objects(built_model)

        typed = resolve(parse_constraint(CONSTRAINT_2), built_model)
        assert evaluate_constraint(typed, objects).overall is VerdictKind.TRUE

        # Renaming the library steers evaluation into the else branch.
        other = _with_library_name(built_model, "Main Library")
        assert evaluate_constraint(typed, other).overall is VerdictKind.TRUE

        # A division by zero in the UNtaken else branch must not raise.
        trap = resolve(parse_constraint(CONSTRAINT_2_TRAP_ELSE), built_model)
        assert evaluate_constraint(trap, objects).overall is VerdictKind.TRUE
        # ...and once the else branch is taken, it genuinely evaluates.
        assert evaluate_constraint(trap, other).overall is VerdictKind.ERROR

        assert time.monotonic() - started < 1.0


def _with_library_name(model, new_name):
    from bocl.model import ObjectInstance

    base = build_library_objects(model)
    replaced = []
    for obj in base.objects:
        if obj.name == "library_obj":
            slots = dict(obj.slots)
            slots["name"] = new_name
            obj = ObjectInstance(obj.name, obj.classifier, slots)
        replaced.append(obj)
    by_name = {o.name: o for o in replaced}
    links = tuple(
        (name, assoc, by_name[end1.name], by_name[end2.name])
        for name, assoc, end1, end2 in base.links
    )
    return ObjectModel(base.name, tuple(replaced), links)


def test_criterion_3_sensitivity(tmp_path, model_path, objects_doc, capsys):
    with criterion(3, "mutated page counts flip the expected verdicts"):
        def eval_with_pages(pages):
            doc = json.loads(json.dumps(objects_doc))
            for obj in doc["objects"]:
                if obj["name"] == "book_obj":
                    obj["slots"]["pages"] = pages
            path = tmp_path / f"objects_{pages}.json"
            path.write_text(json.dumps(doc))
            code = main(["eval", str(model_path), str(path)])
            return code, capsys.readouterr().out

        code, out = eval_with_pages(0)
        assert code == 1
        assert "Invariant:context Book inv pageNumberInv: self.pages>0:False" in out

        code, out = eval_with_pages(120)
        assert "atLeastOneSmallBook" in out
        false_lines = [l for l in out.splitlines() if l.endswith(":False")]
        assert len(false_lines) == 1 and "atLeastOneSmallBook" in false_lines[0]
        assert code == 1  # pageNumberInv still True, no errors


def test_criterion_4_parser_properties():
    with criterion(4, "1000 print/parse round-trips and 10000-string fuzz"):
        rng = random.Random(94)
        failures = 0
        for _ in range(1000):
            ast = gen_syntactic_constraint(rng, max_depth=5)
            printed = pretty_print(ast)
            if parse_constraint(printed) != ast:
                failures += 1
        assert failures == 0

        fuzz = random.Random(1974)
        for _ in range(10_000):
            raw = fuzz.randbytes(fuzz.randint(0, 60))
            try:
                tokenize(raw.decode("latin-1"))
            except ParseError:
                pass  # the only permitted failure mode
        # Reaching this point means no crash/abort occurred.


_ERROR_KINDS = (
    ("has no value for attribute", "MissingSlot"),
    ("division by zero", "DivisionByZero"),
    ("no object linked via", "NavigationEmpty"),
)


def _error_kind(message):
    for marker, kind in _ERROR_KINDS:
        if marker in message:
            return kind
    return message


def test_criterion_5_oracle_equivalence():
    with criterion(5, "500 random scenarios match the brute-force oracle"):
        started = time.monotonic()
        rng = random.Random(955)
        mismatches = 0
        for _ in range(500):
            model = make_random_model(rng)
            objects = make_random_objects(rng, model)
            ast = gen_typed_constraint(rng, max_depth=4)
            # Exercise the full pipeline: print, reparse, resolve, evaluate.
            reparsed = parse_constraint(pretty_print(ast))
            assert reparsed == ast
            mine = evaluate_constraint(resolve(reparsed, model), objects)
            ref = reference_verdict(ast, model, objects)
            same = (
                mine.overall.value == ref.overall
                and mine.per_instance == ref.per_instance
                and all(type(holds) is bool for _, holds in mine.per_instance)
            )
            if same and mine.overall is VerdictKind.ERROR:
                same = _error_kind(mine.error_message) == ref.error_kind
            if not same:
                mismatches += 1
        assert mismatches == 0
        assert time.monotonic() - started < 30.0


def _items():
    return PropertyExp(SelfExp(), "items")


def test_criterion_6_algebraic_laws():
    with criterion(6, "partition, duality, and empty-collection laws"):
        rng = random.Random(96)

        for _ in range(200):
            model = make_random_model(rng)
            objects = make_random_objects(rng, model, fill_all_slots=True)
            pred = gen_total_predicate(rng, "v", depth=2)
            partition = OperationCallExp(
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
            ast = ConstraintAst("A", Stereotype.INV, "partition", partition)
            assert evaluate_constraint(resolve(ast, model), objects).overall is VerdictKind.TRUE

        for _ in range(200):
            model = make_random_model(rng)
            objects = make_random_objects(rng, model, fill_all_slots=True)
            pred = gen_total_predicate(rng, "v", depth=2)
            duality = OperationCallExp(
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
            ast = ConstraintAst("A", Stereotype.INV, "duality", duality)
            assert evaluate_constraint(resolve(ast, model), objects).overall is VerdictKind.TRUE

        for _ in range(200):
            model = make_random_model(rng)
            base = make_random_objects(rng, model, fill_all_slots=True)
            objects = ObjectModel(base.name, base.objects, ())  # no links at all
            pred = gen_total_predicate(rng, "v", depth=2)
            conventions = [
                IteratorExp(_items(), IteratorKind.FOR_ALL, "v", None, pred),
                UnaryExp(
                    UnaryOperator.NOT,
                    IteratorExp(_items(), IteratorKind.EXISTS, "v", None, pred),
                ),
                OperationCallExp(
                    InfixOperator.EQ,
                    CollectionOpExp(_items(), CollectionOp.SIZE),
                    IntegerLiteralExp(0),
                ),
                CollectionOpExp(
                    IteratorExp(_items(), IteratorKind.SELECT, "v", None, pred),
                    CollectionOp.IS_EMPTY,
                ),
                CollectionOpExp(
                    IteratorExp(_items(), IteratorKind.REJECT, "v", None, pred),
                    CollectionOp.IS_EMPTY,
                ),
            ]
            for body in conventions:
                ast = ConstraintAst("A", Stereotype.INV, "empty", body)
                verdict = evaluate_constraint(resolve(ast, model), objects)
                assert verdict.overall is VerdictKind.TRUE


def test_criterion_7_out_of_scope_stereotypes(tmp_path, model_doc, objects_path, capsys):
    with criterion(7, "pre/post/derive/init/def rejected, never evaluated"):
        for stereotype in ("pre", "post", "derive", "init", "def"):
            doc = json.loads(json.dumps(model_doc))
            doc["constraints"][0]["expression"] = (
                f"context Book {stereotype} nope: self.pages > 0"
            )
            path = tmp_path / f"{stereotype}.json"
            path.write_text(json.dumps(doc))

            code = main(["eval", str(path), str(objects_path)])
            captured = capsys.readouterr()
            assert code == 2
            first_line = captured.out.splitlines()[0]
            assert "unsupported stereotype" in first_line
            # Never evaluated: the verdict is Error, not True/False.
            assert not first_line.endswith(":True")
            assert not first_line.endswith(":False")

            code = main(["check", str(path)])
            captured = capsys.readouterr()
            assert code == 2
            assert "unsupported stereotype" in captured.err

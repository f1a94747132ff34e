"""Seeded inputs for the benchmark workloads, with their expected answers.

Each generator plants its own False, Error and check-failure cases, so the
expected verdict of every constraint, and the instances it fails on, are
known by construction at any size, without running bocl. The same
(workload, seed, scale) always yields the same documents.

Sizes are for scale 1. A scale multiplies the object (eval) or constraint
(check) counts; the planted cases scale with them.
"""

from __future__ import annotations

import dataclasses
import datetime
import random
import re
from dataclasses import dataclass, field

import generators  # tests/generators.py, imported as it is

from bocl.ast import Expr, pretty_print

MODEL_SCHEMA = "bocl-model/1"
OBJECTS_SCHEMA = "bocl-objects/1"


@dataclass
class Expected:
    """The known answer for one constraint.

    For eval, ``status`` is the verdict ("True", "False" or "Error") and
    ``detail`` the error message. For check, ``status`` is "OK", "syntax"
    or "type" and ``detail`` a text the type diagnostic must contain.
    """

    name: str
    expression: str
    status: str
    per_instance: list[tuple[str, bool]] = field(default_factory=list)
    detail: str | None = None


@dataclass
class Workload:
    name: str
    command: str  # "eval" or "check"
    report_format: str | None  # "text" or "json" for eval
    model_doc: dict
    objects_doc: dict | None
    expected: list[Expected]
    warnings: list[str]  # expected multiplicity warnings, in stderr order


def _scaled(base: int, scale: float, minimum: int) -> int:
    return max(minimum, round(base * scale))


def _width(count: int) -> int:
    return max(4, len(str(count - 1)))


def _mult(lower: int, upper: int | None) -> dict:
    return {"lower": lower, "upper": "*" if upper is None else upper}


def _constraint(name: str, context: str, body: str) -> dict:
    return {"name": name, "context": context, "expression": f"context {context} inv {name}: {body}"}


# ---------- The Library model (eval workloads) ----------

_LIBRARY_CLASSES = [
    {"name": "Library", "attributes": [
        {"name": "name", "type": "str"}, {"name": "address", "type": "str"}]},
    {"name": "Book", "attributes": [
        {"name": "title", "type": "str"}, {"name": "pages", "type": "int"},
        {"name": "price", "type": "real"}, {"name": "inPrint", "type": "bool"},
        {"name": "copies", "type": "int"}, {"name": "release", "type": "date"},
        {"name": "acquired", "type": "date"}]},
    {"name": "Author", "attributes": [
        {"name": "name", "type": "str"}, {"name": "email", "type": "str"}]},
]

_WORDS = ["Colors", "River", "Atlas", "Night", "Garden", "Stone", "Signal", "Winter",
          "Harbor", "Copper", "Echo", "Lantern", "Orbit", "Meadow", "Cipher", "Tide"]


def _library_model(name: str, located_in: dict, written_by: dict, constraints: list) -> dict:
    return {
        "schemaVersion": MODEL_SCHEMA,
        "name": name,
        "classes": _LIBRARY_CLASSES,
        "associations": [
            {"name": "lib_book_assoc", "ends": [
                {"role": "locatedIn", "target": "Library", "multiplicity": located_in},
                {"role": "contains", "target": "Book", "multiplicity": _mult(0, None)}]},
            {"name": "book_author_assoc", "ends": [
                {"role": "writedBy", "target": "Author", "multiplicity": written_by},
                {"role": "publishes", "target": "Book", "multiplicity": _mult(0, None)}]},
        ],
        "constraints": constraints,
    }


def _link(assoc: str, ends: list[tuple[str, str]]) -> dict:
    return {"association": assoc, "ends": [{"role": r, "object": o} for r, o in ends]}


def _date(rng: random.Random) -> datetime.date:
    return datetime.date(1950, 1, 1) + datetime.timedelta(days=rng.randrange(25000))


def _missing_slot(obj: str, attr: str) -> str:
    return f"Exception Occured! Info: object '{obj}' has no value for attribute '{attr}'"


# ---------- eval-wide ----------

# Attribute-only invariants over Book: int, real, str, bool and date
# comparisons, arithmetic, '/', if, and, or, not. Index k is the invariant a
# book planted with violation k breaks; no value chosen for one violation
# breaks another invariant.
_WIDE_INVARIANTS = [
    ("pagesInRange", "self.pages > 0 and self.pages <= 2000"),
    ("pricePerPage", "self.price / self.pages < 0.5"),
    ("hasTitle", "self.title <> '' and not (self.title = 'untitled')"),
    ("acquiredAfterRelease", "self.release <= self.acquired"),
    ("stocked", "if self.inPrint then self.copies > 0 else self.copies >= 0 endif"),
    ("discountable", "self.inPrint or self.price * 2 - self.copies >= 0"),
]
# The last book by name lacks this slot, so its invariant reads True/False
# for every other book and then ends in Error.
_WIDE_ERROR_INVARIANT = 3
_WIDE_ERROR_SLOT = "acquired"


def _wide_book(rng: random.Random, violate: int | None) -> dict:
    pages = rng.randint(2001, 4000) if violate == 0 else rng.randint(10, 1500)
    # price/pages stays <= 0.4 + 0.005/10 when kept, >= 0.6 - 0.005/10 when broken.
    ratio = rng.uniform(0.6, 2.0) if violate == 1 else rng.uniform(0.01, 0.4)
    price = round(pages * ratio, 2)
    if violate == 2:
        title = rng.choice(["", "untitled"])
    else:
        title = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
    release = _date(rng)
    if violate == 3:
        acquired = release - datetime.timedelta(days=rng.randint(1, 900))
    else:
        acquired = release + datetime.timedelta(days=rng.randint(0, 3000))
    if violate == 4:
        in_print, copies = True, 0
    elif violate == 5:
        in_print, copies = False, int(price * 2) + rng.randint(1, 5)
    else:
        in_print = rng.random() < 0.7
        copies = rng.randint(1, 20) if in_print else rng.randint(0, min(20, int(price * 2)))
    return {"title": title, "pages": pages, "price": price, "inPrint": in_print,
            "copies": copies, "release": release.isoformat(), "acquired": acquired.isoformat()}


def eval_wide(seed: int, scale: float) -> Workload:
    rng = random.Random(seed * 1_000_003 + 1)
    n_books = _scaled(5000, scale, 20)
    width = _width(n_books)
    names = [f"book_{i:0{width}d}" for i in range(n_books)]
    # About 1% of books break one invariant each, every invariant at least once.
    planted = rng.sample(range(n_books - 1), max(len(_WIDE_INVARIANTS), n_books // 100))
    violation = {book: k % len(_WIDE_INVARIANTS) for k, book in enumerate(planted)}

    objects = []
    for i, name in enumerate(names):
        slots = _wide_book(rng, violation.get(i))
        if i == n_books - 1:
            del slots[_WIDE_ERROR_SLOT]
        objects.append({"name": name, "class": "Book", "slots": slots})
    for i in range(3):
        objects.append({"name": f"lib_{i}", "class": "Library",
                        "slots": {"name": f"Library {i}", "address": f"Street {i + 1}"}})
    for i in range(2):
        objects.append({"name": f"auth_{i}", "class": "Author",
                        "slots": {"name": f"Author {i}", "email": f"a{i}@example.org"}})
    # A constant handful of links, whatever the scale: navigation stays idle.
    links = [_link("lib_book_assoc", [("locatedIn", f"lib_{i % 3}"), ("contains", names[i])])
             for i in range(4)]
    links += [_link("book_author_assoc", [("writedBy", f"auth_{i % 2}"), ("publishes", names[i])])
              for i in range(2)]

    constraints = [_constraint(n, "Book", body) for n, body in _WIDE_INVARIANTS]
    expected = []
    for k, con in enumerate(constraints):
        checked = names[:-1] if k == _WIDE_ERROR_INVARIANT else names
        per = [(name, violation.get(i) != k) for i, name in enumerate(checked)]
        if k == _WIDE_ERROR_INVARIANT:
            exp = Expected(con["name"], con["expression"], "Error", per,
                           _missing_slot(names[-1], _WIDE_ERROR_SLOT))
        else:
            exp = Expected(con["name"], con["expression"],
                           "True" if all(h for _, h in per) else "False", per)
        expected.append(exp)

    model = _library_model("eval-wide", _mult(0, 1), _mult(0, None), constraints)
    doc = {"schemaVersion": OBJECTS_SCHEMA, "name": "eval-wide", "objects": objects, "links": links}
    return Workload("eval-wide", "eval", "json", model, doc, expected, [])


# ---------- eval-linked ----------

_LINKED_INVARIANTS = [
    ("Library", "hasSmallBook", "self.contains->select(b : Book | b.pages <= 110)->size() > 0"),
    ("Book", "authorsReachable", "self.writedBy->forAll(a | a.email <> '' and a.name <> '')"),
    ("Author", "publishesSomething", "self.publishes->exists(b | b.pages > 0)"),
    ("Book", "coauthorLoad", "self.writedBy->collect(a | a.publishes)->size() <= 20"),
    ("Book", "shelvedWhereListed", "self.locatedIn.contains->exists(b | b = self)"),
    ("Library", "addressed",
     "if self.contains->isEmpty() then true else self.address <> '' endif"),
]
# Normal authors write at most _NORMAL_CAP books, so a book's (at most 3)
# authors publish at most 18 books together: coauthorLoad holds. A prolific
# author writes more than 20 books, so each of them breaks it.
_NORMAL_CAP = 6
_PROLIFIC_BOOKS = (21, 30)


def eval_linked(seed: int, scale: float) -> Workload:
    rng = random.Random(seed * 1_000_003 + 2)
    n_books = _scaled(700, scale, 30)
    n_libs = _scaled(20, scale, 3)
    n_authors = _scaled(200, scale, 12)
    books = [f"book_{i:0{_width(n_books)}d}" for i in range(n_books)]
    libs = [f"lib_{i:0{_width(n_libs)}d}" for i in range(n_libs)]
    authors = [f"auth_{i:0{_width(n_authors)}d}" for i in range(n_authors)]

    def pick(pool: list[str], share: float) -> list[str]:
        return rng.sample(pool, max(1, round(len(pool) * share)))

    no_small = set(pick(libs, 0.1))
    no_address = set(pick(libs, 0.1))
    idle, rest = _split(rng, authors, max(1, round(n_authors * 0.015)))
    prolific, normal = _split(rng, rest, max(1, round(n_authors * 0.01)))
    no_email = set(pick(normal, 0.02))

    # Every library holds at least one book; one small book per library
    # unless the library is planted without one.
    shelf = {book: libs[i] if i < n_libs else rng.choice(libs) for i, book in enumerate(books)}
    small = set()
    for lib in libs:
        if lib not in no_small:
            small.add(rng.choice([b for b in books if shelf[b] == lib]))

    # 1-2 authors per book; a few books get 3, breaking writedBy's 1..2.
    three = set(pick(books, 0.004))
    wanted = {b: 3 if b in three else (1 if rng.random() < 0.6 else 2) for b in books}
    written: dict[str, list[str]] = {b: [] for b in books}
    for author in sorted(prolific):
        for book in rng.sample(books, rng.randint(*_PROLIFIC_BOOKS)):
            written[book].append(author)
    cycle = normal[:]
    rng.shuffle(cycle)
    turn = 0
    for book in books:
        while len(written[book]) < wanted[book]:
            author = cycle[turn % len(cycle)]
            turn += 1
            if author not in written[book]:
                written[book].append(author)
    load = {a: 0 for a in authors}
    for book in books:
        for author in written[book]:
            load[author] += 1
    if max(load[a] for a in normal) > _NORMAL_CAP or min(load[a] for a in normal) < 1:
        raise AssertionError("eval-linked: author load outside its planted range")
    # Prolific authors can push a book past its planned count, so read it back.
    over = sorted(b for b in books if len(written[b]) > 2)

    objects = []
    for book in books:
        pages = rng.randint(20, 110) if book in small else rng.randint(111, 900)
        slots = _wide_book(rng, None)
        slots["pages"] = pages
        objects.append({"name": book, "class": "Book", "slots": slots})
    for lib in libs:
        objects.append({"name": lib, "class": "Library", "slots": {
            "name": f"Library {lib}", "address": "" if lib in no_address else f"{lib} Street"}})
    for author in authors:
        objects.append({"name": author, "class": "Author", "slots": {
            "name": f"Writer {author}", "email": "" if author in no_email else f"{author}@example.org"}})
    links = [_link("lib_book_assoc", [("locatedIn", shelf[b]), ("contains", b)]) for b in books]
    links += [_link("book_author_assoc", [("writedBy", a), ("publishes", b)])
              for b in books for a in written[b]]
    rng.shuffle(links)

    truth = {
        "hasSmallBook": (libs, lambda o: o not in no_small),
        "authorsReachable": (books, lambda o: not no_email.intersection(written[o])),
        "publishesSomething": (authors, lambda o: o not in idle),
        "coauthorLoad": (books, lambda o: not prolific.intersection(written[o])),
        "shelvedWhereListed": (books, lambda o: True),
        "addressed": (libs, lambda o: o not in no_address),
    }
    constraints = [_constraint(n, ctx, body) for ctx, n, body in _LINKED_INVARIANTS]
    expected = []
    for con in constraints:
        instances, holds = truth[con["name"]]
        per = [(o, holds(o)) for o in sorted(instances)]
        expected.append(Expected(con["name"], con["expression"],
                                 "True" if all(h for _, h in per) else "False", per))
    warnings = [f"warning: objects[{b}]: {len(written[b])} object(s) linked via 'writedBy', "
                "multiplicity is 1..2" for b in over]

    model = _library_model("eval-linked", _mult(1, 1), _mult(1, 2), constraints)
    doc = {"schemaVersion": OBJECTS_SCHEMA, "name": "eval-linked", "objects": objects, "links": links}
    return Workload("eval-linked", "eval", "text", model, doc, expected, warnings)


def _split(rng: random.Random, pool: list[str], count: int) -> tuple[set[str], list[str]]:
    chosen = set(rng.sample(pool, count))
    return chosen, [x for x in pool if x not in chosen]


# ---------- check-many ----------

_CHECK_COPIES = 50  # copies of the generators' two-class scenario: 100 classes
_NODES = (10, 60)
_ANNOTATION_RE = re.compile(r"(?<=: )([AB])(?= \|)")


def count_nodes(expr: Expr) -> int:
    """Number of expression nodes in an untyped tree."""
    total = 1
    for f in dataclasses.fields(expr):
        child = getattr(expr, f.name)
        if isinstance(child, Expr):
            total += count_nodes(child)
    return total


def _copy_name(cls: str, k: int) -> str:
    return f"{cls}{k:02d}"


def check_many(seed: int, scale: float) -> Workload:
    rng = random.Random(seed * 1_000_003 + 3)
    template = generators.make_random_model(rng)
    classes, associations = [], []
    for k in range(_CHECK_COPIES):
        for cls in template.classes:
            classes.append({"name": _copy_name(cls.name, k), "attributes": [
                {"name": a.name, "type": a.type.value} for a in cls.attributes]})
        for assoc in template.associations:
            associations.append({"name": f"{assoc.name}{k:02d}", "ends": [
                {"role": end.role, "target": _copy_name(end.target.name, k),
                 "multiplicity": _mult(end.multiplicity.lower, end.multiplicity.upper)}
                for end in assoc.ends()]})
        # A ring over the A copies: more roles for every lookup to scan.
        associations.append({"name": f"ring{k:02d}", "ends": [
            {"role": "pred", "target": _copy_name("A", k), "multiplicity": _mult(0, 1)},
            {"role": "succ", "target": _copy_name("A", (k + 1) % _CHECK_COPIES),
             "multiplicity": _mult(0, 1)}]})

    n_constraints = _scaled(1000, scale, 20)
    planted = rng.sample(range(n_constraints), max(2, n_constraints // 100))
    failure = {index: ("syntax", "type")[k % 2] for k, index in enumerate(planted)}
    constraints, expected = [], []
    for i in range(n_constraints):
        # A size-biased draw from the test generator, kept to 10-60 nodes.
        while True:
            ast = generators.gen_typed_constraint(rng, max_depth=rng.choice([6, 7, 8]))
            nodes = count_nodes(ast.body)
            if _NODES[0] <= nodes <= _NODES[1] and rng.random() < nodes / _NODES[1]:
                break
        k = rng.randrange(_CHECK_COPIES)
        context = _copy_name(ast.context_class_name, k)
        body = _ANNOTATION_RE.sub(lambda m: _copy_name(m.group(1), k), pretty_print(ast.body))
        name = f"c{i:04d}"
        status, detail = failure.get(i, "OK"), None
        if status == "syntax":
            body = f"({body}))"
        elif status == "type":
            missing = f"missing{i}"
            body = f"({body}) and self.{missing} > 0"
            detail = f"class '{context}' has no attribute or association role '{missing}'"
        con = _constraint(name, context, body)
        constraints.append(con)
        expected.append(Expected(name, con["expression"], status, [], detail))

    model = {"schemaVersion": MODEL_SCHEMA, "name": "check-many", "classes": classes,
             "associations": associations, "constraints": constraints}
    return Workload("check-many", "check", None, model, None, expected, [])


GENERATORS = {"eval-wide": eval_wide, "eval-linked": eval_linked, "check-many": check_many}

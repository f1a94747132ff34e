import dataclasses
import datetime
import math
import random
import time

import pytest

from bocl.model import (
    AssociationEnd,
    Attribute,
    BinaryAssociation,
    ClassDef,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    PrimitiveType,
    Severity,
    StructuralModel,
    UnknownRoleError,
    instances_of,
    navigate,
    validate_conformance,
    validate_structural,
)
from bocl.model_io import structural_from_document

from generators import make_random_model, make_random_objects
from reference_eval import RefEvalError, _linked_objects


def test_library_model_is_valid(built_model):
    assert validate_structural(built_model) == []


def test_duplicate_class_name_is_one_diagnostic():
    model = StructuralModel("m", (ClassDef("Book"), ClassDef("Book")))
    diags = validate_structural(model)
    assert len(diags) == 1
    assert "duplicate class name" in diags[0].message
    assert diags[0].severity is Severity.ERROR


def test_multiplicity_lower_above_upper():
    cls = ClassDef("C")
    assoc = BinaryAssociation(
        "a",
        AssociationEnd("x", cls, Multiplicity(2, 1)),
        AssociationEnd("y", cls, Multiplicity(0, None)),
    )
    diags = validate_structural(StructuralModel("m", (cls,), (assoc,)))
    assert any("lower > upper" in d.message for d in diags)


def test_end_target_must_be_in_model():
    inside = ClassDef("In")
    outside = ClassDef("Out")
    assoc = BinaryAssociation(
        "a",
        AssociationEnd("x", inside, Multiplicity(0, 1)),
        AssociationEnd("y", outside, Multiplicity(0, 1)),
    )
    diags = validate_structural(StructuralModel("m", (inside,), (assoc,)))
    assert any("not a model class" in d.message for d in diags)


def test_ambiguous_role_names_flagged():
    a = ClassDef("A")
    b = ClassDef("B")
    mult = Multiplicity(0, None)
    assoc1 = BinaryAssociation(
        "one", AssociationEnd("r", b, mult), AssociationEnd("back1", a, mult)
    )
    assoc2 = BinaryAssociation(
        "two", AssociationEnd("r", b, mult), AssociationEnd("back2", a, mult)
    )
    diags = validate_structural(StructuralModel("m", (a, b), (assoc1, assoc2)))
    assert any("ambiguous" in d.message for d in diags)


def test_ambiguous_roles_are_reported_by_class_then_association():
    # Role r repeats from A in association z and from B in y; the copy of B
    # repeats the report from B; the self-association x, whose two ends share
    # a role, is ambiguous from C. In association order, x would come first.
    a, b, b_copy, c = ClassDef("A"), ClassDef("B"), ClassDef("B"), ClassDef("C")

    def assoc(name, role1, role2, target2):
        mult = Multiplicity(0, None)
        return BinaryAssociation(name, AssociationEnd(role1, c, mult),
                                 AssociationEnd(role2, target2, mult))

    model = StructuralModel("m", (c, b_copy, b, a), (
        assoc("z", "r", "s", a), assoc("y", "r", "t", b), assoc("w", "r", "u", a),
        assoc("v", "r", "q", b), assoc("x", "self", "self", c),
    ))
    ambiguous = "error: associations[{}]: role '{}' is ambiguous when navigating from class '{}'"
    assert [str(d) for d in validate_structural(model)] == [
        "error: classes[B]: duplicate class name 'B'",
        ambiguous.format("z", "r", "A"),
        ambiguous.format("y", "r", "B"),
        ambiguous.format("y", "r", "B"),
        ambiguous.format("x", "self", "C"),
    ]


def test_structural_loading_is_linear_in_classes_and_associations():
    # 4000 classes on a ring of 4000 associations, one constraint each: a
    # role check that pairs every class with every association takes seconds.
    n = 4000
    doc = {
        "schemaVersion": "bocl-model/1",
        "name": "ring",
        "classes": [{"name": f"C{i}", "attributes": [{"name": "x", "type": "int"}]}
                    for i in range(n)],
        "associations": [
            {"name": f"a{i}", "ends": [
                {"role": f"next{i}", "target": f"C{(i + 1) % n}",
                 "multiplicity": {"lower": 0, "upper": "*"}},
                {"role": f"prev{i}", "target": f"C{i}", "multiplicity": {"lower": 0, "upper": 1}},
            ]}
            for i in range(n)
        ],
        "constraints": [{"name": f"k{i}", "context": f"C{i}", "expression": "context C inv: true"}
                        for i in range(n)],
    }
    start = time.perf_counter()
    model = structural_from_document(doc)
    assert validate_structural(model) == []
    assert time.perf_counter() - start < 2.0
    assert len(model.navigable_ends(model.class_named("C7"))) == 2


def test_non_identifier_names_flagged():
    model = StructuralModel("m", (ClassDef("Author Object"),))
    diags = validate_structural(model)
    assert any("not an identifier" in d.message for d in diags)


def test_diagnostics_paths_name_real_elements(built_model):
    bad = StructuralModel(
        "m",
        built_model.classes + (ClassDef("Book"),),
        built_model.associations,
        built_model.constraints,
    )
    for diag in validate_structural(bad):
        assert diag.path.startswith(("classes[", "associations[", "constraints["))


# -- conformance --

def test_library_objects_conform(built_model, built_objects):
    assert validate_conformance(built_objects, built_model) == []


def test_empty_object_model_conforms_vacuously(built_model):
    assert validate_conformance(ObjectModel("empty"), built_model) == []


def test_slot_type_mismatch(built_model):
    book = built_model.class_named("Book")
    obj = ObjectInstance("book_obj", book, {"pages": "twenty"})
    diags = validate_conformance(ObjectModel("m", (obj,)), built_model)
    assert [d.message for d in diags] == [
        "slot type mismatch: attribute 'pages' is int, value 'twenty' is not"
    ]
    assert all(d.severity is Severity.ERROR for d in diags)


def test_unknown_slot_name(built_model):
    book = built_model.class_named("Book")
    obj = ObjectInstance("b", book, {"pag": 1})
    diags = validate_conformance(ObjectModel("m", (obj,)), built_model)
    assert any("no attribute" in d.message for d in diags)


def test_unknown_classifier(built_model):
    obj = ObjectInstance("m1", ClassDef("Magazine"), {})
    diags = validate_conformance(ObjectModel("m", (obj,)), built_model)
    assert any("unknown class" in d.message for d in diags)


def test_zero_links_on_star_end_is_fine(built_model):
    library = built_model.class_named("Library")
    obj = ObjectInstance(
        "lib",
        library,
        {
            "name": "x",
            "address": "y",
        },
    )
    diags = validate_conformance(ObjectModel("m", (obj,)), built_model)
    # contains is 0..*, so no warning for it; Library has no mandatory ends.
    assert diags == []


def test_missing_mandatory_link_is_warning_only(built_model):
    book = built_model.class_named("Book")
    obj = ObjectInstance("lonely", book, {"pages": 5})
    diags = validate_conformance(ObjectModel("m", (obj,)), built_model)
    # writedBy is 1..* and locatedIn is 1..1: two count violations, warnings only.
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 2
    assert all(d.severity is Severity.WARNING for d in diags)


def test_link_end_class_mismatch(built_model):
    lib_book = next(a for a in built_model.associations if a.name == "lib_book_assoc")
    author = built_model.class_named("Author")
    book = built_model.class_named("Book")
    wrong = ObjectInstance("who", author, {})
    b = ObjectInstance("b", book, {})
    link = ("l", lib_book, wrong, b)
    diags = validate_conformance(ObjectModel("m", (wrong, b), (link,)), built_model)
    assert any("expects Library" in d.message for d in diags)


def test_link_to_missing_object_is_left_to_the_loader(built_model):
    # Only the loader checks that a link's association and end objects exist;
    # validate_conformance checks the end objects' classes.
    lib_book = next(a for a in built_model.associations if a.name == "lib_book_assoc")
    library = built_model.class_named("Library")
    book = built_model.class_named("Book")
    ghost = ObjectInstance("ghost", library, {})
    b = ObjectInstance("b", book, {})
    foreign = BinaryAssociation("foreign", lib_book.end1, lib_book.end2)
    for link in (("l", lib_book, ghost, b), ("l", foreign, b, b)):
        diags = validate_conformance(ObjectModel("m", (b,), (link,)), built_model)
        assert all(d.severity is Severity.WARNING for d in diags)
    objects = ObjectModel("m", (b,), (("l", lib_book, ghost, b),))
    assert navigate(objects, b, "locatedIn", built_model) == [ghost]


# -- queries --

def test_instances_of_book(built_model, built_objects):
    book = built_model.class_named("Book")
    assert [o.name for o in instances_of(built_objects, book)] == ["book_obj"]


def test_instances_of_without_instances(built_model):
    book = built_model.class_named("Book")
    assert instances_of(ObjectModel("empty"), book) == []


def test_instances_of_order_independent_of_insertion(built_model):
    book = built_model.class_named("Book")
    first = ObjectInstance("a", book, {})
    second = ObjectInstance("b", book, {})
    one = ObjectModel("m", (first, second))
    two = ObjectModel("m", (second, first))
    assert [o.name for o in instances_of(one, book)] == ["a", "b"]
    assert instances_of(one, book) == instances_of(two, book)


def test_navigate_contains(built_model, built_objects):
    library_obj = built_objects.object_named("library_obj")
    linked = navigate(built_objects, library_obj, "contains", built_model)
    assert [o.name for o in linked] == ["book_obj"]


def test_navigate_located_in(built_model, built_objects):
    book_obj = built_objects.object_named("book_obj")
    linked = navigate(built_objects, book_obj, "locatedIn", built_model)
    assert [o.name for o in linked] == ["library_obj"]


def test_navigate_unknown_role(built_model, built_objects):
    book_obj = built_objects.object_named("book_obj")
    with pytest.raises(UnknownRoleError):
        navigate(built_objects, book_obj, "nonexistent", built_model)


def test_navigate_role_with_no_links_yields_empty(built_model):
    library = built_model.class_named("Library")
    lib = ObjectInstance("lib", library, {})
    objects = ObjectModel("m", (lib,))
    assert navigate(objects, lib, "contains", built_model) == []


def test_navigate_deduplicates_parallel_links(built_model):
    lib_book = next(a for a in built_model.associations if a.name == "lib_book_assoc")
    library = built_model.class_named("Library")
    book = built_model.class_named("Book")
    lib = ObjectInstance("lib", library, {})
    b = ObjectInstance("b", book, {})
    links = (
        ("l1", lib_book, lib, b),
        ("l2", lib_book, lib, b),
    )
    objects = ObjectModel("m", (lib, b), links)
    assert [o.name for o in navigate(objects, lib, "contains", built_model)] == ["b"]


def test_navigate_symmetry_on_random_scenarios():
    rng = random.Random(21)
    for _ in range(50):
        model = make_random_model(rng)
        objects = make_random_objects(rng, model)
        for obj in objects.objects:
            for role, (assoc, end) in model.navigable_ends(obj.classifier).items():
                opposite = assoc.end2 if end is assoc.end1 else assoc.end1
                for reached in navigate(objects, obj, role, model):
                    back = navigate(objects, reached, opposite.role, model)
                    assert any(o.name == obj.name for o in back)


def test_navigate_independent_of_link_insertion_order(built_model, built_objects):
    flipped = ObjectModel(
        built_objects.name, built_objects.objects, tuple(reversed(built_objects.links))
    )
    book_obj = built_objects.object_named("book_obj")
    assert navigate(flipped, book_obj, "locatedIn", built_model) == navigate(
        built_objects, book_obj, "locatedIn", built_model
    )


# -- lookup tables against brute-force scans --

def _scan_navigable_ends(model, cls):
    ends = {}
    for assoc in model.associations:
        for end, opposite in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)):
            if opposite.target.name == cls.name:
                ends[end.role] = (assoc, end)
    return ends


def _assert_tables_match_scans(model, objects):
    names = {c.name for c in model.classes} | {"Missing"}
    for name in sorted(names):
        assert model.class_named(name) is next(
            (c for c in model.classes if c.name == name), None
        )
    classes = list(model.classes) + [o.classifier for o in objects.objects]
    for cls in classes:
        assert model.navigable_ends(cls) == _scan_navigable_ends(model, cls)
        for name in sorted({a.name for a in cls.attributes} | {"missing"}):
            assert cls.attribute_named(name) is next(
                (a for a in cls.attributes if a.name == name), None
            )
        assert instances_of(objects, cls) == [
            o for o in objects.objects if o.classifier.name == cls.name
        ]
    for name in sorted({o.name for o in objects.objects} | {"missing"}):
        assert objects.object_named(name) is next(
            (o for o in objects.objects if o.name == name), None
        )
    for obj in objects.objects:
        for role in sorted(model.navigable_ends(obj.classifier)) + ["noSuchRole"]:
            try:
                expected = _linked_objects(objects, model, obj, role)
            except RefEvalError:
                with pytest.raises(UnknownRoleError):
                    navigate(objects, obj, role, model)
                continue
            got = navigate(objects, obj, role, model)
            assert [id(o) for o in got] == [id(o) for o in expected]


def test_tables_match_scans_on_random_scenarios():
    rng = random.Random(7)
    for _ in range(200):
        model = make_random_model(rng)
        objects = make_random_objects(rng, model, max_objects=rng.randint(0, 8))
        _assert_tables_match_scans(model, objects)
        flipped = ObjectModel("flipped", objects.objects[::-1], objects.links[::-1])
        _assert_tables_match_scans(model, flipped)


def test_tables_match_scans_on_library(built_model, built_objects):
    _assert_tables_match_scans(built_model, built_objects)


def _person_model():
    person = ClassDef("Person")
    parenthood = BinaryAssociation(
        "parenthood",
        AssociationEnd("parents", person, Multiplicity(0, 2)),
        AssociationEnd("children", person, Multiplicity(0, None)),
    )
    return person, parenthood, StructuralModel("family", (person,), (parenthood,))


def test_duplicate_attribute_name_keeps_the_first():
    first, second = Attribute("x", PrimitiveType.INT), Attribute("x", PrimitiveType.DATE)
    cls = ClassDef("C", (Attribute("y", PrimitiveType.STR), first, second))
    assert cls.attributes[:2] == (first, second)  # sorted by name, stably
    assert cls.attribute_named("x") is first
    model = StructuralModel("dup", (cls,))
    assert validate_structural(model)  # duplicate attribute name
    _assert_tables_match_scans(model, ObjectModel("m", (ObjectInstance("o", cls, {}),)))


def test_self_association_navigates_each_role_its_own_way():
    person, parenthood, model = _person_model()
    mum, kid, baby = (ObjectInstance(n, person, {}) for n in ("mum", "kid", "baby"))
    links = (
        ("l1", parenthood, mum, kid),
        ("l2", parenthood, mum, baby),
        ("l3", parenthood, mum, kid),  # the same link twice
    )
    for order in (links, links[::-1]):
        objects = ObjectModel("m", (mum, kid, baby), order)
        assert navigate(objects, mum, "children", model) == [baby, kid]
        assert navigate(objects, mum, "parents", model) == []
        assert navigate(objects, kid, "parents", model) == [mum]
        _assert_tables_match_scans(model, objects)


def test_unvalidated_duplicates_keep_first_and_last_wins_rules():
    first_a, second_a = ClassDef("A"), ClassDef("A", (Attribute("x", PrimitiveType.INT),))
    c = ClassDef("C")
    old = BinaryAssociation(
        "a_old",
        AssociationEnd("r", first_a, Multiplicity(0, None)),
        AssociationEnd("back", c, Multiplicity(0, None)),
    )
    new = BinaryAssociation(
        "b_new",
        AssociationEnd("r", first_a, Multiplicity(0, None)),
        AssociationEnd("back2", c, Multiplicity(0, None)),
    )
    model = StructuralModel("dup", (first_a, c, second_a), (new, old))
    assert validate_structural(model)  # duplicate class, ambiguous role
    assert model.class_named("A") is first_a
    assert model.navigable_ends(c)["r"] == (new, new.end1)

    src = ObjectInstance("src", c, {})
    twin1 = ObjectInstance("twin", first_a, {})
    twin2 = ObjectInstance("twin", second_a, {})
    links = (
        ("z", new, twin1, src),
        ("y", new, twin2, src),
        ("x", old, twin2, src),
    )
    for order in (links, links[::-1]):
        objects = ObjectModel("m", (twin1, src, twin2), order)
        assert objects.object_named("twin") is twin1
        # Both links reach a far object named twin; link "z" sorts last.
        assert navigate(objects, src, "r", model) == [twin1]
        assert [o.name for o in instances_of(objects, first_a)] == ["twin", "twin"]
        _assert_tables_match_scans(model, objects)
    with pytest.raises(UnknownRoleError):
        navigate(objects, src, "back", model)


def test_query_results_do_not_alias_the_tables(built_model, built_objects):
    library = built_model.class_named("Library")
    book = built_model.class_named("Book")
    lib_obj = built_objects.object_named("library_obj")
    ends = built_model.navigable_ends(library)
    linked = navigate(built_objects, lib_obj, "contains", built_model)
    books = instances_of(built_objects, book)
    expected = (dict(ends), list(linked), list(books))

    with pytest.raises(TypeError):
        ends["bogus"] = None
    linked.append(lib_obj)
    books.clear()

    assert built_model.navigable_ends(library) == expected[0]
    assert navigate(built_objects, lib_obj, "contains", built_model) == expected[1]
    assert instances_of(built_objects, book) == expected[2]
    assert validate_conformance(built_objects, built_model) == []


def test_tables_are_not_dataclass_fields(built_model, built_objects):
    assert [f.name for f in dataclasses.fields(StructuralModel)] == [
        "name", "classes", "associations", "constraints",
    ]
    assert [f.name for f in dataclasses.fields(ObjectModel)] == ["name", "objects", "links"]
    assert [f.name for f in dataclasses.fields(ClassDef)] == ["name", "attributes"]
    for cls in built_model.classes:
        rebuilt = ClassDef(cls.name, cls.attributes[::-1])
        assert rebuilt == cls
        assert hash(rebuilt) == hash(cls)
        assert repr(rebuilt) == repr(cls) == f"ClassDef(name={cls.name!r}, attributes={cls.attributes!r})"
        assert ClassDef(cls.name) != cls
    rebuilt_model = StructuralModel(
        built_model.name,
        built_model.classes[::-1],
        built_model.associations[::-1],
        built_model.constraints,
    )
    assert rebuilt_model == built_model
    assert hash(rebuilt_model) == hash(built_model)
    assert repr(rebuilt_model) == repr(built_model)
    rebuilt_objects = ObjectModel(
        built_objects.name, built_objects.objects[::-1], built_objects.links[::-1]
    )
    assert rebuilt_objects == built_objects
    assert repr(rebuilt_objects) == repr(built_objects)
    assert ObjectModel("other", built_objects.objects) != built_objects


def test_object_model_canonicalizes_order(built_model):
    book = built_model.class_named("Book")
    objs = [ObjectInstance(n, book, {}) for n in ("z", "a", "m")]
    model = ObjectModel("m", tuple(objs))
    assert [o.name for o in model.objects] == ["a", "m", "z"]


# -- slot values --

_ITEM = ClassDef(
    "Item",
    (
        Attribute("count", PrimitiveType.INT),
        Attribute("price", PrimitiveType.REAL),
        Attribute("label", PrimitiveType.STR),
        Attribute("flag", PrimitiveType.BOOL),
        Attribute("day", PrimitiveType.DATE),
    ),
)


def _slot_diagnostics(attr_name, value):
    """Conformance messages for one Item whose only slot is attr_name."""
    model = StructuralModel("m", (_ITEM,))
    objects = ObjectModel("o", (ObjectInstance("i", _ITEM, {attr_name: value}),))
    return [str(d) for d in validate_conformance(objects, model)]


@pytest.mark.parametrize(
    "attr_name, value",
    [
        ("count", 3),
        ("price", 2.5),
        ("label", "x"),
        ("flag", False),
        ("day", datetime.date(2020, 3, 15)),
    ],
)
def test_conformance_accepts_slot_of_attribute_type(attr_name, value):
    assert _slot_diagnostics(attr_name, value) == []


def test_conformance_slot_kind_checked():
    for attr_name, type_name, value in [
        ("count", "int", "twenty"),
        ("flag", "bool", 1),
        ("count", "int", True),
        ("price", "real", 2),
        ("label", "str", None),
        ("day", "date", "2020-03-15"),
    ]:
        assert _slot_diagnostics(attr_name, value) == [
            f"error: objects[i].slots[{attr_name}]: slot type mismatch: "
            f"attribute '{attr_name}' is {type_name}, value {value!r} is not"
        ]


def test_conformance_int_slot_range():
    assert _slot_diagnostics("count", 2**63 - 1) == []
    assert _slot_diagnostics("count", -(2**63)) == []
    for value in (2**63, -(2**63) - 1):
        assert _slot_diagnostics("count", value) == [
            "error: objects[i].slots[count]: slot out of range: "
            f"attribute 'count' is int, value {value} does not fit in 64 bits"
        ]
    # Too long for repr: the message gives the size instead of the digits.
    assert _slot_diagnostics("count", 10**5000) == [
        "error: objects[i].slots[count]: slot out of range: "
        "attribute 'count' is int, value of 16610 bits does not fit in 64 bits"
    ]


def test_conformance_real_slot_is_finite():
    assert _slot_diagnostics("price", 1e308) == []
    for value in (math.nan, math.inf, -math.inf):
        assert _slot_diagnostics("price", value) == [
            "error: objects[i].slots[price]: slot out of range: "
            f"attribute 'price' is real, value {value!r} is not finite"
        ]


def test_conformance_date_slot_not_datetime():
    value = datetime.datetime(2020, 3, 15, 12, 0)
    assert _slot_diagnostics("day", value) == [
        "error: objects[i].slots[day]: slot type mismatch: "
        f"attribute 'day' is date, value {value!r} is not"
    ]


def test_built_and_loaded_models_agree(built_model, built_objects, library_model, library_objects):
    assert built_model == library_model
    assert built_objects == library_objects

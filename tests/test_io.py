import copy
import datetime
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocl.cli import main
from bocl.evaluator import (
    ConstraintResult,
    ConstraintVerdict,
    EvaluationReport,
    VerdictKind,
    evaluate_all,
)
from bocl.model import PrimitiveType, Severity, navigate, validate_structural
from bocl.model_io import (
    IoError,
    IoErrorKind,
    ReportFormat,
    load_objects,
    load_structural,
    objects_from_document,
    objects_to_document,
    save_objects,
    save_structural,
    structural_from_document,
    structural_to_document,
    write_report,
)

from conftest import MODEL_PATH, OBJECTS_PATH, report_to_document
from generators import make_random_model, make_random_model_document, make_random_objects
from reference_load import (
    RefLoaded,
    RefLoadError,
    RefStructural,
    reference_load,
    reference_structural,
)


def test_load_golden_model(library_model):
    assert library_model.name == "Library model"
    assert [c.name for c in library_model.classes] == ["Author", "Book", "Library"]
    assert len(library_model.associations) == 2
    assert [c.name for c in library_model.constraints] == [
        "BookPageNumber",
        "LibaryCollect",
    ]
    book = library_model.class_named("Book")
    assert book.attribute_named("pages").type is PrimitiveType.INT
    contains = library_model.navigable_ends(library_model.class_named("Library"))
    assert contains["contains"][1].multiplicity.upper is None


def test_load_golden_objects(library_model, library_objects):
    assert len(library_objects.objects) == 3
    assert len(library_objects.links) == 2
    book_obj = library_objects.object_named("book_obj")
    assert book_obj.slots["release"] == datetime.date(2020, 3, 15)


def test_golden_objects_have_no_warnings(library_model, objects_path):
    _, warnings = load_objects(objects_path, library_model)
    assert warnings == []


def test_missing_file(tmp_path):
    with pytest.raises(IoError) as exc:
        load_structural(tmp_path / "nope.json")
    assert exc.value.kind is IoErrorKind.NOT_FOUND


def test_wrong_schema_version(tmp_path, model_doc):
    model_doc["schemaVersion"] = "bocl-model/99"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.SCHEMA_VERSION


def test_truncated_json_reports_position(tmp_path, model_path):
    text = model_path.read_text()[:200]
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.MALFORMED
    assert exc.value.line is not None
    assert exc.value.col is not None


def test_unknown_top_level_key_rejected(tmp_path, model_doc):
    model_doc["extras"] = []
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.MALFORMED
    assert "extras" in str(exc.value)


def test_unknown_attribute_type_rejected(model_doc):
    model_doc["classes"][0]["attributes"][0]["type"] = "decimal"
    with pytest.raises(IoError) as exc:
        structural_from_document(model_doc)
    assert exc.value.kind is IoErrorKind.MALFORMED


def test_association_needs_two_ends(model_doc):
    model_doc["associations"][0]["ends"].pop()
    with pytest.raises(IoError, match="exactly two"):
        structural_from_document(model_doc)


def test_unknown_end_target_is_validation_error(tmp_path, model_doc):
    model_doc["associations"][0]["ends"][0]["target"] = "Shelf"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.VALIDATION
    assert any("Shelf" in d.message for d in exc.value.diagnostics)


def test_validation_diagnostics_carried(tmp_path, model_doc):
    model_doc["classes"].append({"name": "Book", "attributes": []})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.VALIDATION
    assert any("duplicate class name" in d.message for d in exc.value.diagnostics)


def test_duplicate_class_name_is_the_only_error(tmp_path, model_doc):
    # Ends and contexts naming "Library" resolve to its first class, the
    # one the model indexes, so they add no error of their own.
    model_doc["classes"].append({"name": "Library", "attributes": []})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: classes[Library]: duplicate class name 'Library'"
    ]


def test_duplicate_object_name_is_the_only_error(tmp_path, objects_doc, library_model):
    # Links naming "library_obj" wire to its first object, the one the
    # object model indexes, so they add no error of their own.
    objects_doc["objects"].append(
        {"name": "library_obj", "class": "Library", "slots": {"name": "Other"}}
    )
    path = tmp_path / "o.json"
    path.write_text(json.dumps(objects_doc))
    with pytest.raises(IoError) as exc:
        load_objects(path, library_model)
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: objects[library_obj]: duplicate object name 'library_obj'"
    ]


def test_unknown_object_class(tmp_path, objects_doc, library_model):
    objects_doc["objects"][0]["class"] = "Magazine"
    path = tmp_path / "o.json"
    path.write_text(json.dumps(objects_doc))
    with pytest.raises(IoError) as exc:
        load_objects(path, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert "Magazine" in str(exc.value)


def _load_objects_doc(tmp_path, objects_doc, model):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(objects_doc))
    return load_objects(path, model)


def _set_book_slot(objects_doc, attr_name, value):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"][attr_name] = value


def test_slot_type_mismatch_at_load(tmp_path, objects_doc, library_model):
    _set_book_slot(objects_doc, "pages", "twenty")
    with pytest.raises(IoError) as exc:
        _load_objects_doc(tmp_path, objects_doc, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert "slot type mismatch" in str(exc.value)


def test_bool_is_not_an_int_slot(tmp_path, objects_doc, library_model):
    _set_book_slot(objects_doc, "pages", True)
    with pytest.raises(IoError, match="slot type mismatch"):
        _load_objects_doc(tmp_path, objects_doc, library_model)


def test_bad_date_format(objects_doc, library_model):
    _set_book_slot(objects_doc, "release", "15/03/2020")
    with pytest.raises(IoError, match="YYYY-MM-DD"):
        objects_from_document(objects_doc, library_model)


def test_date_needs_ascii_digits(objects_doc, library_model):
    _set_book_slot(objects_doc, "release", "\u0662\u0660\u0662\u0660-01-01")
    with pytest.raises(IoError, match="YYYY-MM-DD"):
        objects_from_document(objects_doc, library_model)


def test_unknown_slot_attribute(tmp_path, objects_doc, library_model):
    objects_doc["objects"][0]["slots"]["shelf"] = 3
    with pytest.raises(IoError, match="no attribute"):
        _load_objects_doc(tmp_path, objects_doc, library_model)


def test_conformance_lists_every_error(tmp_path, objects_doc, library_model):
    _set_book_slot(objects_doc, "pages", 2**63)
    _set_book_slot(objects_doc, "title", 7)
    objects_doc["objects"].append({"name": "mag", "class": "Magazine"})
    with pytest.raises(IoError) as exc:
        _load_objects_doc(tmp_path, objects_doc, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: objects[book_obj].slots[title]: slot type mismatch: "
        "attribute 'title' is str, value 7 is not",
        "error: objects[book_obj].slots[pages]: slot out of range: "
        "attribute 'pages' is int, value 9223372036854775808 does not fit in 64 bits",
        "error: objects[mag]: unknown class 'Magazine'",
    ]


def _model_with_price(tmp_path, model_doc):
    for cls in model_doc["classes"]:
        if cls["name"] == "Book":
            cls["attributes"].append({"name": "price", "type": "real"})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    return load_structural(path)


def test_whole_number_in_real_slot_becomes_float(tmp_path, model_doc, objects_doc):
    model = _model_with_price(tmp_path, model_doc)
    _set_book_slot(objects_doc, "price", 12)
    objects, _ = _load_objects_doc(tmp_path, objects_doc, model)
    price = objects.object_named("book_obj").slots["price"]
    assert type(price) is float and price == 12.0


@pytest.mark.parametrize(
    "text, shown",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
     ("1" + "0" * 400, "inf"), ("-1" + "0" * 400, "-inf")],
)
def test_real_slot_must_be_finite(tmp_path, model_doc, objects_doc, text, shown):
    model = _model_with_price(tmp_path, model_doc)
    path = tmp_path / "o.json"
    _set_book_slot(objects_doc, "price", "PRICE")
    path.write_text(json.dumps(objects_doc).replace('"PRICE"', text))
    with pytest.raises(IoError) as exc:
        load_objects(path, model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert [str(d) for d in exc.value.diagnostics] == [
        "error: objects[book_obj].slots[price]: slot out of range: "
        f"attribute 'price' is real, value {shown} is not finite"
    ]


def test_link_unknown_role(objects_doc, library_model):
    objects_doc["links"][0]["ends"][0]["role"] = "haz"
    with pytest.raises(IoError, match="no role"):
        objects_from_document(objects_doc, library_model)


def test_link_unknown_object(objects_doc, library_model):
    objects_doc["links"][0]["ends"][0]["object"] = "ghost"
    with pytest.raises(IoError, match="unknown object"):
        objects_from_document(objects_doc, library_model)


def test_link_end_class_mismatch_aborts(tmp_path, objects_doc, library_model):
    # Attach the author at the library end of lib_book_assoc.
    for link in objects_doc["links"]:
        if link["association"] == "lib_book_assoc":
            for end in link["ends"]:
                if end["role"] == "locatedIn":
                    end["object"] = "author_obj"
    path = tmp_path / "o.json"
    path.write_text(json.dumps(objects_doc))
    with pytest.raises(IoError) as exc:
        load_objects(path, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert any(d.severity is Severity.ERROR for d in exc.value.diagnostics)


# -- the loader's messages, verbatim --

def _book_b1(doc):
    """The objects document with a fourth object, b1, at objects[3]."""
    doc["objects"].append({
        "name": "b1",
        "class": "Book",
        "slots": {"title": "T", "pages": 5, "release": "2021-01-02", "price": 12},
    })
    return doc


def _set(path, value):
    """A mutation that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _drop(path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


_B1 = ("objects", 3)
_B1_SLOTS = _B1 + ("slots",)
_END = ("links", 1, "ends")  # lib_book_assoc: locatedIn library_obj, contains book_obj
_MISMATCH = ("error: links[library_book_link].end1: object 'author_obj' is a Author, "
             "end 'locatedIn' expects Library")

LOADER_MESSAGES = [
    ("missing-key", _drop(_B1 + ("class",)), "Malformed: objects[3] is missing key(s) ['class']"),
    ("unknown-key", _set(_B1 + ("colour",), "red"),
     "Malformed: objects[3] has unknown key(s) ['colour']"),
    ("name-not-string", _set(_B1 + ("name",), 7), "Malformed: objects[3].name must be a string"),
    ("class-not-string", _set(_B1 + ("class",), None),
     "Malformed: objects[3].class must be a string"),
    ("slots-not-object", _set(_B1_SLOTS, []), "Malformed: objects[3].slots must be an object"),
    ("malformed-date", _set(_B1_SLOTS + ("release",), "2021/01/02"),
     """Conformance: objects[3].slots[release]: date must be "YYYY-MM-DD", found '2021/01/02'"""),
    ("impossible-date", _set(_B1_SLOTS + ("release",), "2021-02-30"),
     "Conformance: objects[3].slots[release]: day is out of range for month"),
    ("unknown-class", _set(_B1 + ("class",), "Magazine"),
     "Conformance: error: objects[b1]: unknown class 'Magazine'"),
    ("unknown-attribute", _set(_B1_SLOTS + ("shelf",), 3),
     "Conformance: error: objects[b1].slots[shelf]: class 'Book' has no attribute 'shelf'"),
    ("type-mismatch", _set(_B1_SLOTS + ("pages",), "5"),
     "Conformance: error: objects[b1].slots[pages]: slot type mismatch: "
     "attribute 'pages' is int, value '5' is not"),
    ("bool-in-int", _set(_B1_SLOTS + ("pages",), True),
     "Conformance: error: objects[b1].slots[pages]: slot type mismatch: "
     "attribute 'pages' is int, value True is not"),
    ("int-outside-64-bits", _set(_B1_SLOTS + ("pages",), -(2**63) - 1),
     "Conformance: error: objects[b1].slots[pages]: slot out of range: "
     "attribute 'pages' is int, value -9223372036854775809 does not fit in 64 bits"),
    ("non-finite-real", _set(_B1_SLOTS + ("price",), math.inf),
     "Conformance: error: objects[b1].slots[price]: slot out of range: "
     "attribute 'price' is real, value inf is not finite"),
    ("link-missing-key", _drop(("links", 1, "ends")),
     "Malformed: links[1] is missing key(s) ['ends']"),
    ("end-not-string", _set(_END + (0, "object"), 3),
     "Malformed: links[1].ends[0].object must be a string"),
    ("unknown-role", _set(_END + (0, "role"), "haz"),
     "Conformance: links[1].ends[0]: association 'lib_book_assoc' has no role 'haz'"),
    ("unknown-object", _set(_END + (1, "object"), "ghost"),
     "Conformance: links[1].ends[1]: unknown object 'ghost'"),
    ("link-end-class-mismatch", _set(_END + (0, "object"), "author_obj"),
     f"Conformance: {_MISMATCH}"),
    ("link-not-object", _set(("links", 1), []), "Malformed: links[1] must be an object"),
    ("unknown-association", _set(("links", 1, "association"), "shelf"),
     "Conformance: links[1]: unknown association 'shelf'"),
    ("one-end", _drop(_END + (1,)),
     "Malformed: links[1].ends must be an array of exactly two ends"),
    ("duplicate-first-role", _set(_END + (1, "role"), "locatedIn"),
     "Conformance: links[1].ends[1]: duplicate role 'locatedIn'"),
    ("duplicate-second-role", _set(_END + (0, "role"), "contains"),
     "Conformance: links[1].ends[1]: duplicate role 'contains'"),
    ("link-name-not-string", _set(("links", 1, "name"), 4),
     "Malformed: links[1].name must be a string"),
    # Two bad slots: decoding stops at the first in document order, and
    # conformance lists every problem in slot order.
    ("two-bad-dates", _set(_B1_SLOTS, {"release": "2021-13-01", "acquired": "today"}),
     "Conformance: objects[3].slots[release]: month must be in 1..12"),
    ("two-bad-slots", _set(_B1_SLOTS, {"title": 7, "pages": 1.5}),
     "Conformance: error: objects[b1].slots[title]: slot type mismatch: "
     "attribute 'title' is str, value 7 is not; "
     "error: objects[b1].slots[pages]: slot type mismatch: "
     "attribute 'pages' is int, value 1.5 is not"),
]


@pytest.mark.parametrize(
    "mutate, message", [case[1:] for case in LOADER_MESSAGES], ids=[c[0] for c in LOADER_MESSAGES]
)
def test_loader_messages(tmp_path, model_doc, objects_doc, mutate, message):
    for cls in model_doc["classes"]:
        if cls["name"] == "Book":
            cls["attributes"] += [{"name": "price", "type": "real"},
                                  {"name": "acquired", "type": "date"}]
    (tmp_path / "m.json").write_text(json.dumps(model_doc))
    model = load_structural(tmp_path / "m.json")
    doc = _book_b1(objects_doc)
    mutate(doc)
    (tmp_path / "o.json").write_text(json.dumps(doc))
    with pytest.raises(IoError) as exc:
        load_objects(tmp_path / "o.json", model)
    assert str(exc.value) == message


_BOOK = ("classes", 1)  # Book: title, pages, release
_TITLE = _BOOK + ("attributes", 0)
_WRITTEN = ("associations", 1)  # book_author_assoc: writedBy Author, publishes Book
_WRITER = _WRITTEN + ("ends", 0)
_BOUNDS = _WRITER + ("multiplicity",)
_PAGES = ("constraints", 0)  # BookPageNumber


def _both(*mutations):
    def mutate(doc):
        for mutation in mutations:
            mutation(doc)
    return mutate


STRUCTURAL_LOADER_MESSAGES = [
    ("document-name-not-string", _set(("name",), 3), "model document.name must be a string"),
    ("document-missing-name", _drop(("name",)), "model document is missing key(s) ['name']"),
    ("classes-not-array", _set(("classes",), {}), "model document.classes must be an array"),
    ("associations-not-array", _set(("associations",), None),
     "model document.associations must be an array"),
    ("constraints-not-array", _set(("constraints",), "c"),
     "model document.constraints must be an array"),
    # Classes
    ("class-not-object", _set(_BOOK, "Book"), "classes[1] must be an object"),
    ("class-missing-name", _drop(_BOOK + ("name",)), "classes[1] is missing key(s) ['name']"),
    ("class-unknown-key", _set(_BOOK + ("colour",), 1), "classes[1] has unknown key(s) ['colour']"),
    ("class-name-not-string", _set(_BOOK + ("name",), None), "classes[1].name must be a string"),
    ("attributes-not-array", _set(_BOOK + ("attributes",), {}),
     "classes[1].attributes must be an array"),
    ("class-name-after-its-attributes",
     _both(_set(_BOOK + ("name",), 1), _set(_TITLE + ("type",), "text")),
     "classes[1].attributes[0].type: unknown type 'text'"),
    # Attributes
    ("attribute-not-object", _set(_TITLE, []), "classes[1].attributes[0] must be an object"),
    ("attribute-missing-type", _drop(_TITLE + ("type",)),
     "classes[1].attributes[0] is missing key(s) ['type']"),
    ("attribute-unknown-key", _set(_TITLE + ("default",), ""),
     "classes[1].attributes[0] has unknown key(s) ['default']"),
    ("attribute-type-not-string", _set(_TITLE + ("type",), ["str"]),
     "classes[1].attributes[0].type must be a string"),
    ("attribute-unknown-type", _set(_TITLE + ("type",), "float"),
     "classes[1].attributes[0].type: unknown type 'float'"),
    ("attribute-name-not-string", _set(_TITLE + ("name",), 0),
     "classes[1].attributes[0].name must be a string"),
    ("attribute-type-before-name",
     _both(_set(_TITLE + ("name",), 0), _set(_TITLE + ("type",), "float")),
     "classes[1].attributes[0].type: unknown type 'float'"),
    ("third-attribute", _set(_BOOK + ("attributes", 2, "type"), "Date"),
     "classes[1].attributes[2].type: unknown type 'Date'"),
    # Associations
    ("association-not-object", _set(_WRITTEN, None), "associations[1] must be an object"),
    ("association-missing-ends", _drop(_WRITTEN + ("ends",)),
     "associations[1] is missing key(s) ['ends']"),
    ("association-unknown-key", _set(_WRITTEN + ("kind",), "x"),
     "associations[1] has unknown key(s) ['kind']"),
    ("ends-not-array", _set(_WRITTEN + ("ends",), {}),
     "associations[1].ends must be an array of exactly two ends"),
    ("one-end", _drop(_WRITTEN + ("ends", 1)),
     "associations[1].ends must be an array of exactly two ends"),
    ("association-name-not-string", _set(_WRITTEN + ("name",), 1.5),
     "associations[1].name must be a string"),
    ("association-name-after-its-ends",
     _both(_set(_WRITTEN + ("name",), 1.5), _set(_WRITTEN + ("ends", 1, "role"), None)),
     "associations[1].ends[1].role must be a string"),
    # Association ends
    ("end-not-object", _set(_WRITER, "Author"), "associations[1].ends[0] must be an object"),
    ("end-missing-multiplicity", _drop(_WRITER + ("multiplicity",)),
     "associations[1].ends[0] is missing key(s) ['multiplicity']"),
    ("end-unknown-key", _set(_WRITER + ("navigable",), True),
     "associations[1].ends[0] has unknown key(s) ['navigable']"),
    ("target-not-string", _set(_WRITER + ("target",), {}),
     "associations[1].ends[0].target must be a string"),
    ("role-not-string", _set(_WRITER + ("role",), 2),
     "associations[1].ends[0].role must be a string"),
    ("target-before-role", _both(_set(_WRITER + ("role",), 2), _set(_WRITER + ("target",), 2)),
     "associations[1].ends[0].target must be a string"),
    ("role-before-multiplicity",
     _both(_set(_WRITER + ("role",), 2), _set(_BOUNDS, "1..*")),
     "associations[1].ends[0].role must be a string"),
    # Multiplicities
    ("multiplicity-not-object", _set(_BOUNDS, "1..*"),
     "associations[1].ends[0].multiplicity must be an object"),
    ("multiplicity-missing-upper", _drop(_BOUNDS + ("upper",)),
     "associations[1].ends[0].multiplicity is missing key(s) ['upper']"),
    ("multiplicity-unknown-key", _set(_BOUNDS + ("exact",), 1),
     "associations[1].ends[0].multiplicity has unknown key(s) ['exact']"),
    ("lower-not-integer", _set(_BOUNDS + ("lower",), 1.0),
     "associations[1].ends[0].multiplicity.lower must be an integer"),
    ("lower-bool", _set(_BOUNDS + ("lower",), True),
     "associations[1].ends[0].multiplicity.lower must be an integer"),
    ("upper-not-integer", _set(_BOUNDS + ("upper",), "many"),
     'associations[1].ends[0].multiplicity.upper must be an integer or "*"'),
    ("upper-bool", _set(_BOUNDS + ("upper",), False),
     'associations[1].ends[0].multiplicity.upper must be an integer or "*"'),
    ("second-end-multiplicity", _set(_WRITTEN + ("ends", 1, "multiplicity", "lower"), None),
     "associations[1].ends[1].multiplicity.lower must be an integer"),
    # Constraints
    ("constraint-not-object", _set(_PAGES, "self.pages>0"), "constraints[0] must be an object"),
    ("constraint-missing-expression", _drop(_PAGES + ("expression",)),
     "constraints[0] is missing key(s) ['expression']"),
    ("constraint-unknown-key", _set(_PAGES + ("stereotype",), "inv"),
     "constraints[0] has unknown key(s) ['stereotype']"),
    ("context-not-string", _set(_PAGES + ("context",), None),
     "constraints[0].context must be a string"),
    ("language-not-string", _set(_PAGES + ("language",), 1),
     "constraints[0].language must be a string"),
    ("constraint-name-not-string", _set(_PAGES + ("name",), []),
     "constraints[0].name must be a string"),
    ("expression-not-string", _set(_PAGES + ("expression",), 3),
     "constraints[0].expression must be a string"),
    ("context-before-language",
     _both(_set(_PAGES + ("language",), 1), _set(_PAGES + ("context",), 1)),
     "constraints[0].context must be a string"),
    ("language-before-name", _both(_set(_PAGES + ("language",), 1), _set(_PAGES + ("name",), 1)),
     "constraints[0].language must be a string"),
    ("name-before-expression",
     _both(_set(_PAGES + ("expression",), 1), _set(_PAGES + ("name",), 1)),
     "constraints[0].name must be a string"),
    ("second-constraint", _set(("constraints", 1, "expression"), None),
     "constraints[1].expression must be a string"),
]


@pytest.mark.parametrize(
    "mutate, message",
    [case[1:] for case in STRUCTURAL_LOADER_MESSAGES],
    ids=[case[0] for case in STRUCTURAL_LOADER_MESSAGES],
)
def test_structural_loader_messages(tmp_path, model_doc, mutate, message):
    mutate(model_doc)
    (tmp_path / "m.json").write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(tmp_path / "m.json")
    assert str(exc.value) == f"Malformed: {message}"
    assert exc.value.kind is IoErrorKind.MALFORMED


def test_objects_from_document_leaves_its_input_alone(tmp_path, model_doc, objects_doc):
    model = _model_with_price(tmp_path, model_doc)
    doc = _book_b1(objects_doc)
    _book_b1(doc)["objects"][4].update(name="b2", slots={"pages": "x", "release": 3})
    before = json.dumps(doc)  # tells 12 from 12.0, unlike ==
    objects = objects_from_document(doc, model)
    assert json.dumps(doc) == before
    b1 = objects.object_named("b1")
    assert b1.slots == {"title": "T", "pages": 5, "release": datetime.date(2021, 1, 2), "price": 12.0}
    assert type(b1.slots["price"]) is float
    assert b1.slots is not doc["objects"][3]["slots"]


def test_round_trip_golden(library_model, library_objects, tmp_path):
    mpath = tmp_path / "m.json"
    opath = tmp_path / "o.json"
    save_structural(library_model, mpath)
    save_objects(library_objects, opath)
    assert load_structural(mpath) == library_model
    loaded, _ = load_objects(opath, library_model)
    assert loaded == library_objects


def test_round_trip_random_scenarios(tmp_path):
    rng = random.Random(11)
    for i in range(20):
        model = make_random_model(rng)
        objects = make_random_objects(rng, model)
        mpath = tmp_path / f"m{i}.json"
        opath = tmp_path / f"o{i}.json"
        save_structural(model, mpath)
        save_objects(objects, opath)
        assert load_structural(mpath) == model
        loaded, _ = load_objects(opath, model)
        assert loaded == objects


def test_object_order_in_document_does_not_matter(objects_doc, library_model):
    reordered = dict(objects_doc)
    reordered["objects"] = list(reversed(objects_doc["objects"]))
    assert objects_from_document(reordered, library_model) == objects_from_document(
        objects_doc, library_model
    )


def test_class_order_in_document_does_not_matter(model_doc):
    reordered = dict(model_doc)
    reordered["classes"] = list(reversed(model_doc["classes"]))
    assert structural_from_document(reordered) == structural_from_document(model_doc)


def test_constraint_order_is_preserved(model_doc):
    reordered = dict(model_doc)
    reordered["constraints"] = list(reversed(model_doc["constraints"]))
    model = structural_from_document(reordered)
    assert [c.name for c in model.constraints] == ["LibaryCollect", "BookPageNumber"]


def test_language_must_be_ocl(tmp_path, model_doc):
    model_doc["constraints"][0]["language"] = "SQL"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(IoError) as exc:
        load_structural(path)
    assert exc.value.kind is IoErrorKind.VALIDATION


# -- loader fuzzing --

# Replacement values: JSON scalars and containers at their edges, plus the
# library model's own names and type names, so that a mutation can still
# point at something that exists.
_FUZZ_POOL = [
    None, True, False, 0, 2**63, 10**400, 1.5, "", "2020-02-30", [], {},
    "Book", "Library", "Author", "contains", "locatedIn", "writedBy",
    "lib_book_assoc", "book_obj", "library_obj", "author_obj", "int", "real", "date",
]


def _node_paths(node, prefix=()):
    """The key path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutate(data, doc, pool=_FUZZ_POOL):
    """Delete one to three nodes of doc or replace them from the pool."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_node_paths(doc))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(pool)))
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_loaders_raise_only_io_error(fuzz_dir, data):
    model_doc = json.loads(MODEL_PATH.read_text(encoding="utf-8"))
    objects_doc = json.loads(OBJECTS_PATH.read_text(encoding="utf-8"))
    if data.draw(st.booleans()):
        model_doc = _mutate(data, model_doc)
    else:
        objects_doc = _mutate(data, objects_doc)
    model_path = fuzz_dir / "m.json"
    objects_path = fuzz_dir / "o.json"
    model_path.write_text(json.dumps(model_doc), encoding="utf-8")
    objects_path.write_text(json.dumps(objects_doc), encoding="utf-8")
    try:
        load_objects(objects_path, load_structural(model_path))
    except IoError:
        pass


# -- the loader against an independent reading of its rules --

# Slot values at the edges of each attribute type, and for the rest of a
# document also the generated scenarios' own names.
_SLOT_POOL = [
    None, True, 1.5, 10**400, "", "2020-02-30", "2021-02-28",
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
]
_SCENARIO_POOL = _SLOT_POOL + [[], {}, "A", "B", "ab", "owner", "items", "a0", "a1", "b0", "b1"]


def _typed(slots):
    return [(key, type(value), value) for key, value in slots.items()]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(data=st.data())
def test_loader_agrees_with_reference(fuzz_dir, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    model = make_random_model(rng)
    doc = objects_to_document(make_random_objects(rng, model, max_objects=rng.randint(2, 6)))
    doc["links"] += rng.sample(doc["links"], rng.randint(0, min(2, len(doc["links"]))))
    rng.shuffle(doc["links"])
    # Mutate the whole document or one part of it, so that more mutants
    # reach the checks on that part.
    part = data.draw(st.sampled_from([None, "document", "objects", "links", "slots"]))
    if part == "document":
        doc = _mutate(data, doc, _SCENARIO_POOL)
    elif part == "slots" and doc["objects"]:
        record = data.draw(st.sampled_from(doc["objects"]))
        record["slots"] = _mutate(data, record["slots"], _SLOT_POOL)
    elif part in ("objects", "links"):
        doc[part] = _mutate(data, doc[part], _SCENARIO_POOL)
    path = fuzz_dir / "o.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = reference_load(json.loads(path.read_text(encoding="utf-8")), model)
    try:
        objects, warnings = load_objects(path, model)
    except IoError as error:
        assert isinstance(expected, RefLoadError), f"only the loader rejects: {error}"
        assert str(error) == f"{expected.kind}: {expected.message}"
        return
    assert isinstance(expected, RefLoaded), f"only the reference rejects: {expected}"
    assert [(name, cls, _typed(slots)) for name, cls, slots in expected.objects] == [
        (o.name, o.classifier.name, _typed(o.slots)) for o in objects.objects
    ]
    assert expected.adjacency == {
        (o.name, role): [far.name for far in navigate(objects, o, role, model)]
        for o in objects.objects for role in model.navigable_ends(o.classifier)
    }
    assert expected.warnings == [str(w) for w in warnings]


# Replacement values for model documents: bounds at their edges, names that
# exist in the generated documents, and names and types that are not valid.
_MODEL_POOL = [
    None, True, 0, -1, 1, 2, 1.5, 2**63, "*", "", "a b", [], {}, "A", "B", "C", "Z",
    "p", "q", "r", "a0", "a1", "k0", "int", "date", "float", "OCL", "SQL",
]


def _model_rows(model):
    return (
        [(c.name, [(a.name, a.type.value) for a in c.attributes]) for c in model.classes],
        [(a.name, [(e.role, e.target.name, e.multiplicity.lower, e.multiplicity.upper)
                   for e in a.ends()]) for a in model.associations],
        [(c.name, c.context_class.name, c.expression, c.language) for c in model.constraints],
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_structural_loader_agrees_with_reference(fuzz_dir, data):
    doc = make_random_model_document(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    # Mutate the whole document, one part of it, or nothing, so that many
    # documents also reach validation.
    part = data.draw(st.sampled_from([None, None, "document", "classes", "associations",
                                      "constraints"]))
    if part == "document":
        doc = _mutate(data, doc, _MODEL_POOL)
    elif part is not None:
        doc[part] = _mutate(data, doc[part], _MODEL_POOL)
    path = fuzz_dir / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    doc = json.loads(path.read_text(encoding="utf-8"))
    expected = reference_structural(doc)
    try:
        model = load_structural(path)
    except IoError as error:
        if isinstance(expected, RefLoadError):
            assert str(error) == f"{expected.kind}: {expected.message}"
            return
        assert expected.diagnostics, f"only the loader rejects: {error}"
        assert str(error) == "Validation: " + "; ".join(expected.diagnostics)
        model = structural_from_document(doc)
    assert isinstance(expected, RefStructural), f"only the reference rejects: {expected}"
    assert _model_rows(model) == (expected.classes, expected.associations, expected.constraints)
    assert [str(d) for d in validate_structural(model)] == expected.diagnostics


# -- link order and repeated links --

_SCENARIO_CONSTRAINTS = [
    {"name": "owned", "context": "B", "expression": "context B inv owned: self.owner.i1 > -3"},
    {"name": "items", "context": "A",
     "expression": "context A inv items: "
                   "self.items->forAll(b | b.i2 >= 0) and self.items->size() < 3"},
]


def _scenario_documents(tmp_path, seed):
    """Generated scenarios with constraints: (model path, model, objects document)."""
    rng = random.Random(seed)
    for i in range(15):
        model = make_random_model(rng)
        model_doc = dict(structural_to_document(model), constraints=_SCENARIO_CONSTRAINTS)
        model_path = tmp_path / f"m{i}.json"
        model_path.write_text(json.dumps(model_doc), encoding="utf-8")
        model = load_structural(model_path)
        objects = make_random_objects(rng, model, max_objects=rng.randint(2, 6))
        yield model_path, model, objects_to_document(objects), rng


def _link_outputs(tmp_path, capsys, model_path, model, doc):
    """What a load of doc shows: its adjacency rows, the bytes save_objects
    writes, and the exit code, stdout and stderr of `bocl eval` in text and JSON."""
    path = tmp_path / "o.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    objects, _ = load_objects(path, model)
    rows = {(o.name, role): [far.name for far in navigate(objects, o, role, model)]
            for o in objects.objects for role in model.navigable_ends(o.classifier)}
    save_objects(objects, tmp_path / "saved.json")
    reports = []
    for fmt in ("text", "json"):
        code = main(["eval", str(model_path), str(path), "--format", fmt])
        reports.append((code, *capsys.readouterr()))
    return rows, (tmp_path / "saved.json").read_bytes(), reports


def test_link_order_does_not_matter(tmp_path, capsys):
    for model_path, model, doc, rng in _scenario_documents(tmp_path, 5):
        expected = _link_outputs(tmp_path, capsys, model_path, model, doc)
        assert expected[2][0][1]  # the text report is not empty
        for _ in range(3):
            rng.shuffle(doc["links"])
            assert _link_outputs(tmp_path, capsys, model_path, model, doc) == expected


def test_repeated_link_changes_no_row_or_report(tmp_path, capsys):
    for model_path, model, doc, rng in _scenario_documents(tmp_path, 6):
        if not doc["links"]:
            continue
        rows, saved, reports = _link_outputs(tmp_path, capsys, model_path, model, doc)
        repeat = copy.deepcopy(rng.choice(doc["links"]))
        doc["links"].append(repeat)
        got = _link_outputs(tmp_path, capsys, model_path, model, doc)
        assert (got[0], got[2]) == (rows, reports)
        # save_objects keeps both copies, wherever the repeat sits.
        assert json.loads(got[1])["links"].count(repeat) == 2
        doc["links"].insert(0, doc["links"].pop())
        assert _link_outputs(tmp_path, capsys, model_path, model, doc)[1] == got[1]


def test_unnamed_links_are_named_by_position(tmp_path, capsys, objects_doc, library_model):
    # A link without a name is named <association>_<position in links>, so
    # reordering unnamed links renames them; no row or report changes.
    for link in objects_doc["links"]:
        del link["name"]
    outputs, names = [], []
    for links in (objects_doc["links"], objects_doc["links"][::-1]):
        doc = dict(objects_doc, links=links)
        outputs.append(_link_outputs(tmp_path, capsys, MODEL_PATH, library_model, doc))
        loaded = objects_from_document(doc, library_model)
        names.append(sorted((assoc.name, name) for name, assoc, _, _ in loaded.links))
    (rows, saved, reports), (rows_reversed, saved_reversed, reports_reversed) = outputs
    assert rows_reversed == rows and reports_reversed == reports
    assert saved_reversed != saved
    assert names == [
        [("book_author_assoc", "book_author_assoc_0"), ("lib_book_assoc", "lib_book_assoc_1")],
        [("book_author_assoc", "book_author_assoc_1"), ("lib_book_assoc", "lib_book_assoc_0")],
    ]


# -- reports --

def test_text_report_shape(library_model, library_objects):
    report = evaluate_all(library_model, library_objects)
    sink = io.StringIO()
    write_report(report, ReportFormat.TEXT, sink)
    lines = sink.getvalue().splitlines()
    assert lines == [
        "Invariant:context Book inv pageNumberInv: self.pages>0:True",
        "Invariant:context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0:True",
    ]


def test_empty_json_report():
    sink = io.StringIO()
    write_report(EvaluationReport(()), ReportFormat.JSON, sink)
    assert sink.getvalue() == '{\n  "results": []\n}\n'


# Names and texts with non-ASCII, quote, backslash and control characters.
_report_text = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é😀 '), st.characters()), max_size=12
)


@st.composite
def _reports(draw):
    results = []
    for _ in range(draw(st.integers(0, 4))):
        overall = draw(st.sampled_from(VerdictKind))
        per_instance = tuple(draw(st.lists(st.tuples(_report_text, st.booleans()), max_size=4)))
        message = draw(_report_text) if overall is VerdictKind.ERROR else None
        verdict = ConstraintVerdict(draw(_report_text), overall, per_instance, message)
        results.append(ConstraintResult(draw(_report_text), verdict))
    return EvaluationReport(tuple(results))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(report=_reports())
def test_json_report_is_json_dumps_byte_for_byte(report):
    sink = io.StringIO()
    write_report(report, ReportFormat.JSON, sink)
    assert sink.getvalue() == json.dumps(report_to_document(report), indent=2) + "\n"


def test_error_verdict_renders_on_its_own_line():
    verdict = ConstraintVerdict(
        "broken",
        VerdictKind.ERROR,
        error_message="Exception Occured! Info: division by zero",
    )
    report = EvaluationReport((ConstraintResult("context Book inv q: 1/0 = 1", verdict),))
    sink = io.StringIO()
    write_report(report, ReportFormat.TEXT, sink)
    assert sink.getvalue() == (
        "Invariant:context Book inv q: 1/0 = 1:"
        "Error(Exception Occured! Info: division by zero)\n"
    )


def test_json_report_fields(library_model, library_objects):
    report = evaluate_all(library_model, library_objects)
    sink = io.StringIO()
    write_report(report, ReportFormat.JSON, sink)
    doc = json.loads(sink.getvalue())
    entry = doc["results"][0]
    assert entry["name"] == "BookPageNumber"
    assert entry["expression"].startswith("context Book")
    assert entry["overall"] == "True"
    assert entry["perInstance"] == [{"object": "book_obj", "holds": True}]

import datetime
import io
import json
import random

import pytest

from bocl.evaluator import (
    ConstraintResult,
    ConstraintVerdict,
    EvaluationReport,
    VerdictKind,
    evaluate_all,
)
from bocl.model import PrimitiveType, Severity
from bocl.model_io import (
    IoError,
    IoErrorKind,
    ReportFormat,
    load_objects,
    load_structural,
    objects_from_document,
    save_objects,
    save_structural,
    structural_from_document,
    write_report,
)

from generators import make_random_model, make_random_objects


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
    release = book_obj.slots["release"]
    assert release.kind is PrimitiveType.DATE
    assert release.value == datetime.date(2020, 3, 15)


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


def test_unknown_object_class(tmp_path, objects_doc, library_model):
    objects_doc["objects"][0]["class"] = "Magazine"
    path = tmp_path / "o.json"
    path.write_text(json.dumps(objects_doc))
    with pytest.raises(IoError) as exc:
        load_objects(path, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert "Magazine" in str(exc.value)


def test_slot_type_mismatch_at_load(objects_doc, library_model):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["pages"] = "twenty"
    with pytest.raises(IoError) as exc:
        objects_from_document(objects_doc, library_model)
    assert exc.value.kind is IoErrorKind.CONFORMANCE
    assert "slot type mismatch" in str(exc.value)


def test_bool_is_not_an_int_slot(objects_doc, library_model):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["pages"] = True
    with pytest.raises(IoError, match="slot type mismatch"):
        objects_from_document(objects_doc, library_model)


def test_bad_date_format(objects_doc, library_model):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["release"] = "15/03/2020"
    with pytest.raises(IoError, match="YYYY-MM-DD"):
        objects_from_document(objects_doc, library_model)


def test_unknown_slot_attribute(objects_doc, library_model):
    objects_doc["objects"][0]["slots"]["shelf"] = 3
    with pytest.raises(IoError, match="no attribute"):
        objects_from_document(objects_doc, library_model)


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
    assert json.loads(sink.getvalue()) == {"results": []}


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

import datetime
import json
from pathlib import Path

import pytest

from bocl.evaluator import EvaluationReport, VerdictKind
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
from bocl.model_io import load_objects, load_structural

ROOT = Path(__file__).resolve().parent.parent
MODEL_PATH = ROOT / "models" / "library.model.json"
OBJECTS_PATH = ROOT / "models" / "library.objects.json"


@pytest.fixture(scope="session")
def model_path() -> Path:
    return MODEL_PATH


@pytest.fixture(scope="session")
def objects_path() -> Path:
    return OBJECTS_PATH


@pytest.fixture(scope="session")
def library_model():
    return load_structural(MODEL_PATH)


@pytest.fixture(scope="session")
def library_objects(library_model):
    objects, _warnings = load_objects(OBJECTS_PATH, library_model)
    return objects


def build_library_model() -> StructuralModel:
    """The Library demo model, constructed through the Python API."""
    library = ClassDef(
        "Library",
        (Attribute("name", PrimitiveType.STR), Attribute("address", PrimitiveType.STR)),
    )
    book = ClassDef(
        "Book",
        (
            Attribute("title", PrimitiveType.STR),
            Attribute("pages", PrimitiveType.INT),
            Attribute("release", PrimitiveType.DATE),
        ),
    )
    author = ClassDef(
        "Author",
        (Attribute("name", PrimitiveType.STR), Attribute("email", PrimitiveType.STR)),
    )
    lib_book = BinaryAssociation(
        "lib_book_assoc",
        AssociationEnd("locatedIn", library, Multiplicity(1, 1)),
        AssociationEnd("contains", book, Multiplicity(0, None)),
    )
    book_author = BinaryAssociation(
        "book_author_assoc",
        AssociationEnd("writedBy", author, Multiplicity(1, None)),
        AssociationEnd("publishes", book, Multiplicity(0, None)),
    )
    constraints = (
        ConstraintDef(
            "BookPageNumber", book, "context Book inv pageNumberInv: self.pages>0"
        ),
        ConstraintDef(
            "LibaryCollect",
            library,
            "context Library inv atLeastOneSmallBook: "
            "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0",
        ),
    )
    return StructuralModel(
        "Library model", (library, book, author), (lib_book, book_author), constraints
    )


def build_library_objects(model: StructuralModel, pages: int = 20) -> ObjectModel:
    library = model.class_named("Library")
    book = model.class_named("Book")
    author = model.class_named("Author")
    lib_book = next(a for a in model.associations if a.name == "lib_book_assoc")
    book_author = next(a for a in model.associations if a.name == "book_author_assoc")

    library_obj = ObjectInstance(
        "library_obj",
        library,
        {
            "name": "Children Library",
            "address": "Street 123",
        },
    )
    book_obj = ObjectInstance(
        "book_obj",
        book,
        {
            "title": "Colors",
            "pages": pages,
            "release": datetime.date(2020, 3, 15),
        },
    )
    author_obj = ObjectInstance(
        "author_obj",
        author,
        {
            "name": "John Doe",
            "email": "john@doe.com",
        },
    )
    links = (
        ("author_book_link", book_author, author_obj, book_obj),
        ("library_book_link", lib_book, library_obj, book_obj),
    )
    return ObjectModel("Object model", (library_obj, book_obj, author_obj), links)


@pytest.fixture
def built_model() -> StructuralModel:
    return build_library_model()


@pytest.fixture
def built_objects(built_model) -> ObjectModel:
    return build_library_objects(built_model)


@pytest.fixture
def objects_doc() -> dict:
    """Fresh parsed copy of the golden objects document, safe to mutate."""
    return json.loads(OBJECTS_PATH.read_text(encoding="utf-8"))


@pytest.fixture
def model_doc() -> dict:
    return json.loads(MODEL_PATH.read_text(encoding="utf-8"))


def report_to_document(report: EvaluationReport) -> dict:
    """The JSON report as a document: write_report must write the bytes of
    json.dump(report_to_document(report), sink, indent=2) and a newline."""
    results = []
    for result in report.results:
        verdict = result.verdict
        entry = {
            "name": verdict.constraint_name,
            "expression": result.expression,
            "overall": verdict.overall.value,
            "perInstance": [
                {"object": obj, "holds": holds} for obj, holds in verdict.per_instance
            ],
        }
        if verdict.overall is VerdictKind.ERROR:
            entry["error"] = verdict.error_message
        results.append(entry)
    return {"results": results}

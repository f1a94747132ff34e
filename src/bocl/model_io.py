"""Versioned JSON interchange for models and object models.

Schema bocl-model/1::

    {"schemaVersion": "bocl-model/1", "name": ...,
     "classes": [{"name", "attributes": [{"name", "type"}]}],
     "associations": [{"name", "ends": [{"role", "target",
                       "multiplicity": {"lower": int, "upper": int|"*"}}]}],
     "constraints": [{"name", "context", "expression", "language"?}]}

Schema bocl-objects/1::

    {"schemaVersion": "bocl-objects/1", "name": ...,
     "objects": [{"name", "class", "slots": {attr: value}}],
     "links": [{"association", "ends": [{"role", "object"}], "name"?}]}

Attribute types are "int", "real", "str", "bool", "date"; dates are
"YYYY-MM-DD" strings. Unknown keys are rejected.
"""

from __future__ import annotations

import datetime
import json
import math
import re
from enum import Enum
from pathlib import Path

from .model import (
    AssociationEnd,
    Attribute,
    BinaryAssociation,
    ClassDef,
    ConstraintDef,
    ModelDiagnostic,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    PrimitiveType,
    Severity,
    StructuralModel,
    _by_name,
    validate_conformance,
    validate_structural,
)

MODEL_SCHEMA_VERSION = "bocl-model/1"
OBJECTS_SCHEMA_VERSION = "bocl-objects/1"

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_OBJECT_REQUIRED = frozenset({"name", "class"})
_OBJECT_KEYS = _OBJECT_REQUIRED | {"slots"}
_LINK_REQUIRED = frozenset({"association", "ends"})
_LINK_KEYS = _LINK_REQUIRED | {"name"}
_END_KEYS = frozenset({"role", "object"})
_OBJECTS_DOC_KEYS = frozenset({"schemaVersion", "name", "objects", "links"})
_MODEL_KEYS = frozenset({"schemaVersion", "name", "classes", "associations", "constraints"})
_CLASS_KEYS = frozenset({"name", "attributes"})
_ATTRIBUTE_KEYS = frozenset({"name", "type"})
_ASSOCIATION_KEYS = frozenset({"name", "ends"})
_ASSOC_END_KEYS = frozenset({"role", "target", "multiplicity"})
_MULTIPLICITY_KEYS = frozenset({"lower", "upper"})
_CONSTRAINT_KEYS = frozenset({"name", "context", "expression", "language"})
_TYPES = {ptype.value: ptype for ptype in PrimitiveType}


class IoErrorKind(Enum):
    NOT_FOUND = "NotFound"
    MALFORMED = "Malformed"
    SCHEMA_VERSION = "SchemaVersion"
    VALIDATION = "Validation"
    CONFORMANCE = "Conformance"


class IoError(Exception):
    def __init__(
        self,
        kind: IoErrorKind,
        message: str,
        diagnostics: tuple[ModelDiagnostic, ...] = (),
        line: int | None = None,
        col: int | None = None,
    ):
        position = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{kind.value}: {message}{position}")
        self.kind = kind
        self.diagnostics = diagnostics
        self.line = line
        self.col = col


# ---------- Shared loader helpers ----------

def _load_document(path: str | Path, expected_version: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IoError(IoErrorKind.NOT_FOUND, f"no such file: {path}") from None
    except OSError as error:
        raise IoError(IoErrorKind.NOT_FOUND, f"cannot read {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise IoError(
            IoErrorKind.MALFORMED, error.msg, line=error.lineno, col=error.colno
        ) from None
    except (ValueError, RecursionError) as error:
        # Not UTF-8, an integer of over 4300 digits, or nesting too deep.
        raise IoError(IoErrorKind.MALFORMED, str(error)) from None
    if not isinstance(doc, dict):
        raise IoError(IoErrorKind.MALFORMED, "document root must be an object")
    version = doc.get("schemaVersion")
    if version != expected_version:
        raise IoError(
            IoErrorKind.SCHEMA_VERSION,
            f"expected schemaVersion {expected_version!r}, found {version!r}",
        )
    return doc


def _raise_errors(kind: IoErrorKind, diagnostics: list[ModelDiagnostic]) -> list[ModelDiagnostic]:
    """Raise one IoError of kind that lists every error among diagnostics, else return them."""
    errors = tuple(d for d in diagnostics if d.severity is Severity.ERROR)
    if errors:
        raise IoError(kind, "; ".join(str(d) for d in errors), errors)
    return diagnostics


def _save_document(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _malformed(message: str) -> IoError:
    return IoError(IoErrorKind.MALFORMED, message)


def _conformance(message: str) -> IoError:
    return IoError(IoErrorKind.CONFORMANCE, message)


def _list_field(record: dict, key: str, where: str) -> list:
    value = record.get(key, [])
    if not isinstance(value, list):
        raise _malformed(f"{where}.{key} must be an array")
    return value


def _check_record(record: object, required: frozenset, allowed: frozenset, strings: tuple,
                  where: str) -> None:
    """Raise IoError Malformed, at the record's path where, for a record that is not an
    object, lacks a key or has an unknown one, or has a non-string value under strings.
    Each loader calls it for its document, and for a record only once the record's
    inline test has failed, so the path is formatted only to report."""
    if not isinstance(record, dict):
        raise _malformed(f"{where} must be an object")
    missing = required - record.keys()
    if missing:
        raise _malformed(f"{where} is missing key(s) {sorted(missing)}")
    unknown = record.keys() - allowed
    if unknown:
        raise _malformed(f"{where} has unknown key(s) {sorted(unknown)}")
    for key in strings:  # an optional key may be absent
        if not isinstance(record.get(key, ""), str):
            raise _malformed(f"{where}.{key} must be a string")


# ---------- Structural model ----------

def structural_from_document(doc: dict) -> StructuralModel:
    """Build a StructuralModel from a parsed bocl-model/1 document. Each rule is
    one inline test, in the order the loader reads the fields. A record's path is
    formatted only to report its fault, but for the one each class gives _list_field."""
    _check_record(doc, {"schemaVersion", "name"}, _MODEL_KEYS, ("name",), "model document")

    classes = []
    for i, raw in enumerate(_list_field(doc, "classes", "model document")):
        if not (isinstance(raw, dict) and raw.keys() <= _CLASS_KEYS and "name" in raw):
            _check_record(raw, {"name"}, _CLASS_KEYS, (), f"classes[{i}]")
        attrs = []
        for j, araw in enumerate(_list_field(raw, "attributes", f"classes[{i}]")):
            if not (isinstance(araw, dict) and araw.keys() == _ATTRIBUTE_KEYS
                    and isinstance(araw["type"], str)):
                _check_record(araw, _ATTRIBUTE_KEYS, _ATTRIBUTE_KEYS, ("type",),
                              f"classes[{i}].attributes[{j}]")
            ptype = _TYPES.get(araw["type"])
            if ptype is None:
                raise _malformed(f"classes[{i}].attributes[{j}].type: "
                                 f"unknown type {araw['type']!r}")
            if not isinstance(araw["name"], str):
                raise _malformed(f"classes[{i}].attributes[{j}].name must be a string")
            attrs.append(Attribute(araw["name"], ptype))
        if not isinstance(raw["name"], str):
            raise _malformed(f"classes[{i}].name must be a string")
        classes.append(ClassDef(raw["name"], tuple(attrs)))

    # An unknown class name gets a placeholder ClassDef; validate_structural
    # reports it as "not a model class". A duplicated name means its first
    # class, the one StructuralModel indexes.
    by_name = _by_name(classes)

    associations = []
    for i, raw in enumerate(_list_field(doc, "associations", "model document")):
        if not (isinstance(raw, dict) and raw.keys() == _ASSOCIATION_KEYS):
            _check_record(raw, _ASSOCIATION_KEYS, _ASSOCIATION_KEYS, (), f"associations[{i}]")
        if not (isinstance(raw["ends"], list) and len(raw["ends"]) == 2):
            raise _malformed(f"associations[{i}].ends must be an array of exactly two ends")
        ends = []
        for j, eraw in enumerate(raw["ends"]):
            if not (isinstance(eraw, dict) and eraw.keys() == _ASSOC_END_KEYS
                    and isinstance(eraw["target"], str) and isinstance(eraw["role"], str)):
                _check_record(eraw, _ASSOC_END_KEYS, _ASSOC_END_KEYS, ("target", "role"),
                              f"associations[{i}].ends[{j}]")
            mult = eraw["multiplicity"]
            if not (isinstance(mult, dict) and mult.keys() == _MULTIPLICITY_KEYS):
                _check_record(mult, _MULTIPLICITY_KEYS, _MULTIPLICITY_KEYS, (),
                              f"associations[{i}].ends[{j}].multiplicity")
            lower, upper = mult["lower"], mult["upper"]
            if not isinstance(lower, int) or isinstance(lower, bool):
                raise _malformed(f"associations[{i}].ends[{j}].multiplicity.lower "
                                 "must be an integer")
            if upper == "*":
                upper = None
            elif not isinstance(upper, int) or isinstance(upper, bool):
                raise _malformed(f"associations[{i}].ends[{j}].multiplicity.upper "
                                 'must be an integer or "*"')
            target = by_name.get(eraw["target"]) or ClassDef(eraw["target"])
            ends.append(AssociationEnd(eraw["role"], target, Multiplicity(lower, upper)))
        if not isinstance(raw["name"], str):
            raise _malformed(f"associations[{i}].name must be a string")
        associations.append(BinaryAssociation(raw["name"], *ends))

    constraints = []
    for i, raw in enumerate(_list_field(doc, "constraints", "model document")):
        if not (isinstance(raw, dict) and raw.keys() <= _CONSTRAINT_KEYS
                and isinstance(raw.get("name"), str) and isinstance(raw.get("context"), str)
                and isinstance(raw.get("expression"), str)
                and isinstance(raw.get("language", ""), str)):
            _check_record(raw, {"name", "context", "expression"}, _CONSTRAINT_KEYS,
                          ("context", "language", "name", "expression"), f"constraints[{i}]")
        context = by_name.get(raw["context"]) or ClassDef(raw["context"])
        language = raw.get("language", "OCL")
        constraints.append(ConstraintDef(raw["name"], context, raw["expression"], language))

    return StructuralModel(doc["name"], tuple(classes), tuple(associations), tuple(constraints))


def structural_to_document(model: StructuralModel) -> dict:
    return {
        "schemaVersion": MODEL_SCHEMA_VERSION,
        "name": model.name,
        "classes": [
            {
                "name": cls.name,
                "attributes": [
                    {"name": a.name, "type": a.type.value} for a in cls.attributes
                ],
            }
            for cls in model.classes
        ],
        "associations": [
            {
                "name": assoc.name,
                "ends": [
                    {
                        "role": end.role,
                        "target": end.target.name,
                        "multiplicity": {
                            "lower": end.multiplicity.lower,
                            "upper": "*" if end.multiplicity.upper is None else end.multiplicity.upper,
                        },
                    }
                    for end in assoc.ends()
                ],
            }
            for assoc in model.associations
        ],
        "constraints": [
            {
                "name": con.name,
                "context": con.context_class.name,
                "expression": con.expression,
                "language": con.language,
            }
            for con in model.constraints
        ],
    }


def load_structural(path: str | Path) -> StructuralModel:
    """Load and validate a structural model; raises IoError on any failure."""
    try:
        model = structural_from_document(_load_document(path, MODEL_SCHEMA_VERSION))
        _raise_errors(IoErrorKind.VALIDATION, validate_structural(model))
        return model
    except MemoryError:
        model = None  # raise below, once this frame and the traceback hold no partial model
    raise IoError(IoErrorKind.NOT_FOUND, f"cannot read {path}: out of memory")


def save_structural(model: StructuralModel, path: str | Path) -> None:
    _save_document(structural_to_document(model), path)


# ---------- Object model ----------

def _decode_slot(value: object, target: type, index: int, attr_name: str) -> object:
    """Decode what JSON cannot express for a slot of Python type target: a
    "YYYY-MM-DD" string for a date, or a whole number for a real. Any other
    value, for any target, is returned unchanged for validate_conformance."""
    if target is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    if target is not datetime.date or not isinstance(value, str):
        return value
    if _DATE_RE.match(value):
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as error:
            problem = str(error)
    else:
        problem = f'date must be "YYYY-MM-DD", found {value!r}'
    raise _conformance(f"objects[{index}].slots[{attr_name}]: {problem}")


def objects_from_document(doc: dict, model: StructuralModel) -> ObjectModel:
    """Build an ObjectModel from a parsed bocl-objects/1 document.

    Raises IoError for a malformed shape, a date it cannot decode, or a
    link it cannot wire to the structural model. An unknown class gets a
    placeholder ClassDef; that and every slot problem are left to
    validate_conformance. The objects are built first, into the ObjectModel
    returned; each link end is then that model's object_named() object, so
    of a duplicated object name the first object is the one linked. The
    document itself is not changed.
    """
    _check_record(doc, {"schemaVersion", "name"}, _OBJECTS_DOC_KEYS, ("name",),
                  "objects document")

    classes = model._classes
    objects = []
    for i, raw in enumerate(_list_field(doc, "objects", "objects document")):
        if not (isinstance(raw, dict) and raw.keys() <= _OBJECT_KEYS  # the hot case, inline
                and isinstance(raw.get("name"), str) and isinstance(raw.get("class"), str)):
            _check_record(raw, _OBJECT_REQUIRED, _OBJECT_KEYS, ("name", "class"), f"objects[{i}]")
        slots_raw = raw.get("slots", {})
        if not isinstance(slots_raw, dict):
            raise _malformed(f"objects[{i}].slots must be an object")
        cls = classes.get(raw["class"]) or ClassDef(raw["class"])
        types = cls._slot_types
        slots = dict(slots_raw)
        for attr_name, value in slots_raw.items():
            target = types.get(attr_name)
            if target is not None and type(value) is not target:
                slots[attr_name] = _decode_slot(value, target, i, attr_name)
        objects.append(ObjectInstance(raw["name"], cls, slots))

    result = ObjectModel(doc["name"], tuple(objects))
    by_name = result._objects
    # Per association name: the association, and the end index of each role.
    wiring = {assoc_name: (assoc, {assoc.end1.role: 0, assoc.end2.role: 1})
              for assoc_name, assoc in model._associations.items()}

    links = []
    for i, raw in enumerate(_list_field(doc, "links", "objects document")):
        if not (isinstance(raw, dict) and raw.keys() <= _LINK_KEYS and "ends" in raw
                and isinstance(raw.get("association"), str)):  # the hot case, inline
            _check_record(raw, _LINK_REQUIRED, _LINK_KEYS, ("association",), f"links[{i}]")
        assoc_name = raw["association"]
        if assoc_name not in wiring:
            raise _conformance(f"links[{i}]: unknown association {assoc_name!r}")
        assoc, index = wiring[assoc_name]
        ends_raw = raw["ends"]
        if not isinstance(ends_raw, list) or len(ends_raw) != 2:
            raise _malformed(f"links[{i}].ends must be an array of exactly two ends")
        ends = [None, None]
        for j, end in enumerate(ends_raw):
            if not (isinstance(end, dict) and end.keys() == _END_KEYS
                    and isinstance(end["role"], str) and isinstance(end["object"], str)):
                _check_record(end, _END_KEYS, _END_KEYS, ("role", "object"),
                              f"links[{i}].ends[{j}]")
            k = index.get(end["role"])
            if k is None or ends[k] is not None:
                what = f"association '{assoc_name}' has no" if k is None else "duplicate"
                raise _conformance(f"links[{i}].ends[{j}]: {what} role {end['role']!r}")
            ends[k] = by_name.get(end["object"])
            if ends[k] is None:
                raise _conformance(f"links[{i}].ends[{j}]: unknown object {end['object']!r}")
        link_name = raw["name"] if "name" in raw else f"{assoc_name}_{i}"
        if not isinstance(link_name, str):
            raise _malformed(f"links[{i}].name must be a string")
        links.append((link_name, assoc, ends[0], ends[1]))

    result._attach(links)
    return result


def objects_to_document(objects: ObjectModel) -> dict:
    def slot_value(value: object) -> object:
        return value.isoformat() if isinstance(value, datetime.date) else value

    return {
        "schemaVersion": OBJECTS_SCHEMA_VERSION,
        "name": objects.name,
        "objects": [
            {
                "name": obj.name,
                "class": obj.classifier.name,
                "slots": {key: slot_value(val) for key, val in sorted(obj.slots.items())},
            }
            for obj in objects.objects
        ],
        "links": [
            {
                "name": name,
                "association": assoc.name,
                "ends": [
                    {"role": assoc.end1.role, "object": end1.name},
                    {"role": assoc.end2.role, "object": end2.name},
                ],
            }
            for name, assoc, end1, end2 in objects.links
        ],
    }


def load_objects(
    path: str | Path, model: StructuralModel
) -> tuple[ObjectModel, list[ModelDiagnostic]]:
    """Load an object model and validate conformance against the model.

    Error diagnostics abort with IoError Conformance; warnings (for
    multiplicity counts) are returned with the result.
    """
    try:
        objects = objects_from_document(_load_document(path, OBJECTS_SCHEMA_VERSION), model)
        return objects, _raise_errors(IoErrorKind.CONFORMANCE, validate_conformance(objects, model))
    except MemoryError:
        objects = None  # raise below, once this frame and the traceback hold no partial model
    raise IoError(IoErrorKind.NOT_FOUND, f"cannot read {path}: out of memory")


def save_objects(objects: ObjectModel, path: str | Path) -> None:
    _save_document(objects_to_document(objects), path)

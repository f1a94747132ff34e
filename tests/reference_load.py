"""Independent reading of the bocl-objects/1 and bocl-model/1 loading
rules, used as a differential oracle for `load_objects` and
`load_structural`.

It follows README's "JSON formats" section and the loader's messages
with plain loops and linear scans. It shares no code with
`bocl.model_io` or `validate_conformance`, and reads the structural model
only through its public fields.

`reference_load(doc, model)` takes a parsed objects document and returns
either:
  * `RefLoadError(kind, message)`: the `IoError` kind value and the text
    of `str(IoError)` without the "<kind>: " prefix; or
  * `RefLoaded(objects, adjacency, warnings)`: the objects as
    `(name, class name, slots)` rows in name order, the adjacency as
    `{(object name, role): [far object names]}` for every role navigable
    from each object's class, and the multiplicity warnings as text.

Rules it implements:
  * the document is an object whose `schemaVersion` is "bocl-objects/1",
    with keys `schemaVersion` and `name` (a string) and optionally
    `objects` and `links` (arrays); every record rejects unknown keys;
  * an object is `{name, class, slots?}` with string name and class and
    an object of slots; a date slot of a known attribute must be a
    "YYYY-MM-DD" string of ASCII digits naming a real day, and a whole
    number in a real slot becomes a float (infinite if it is too large);
  * a link is `{association, ends, name?}`: a known association, exactly
    two `{role, object}` ends naming its two roles once each and
    existing objects (the first of a repeated name); its name defaults
    to "<association>_<position>";
  * then, over objects by name: no repeated name, identifier names, a
    known class, known attributes, and slot values of the attribute's
    Python type (`int` within 64 bits, finite `float`, `str`, `bool`,
    `datetime.date`); then, over links by (association, end1 name, end2
    name, link name), each end object of its end's class;
  * with no error, one warning per object and navigable role, in role
    order, whose count of distinct linked objects is outside the end's
    multiplicity.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import string

from bocl.model import StructuralModel

_IDENT_START = string.ascii_letters + "_"
_IDENT_REST = _IDENT_START + string.digits
_PYTHON_TYPES = {"int": int, "real": float, "str": str, "bool": bool, "date": datetime.date}


@dataclasses.dataclass(frozen=True)
class RefLoadError:
    kind: str  # an IoErrorKind value: "Malformed", "SchemaVersion" or "Conformance"
    message: str


@dataclasses.dataclass(frozen=True)
class RefLoaded:
    objects: list  # [(name, class name, slots)]
    adjacency: dict  # {(object name, role): [far object names]}
    warnings: list  # ["warning: objects[...]: ..."]


class _Reject(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclasses.dataclass
class _Object:
    name: str
    class_name: str
    cls: object  # the model's ClassDef, or None for an unknown class
    slots: dict


def reference_load(doc: object, model: StructuralModel) -> RefLoadError | RefLoaded:
    try:
        objects, links = _read(doc, model)
        errors = _errors(objects, links)
        if errors:
            raise _Reject("Conformance", "; ".join(f"error: {e}" for e in errors))
    except _Reject as reject:
        return RefLoadError(reject.kind, reject.message)
    ordered = sorted(objects, key=lambda o: o.name)
    adjacency = {}
    warnings = []
    for obj in ordered:
        roles = _navigable_roles(model, obj.class_name)
        for role in sorted(roles):
            assoc, far_end = roles[role]
            far = _far_names(links, assoc, far_end, obj.name)
            adjacency[(obj.name, role)] = far
            lower, upper = far_end.multiplicity.lower, far_end.multiplicity.upper
            if len(far) < lower or (upper is not None and len(far) > upper):
                shown = "*" if upper is None else str(upper)
                warnings.append(
                    f"warning: objects[{obj.name}]: {len(far)} object(s) linked via "
                    f"'{role}', multiplicity is {lower}..{shown}"
                )
    rows = [(o.name, o.class_name, o.slots) for o in ordered]
    return RefLoaded(rows, adjacency, warnings)


# ---------- Reading the document ----------

def _malformed(message: str) -> _Reject:
    return _Reject("Malformed", message)


def _conformance(message: str) -> _Reject:
    return _Reject("Conformance", message)


def _record(raw: object, required: list, optional: list, strings: list, where: str) -> None:
    if not isinstance(raw, dict):
        raise _malformed(f"{where} must be an object")
    missing = sorted(key for key in required if key not in raw)
    if missing:
        raise _malformed(f"{where} is missing key(s) {missing}")
    unknown = sorted(key for key in raw if key not in required and key not in optional)
    if unknown:
        raise _malformed(f"{where} has unknown key(s) {unknown}")
    for key in strings:
        if not isinstance(raw[key], str):
            raise _malformed(f"{where}.{key} must be a string")


def _array(doc: dict, key: str, where: str = "objects document") -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise _malformed(f"{where}.{key} must be an array")
    return value


def _read(doc: object, model: StructuralModel) -> tuple[list, list]:
    if not isinstance(doc, dict):
        raise _malformed("document root must be an object")
    if doc.get("schemaVersion") != "bocl-objects/1":
        found = doc.get("schemaVersion")
        raise _Reject("SchemaVersion", f"expected schemaVersion 'bocl-objects/1', found {found!r}")
    _record(doc, ["schemaVersion", "name"], ["objects", "links"], ["name"], "objects document")

    objects = []
    for i, raw in enumerate(_array(doc, "objects")):
        where = f"objects[{i}]"
        _record(raw, ["name", "class"], ["slots"], ["name", "class"], where)
        slots = raw.get("slots", {})
        if not isinstance(slots, dict):
            raise _malformed(f"{where}.slots must be an object")
        cls = _first(model.classes, raw["class"])
        values = {}
        for slot, value in slots.items():
            attr = None if cls is None else _first(cls.attributes, slot)
            if attr is not None and attr.type.value == "real" and type(value) is int:
                try:
                    value = float(value)
                except OverflowError:
                    value = math.inf if value > 0 else -math.inf
            elif attr is not None and attr.type.value == "date" and isinstance(value, str):
                value = _date(value, f"{where}.slots[{slot}]")
            values[slot] = value
        objects.append(_Object(raw["name"], raw["class"], cls, values))

    links = []
    for i, raw in enumerate(_array(doc, "links")):
        where = f"links[{i}]"
        _record(raw, ["association", "ends"], ["name"], ["association"], where)
        assoc = _first(model.associations, raw["association"])
        if assoc is None:
            raise _conformance(f"{where}: unknown association {raw['association']!r}")
        ends = raw["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise _malformed(f"{where}.ends must be an array of exactly two ends")
        by_role = {}
        for j, end in enumerate(ends):
            ewhere = f"{where}.ends[{j}]"
            _record(end, ["role", "object"], [], ["role", "object"], ewhere)
            role = end["role"]
            if role not in (assoc.end1.role, assoc.end2.role):
                raise _conformance(f"{ewhere}: association '{assoc.name}' has no role {role!r}")
            if role in by_role:
                raise _conformance(f"{ewhere}: duplicate role {role!r}")
            target = _first(objects, end["object"])
            if target is None:
                raise _conformance(f"{ewhere}: unknown object {end['object']!r}")
            by_role[role] = target
        name = raw.get("name", f"{assoc.name}_{i}")
        if not isinstance(name, str):
            raise _malformed(f"{where}.name must be a string")
        links.append((name, assoc, by_role[assoc.end1.role], by_role[assoc.end2.role]))
    return objects, links


def _first(items, name: str):
    for item in items:
        if item.name == name:
            return item
    return None


def _date(text: str, where: str) -> datetime.date:
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4] != "-" or text[7] != "-" or any(
        c not in string.digits for c in digits
    ):
        raise _conformance(f'{where}: date must be "YYYY-MM-DD", found {text!r}')
    try:
        return datetime.date(int(text[:4]), int(text[5:7]), int(text[8:]))
    except ValueError as error:
        raise _conformance(f"{where}: {error}") from None


# ---------- Conformance ----------

def _is_identifier(name: str) -> bool:
    return name != "" and name[0] in _IDENT_START and all(c in _IDENT_REST for c in name)


def _errors(objects: list, links: list) -> list[str]:
    errors = []
    seen = []
    for obj in sorted(objects, key=lambda o: o.name):
        where = f"objects[{obj.name}]"
        if obj.name in seen:
            errors.append(f"{where}: duplicate object name '{obj.name}'")
        seen.append(obj.name)
        if not _is_identifier(obj.name):
            errors.append(f"{where}: object name '{obj.name}' is not an identifier")
        if obj.cls is None:
            errors.append(f"{where}: unknown class '{obj.class_name}'")
            continue
        for slot, value in obj.slots.items():
            attr = _first(obj.cls.attributes, slot)
            if attr is None:
                errors.append(
                    f"{where}.slots[{slot}]: class '{obj.cls.name}' has no attribute '{slot}'"
                )
                continue
            expected = _PYTHON_TYPES[attr.type.value]
            if type(value) is not expected:
                problem, tail = "type mismatch", "is not"
            elif expected is int and not -(2**63) <= value <= 2**63 - 1:
                problem, tail = "out of range", "does not fit in 64 bits"
            elif expected is float and (math.isnan(value) or math.isinf(value)):
                problem, tail = "out of range", "is not finite"
            else:
                continue
            try:
                shown = repr(value)
            except ValueError:  # an int of over 4300 digits
                shown = f"of {value.bit_length()} bits"
            errors.append(
                f"{where}.slots[{slot}]: slot {problem}: "
                f"attribute '{slot}' is {attr.type.value}, value {shown} {tail}"
            )
    for name, assoc, end1, end2 in sorted(
        links, key=lambda link: (link[1].name, link[2].name, link[3].name, link[0])
    ):
        for label, end, obj in (("end1", assoc.end1, end1), ("end2", assoc.end2, end2)):
            if obj.class_name != end.target.name:
                errors.append(
                    f"links[{name}].{label}: object '{obj.name}' is a {obj.class_name}, "
                    f"end '{end.role}' expects {end.target.name}"
                )
    return errors


# ---------- Navigation ----------

def _navigable_roles(model: StructuralModel, class_name: str) -> dict:
    """Role -> (association, far end) for each end reachable from the class;
    a role reachable twice keeps the last association in name order."""
    roles = {}
    for assoc in model.associations:
        if assoc.end2.target.name == class_name:
            roles[assoc.end1.role] = (assoc, assoc.end1)
        if assoc.end1.target.name == class_name:
            roles[assoc.end2.role] = (assoc, assoc.end2)
    return roles


def _far_names(links: list, assoc, far_end, near_name: str) -> list[str]:
    names = set()
    for _, link_assoc, end1, end2 in links:
        if link_assoc.name != assoc.name:
            continue
        if far_end is assoc.end1 and end2.name == near_name:
            names.add(end1.name)
        if far_end is assoc.end2 and end1.name == near_name:
            names.add(end2.name)
    return sorted(names)


# ---------- Structural models ----------
#
# `reference_structural(doc)` takes a parsed model document and returns
# either a `RefLoadError` as above or `RefStructural(classes, associations,
# constraints, diagnostics)`: the rows of the model that `load_structural`
# builds and the text of every `validate_structural` diagnostic, in order.
# Classes and associations are in name order, a repeated name in document
# order; constraints in document order.
#
# Reading rules: the document has keys `schemaVersion` and `name` (a
# string) and optionally `classes`, `associations` and `constraints`
# (arrays). Each record is read in document order, and in each record the
# error met first is reported:
#   * a class `{name, attributes?}`: its keys, then each attribute
#     `{name, type}` (its keys, its type a string and one of the five
#     types, its name a string), then its name a string;
#   * an association `{name, ends}`: its keys, exactly two ends, then each
#     end `{role, target, multiplicity}` (its keys, target a string, role a
#     string, multiplicity `{lower, upper}` with an integer lower and an
#     integer or "*" upper), then its name a string;
#   * a constraint `{name, context, expression, language?}`: its keys,
#     then context, language, name and expression each a string.
#
# Validation rules, each an "error: <path>: <message>" line, in this order:
#   * per class: a name already used by an earlier class, a name that is
#     not an identifier; per attribute, in name order: the same two;
#   * per association: the same two; per end, end1 then end2: a role that
#     is not an identifier, a negative lower bound, an upper bound below 1,
#     a lower bound above the upper, a target that is not a class of the
#     model;
#   * per class again, a repeated name again too: each role navigable from
#     it, association by association and end1 before end2, that an earlier
#     end navigable from it already has;
#   * per constraint: a repeated name, a name that is not an identifier, a
#     context that is not a class of the model, a language other than OCL.

_TYPE_NAMES = ("int", "real", "str", "bool", "date")


@dataclasses.dataclass(frozen=True)
class RefStructural:
    classes: list  # [(name, [(attribute name, type name)])]
    associations: list  # [(name, [(role, target, lower, upper or None)] * 2)]
    constraints: list  # [(name, context, expression, language)]
    diagnostics: list  # ["error: <path>: <message>"]


def reference_structural(doc: object) -> RefLoadError | RefStructural:
    try:
        classes, associations, constraints = _read_model(doc)
    except _Reject as reject:
        return RefLoadError(reject.kind, reject.message)
    classes = sorted(classes, key=lambda c: c[0])
    associations = sorted(associations, key=lambda a: a[0])
    return RefStructural(classes, associations, constraints,
                         _structural_errors(classes, associations, constraints))


def _read_model(doc: object) -> tuple[list, list, list]:
    if not isinstance(doc, dict):
        raise _malformed("document root must be an object")
    if doc.get("schemaVersion") != "bocl-model/1":
        found = doc.get("schemaVersion")
        raise _Reject("SchemaVersion", f"expected schemaVersion 'bocl-model/1', found {found!r}")
    top = "model document"
    _record(doc, ["schemaVersion", "name"], ["classes", "associations", "constraints"], ["name"], top)

    classes = []
    for i, raw in enumerate(_array(doc, "classes", top)):
        where = f"classes[{i}]"
        _record(raw, ["name"], ["attributes"], [], where)
        attributes = []
        for j, attr in enumerate(_array(raw, "attributes", where)):
            awhere = f"{where}.attributes[{j}]"
            _record(attr, ["name", "type"], [], ["type"], awhere)
            if attr["type"] not in _TYPE_NAMES:
                raise _malformed(f"{awhere}.type: unknown type {attr['type']!r}")
            _record(attr, ["name", "type"], [], ["name"], awhere)
            attributes.append((attr["name"], attr["type"]))
        _record(raw, ["name"], ["attributes"], ["name"], where)
        classes.append((raw["name"], sorted(attributes, key=lambda a: a[0])))

    associations = []
    for i, raw in enumerate(_array(doc, "associations", top)):
        where = f"associations[{i}]"
        _record(raw, ["name", "ends"], [], [], where)
        if not isinstance(raw["ends"], list) or len(raw["ends"]) != 2:
            raise _malformed(f"{where}.ends must be an array of exactly two ends")
        ends = []
        for j, end in enumerate(raw["ends"]):
            ewhere = f"{where}.ends[{j}]"
            _record(end, ["role", "target", "multiplicity"], [], ["target", "role"], ewhere)
            mwhere = f"{ewhere}.multiplicity"
            _record(end["multiplicity"], ["lower", "upper"], [], [], mwhere)
            lower, upper = end["multiplicity"]["lower"], end["multiplicity"]["upper"]
            if type(lower) is not int:
                raise _malformed(f"{mwhere}.lower must be an integer")
            if upper != "*" and type(upper) is not int:
                raise _malformed(f'{mwhere}.upper must be an integer or "*"')
            ends.append((end["role"], end["target"], lower, None if upper == "*" else upper))
        _record(raw, ["name", "ends"], [], ["name"], where)
        associations.append((raw["name"], ends))

    constraints = []
    for i, raw in enumerate(_array(doc, "constraints", top)):
        where = f"constraints[{i}]"
        fields = ["name", "context", "expression"]
        _record(raw, fields, ["language"], ["context"], where)
        language = raw.get("language", "OCL")
        if not isinstance(language, str):
            raise _malformed(f"{where}.language must be a string")
        _record(raw, fields, ["language"], ["name", "expression"], where)
        constraints.append((raw["name"], raw["context"], raw["expression"], language))
    return classes, associations, constraints


def _structural_errors(classes: list, associations: list, constraints: list) -> list[str]:
    errors = []
    class_names = [name for name, _ in classes]

    def names(kind: str, name: str, earlier: list, path: str) -> None:
        if name in earlier:
            errors.append(f"error: {path}: duplicate {kind} name '{name}'")
        if not _is_identifier(name):
            errors.append(f"error: {path}: {kind} name '{name}' is not an identifier")

    for i, (name, attributes) in enumerate(classes):
        names("class", name, class_names[:i], f"classes[{name}]")
        for j, (attr, _) in enumerate(attributes):
            earlier = [a for a, _ in attributes[:j]]
            names("attribute", attr, earlier, f"classes[{name}].attributes[{attr}]")

    for i, (name, ends) in enumerate(associations):
        path = f"associations[{name}]"
        names("association", name, [a for a, _ in associations[:i]], path)
        for label, (role, target, lower, upper) in zip(("end1", "end2"), ends):
            if not _is_identifier(role):
                errors.append(f"error: {path}.{label}: role '{role}' is not an identifier")
            bounds = f"error: {path}.{label}.multiplicity"
            if lower < 0:
                errors.append(f"{bounds}: negative lower bound {lower}")
            if upper is not None and upper < 1:
                errors.append(f"{bounds}: upper bound {upper} < 1")
            if upper is not None and lower > upper:
                errors.append(f"{bounds}: lower > upper ({lower} > {upper})")
            if target not in class_names:
                errors.append(f"error: {path}.{label}: end target '{target}' is not a model class")

    for cls in class_names:
        seen = []
        for name, (end1, end2) in associations:
            for (role, _, _, _), (_, near, _, _) in ((end1, end2), (end2, end1)):
                if near != cls:
                    continue
                if role in seen:
                    errors.append(f"error: associations[{name}]: role '{role}' is ambiguous "
                                  f"when navigating from class '{cls}'")
                seen.append(role)

    for i, (name, context, _, language) in enumerate(constraints):
        path = f"constraints[{name}]"
        names("constraint", name, [c[0] for c in constraints[:i]], path)
        if context not in class_names:
            errors.append(f"error: {path}: context class '{context}' is not a model class")
        if language != "OCL":
            errors.append(f"error: {path}: unsupported constraint language '{language}'")
    return errors

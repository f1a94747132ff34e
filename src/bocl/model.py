"""Structural models, object models, and conformance validation."""

from __future__ import annotations

import datetime
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def is_identifier(name: str) -> bool:
    return bool(IDENTIFIER_RE.match(name))


# ---------- Structural model ----------

class PrimitiveType(Enum):
    INT = "int"
    REAL = "real"
    STR = "str"
    BOOL = "bool"
    DATE = "date"


# The Python type of a slot value, matched exactly: True is not an int, a
# datetime is not a date, and 2 is not a real.
SLOT_TYPES: dict[PrimitiveType, type] = {
    PrimitiveType.INT: int,
    PrimitiveType.REAL: float,
    PrimitiveType.STR: str,
    PrimitiveType.BOOL: bool,
    PrimitiveType.DATE: datetime.date,
}


@dataclass(frozen=True)
class Attribute:
    name: str
    type: PrimitiveType


@dataclass(frozen=True)
class ClassDef:
    name: str
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.attributes, key=lambda a: a.name))
        object.__setattr__(self, "attributes", ordered)
        # Not a field, as StructuralModel's tables; the first of a duplicate name wins.
        object.__setattr__(self, "_attributes", {a.name: a for a in reversed(ordered)})

    def attribute_named(self, name: str) -> Attribute | None:
        return self._attributes.get(name)


@dataclass(frozen=True)
class Multiplicity:
    """Allowed link count at an association end; upper None means unbounded."""

    lower: int
    upper: int | None

    def __str__(self) -> str:
        upper = "*" if self.upper is None else str(self.upper)
        return f"{self.lower}..{upper}"


@dataclass(frozen=True)
class AssociationEnd:
    role: str
    target: ClassDef
    multiplicity: Multiplicity


@dataclass(frozen=True)
class BinaryAssociation:
    name: str
    end1: AssociationEnd
    end2: AssociationEnd

    def ends(self) -> tuple[AssociationEnd, AssociationEnd]:
        return (self.end1, self.end2)


@dataclass(slots=True, unsafe_hash=True)
class ConstraintDef:
    name: str
    context_class: ClassDef
    expression: str
    language: str = "OCL"


@dataclass(frozen=True)
class StructuralModel:
    name: str
    classes: tuple[ClassDef, ...] = ()
    associations: tuple[BinaryAssociation, ...] = ()
    constraints: tuple[ConstraintDef, ...] = ()

    def __post_init__(self) -> None:
        # Classes and associations are sets; keep them in a canonical order.
        # Constraint order is declaration order and is preserved.
        object.__setattr__(
            self, "classes", tuple(sorted(self.classes, key=lambda c: c.name))
        )
        object.__setattr__(
            self,
            "associations",
            tuple(sorted(self.associations, key=lambda a: a.name)),
        )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        # Lookup tables, built eagerly so the model stays immutable. They are
        # plain attributes, not fields: equality, hash and repr ignore them.
        # On duplicate names the first class or association wins; an
        # ambiguous role keeps the last association in name order.
        classes: dict[str, ClassDef] = {}
        for cls in self.classes:
            classes.setdefault(cls.name, cls)
        associations: dict[str, BinaryAssociation] = {}
        roles: dict[str, dict[str, tuple[BinaryAssociation, AssociationEnd]]] = {}
        for assoc in self.associations:
            associations.setdefault(assoc.name, assoc)
            for end, opposite in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)):
                roles.setdefault(opposite.target.name, {})[end.role] = (assoc, end)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_associations", associations)
        object.__setattr__(self, "_roles", roles)

    def class_named(self, name: str) -> ClassDef | None:
        return self._classes.get(name)

    def association_named(self, name: str) -> BinaryAssociation | None:
        return self._associations.get(name)

    def navigable_ends(
        self, cls: ClassDef
    ) -> MappingProxyType[str, tuple[BinaryAssociation, AssociationEnd]]:
        """Role name -> (association, far end) for every end reachable from cls; read-only."""
        return MappingProxyType(self._roles.get(cls.name, {}))


# ---------- Object model ----------

@dataclass(slots=True)
class ObjectInstance:
    name: str
    classifier: ClassDef
    slots: dict[str, int | float | str | bool | datetime.date] = field(default_factory=dict)


_NAME = operator.attrgetter("name")


class _Links:
    """ObjectModel.links: (name, association, end1, end2) tuples, sorted by
    association, end1 and end2 object names, then link name, on first read;
    evaluation and conformance read only adjacency rows."""

    def __get__(self, model: ObjectModel | None, owner: type | None = None) -> tuple:
        if model is None:
            return ()  # the field's default
        links = model.__dict__["links"]  # read once: another thread may replace it
        if type(links) is list:
            links = tuple(sorted(links, key=lambda link: (
                link[1].name, link[2].name, link[3].name, link[0])))
            model.__dict__["links"] = links
        return links

    def __set__(self, model: ObjectModel, links) -> None:
        model.__dict__["links"] = list(links)


@dataclass(frozen=True)
class ObjectModel:
    name: str
    objects: tuple[ObjectInstance, ...] = ()
    links: tuple[tuple[str, BinaryAssociation, ObjectInstance, ObjectInstance], ...] = _Links()

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(sorted(self.objects, key=lambda o: o.name)))
        # Lookup tables, built eagerly as in StructuralModel; the first object
        # of a duplicate name wins.
        by_name: dict[str, ObjectInstance] = {}
        by_class: dict[str, list[ObjectInstance]] = {}
        for obj in self.objects:
            by_name.setdefault(obj.name, obj)
            by_class.setdefault(obj.classifier.name, []).append(obj)
        object.__setattr__(self, "_objects", by_name)
        object.__setattr__(self, "_instances", by_class)
        object.__setattr__(self, "_adjacency", _adjacency(self.links))

    @classmethod
    def _wired(cls, name: str, objects: tuple[ObjectInstance, ...], links: list) -> ObjectModel:
        """The model over links as (name, association, end1, end2) tuples, checked by the loader."""
        model = cls(name, objects)
        model.__dict__.update(links=links, _adjacency=_adjacency(links))
        return model

    def object_named(self, name: str) -> ObjectInstance | None:
        return self._objects.get(name)


def _adjacency(links) -> dict[str, tuple[dict, dict]]:
    """Association name -> (toward end1, toward end2), each a dict from near object
    name to the distinct far objects sorted by name, from (name, association, end1,
    end2) links; of two far objects of one name, the later link's wins."""
    adjacency: dict[str, tuple[dict, dict]] = {}
    for _, assoc, end1, end2 in links:
        if assoc.name not in adjacency:
            adjacency[assoc.name] = ({}, {})
        toward_end1, toward_end2 = adjacency[assoc.name]
        toward_end1.setdefault(end2.name, []).append(end1)
        toward_end2.setdefault(end1.name, []).append(end2)
    for rows in (rows for toward in adjacency.values() for rows in toward):
        for row in rows.values():
            if len(row) > 1:
                row.sort(key=_NAME)
                row[:] = dict(zip(map(_NAME, row), row)).values()
    return adjacency


# ---------- Diagnostics ----------

class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ModelDiagnostic:
    severity: Severity
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: {self.path}: {self.message}"


class UnknownRoleError(Exception):
    def __init__(self, role: str, class_name: str):
        super().__init__(f"unknown role '{role}' navigable from class '{class_name}'")
        self.role = role
        self.class_name = class_name


def _error(path: str, message: str) -> ModelDiagnostic:
    return ModelDiagnostic(Severity.ERROR, path, message)


def _warning(path: str, message: str) -> ModelDiagnostic:
    return ModelDiagnostic(Severity.WARNING, path, message)


# ---------- Validation ----------

def _name_errors(path: str, kind: str, name: str, seen: set[str]) -> list[ModelDiagnostic]:
    """The diagnostics of a name already in seen and of a name that is not an identifier."""
    return [_error(path, message) for bad, message in (
        (name in seen, f"duplicate {kind} name '{name}'"),
        (not is_identifier(name), f"{kind} name '{name}' is not an identifier"),
    ) if bad]


def _association_errors(model: StructuralModel, assoc: BinaryAssociation,
                        seen: set[str]) -> list[ModelDiagnostic]:
    path = f"associations[{assoc.name}]"
    diags = _name_errors(path, "association", assoc.name, seen)
    for label, end in (("end1", assoc.end1), ("end2", assoc.end2)):
        epath = f"{path}.{label}"
        if not is_identifier(end.role):
            diags.append(_error(epath, f"role '{end.role}' is not an identifier"))
        mult, mpath = end.multiplicity, f"{epath}.multiplicity"
        if mult.lower < 0:
            diags.append(_error(mpath, f"negative lower bound {mult.lower}"))
        if mult.upper is not None and mult.upper < 1:
            diags.append(_error(mpath, f"upper bound {mult.upper} < 1"))
        if mult.upper is not None and mult.lower > mult.upper:
            diags.append(_error(mpath, f"lower > upper ({mult.lower} > {mult.upper})"))
        if model.class_named(end.target.name) != end.target:
            diags.append(_error(epath, f"end target '{end.target.name}' is not a model class"))
    return diags


def validate_structural(model: StructuralModel) -> list[ModelDiagnostic]:
    """Check the structural model's own invariants.

    Returns an empty list exactly when the model is well formed; every
    finding here is Error severity. Only a record that fails its one inline
    test is checked again in detail, and only then is its path formatted.
    """
    diags: list[ModelDiagnostic] = []
    classes = model._classes

    seen_classes: set[str] = set()
    for cls in model.classes:
        if cls.name in seen_classes or not is_identifier(cls.name):
            diags += _name_errors(f"classes[{cls.name}]", "class", cls.name, seen_classes)
        seen_classes.add(cls.name)
        seen_attrs: set[str] = set()
        for attr in cls.attributes:
            if attr.name in seen_attrs or not is_identifier(attr.name):
                path = f"classes[{cls.name}].attributes[{attr.name}]"
                diags += _name_errors(path, "attribute", attr.name, seen_attrs)
            seen_attrs.add(attr.name)

    seen_assocs: set[str] = set()
    # Class name -> (role, association name) of each end navigable from it, in model order.
    navigated: dict[str, list[tuple[str, str]]] = {}
    for assoc in model.associations:
        if assoc.name in seen_assocs or not is_identifier(assoc.name) or not all(
            is_identifier(end.role) and classes.get(end.target.name) is end.target
            and (m := end.multiplicity).lower >= 0
            and (m.upper is None or m.upper >= max(m.lower, 1))
            for end in (assoc.end1, assoc.end2)
        ):
            diags += _association_errors(model, assoc, seen_assocs)
        seen_assocs.add(assoc.name)
        for end, opposite in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)):
            navigated.setdefault(opposite.target.name, []).append((end.role, assoc.name))

    # Role names must be unambiguous per navigating class: classes in name
    # order, each with its ends in association order, end1 before end2.
    for cls in model.classes:
        seen_roles: set[str] = set()
        for role, assoc_name in navigated.get(cls.name, ()):
            if role in seen_roles:
                message = f"role '{role}' is ambiguous when navigating from class '{cls.name}'"
                diags.append(_error(f"associations[{assoc_name}]", message))
            seen_roles.add(role)

    seen_constraints: set[str] = set()
    for con in model.constraints:
        context = con.context_class
        if (con.name in seen_constraints or not is_identifier(con.name)
                or classes.get(context.name) is not context or con.language != "OCL"):
            path = f"constraints[{con.name}]"
            diags += _name_errors(path, "constraint", con.name, seen_constraints)
            if model.class_named(context.name) != context:
                diags.append(_error(path, f"context class '{context.name}' is not a model class"))
            if con.language != "OCL":
                diags.append(_error(path, f"unsupported constraint language '{con.language}'"))
        seen_constraints.add(con.name)

    return diags


def validate_conformance(
    objects: ObjectModel, model: StructuralModel
) -> list[ModelDiagnostic]:
    """Check that an object model instantiates the structural model.

    Structural mismatches (unknown class, a slot of the wrong type or out
    of range, a link end object of the wrong class) are errors;
    multiplicity-count violations are warnings only. This is the one place
    that checks slot values. Only the loader checks that a link's
    association and end objects exist.
    """
    diags: list[ModelDiagnostic] = []

    # Per model class: slot name -> the exact Python type of its value.
    slot_types = {name: {slot: SLOT_TYPES[attr.type] for slot, attr in cls._attributes.items()}
                  for name, cls in model._classes.items()}
    seen_names: set[str] = set()
    for obj in objects.objects:
        if obj.name in seen_names:
            diags.append(_error(f"objects[{obj.name}]", f"duplicate object name '{obj.name}'"))
        seen_names.add(obj.name)
        if not is_identifier(obj.name):
            message = f"object name '{obj.name}' is not an identifier"
            diags.append(_error(f"objects[{obj.name}]", message))

        model_cls = model.class_named(obj.classifier.name)
        if model_cls is None:
            diags.append(_error(f"objects[{obj.name}]", f"unknown class '{obj.classifier.name}'"))
            continue
        if model_cls is not obj.classifier and model_cls != obj.classifier:
            message = f"classifier '{obj.classifier.name}' differs from the model class"
            diags.append(_error(f"objects[{obj.name}]", message))
            continue

        types = slot_types[model_cls.name]
        for slot_name, value in obj.slots.items():
            expected = types.get(slot_name)
            if type(value) is expected and (
                expected is not int or INT64_MIN <= value <= INT64_MAX
            ) and (expected is not float or math.isfinite(value)):
                continue
            if expected is None:
                message = f"class '{model_cls.name}' has no attribute '{slot_name}'"
            else:
                if type(value) is not expected:
                    problem, tail = "type mismatch", "is not"
                elif expected is int:
                    problem, tail = "out of range", "does not fit in 64 bits"
                else:
                    problem, tail = "out of range", "is not finite"
                try:
                    shown = repr(value)
                except ValueError:  # Python will not print an int of over 4300 digits
                    shown = f"of {value.bit_length()} bits"
                ptype = model_cls.attribute_named(slot_name).type.value
                detail = f"attribute '{slot_name}' is {ptype}, value {shown}"
                message = f"slot {problem}: {detail} {tail}"
            diags.append(_error(f"objects[{obj.name}].slots[{slot_name}]", message))

    # Per class name: (role, far end, rows toward that end), in role order.
    ends_of = {
        name: [(role, ends[role][1], _far_rows(objects, *ends[role])) for role in sorted(ends)]
        for name, ends in model._roles.items()
    }
    # The rows show whether a link end object has the wrong class; the links
    # are walked only to name each one.
    if diags or any(far.classifier.name != end.target.name for ends in ends_of.values()
                    for _, end, rows in ends for row in rows.values() for far in row):
        for link_name, link_assoc, end1, end2 in objects.links:
            assoc = model.association_named(link_assoc.name)
            if assoc is None:
                continue
            for label, end, obj in (("end1", assoc.end1, end1), ("end2", assoc.end2, end2)):
                if obj.classifier.name != end.target.name:
                    message = (f"object '{obj.name}' is a {obj.classifier.name}, "
                               f"end '{end.role}' expects {end.target.name}")
                    diags.append(_error(f"links[{link_name}].{label}", message))

    if any(d.severity is Severity.ERROR for d in diags):
        return diags

    # Counts are advisory: partially populated scenarios stay loadable.
    for obj in objects.objects:
        for role, end, rows in ends_of.get(obj.classifier.name, ()):
            count, mult = len(rows.get(obj.name, ())), end.multiplicity
            if count < mult.lower or (mult.upper is not None and count > mult.upper):
                message = f"{count} object(s) linked via '{role}', multiplicity is {mult}"
                diags.append(_warning(f"objects[{obj.name}]", message))

    return diags


# ---------- Queries ----------

def instances_of(objects: ObjectModel, cls: ClassDef) -> list[ObjectInstance]:
    """All instances of cls, ordered by object name."""
    return list(objects._instances.get(cls.name, ()))


def navigate(
    objects: ObjectModel,
    source: ObjectInstance,
    role_name: str,
    model: StructuralModel,
) -> list[ObjectInstance]:
    """Objects linked to source via the given role, ordered by name.

    Navigation is set-valued: an object linked twice appears once.
    Raises UnknownRoleError when no end with that role is navigable from
    source's class.
    """
    ends = model._roles.get(source.classifier.name, {})
    if role_name not in ends:
        raise UnknownRoleError(role_name, source.classifier.name)
    return list(_far_rows(objects, *ends[role_name]).get(source.name, ()))


def _far_rows(objects: ObjectModel, assoc: BinaryAssociation, end: AssociationEnd) -> dict:
    """Near object name -> far objects toward end: the table, not a copy."""
    return objects._adjacency.get(assoc.name, ({}, {}))[0 if end is assoc.end1 else 1]

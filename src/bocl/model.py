"""Structural models, object models, and conformance validation."""

from __future__ import annotations

import datetime
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def is_identifier(name: str) -> bool:
    return name.isascii() and name.isidentifier()


def _by_name(records) -> dict:
    """Name -> record, for a sequence of named records; of a duplicated name,
    the first record wins. The one index rule of every model table."""
    return {record.name: record for record in reversed(records)}


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
        # Not fields, as StructuralModel's tables: attribute name -> the Attribute,
        # and -> the exact Python type of its slot values (SLOT_TYPES).
        attributes = _by_name(ordered)
        object.__setattr__(self, "_attributes", attributes)
        object.__setattr__(self, "_slot_types", {
            name: SLOT_TYPES[attr.type] for name, attr in attributes.items()})

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
        # On duplicate names the first class or association wins. _ends: class
        # name -> every (role, association, far end) navigable from it, in model
        # order, end1 before end2; _roles keeps the last end of each role.
        ends: dict[str, list[tuple[str, BinaryAssociation, AssociationEnd]]] = {}
        for assoc in self.associations:
            for end, opposite in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)):
                ends.setdefault(opposite.target.name, []).append((end.role, assoc, end))
        object.__setattr__(self, "_classes", _by_name(self.classes))
        object.__setattr__(self, "_associations", _by_name(self.associations))
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_roles", {name: {role: (assoc, end) for role, assoc, end in row}
                                            for name, row in ends.items()})

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
        object.__setattr__(self, "objects", tuple(sorted(self.objects, key=_NAME)))
        # Lookup tables, built eagerly as in StructuralModel; the first object
        # of a duplicate name wins.
        by_class: dict[str, list[ObjectInstance]] = {}
        for obj in self.objects:
            by_class.setdefault(obj.classifier.name, []).append(obj)
        object.__setattr__(self, "_objects", _by_name(self.objects))
        object.__setattr__(self, "_instances", by_class)
        object.__setattr__(self, "_adjacency", _adjacency(self.links))

    def _attach(self, links: list) -> None:
        """Give the model links as (name, association, end1, end2) tuples, which
        the loader wired through its _objects and checked."""
        self.__dict__.update(links=links, _adjacency=_adjacency(links))

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

def _name_errors(diags: list[ModelDiagnostic], seen: set[str], kind: str, name: str,
                 where: str, *at: str) -> None:
    """Report a name already in seen and a name that is not an identifier, then add
    the name to seen. The path, where.format(*at, name), is formatted only to report."""
    if name in seen:
        diags.append(_error(where.format(*at, name), f"duplicate {kind} name '{name}'"))
    if not is_identifier(name):
        diags.append(_error(where.format(*at, name), f"{kind} name '{name}' is not an identifier"))
    seen.add(name)


def validate_structural(model: StructuralModel) -> list[ModelDiagnostic]:
    """Check the structural model's own invariants.

    Returns an empty list exactly when the model is well formed; every
    finding here is Error severity. Each rule is one test, and a record's
    path is formatted only in the branch that reports its fault.
    """
    diags: list[ModelDiagnostic] = []
    classes = model._classes

    seen_classes: set[str] = set()
    for cls in model.classes:
        _name_errors(diags, seen_classes, "class", cls.name, "classes[{}]")
        seen_attrs: set[str] = set()
        for attr in cls.attributes:
            _name_errors(diags, seen_attrs, "attribute", attr.name,
                         "classes[{}].attributes[{}]", cls.name)

    seen_assocs: set[str] = set()
    for assoc in model.associations:
        _name_errors(diags, seen_assocs, "association", assoc.name, "associations[{}]")
        for label, end in (("end1", assoc.end1), ("end2", assoc.end2)):
            if not is_identifier(end.role):
                diags.append(_error(f"associations[{assoc.name}].{label}",
                                    f"role '{end.role}' is not an identifier"))
            lower, upper = end.multiplicity.lower, end.multiplicity.upper
            if lower < 0:
                diags.append(_error(f"associations[{assoc.name}].{label}.multiplicity",
                                    f"negative lower bound {lower}"))
            if upper is not None and upper < 1:
                diags.append(_error(f"associations[{assoc.name}].{label}.multiplicity",
                                    f"upper bound {upper} < 1"))
            if upper is not None and lower > upper:
                diags.append(_error(f"associations[{assoc.name}].{label}.multiplicity",
                                    f"lower > upper ({lower} > {upper})"))
            target = end.target
            if (found := classes.get(target.name)) is not target and found != target:
                diags.append(_error(f"associations[{assoc.name}].{label}",
                                    f"end target '{target.name}' is not a model class"))

    # Role names must be unambiguous per navigating class, and must not hide
    # one of its attributes: classes in name order, each with its ends in
    # association order, end1 before end2.
    for cls in model.classes:
        seen_roles = set(cls._attributes)
        for role, assoc, _ in model._ends.get(cls.name, ()):
            if role in seen_roles:
                message = f"role '{role}' is ambiguous when navigating from class '{cls.name}'"
                diags.append(_error(f"associations[{assoc.name}]", message))
            seen_roles.add(role)

    seen_constraints: set[str] = set()
    for con in model.constraints:
        _name_errors(diags, seen_constraints, "constraint", con.name, "constraints[{}]")
        context = con.context_class
        if (found := classes.get(context.name)) is not context and found != context:
            diags.append(_error(f"constraints[{con.name}]",
                                f"context class '{context.name}' is not a model class"))
        if con.language != "OCL":
            diags.append(_error(f"constraints[{con.name}]",
                                f"unsupported constraint language '{con.language}'"))

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
    warnings: list[ModelDiagnostic] = []
    classes = model._classes
    # Per class name: (role, far end, rows toward it) of every end in _ends, by role.
    ends_of = {
        name: [(role, end, _far_rows(objects, assoc, end))
               for role, assoc, end in sorted(ends, key=operator.itemgetter(0))]
        for name, ends in model._ends.items()
    }

    seen_names: set[str] = set()
    for obj in objects.objects:
        _name_errors(diags, seen_names, "object", obj.name, "objects[{}]")

        model_cls = classes.get(obj.classifier.name)
        if model_cls is None:
            diags.append(_error(f"objects[{obj.name}]", f"unknown class '{obj.classifier.name}'"))
            continue
        if model_cls is not obj.classifier and model_cls != obj.classifier:
            message = f"classifier '{obj.classifier.name}' differs from the model class"
            diags.append(_error(f"objects[{obj.name}]", message))
            continue

        types = model_cls._slot_types
        for slot_name, value in obj.slots.items():
            expected = types.get(slot_name)
            if type(value) is not expected:  # also when the class has no such attribute
                problem, tail = "type mismatch", "is not"
            elif expected is int and not INT64_MIN <= value <= INT64_MAX:
                problem, tail = "out of range", "does not fit in 64 bits"
            elif expected is float and not math.isfinite(value):
                problem, tail = "out of range", "is not finite"
            else:
                continue
            if expected is None:
                message = f"class '{model_cls.name}' has no attribute '{slot_name}'"
            else:
                try:
                    shown = repr(value)
                except ValueError:  # Python will not print an int of over 4300 digits
                    shown = f"of {value.bit_length()} bits"
                ptype = model_cls.attribute_named(slot_name).type.value
                detail = f"attribute '{slot_name}' is {ptype}, value {shown}"
                message = f"slot {problem}: {detail} {tail}"
            diags.append(_error(f"objects[{obj.name}].slots[{slot_name}]", message))

        # Counts are advisory, kept only if nothing else is wrong: scenarios stay loadable.
        for role, end, rows in ends_of.get(model_cls.name, ()):
            count, mult = len(rows.get(obj.name, ())), end.multiplicity
            if count < mult.lower or (mult.upper is not None and count > mult.upper):
                message = f"{count} object(s) linked via '{role}', multiplicity is {mult}"
                warnings.append(_warning(f"objects[{obj.name}]", message))

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

    return diags or warnings


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

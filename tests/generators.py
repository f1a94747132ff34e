"""Seeded random generators for round-trip and differential testing.

Four families:

* gen_syntactic_constraint: arbitrary well-formed trees over the Library
  vocabulary, for print/parse round-trips. No typing discipline.
* make_random_model / make_random_objects / gen_typed_constraint: small
  two-class scenarios with a scalar role ('owner') and a collection role
  ('items'), plus type-correct random constraints for differential
  evaluation. Runtime errors (missing slots, division by zero, empty
  scalar navigation) are intentionally reachable.
* add_pick_role / gen_member_constraint: the two-class scenario with a
  to-one role toward B, and constraints that plant x.items->exists(v | v = e)
  among the shapes above, for differential evaluation of that shape.
* make_random_model_document: small bocl-model/1 documents over few names,
  so that repeated class names, self-associations and roles ambiguous from
  one or more classes are common, for differential loading.
"""

from __future__ import annotations

import datetime
import random

from bocl.ast import (
    BooleanLiteralExp,
    CollectionOp,
    CollectionOpExp,
    ConstraintAst,
    Expr,
    IfExp,
    InfixOperator,
    IntegerLiteralExp,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    RealLiteralExp,
    SelfExp,
    Stereotype,
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
)
from bocl.model import (
    AssociationEnd,
    Attribute,
    BinaryAssociation,
    ClassDef,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    PrimitiveType,
    StructuralModel,
)

# ---------- Syntactic generator (Library vocabulary) ----------

_PROPERTY_NAMES = [
    "pages", "title", "name", "address", "email", "release",
    "contains", "locatedIn", "writedBy", "publishes",
]
_VAR_NAMES = ["i_book", "b", "lib", "a", "x1"]
_CLASS_NAMES = ["Book", "Library", "Author"]
_STRING_POOL = ["Children Library", "Colors", "John Doe", "", "it's", "a''b", "12 3"]
_ALL_INFIX = list(InfixOperator)


def _gen_syntactic_leaf(rng: random.Random) -> Expr:
    pick = rng.randrange(6)
    if pick == 0:
        return SelfExp()
    if pick == 1:
        return VariableExp(rng.choice(_VAR_NAMES))
    if pick == 2:
        return IntegerLiteralExp(rng.choice([0, 1, 7, 110, 2**63 - 1]))
    if pick == 3:
        return RealLiteralExp(rng.choice([0.0, 0.5, 2.0, 3.25, 110.75, 1e300, 1e-5]))
    if pick == 4:
        return StringLiteralExp(rng.choice(_STRING_POOL))
    return BooleanLiteralExp(rng.random() < 0.5)


def gen_syntactic_expr(rng: random.Random, depth: int) -> Expr:
    if depth <= 0:
        return _gen_syntactic_leaf(rng)
    pick = rng.randrange(8)
    if pick == 0:
        return _gen_syntactic_leaf(rng)
    if pick == 1:
        return PropertyExp(gen_syntactic_expr(rng, depth - 1), rng.choice(_PROPERTY_NAMES))
    if pick == 2:
        return OperationCallExp(
            rng.choice(_ALL_INFIX),
            gen_syntactic_expr(rng, depth - 1),
            gen_syntactic_expr(rng, depth - 1),
        )
    if pick == 3:
        return UnaryExp(
            rng.choice(list(UnaryOperator)), gen_syntactic_expr(rng, depth - 1)
        )
    if pick == 4:
        return IfExp(
            gen_syntactic_expr(rng, depth - 1),
            gen_syntactic_expr(rng, depth - 1),
            gen_syntactic_expr(rng, depth - 1),
        )
    if pick == 5:
        return IteratorExp(
            gen_syntactic_expr(rng, depth - 1),
            rng.choice(list(IteratorKind)),
            rng.choice(_VAR_NAMES),
            rng.choice(_CLASS_NAMES) if rng.random() < 0.5 else None,
            gen_syntactic_expr(rng, depth - 1),
        )
    if pick == 6:
        return CollectionOpExp(
            gen_syntactic_expr(rng, depth - 1), rng.choice(list(CollectionOp))
        )
    return gen_syntactic_expr(rng, depth - 1)


def gen_syntactic_constraint(rng: random.Random, max_depth: int = 5) -> ConstraintAst:
    return ConstraintAst(
        rng.choice(_CLASS_NAMES),
        Stereotype.INV,
        rng.choice(["inv1", "checkIt", None]),
        gen_syntactic_expr(rng, rng.randint(1, max_depth)),
    )


# ---------- Random two-class scenarios ----------

def make_random_model(rng: random.Random) -> StructuralModel:
    cls_a = ClassDef(
        "A",
        (
            Attribute("i1", PrimitiveType.INT),
            Attribute("s1", PrimitiveType.STR),
            Attribute("b1", PrimitiveType.BOOL),
            Attribute("d1", PrimitiveType.DATE),
        ),
    )
    cls_b = ClassDef(
        "B",
        (
            Attribute("i2", PrimitiveType.INT),
            Attribute("r2", PrimitiveType.REAL),
            Attribute("s2", PrimitiveType.STR),
        ),
    )
    assoc = BinaryAssociation(
        "ab",
        AssociationEnd("owner", cls_a, Multiplicity(rng.choice([0, 1]), 1)),
        AssociationEnd("items", cls_b, Multiplicity(0, None)),
    )
    return StructuralModel("scenario", (cls_a, cls_b), (assoc,), ())


# ---------- Random model documents ----------

_DOC_CLASSES = ["A", "B", "C"]
_DOC_ROLES = ["p", "q", "r", "s", "t", "x"]  # x is an attribute name too
_DOC_TYPES = ["int", "real", "str", "bool", "date"]


def _random_end(rng: random.Random, target: str) -> dict:
    lower, upper = rng.choice([(0, "*"), (1, "*"), (0, 1), (1, 1), (1, 2), (2, 1)])
    return {"role": rng.choice(_DOC_ROLES), "target": target,
            "multiplicity": {"lower": lower, "upper": upper}}


def _with_repeat(rng: random.Random, names: list) -> list:
    """names, with one of them repeated at the end one time in five."""
    return names + [rng.choice(names)] if names and rng.random() < 0.2 else names


def make_random_model_document(rng: random.Random) -> dict:
    """A well-formed bocl-model/1 document of up to four classes and three
    associations, each a self-association at times. One time in five a class,
    attribute, association or constraint name is repeated, and the roles come
    from a pool of six, so that some are ambiguous or share an attribute's name."""
    names = _with_repeat(rng, rng.sample(_DOC_CLASSES, rng.randint(1, 3)))
    classes = [
        {"name": name, "attributes": [
            {"name": attr, "type": rng.choice(_DOC_TYPES)}
            for attr in _with_repeat(rng, rng.sample(["x", "y", "z"], rng.randint(0, 2)))
        ]}
        for name in names
    ]
    associations = []
    for assoc in _with_repeat(rng, [f"a{k}" for k in range(rng.randint(0, 3))]):
        near = rng.choice(names)
        far = near if rng.random() < 0.3 else rng.choice(names)
        associations.append({"name": assoc, "ends": [_random_end(rng, near), _random_end(rng, far)]})
    constraints = [
        {"name": name, "context": rng.choice(names), "expression": "context A inv: true",
         **({"language": "OCL"} if rng.random() < 0.5 else {})}
        for name in _with_repeat(rng, [f"k{k}" for k in range(rng.randint(0, 2))])
    ]
    return {"schemaVersion": "bocl-model/1", "name": "random", "classes": classes,
            "associations": associations, "constraints": constraints}


_DATE_POOL = [
    datetime.date(2020, 1, 1),
    datetime.date(2020, 6, 15),
    datetime.date(2021, 2, 28),
]
_SLOT_STRINGS = ["x", "y", "zz"]


def _random_slots(
    rng: random.Random, cls: ClassDef, fill_all: bool
) -> dict[str, object]:
    slots = {}
    for attr in cls.attributes:
        if not fill_all and rng.random() < 0.1:
            continue  # leave the slot missing
        if attr.type is PrimitiveType.INT:
            value = rng.randint(-5, 5)
        elif attr.type is PrimitiveType.REAL:
            value = rng.randint(-10, 10) / 2.0
        elif attr.type is PrimitiveType.STR:
            value = rng.choice(_SLOT_STRINGS)
        elif attr.type is PrimitiveType.BOOL:
            value = rng.random() < 0.5
        else:
            value = rng.choice(_DATE_POOL)
        slots[attr.name] = value
    return slots


def make_random_objects(
    rng: random.Random,
    model: StructuralModel,
    fill_all_slots: bool = False,
    max_objects: int = 4,
) -> ObjectModel:
    cls_a = model.class_named("A")
    cls_b = model.class_named("B")
    assoc = model.associations[0]
    count_a = rng.randint(0, min(2, max_objects))
    count_b = rng.randint(0, max_objects - count_a)
    objs_a = [
        ObjectInstance(f"a{i}", cls_a, _random_slots(rng, cls_a, fill_all_slots))
        for i in range(count_a)
    ]
    objs_b = [
        ObjectInstance(f"b{i}", cls_b, _random_slots(rng, cls_b, fill_all_slots))
        for i in range(count_b)
    ]
    links = []
    serial = 0
    for a in objs_a:
        for b in objs_b:
            if rng.random() < 0.5:
                links.append((f"l{serial}", assoc, a, b))
                serial += 1
    return ObjectModel("objects", tuple(objs_a + objs_b), tuple(links))


# ---------- Type-directed constraint generator ----------

_T_INT = ("int",)
_T_REAL = ("real",)
_T_STR = ("str",)
_T_BOOL = ("bool",)
_T_DATE = ("date",)


def _t_obj(name: str):
    return ("obj", name)


def _int_literal(value: int) -> Expr:
    # The grammar has no negative literals; negative values are a negation
    # node over a non-negative literal, exactly as the parser builds them.
    if value < 0:
        return UnaryExp(UnaryOperator.NEG, IntegerLiteralExp(-value))
    return IntegerLiteralExp(value)


def _real_literal(value: float) -> Expr:
    if value < 0:
        return UnaryExp(UnaryOperator.NEG, RealLiteralExp(-value))
    return RealLiteralExp(value)


class _TypedGen:
    """Generates expressions of a requested type over the A/B scenario."""

    def __init__(self, rng: random.Random, context: str):
        self.rng = rng
        self.context = context
        self.scope: list[tuple[str, tuple]] = []
        self.var_serial = 0

    # -- object and collection sources --

    def _object_sources(self, cls: str, depth: int) -> list:
        sources = []
        if self.context == cls:
            sources.append(lambda: SelfExp())
        for name, vtype in self.scope:
            if vtype == _t_obj(cls):
                sources.append(lambda n=name: VariableExp(n))
        if cls == "A" and depth >= 1:
            inner = self._object_sources("B", depth - 1)
            if inner:
                # Scalar navigation; may raise NavigationEmpty at runtime.
                sources.append(lambda: PropertyExp(self.rng.choice(inner)(), "owner"))
        return sources

    def gen_object(self, cls: str, depth: int) -> Expr | None:
        sources = self._object_sources(cls, depth)
        if not sources:
            return None
        return self.rng.choice(sources)()

    def gen_collection(self, depth: int) -> tuple[Expr, tuple] | None:
        """Returns (expr, element_type) or None if unreachable."""
        owner = self.gen_object("A", depth - 1) if depth >= 1 else None
        if owner is None:
            return None
        expr: Expr = PropertyExp(owner, "items")
        elem: tuple = _t_obj("B")
        rng = self.rng
        # Optionally wrap with select/reject/collect layers.
        while depth >= 2 and rng.random() < 0.4:
            depth -= 1
            kind = rng.choice(
                [IteratorKind.SELECT, IteratorKind.REJECT, IteratorKind.COLLECT]
            )
            var = self._fresh_var()
            self.scope.append((var, elem))
            if kind is IteratorKind.COLLECT:
                if elem == _t_obj("B") and rng.random() < 0.3:
                    # Body is itself a collection: exercises one-level flattening.
                    body: Expr = PropertyExp(PropertyExp(VariableExp(var), "owner"), "items")
                    new_elem: tuple = _t_obj("B")
                else:
                    body = self.gen_int(depth - 1)
                    new_elem = _T_INT
            else:
                body = self.gen_bool(depth - 1)
                new_elem = elem
            self.scope.pop()
            annotation = None
            if elem == _t_obj("B") and rng.random() < 0.5:
                annotation = "B"
            expr = IteratorExp(expr, kind, var, annotation, body)
            elem = new_elem
        return expr, elem

    def _fresh_var(self) -> str:
        self.var_serial += 1
        return f"v{self.var_serial}"

    # -- typed productions --

    def _attribute_access(self, wanted: tuple, depth: int) -> Expr | None:
        options = {
            _T_INT: [("A", "i1"), ("B", "i2")],
            _T_REAL: [("B", "r2")],
            _T_STR: [("A", "s1"), ("B", "s2")],
            _T_BOOL: [("A", "b1")],
            _T_DATE: [("A", "d1")],
        }[wanted]
        self.rng.shuffle(options)
        for cls, attr in options:
            obj = self.gen_object(cls, depth - 1) if depth >= 1 else None
            if obj is not None:
                return PropertyExp(obj, attr)
        return None

    def gen_bool(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["literal"]
        if depth >= 1:
            choices += ["attr", "not", "andor", "compare", "compare"]
        if depth >= 2:
            choices += ["if", "iterate", "emptiness", "obj_eq"]
        while True:
            pick = rng.choice(choices)
            if pick == "literal":
                return BooleanLiteralExp(rng.random() < 0.5)
            if pick == "attr":
                attr = self._attribute_access(_T_BOOL, depth)
                if attr is not None:
                    return attr
                continue
            if pick == "not":
                return UnaryExp(UnaryOperator.NOT, self.gen_bool(depth - 1))
            if pick == "andor":
                op = rng.choice([InfixOperator.AND, InfixOperator.OR])
                return OperationCallExp(op, self.gen_bool(depth - 1), self.gen_bool(depth - 1))
            if pick == "compare":
                return self._gen_comparison(depth)
            if pick == "if":
                return IfExp(
                    self.gen_bool(depth - 1),
                    self.gen_bool(depth - 1),
                    self.gen_bool(depth - 1),
                )
            if pick == "iterate":
                col = self.gen_collection(depth - 1)
                if col is None:
                    continue
                expr, elem = col
                kind = rng.choice([IteratorKind.FOR_ALL, IteratorKind.EXISTS])
                var = self._fresh_var()
                self.scope.append((var, elem))
                body = self.gen_bool(depth - 1)
                self.scope.pop()
                annotation = "B" if elem == _t_obj("B") and rng.random() < 0.5 else None
                return IteratorExp(expr, kind, var, annotation, body)
            if pick == "emptiness":
                col = self.gen_collection(depth - 1)
                if col is None:
                    continue
                op = rng.choice([CollectionOp.IS_EMPTY, CollectionOp.NOT_EMPTY])
                return CollectionOpExp(col[0], op)
            if pick == "obj_eq":
                cls = rng.choice(["A", "B"])
                left = self.gen_object(cls, depth - 1)
                right = self.gen_object(cls, depth - 1)
                if left is None or right is None:
                    continue
                op = rng.choice([InfixOperator.EQ, InfixOperator.NE])
                return OperationCallExp(op, left, right)

    def _gen_comparison(self, depth: int) -> Expr:
        rng = self.rng
        kinds = ["num", "num", "str", "bool"]
        if depth >= 2:
            kinds.append("date")
        kind = rng.choice(kinds)
        if kind == "num":
            op = rng.choice(
                [InfixOperator.EQ, InfixOperator.NE, InfixOperator.LT,
                 InfixOperator.GT, InfixOperator.LE, InfixOperator.GE]
            )
            left = self.gen_int(depth - 1) if rng.random() < 0.7 else self.gen_real(depth - 1)
            right = self.gen_int(depth - 1) if rng.random() < 0.7 else self.gen_real(depth - 1)
            return OperationCallExp(op, left, right)
        if kind == "date":
            left = self._attribute_access(_T_DATE, depth)
            right = self._attribute_access(_T_DATE, depth)
            if left is None or right is None:
                return self._gen_comparison(depth - 1) if depth > 1 else BooleanLiteralExp(True)
            op = rng.choice(list(InfixOperator)[:6])
            return OperationCallExp(op, left, right)
        op = rng.choice([InfixOperator.EQ, InfixOperator.NE])
        if kind == "str":
            return OperationCallExp(op, self.gen_str(depth - 1), self.gen_str(depth - 1))
        return OperationCallExp(op, self.gen_bool(depth - 1), self.gen_bool(depth - 1))

    def gen_int(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["literal"]
        if depth >= 1:
            choices += ["attr", "arith", "neg"]
        if depth >= 2:
            choices += ["size", "if"]
        while True:
            pick = rng.choice(choices)
            if pick == "literal":
                return IntegerLiteralExp(rng.randint(0, 10))
            if pick == "attr":
                attr = self._attribute_access(_T_INT, depth)
                if attr is not None:
                    return attr
                continue
            if pick == "arith":
                op = rng.choice([InfixOperator.ADD, InfixOperator.SUB, InfixOperator.MUL])
                return OperationCallExp(op, self.gen_int(depth - 1), self.gen_int(depth - 1))
            if pick == "neg":
                return UnaryExp(UnaryOperator.NEG, self.gen_int(depth - 1))
            if pick == "size":
                col = self.gen_collection(depth - 1)
                if col is None:
                    continue
                return CollectionOpExp(col[0], CollectionOp.SIZE)
            if pick == "if":
                return IfExp(
                    self.gen_bool(depth - 1),
                    self.gen_int(depth - 1),
                    self.gen_int(depth - 1),
                )

    def gen_real(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["literal"]
        if depth >= 1:
            choices += ["attr", "div", "mixed", "neg"]
        while True:
            pick = rng.choice(choices)
            if pick == "literal":
                return _real_literal(rng.randint(-20, 20) / 4.0)
            if pick == "attr":
                attr = self._attribute_access(_T_REAL, depth)
                if attr is not None:
                    return attr
                continue
            if pick == "div":
                # Division by zero is reachable and must error identically.
                return OperationCallExp(
                    InfixOperator.DIV, self.gen_int(depth - 1), self.gen_int(depth - 1)
                )
            if pick == "mixed":
                op = rng.choice([InfixOperator.ADD, InfixOperator.SUB, InfixOperator.MUL])
                return OperationCallExp(op, self.gen_real(depth - 1), self.gen_int(depth - 1))
            if pick == "neg":
                return UnaryExp(UnaryOperator.NEG, self.gen_real(depth - 1))

    def gen_str(self, depth: int) -> Expr:
        if depth >= 1 and self.rng.random() < 0.5:
            attr = self._attribute_access(_T_STR, depth)
            if attr is not None:
                return attr
        return StringLiteralExp(self.rng.choice(_SLOT_STRINGS))


def gen_typed_constraint(
    rng: random.Random, context: str | None = None, max_depth: int = 4
) -> ConstraintAst:
    if context is None:
        context = rng.choice(["A", "B"])
    gen = _TypedGen(rng, context)
    return ConstraintAst(context, Stereotype.INV, "generated", gen.gen_bool(max_depth))


# ---------- Planted membership tests: nav->exists(v | v = e) ----------

def add_pick_role(
    rng: random.Random, model: StructuralModel, objects: ObjectModel
) -> tuple[StructuralModel, ObjectModel]:
    """model and objects with one more association, a to-one role 'pick' from
    A toward B, linked for about half of the A objects: a B-typed expression
    that the scenario's own roles cannot give, and that may have no link."""
    cls_a, cls_b = model.class_named("A"), model.class_named("B")
    assoc = BinaryAssociation(
        "ap",
        AssociationEnd("pickedBy", cls_a, Multiplicity(0, None)),
        AssociationEnd("pick", cls_b, Multiplicity(0, 1)),
    )
    bs = [obj for obj in objects.objects if obj.classifier is cls_b]
    links = [
        (f"p{k}", assoc, obj, rng.choice(bs))
        for k, obj in enumerate(objects.objects)
        if obj.classifier is cls_a and bs and rng.random() < 0.5
    ]
    model = StructuralModel(model.name, model.classes, model.associations + (assoc,), ())
    return model, ObjectModel(objects.name, objects.objects, objects.links + tuple(links))


class _MemberGen(_TypedGen):
    """_TypedGen over an add_pick_role scenario, which also plants
    x.items->exists(v | v = e) and its mirror e = v among its Bool
    expressions. e is any B-typed expression: self, an outer variable,
    x.pick (to-one, perhaps with no link), an if, v itself, an expression
    with v in scope, or an if on an inner iterator that reuses v's name."""

    def _object_sources(self, cls: str, depth: int) -> list:
        sources = super()._object_sources(cls, depth)
        if cls == "B" and depth >= 1:
            inner = self._object_sources("A", depth - 1)
            if inner:
                sources.append(lambda: PropertyExp(self.rng.choice(inner)(), "pick"))
        if depth >= 2:
            sources.append(lambda: IfExp(
                self.gen_bool(depth - 1),
                self.gen_object(cls, depth - 1),
                self.gen_object(cls, depth - 1),
            ))
        return sources

    def gen_bool(self, depth: int) -> Expr:
        if depth >= 2 and self.rng.random() < 0.3:
            return self.gen_member(depth)
        return super().gen_bool(depth)

    def gen_member(self, depth: int) -> Expr:
        rng = self.rng
        var = self._fresh_var()
        pick = rng.randrange(5 if depth >= 3 else 2) if rng.random() < 0.6 else 4
        if pick == 0:
            e: Expr = VariableExp(var)
        elif pick == 1:  # v in scope, so e may name it at any depth
            self.scope.append((var, _t_obj("B")))
            e = self.gen_object("B", depth - 1)
            self.scope.pop()
        elif pick == 2:  # an inner iterator named v, whose body may read v
            self.scope.append((var, _t_obj("B")))
            body = self.gen_bool(depth - 2) if rng.random() < 0.5 else OperationCallExp(
                InfixOperator.EQ, VariableExp(var), self.gen_object("B", depth - 2))
            self.scope.pop()
            inner = IteratorExp(
                PropertyExp(self.gen_object("A", depth - 2), "items"), IteratorKind.EXISTS,
                var, None, body)
            e = IfExp(inner, self.gen_object("B", depth - 2), self.gen_object("B", depth - 2))
        else:
            e = self.gen_object("B", depth - 1)
        left, right = VariableExp(var), e
        if rng.random() < 0.5:
            left, right = right, left
        source = PropertyExp(self.gen_object("A", depth - 1), "items")
        return IteratorExp(
            source, IteratorKind.EXISTS, var, "B" if rng.random() < 0.2 else None,
            OperationCallExp(InfixOperator.EQ, left, right))


def gen_member_constraint(rng: random.Random, max_depth: int = 4) -> ConstraintAst:
    """A constraint over an add_pick_role scenario whose body is one planted
    membership test, with more of them, and every other _TypedGen shape, inside."""
    context = rng.choice(["A", "B"])
    body = _MemberGen(rng, context).gen_member(max_depth)
    return ConstraintAst(context, Stereotype.INV, "member", body)


# ---------- Total predicates over one iterator variable ----------

def gen_total_predicate(rng: random.Random, var: str, depth: int) -> Expr:
    """Boolean body over a B-typed variable that cannot raise at runtime
    (attribute comparisons and connectives only; the caller must supply
    objects with every slot filled)."""
    if depth <= 0:
        pick = rng.randrange(3)
        if pick == 0:
            return BooleanLiteralExp(rng.random() < 0.5)
        if pick == 1:
            op = rng.choice(
                [InfixOperator.LT, InfixOperator.LE, InfixOperator.GT,
                 InfixOperator.GE, InfixOperator.EQ, InfixOperator.NE]
            )
            return OperationCallExp(
                op, PropertyExp(VariableExp(var), "i2"), _int_literal(rng.randint(-5, 5))
            )
        return OperationCallExp(
            rng.choice([InfixOperator.EQ, InfixOperator.NE]),
            PropertyExp(VariableExp(var), "s2"),
            StringLiteralExp(rng.choice(_SLOT_STRINGS)),
        )
    pick = rng.randrange(4)
    if pick == 0:
        return UnaryExp(UnaryOperator.NOT, gen_total_predicate(rng, var, depth - 1))
    if pick in (1, 2):
        op = InfixOperator.AND if pick == 1 else InfixOperator.OR
        return OperationCallExp(
            op,
            gen_total_predicate(rng, var, depth - 1),
            gen_total_predicate(rng, var, depth - 1),
        )
    return OperationCallExp(
        rng.choice([InfixOperator.LT, InfixOperator.GE]),
        PropertyExp(VariableExp(var), "r2"),
        _real_literal(rng.randint(-8, 8) / 2.0),
    )

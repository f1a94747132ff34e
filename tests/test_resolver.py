import pytest

from bocl.ast import (
    MAX_DEPTH,
    BooleanLiteralExp,
    ConstraintAst,
    Stereotype,
    UnaryExp,
    UnaryOperator,
    expr_from_json,
    expr_to_json,
)
from bocl.evaluator import VerdictKind, evaluate_constraint
from bocl.parser import parse_constraint
from bocl.resolver import (
    ResolutionErrorKind,
    ResolutionFailure,
    TypeKind,
    resolve,
)


def resolve_text(model, text):
    return resolve(parse_constraint(text), model)


def errors_of(model, text):
    with pytest.raises(ResolutionFailure) as exc:
        resolve_text(model, text)
    return exc.value.errors


def kinds_of(model, text):
    return {e.kind for e in errors_of(model, text)}


def test_page_number_invariant_types(built_model):
    typed = resolve_text(built_model, "context Book inv invBook: self.pages > 0")
    assert typed.body.type.kind is TypeKind.BOOL
    assert typed.context_class.name == "Book"


def test_attribute_access_type(built_model):
    typed = resolve_text(built_model, "context Book inv x: self.pages + 1 > 0")
    plus = typed.body.children[0]
    assert plus.type.kind is TypeKind.INT


def test_navigation_types(built_model):
    typed = resolve_text(
        built_model, "context Library inv x: self.contains->notEmpty()"
    )
    contains = typed.body.children[0]
    assert contains.type.kind is TypeKind.COLLECTION
    assert contains.type.element.class_name == "Book"

    typed = resolve_text(
        built_model, "context Book inv x: self.locatedIn.name = 'x'"
    )
    located = typed.body.children[0].children[0]
    # locatedIn has upper bound 1, so navigation scalarizes.
    assert located.type.kind is TypeKind.OBJECT
    assert located.type.class_name == "Library"


def test_comparing_string_to_int(built_model):
    kinds = kinds_of(built_model, "context Book inv x: self.title > 0")
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_unknown_context_class(built_model):
    kinds = kinds_of(built_model, "context Nope inv x: true")
    assert ResolutionErrorKind.UNKNOWN_CONTEXT_CLASS in kinds


def test_unknown_property(built_model):
    errors = errors_of(built_model, "context Book inv x: self.pagecount > 0")
    assert errors[0].kind is ResolutionErrorKind.UNKNOWN_PROPERTY
    assert "pagecount" in errors[0].message


def test_unknown_variable(built_model):
    kinds = kinds_of(built_model, "context Book inv x: ghost = 1")
    assert ResolutionErrorKind.UNKNOWN_VARIABLE in kinds


def test_and_needs_booleans(built_model):
    kinds = kinds_of(built_model, "context Book inv x: self.pages and true")
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_if_condition_must_be_boolean(built_model):
    errors = errors_of(
        built_model, "context Book inv x: if self.pages then true else false endif"
    )
    assert any("condition" in e.ast_path for e in errors)


def test_if_branch_types_must_agree(built_model):
    kinds = kinds_of(
        built_model, "context Book inv x: (if true then 1 else 'a' endif) = 1"
    )
    assert ResolutionErrorKind.TYPE_MISMATCH in kinds


def test_if_branches_unify_int_real(built_model):
    typed = resolve_text(
        built_model, "context Book inv x: (if true then 1 else 2.5 endif) < 3"
    )
    branch = typed.body.children[0]
    assert branch.type.kind is TypeKind.REAL


def test_string_ordering_rejected(built_model):
    kinds = kinds_of(built_model, "context Book inv x: self.title < 'z'")
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_date_ordering_allowed(built_model):
    typed = resolve_text(
        built_model, "context Book inv x: self.release <= self.release"
    )
    assert typed.body.type.kind is TypeKind.BOOL


def test_object_identity_comparison(built_model):
    typed = resolve_text(
        built_model,
        "context Book inv x: self.locatedIn = self.locatedIn",
    )
    assert typed.body.type.kind is TypeKind.BOOL


def test_objects_of_different_classes_not_comparable(built_model):
    kinds = kinds_of(built_model, "context Book inv x: self.locatedIn = self")
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_collections_not_comparable(built_model):
    kinds = kinds_of(
        built_model, "context Library inv x: self.contains = self.contains"
    )
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_division_always_real(built_model):
    typed = resolve_text(built_model, "context Book inv x: 6 / 3 = 2.0")
    division = typed.body.children[0]
    assert division.type.kind is TypeKind.REAL


def test_int_arithmetic_stays_int(built_model):
    typed = resolve_text(built_model, "context Book inv x: 2 + 3 * 4 = 14")
    assert typed.body.children[0].type.kind is TypeKind.INT


def test_mixed_arithmetic_promotes(built_model):
    typed = resolve_text(built_model, "context Book inv x: 2 + 3.5 < 6")
    assert typed.body.children[0].type.kind is TypeKind.REAL


def test_property_on_collection_suggests_arrow(built_model):
    errors = errors_of(built_model, "context Library inv x: self.contains.pages > 0")
    assert any("->" in e.message for e in errors)


def test_iterator_variable_annotation_checked(built_model):
    resolve_text(
        built_model,
        "context Library inv x: self.contains->forAll(b : Book | b.pages > 0)",
    )
    errors = errors_of(
        built_model,
        "context Library inv x: self.contains->forAll(b : Author | b.pages > 0)",
    )
    assert any("declared Author" in e.message for e in errors)


def test_annotation_on_primitive_elements_rejected(built_model):
    kinds = kinds_of(
        built_model,
        "context Library inv x: "
        "self.contains->collect(b | b.pages)->select(p : Book | true)->size() > 0",
    )
    assert ResolutionErrorKind.TYPE_MISMATCH in kinds


def test_iterating_primitive_collection_without_annotation(built_model):
    typed = resolve_text(
        built_model,
        "context Library inv x: "
        "self.contains->collect(b | b.pages)->select(p | p > 10)->size() >= 0",
    )
    assert typed.body.type.kind is TypeKind.BOOL


def test_iterator_body_must_be_boolean(built_model):
    kinds = kinds_of(
        built_model,
        "context Library inv x: self.contains->forAll(b | b.pages)",
    )
    assert ResolutionErrorKind.TYPE_MISMATCH in kinds


def test_collection_op_needs_collection(built_model):
    kinds = kinds_of(built_model, "context Book inv x: self.pages->size() > 0")
    assert kinds == {ResolutionErrorKind.TYPE_MISMATCH}


def test_size_of_collection_is_int(built_model):
    typed = resolve_text(built_model, "context Library inv x: self.contains->size() = 0")
    assert typed.body.children[0].type.kind is TypeKind.INT


def test_body_must_be_boolean(built_model):
    errors = errors_of(built_model, "context Book inv x: self.pages")
    assert any("must be Bool" in e.message for e in errors)


def test_errors_are_collected_not_fail_fast(built_model):
    errors = errors_of(
        built_model, "context Book inv x: self.ghost1 > 0 and self.ghost2 > 0"
    )
    assert len(errors) == 2


def test_error_paths_locate_nodes(built_model):
    errors = errors_of(
        built_model,
        "context Library inv x: self.contains->forAll(b | b.ghost > 0)",
    )
    assert errors[0].ast_path.startswith("body")
    assert ".body" in errors[0].ast_path


def test_nested_iterator_variables_visible(built_model):
    typed = resolve_text(
        built_model,
        "context Library inv x: self.contains->forAll(b | "
        "self.contains->exists(c | b.pages <= c.pages))",
    )
    assert typed.body.type.kind is TypeKind.BOOL


def test_resolve_leaves_the_depth_limit_to_the_tree_makers(built_model, built_objects):
    # The parser and expr_from_json keep trees within MAX_DEPTH; resolve does
    # not check it, so a hand-built tree one level deeper resolves as it is.
    body = BooleanLiteralExp(True)
    for _ in range(MAX_DEPTH + 1):
        body = UnaryExp(UnaryOperator.NOT, body)
    ast = ConstraintAst("Book", Stereotype.INV, "deep", body)
    with pytest.raises(ValueError, match="nests too deeply"):
        expr_from_json(expr_to_json(body))
    typed = resolve(ast, built_model)
    assert typed.body.type.kind is TypeKind.BOOL
    assert evaluate_constraint(typed, built_objects).overall is VerdictKind.FALSE

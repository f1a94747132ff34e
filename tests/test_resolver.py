import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocl.ast import (
    MAX_DEPTH,
    BooleanLiteralExp,
    ConstraintAst,
    Expr,
    InfixOperator,
    OperationCallExp,
    PropertyExp,
    Stereotype,
    UnaryExp,
    UnaryOperator,
    VariableExp,
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

from generators import gen_syntactic_expr, gen_typed_constraint, make_random_model


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


_GHOST = "class '{}' has no attribute or association role 'ghost'"

# Constraints with one error each, at every child step and at the context
# root, alone and nested: (context, body, the error's path, its message).
ONE_ERROR = [
    ("Nope", "true", "context", "unknown context class 'Nope'"),
    ("Book", "self.pages", "body", "invariant body must be Bool, got Int"),
    ("Book", "self.ghost > 0", "body.left", _GHOST.format("Book")),
    ("Book", "0 < self.ghost", "body.right", _GHOST.format("Book")),
    ("Book", "self.pages and true", "body.left", "'and' needs Bool operands, got Int"),
    ("Book", "true or self.title", "body.right", "'or' needs Bool operands, got Str"),
    ("Book", "ghost = 1", "body.left", "unknown variable 'ghost'"),
    ("Book", "self.title = 1", "body", "cannot compare Str and Int with '='"),
    ("Book", "self.title < 'z'", "body", "cannot order Str and Str with '<'"),
    ("Book", "self.title + 1 > 0", "body.left",
     "operator '+' needs numeric operands, got Str and Int"),
    ("Book", "self.pages.name = 'a'", "body.left", "property 'name' accessed on Int value"),
    ("Book", "self.ghost.name = 'a'", "body.left.source", _GHOST.format("Book")),
    ("Library", "self.contains.pages > 0", "body.left",
     "property 'pages' needs a single object, source is Collection(Book); "
     "use -> to operate on collections"),
    ("Book", "not self.pages", "body", "'not' needs a Bool operand, got Int"),
    ("Book", "not self.ghost", "body.operand", _GHOST.format("Book")),
    ("Book", "-self.title > 0", "body.left", "unary '-' needs a numeric operand, got Str"),
    ("Book", "-ghost > 0", "body.left.operand", "unknown variable 'ghost'"),
    ("Book", "if self.pages then true else false endif", "body.condition",
     "'if' condition must be Bool, got Int"),
    ("Book", "if self.ghost then true else false endif", "body.condition", _GHOST.format("Book")),
    ("Book", "if true then self.ghost else false endif", "body.then", _GHOST.format("Book")),
    ("Book", "if true then false else ghost endif", "body.else", "unknown variable 'ghost'"),
    ("Book", "(if true then 1 else 'a' endif) = 1", "body.left",
     "'if' branches have different types: Int vs Str"),
    ("Book", "self.pages->forAll(b | true)", "body.source",
     "'forAll' needs a collection source, got Int"),
    ("Book", "self.pages->size() > 0", "body.left.source",
     "'size()' needs a collection source, got Int"),
    ("Book", "self.ghost->isEmpty()", "body.source", _GHOST.format("Book")),
    ("Library", "self.contains->forAll(b | b.pages)", "body.body",
     "'forAll' body must be Bool, got Int"),
    ("Library", "self.contains->exists(b | b.ghost)", "body.body", _GHOST.format("Book")),
    ("Library", "self.contains->forAll(b : Author | true)", "body",
     "iterator variable 'b' is declared Author but ranges over Book"),
    ("Library", "self.contains->collect(b | b.pages)->select(p : Book | true)->size() > 0",
     "body.left.source", "iterator variable 'p' ranges over Int, a class annotation does not apply"),
    ("Library", "self.contains->select(b | not (b.pages > 0 and -b.ghost < 1))->isEmpty()",
     "body.source.body.operand.right.left.operand", _GHOST.format("Book")),
    ("Book", "if self.locatedIn.contains->exists(c | c.pages > 0) "
     "then self.pages + 'a' > 1 else true endif",
     "body.then.left", "operator '+' needs numeric operands, got Int and Str"),
    ("Author", "self.publishes->forAll(b | b.writedBy->exists(a | a.name = b.locatedIn.ghost))",
     "body.body.body.right", _GHOST.format("Library")),
    ("Library", "self.contains->reject(b | if b.pages > 1 then b.title.size else false endif)"
     "->notEmpty()", "body.source.body.then", "property 'size' accessed on Str value"),
    ("Book", "(self.pages * 2 > 1) = "
     "(self.locatedIn.contains->collect(b | -b.title)->size() > 0)",
     "body.right.left.source.body", "unary '-' needs a numeric operand, got Str"),
]


@pytest.mark.parametrize("context,body,path,message", ONE_ERROR)
def test_each_error_names_its_node(built_model, context, body, path, message):
    errors = errors_of(built_model, f"context {context} inv x: {body}")
    assert [(e.ast_path, e.message) for e in errors] == [(path, message)]


def test_a_node_of_no_expression_type_is_a_type_error(built_model):
    body = OperationCallExp(InfixOperator.AND, BooleanLiteralExp(True), 42)
    with pytest.raises(TypeError, match="^not an expression node: 42$"):
        resolve(ConstraintAst("Book", Stereotype.INV, "x", body), built_model)


# Path step -> the field of the node it leads to.
_STEP_FIELDS = {
    "left": "left", "right": "right", "source": "source", "operand": "operand",
    "condition": "condition", "then": "then_branch", "else": "else_branch", "body": "body",
}


def _node_at(ast, path):
    root, *steps = path.split(".")
    assert root == "body"
    node = ast.body
    for step in steps:
        node = getattr(node, _STEP_FIELDS[step])
        assert isinstance(node, Expr)
    return node


def _subtree_fields(node, prefix=()):
    """The field path from node to each node below it, node itself first."""
    yield prefix
    for f in fields(node):
        child = getattr(node, f.name)
        if isinstance(child, Expr):
            yield from _subtree_fields(child, (*prefix, f.name))


def _replace_at(node, field_path, new):
    if not field_path:
        return new
    name, *rest = field_path
    return replace(node, **{name: _replace_at(getattr(node, name), rest, new)})


@given(seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_error_paths_reach_their_nodes(seed):
    # A type-correct constraint with one to three subtrees swapped for
    # library-vocabulary ones, which the two-class model mostly cannot type.
    rng = random.Random(seed)
    model = make_random_model(rng)
    ast = gen_typed_constraint(rng)
    body = ast.body
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(list(_subtree_fields(body)))
        body = _replace_at(body, target, gen_syntactic_expr(rng, rng.randint(0, 2)))
    context = rng.choice(["A", "B", "C"])
    ast = ConstraintAst(context, Stereotype.INV, "x", body)
    try:
        resolve(ast, model)
    except ResolutionFailure as failure:
        errors = failure.errors
    else:
        return
    for error in errors:
        if error.kind is ResolutionErrorKind.UNKNOWN_CONTEXT_CLASS:
            assert (error.ast_path, context) == ("context", "C")
            continue
        node = _node_at(ast, error.ast_path)
        if error.kind is ResolutionErrorKind.UNKNOWN_PROPERTY:
            assert isinstance(node, PropertyExp) and f"'{node.name}'" in error.message
        elif error.kind is ResolutionErrorKind.UNKNOWN_VARIABLE:
            assert isinstance(node, VariableExp) and f"'{node.name}'" in error.message

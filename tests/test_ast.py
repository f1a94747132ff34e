import json
import math
import random

import pytest

from bocl.ast import (
    MAX_DEPTH,
    BooleanLiteralExp,
    ConstraintAst,
    InfixOperator,
    IntegerLiteralExp,
    OperationCallExp,
    PropertyExp,
    RealLiteralExp,
    SelfExp,
    Stereotype,
    UnaryExp,
    UnaryOperator,
    VariableExp,
    ast_from_json,
    ast_to_json,
    expr_from_json,
    expr_to_json,
    format_real,
    pretty_print,
)
from bocl.parser import parse_constraint, parse_expression

from generators import gen_syntactic_constraint


def test_pretty_print_page_number_constraint():
    ast = ConstraintAst(
        "Book",
        Stereotype.INV,
        "invBook",
        OperationCallExp(
            InfixOperator.GT, PropertyExp(SelfExp(), "pages"), IntegerLiteralExp(0)
        ),
    )
    assert pretty_print(ast) == "context Book inv invBook: self.pages > 0"


def test_pretty_print_boolean_literal():
    assert pretty_print(BooleanLiteralExp(True)) == "true"
    assert pretty_print(BooleanLiteralExp(False)) == "false"


def test_pretty_print_unnamed_constraint():
    ast = parse_constraint("context Book inv: true")
    assert pretty_print(ast) == "context Book inv: true"


def test_if_constraint_reparses_equal():
    source = (
        "context Library inv Constraint2: if self.name = 'Children Library' then "
        "self.contains->forAll(i_book : Book | i_book.pages <= 100) else true endif"
    )
    ast = parse_constraint(source)
    assert parse_constraint(pretty_print(ast)) == ast


@pytest.mark.parametrize(
    "expr,text",
    [
        # Right-nested trees keep parentheses; left-nested ones drop them.
        (
            OperationCallExp(
                InfixOperator.ADD,
                IntegerLiteralExp(1),
                OperationCallExp(InfixOperator.ADD, IntegerLiteralExp(2), IntegerLiteralExp(3)),
            ),
            "1 + (2 + 3)",
        ),
        (
            OperationCallExp(
                InfixOperator.ADD,
                OperationCallExp(InfixOperator.ADD, IntegerLiteralExp(1), IntegerLiteralExp(2)),
                IntegerLiteralExp(3),
            ),
            "1 + 2 + 3",
        ),
        # Comparisons are non-associative, so nested ones always need parens.
        (
            OperationCallExp(
                InfixOperator.LT,
                OperationCallExp(InfixOperator.LT, VariableExp("a"), VariableExp("b")),
                VariableExp("c"),
            ),
            "(a < b) < c",
        ),
        (
            UnaryExp(UnaryOperator.NEG, UnaryExp(UnaryOperator.NEG, VariableExp("x"))),
            "-(-x)",
        ),
        (
            UnaryExp(
                UnaryOperator.NOT,
                OperationCallExp(
                    InfixOperator.AND, VariableExp("a"), VariableExp("b")
                ),
            ),
            "not (a and b)",
        ),
    ],
)
def test_parenthesization(expr, text):
    assert pretty_print(expr) == text
    assert parse_expression(text) == expr


def test_string_quoting():
    assert pretty_print(parse_expression("'it''s'")) == "'it''s'"


def test_double_negation_never_prints_a_comment():
    printed = pretty_print(parse_expression("-(-1)"))
    assert "--" not in printed
    assert parse_expression(printed) == parse_expression("-(-1)")


# -- JSON form --

def test_self_node_json():
    assert expr_to_json(SelfExp()) == {"kind": "Self"}


def test_page_number_body_json():
    body = parse_constraint("context Book inv invBook: self.pages>0").body
    assert expr_to_json(body) == {
        "kind": "OperationCall",
        "op": ">",
        "left": {"kind": "Property", "source": {"kind": "Self"}, "name": "pages"},
        "right": {"kind": "IntegerLiteral", "value": 0},
    }


def test_ast_document_has_version():
    doc = ast_to_json(parse_constraint("context Book inv x: true"))
    assert doc["schemaVersion"] == "bocl-ast/1"
    assert doc["context"] == "Book"
    assert doc["stereotype"] == "inv"


def test_json_round_trip_seeded_sample():
    rng = random.Random(13)
    for _ in range(300):
        ast = gen_syntactic_constraint(rng, max_depth=5)
        doc = ast_to_json(ast)
        # Through an actual serialization, not just dict identity.
        assert ast_from_json(json.loads(json.dumps(doc))) == ast


_SELF = {"kind": "Self"}


def _document(**changes):
    doc = {"schemaVersion": "bocl-ast/1", "context": "Book", "stereotype": "inv",
           "name": "x", "body": _SELF}
    return {**doc, **changes}


def _iterator(**changes):
    node = {"kind": "Iterator", "iterator": "forAll", "source": _SELF,
            "var": "b", "varType": None, "body": _SELF}
    return {**node, **changes}


# (id, converter, input, exception type, message): every way the JSON form
# refuses an input, with the exact message it gives.
_REJECTIONS = [
    ("not-an-object", expr_from_json, [], ValueError, "expected an object, got list"),
    ("child-not-an-object", expr_from_json, {"kind": "Property", "source": [], "name": "pages"},
     ValueError, "key 'source' has unexpected type list"),
    ("missing-kind", expr_from_json, {}, ValueError, "node '?' is missing key 'kind'"),
    ("missing-key", expr_from_json, {"kind": "Property", "name": "pages"},
     ValueError, "node 'Property' is missing key 'source'"),
    ("missing-varType", expr_from_json, {"kind": "Iterator", "iterator": "forAll", "source": _SELF,
                                         "var": "b", "body": _SELF},
     ValueError, "node 'Iterator' is missing key 'varType'"),
    ("kind-not-a-string", expr_from_json, {"kind": 3},
     ValueError, "key 'kind' has unexpected type int"),
    ("name-not-a-string", expr_from_json, {"kind": "Variable", "name": None},
     ValueError, "key 'name' has unexpected type NoneType"),
    ("var-not-a-string", expr_from_json, _iterator(var=1),
     ValueError, "key 'var' has unexpected type int"),
    ("float-in-IntegerLiteral", expr_from_json, {"kind": "IntegerLiteral", "value": 1.5},
     ValueError, "key 'value' has unexpected type float"),
    ("string-in-RealLiteral", expr_from_json, {"kind": "RealLiteral", "value": "1.5"},
     ValueError, "key 'value' has unexpected type str"),
    ("int-in-StringLiteral", expr_from_json, {"kind": "StringLiteral", "value": 1},
     ValueError, "key 'value' has unexpected type int"),
    ("int-in-BooleanLiteral", expr_from_json, {"kind": "BooleanLiteral", "value": 1},
     ValueError, "key 'value' has unexpected type int"),
    ("bool-in-IntegerLiteral", expr_from_json, {"kind": "IntegerLiteral", "value": True},
     ValueError, "IntegerLiteral value must be an integer"),
    ("bool-in-RealLiteral", expr_from_json, {"kind": "RealLiteral", "value": False},
     ValueError, "RealLiteral value must be a number"),
    ("varType-not-a-string", expr_from_json, _iterator(varType=7),
     ValueError, "varType must be a string or null"),
    ("document-name-not-a-string", ast_from_json, _document(name=["x"]),
     ValueError, "name must be a string or null"),
    ("bad-infix-op", expr_from_json, {"kind": "OperationCall", "op": "%", "left": _SELF,
                                      "right": _SELF},
     ValueError, "'%' is not a valid InfixOperator"),
    ("bad-unary-op", expr_from_json, {"kind": "Unary", "op": "!", "operand": _SELF},
     ValueError, "'!' is not a valid UnaryOperator"),
    ("bad-iterator", expr_from_json, _iterator(iterator="map"),
     ValueError, "'map' is not a valid IteratorKind"),
    ("bad-collection-op", expr_from_json, {"kind": "CollectionOp", "op": "sum", "source": _SELF},
     ValueError, "'sum' is not a valid CollectionOp"),
    # Of two faults in one node, the one whose key comes first in JSON key order.
    ("bad-iterator-and-missing-source", expr_from_json,
     {"kind": "Iterator", "iterator": "bogus", "var": "x", "varType": None, "body": _SELF},
     ValueError, "'bogus' is not a valid IteratorKind"),
    ("bad-collection-op-and-missing-source", expr_from_json, {"kind": "CollectionOp", "op": "sum"},
     ValueError, "'sum' is not a valid CollectionOp"),
    ("bad-stereotype", ast_from_json, _document(stereotype="pre"),
     ValueError, "'pre' is not a valid Stereotype"),
    ("integer-beyond-64-bits", expr_from_json, {"kind": "IntegerLiteral", "value": 2**63},
     ValueError, "integer literal out of 64-bit range"),
    ("integer-below-64-bits", expr_from_json, {"kind": "IntegerLiteral", "value": -2**63 - 1},
     ValueError, "integer literal out of 64-bit range"),
    ("real-beyond-float-range", expr_from_json, {"kind": "RealLiteral", "value": 10**400},
     ValueError, "real literal out of range"),
    ("real-infinite", expr_from_json, json.loads('{"kind": "RealLiteral", "value": 1e400}'),
     ValueError, "real literal out of range"),
    ("real-nan", expr_from_json, {"kind": "RealLiteral", "value": math.nan},
     ValueError, "real literal out of range"),
    ("integer-negative", expr_from_json, {"kind": "IntegerLiteral", "value": -5},
     ValueError, "IntegerLiteral value must not be negative"),
    ("integer-most-negative", expr_from_json, {"kind": "IntegerLiteral", "value": -2**63},
     ValueError, "IntegerLiteral value must not be negative"),
    ("real-negative", expr_from_json, {"kind": "RealLiteral", "value": -0.5},
     ValueError, "RealLiteral value must not be negative"),
    ("real-negative-zero", expr_from_json, {"kind": "RealLiteral", "value": -0.0},
     ValueError, "RealLiteral value must not be negative"),
    ("real-negative-integer", expr_from_json, {"kind": "RealLiteral", "value": -3},
     ValueError, "RealLiteral value must not be negative"),
    ("unknown-kind", expr_from_json, {"kind": "Lambda"},
     ValueError, "unknown node kind 'Lambda'"),
    ("wrong-schema-version", ast_from_json, _document(schemaVersion="bocl-ast/99"),
     ValueError, "unsupported AST schema version 'bocl-ast/99'"),
    ("encode-non-node", expr_to_json, 42, TypeError, "not an expression node: 42"),
    ("print-non-node", pretty_print, 42, TypeError, "not an expression node: 42"),
    ("encode-constraint", expr_to_json, ConstraintAst("Book", Stereotype.INV, None, SelfExp()),
     TypeError, "not an expression node: ConstraintAst(context_class_name='Book', "
     "stereotype=<Stereotype.INV: 'inv'>, constraint_name=None, body=SelfExp())"),
]


@pytest.mark.parametrize(
    "convert,value,error,message",
    [pytest.param(*case[1:], id=case[0]) for case in _REJECTIONS],
)
def test_json_form_rejects(convert, value, error, message):
    with pytest.raises(error) as exc:
        convert(value)
    assert str(exc.value) == message


def test_max_depth_not_chain_round_trips():
    node = SelfExp()
    for _ in range(MAX_DEPTH):
        node = UnaryExp(UnaryOperator.NOT, node)
    assert expr_from_json(expr_to_json(node)) == node
    too_deep = expr_to_json(UnaryExp(UnaryOperator.NOT, node))
    with pytest.raises(ValueError) as exc:
        expr_from_json(too_deep)
    assert str(exc.value) == "expression nests too deeply"


def test_real_literal_decodes_an_integer_as_float():
    node = expr_from_json({"kind": "RealLiteral", "value": 2})
    assert node == RealLiteralExp(2.0)
    assert type(node.value) is float


@pytest.mark.parametrize("value", [0.0, 0.5, 2.0, 110.75, 1e300, 1e-5, 123456.789])
def test_format_real_round_trips_exactly(value):
    text = format_real(value)
    assert float(text) == value
    # And the text re-lexes as a real literal.
    assert parse_expression(text) == RealLiteralExp(value)

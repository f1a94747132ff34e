import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocl.ast import (
    MAX_DEPTH,
    BooleanLiteralExp,
    CollectionOp,
    CollectionOpExp,
    IfExp,
    InfixOperator,
    IntegerLiteralExp,
    IteratorExp,
    IteratorKind,
    OperationCallExp,
    PropertyExp,
    SelfExp,
    StringLiteralExp,
    UnaryExp,
    UnaryOperator,
    VariableExp,
    pretty_print,
)
from bocl.lexer import ParseError, position, tokenize
from bocl.parser import parse_constraint, parse_expression

from generators import gen_syntactic_constraint


def test_page_number_invariant():
    ast = parse_constraint("context Book inv invBook: self.pages > 0")
    assert ast.context_class_name == "Book"
    assert ast.constraint_name == "invBook"
    assert ast.body == OperationCallExp(
        InfixOperator.GT,
        PropertyExp(SelfExp(), "pages"),
        IntegerLiteralExp(0),
    )


def test_if_then_else_constraint():
    ast = parse_constraint(
        "context Library inv Constraint2: if self.name = 'Children Library' then "
        "self.contains->forAll(i_book : Book | i_book.pages <= 100) else true endif"
    )
    body = ast.body
    assert isinstance(body, IfExp)
    assert body.condition == OperationCallExp(
        InfixOperator.EQ,
        PropertyExp(SelfExp(), "name"),
        StringLiteralExp("Children Library"),
    )
    then = body.then_branch
    assert isinstance(then, IteratorExp)
    assert then.kind is IteratorKind.FOR_ALL
    assert then.var_name == "i_book"
    assert then.var_type_name == "Book"
    assert body.else_branch == BooleanLiteralExp(True)


def test_select_size_constraint():
    ast = parse_constraint(
        "context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size() > 0"
    )
    body = ast.body
    assert isinstance(body, OperationCallExp) and body.op is InfixOperator.GT
    size = body.left
    assert isinstance(size, CollectionOpExp) and size.op is CollectionOp.SIZE
    assert isinstance(size.source, IteratorExp)
    assert size.source.kind is IteratorKind.SELECT
    assert body.right == IntegerLiteralExp(0)


def test_constraint_without_name():
    ast = parse_constraint("context Book inv: true")
    assert ast.constraint_name is None


def test_keywords_any_case():
    ast = parse_constraint("CONTEXT Book INV x: TRUE And False")
    assert ast.body == OperationCallExp(
        InfixOperator.AND, BooleanLiteralExp(True), BooleanLiteralExp(False)
    )


# -- precedence --

def test_multiplication_binds_tighter_than_addition():
    assert parse_expression("1 + 2 * 3") == OperationCallExp(
        InfixOperator.ADD,
        IntegerLiteralExp(1),
        OperationCallExp(InfixOperator.MUL, IntegerLiteralExp(2), IntegerLiteralExp(3)),
    )


def test_not_binds_tighter_than_or():
    assert parse_expression("not true or false") == OperationCallExp(
        InfixOperator.OR,
        UnaryExp(UnaryOperator.NOT, BooleanLiteralExp(True)),
        BooleanLiteralExp(False),
    )


def test_comparison_binds_tighter_than_and():
    expr = parse_expression("a = b and c = d")
    assert expr == OperationCallExp(
        InfixOperator.AND,
        OperationCallExp(InfixOperator.EQ, VariableExp("a"), VariableExp("b")),
        OperationCallExp(InfixOperator.EQ, VariableExp("c"), VariableExp("d")),
    )


def test_additive_left_associative():
    assert parse_expression("1 - 2 - 3") == OperationCallExp(
        InfixOperator.SUB,
        OperationCallExp(InfixOperator.SUB, IntegerLiteralExp(1), IntegerLiteralExp(2)),
        IntegerLiteralExp(3),
    )


def test_unary_minus_binds_tighter_than_multiplication():
    assert parse_expression("-1 * 2") == OperationCallExp(
        InfixOperator.MUL,
        UnaryExp(UnaryOperator.NEG, IntegerLiteralExp(1)),
        IntegerLiteralExp(2),
    )


def test_postfix_binds_tighter_than_unary():
    assert parse_expression("-self.pages") == UnaryExp(
        UnaryOperator.NEG, PropertyExp(SelfExp(), "pages")
    )


def test_property_chain():
    assert parse_expression("self.locatedIn.name") == PropertyExp(
        PropertyExp(SelfExp(), "locatedIn"), "name"
    )


def test_parenthesized_grouping():
    assert parse_expression("(1 + 2) * 3") == OperationCallExp(
        InfixOperator.MUL,
        OperationCallExp(InfixOperator.ADD, IntegerLiteralExp(1), IntegerLiteralExp(2)),
        IntegerLiteralExp(3),
    )


def test_postfix_on_if_expression():
    expr = parse_expression("if a then b else c endif.name")
    assert isinstance(expr, PropertyExp)
    assert isinstance(expr.source, IfExp)


def test_iterator_without_type_annotation():
    expr = parse_expression("self.contains->exists(b | b.pages > 0)")
    assert isinstance(expr, IteratorExp)
    assert expr.var_type_name is None


# -- errors --

def test_comparison_non_associative():
    with pytest.raises(ParseError, match="non-associative"):
        parse_expression("a < b < c")


def test_truncated_input():
    with pytest.raises(ParseError) as exc:
        parse_constraint("context Book inv b: self.pages >")
    assert "expression" in exc.value.expected


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="end of input"):
        parse_expression("1 + 2 3")


@pytest.mark.parametrize("stereotype", ["pre", "post", "derive", "init", "body", "def"])
def test_unsupported_stereotypes(stereotype):
    with pytest.raises(ParseError, match="unsupported stereotype"):
        parse_constraint(f"context Book {stereotype} p: self.pages > 0")


def test_bang_equals_not_accepted():
    with pytest.raises(ParseError):
        parse_expression("a != b")


def test_unknown_collection_operation():
    with pytest.raises(ParseError, match="unknown collection operation"):
        parse_expression("self.contains->sum()")


def test_iterator_variable_cannot_be_self():
    with pytest.raises(ParseError):
        parse_expression("self.contains->forAll(self | true)")


def test_integer_literal_out_of_range():
    parse_expression("9223372036854775807")  # max fits
    with pytest.raises(ParseError, match="64-bit"):
        parse_expression("9223372036854775808")


def test_integer_literal_of_many_digits():
    # Longer than int() accepts from text; leading zeros still count as value 0.
    assert parse_expression("0" * 5000 + "7") == IntegerLiteralExp(7)
    with pytest.raises(ParseError, match="64-bit"):
        parse_expression("9" * 5000)


def test_real_literal_out_of_range():
    parse_expression("1" + "0" * 308 + ".0")  # 1e308 is finite
    with pytest.raises(ParseError, match="real literal out of range") as exc:
        parse_expression("self.pages < 1" + "0" * 400 + ".0")
    assert (exc.value.line, exc.value.col) == (1, 14)


# A chain's links push its first operand one level down each, so the
# first operand's own depth counts toward the chain's: each of these
# nests 100 levels in its first operand and the rest in its links.
_FIRST_OPERAND_THEN_CHAIN = {
    "not-then-and": lambda n: "not " * 100 + "true" + " and true" * (n - 100),
    "if-then-dots": lambda n: (
        "if true then " * 100 + "self" + " else self endif" * 100 + ".x" * (n - 100)
    ),
}


@pytest.mark.parametrize("kind", sorted(_FIRST_OPERAND_THEN_CHAIN))
def test_chain_links_count_below_first_operand(kind):
    build = _FIRST_OPERAND_THEN_CHAIN[kind]
    parse_expression(build(MAX_DEPTH))
    with pytest.raises(ParseError) as exc:
        parse_expression(build(MAX_DEPTH + 1))
    assert exc.value.message == "expression nests too deeply"


# Words of printed constraint text, as the constraint-text fuzz in
# test_cli.py splits them.
_WORD_RE = re.compile(r"'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*|[0-9.]+|->|<>|<=|>=|\S")


@given(
    seed=st.integers(0, 2**32 - 1),
    swaps=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=3),
    separator=st.sampled_from([" ", "\n", "\n  -- note\n\t"]),
    keep=st.floats(0, 1),
)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_syntax_errors_point_at_a_token(seed, swaps, separator, keep):
    text = pretty_print(gen_syntactic_constraint(random.Random(seed), max_depth=4))
    words = _WORD_RE.findall(text)
    for i, j in swaps:
        i, j = i % len(words), j % len(words)
        words[i], words[j] = words[j], words[i]
    source = separator.join(words)
    source = source[: round(len(source) * keep)]
    try:
        tokens = tokenize(source)
    except ParseError as lexical:
        with pytest.raises(ParseError) as exc:
            parse_constraint(source)
        assert (exc.value.line, exc.value.col) == (lexical.line, lexical.col)
        return
    try:
        parse_constraint(source)
    except ParseError as error:
        starts = {position(source, offset) for _, _, offset in tokens}
        assert (error.line, error.col) in starts, error


def test_missing_context_keyword():
    with pytest.raises(ParseError) as exc:
        parse_constraint("Book inv x: true")
    assert "'context'" in exc.value.expected


# The word a syntax error names each kind of token by.
@pytest.mark.parametrize(
    "tail,message",
    [
        ("true 2", "1:26: expected end of input, found integer '2'"),
        ("true 1.5", "1:26: expected end of input, found real '1.5'"),
        ("true 'b'", "1:26: expected end of input, found string 'b'"),
        ("true SELF", "1:26: expected end of input, found keyword 'self'"),
        ("true ::", "1:26: expected end of input, found symbol '::'"),
        ("true y", "1:26: expected end of input, found identifier 'y'"),
        (")", "1:21: expected expression, found symbol ')'"),
        ("", "1:21: expected expression, found end of input"),
    ],
)
def test_syntax_errors_name_the_token_found(tail, message):
    with pytest.raises(ParseError) as exc:
        parse_constraint("context Book inv x: " + tail)
    assert str(exc.value) == message


# -- round-trip properties --

def test_round_trip_seeded_sample():
    rng = random.Random(7)
    for _ in range(200):
        ast = gen_syntactic_constraint(rng, max_depth=5)
        printed = pretty_print(ast)
        assert parse_constraint(printed) == ast, printed


def test_parse_print_parse_is_stable():
    sources = [
        "context Book inv invBook: self.pages>0",
        "context Library inv x: if self.name = 'a' then true else 1 < 2 endif",
        "context Book inv y: not (self.pages > 0 and self.pages < 10) or false",
        "context Book inv z: self.writedBy->collect(a | a.email)->size() >= 1 - 2 - 3",
    ]
    for source in sources:
        first = parse_constraint(source)
        printed = pretty_print(first)
        assert parse_constraint(printed) == first
        assert pretty_print(parse_constraint(printed)) == printed

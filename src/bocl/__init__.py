"""Parse and evaluate OCL invariants over UML-style class and object models."""

from .ast import (
    AST_SCHEMA_VERSION,
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
    ast_from_json,
    ast_to_json,
    expr_from_json,
    expr_to_json,
    pretty_print,
)
from .evaluator import (
    ConstraintResult,
    ConstraintVerdict,
    EvalError,
    EvaluationReport,
    ReportFormat,
    VerdictKind,
    compile_model,
    evaluate_all,
    evaluate_constraint,
    write_report,
)
from .lexer import ParseError, tokenize
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
    UnknownRoleError,
    instances_of,
    navigate,
    validate_conformance,
    validate_structural,
)
from .model_io import (
    IoError,
    IoErrorKind,
    MODEL_SCHEMA_VERSION,
    OBJECTS_SCHEMA_VERSION,
    load_objects,
    load_structural,
    save_objects,
    save_structural,
)
from .parser import parse_constraint, parse_expression
from .resolver import (
    ResolutionError,
    ResolutionErrorKind,
    ResolutionFailure,
    TypedConstraint,
    TypedExpr,
    resolve,
)

__version__ = "0.1.0"

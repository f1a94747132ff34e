"""Command-line entry point: check (parse/resolve) and eval (full pipeline)."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .ast import ast_to_json
from .evaluator import ReportFormat, VerdictKind, compile_model, evaluate_all, write_report
from .lexer import ParseError
from .model_io import IoError, _save_document, load_objects, load_structural
from .resolver import ResolutionFailure


def cmd_check(model_path: str, emit_ast_dir: str | None = None) -> int:
    """Parse and resolve every constraint; 0 when all pass, else 2."""
    try:
        model = load_structural(model_path)
    except IoError as error:
        print(error, file=sys.stderr)
        return 2

    emit_dir = None if emit_ast_dir is None else Path(emit_ast_dir)
    ok = True
    for con, typed in compile_model(model):
        if isinstance(typed, ParseError):
            print(f"{con.name}: syntax error: {typed}", file=sys.stderr)
        elif isinstance(typed, ResolutionFailure):
            for err in typed.errors:
                print(f"{con.name}: {err}", file=sys.stderr)
        else:
            print(f"{con.name}: OK")
            if emit_dir is not None:
                try:
                    emit_dir.mkdir(parents=True, exist_ok=True)
                    _save_document(ast_to_json(typed.ast), emit_dir / f"{con.name}.json")
                except OSError as error:
                    print(f"cannot write --emit-ast output: {error}", file=sys.stderr)
                    return 2
            continue
        ok = False
    return 0 if ok else 2


def cmd_eval(model_path: str, objects_path: str, format: ReportFormat) -> int:
    """Evaluate all constraints: 0 all True, 1 any False, 2 any Error."""
    try:
        model = load_structural(model_path)
        objects, warnings = load_objects(objects_path, model)
    except IoError as error:
        print(error, file=sys.stderr)
        return 2
    for warning in warnings:
        print(warning, file=sys.stderr)

    report = evaluate_all(model, objects)
    write_report(report, format, sys.stdout)

    verdicts = {result.verdict.overall for result in report.results}
    if VerdictKind.ERROR in verdicts:
        return 2
    if VerdictKind.FALSE in verdicts:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    # Escape what the output encoding cannot hold; what it can is unchanged.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = argparse.ArgumentParser(
        prog="bocl",
        description="Check and evaluate OCL invariants over JSON models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and resolve the model's constraints")
    check.add_argument("model", help="structural model (bocl-model/1 JSON)")
    check.add_argument(
        "--emit-ast",
        metavar="DIR",
        default=None,
        help="write one bocl-ast/1 JSON file per constraint into DIR",
    )

    ev = sub.add_parser("eval", help="evaluate the constraints over an object model")
    ev.add_argument("model", help="structural model (bocl-model/1 JSON)")
    ev.add_argument("objects", help="object model (bocl-objects/1 JSON)")
    ev.add_argument(
        "--format",
        choices=[fmt.value for fmt in ReportFormat],
        default=ReportFormat.TEXT.value,
        help="report format (default: text)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            code = cmd_check(args.model, args.emit_ast)
        else:
            code = cmd_eval(args.model, args.objects, ReportFormat(args.format))
        sys.stdout.flush()
    except OSError as error:
        # stdout failed: quietly if its reader closed it early, else in one
        # line. Point stdout at devnull so that the flush at exit is silent too.
        if not isinstance(error, BrokenPipeError):
            print(f"cannot write output: {error}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

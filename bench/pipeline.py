"""The bocl pipeline driven in process: once untraced, as a library user
calls it, and once replayed step by step under spans.

Every layer is timed from outside, around calls into its public functions;
no code under src/ is instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from workloads import count_nodes

from bocl import (
    ConstraintResult,
    ConstraintVerdict,
    EvaluationReport,
    ParseError,
    ReportFormat,
    ResolutionFailure,
    Severity,
    VerdictKind,
    evaluate_all,
    evaluate_constraint,
    load_objects,
    load_structural,
    navigate,
    parse_constraint,
    resolve,
    tokenize,
    validate_conformance,
    validate_structural,
    write_report,
)
from bocl.model_io import objects_from_document, structural_from_document

# Exact counters of one replay; they must repeat from rep to rep.
COUNTERS = (
    "model_io.objects",
    "model_io.report_bytes",
    "model.conformance_warnings",
    "model.navigate_calls",
    "lexer.tokens",
    "parser.ast_nodes",
    "parser.errors",
    "resolver.typed_nodes",
    "resolver.failures",
    "evaluator.instances",
    "evaluator.error_verdicts",
)

# Span name -> layer time it sums into.
_SPAN_TIMES = {
    "model_io.decode": "model_io.decode_s",
    "model_io.build_structural": "model_io.build_structural_s",
    "model_io.build_objects": "model_io.build_objects_s",
    "model_io.write_report": "model_io.write_report_s",
    "model.validate_structural": "model.validate_structural_s",
    "model.validate_conformance": "model.validate_conformance_s",
    "lexer.tokenize": "lexer.tokenize_s",
    "parser.parse_constraint": "parse_constraint_s",
    "resolver.resolve": "resolver.resolve_s",
    "evaluator.evaluate_constraint": "evaluator.evaluate_s",
}
# Replay steps the CLI does not take; left out of the traced total.
_EXTRA_SPANS = ("model.navigate_sweep", "lexer.tokenize")


@dataclass
class Inputs:
    model_path: Path
    objects_path: Path | None  # None for check
    report_path: Path
    report_format: ReportFormat | None  # None for check


# ---------- Untraced: what setup_s and verdict_s time ----------

def setup(inputs: Inputs):
    """Load and validate the inputs through the public loaders; returns the
    model, the object model (None for check) and the warnings as text."""
    model = load_structural(inputs.model_path)
    if inputs.objects_path is None:
        return model, None, []
    objects, warnings = load_objects(inputs.objects_path, model)
    return model, objects, [str(w) for w in warnings]


def check_constraints(model) -> list[tuple[str, str, list[str]]]:
    """What `bocl check` does after loading: parse and resolve each constraint."""
    statuses = []
    for con in model.constraints:
        try:
            resolve(parse_constraint(con.expression), model)
        except ParseError as error:
            statuses.append((con.name, "syntax", [f"syntax error: {error}"]))
        except ResolutionFailure as failure:
            statuses.append((con.name, "type", [str(e) for e in failure.errors]))
        else:
            statuses.append((con.name, "OK", []))
    return statuses


def eval_report(inputs: Inputs, model, objects) -> None:
    """What `bocl eval` does after loading: evaluate all, write the report."""
    report = evaluate_all(model, objects)
    with open(inputs.report_path, "w", encoding="utf-8") as sink:
        write_report(report, inputs.report_format, sink)


# ---------- Traced replay ----------

class Tracer:
    """In-memory spans [id, parent id, name, start, end]; one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._open[-1] if self._open else None, name,
                  time.perf_counter(), 0.0]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the time its child spans cover."""
    covered = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + end - start
    totals: dict[str, float] = {}
    for sid, _, name, start, end in spans:
        totals[name] = totals.get(name, 0.0) + end - start - covered.get(sid, 0.0)
    return totals


@dataclass
class Replay:
    counts: dict[str, int]
    times: dict[str, float]  # layer times of this rep, in seconds
    check_ms: list[float]  # per-constraint parse+resolve
    warnings: list[str]
    report: str = ""  # eval: the report as written
    stdout: str = ""  # check: what `bocl check` would print
    stderr: str = ""
    statuses: list = field(default_factory=list)


def _count_typed(typed) -> int:
    return 1 + sum(_count_typed(child) for child in typed.children)


def _navigate_sweep(objects, model) -> tuple[float, int]:
    """Call navigate once per (object, navigable role): the sweep that
    conformance's multiplicity check makes."""
    clock = time.perf_counter
    busy, calls = 0.0, 0
    for obj in objects.objects:
        for role in sorted(model.navigable_ends(obj.classifier)):
            start = clock()
            navigate(objects, obj, role, model)
            busy += clock() - start
            calls += 1
    return busy, calls


def replay(inputs: Inputs, tracer: Tracer) -> Replay:
    first = len(tracer.spans)
    counts = dict.fromkeys(COUNTERS, 0)
    nav_s = 0.0
    results, statuses, out, err = [], [], [], []
    trees, typed_trees = [], []  # counted after the traced region
    with tracer.span("replay"):
        with tracer.span("model_io.decode"):
            doc = json.loads(inputs.model_path.read_text(encoding="utf-8"))
        with tracer.span("model_io.build_structural"):
            model = structural_from_document(doc)
        with tracer.span("model.validate_structural"):
            problems = validate_structural(model)
        objects = None
        if inputs.objects_path is not None:
            with tracer.span("model_io.decode"):
                doc = json.loads(inputs.objects_path.read_text(encoding="utf-8"))
            with tracer.span("model_io.build_objects"):
                objects = objects_from_document(doc, model)
            with tracer.span("model.validate_conformance"):
                problems += validate_conformance(objects, model)
            with tracer.span("model.navigate_sweep"):
                nav_s, counts["model.navigate_calls"] = _navigate_sweep(objects, model)
            counts["model_io.objects"] = len(objects.objects)
        errors = [str(d) for d in problems if d.severity is Severity.ERROR]
        if errors:
            raise ValueError("replay: inputs do not load: " + "; ".join(errors))
        warnings = [str(d) for d in problems if d.severity is Severity.WARNING]
        counts["model.conformance_warnings"] = len(warnings)

        for con in model.constraints:
            with tracer.span("constraint"):
                try:
                    with tracer.span("lexer.tokenize"):
                        tokens = tokenize(con.expression)
                    counts["lexer.tokens"] += len(tokens)
                except ParseError:
                    pass
                try:
                    with tracer.span("parser.parse_constraint"):
                        ast = parse_constraint(con.expression)
                    trees.append(ast.body)
                    with tracer.span("resolver.resolve"):
                        typed = resolve(ast, model)
                    typed_trees.append(typed.body)
                except ParseError as error:
                    counts["parser.errors"] += 1
                    statuses.append((con.name, "syntax", [f"syntax error: {error}"]))
                    err.append(f"{con.name}: syntax error: {error}\n")
                    verdict = ConstraintVerdict(con.name, VerdictKind.ERROR,
                                                error_message=f"Exception Occured! Info: {error}")
                except ResolutionFailure as failure:
                    counts["resolver.failures"] += 1
                    statuses.append((con.name, "type", [str(e) for e in failure.errors]))
                    err.extend(f"{con.name}: {e}\n" for e in failure.errors)
                    verdict = ConstraintVerdict(con.name, VerdictKind.ERROR,
                                                error_message=f"Exception Occured! Info: {failure}")
                else:
                    statuses.append((con.name, "OK", []))
                    out.append(f"{con.name}: OK\n")
                    if objects is not None:
                        with tracer.span("evaluator.evaluate_constraint"):
                            verdict = evaluate_constraint(typed, objects, name=con.name)
                        failed = verdict.overall is VerdictKind.ERROR
                        counts["evaluator.instances"] += len(verdict.per_instance) + failed
                        if failed:
                            counts["evaluator.error_verdicts"] += 1
                            verdict = replace(verdict, error_message=(
                                f"Exception Occured! Info: {verdict.error_message}"))
                if objects is not None:
                    results.append(ConstraintResult(con.expression, verdict))

        if objects is not None:
            with tracer.span("model_io.write_report"):
                with open(inputs.report_path, "w", encoding="utf-8") as sink:
                    write_report(EvaluationReport(tuple(results)), inputs.report_format, sink)

    counts["parser.ast_nodes"] = sum(count_nodes(tree) for tree in trees)
    counts["resolver.typed_nodes"] = sum(_count_typed(tree) for tree in typed_trees)
    report = ""
    if objects is not None:
        report = inputs.report_path.read_text(encoding="utf-8")
        counts["model_io.report_bytes"] = len(report.encode("utf-8"))
    spans = tracer.spans[first:]
    times = dict.fromkeys(_SPAN_TIMES.values(), 0.0)
    front_end: dict[int, float] = {}
    for _, parent, name, start, end in spans:
        if name in _SPAN_TIMES:
            times[_SPAN_TIMES[name]] += end - start
        if name in ("parser.parse_constraint", "resolver.resolve"):
            front_end[parent] = front_end.get(parent, 0.0) + end - start
    times["parser.parse_s"] = times.pop("parse_constraint_s") - times["lexer.tokenize_s"]
    times["model.navigate_s"] = nav_s
    root = spans[0]
    times["traced_total_s"] = root[4] - root[3] - sum(
        end - start for _, _, name, start, end in spans if name in _EXTRA_SPANS)
    return Replay(counts, times, [s * 1e3 for s in front_end.values()], warnings,
                  report, "".join(out), "".join(err), statuses)

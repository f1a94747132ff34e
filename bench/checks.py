"""Compare bocl's outputs with the answers the generators planted.

An operation is one constraint's verdict (eval) or check status (check) in
one run. Every function here returns the number of failed operations; a run
that crashes, exits with the wrong code or writes unexpected diagnostics
fails all of its operations.
"""

from __future__ import annotations

import json

from reference_eval import reference_verdict
from workloads import Expected, Workload

from bocl import evaluate_all, parse_constraint


class Checker:
    """A workload's expected outputs, rendered once, and the comparisons."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.total = len(workload.expected)
        statuses = {exp.status for exp in workload.expected}
        if workload.command == "check":
            self.exit_code = 0 if statuses == {"OK"} else 2
            self.stdout = "".join(f"{e.name}: OK\n" for e in workload.expected if e.status == "OK")
            return
        self.exit_code = 2 if "Error" in statuses else 1 if "False" in statuses else 0
        self.stderr = "".join(line + "\n" for line in workload.warnings)
        self.text_lines = [f"Invariant:{e.expression}:{_verdict_text(e)}" for e in workload.expected]
        self.text = "".join(line + "\n" for line in self.text_lines)
        self.json_results = [_json_result(e) for e in workload.expected]

    def report(self, report: str) -> int:
        """Failed constraints in an eval report: text byte for byte, JSON as parsed."""
        if self.workload.report_format == "text":
            if report == self.text:
                return 0
            got = report.split("\n")
            wanted = self.text_lines
            return sum(1 for i, line in enumerate(wanted) if i >= len(got) or got[i] != line) or self.total
        try:
            doc = json.loads(report)
        except json.JSONDecodeError:
            return self.total
        if not report.endswith("}\n") or not isinstance(doc, dict) or set(doc) != {"results"}:
            return self.total
        got = doc["results"]
        if not isinstance(got, list) or len(got) != self.total:
            return self.total
        return sum(1 for g, w in zip(got, self.json_results) if g != w)

    def statuses(self, statuses: list[tuple[str, str, list[str]]]) -> int:
        """Failed constraints given (name, status, diagnostics) per constraint."""
        if len(statuses) != self.total:
            return self.total
        failed = 0
        for (name, status, diags), exp in zip(statuses, self.workload.expected):
            ok = name == exp.name and status == exp.status
            if ok and exp.detail is not None:
                ok = any(exp.detail in d for d in diags)
            failed += not ok
        return failed

    def cli_run(self, code: int, stdout: str, stderr: str) -> int:
        """Failed constraints in one `bocl eval` or `bocl check` run."""
        if self.workload.command == "check":
            if code != self.exit_code or stdout != self.stdout:
                return self.total
            return self.statuses(_statuses_from_check_output(self.workload, stdout, stderr))
        if code != self.exit_code or stderr != self.stderr:
            return self.total
        return self.report(stdout)


def _verdict_text(exp: Expected) -> str:
    return f"Error({exp.detail})" if exp.status == "Error" else exp.status


def _json_result(exp: Expected) -> dict:
    entry = {
        "name": exp.name,
        "expression": exp.expression,
        "overall": exp.status,
        "perInstance": [{"object": o, "holds": h} for o, h in exp.per_instance],
    }
    if exp.status == "Error":
        entry["error"] = exp.detail
    return entry


def _statuses_from_check_output(workload: Workload, stdout: str, stderr: str):
    """Per-constraint (name, status, diagnostics) read back from `bocl check`."""
    ok_names = set()
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and rest == "OK":
            ok_names.add(name)
    diags: dict[str, list[str]] = {}
    for line in stderr.splitlines():
        name, sep, rest = line.partition(": ")
        if sep:
            diags.setdefault(name, []).append(rest)
    statuses = []
    for exp in workload.expected:
        found = diags.get(exp.name, [])
        if exp.name in ok_names and not found:
            status = "OK"
        elif found and all(d.startswith("syntax error: ") for d in found):
            status = "syntax"
        elif found and exp.name not in ok_names:
            status = "type"
        else:
            status = "?"
        statuses.append((exp.name, status, found))
    return statuses


def check_against_oracle(workload: Workload, model, objects) -> int:
    """Failed constraints of a small draw, where the planted answer, the
    independent oracle in tests/reference_eval.py and bocl must all agree.
    The only Error the generators plant is a missing slot."""
    report = evaluate_all(model, objects)
    if len(report.results) != len(workload.expected):
        return len(workload.expected)
    failed = 0
    for exp, con, result in zip(workload.expected, model.constraints, report.results):
        ref = reference_verdict(parse_constraint(con.expression), model, objects)
        verdict = result.verdict
        agree = (
            ref.overall == exp.status == verdict.overall.value
            and list(ref.per_instance) == exp.per_instance == list(verdict.per_instance)
        )
        if exp.status == "Error":
            agree = agree and ref.error_kind == "MissingSlot" and verdict.error_message == exp.detail
        failed += not agree
    return failed

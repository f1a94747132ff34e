"""Layered, oracle-checked benchmark for `bocl eval` and `bocl check`.

Run from the root of a checkout:

    python3 bench/run.py --workload eval-wide --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, runs the real pipeline
over them for about --seconds, checks every verdict against the answer the
generator planted, and prints each metric with its unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones. The exit code is 0 only when every operation was correct.
See bench/README.md for the metrics and the reasons for each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eval-wide", "eval-linked", "check-many")
MIN_REPS = 3
# Stop starting reps after this long, so a run ends within 180 s.
HARD_STOP_S = 140.0
CLI_TIMEOUT_S = 60.0
SMALL_DRAW = 1 / 20  # size of the draw checked against the reference oracle
# Setups are short on some workloads: repeat them within a rep until this
# long is spent, so setup_s is a median over many samples.
SETUP_REP_S = 0.2

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics on the result line of a traced run, as in BENCHMARK.json:
# exact counters, and the layer times measured on every workload.
PER_LAYER_UNITS = {
    "model_io.decode_s": "s",
    "model_io.build_structural_s": "s",
    "model_io.objects": "count",
    "model_io.report_bytes": "bytes",
    "model.validate_structural_s": "s",
    "model.conformance_warnings": "count",
    "model.navigate_calls": "count",
    "lexer.tokenize_s": "s",
    "lexer.tokens": "count",
    "parser.parse_s": "s",
    "parser.ast_nodes": "count",
    "parser.errors": "count",
    "resolver.resolve_s": "s",
    "resolver.typed_nodes": "count",
    "resolver.failures": "count",
    "evaluator.instances": "count",
    "evaluator.error_verdicts": "count",
    "cli.check_ms.p50": "ms",
    "cli.check_ms.p99": "ms",
}
# Object-side layer times: printed and recorded, but not on the result line,
# since they read a constant 0 on check-many, whose pipeline skips them.
OBJECT_LAYER_UNITS = {
    "model_io.build_objects_s": "s",
    "model_io.write_report_s": "s",
    "model.validate_conformance_s": "s",
    "model.navigate_s": "s",
    "model.navigate_us": "us",
    "evaluator.evaluate_s": "s",
    "evaluator.us_per_instance": "us",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size factor for the generators; named workloads run at 1, "
                             "other scales are reported apart and not gated")
    args = parser.parse_args(argv)
    if not args.scale > 0 or not args.seconds > 0:
        parser.error("--scale and --seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(root),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class CliRun:
    """One `python -m bocl ...` child, timed from spawn to exit."""

    def __init__(self, argv: list[str], workdir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out_path, err_path = workdir / "cli.stdout", workdir / "cli.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.seconds = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bocl" / "__init__.py").is_file() or not (
            ROOT / "tests" / "generators.py").is_file():
        print("bench: src/bocl and tests/generators.py not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # The benchmark's modules import bocl and the test generators, so the
    # paths go in before they are imported.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import bocl

    if Path(bocl.__file__).resolve().parent != ROOT / "src" / "bocl":
        print(f"bench: imported bocl from {bocl.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        return Bench(args, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


class Bench:
    def __init__(self, args: argparse.Namespace, workdir: Path):
        import checks
        import pipeline
        import workloads

        self.checks, self.pipeline = checks, pipeline
        self.args = args
        self.started = time.perf_counter()
        self.run_id = uuid.uuid4().hex
        self.workload = workloads.GENERATORS[args.workload](args.seed, args.scale)
        self.checker = checks.Checker(self.workload)
        self.n = len(self.workload.expected)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.workdir = workdir
        self.inputs = self._write_inputs(self.workload, "full")
        argv = [sys.executable, "-m", "bocl", self.workload.command, str(self.inputs.model_path)]
        if self.workload.command == "eval":
            argv += [str(self.inputs.objects_path), "--format", self.workload.report_format]
        self.cli_argv = argv
        self.small = None
        if self.workload.command == "eval":
            self.small = workloads.GENERATORS[args.workload](args.seed, args.scale * SMALL_DRAW)
        # The benchmark's own objects (documents, expected answers) are
        # long-lived: keep the collector from walking them during timed steps.
        gc.collect()
        gc.freeze()

    def _write_inputs(self, workload, tag: str):
        from bocl import ReportFormat

        model_path = self.workdir / f"{tag}.model.json"
        model_path.write_text(json.dumps(workload.model_doc, indent=2) + "\n", encoding="utf-8")
        objects_path = None
        if workload.objects_doc is not None:
            objects_path = self.workdir / f"{tag}.objects.json"
            objects_path.write_text(json.dumps(workload.objects_doc, indent=2) + "\n",
                                    encoding="utf-8")
        fmt = workload.report_format
        return self.pipeline.Inputs(model_path, objects_path, self.workdir / f"{tag}.report",
                                    ReportFormat(fmt) if fmt else None)

    def _tally(self, failed: int, what: str) -> None:
        self.attempted += self.n
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {self.n} constraints wrong")

    # -- the steps of a run --

    def oracle_check(self) -> None:
        """A small draw of the same family and seed must agree with the
        planted answers and with tests/reference_eval.py."""
        if self.small is None:
            return
        inputs = self._write_inputs(self.small, "small")
        model, objects, warnings = self.pipeline.setup(inputs)
        failed = self.checks.check_against_oracle(self.small, model, objects)
        if warnings != self.small.warnings:
            failed = len(self.small.expected)
        self.attempted += len(self.small.expected)
        self.failed += failed
        if failed:
            self.problems.append(f"small draw vs reference oracle: {failed} constraints disagree")

    def cli(self) -> CliRun:
        run = CliRun(self.cli_argv, self.workdir)
        self._tally(self.checker.cli_run(run.code, run.stdout, run.stderr),
                    f"CLI run (exit {run.code})")
        return run

    def in_process(self) -> tuple[list[float], float]:
        """Untraced setups until SETUP_REP_S is spent, then one verdict on the
        last setup's models; each timed, outputs checked."""
        pipeline = self.pipeline
        setups: list[float] = []
        while not setups or sum(setups) < SETUP_REP_S:
            gc.collect()
            start = time.perf_counter()
            model, objects, warnings = pipeline.setup(self.inputs)
            setups.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        if objects is None:
            statuses = pipeline.check_constraints(model)
        else:
            pipeline.eval_report(self.inputs, model, objects)
        verdict_s = time.perf_counter() - start
        if objects is None:
            failed = self.checker.statuses(statuses)
        else:
            report = self.inputs.report_path.read_text(encoding="utf-8")
            failed = self.checker.report(report)
            if warnings != self.workload.warnings:
                failed = self.n
        self._tally(failed, "in-process verdict")
        return setups, verdict_s

    def more_reps(self, reps: int, deadline: float) -> bool:
        now = time.perf_counter()
        if now - self.started > HARD_STOP_S:
            return False
        return reps < MIN_REPS or now < deadline

    def run(self) -> int:
        args = self.args
        env = environment(ROOT)
        print(f"# bocl benchmark  workload={args.workload} seed={args.seed} scale={args.scale:g} "
              f"seconds={args.seconds:g} trace={args.trace} run_id={self.run_id}")
        print("# env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
        if args.scale != 1:
            print(f"# scale {args.scale:g} is not a named workload size: "
                  "reported apart, not gated")
        self.oracle_check()
        warm_cli = self.cli()  # also compiles bocl's bytecode on a fresh checkout
        self.in_process()
        if args.trace:
            metrics, record = self.traced(warm_cli)
        else:
            metrics, record = self.untraced()
        ratio = self.failed / self.attempted
        print(f"{'fail_ratio':<30} {ratio:<14g} ratio  ({self.failed} failed / "
              f"{self.attempted} attempted operations)")
        for problem in self.problems[:20]:
            print(f"# FAIL {problem}")
        correct = self.failed == 0
        record.update(workload=args.workload, seed=args.seed, scale=args.scale,
                      seconds=args.seconds, trace=args.trace, run_id=self.run_id, env=env,
                      attempted=self.attempted, failed=self.failed)
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0 if correct else 1

    def untraced(self) -> tuple[dict, dict]:
        samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
        deadline = time.perf_counter() + self.args.seconds
        while self.more_reps(len(samples["run_s"]), deadline):
            cli = self.cli()
            samples["run_s"].append(cli.seconds)
            samples["peak_rss_mb"].append(cli.peak_rss_mb)
            setups, verdict_s = self.in_process()
            samples["setup_s"].extend(setups)
            samples["verdict_s"].append(verdict_s)
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            q1, median, q3 = quartiles(samples[name])
            metrics[name] = {"value": median, "unit": unit}
            print(f"{name:<30} {median:<14.6g} {unit:<5}  (median of {len(samples[name])}; "
                  f"q1 {q1:.6g}, q3 {q3:.6g})")
        return metrics, {"samples": samples}

    def traced(self, cli: CliRun) -> tuple[dict, dict]:
        pipeline, workload = self.pipeline, self.workload
        tracer = pipeline.Tracer(self.run_id)
        setup_samples: list[float] = []
        verdict_samples: list[float] = []
        reps: list = []
        deadline = time.perf_counter() + self.args.seconds
        while self.more_reps(len(reps), deadline):
            setups, verdict_s = self.in_process()
            setup_samples.extend(setups)
            verdict_samples.append(verdict_s)
            gc.collect()
            rep = pipeline.replay(self.inputs, tracer)
            reps.append(rep)
            # Replay equivalence: the traced steps give the CLI's output.
            if workload.command == "eval":
                failed = self.checker.report(rep.report)
                same = rep.report == cli.stdout and rep.warnings == workload.warnings
            else:
                failed = self.checker.statuses(rep.statuses)
                same = rep.stdout == cli.stdout and rep.stderr == cli.stderr
            self._tally(failed if same else self.n, "traced replay")

        counts = reps[0].counts
        self._check_counts(reps, cli)
        times = {name: statistics.median(rep.times[name] for rep in reps) for name in reps[0].times}
        per_call = [ms for rep in reps for ms in rep.check_ms]
        values = dict(counts)
        values.update((name, times[name]) for name in times if name != "traced_total_s")
        calls, instances = counts["model.navigate_calls"], counts["evaluator.instances"]
        values["model.navigate_us"] = times["model.navigate_s"] / calls * 1e6 if calls else 0.0
        values["evaluator.us_per_instance"] = (
            times["evaluator.evaluate_s"] / instances * 1e6 if instances else 0.0)
        values["cli.check_ms.p50"] = statistics.median(per_call) if per_call else 0.0
        values["cli.check_ms.p99"] = (
            statistics.quantiles(per_call, n=100)[98] if len(per_call) > 1 else values["cli.check_ms.p50"])

        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, unit in {**PER_LAYER_UNITS, **OBJECT_LAYER_UNITS}.items():
            print(f"{name:<30} {values[name]:<14.6g} {unit}")
        setup_s = statistics.median(setup_samples)
        verdict_s = statistics.median(verdict_samples)
        untraced_s = setup_s + verdict_s
        traced_s = times["traced_total_s"]
        print(f"{'untraced setup_s':<30} {setup_s:<14.6g} s      (median of {len(setup_samples)})")
        print(f"{'untraced verdict_s':<30} {verdict_s:<14.6g} s      (median of {len(verdict_samples)})")
        print(f"{'traced replay total':<30} {traced_s:<14.6g} s      (median of {len(reps)}; "
              f"tracing overhead {traced_s - untraced_s:+.6g} s, "
              f"{(traced_s - untraced_s) / untraced_s:+.1%} of untraced setup_s+verdict_s)")
        print(f"{'cli.check_ms samples':<30} {len(per_call)}")
        for label, share in self._shares(values, setup_s, verdict_s):
            print(f"# share  {label:<64} {share:.1%}")
        trace_path = self._write_trace(tracer, reps)
        print(f"# spans and self times written to {trace_path.relative_to(ROOT)}")
        return metrics, {"per_layer": values, "setup_s": setup_s, "verdict_s": verdict_s,
                         "traced_s": traced_s, "reps": len(reps),
                         "check_ms_samples": len(per_call)}

    def _check_counts(self, reps: list, cli: CliRun) -> None:
        """Counters repeat exactly from rep to rep, and agree with the CLI."""
        counts, workload = reps[0].counts, self.workload
        if any(rep.counts != counts for rep in reps):
            self.problems.append("counters differ between replays")
            self.failed += self.n
        if workload.command == "eval":
            instances = sum(len(e.per_instance) + (e.status == "Error") for e in workload.expected)
            agree = (counts["model_io.report_bytes"] == len(cli.stdout.encode("utf-8"))
                     and counts["model.conformance_warnings"] == len(workload.warnings)
                     and counts["evaluator.instances"] == instances)
            if not agree:
                self.problems.append("counters disagree with the CLI run")
                self.failed += self.n

    @staticmethod
    def _shares(v: dict, setup_s: float, verdict_s: float) -> list[tuple[str, float]]:
        """The shares the workload reasons in README.md rest on."""
        front = v["lexer.tokenize_s"] + v["parser.parse_s"] + v["resolver.resolve_s"]
        both = setup_s + verdict_s
        return [
            ("lexer+parser+resolver / verdict_s", front / verdict_s),
            ("validate_conformance+evaluate / setup_s+verdict_s",
             (v["model.validate_conformance_s"] + v["evaluator.evaluate_s"]) / both),
            ("evaluate+write_report+build_objects / setup_s+verdict_s",
             (v["evaluator.evaluate_s"] + v["model_io.write_report_s"]
              + v["model_io.build_objects_s"]) / both),
            ("navigate_s / setup_s+verdict_s", v["model.navigate_s"] / both),
        ]

    def _write_trace(self, tracer, reps: list) -> Path:
        out_dir = ROOT / ".bench_traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{self.args.workload}-seed{self.args.seed}-{self.run_id}.json"
        origin = tracer.spans[0][3]
        doc = {
            "run_id": tracer.run_id,
            "workload": self.args.workload,
            "seed": self.args.seed,
            "self_time_s": self.pipeline.self_times(tracer.spans),
            "reps": [rep.times for rep in reps],
            "spans": [[sid, parent, name, start - origin, end - origin]
                      for sid, parent, name, start, end in tracer.spans],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return path


if __name__ == "__main__":
    sys.exit(main())

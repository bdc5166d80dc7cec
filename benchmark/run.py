"""xinflate benchmark: seeded explanation workloads, closed loop, one process.

    python3 benchmark/run.py --workload forest-axp --seed 0 --seconds 30 --trace 0

One caller sends the next instance only after the previous answer, with no
threads and no worker pool.  Every answer is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` each instance runs once untraced and
once traced (alternating which goes first), the per-layer metrics come
from the traced calls' spans, and the spans are written to
``.bench_out/``.  The exit code is 1 when any check failed and 2 when the
program or its data cannot be found.

``--write-reference`` runs every case of the workload once and records
its answers under ``benchmark/reference/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 41, 1.0


def _import_program():
    """Import xinflate from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "xinflate" / "__init__.py").is_file():
        raise ImportError(f"no xinflate sources under {src}")
    sys.path.insert(0, str(src))
    import xinflate

    if Path(xinflate.__file__).resolve().parent != (src / "xinflate").resolve():
        raise ImportError(f"xinflate resolved to {xinflate.__file__}, not this checkout")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


class Run:
    """One benchmark run: set-up, the closed loop, checks, metrics."""

    def __init__(self, workload, seed: int, workdir: Path, trace: bool):
        import bench_trace
        import bench_workloads as bw

        self.bw = bw
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = bw.load_reference(workload, seed)
        self.plain = bw.plain_api()
        self.tracer = bench_trace.Tracer() if trace else None
        self.traced = bw.traced_api(self.tracer) if trace else None
        self.setup_s: list[float] = []
        self.latency_ns: dict[int, list[int]] = {}
        self.traced_ns: list[int] = []
        self.decisions: dict[int, int] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def setup(self) -> None:
        """Set up at least SETUP_MIN times and for SETUP_BUDGET_S; keep the last.

        Each set-up starts in a fresh directory.  setup_s is their median.
        """
        k = 0
        while k < SETUP_MIN or (sum(self.setup_s) < SETUP_BUDGET_S and k < SETUP_MAX):
            where = self.workdir / f"setup{k}"
            where.mkdir()
            t0 = perf_counter()
            self.ctx = self.workload.setup(self.seed, where)
            self.setup_s.append(perf_counter() - t0)
            k += 1

    def call(self, case, api):
        t0 = perf_counter_ns()
        answer = self.workload.run(self.ctx, case, api)
        return answer, perf_counter_ns() - t0

    def call_traced(self, case):
        """A traced call; checks the decisions seen from outside against stats.calls."""
        first = len(self.tracer.spans)
        self.tracer.start_request(case.key)
        with self.tracer.span("instance"):
            answer, ns = self.call(case, self.traced)
        seen = self.tracer.decisions_since(first)
        calls = sum(p.oracle.stats.calls for p in self.tracer.problems)
        problems = []
        if seen != calls:
            problems.append(f"{seen} traced decisions but stats.calls is {calls}")
        if answer.decisions is None:
            answer.decisions = calls
        return answer, ns, problems

    def one(self, case) -> None:
        """Run, time and check one case (twice, untraced and traced, when tracing)."""
        self.attempted += 1
        rng = random.Random(f"{self.seed}:{case.key}")
        try:
            problems = []
            if self.tracer is None:
                answer, ns = self.call(case, self.plain)
            elif self.attempted % 2:
                answer, ns = self.call(case, self.plain)
                traced, tns, problems = self.call_traced(case)
            else:
                traced, tns, problems = self.call_traced(case)
                answer, ns = self.call(case, self.plain)
            self.latency_ns.setdefault(case.key, []).append(ns)
            if self.tracer is not None:
                self.traced_ns.append(tns)
                problems += self.bw.compare_reference(
                    self.bw.reference_record(case, answer), self.bw.reference_record(case, traced)
                )
                answer = traced
            problems += self.workload.check(case, answer, rng)
            record = self.bw.reference_record(case, answer)
            problems += self.bw.compare_reference(self.reference.get(case.key), record)
            if answer.decisions is not None:
                self.decisions[case.key] = answer.decisions
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failures.append(f"case {case.key}: " + "; ".join(problems))

    def loop(self, seconds: float, limit: int | None) -> None:
        """Cycle through the cases until the deadline, and at least once through all.

        A full pass keeps each run's set of instances the seed's whole set,
        so which cases a partial pass happened to reach does not move p50.
        """
        cases = self.ctx.cases
        deadline = perf_counter() + seconds
        i = 0
        while True:
            self.one(cases[i % len(cases)])
            i += 1
            if limit is not None and i >= limit:
                break
            if i >= len(cases) and perf_counter() >= deadline:
                break

    def instance_ms(self) -> list[float]:
        """Each case's mean latency over its calls in this run."""
        return [statistics.mean(ns) / 1e6 for ns in self.latency_ns.values()]

    def end_to_end(self) -> dict:
        calls = [ns for per_case in self.latency_ns.values() for ns in per_case]
        ms = self.instance_ms()
        return {
            "instances_per_s": len(calls) / (sum(calls) / 1e9),
            "instance_ms_p50": statistics.median(ms),
            "instance_ms_tail": percentile(ms, self.workload.tail_percentile),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        from bench_trace import layer_metrics

        metrics = layer_metrics(self.tracer.spans, len(self.traced_ns))
        untraced = sum(ns for per_case in self.latency_ns.values() for ns in per_case)
        metrics["trace.overhead_share"] = sum(self.traced_ns) / untraced - 1
        return metrics


def write_reference(workload, run: Run) -> Path:
    """Record every case's answer (traced, so decision counts are observed)."""
    bw = run.bw
    records = {}
    for case in run.ctx.cases:
        answer, _, problems = run.call_traced(case)
        if problems:
            raise RuntimeError(f"case {case.key}: {problems}")
        records[str(case.key)] = bw.reference_record(case, answer)
    seed = None if workload.reference_any_seed else run.seed
    lines = [f'{{"workload": "{workload.name}", "seed": {json.dumps(seed)}, "records": {{']
    lines += [f'"{key}": {json.dumps(rec, sort_keys=True)},' for key, rec in records.items()]
    lines[-1] = lines[-1].rstrip(",")
    path = bw.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n}}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="stop after this many instances")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench_workloads as bw
    from xinflate.errors import XInflateError

    workload = bw.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(bw.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run = Run(workload, args.seed, Path(tmp), trace=bool(args.trace) or args.write_reference)
        try:
            run.setup()
        except (OSError, ValueError, XInflateError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.write_reference:
            print(f"wrote {write_reference(workload, run)}")
            return 0
        wall = perf_counter()
        run.loop(args.seconds, args.limit)
        wall = perf_counter() - wall

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        run.tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    n = len(run.latency_ns)
    if not n:
        print(f"error: no call completed; first failure: {run.failures[0]}", file=sys.stderr)
        return 1
    beyond = n - max(1, math.ceil(workload.tail_percentile / 100 * n))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} calls on {n} instances in {wall:.1f} s, one closed-loop caller")
    print(f"instance_ms_tail is p{workload.tail_percentile:g} of {n} instances ({beyond} beyond it)")
    print(f"failed_share {len(run.failures) / run.attempted:.4f} "
          f"({len(run.failures)} of {run.attempted})")
    if run.decisions:
        print(f"oracle decisions per instance: mean {statistics.mean(run.decisions.values()):.2f}")
    for failure in run.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)

    # BENCHMARK.json names the metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = run.per_layer() if args.trace else run.end_to_end()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "failures": run.failures,
                "tail_percentile": workload.tail_percentile,
                "instances": n,
                "tail_beyond": beyond,
                "decisions": run.decisions,
            },
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded around the calls the benchmark makes into each layer.

Nothing inside the program is instrumented.  A span wraps one call into a
layer's public function, made from the benchmark's own code:

* the functions ``xinflate.cli`` imports from serialize, explain, inflate
  and duality, patched in the ``cli`` module namespace for the duration of
  one traced request and restored afterwards;
* ``ExplanationProblem`` construction (span ``explain.problem``);
* ``holds_sufficiency`` and ``counterexample_in`` on each problem's
  ``Oracle`` instance (spans ``oracle.*``), which also records the answer.

Spans are kept in memory with integer nanosecond clocks, so a self time
(duration minus the direct children's durations) is exact, and are written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

from xinflate import cli, duality, explain, inflate, serialize
from xinflate.duality import ExplanationSets
from xinflate.explain import ExplanationProblem

ORACLE_METHODS = ("holds_sufficiency", "counterexample_in")
CLI_LAYERS = {serialize: "serialize", explain: "explain", inflate: "inflate", duality: "duality"}

# span fields: name, start_ns, end_ns, parent index, request id, answer
NAME, START, END, PARENT, REQUEST, ANSWER = range(6)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self.problems: list[ExplanationProblem] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, answer=None) -> None:
        span = self.spans[sid]
        span[END] = perf_counter_ns()
        span[ANSWER] = answer
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, keep_answer: bool = False):
        def traced(*args, **kwargs):
            sid = self._open(name)
            answer = None
            try:
                answer = fn(*args, **kwargs)
                return answer
            finally:
                self._close(sid, answer if keep_answer else None)

        return traced

    def instrument(self, problem: ExplanationProblem) -> None:
        """Wrap the decisions of this problem's oracle instance."""
        for method in ORACLE_METHODS:
            bound = getattr(problem.oracle, method)
            setattr(problem.oracle, method, self.wrap(f"oracle.{method}", bound, keep_answer=True))
        self.problems.append(problem)

    def decisions_since(self, first: int) -> int:
        """Oracle decisions among the spans recorded from index first on."""
        return sum(1 for s in self.spans[first:] if s[NAME].startswith("oracle."))

    def start_request(self, request) -> None:
        self.request = request
        self.problems = []

    # -- traced entry points ------------------------------------------------

    def make_problem(self, *args, **kwargs) -> ExplanationProblem:
        with self.span("explain.problem"):
            problem = ExplanationProblem(*args, **kwargs)
        self.instrument(problem)
        return problem

    def cli_main(self, argv) -> int:
        """Run ``cli.main`` with every layer function it imports traced."""
        tracer = self

        class TracedProblem(ExplanationProblem):
            def __init__(self, *args, **kwargs):
                with tracer.span("explain.problem"):
                    super().__init__(*args, **kwargs)
                tracer.instrument(self)

        class TracedSets(ExplanationSets):
            def mhs_dual(self) -> bool:
                return tracer.wrap("duality.mhs_dual", super().mhs_dual)()

        patches = {"ExplanationProblem": TracedProblem, "ExplanationSets": TracedSets}
        for name, obj in vars(cli).items():
            layer = CLI_LAYERS.get(inspect.getmodule(obj))
            if layer and inspect.isfunction(obj):
                patches[name] = self.wrap(f"{layer}.{name}", obj)
        saved = {name: getattr(cli, name) for name in patches}
        for name, obj in patches.items():
            setattr(cli, name, obj)
        try:
            return self.wrap("cli.main", cli.main)(argv)
        finally:
            for name, obj in saved.items():
                setattr(cli, name, obj)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": s[PARENT],
                            "request": s[REQUEST],
                            "name": s[NAME],
                            "start_ns": s[START],
                            "end_ns": s[END],
                            "answer": s[ANSWER],
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per request where they are sums."""
    own = self_times(spans)
    total: dict[str, int] = {}
    own_total: dict[str, int] = {}
    for s, o in zip(spans, own):
        total[s[NAME]] = total.get(s[NAME], 0) + s[END] - s[START]
        own_total[s[NAME]] = own_total.get(s[NAME], 0) + o

    def per_request_ms(name: str, table=total) -> float:
        return table.get(name, 0) / 1e6 / requests

    decisions = [s for s in spans if s[NAME].startswith("oracle.")]
    suff = [s for s in decisions if s[NAME] == "oracle.holds_sufficiency"]
    cex = [s for s in decisions if s[NAME] == "oracle.counterexample_in"]
    holds = sum(1 for s in suff if s[ANSWER] is True) + sum(1 for s in cex if s[ANSWER] is False)
    # a probe inside a growth or shrink phase is accepted when it moves the set:
    # sufficiency still holds (atom added) or a counterexample remains (piece dropped)
    phases = ("inflate.inflate_axp", "inflate.shrink_cxp")
    probes = [s for s in decisions if spans[s[PARENT]][NAME] in phases]
    oracle_ns = sum(s[END] - s[START] for s in decisions)
    instance_ns = total.get("instance", 0)

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "oracle.decision_us_p50": (
            statistics.median(s[END] - s[START] for s in decisions) / 1e3 if decisions else 0.0
        ),
        "oracle.busy_share": share(oracle_ns, instance_ns),
        "oracle.sufficiency_decisions": len(suff) / requests,
        "oracle.counterexample_decisions": len(cex) / requests,
        "oracle.holds_share": share(holds, len(decisions)),
        "inflate.inflate_axp_ms": per_request_ms("inflate.inflate_axp"),
        "inflate.inflate_axp_self_ms": per_request_ms("inflate.inflate_axp", own_total),
        "inflate.shrink_cxp_ms": per_request_ms("inflate.shrink_cxp"),
        "inflate.shrink_cxp_self_ms": per_request_ms("inflate.shrink_cxp", own_total),
        "inflate.accept_share": share(sum(1 for s in probes if s[ANSWER] is True), len(probes)),
        "explain.problem_ms": per_request_ms("explain.problem"),
        "explain.find_axp_ms": per_request_ms("explain.find_axp"),
        "explain.find_cxp_ms": per_request_ms("explain.find_cxp"),
        "explain.enumerate_all_ms": per_request_ms("explain.enumerate_all"),
        "serialize.load_model_ms": per_request_ms("serialize.load_model"),
        "cli.self_ms": per_request_ms("cli.main", own_total),
        "duality.enumerate_iaxps_ms": per_request_ms("duality.enumerate_iaxps"),
        "duality.enumerate_icxps_ms": per_request_ms("duality.enumerate_icxps"),
        "duality.check_hits_ms": per_request_ms("duality.check_hits"),
        "duality.mhs_dual_ms": per_request_ms("duality.mhs_dual"),
    }

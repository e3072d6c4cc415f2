"""Per-layer tracing for perfbench, done entirely from outside the package.

``Tracer.install`` wraps the public functions named in ``TARGETS``.  Each
function is replaced in its defining module and in every loaded
``tritgame`` module that imported it by name (``cli.run_dense``,
``classical.ring_mul``, ...), because module-level ``from x import f``
keeps its own reference.  A module or function that no longer exists is
recorded as absent instead of failing the run, so the harness keeps
working while later changes delete or rename layers.

Each wrapped call is a span.  Spans are aggregated in memory per
(name, inside-verification) key as call count, total seconds and seconds
covered by directly nested traced spans; a span's self time is total
minus that covered part.  ``layer_metrics`` turns the aggregates of one
or more traced rounds into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

#: (span name, defining module, function name).
TARGETS = (
    ("cli", "tritgame.cli", "main"),
    ("sample", "tritgame.protocol", "sample_admissible"),
    ("analytic", "tritgame.protocol", "run_analytic"),
    ("dense", "tritgame.protocol", "run_dense"),
    ("evolve", "tritgame.protocol", "dense_pre_measurement_state"),
    ("verify", "tritgame.protocol", "verify_class_stepping"),
    ("gate", "tritgame.qudit", "apply_local"),
    ("collapsed", "tritgame.classical", "evaluate_collapsed"),
    ("exhaustive", "tritgame.classical", "evaluate_exhaustive"),
    ("ring_mul", "tritgame.kernel", "ring_mul"),
    ("fold", "tritgame.kernel", "fold_counts"),
    ("table", "tritgame.bounds", "convergence_table"),
)


def _gate_bytes(args, result) -> int:
    # Computed, not measured: the input and output amplitude vectors of one
    # gate, 3^k complex128 values (16 B) each.
    return args[0].amplitudes.nbytes + result.amplitudes.nbytes


def _transcript_classes(args, result) -> int:
    # Classes the collapsed evaluator scans: prod over strategy groups of
    # (s+1)(s+2)/2, where s is the group's party count.
    total = 1
    for s in Counter(args[0].strategies).values():
        total *= (s + 1) * (s + 2) // 2
    return total


#: Span name -> (extra counter, function of (args, result)).
_EXTRAS = {
    "gate": ("gate_bytes", _gate_bytes),
    "collapsed": ("classes", _transcript_classes),
}


class Tracer:
    """Span aggregates for one traced round."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, bool], list[float]] = {}
        self.extras: Counter = Counter()
        self.absent: list[str] = []
        self._covered: list[float] = []
        self._verify_depth = 0

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "tritgame" or name.startswith("tritgame."))]
        for span, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(span, original)
            for mod in {*loaded, module}:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)

    def _wrap(self, span: str, fn):
        extra = _EXTRAS.get(span)
        is_verify = span == "verify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_verify:
                self._verify_depth += 1
            self._covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                covered = self._covered.pop()
                if self._covered:
                    self._covered[-1] += elapsed
                if is_verify:
                    self._verify_depth -= 1
                rec = self.stats.setdefault((span, self._verify_depth > 0), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += covered
            if extra is not None:
                try:
                    self.extras[extra[0]] += extra[1](args, result)
                except (AttributeError, IndexError, TypeError):
                    self.extras[extra[0] + ".unavailable"] += 1
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "stats": [[span, inside, *rec] for (span, inside), rec in self.stats.items()],
            "extras": dict(self.extras),
            "absent": self.absent,
        }


def _sum_rounds(rounds: list[dict]):
    """Sums traced rounds into name -> [calls, total, covered] (all and outside verify)."""
    every: dict[str, list[float]] = {}
    outside: dict[str, list[float]] = {}
    extras: Counter = Counter()
    for r in rounds:
        for span, inside, calls, total, covered in r["stats"]:
            targets = (every,) if inside else (every, outside)
            for table in targets:
                rec = table.setdefault(span, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += covered
        extras.update(r["extras"])
    return every, outside, extras


#: Per-layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "protocol.sample_us": "us",
    "protocol.analytic_us": "us",
    "protocol.dense_us": "us",
    "protocol.evolutions": "count",
    "protocol.evolve_ms": "ms",
    "protocol.dense_reuse_ratio": "ratio",
    "protocol.verify_ms": "ms",
    "qudit.gates": "count",
    "qudit.gate_us": "us",
    "qudit.gate_bytes": "B_computed",
    "classical.evals": "count",
    "classical.collapsed_ms": "ms",
    "classical.classes": "count",
    "classical.class_us": "us",
    "classical.exhaustive_ms": "ms",
    "kernel.ring_mul_calls": "count",
    "kernel.ring_mul_us": "us",
    "kernel.fold_calls": "count",
    "kernel.fold_us": "us",
    "bounds.table_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(rounds: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from traced rounds, and the names with nothing to measure.

    Counts are per round; times are per call (per class for ``class_us``),
    pooled over all traced rounds.  Evolutions run inside verification are
    excluded from the evolution metrics, which describe the dense engine.
    """
    every, outside, extras = _sum_rounds(rounds)
    n = len(rounds)
    values: dict[str, float | None] = {}

    def calls(table, span):
        return table.get(span, [0, 0.0, 0.0])[0]

    def per_call(table, span, scale, self_time=False):
        c, total, covered = table.get(span, [0, 0.0, 0.0])
        if not c:
            return None
        return ((total - covered) if self_time else total) / c * scale

    def count(table, span):
        return calls(table, span) / n if span in table else None

    values["protocol.sample_us"] = per_call(every, "sample", 1e6)
    values["protocol.analytic_us"] = per_call(every, "analytic", 1e6)
    values["protocol.dense_us"] = per_call(every, "dense", 1e6, self_time=True)
    values["protocol.evolutions"] = count(outside, "evolve")
    values["protocol.evolve_ms"] = per_call(outside, "evolve", 1e3)
    dense_calls = calls(every, "dense")
    values["protocol.dense_reuse_ratio"] = (
        1 - calls(outside, "evolve") / dense_calls if dense_calls else None
    )
    values["protocol.verify_ms"] = per_call(every, "verify", 1e3)
    values["qudit.gates"] = count(every, "gate")
    values["qudit.gate_us"] = per_call(every, "gate", 1e6)
    gates = calls(every, "gate")
    values["qudit.gate_bytes"] = (
        extras["gate_bytes"] / gates
        if gates and not extras["gate_bytes.unavailable"] else None
    )
    values["classical.evals"] = count(every, "collapsed")
    values["classical.collapsed_ms"] = per_call(every, "collapsed", 1e3)
    classes_ok = calls(every, "collapsed") and not extras["classes.unavailable"]
    values["classical.classes"] = extras["classes"] / n if classes_ok else None
    values["classical.class_us"] = (
        every["collapsed"][1] / extras["classes"] * 1e6 if classes_ok else None
    )
    values["classical.exhaustive_ms"] = per_call(every, "exhaustive", 1e3)
    values["kernel.ring_mul_calls"] = count(every, "ring_mul")
    values["kernel.ring_mul_us"] = per_call(every, "ring_mul", 1e6)
    values["kernel.fold_calls"] = count(every, "fold")
    values["kernel.fold_us"] = per_call(every, "fold", 1e6)
    values["bounds.table_ms"] = per_call(every, "table", 1e3)
    values["cli.self_ms"] = per_call(every, "cli", 1e3, self_time=True)

    absent = [name for name, v in values.items() if v is None]
    return {name: (0.0 if v is None else v) for name, v in values.items()}, absent

"""Batch command-line front end with deterministic, hashable reports.

Each command declares its options in :func:`build_parser` and nowhere
else, and reads every option it accepts.  ``classical`` has three
subcommands: ``example`` takes no options, ``eval`` takes ``--k``, one of
``--strategy`` or ``--profile``, and ``--long-run``, and ``search`` takes
``--k``.  Every command takes ``--output``.  ``eval`` cross-checks against
the exhaustive oracle below its cap k = 13, and at 13 with ``--long-run``;
``--long-run`` above the cap is a usage error.

Each command returns a :class:`Report`; :func:`main` alone times it, maps
errors to exit codes, renders it and writes it to ``--output`` or stdout.
``--format csv`` writes the report's table and no envelope.  Otherwise
the output is a JSON envelope: command name, config, result payload,
the SHA-256 of the canonical payload encoding, package version,
wall-clock duration and any metrics.  The config is the parsed options,
without ``--output`` and ``--format``, which say how to render rather
than what to compute.  The hash covers only the payload, so two runs with
the same command line and seed are byte-identical in the hashed region.
Probabilities always carry exact numerator/denominator next to their
float rendering.  ``quantum-run`` draws its inputs and outcomes from
``numpy.random.default_rng([seed, 0])``; ``gap-report`` draws those of its
i-th ``--k`` (counting from 0) from ``default_rng([seed, i])``.
The analytic engine checks the root gate's exact identities on every
call and builds no dense state; only ``quantum-verify`` adds the dense
sweep.

Exit codes: 0 all checks passed, 1 a check failed (a failed verification
of the analytic engine among them) or the output was not written
(``--output`` could not be opened, or stdout was closed), 2 usage error.  Errors print ``error: ...`` to stderr
and nothing to stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

try:  # the builtin SHA-256: importing hashlib loads OpenSSL, about 3.5 MB of RSS
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

from . import __version__, protocol
from .bounds import convergence_table
from .classical import (
    DIVISION_NAMES,
    EXHAUSTIVE_MAX_K,
    EXHAUSTIVE_METHOD,
    Strategy,
    StrategyProfile,
    best_homogeneous,
    canonical_division,
    evaluate_collapsed,
    evaluator_metrics,
    exhaustive_transcript_counts,
    referee_success,
    ten_player_worked_example,
)
from .combinat import check_party_count, grouped_sum
from .protocol import sweep_class_states, verify_class_stepping
from .qudit import DENSE_MAX_K, VerificationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: Protocol trials per batch.  It bounds the memory of one block (at k=100
#: the sampler's draws for a full block take about 20 MB).  The random
#: stream is consumed block by block, so records for a seed depend on it:
#: it is a constant, not an option.
BLOCK_TRIALS = 65_536


class Report(NamedTuple):
    """What a command computed; :func:`main` renders and emits it."""

    payload: dict  # the hashed part of the envelope
    metrics: dict | None = None  # outside the hash; render time joins its stage_seconds
    code: int = EXIT_OK
    table: list[list] | None = None  # the --format csv rendering, header row first


def _fraction_payload(value: Fraction) -> dict:
    return {
        "numerator": value.numerator,
        "denominator": value.denominator,
        "float": float(value),
    }


def _envelope(command: str, config: dict, report: Report, started: float) -> dict:
    # Render time covers hashing the payload, plus whatever the command
    # already counted under "render" (building records or table rows).
    t0 = time.perf_counter()
    canonical = json.dumps(report.payload, sort_keys=True, separators=(",", ":"))
    envelope = {
        "command": command,
        "config": config,
        "payload": report.payload,
        "payload_sha256": sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "duration_seconds": round(time.perf_counter() - started, 6),
    }
    if report.metrics is not None:
        stages = report.metrics.get("stage_seconds")
        if stages is not None:
            stages["render"] += time.perf_counter() - t0
            for name, seconds in stages.items():
                stages[name] = round(seconds, 6)
        envelope["metrics"] = report.metrics
    return envelope


def _make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    # One 64-bit seed; workers/streams derive from (seed, counter).
    return np.random.default_rng([seed, stream])


def _trial_count(text: str) -> int:
    """An argparse type: a non-negative trial count."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"need a non-negative trial count, got {text!r}")
    return int(text)


def _parse_strategy(text: str) -> Strategy:
    if text in DIVISION_NAMES:
        return canonical_division(text)
    return Strategy.from_string(text)


def _parse_profile(text: str, k: int) -> StrategyProfile:
    strategies: list[Strategy] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            item, count = part.rsplit(":", 1)
            if int(count) < 1:
                raise ValueError(f"profile count must be >= 1, got {part!r}")
            strategies.extend([_parse_strategy(item)] * int(count))
        else:
            strategies.append(_parse_strategy(part))
    if len(strategies) != k:
        raise ValueError(f"profile lists {len(strategies)} parties but k={k}")
    return StrategyProfile(tuple(strategies))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_quantum_verify(args: argparse.Namespace) -> Report:
    t0 = time.perf_counter()
    try:
        sweep_deviations = sweep_class_states(args.k)  # checks every --k before any gate
        t1 = time.perf_counter()
        gate_deviation = verify_class_stepping()
    except VerificationError as exc:
        return Report({"ok": False, "error": str(exc)}, code=EXIT_CHECK_FAILED)
    stages = {"identities": time.perf_counter() - t1, "sweep": t1 - t0, "render": 0.0}
    payload = {
        "ok": True,
        "checks": [
            {"name": "root-cube-and-class-step", "ok": True},
            {"name": "dim2-swap", "ok": True},
            {"name": "class-sweep", "ok": True, "k": list(args.k),
             "bit_vectors_checked": [grouped_sum(k, 0, 3) for k in args.k]},
        ],
    }
    # The identities are decided on integers.  The measured floats depend on
    # the order numpy sums in, so they stay out of the hashed payload.
    metrics = {
        "root-cube-and-class-step": {"gate_deviation": gate_deviation},
        "class-sweep": {"max_deviation": list(sweep_deviations)},
        "stage_seconds": stages,
    }
    return Report(payload, metrics)


def _protocol_metrics(engine: str) -> dict:
    metrics = {
        "engine": engine,
        "stage_seconds": {"sample": 0.0, "engine": 0.0, "render": 0.0},
        "trials": 0,
        "blocks": 0,
        "first_failure": None,
    }
    if engine == "dense":
        metrics.update(dict.fromkeys(protocol.DenseCounts._fields, 0))
    return metrics


def _run_trials(
    k: int, trials: int, rng: np.random.Generator, metrics: dict, records: list | None
) -> int:
    """Runs protocol trials in blocks of BLOCK_TRIALS and returns the successes.

    Success is measured on every row, from the decoded and expected values.
    Stage seconds and counters accumulate in ``metrics``, which also keeps
    the first failing row; each run's record is appended to ``records``
    when it is a list.  The analytic engine's own check of the root gate
    counts under the engine stage; its VerificationError propagates.
    """
    engine = metrics["engine"]
    stages = metrics["stage_seconds"]
    successes = 0
    for start in range(0, trials, BLOCK_TRIALS):
        n = min(BLOCK_TRIALS, trials - start)
        t0 = time.perf_counter()
        trits, bits = protocol.sample_admissible_batch(k, n, rng)
        t1 = time.perf_counter()
        if engine == "dense":
            outcomes, counts = protocol.run_dense_batch(bits, rng)
            for name, value in counts._asdict().items():
                metrics[name] += value
        else:
            outcomes = protocol.run_analytic_batch(bits, rng)
        decoded = protocol.decode_batch(trits, outcomes)
        expected = protocol.global_function_batch(trits, bits)
        ok = decoded == expected
        t2 = time.perf_counter()
        stages["sample"] += t1 - t0
        stages["engine"] += t2 - t1
        successes += int(np.count_nonzero(ok))
        metrics["trials"] += n
        metrics["blocks"] += 1
        if metrics["first_failure"] is None and not ok.all():
            i = int(np.argmin(ok))
            metrics["first_failure"] = {
                "k": k,
                "trits": trits[i].tolist(),
                "bits": bits[i].tolist(),
                "outcomes": outcomes[i].tolist(),
                "decoded": int(decoded[i]),
                "expected": int(expected[i]),
            }
        if records is not None:
            columns = (trits, bits, outcomes, (trits + outcomes) % 3, decoded, expected)
            records.extend(
                {"k": k, "trits": t, "bits": b, "outcomes": o, "transmissions": x,
                 "decoded": d, "expected": e, "engine": engine}
                for t, b, o, x, d, e in zip(*(column.tolist() for column in columns))
            )
            stages["render"] += time.perf_counter() - t2
    return successes


def cmd_quantum_run(args: argparse.Namespace) -> Report:
    check_party_count(args.k)
    if args.engine == "dense" and args.k > DENSE_MAX_K:
        # Checked here too: at --trials 0 the engine never runs.
        raise ValueError(f"dense engine supports k <= {DENSE_MAX_K}")

    metrics = _protocol_metrics(args.engine)
    records = [] if args.records else None
    successes = _run_trials(args.k, args.trials, _make_rng(args.seed), metrics, records)
    payload = {
        "k": args.k,
        "engine": args.engine,
        "trials": args.trials,
        "successes": successes,
        "failures": args.trials - successes,
    }
    if records is not None:
        for record in records:
            record["seed"] = args.seed
        payload["records"] = records
    code = EXIT_OK if successes == args.trials else EXIT_CHECK_FAILED
    return Report(payload, metrics, code)


def cmd_classical_example(args: argparse.Namespace) -> Report:
    t0 = time.perf_counter()
    report = ten_player_worked_example()
    stages = {"example": time.perf_counter() - t0, "render": 0.0}
    payload = {
        "k": report.k,
        "strategy": report.strategy.to_string(),
        "transcript": "all parties send 0",
        "per_m_counts": {str(m): c for m, c in sorted(report.per_m_counts.items())},
        "g_label_by_m": {str(m): g for m, g in sorted(report.g_label_by_m.items())},
        "g_totals": {str(v): n for v, n in enumerate(report.g_totals)},
        "total": report.total,
        "majority_value": report.majority_value,
        "majority_count": report.majority_count,
        "success": _fraction_payload(report.success),
        "label_note": report.label_note,
    }
    return Report(payload, {"stage_seconds": stages})


def cmd_classical_eval(args: argparse.Namespace) -> Report:
    if args.long_run and args.k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"--long-run cross-checks up to k = {EXHAUSTIVE_MAX_K}, got {args.k}")
    if args.strategy is not None:
        profile = StrategyProfile.homogeneous(_parse_strategy(args.strategy), args.k)
    else:
        profile = _parse_profile(args.profile, args.k)
    stages = {"collapsed": 0.0, "exhaustive": 0.0, "render": 0.0}
    t0 = time.perf_counter()
    work = Counter()
    collapsed = evaluate_collapsed(profile, work)
    stages["collapsed"] = time.perf_counter() - t0
    payload = {
        "k": args.k,
        "profile": [s.to_string() for s in profile.strategies],
        "collapsed": _fraction_payload(collapsed),
    }
    code = EXIT_OK
    metrics = evaluator_metrics(work)
    # Only a search has orbits to count.
    del metrics["strategy_orbits"], metrics["orbits_evaluated"]
    # At the cap the oracle takes about 50 MB, so it runs there only on request.
    if args.k < EXHAUSTIVE_MAX_K or (args.long_run and args.k == EXHAUSTIVE_MAX_K):
        t0 = time.perf_counter()
        per_transcript = exhaustive_transcript_counts(profile)
        exhaustive = referee_success(per_transcript)
        stages["exhaustive"] = time.perf_counter() - t0
        metrics["exhaustive"] = {
            "method": EXHAUSTIVE_METHOD,
            "admissible_inputs": int(per_transcript.sum()),
        }
        payload["exhaustive"] = _fraction_payload(exhaustive)
        payload["evaluators_agree"] = exhaustive == collapsed
        if not payload["evaluators_agree"]:
            code = EXIT_CHECK_FAILED
    metrics["stage_seconds"] = stages
    return Report(payload, metrics, code)


def cmd_classical_search(args: argparse.Namespace) -> Report:
    t0 = time.perf_counter()
    work = Counter()
    strategy, value = best_homogeneous(args.k, work)
    searched = time.perf_counter() - t0
    payload = {
        "k": args.k,
        "best_strategy": strategy.to_string(),
        "probability": _fraction_payload(value),
    }
    metrics = evaluator_metrics(work)
    metrics["stage_seconds"] = {"search": searched, "render": 0.0}
    return Report(payload, metrics)


def cmd_bounds(args: argparse.Namespace) -> Report:
    im_rule = args.im_rule if args.im_rule == "max" else int(args.im_rule)
    t0 = time.perf_counter()
    rows = convergence_table(args.family, args.j, im_rule=im_rule)
    t1 = time.perf_counter()
    row_dicts = [
        {
            "family": r.family,
            "j": r.j,
            "i": r.i,
            "m": r.m,
            "a": r.a,
            "im_rule": None if r.im_rule is None else str(r.im_rule),
            "value_num": r.value.numerator,
            "value_den": r.value.denominator,
            "value_float": float(r.value),
            "gap_float": r.gap,
        }
        for r in rows
    ]
    table = [list(row_dicts[0]), *(list(r.values()) for r in row_dicts)]
    metrics = {
        "stage_seconds": {"tables": t1 - t0, "render": time.perf_counter() - t1},
        "rows": len(rows),
    }
    return Report({"rows": row_dicts}, metrics, table=table)


def cmd_gap_report(args: argparse.Namespace) -> Report:
    for k in args.k:
        check_party_count(k)
    metrics = _protocol_metrics("analytic")
    metrics["stage_seconds"]["search"] = 0.0
    work = Counter()
    entries = []
    table = [["k", "quantum_trials", "quantum_successes", "classical_strategy",
              "classical_num", "classical_den", "classical_float", "baseline_float"]]
    ok = True
    for stream, k in enumerate(args.k):
        rng = _make_rng(args.seed, stream)
        successes = _run_trials(k, args.trials, rng, metrics, None)
        t0 = time.perf_counter()
        strategy, value = best_homogeneous(k, work)
        metrics["stage_seconds"]["search"] += time.perf_counter() - t0
        ok = ok and successes == args.trials
        entries.append(
            {
                "k": k,
                "quantum": {"trials": args.trials, "successes": successes},
                "classical_best": {
                    "strategy": strategy.to_string(),
                    **_fraction_payload(value),
                },
                "baseline": _fraction_payload(Fraction(1, 3)),
            }
        )
        table.append([k, args.trials, successes, strategy.to_string(), value.numerator,
                      value.denominator, float(value), float(Fraction(1, 3))])
    metrics.update((key, work[key])
                   for key in ("orbits_evaluated", "transcript_classes", "classes_scanned"))
    return Report({"rows": entries}, metrics, EXIT_OK if ok else EXIT_CHECK_FAILED, table)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritgame",
        description="Exact quantum/classical analysis of the one-trit communication game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # On the leaf parsers only: a nested subparser's default would overwrite
    # a value its parent parsed.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None)

    p = sub.add_parser("quantum-verify", parents=[output],
                       help="run the protocol verification suite")
    p.add_argument("--k", type=int, nargs="+", default=[4, 7], help="dense sweep sizes")
    p.set_defaults(func=cmd_quantum_verify)

    p = sub.add_parser("quantum-run", parents=[output],
                       help="run protocol trials on sampled inputs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_trial_count, default=1000)
    p.add_argument("--engine", choices=("dense", "analytic"), default="dense")
    p.add_argument("--seed", type=int, default=0,
                   help="inputs and outcomes come from numpy default_rng([seed, 0])")
    p.add_argument("--records", action="store_true", help="include per-run records")
    p.set_defaults(func=cmd_quantum_run)

    classical = sub.add_parser("classical", help="exact classical success probabilities")
    leaves = classical.add_subparsers(dest="subcommand", required=True)
    p = leaves.add_parser("example", parents=[output], help="the ten-player worked example")
    p.set_defaults(func=cmd_classical_example)
    p = leaves.add_parser("eval", parents=[output],
                          help="exact success of a strategy or profile")
    p.add_argument("--k", type=int, default=4)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--strategy", help="division name or 6-trit string")
    given.add_argument(
        "--profile",
        help="comma-separated divisions/6-trit strings, optional :count (e.g. 'A:3,100122')",
    )
    p.add_argument("--long-run", action="store_true",
                   help=f"also cross-check at k = {EXHAUSTIVE_MAX_K}; an error above it")
    p.set_defaults(func=cmd_classical_eval)
    p = leaves.add_parser("search", parents=[output], help="best homogeneous strategy")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_classical_search)

    p = sub.add_parser("bounds", parents=[output],
                       help="convergence tables for the bound families")
    p.add_argument("--family", choices=("A", "F", "L", "N"), required=True)
    p.add_argument("--j", type=int, nargs="+", default=[5, 10, 20, 40, 60])
    p.add_argument("--im-rule", choices=("max", "0", "1", "2"), default="max")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gap-report", parents=[output],
                       help="quantum vs best-classical success per k")
    p.add_argument("--k", type=int, nargs="+", default=[4, 13, 31])
    p.add_argument("--trials", type=_trial_count, default=200)
    p.add_argument("--seed", type=int, default=0,
                   help="the i-th --k draws from numpy default_rng([seed, i])")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gap_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (ValueError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED if isinstance(exc, VerificationError) else EXIT_USAGE
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(report.table)
        text = buf.getvalue()
    else:
        # The config is what to compute; these say how to dispatch and render.
        config = {name: value for name, value in vars(args).items()
                  if name not in ("command", "func", "output", "format")}
        text = json.dumps(_envelope(args.command, config, report, started), indent=2,
                          sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        return report.code
    data = memoryview((text if text.endswith("\n") else text + "\n").encode())
    try:
        # Unbuffered stdout (PYTHONUNBUFFERED) is a raw file whose write may
        # take only part of the data when the reader closes; writing the
        # rest raises.
        while data:
            data = data[sys.stdout.buffer.write(data):]
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  Pointing stdout at
        # devnull keeps the flush at exit from raising again (Python docs,
        # "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    return report.code


if __name__ == "__main__":
    sys.exit(main())

"""One round of a perfbench workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json REPORT.json

SPEC.json holds the round: ``commands`` (CLI argument lists), ``output``
(the file each command's ``--output`` goes to), ``src`` (the source tree
tritgame must be imported from), ``trace`` (wrap the layers) and
``setup_only`` (stop after the import).  The round times ``import
tritgame.cli``, then calls ``tritgame.cli.main(argv)`` for each command in
order and writes REPORT.json with the import time, each command's exit
code, time, payload and payload hash, peak RSS, run metadata and, when
traced, the span aggregates.  Checking the outputs is left to run.py.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _read_envelope(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _metadata() -> dict:
    numpy = sys.modules.get("numpy")
    try:
        kernel = importlib.import_module("tritgame.kernel")
    except ImportError:
        kernel = None
    return {
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "kernel_implementation": getattr(kernel, "IMPLEMENTATION", None),
    }


def run_round(spec: dict) -> dict:
    t0 = time.perf_counter()
    import tritgame.cli as cli
    import_s = time.perf_counter() - t0

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"tritgame was imported from {cli.__file__}, not from {src}")
    report: dict = {"import_s": import_s}
    if spec["setup_only"]:
        return report

    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    output = Path(spec["output"])
    commands = []
    for argv in spec["commands"]:
        output.unlink(missing_ok=True)
        started = time.perf_counter()
        try:
            code = cli.main([*argv, "--output", str(output)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - started
        envelope = _read_envelope(output) or {}
        commands.append({
            "argv": argv,
            "code": code,
            "seconds": elapsed,
            "payload": envelope.get("payload"),
            "sha256": envelope.get("payload_sha256"),
        })
    output.unlink(missing_ok=True)

    report["commands"] = commands
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["metadata"] = _metadata()
    if tracer is not None:
        report["trace"] = tracer.to_json()
    return report


def main(argv: list[str]) -> int:
    spec_path, report_path = argv
    spec = json.loads(Path(spec_path).read_text())
    report = run_round(spec)
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

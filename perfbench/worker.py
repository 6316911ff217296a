"""Run one benchmark op in this fresh interpreter.

    python3 perfbench/worker.py <workload> <op> <seed> <trace 0|1> <workdir>
    python3 perfbench/worker.py --warm-up

Prints ``ready`` once the package is imported and the op's inputs are
built, then runs the op, checks its output and prints one JSON line:
``ok``, ``reason``, ``duration_s`` (the timed interval), ``rss_mb``
(peak resident set at the end of the op, before the check), the output
size and, when traced, the per-layer stats.  The parent times set-up
from spawning this process to reading ``ready``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    sys.path[:0] = [str(SRC), str(HERE)]
    import persistinfo.cli  # noqa: F401  (loads every module, as the command does)
    origin = Path(persistinfo.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"persistinfo was imported from {origin}, "
                          f"not from {SRC}")


def _peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` restarts at exec;
    ``ru_maxrss``, the fallback, keeps the spawning process's peak."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def main(argv: list) -> int:
    if argv == ["--warm-up"]:
        _import_package()
        return 0
    workload, op_name, seed, trace, workdir = argv
    tracer = None
    try:
        _import_package()
        import workloads
        op = workloads.find(workload, op_name)
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        inputs = op.build(workloads.Context(int(seed), Path(workdir)))
    except Exception as exc:
        print(json.dumps({"ok": False, "reason": f"set-up: {_error(exc)}",
                          "duration_s": 0.0, "rss_mb": 0.0}), flush=True)
        return 1
    print("ready", flush=True)

    run = op.run
    if tracer:
        run = tracer.wrap("op", op.run)
        tracer.active = True
    result, reason = None, None
    t0 = time.perf_counter()
    try:
        result = run(inputs)
    except Exception as exc:
        reason = _error(exc)
    duration = time.perf_counter() - t0
    rss_mb = _peak_rss_mb()

    if tracer:
        tracer.active = False
    if reason is None:
        try:
            reason = op.check(inputs, result)
        except Exception as exc:
            reason = f"check raised {_error(exc)}"
    report = {"ok": reason is None, "reason": reason, "duration_s": duration,
              "rss_mb": rss_mb,
              "output_bytes": getattr(result, "output_bytes", 0)}
    if tracer:
        report["stats"] = tracer.stats()
        tracer.write(Path(workdir) / "spans" / workload / f"{op_name}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of persistinfo's exact and empirical pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload exact-substitution --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --quick

Closed loop, one client: ops run one at a time, each in a fresh
interpreter (``worker.py``) started by this process, so every op pays
its own imports and caches as a command invocation does.  A run makes
a fixed number of rounds over every op of the workload, as many as fit
in ``--seconds`` at the typical round times of ``ROUND_S``; the number
of ops attempted depends on ``--seconds`` only, never on how fast the
host happens to be.  Each time figure is the sum over ops of the
per-op median.

The whole run stays on one CPU.  While each op runs, a probe thread
times a fixed small computation on that CPU (``reference.py``), and the
op's set-up and duration are scaled by the probe's nominal tick time
over its typical tick time during the op.  So ``setup_s``, ``wall_s`` and
the op-group times read in seconds of a host of constant speed: the
shared host's drift cancels, a change of the program does not.  The raw
figures and the run's typical tick time are reported beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op untraced and then traced, back to back, and reports the per-layer
stats of the traced runs (``tracer.py``), the op-group times of the
untraced ones, and the tracing overhead between them.  ``--quick`` is
the schema self-test: one round of every workload in both modes,
checking metric names and units against ``BENCHMARK.json`` and every
op's check outcome; it sets no timing bounds.

Human-readable tables go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record per run is written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import GROUP_UNITS, KNOWN_FAILURES, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: unscaled set-up and op time, and the probe's typical tick time
RAW_UNITS = {"setup_raw_s": "s", "wall_raw_s": "s", "tick_us": "us"}
#: no op of the seed takes more than 10 s; a hung op is killed after this
OP_TIMEOUT_S = 120

#: Typical time of one untraced round of each workload (ops, their set-up
#: and checks) on a 2-vCPU Xeon VM.  Fixed, so a run's op count depends
#: on ``--seconds`` alone.
ROUND_S = {"exact-substitution": 11, "exact-markov": 16, "empirical": 26}

#: Counts of the benchmark's first commit, per workload.  A later change
#: of scope (window cap, undersampling guard, exact-entropy fallback)
#: shows here as a changed count rather than as changed work.
EXPECTED_COUNTS = {
    "exact-substitution": {"measures.gap_mi_grid.cells_refused": 0},
    "exact-markov": {"measures.gap_mi_grid.cells_refused": 0,
                     "substitution.factor_frequencies.calls": 0,
                     "infocore.shannon_entropy.float_fallbacks": "> 0"},
    # the ternary chain's L = 6 row is refused by the undersampling guard
    "empirical": {"measures.gap_mi_grid.cells_refused": 4,
                  "ratlinalg.rational_nullspace.calls": 0},
}


def per_layer_units() -> dict:
    units = tracer.stat_units()
    units.update(GROUP_UNITS)
    units.update(RAW_UNITS)
    units["ops_failed_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


# ── running ops ─────────────────────────────────────────────────────────────


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, op: str, seed: int, trace: int) -> dict:
    """Run one op in a fresh interpreter; returns the worker's report
    plus ``setup_s``, the time from spawning it to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, op, str(seed),
           str(trace), str(WORKDIR)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup, report, other = None, None, []
    try:
        for line in proc.stdout:
            if line == "ready\n" and setup is None:
                setup = time.perf_counter() - t0
            elif line.startswith('{"ok"'):
                report = json.loads(line)
            else:
                other.append(line)
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if report is None:
        report = {"ok": False, "duration_s": 0.0, "rss_mb": 0.0,
                  "reason": f"worker exited {proc.returncode}: "
                            f"{''.join(other)[-400:].strip()}"}
    report["setup_s"] = setup
    return report


def pin_to_one_cpu() -> None:
    """Keep this process, its probe thread and the workers it spawns on
    one CPU, so the probe times the CPU the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def measure(workload: str, seed: int, rounds: int, trace: int) -> dict:
    """``rounds`` rounds over the workload's ops, in order, under the
    host-speed probe.  Each record gets the ``scale`` of its times to
    seconds at the probe's nominal speed."""
    ops = WORKLOADS[workload]
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    ticks = []
    start = time.perf_counter()
    with reference.Probe() as probe:
        for _ in range(rounds):
            for op in ops:
                for kind, records in ((0, plain), (1, traced))[:1 + trace]:
                    probe.take()
                    rec = spawn(workload, op.name, seed, kind)
                    samples = probe.take()
                    rec["scale"] = reference.scale(samples)
                    ticks += samples
                    records[op.name].append(rec)
    return {"plain": plain, "traced": traced, "rounds": rounds,
            "ticks": len(ticks), "tick_us": reference.typical(ticks) * 1e6,
            "elapsed_s": time.perf_counter() - start}


# ── figures ─────────────────────────────────────────────────────────────────


def _median(records: list, key: str, scale: str | None = None) -> float:
    """Median of ``key`` over records; times ``scale`` when named."""
    values = [r[key] * (r[scale] if scale else 1) for r in records
              if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def _stat_median(records: list, name: str) -> float:
    return statistics.median(r.get("stats", {}).get(name, 0) for r in records)


def known_failure(workload: str, op: str, reason: str) -> bool:
    known = KNOWN_FAILURES.get((workload, op))
    return known is not None and known in reason


def outcome(workload: str, runs: dict) -> dict:
    """Attempted and failed ops, and whether every failure is a known one."""
    records = [(name, r) for kind in ("plain", "traced")
               for name, recs in runs[kind].items() for r in recs]
    failures = [(name, r["reason"]) for name, r in records if not r["ok"]]
    unexpected = [(name, reason) for name, reason in failures
                  if not known_failure(workload, name, reason)]
    return {"attempted": len(records), "failed": len(failures),
            "correct": not unexpected, "unexpected": unexpected}


def figures(workload: str, runs: dict, trace: int, res: dict) -> dict:
    """Every metric this run can report, by name."""
    ops = WORKLOADS[workload]
    plain = runs["plain"]
    dur = {op.name: _median(plain[op.name], "duration_s", "scale")
           for op in ops}
    out = {
        "setup_s": sum(_median(plain[op.name], "setup_s", "scale")
                       for op in ops),
        "wall_s": sum(dur.values()),
        "peak_rss_mb": max(_median(plain[op.name], "rss_mb") for op in ops),
        "ops_failed_ratio": res["failed"] / res["attempted"],
        "setup_raw_s": sum(_median(plain[op.name], "setup_s") for op in ops),
        "wall_raw_s": sum(_median(plain[op.name], "duration_s")
                          for op in ops),
        "tick_us": runs["tick_us"],
    }
    for group in sorted({op.group for op in ops}):
        t = sum(dur[op.name] for op in ops if op.group == group)
        if GROUP_UNITS[group] == "s":
            out[group] = t
        else:
            symbols = sum(op.symbols for op in ops if op.group == group)
            out[group] = symbols / t / 1e6 if t > 0 else 0.0
    if trace:
        traced = runs["traced"]
        for name in tracer.stat_units():
            if name == "cli.output_bytes":
                value = sum(_median(traced[op.name], "output_bytes")
                            for op in ops)
            elif name.endswith(".max_cols"):
                value = max(_stat_median(traced[op.name], name) for op in ops)
            else:
                value = sum(_stat_median(traced[op.name], name) for op in ops)
            out[name] = value
        out["trace.overhead_s"] = sum(
            _median(traced[op.name], "duration_s", "scale")
            for op in ops) - out["wall_s"]
    return out


def select(values: dict, trace: int) -> dict:
    """The metrics a run prints: end-to-end untraced, per-layer traced."""
    units = per_layer_units() if trace else END_TO_END
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


# ── reporting ───────────────────────────────────────────────────────────────


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_info(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _git_commit(), "seed": seed}


def workload_why() -> dict:
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in doc.get("workloads", ())}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: int, runs: dict,
           values: dict, res: dict) -> list:
    lines = [f"== workload {workload}  seed {seed}  trace {trace}",
             f"why: {workload_why().get(workload, '')}",
             "host: " + ", ".join(f"{k} {v}" for k, v in
                                  host_info(seed).items()),
             f"loop: closed, one client, each op in a fresh interpreter; "
             f"{runs['rounds']} round(s) in {runs['elapsed_s']:.1f} s",
             f"probe: typical tick {runs['tick_us']:.1f} us of {runs['ticks']}"
             f" ticks, nominal {reference.NOMINAL_TICK_S * 1e6:.0f} us",
             f"{'op':<24}{'reps':>5}{'setup_s':>10}{'median_s':>10}  status"]
    for op in WORKLOADS[workload]:
        recs = runs["plain"][op.name]
        bad = [r["reason"] for r in recs if not r["ok"]]
        status = "ok" if not bad else f"FAILED x{len(bad)}: {bad[0]}"
        if bad and known_failure(workload, op.name, bad[0]):
            status += "  (known failure)"
        lines.append(f"{op.name:<24}{len(recs):>5}"
                     f"{_median(recs, 'setup_s'):>10.3f}"
                     f"{_median(recs, 'duration_s'):>10.3f}  {status}")
    if trace:
        lines.append("self time by module, share of the op's traced time:")
        for op in WORKLOADS[workload]:
            recs = runs["traced"][op.name]
            total = _median(recs, "duration_s") or 1.0
            shares = sorted(((_stat_median(recs, tracer.metric_name(m)
                                           + ".self_s") / total, m)
                             for m in tracer.MODULES), reverse=True)
            lines.append(f"  {op.name:<22}" + "  ".join(
                f"{m} {s:.0%}" for s, m in shares if s >= 0.005))
        for name, want in EXPECTED_COUNTS[workload].items():
            lines.append(f"expected count {name}: {want}, "
                         f"measured {_fmt(values[name])}")
    units = {**END_TO_END, **GROUP_UNITS, **RAW_UNITS,
             "ops_failed_ratio": "ratio"}
    lines.append(f"{'metric':<22}{'value':>14}  unit")
    for name, unit in units.items():
        if name in values:
            lines.append(f"{name:<22}{_fmt(values[name]):>14}  {unit}")
    lines.append(f"ops attempted {res['attempted']}, failed {res['failed']}"
                 + "".join(f"\n  UNEXPECTED {n}: {r}"
                           for n, r in res["unexpected"]))
    return lines


def run_workload(workload: str, seed: int, rounds: int, trace: int) -> tuple:
    runs = measure(workload, seed, rounds, trace)
    res = outcome(workload, runs)
    values = figures(workload, runs, trace, res)
    print("\n".join(report(workload, seed, trace, runs, values, res)))
    record = {"workload": workload, "trace": trace, "host": host_info(seed),
              "why": workload_why().get(workload, ""), "outcome": res,
              "metrics": values, "runs": runs}
    out = WORKDIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    return values, res


# ── entry points ────────────────────────────────────────────────────────────


def quick() -> int:
    """Schema self-test: names, units and check outcomes; no timing."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}
    if declared["end_to_end"] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the run")
    if declared["per_layer"] != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the run")
    if set(workload_why()) != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the run")
    for workload in WORKLOADS:
        values, res = run_workload(workload, 1, 1, 1)
        for name in END_TO_END:
            if not values[name] > 0:
                problems.append(f"{workload}: {name} = {values[name]}")
        for name, reason in res["unexpected"]:
            problems.append(f"{workload}: {name} failed: {reason}")
    print("\n".join(["quick: " + p for p in problems]
                    or ["quick: ok (schema and check outcomes)"]))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "persistinfo" / "__init__.py").is_file():
        print(f"error: no persistinfo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--warm-up"],
                   cwd=ROOT, env=_env(), check=True, timeout=OP_TIMEOUT_S)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("give --workload or --quick")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in names:
        values, res = run_workload(
            workload, args.seed, rounds_for(workload, args.seconds),
            args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for name, value in values.items():
            if name in ("peak_rss_mb", "tick_us") or \
                    name.endswith(".max_cols"):
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    merged["ops_failed_ratio"] = failed / attempted
    metrics = select(merged, args.trace)
    if args.workload == "all" and not args.trace:
        metrics.update({name: {"value": merged[name], "unit": unit}
                        for name, unit in {**GROUP_UNITS,
                                           "ops_failed_ratio": "ratio"}.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

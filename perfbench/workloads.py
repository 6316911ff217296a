"""Workloads and operations of the persistinfo benchmark.

An op is one command invocation or one library call sequence on one
model.  Each op runs in a fresh interpreter (see ``worker.py``), so no
op reuses another op's caches, as with a command-line invocation.  An
op has three parts:

* ``build(ctx)`` makes its inputs (argv, model objects): set-up time;
* ``run(inputs)`` is the timed interval;
* ``check(inputs, result)`` runs afterwards, outside the timed interval
  and outside any trace span, and returns ``None`` or the reason the
  output is wrong.  Checks take a route independent of the code that
  produced the output wherever one exists.

persistinfo is imported only inside these functions, so ``run.py`` can
read the op table without importing the package.  Library calls go
through module attributes at call time, so the traced run sees the
wrapped functions.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

#: length of every sampled sequence on the ``empirical`` workload
N_SYMBOLS = 10 ** 6

#: total-variation bound between a sample's block law and the exact law
TV_BOUND = 0.01


@dataclass(frozen=True)
class Context:
    seed: int
    workdir: Path


@dataclass(frozen=True)
class Op:
    name: str
    #: the end-to-end metric this op's time counts toward
    group: str
    build: Callable[[Context], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Optional[str]]
    #: symbols the op writes (sample) or reads (estimates); throughput base
    symbols: int = 0


# ── models ──────────────────────────────────────────────────────────────────

GOLDEN_ROWS = {"0": ("1/2", "1/2"), "1": ("1", "0")}
# table1's markov-r2 row
R2_ROWS = {"00": ("4/5", "1/5"), "01": ("3/10", "7/10"),
           "10": ("3/5", "2/5"), "11": ("1/4", "3/4")}
TERNARY_ROWS = {a + b: ("1/2", "1/3", "1/6") if a + b == "aa"
                else ("1/4", "1/4", "1/2") for a in "abc" for b in "abc"}
ISING = {"kind": "ising", "J": 1, "h": 0.3, "beta": 0.7}


def exact_chain(rows, alphabet: Optional[str] = None):
    from persistinfo.infocore import Alphabet
    from persistinfo.processes import MarkovProcess
    return MarkovProcess.from_rows(
        {c: tuple(Fraction(x) for x in row) for c, row in rows.items()},
        alphabet=Alphabet(alphabet) if alphabet else None)


# ── command-line ops ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CliResult:
    rc: int
    stdout: str
    stderr: str
    out: Optional[Path]

    @property
    def output_bytes(self) -> int:
        written = self.out.stat().st_size if self.out and self.out.exists() else 0
        return len(self.stdout.encode()) + written


def run_cli(argv: tuple) -> CliResult:
    """``persistinfo <argv>`` in-process, with its output captured."""
    from persistinfo import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return CliResult(rc, out.getvalue(), err.getvalue(), target)


def cli_op(name: str, group: str, argv: Callable[[Context], tuple],
           check: Callable[[Context, CliResult], Optional[str]],
           symbols: int = 0) -> Op:
    """An op running ``persistinfo <argv(ctx)>``; the command builds its
    own models, so set-up is only the interpreter and the import."""
    def checked(ctx: Context, res: CliResult) -> Optional[str]:
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()}"
        return check(ctx, res)
    return Op(name, group, lambda ctx: ctx, lambda ctx: run_cli(argv(ctx)),
              checked, symbols)


# ── exact-substitution ──────────────────────────────────────────────────────


def _check_table1(_ctx, res: CliResult) -> Optional[str]:
    bad = json.loads(res.stdout)["violations"]
    return None if bad == 0 else f"table1 reports {bad} violations"


def _check_tm_grid(_ctx, res: CliResult) -> Optional[str]:
    doc = json.loads(res.stdout)
    kind, grid = doc["verdict"]["kind"], doc["grid"]
    if kind != "diverging":
        return f"Thue-Morse verdict is {kind}, not diverging"
    if grid["missing"] or len(grid["cells"]) != 20:
        return (f"{len(grid['missing'])} missing and {len(grid['cells'])} "
                "computed cells; expected 0 and 20")
    return None


def _check_tm_factors(l: int, res: CliResult) -> Optional[str]:
    k = (l - 1).bit_length() - 1
    allowed = {Fraction(1, 3 * 2 ** k), Fraction(1, 6 * 2 ** k)}
    freqs = [Fraction(f["freq_exact"]) for f in json.loads(res.stdout)["factors"]]
    odd = set(freqs) - allowed
    if odd:
        return f"frequencies outside {{1/(3*2^{k}), 1/(6*2^{k})}}: {sorted(odd)[:3]}"
    if sum(freqs) != 1:
        return f"frequencies sum to {sum(freqs)}, not exactly 1"
    return None


def _check_fib_factors(l: int, res: CliResult) -> Optional[str]:
    freqs = [f["freq"] for f in json.loads(res.stdout)["factors"]]
    if len(freqs) != l + 1:
        return f"{len(freqs)} factors of length {l}; Sturmian words have {l + 1}"
    if abs(math.fsum(freqs) - 1) > 1e-12:
        return f"frequencies sum to {math.fsum(freqs)!r}, not 1 within 1e-12"
    return None


def _factor_op(name: str, rules: str, l: int, check) -> Op:
    return cli_op(name, "factor_table_s",
                  lambda ctx: ("substitution", "--rules", rules, "--l", str(l),
                               "--format", "json"),
                  lambda ctx, res: check(l, res))


EXACT_SUBSTITUTION = (
    cli_op("table1", "table1_s",
           lambda ctx: ("table1", "--format", "json"), _check_table1),
    # every cell has 2L + g <= 26, inside the 2^26 window cap
    cli_op("pmi-tm", "pmi_tm_s",
           lambda ctx: ("pmi", "--model", "tm", "--L-grid", "1,2,3,4,5",
                        "--g-grid", "2,4,8,16", "--format", "json"),
           _check_tm_grid),
    _factor_op("factors-tm", "tm", 32, _check_tm_factors),
    _factor_op("factors-fib", "fib", 24, _check_fib_factors),
)


# ── exact-markov ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Chain:
    name: str
    rows: dict
    alphabet: Optional[str]
    L_max: int
    L_grid: tuple
    g_grid: tuple
    horizon: int  # history and future length of the reconstruction


CHAINS = (
    Chain("golden", GOLDEN_ROWS, None, 18, (1, 2, 3), (16, 64, 256), 8),
    Chain("r2", R2_ROWS, None, 13, (2, 3, 4), (16, 32, 64), 6),
    Chain("ternary", TERNARY_ROWS, "abc", 8, (2, 3, 4), (8, 16, 32), 4),
)


def _closed(model):
    from persistinfo import processes
    return processes.closed_forms(model)


def _curve(model, chain: Chain):
    from persistinfo import measures
    return measures.entropy_curve(model, chain.L_max)


def _check_curve(inputs, curve) -> Optional[str]:
    model, _chain = inputs
    cf = _closed(model)
    if curve.dH[-1] != cf.entropy_rate:
        return f"dH[L_max] = {curve.dH[-1]} != closed h = {cf.entropy_rate}"
    if curve.E_hat != cf.excess_entropy:
        return f"E_hat = {curve.E_hat} != closed E = {cf.excess_entropy}"
    return None


def _grid(model, chain: Chain):
    from persistinfo import measures
    return measures.pmi_verdict(
        measures.gap_mi_grid(model, chain.L_grid, chain.g_grid))


def _check_exact_grid(_inputs, report) -> Optional[str]:
    v = report.verdict
    if v.kind != "converged" or abs(v.value) > 1e-9:
        return f"verdict {v.kind} with PMI {v.value}; expected converged to 0"
    if report.grid.missing:
        return f"{len(report.grid.missing)} cells missing"
    return None


def _machine(model, chain: Chain):
    from persistinfo import emachine, processes
    R = chain.horizon
    forward = emachine.reconstruct(model, R, R)
    E = emachine.machine_excess_entropy(forward, model)
    reverse = emachine.reconstruct(processes.reversed_model(model), R, R)
    split = emachine.complexity_decomposition(forward, reverse, model)
    return forward, E, split


def _check_machine(inputs, result) -> Optional[str]:
    model, _chain = inputs
    forward, E, _split = result
    cf = _closed(model)
    if E != cf.excess_entropy:
        return f"machine E = {E} != closed E = {cf.excess_entropy}"
    if forward.complexity != cf.complexity_plus:
        return (f"reconstructed C_P = {forward.complexity} "
                f"({len(forward.states)} states) != closed C_P = "
                f"{cf.complexity_plus}")
    return None


def _library_op(chain: Chain, suffix: str, group: str, call, check) -> Op:
    return Op(f"{chain.name}.{suffix}", group,
              lambda ctx: (exact_chain(chain.rows, chain.alphabet), chain),
              lambda inputs: call(*inputs), check)


EXACT_MARKOV = tuple(
    op for chain in CHAINS for op in (
        _library_op(chain, "entropy_curve", "entropy_exact_s", _curve,
                    _check_curve),
        _library_op(chain, "gap_mi_grid", "pmi_exact_s", _grid,
                    _check_exact_grid),
        _library_op(chain, "machine", "machine_s", _machine, _check_machine),
    ))


# ── empirical ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SeqModel:
    name: str
    spec: str           # the --model argument
    L_max: int          # of the entropy --seq op
    tv_L: int           # block lengths whose law is checked against the exact one
    verdict: Optional[str]  # the pmi --seq verdict the model must give
    exact_law: Callable[[], Any]


def _ising_law():
    from persistinfo.processes import IsingChainProcess
    return IsingChainProcess(J=ISING["J"], h=ISING["h"], beta=ISING["beta"])


def _tm_law():
    from persistinfo.processes import SubstitutionProcess
    from persistinfo.substitution import thue_morse
    return SubstitutionProcess(thue_morse())


TERNARY_SPEC = json.dumps({"kind": "markov", "alphabet": ["a", "b", "c"],
                           "rows": TERNARY_ROWS})

# The ternary chain comes first: its ops are the longest, and a run
# repeats the ops that still fit in its time, in this order.
SEQ_MODELS = (
    SeqModel("ternary", TERNARY_SPEC, 12, 4, None,
             lambda: exact_chain(TERNARY_ROWS, "abc")),
    SeqModel("golden", "goldenmean", 16, 6, "converged",
             lambda: exact_chain(GOLDEN_ROWS)),
    SeqModel("ising", json.dumps(ISING), 16, 6, None, _ising_law),
    SeqModel("thue-morse", "tm", 16, 6, "diverging", _tm_law),
)


def _seq_path(ctx: Context, m: SeqModel) -> Path:
    return ctx.workdir / f"{m.name}.txt"


def _sample_codes(path: Path, symbols: tuple):
    """Sample file as an integer array in the model's alphabet order,
    parsed without persistinfo."""
    import numpy as np
    raw = path.read_bytes().strip()
    if b"," in raw:
        labels = np.array(raw.split(b","))
    else:
        labels = np.frombuffer(raw, dtype="S1")
    codes = np.full(labels.size, -1, dtype=np.int64)
    for i, label in enumerate(symbols):
        codes[labels == label.encode()] = i
    if (codes < 0).any():
        raise ValueError(f"{path.name} holds a symbol outside {symbols}")
    return codes


def _window_law(codes, s: int, L: int):
    """Plug-in law of length-L windows as a vector over base-s codes."""
    import numpy as np
    m = codes.size - L + 1
    words = sum(codes[i:i + m] * s ** (L - 1 - i) for i in range(L))
    counts = np.bincount(words, minlength=s ** L)
    return counts / counts.sum()


def _exact_vector(model, L: int):
    import numpy as np
    s = len(model.alphabet)
    vec = np.zeros(s ** L)
    for word, p in model.block_distribution(L).probs.items():
        vec[sum(a * s ** (L - 1 - i) for i, a in enumerate(word))] = float(p)
    return vec


def _check_sample(m: SeqModel, ctx: Context, res: CliResult) -> Optional[str]:
    model = m.exact_law()
    codes = _sample_codes(_seq_path(ctx, m), model.alphabet.symbols)
    if codes.size != N_SYMBOLS:
        return f"{codes.size} symbols written, expected {N_SYMBOLS}"
    s = len(model.alphabet)
    for L in range(1, m.tv_L + 1):
        tv = 0.5 * abs(_window_law(codes, s, L) - _exact_vector(model, L)).sum()
        if tv > TV_BOUND:
            return f"L={L}: total variation {tv:.4g} from the exact law"
    if m.name == "thue-morse":
        from persistinfo.substitution import forbidden_words_check
        if not forbidden_words_check(_seq_path(ctx, m).read_text().strip()):
            return "Thue-Morse sample contains a forbidden word"
    return None


def _check_entropy(m: SeqModel, ctx: Context, res: CliResult) -> Optional[str]:
    import numpy as np
    rows = [line.split() for line in res.stdout.splitlines()
            if line[:1].isdigit()]
    if [int(r[0]) for r in rows] != list(range(1, m.L_max + 1)):
        return "entropy table does not list L = 1..L_max"
    model = m.exact_law()
    codes = _sample_codes(_seq_path(ctx, m), model.alphabet.symbols)
    for L in range(1, m.tv_L + 1):
        p = _window_law(codes, len(model.alphabet), L)
        p = p[p > 0]
        H = float(-(p * np.log2(p)).sum())
        if abs(float(rows[L - 1][1]) - H) > 1e-9:
            return f"H({L}) = {rows[L - 1][1]}, recount gives {H!r}"
    return None


def _check_seq_grid(m: SeqModel, _ctx, res: CliResult) -> Optional[str]:
    doc = json.loads(res.stdout)
    grid = doc["grid"]
    cells = len(grid["cells"]) + len(grid["missing"])
    if cells != 24:
        return f"{cells} grid cells reported, expected 24"
    kind = doc["verdict"]["kind"]
    if m.verdict and kind != m.verdict:
        return f"verdict {kind}, expected {m.verdict}"
    return None


def _seq_op(m: SeqModel, suffix: str, group: str, argv, check) -> Op:
    return cli_op(f"{m.name}.{suffix}", group, argv,
                  lambda ctx, res: check(m, ctx, res), N_SYMBOLS)


EMPIRICAL = tuple(
    op for m in SEQ_MODELS for op in (
        _seq_op(m, "sample", "sample_msym_per_s",
                lambda ctx, m=m: ("sample", "--model", m.spec,
                                  "--n", str(N_SYMBOLS),
                                  "--seed", str(ctx.seed),
                                  "--out", str(_seq_path(ctx, m))),
                _check_sample),
        _seq_op(m, "entropy", "estimate_msym_per_s",
                lambda ctx, m=m: ("entropy", "--seq", str(_seq_path(ctx, m)),
                                  "--Lmax", str(m.L_max)),
                _check_entropy),
        _seq_op(m, "pmi", "estimate_msym_per_s",
                lambda ctx, m=m: ("pmi", "--seq", str(_seq_path(ctx, m)),
                                  "--L-grid", "1,2,3,4,5,6",
                                  "--g-grid", "4,8,16,32", "--format", "json"),
                _check_seq_grid),
    ))


WORKLOADS = {
    "exact-substitution": EXACT_SUBSTITUTION,
    "exact-markov": EXACT_MARKOV,
    "empirical": EMPIRICAL,
}

#: Ops the program at the benchmark's first commit fails, with a text the
#: failure reason contains.  They are counted as failed, never skipped.
KNOWN_FAILURES = {
    # closed_forms gives C_P = H(2) over 9 contexts; reconstruct merges the
    # contexts with equal rows and successors into fewer causal states
    ("exact-markov", "ternary.machine"): "reconstructed C_P",
    # infocore._validate_probs allows 1e-12 on the sum of a 531441-word table
    ("empirical", "ternary.entropy"): "probabilities sum to",
}

#: The end-to-end metric each op group feeds, with its unit.
GROUP_UNITS = {
    "table1_s": "s", "pmi_tm_s": "s", "factor_table_s": "s",
    "entropy_exact_s": "s", "pmi_exact_s": "s", "machine_s": "s",
    "sample_msym_per_s": "Msym/s", "estimate_msym_per_s": "Msym/s",
}


def find(workload: str, name: str) -> Op:
    for op in WORKLOADS[workload]:
        if op.name == name:
            return op
    raise KeyError(f"no op {name!r} in workload {workload!r}")

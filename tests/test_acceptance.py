"""Acceptance gate: ten criteria, one test and one pass line each.

Every criterion states its tolerance inline.  The suite exercises the
public API end to end: exact substitution combinatorics, the
closed-form table, verdict classification, machine identities, the
empirical path, and the forbidden-word scan.
"""

import math
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from persistinfo.cli import _table1_rows
from persistinfo.emachine import (
    complexity_decomposition,
    machine_excess_entropy,
    reconstruct,
)
from persistinfo.infocore import (
    BlockDistribution,
    empirical_block_distribution,
    shannon_entropy,
)
from persistinfo.measures import (
    EmpiricalSource,
    gap_mi_grid,
    pmi_verdict,
)
from persistinfo.processes import (
    IidProcess,
    MarkovProcess,
    PeriodicProcess,
    SubstitutionProcess,
    closed_forms,
    reversed_model,
    sample,
)
from persistinfo.substitution import (
    composition_matrix,
    factor_frequencies,
    factors_of_length,
    fixed_point_prefix,
    forbidden_words_check,
    induced_substitution,
    shortcut_matrix,
    thue_morse,
)

from oracles import geometric_decay_rate, thue_morse_block_entropy_increment


def goldenmean() -> MarkovProcess:
    return MarkovProcess.from_rows(
        {"0": (F(1, 2), F(1, 2)), "1": (F(1), F(0))})


def lopsided() -> MarkovProcess:
    # second eigenvalue 0.7, so the gap MI decays like 0.49^g
    return MarkovProcess.from_rows(
        {"0": (F(4, 5), F(1, 5)), "1": (F(1, 10), F(9, 10))})


def markov_r2_uniform() -> MarkovProcess:
    return MarkovProcess.from_rows({
        "00": (F(3, 4), F(1, 4)),
        "01": (F(1, 2), F(1, 2)),
        "10": (F(1, 4), F(3, 4)),
        "11": (F(1, 2), F(1, 2)),
    })


def _random_chains(count=20):
    """Seeded random binary kernels, alternating order 1 and 2."""
    chains = []
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        R = 1 if seed % 2 == 0 else 2
        rows = {}
        for bits in product("01", repeat=R):
            w = rng.random(2) + 0.05
            rows["".join(bits)] = tuple(w / w.sum())
        chains.append((R, MarkovProcess.from_rows(rows)))
    return chains


def _aperiodic_cycles(max_p=6):
    """One representative per rotation class, all primitive periods."""
    seen, out = set(), []
    for p in range(1, max_p + 1):
        for bits in product("01", repeat=p):
            s = "".join(bits)
            rotations = {s[i:] + s[:i] for i in range(p)}
            if len(rotations) != p:
                continue
            canon = min(rotations)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(PeriodicProcess.from_string(canon))
    return out


def _tv(d1, d2) -> float:
    keys = set(d1.probs) | set(d2.probs)
    return 0.5 * sum(abs(float(d1.probs.get(w, 0)) -
                         float(d2.probs.get(w, 0))) for w in keys)


# ── criterion 1 ───────────────────────────────────────────────────────────────


def test_criterion_01_factor_frequency_values():
    """Every length-l factor frequency of the parity fixed point is
    exactly 1/(3 2^k) or 1/(6 2^k), l = 2..16; runtime < 10 s."""
    tm = thue_morse()
    t0 = time.monotonic()
    for l in range(2, 17):
        k = (l - 1).bit_length() - 1
        assert (1 << k) + 1 <= l <= (1 << (k + 1))
        table = factor_frequencies(tm, l)
        allowed = {F(1, 3 * (1 << k)), F(1, 6 * (1 << k))}
        assert set(table.freq.values()) <= allowed
        assert sum(table.freq.values()) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS - exact frequency dichotomy for l=2..16 "
          f"({elapsed:.2f} s)")


# ── criterion 2 ───────────────────────────────────────────────────────────────


def test_criterion_02_shortcut_worked_example():
    """l=5, p=3: 12 factors, pair vector (1,2,2,1)/6, count matrix maps
    it to (4,...,4), frequencies 1/12; commutation is an exact integer
    identity."""
    tm = thue_morse()
    data = shortcut_matrix(tm, 5, 3)
    assert len(data.factors_l) == 12
    assert data.v2 == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    image = data.matrix @ np.array([1, 2, 2, 1], dtype=np.int64)
    assert list(image) == [4] * 12
    assert set(data.v_l) == {F(1, 12)}
    M2 = composition_matrix(induced_substitution(tm, 2))
    M5 = composition_matrix(induced_substitution(tm, 5))
    left = data.matrix @ M2
    right = M5 @ data.matrix
    assert np.array_equal(left, right)
    print("criterion 2: PASS - 12 factors at 1/12 each and the exact "
          "commutation identity")


# ── criterion 3 ───────────────────────────────────────────────────────────────


def test_criterion_03_entropy_increments_and_complexity():
    """Factor-table H(n) - H(n-1) equals the closed-form staircase
    exactly on the (a + b log2 3) representation for n = 2..17, and the
    printed one-off branch indexing is demonstrably wrong at
    n in {4, 7, 13}; complexity increments follow the 4/2 ranges."""
    tm = thue_morse()
    H = {n: shannon_entropy(
             BlockDistribution(tm.alphabet, n,
                               factor_frequencies(tm, n).freq))
         for n in range(1, 18)}
    for n in range(2, 18):
        diff = H[n] - H[n - 1]
        closed = thue_morse_block_entropy_increment(n)
        assert diff == closed, n

    # branch conditions evaluated at n instead of n - 1 disagree with
    # the true increments exactly where the plateaus shift
    def misindexed(n):
        k = (n - 1).bit_length() - 1
        num = 4 if n <= 3 * (1 << (k - 1)) else 2
        return F(num, 3 * (1 << k))

    for n in (4, 7, 13):
        true_value = H[n] - H[n - 1]
        assert true_value != misindexed(n), n

    p = {n: len(factors_of_length(tm, n)) for n in range(3, 18)}
    for n in range(3, 17):
        k = (n - 1).bit_length() - 1
        want = 4 if n <= 3 * (1 << (k - 1)) else 2
        assert p[n + 1] - p[n] == want, n
    print("criterion 3: PASS - exact increment staircase n=2..17 (with "
          "the shifted-branch counterexamples) and 4/2 complexity steps")


# ── criterion 4 ───────────────────────────────────────────────────────────────


def test_criterion_04_closed_form_table():
    """Recomputed pipeline values match every finite closed-form cell
    within 1e-6 bits across periodic p=2,3,5, Markov R=1,2, fair and
    biased i.i.d., and the Ising chain; the substitution row reports
    E and PMI as diverging.  Runtime < 60 s."""
    t0 = time.monotonic()
    rows = dict(_table1_rows())
    elapsed = time.monotonic() - t0
    expected = {"period-2", "period-3", "period-5", "goldenmean",
                "markov-r2", "iid-fair", "iid-biased", "thue-morse",
                "ising"}
    assert expected <= set(rows)
    for label, cells in rows.items():
        for qty, cell in cells.items():
            d = cell["diff"]
            if isinstance(d, float):
                assert d <= 1e-6, (label, qty, cell)
            else:
                assert d == "ok", (label, qty, cell)
    for qty in ("E", "PMI"):
        assert rows["thue-morse"][qty]["computed"] == "diverging"
    assert elapsed < 60.0
    print(f"criterion 4: PASS - all finite cells within 1e-6, "
          f"substitution row diverging ({elapsed:.2f} s)")


# ── criterion 5 ───────────────────────────────────────────────────────────────


def test_criterion_05_pmi_verdicts():
    """Periodic grids converge to log2 p within 1e-9; Markov grids
    converge to 0 within 1e-6 with tail decay within 10% of the
    squared second eigenvalue; the substitution grid diverges."""
    for p, cycle in ((2, "01"), (3, "011"), (5, "00111")):
        model = PeriodicProcess.from_string(cycle)
        grid = gap_mi_grid(model, (p, p + 1, p + 2), (p, 2 * p, 3 * p))
        v = pmi_verdict(grid).verdict
        assert v.kind == "converged"
        assert abs(v.value - math.log2(p)) <= 1e-9
        assert v.uncertainty <= 1e-9

    for chain, lam2 in ((goldenmean(), 0.5), (lopsided(), 0.7)):
        grid = gap_mi_grid(chain, (1, 2, 3), (16, 24, 48))
        v = pmi_verdict(grid).verdict
        assert v.kind == "converged"
        assert abs(v.value) <= 1e-6
        decay_grid = gap_mi_grid(chain, (2,), (2, 4, 6, 8))
        points = [(g, float(decay_grid.values[(2, g)])) for g in (2, 4, 6, 8)]
        rate = geometric_decay_rate(points)
        assert abs(rate - lam2 ** 2) <= 0.10 * lam2 ** 2

    tm = SubstitutionProcess(thue_morse())
    v = pmi_verdict(gap_mi_grid(tm, (3, 5, 7, 9), (2, 4, 8))).verdict
    assert v.kind == "diverging"
    print("criterion 5: PASS - periodic converged to log2(p) +-1e-9, "
          "Markov converged to 0 with matching decay, substitution "
          "diverging")


# ── criterion 6 ───────────────────────────────────────────────────────────────


def test_criterion_06_inequality_suite():
    """PMI <= E <= C_P and 0 <= e <= 1 within 1e-9 across 20 random
    kernels, every rotation-distinct cycle p <= 6, and both i.i.d.
    models."""
    models = [chain for _R, chain in _random_chains(20)]
    models += _aperiodic_cycles(6)
    models.append(IidProcess.from_probs([F(1, 2), F(1, 2)]))
    models.append(IidProcess.from_probs([F(3, 10), F(7, 10)]))
    assert len(models) >= 45
    for model in models:
        cf = closed_forms(model)
        pmi, E, C = (float(cf.pmi), float(cf.excess_entropy),
                     float(cf.complexity_plus))
        e = float(cf.efficiency)
        assert pmi <= E + 1e-9, model
        assert E <= C + 1e-9, model
        assert -1e-9 <= e <= 1 + 1e-9, model
    print(f"criterion 6: PASS - inequality chain on {len(models)} models")


# ── criterion 7 ───────────────────────────────────────────────────────────────


def test_criterion_07_causal_state_identities():
    """Machine mutual information reproduces E within 1e-6 and
    C_P = E + H(S+|S-) within 1e-9 on the random kernel set; state
    counts equal p for cycles and the distinct-row count for kernels."""
    for R, chain in _random_chains(20):
        fwd = reconstruct(chain, R, R + 1)
        E_machine = float(machine_excess_entropy(fwd, chain))
        E_closed = float(closed_forms(chain).excess_entropy)
        assert abs(E_machine - E_closed) <= 1e-6
        rev = reconstruct(reversed_model(chain), R, R + 1)
        E, h_fr, _h_rf = complexity_decomposition(fwd, rev, chain)
        assert abs(float(fwd.complexity) -
                   (float(E) + float(h_fr))) <= 1e-9
        distinct_rows = len({tuple(r) for r in chain.kernel.values()})
        assert len(fwd.states) == distinct_rows
    for model in _aperiodic_cycles(6):
        p = model.period
        m = reconstruct(model, p, p)
        assert len(m.states) == p
    print("criterion 7: PASS - machine E and complexity split verified "
          "on 20 kernels and 23 cycles")


# ── criterion 8 ───────────────────────────────────────────────────────────────


def test_criterion_08_linear_tail_of_block_entropy():
    """|H(R+8) - (R+8) h - E| <= 1e-6 for finite-order chains."""
    chains = [(1, goldenmean()), (1, lopsided()),
              (2, markov_r2_uniform())]
    chains += _random_chains(4)
    for R, chain in chains:
        cf = closed_forms(chain)
        L = R + 8
        H = float(shannon_entropy(chain.block_distribution(L)))
        resid = abs(H - L * float(cf.entropy_rate) -
                    float(cf.excess_entropy))
        assert resid <= 1e-6, (R, resid)
    print("criterion 8: PASS - block entropy is affine past the order "
          "(residuals <= 1e-6)")


# ── criterion 9 ───────────────────────────────────────────────────────────────


def test_criterion_09_empirical_path():
    """10^6-symbol plug-in laws sit within TV 0.01 of the exact laws
    for L <= 6, and empirical grids reproduce the exact verdicts."""
    n = 10 ** 6
    cases = [
        ("period-3", PeriodicProcess.from_string("011"), 11),
        ("goldenmean", goldenmean(), 7),
        ("iid-biased", IidProcess.from_probs([F(3, 10), F(7, 10)]), 5),
    ]
    for label, model, seed in cases:
        arr = sample(model, n, seed=seed)
        for L in range(1, 7):
            emp = empirical_block_distribution(arr, L, model.alphabet)
            assert _tv(emp, model.block_distribution(L)) <= 0.01, \
                (label, L)

    p3, gm = cases[0][1], cases[1][1]
    for model, seed, L_grid, g_grid in (
            (p3, 11, (3, 4, 5), (3, 6, 9)),
            (gm, 7, (1, 2, 3), (16, 24, 32))):
        exact_kind = pmi_verdict(
            gap_mi_grid(model, L_grid, g_grid)).verdict.kind
        src = EmpiricalSource(sample(model, n, seed=seed), model.alphabet)
        emp_kind = pmi_verdict(
            gap_mi_grid(src, L_grid, g_grid)).verdict.kind
        assert emp_kind == exact_kind == "converged"
    print("criterion 9: PASS - plug-in TV <= 0.01 for L <= 6 and "
          "matching verdicts at 10^6 symbols")


# ── criterion 10 ──────────────────────────────────────────────────────────────


def test_criterion_10_forbidden_word_scan():
    """The first 2^14 fixed-point symbols avoid 000, 111, 01010,
    10101."""
    prefix = fixed_point_prefix(thue_morse(), 1 << 14)
    assert len(prefix) == 1 << 14
    assert forbidden_words_check(prefix)
    text = "".join(str(b) for b in prefix)
    for w in ("000", "111", "01010", "10101"):
        assert w not in text
    print("criterion 10: PASS - no forbidden words in 2^14 symbols")

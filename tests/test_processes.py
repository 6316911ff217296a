"""Oracle tests for the closed-form process models.

Golden values below were derived by hand (stationary solves, transfer
matrix algebra, logistic cycle roots) before the module was written;
the implementation must reproduce them.
"""

import gc
import math
import tracemalloc
import warnings
from bisect import bisect_right
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from persistinfo import infocore, processes, substitution
from persistinfo.emachine import (
    NonUnifilarError,
    complexity_decomposition,
    reconstruct,
)
from persistinfo.infocore import (
    GAP_POWER_BIT_CAP,
    WINDOW_STATE_CAP,
    BlockDistribution,
    ExactBits,
    JointBlockDistribution,
    WindowCapError,
    _entropy_of_table,
    empirical_block_distribution,
    log2_of,
    marginalize_gap,
    mutual_information,
    shannon_entropy,
)
from persistinfo.measures import entropy_curve, gap_mi_grid, pmi_verdict
from persistinfo.processes import (
    ROW_SUM_TOL,
    ClosedFormUnavailable,
    IidProcess,
    IsingChainProcess,
    LogisticSymbolizer,
    MarkovProcess,
    PeriodicProcess,
    ReversedProcess,
    SubstitutionProcess,
    closed_forms,
    reversed_model,
    sample,
)
from persistinfo.sequence import Alphabet, _code_dtype
from persistinfo.substitution import (
    Substitution,
    composition_matrix,
    factor_frequencies,
    fibonacci,
    fixed_point_array,
    induced_substitution,
    primitivity,
    thue_morse,
)

from oracles import (
    ChainWithLaw,
    block_distribution,
    block_table_closed_forms,
    block_table_reversed,
    fraction_entropy,
    gap_cells_oracle,
    geometric_decay_rate,
    joint_gap_distribution,
    left_marginal,
    mi_of_deviations,
    phase_block_table,
    phase_pair_table,
    reversed_cycle,
    right_marginal,
    scalar_phi,
    table_mi_oracle,
    two_point_ising_closed_forms,
    walk_maps_oracle,
)

LOG2_3 = ExactBits(F(0), {3: F(1)})


def goldenmean() -> MarkovProcess:
    # order-1 binary chain forbidding "11"; pi = (2/3, 1/3)
    return MarkovProcess.from_rows(
        {"0": (F(1, 2), F(1, 2)), "1": (F(1), F(0))})


def markov_r2_uniform() -> MarkovProcess:
    # hand-solved: stationary law over pairs is uniform, adjacent
    # symbols pairwise independent, yet E = (3/4)log2(3) - 1 > 0
    return MarkovProcess.from_rows({
        "00": (F(3, 4), F(1, 4)),
        "01": (F(1, 2), F(1, 2)),
        "10": (F(1, 4), F(3, 4)),
        "11": (F(1, 2), F(1, 2)),
    })


def lopsided_chain() -> MarkovProcess:
    return MarkovProcess.from_rows({"0": (0.9, 0.1), "1": (0.2, 0.8)})


# ── periodic ────────────────────────────────────────────────────────


def test_periodic_blocks_period2():
    m = PeriodicProcess.from_string("01")
    d = block_distribution(m, 3)
    assert d.probs == {(0, 1, 0): F(1, 2), (1, 0, 1): F(1, 2)}
    assert d.exact


def test_periodic_blocks_shorter_than_period():
    m = PeriodicProcess.from_string("011")
    assert block_distribution(m, 1).probs == {(0,): F(1, 3), (1,): F(2, 3)}
    d2 = block_distribution(m, 2)
    assert d2.probs == {(0, 1): F(1, 3), (1, 1): F(1, 3), (1, 0): F(1, 3)}


def test_periodic_joint_gap_zero():
    m = PeriodicProcess.from_string("01")
    j = joint_gap_distribution(m, 1, 0)
    assert j.probs == {((0,), (1,)): F(1, 2), ((1,), (0,)): F(1, 2)}


def test_periodic_joint_marginals_match_blocks():
    m = PeriodicProcess.from_string("00101")
    for L, g in [(1, 0), (2, 3), (3, 7)]:
        j = joint_gap_distribution(m, L, g)
        b = block_distribution(m, L)
        assert left_marginal(j).probs == b.probs
        assert right_marginal(j).probs == b.probs


def test_periodic_rejects_nonminimal_cycle():
    with pytest.raises(ValueError):
        PeriodicProcess.from_string("0101")
    with pytest.raises(ValueError):
        PeriodicProcess.from_string("00")
    PeriodicProcess.from_string("0")  # period 1 is fine


def test_periodic_closed_forms():
    cf = closed_forms(PeriodicProcess.from_string("011"))
    assert cf.entropy_rate == 0
    assert cf.excess_entropy == LOG2_3
    assert cf.complexity_plus == LOG2_3
    assert cf.complexity_minus == LOG2_3
    assert cf.pmi == LOG2_3
    assert cf.efficiency == 1


def test_periodic_closed_form_period5():
    cf = closed_forms(PeriodicProcess.from_string("00111"))
    assert cf.pmi == ExactBits(F(0), {5: F(1)})
    assert float(cf.pmi) == pytest.approx(math.log2(5))


def test_periodic_long_gap_reads_only_the_two_blocks():
    m = PeriodicProcess.from_string("00111")
    tracemalloc.start()
    try:
        j = joint_gap_distribution(m, 5, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the gap is a multiple of the period
    assert j.probs == joint_gap_distribution(m, 5, 0).probs


@st.composite
def cycles(draw):
    """A cycle of period at most 12 over at most 3 letters whose
    rotations are distinct."""
    s = draw(st.integers(1, 3))
    word = draw(st.lists(st.integers(0, s - 1), min_size=1,
                         max_size=12 if s > 1 else 1))
    assume(len({tuple(word[t:] + word[:t]) for t in range(len(word))})
           == len(word))
    return PeriodicProcess(Alphabet("abc"[:s]), word)


@settings(max_examples=60, deadline=None)
@given(m=cycles(), L=st.integers(1, 4), g=st.integers(0, 30))
def test_periodic_laws_match_the_phase_oracle(m, L, g):
    pairs, blocks = phase_pair_table(m, L, g), phase_block_table(m, L)
    assert_same_scalar(m.gap_mutual_information(L, g),
                       mutual_information(pairs))
    assert_same_scalar(m.block_entropies([L])[0], shannon_entropy(blocks))
    assert joint_gap_distribution(m, L, g).probs == pairs.probs
    assert block_distribution(m, L).probs == blocks.probs


@pytest.mark.parametrize("cycle", ["0", "00111", "0010111", "abcacb"])
def test_periodic_cells_past_int64_equal_those_at_the_gap_mod_p(cycle):
    m = PeriodicProcess.from_string(cycle)
    for g in (10 ** 30, 2 * 10 ** 30 + 1):
        for L in (1, 3, 5):
            assert_same_scalar(m.gap_mutual_information(L, g),
                               m.gap_mutual_information(L, g % m.period))


def machine_or_refusal(model, R: int):
    try:
        machine = reconstruct(model, R, R)
    except NonUnifilarError as e:
        return str(e)
    return machine.states, machine.state_probs, machine.transitions


@settings(max_examples=40, deadline=None)
@given(m=cycles(), R=st.integers(1, 6))
@example(m=PeriodicProcess.from_string("0010111"), R=6)
def test_reversed_cycle_machines_match_the_reversed_cycle(m, R):
    assert machine_or_refusal(reversed_model(m), R) \
        == machine_or_refusal(reversed_cycle(m), R)


def test_periodic_sample_is_cyclic_window():
    m = PeriodicProcess.from_string("01")
    seen = set()
    for seed in range(12):
        w = m.alphabet.decode(sample(m, 5, seed=seed))
        assert w in {"01010", "10101"}
        seen.add(w)
    assert seen == {"01010", "10101"}  # uniform phase reaches both
    a = sample(m, 5, seed=3)
    b = sample(m, 5, seed=3)
    assert np.array_equal(a, b)


# ── i.i.d. ──────────────────────────────────────────────────────────


def test_iid_blocks_are_products():
    m = IidProcess.from_probs((F(1, 2), F(1, 2)))
    d = block_distribution(m, 2)
    assert d.probs == {w: F(1, 4) for w in
                       [(0, 0), (0, 1), (1, 0), (1, 1)]}


def test_iid_joint_factorizes_and_mi_is_zero():
    m = IidProcess.from_probs((F(3, 10), F(7, 10)))
    for L, g in [(1, 0), (2, 1), (3, 5)]:
        j = joint_gap_distribution(m, L, g)
        left, right = left_marginal(j), right_marginal(j)
        for (a, b), p in j.probs.items():
            assert p == left.probs[a] * right.probs[b]
        assert mutual_information(j) == 0  # exact, not approximate


@pytest.mark.parametrize("make", [
    lambda: IidProcess.from_probs((F(3, 10), F(7, 10))),
    lambda: MarkovProcess(Alphabet("abc"), 0,
                          {(): (F(1, 2), F(1, 3), F(1, 6))}),
])
def test_exact_iid_joint_does_not_carry_the_gap(make):
    # an order-0 chain forgets its past at once: its gap is bridged by
    # the identity, so no weight carries d^g
    m = make()
    near, far = (joint_gap_distribution(m, 2, g) for g in (0, 10**6))
    assert far.denominator == near.denominator
    assert far.weights == near.weights


def test_iid_process_holds_no_law_code():
    own = {k for k, v in vars(IidProcess).items()
           if callable(v) or isinstance(v, classmethod)}
    assert own == {"__init__", "from_probs", "joint_gap_distribution",
                   "sample"}
    # bound by name for per-class method wrappers, not overridden
    assert (vars(IidProcess)["joint_gap_distribution"]
            is MarkovProcess.joint_gap_distribution)
    assert vars(IidProcess)["sample"] is MarkovProcess.sample


def test_iid_closed_forms_biased():
    cf = closed_forms(IidProcess.from_probs((F(3, 10), F(7, 10))))
    # H(0.3) = (3/10)log2(10/3) + (7/10)log2(10/7)
    expected = shannon_entropy(
        block_distribution(IidProcess.from_probs((F(3, 10), F(7, 10))), 1))
    assert cf.entropy_rate == expected
    assert float(cf.entropy_rate) == pytest.approx(
        -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7)))
    assert cf.excess_entropy == 0
    assert cf.complexity_plus == 0
    assert cf.pmi == 0
    assert cf.efficiency == 0


def test_iid_empirical_entropy_law_of_large_numbers():
    m = IidProcess.from_probs((F(1, 2), F(1, 2)))
    seq = sample(m, 100_000, seed=7)
    h1 = shannon_entropy(empirical_block_distribution(seq, 1, m.alphabet))
    assert abs(float(h1) - 1.0) <= 0.01


# ── order-R Markov ──────────────────────────────────────────────────


def test_goldenmean_stationary_and_blocks():
    m = goldenmean()
    assert m.stationary == (F(2, 3), F(1, 3))
    d1 = block_distribution(m, 1)
    assert d1.probs == {(0,): F(2, 3), (1,): F(1, 3)}
    d2 = block_distribution(m, 2)
    assert d2.probs == {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 3)}


@pytest.mark.parametrize("rows", [
    # a fair coin on {0, 1} beside a (1/5, 4/5) coin on {2, 3}: every
    # gap cell is 1 bit
    {"0": (F(1, 2), F(1, 2), 0, 0), "1": (F(1, 2), F(1, 2), 0, 0),
     "2": (0, 0, F(1, 5), F(4, 5)), "3": (0, 0, F(1, 5), F(4, 5))},
    # the period-2 cycle on {0, 1} beside a fair coin on {2, 3}: every
    # gap cell is 3/2 bits
    {"0": (0, 1, 0, 0), "1": (1, 0, 0, 0),
     "2": (0, 0, F(1, 2), F(1, 2)), "3": (0, 0, F(1, 2), F(1, 2))},
])
def test_a_chain_of_two_closed_classes_is_refused(rows):
    # a π spread over both classes once gave these chains a closed-form
    # PMI of 0 and 1 bit, against the cells' 1 and 3/2
    for row_type in (F, float):
        with pytest.raises(ValueError,
                           match="stationary distribution is not unique"):
            MarkovProcess.from_rows({c: tuple(map(row_type, row))
                                     for c, row in rows.items()})


@pytest.mark.parametrize("rows, period", [
    ({"0": (0, 0, F(1, 2), F(1, 2)), "1": (0, 0, F(1, 4), F(3, 4)),
      "2": (F(1, 3), F(2, 3), 0, 0), "3": (F(1, 5), F(4, 5), 0, 0)}, 2),
    # context 00 is transient; 01 -> 11 -> 10 -> 01 has period 3
    ({"00": (F(1, 2), F(1, 2)), "01": (0, 1), "11": (1, 0),
      "10": (0, 1)}, 3),
])
def test_periodic_chain_closed_pmi_is_log_of_its_period(rows, period):
    m = MarkovProcess.from_rows(rows)
    cf = closed_forms(m)
    assert cf.pmi == log2_of(period)
    v = pmi_verdict(gap_mi_grid(m, (1, 2, 3), (16, 24, 32))).verdict
    assert v.kind == "converged"
    assert v.value == pytest.approx(float(cf.pmi), abs=1e-9)


def test_goldenmean_closed_forms_exact():
    cf = closed_forms(goldenmean())
    assert cf.entropy_rate == F(2, 3)
    assert cf.complexity_plus == ExactBits(F(-2, 3), {3: F(1)})  # H(1)
    assert cf.excess_entropy == ExactBits(F(-4, 3), {3: F(1)})
    assert cf.pmi == 0
    assert cf.efficiency == pytest.approx(
        1 - (2 / 3) / (math.log2(3) - 2 / 3))


def test_markov_r2_hand_solved_model():
    m = markov_r2_uniform()
    assert set(m.stationary) == {F(1, 4)}
    # adjacent symbols pairwise independent: H(2) = 2 bits
    assert shannon_entropy(block_distribution(m, 2)) == 2
    cf = closed_forms(m)
    assert cf.entropy_rate == ExactBits(F(3, 2), {3: F(-3, 8)})
    assert cf.excess_entropy == ExactBits(F(-1), {3: F(3, 4)})
    # contexts 01 and 11 share their row and successors: one causal
    # state, so C_P = H(1/4, 1/4, 1/2) = 3/2, below H(2) = 2
    assert cf.complexity_plus == F(3, 2)
    j = joint_gap_distribution(m, 1, 0)
    assert mutual_information(j) == 0  # pair independence, yet E > 0


def test_markov_block_shorter_than_order():
    m = markov_r2_uniform()
    assert block_distribution(m, 1).probs == {(0,): F(1, 2), (1,): F(1, 2)}


def test_markov_consistency_of_block_lengths():
    for m in [goldenmean(), markov_r2_uniform()]:
        for L in range(1, 5):
            longer = block_distribution(m, L + 1)
            shorter = block_distribution(m, L)
            for start in (0, 1):
                sums: dict = {}
                for w, p in longer.probs.items():
                    key = w[start:start + L]
                    sums[key] = sums.get(key, 0) + p
                assert sums == shorter.probs


def test_markov_joint_matches_transition_power():
    m = lopsided_chain()
    T = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = np.array([2 / 3, 1 / 3])
    for g in range(0, 13):
        j = joint_gap_distribution(m, 1, g)
        Tg = np.linalg.matrix_power(T, g + 1)
        for i in range(2):
            for k in range(2):
                assert j.probs[((i,), (k,))] == pytest.approx(
                    pi[i] * Tg[i, k], abs=1e-12)


def fraction_extend_oracle(m, start, steps) -> dict:
    """Reference word extension: push weighted words forward one symbol
    at a time, multiplying by the kernel rows themselves (Fractions on
    a rational chain, floats otherwise)."""
    layer = dict(start)
    R = m.order
    for _ in range(steps):
        new: dict = {}
        for w, p in layer.items():
            for a, pa in enumerate(m.kernel[w[-R:] if R else ()]):
                if pa != 0:
                    new[w + (a,)] = p * pa
        layer = new
    return layer


def context_power_oracle(m, g) -> list:
    """Reference T^g of the context chain, built from the kernel rows
    and multiplied out g times."""
    R = m.order
    index = {c: i for i, c in enumerate(m.contexts)}
    n = len(index)
    zero = 0 * m.kernel[m.contexts[0]][0]
    T = [[zero] * n for _ in range(n)]
    for c, row in m.kernel.items():
        for a, p in enumerate(row):
            if p != 0:
                T[index[c]][index[(c + (a,))[-R:] if R else ()]] += p
    Tg = [[zero + (i == j) for j in range(n)] for i in range(n)]
    for _ in range(g):
        Tg = [[sum((Tg[i][k] * T[k][j] for k in range(n)), zero)
               for j in range(n)] for i in range(n)]
    return Tg


def joint_gap_triple_loop_oracle(m, L, g) -> dict:
    """Reference joint gap law: left word x bridge context x right word,
    one multiply-add per triple, from the kernel and stationary law
    alone."""
    R = m.order
    index = {c: i for i, c in enumerate(m.contexts)}
    Tg = context_power_oracle(m, g)
    ctx = {c: p for c, p in zip(m.contexts, m.stationary) if p != 0}
    left: dict = {}
    if L >= R:
        for w, p in fraction_extend_oracle(m, ctx, L - R).items():
            left[(w, w[L - R:] if R else ())] = p
    else:
        for c, p in ctx.items():
            key = (c[R - L:], c)
            left[key] = left.get(key, 0) + p
    ext = {c: {w[R:]: p
               for w, p in fraction_extend_oracle(m, {c: 1}, L).items()}
           for c in m.contexts}
    probs: dict = {}
    for (a, c), p in left.items():
        for cj, c2 in enumerate(m.contexts):
            bridge = Tg[index[c]][cj]
            if bridge == 0:
                continue
            pa = p * bridge
            for b, q in ext[c2].items():
                key = (a, b)
                probs[key] = probs.get(key, 0) + pa * q
    return probs


def ternary_r2() -> MarkovProcess:
    return MarkovProcess.from_rows(
        {a + b: (F(1, 2), F(1, 3), F(1, 6)) if a + b == "aa"
         else (F(1, 4), F(1, 4), F(1, 2)) for a in "abc" for b in "abc"},
        alphabet=Alphabet("abc"))


@pytest.mark.parametrize("make", [
    lambda: MarkovProcess(Alphabet("abc"), 0,
                          {(): (F(1, 2), F(1, 3), F(1, 6))}),
    goldenmean,
    markov_r2_uniform,
    ternary_r2,
])
# (2, 20): ternary_r2's (d·T)^20 has entries near 4e20, past int64
@pytest.mark.parametrize("L,g", [(1, 0), (1, 3), (2, 0), (2, 5), (3, 1),
                                 (2, 20)])
def test_markov_joint_matches_triple_loop_oracle(make, L, g):
    m = make()
    got = joint_gap_distribution(m, L, g).probs
    want = joint_gap_triple_loop_oracle(m, L, g)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("make", [
    lambda: IsingChainProcess(J=1.0, h=0.3, beta=0.7).as_markov(),
    lambda: MarkovProcess.from_rows({"0": (0.5, 0.5), "1": (1.0, 0.0)}),
    lopsided_chain,
])
@pytest.mark.parametrize("L,g", [(1, 0), (2, 4), (4, 16)])
def test_float_markov_joint_cells_match_oracle(make, L, g):
    m = make()
    got = joint_gap_distribution(m, L, g).probs
    want = joint_gap_triple_loop_oracle(m, L, g)
    assert list(got) == list(want)
    for key, p in want.items():
        assert abs(got[key] - p) <= 1e-12


def test_markov_mi_decays_geometrically():
    # spectral gap: eigenvalues 1 and 0.7, so MI ~ const * 0.49^g
    m = lopsided_chain()
    mi = [float(mutual_information(joint_gap_distribution(m, 1, g)))
          for g in range(15)]
    assert all(mi[g + 1] < mi[g] for g in range(14))
    slope = np.polyfit(range(6, 15), np.log([mi[g] for g in range(6, 15)]), 1)[0]
    assert math.exp(slope) == pytest.approx(0.49, rel=0.10)


def test_markov_gap_bypasses_window_cap():
    # gap enters through a matrix power, never an enumeration
    m = goldenmean()
    j = joint_gap_distribution(m, 1, 1000)
    assert j.exact
    assert float(mutual_information(j)) <= 1e-12


def test_gap_grid_builds_one_power_per_gap(monkeypatch):
    built = []
    power = np.linalg.matrix_power

    def counted(M, g):
        built.append(g)
        return power(M, g)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    grid = gap_mi_grid(ternary_r2(), (2, 3, 4), (8, 16, 32))
    assert len(grid.values) == 9
    # each cell bridges the gap and the R = 2 symbols that follow it
    assert sorted(built) == [10, 18, 34]


def decimal_mi(j, prec: int = 50) -> Decimal:
    """I(left; right) of an exact joint table to ``prec`` digits."""
    D = j.denominator
    left: Counter = Counter()
    right: Counter = Counter()
    for (a, b), w in j.weights.items():
        left[a] += w
        right[b] += w
    with localcontext() as ctx:
        ctx.prec = prec
        nats = sum(Decimal(w) / D * (Decimal(w * D) / (left[a] * right[b])).ln()
                   for (a, b), w in j.weights.items() if w)
        return nats / Decimal(2).ln()


def decimal_entropy(d, prec: int = 60) -> Decimal:
    """H in bits of an exact table to ``prec`` digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        D = Decimal(d.denominator)
        return -sum(Decimal(w) / D * (Decimal(w) / D).ln()
                    for w in d.weights.values() if w) / Decimal(2).ln()


def decimal_mi_oracle(j) -> Decimal:
    """I(left; right) of an exact joint table in 60-digit ``Decimal``,
    the digits doubled while the value lies within 10^45 of the working
    precision's noise (the terms, each near 1, cancel to it, or to 0).
    It is 0 exactly where the joint is the product of its marginals,
    and positive otherwise."""
    D = j.denominator
    left: Counter = Counter()
    right: Counter = Counter()
    for (a, b), w in j.weights.items():
        left[a] += w
        right[b] += w
    if all(j.weights.get((a, b), 0) * D == left[a] * right[b]
           for a in left for b in right):
        return Decimal(0)
    prec = 60
    while True:
        want = decimal_mi(j, prec)
        if want > Decimal(10) ** (45 - prec):
            return want
        prec *= 2


def assert_near_decimal(got, want: Decimal, rel: float = 1e-12):
    """A float within ``rel`` of a Decimal, relative to the Decimal."""
    assert isinstance(got, float)
    assert abs(Decimal(got) - want) <= Decimal(rel) * want, (got, want)


@pytest.mark.parametrize("make", [
    # table1's markov-r2 row
    lambda: MarkovProcess.from_rows({
        "00": (F(4, 5), F(1, 5)), "01": (F(3, 10), F(7, 10)),
        "10": (F(3, 5), F(2, 5)), "11": (F(1, 4), F(3, 4))}),
    ternary_r2,
    lambda: MarkovProcess.from_rows({"0": (F(9, 10), F(1, 10)),
                                     "1": (F(3, 10), F(7, 10))}),
    goldenmean,
])
def test_float_gap_mi_is_within_float_noise_of_exact(make):
    # a float T^g whose rows are not divided by their sums drifts from
    # the exact law: 3.06e-14 bits on the r2 chain
    exact = make()
    twin = MarkovProcess(exact.alphabet, exact.order,
                         {c: tuple(map(float, row))
                          for c, row in exact.kernel.items()})
    for L in (1, 2, 3):
        for g in (1, 4, 16, 64, 256, 1024):
            want = decimal_mi(joint_gap_distribution(exact, L, g))
            got = mutual_information(joint_gap_distribution(twin, L, g))
            assert abs(Decimal(got) - want) <= Decimal("4e-15"), (L, g)


@pytest.mark.parametrize("rows, g", [
    ({"0": (0.3, 0.7), "1": (0.6, 0.4)}, 10**6),
    # every row ten 0.1s, which sum to 0.9999999999999999 in float
    ({str(i): (0.1,) * 10 for i in range(10)}, 10**5),
])
def test_float_chain_keeps_mass_at_long_gaps(rows, g):
    j = joint_gap_distribution(MarkovProcess.from_rows(rows), 1, g)
    assert abs(math.fsum(j.probs.values()) - 1) <= 1e-12
    mi = mutual_information(j)
    assert 0 <= mi <= 1e-15


@pytest.mark.parametrize("make, g, want, rel", [
    # T^17's off-diagonal, ~3e-21 against cells of 1/4: x_ab rounds to −1
    (lambda: IsingChainProcess(J=1.0, h=0.0, beta=25.0).as_markov(),
     16, 1.0, 1e-12),
    # the cell (0, 0), 3.3e-21 against p(0)p(0) = 1/9, rounds to −1 too
    (lambda: MarkovProcess.from_rows({"0": (1e-20, 1.0), "1": (0.5, 0.5)}),
     0, 0.2516291673878, 1e-12),
    # p(0)p(0), near 3e-400, underflows to 0 under a cell of 5e-201; the
    # value is the 80-digit Decimal I of the float cells, which a float
    # cell this far below 1e-20 meets to about 1e-3 only
    (lambda: MarkovProcess.from_rows({"0": (0.5, 0.5), "1": (1e-200, 1.0)}),
     0, 3.303153657377e-198, 1e-2),
], ids=["ising-beta-25", "x-rounds-to-minus-1", "product-underflows"])
def test_float_cells_at_the_ends_of_the_float_range(make, g, want, rel):
    mi = make().gap_mutual_information(1, g)
    assert math.isfinite(mi) and mi >= 0
    assert mi == pytest.approx(want, rel=rel)


# ── integer weights against the Fraction oracles ────────────────────


def fraction_block_oracle(m, L) -> dict:
    """Reference block law: the stationary context law pushed forward
    with Fraction arithmetic, or restricted when L < R."""
    R = m.order
    ctx = {c: p for c, p in zip(m.contexts, m.stationary) if p != 0}
    if L >= R:
        return fraction_extend_oracle(m, ctx, L - R)
    out: dict = {}
    for c, p in ctx.items():
        out[c[R - L:]] = out.get(c[R - L:], 0) + p
    return out


def fraction_entropy_oracle(probs):
    """Reference exact entropy: Σ −k·p·log₂ p over the distinct
    Fractions p and their counts k; any p that does not factor over
    small primes turns the table to floats, summed pairwise by NumPy in
    table order."""
    probs = list(probs)
    try:
        total = ExactBits(F(0))
        for p, k in Counter(F(p) for p in probs if p != 0).items():
            total = total - k * p * log2_of(p)
        return total
    except ValueError:
        p = np.array([float(x) for x in probs])
        p = p[p > 0.0]
        return float(0.0 - (p * np.log2(p)).sum())


def fraction_mi_oracle(joint: dict):
    left: dict = {}
    right: dict = {}
    for (a, b), p in joint.items():
        left[a] = left.get(a, 0) + p
        right[b] = right.get(b, 0) + p
    hs = [fraction_entropy_oracle(t.values()) for t in (left, right, joint)]
    if any(isinstance(h, float) for h in hs):
        return None  # read from a Decimal oracle instead
    return hs[0] + hs[1] - hs[2]


def fraction_states_oracle(m, R, F_len):
    """Reference causal states: histories grouped by their conditional
    future laws as Fractions; returns the states and C_P."""
    hist: dict = {}
    cond: dict = {}
    for w, p in fraction_block_oracle(m, R + F_len).items():
        hist[w[:R]] = hist.get(w[:R], 0) + p
        cond.setdefault(w[:R], {})[w[R:]] = p
    groups: dict = {}
    for d in sorted(hist):
        law = tuple(sorted((f, p / hist[d]) for f, p in cond[d].items()))
        groups.setdefault(law, []).append(d)
    states = sorted(tuple(c) for c in groups.values())
    masses = [sum(hist[d] for d in c) for c in states]
    return tuple(states), fraction_entropy_oracle(masses)


def assert_same_scalar(got, want):
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def rational_chains(draw):
    s = draw(st.integers(2, 3))
    order = draw(st.integers(0, 2))
    kernel = {}
    for c in product(range(s), repeat=order):
        den = draw(st.sampled_from((2, 3, 4, 6, 7, 11, 13, 14, 22, 26)))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=s - 1,
                                    max_size=s - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        kernel[c] = tuple(F(x, den) for x in parts)
    try:
        return MarkovProcess(Alphabet("abc"[:s]), order, kernel)
    except ValueError:  # no unique stationary law
        return draw(st.nothing())


@settings(max_examples=60, deadline=None)
@given(m=rational_chains(), L=st.integers(1, 3),
       g=st.sampled_from((0, 1, 2, 5, 17, 40)))
# broke decimal_mi_oracle once: this gap MI, 6.8e-117, is not 0
@example(m=MarkovProcess(Alphabet("ab"), 1, {(0,): (F(1, 13), F(12, 13)),
                                             (1,): (F(1, 26), F(25, 26))}),
         L=1, g=40)
def test_integer_laws_match_fraction_oracles(m, L, g):
    for n in (L, 2 * L):
        got = block_distribution(m, n)
        want = fraction_block_oracle(m, n)
        assert list(got.probs.items()) == list(want.items())
        assert_same_scalar(shannon_entropy(got),
                           fraction_entropy_oracle(want.values()))
    j = joint_gap_distribution(m, L, g)
    want = joint_gap_triple_loop_oracle(m, L, g)
    assert list(j.probs.items()) == list(want.items())
    assert_same_scalar(shannon_entropy(j),
                       fraction_entropy_oracle(want.values()))
    mi = mutual_information(j)
    exact_mi = fraction_mi_oracle(want)
    if exact_mi is None:
        # the entropies fell back to float; their difference would cancel
        assert_near_decimal(mi, decimal_mi_oracle(j))
    else:
        assert_same_scalar(mi, exact_mi)
    event(f"gap MI {'float' if isinstance(mi, float) else 'exact'}")
    R = max(m.order, 1)
    try:
        machine = reconstruct(m, R, R + 1)
    except NonUnifilarError:
        event("non-unifilar at these horizons")
        return
    states, c_p = fraction_states_oracle(m, R, R + 1)
    assert machine.states == states
    assert_same_scalar(machine.complexity, c_p)


def test_gap_mi_reads_the_marginals_only_for_an_exact_joint(monkeypatch):
    floats, factored = [], []
    entropy_of_p = infocore._entropy_of_p
    entropy_of_weights = infocore._entropy_of_weights

    def float_spy(*args):
        floats.append(args)
        return entropy_of_p(*args)

    def exact_spy(counts, D):
        factored.append(counts)
        return entropy_of_weights(counts, D)
    monkeypatch.setattr(infocore, "_entropy_of_p", float_spy)
    monkeypatch.setattr(infocore, "_entropy_of_weights", exact_spy)
    m = goldenmean()
    # rough joint: no float entropy and no marginal factored, only the
    # sum of nonnegative terms that the route of three entropies gave
    mi = m.gap_mutual_information(2, 64)
    assert floats == [] and len(factored) == 1
    j = gap_cells_oracle(m, 2, 64)
    left, right = left_marginal(j), right_marginal(j)
    hs = [_entropy_of_table(t.weights.values(), t.denominator)
          for t in (left, right, j)]
    assert isinstance(hs[2], float)
    want = mi_of_deviations(j.weights, left.weights, right.weights,
                            j.denominator)
    assert type(mi) is float and mi.hex() == want.hex()
    # smooth joint: the joint and both marginals factored, exact
    floats.clear()
    factored.clear()
    mi = m.gap_mutual_information(2, 4)
    assert floats == [] and len(factored) == 3
    joint = joint_gap_triple_loop_oracle(m, 2, 4)
    lefts, rights = Counter(), Counter()
    for (a, b), p in joint.items():
        lefts[a] += p
        rights[b] += p
    want = (fraction_entropy(lefts.values())
            + fraction_entropy(rights.values())
            - fraction_entropy(joint.values()))
    assert isinstance(mi, ExactBits)
    assert (mi.rational, mi.logs) == (want.rational, want.logs)
    assert str(mi) == str(want)


@settings(max_examples=200, deadline=None)
@given(m=rational_chains(), L=st.integers(1, 3), g=st.integers(0, 48))
def test_float_gap_cells_are_nonnegative_and_near_decimal(m, L, g):
    got = float_twin(m).gap_mutual_information(L, g)
    assert got >= 0
    want = decimal_mi_oracle(gap_cells_oracle(m, L, g))
    if want > Decimal("1e-12"):
        assert_near_decimal(got, want, rel=1e-9)
    event("checked to 1e-9" if want > Decimal("1e-12") else "sign only")


def test_golden_mean_float_cells_decay_at_lambda2_squared():
    # λ2 = −1/2; a cancelling H(A) + H(B) − H(AB) read 0.2541 here
    m = float_twin(goldenmean())
    rate = geometric_decay_rate(
        [(g, m.gap_mutual_information(2, g)) for g in range(8, 33, 4)])
    assert rate == pytest.approx(0.25, abs=1e-5)


@st.composite
def small_weight_chains(draw):
    """Rational chains of order <= 2 over 2 or 3 letters, each row drawn
    as weights from {0, 1, 2, 3, 5, 7, 9} and normalized."""
    s = draw(st.integers(2, 3))
    order = draw(st.integers(0, 2))
    weights = st.lists(st.sampled_from((0, 1, 2, 3, 5, 7, 9)),
                       min_size=s, max_size=s).filter(any)
    kernel = {}
    for c in product(range(s), repeat=order):
        w = draw(weights)
        kernel[c] = tuple(F(x, sum(w)) for x in w)
    try:
        return MarkovProcess(Alphabet("abc"[:s]), order, kernel)
    except ValueError:  # no unique stationary law
        return draw(st.nothing())


def float_twin(m: MarkovProcess) -> MarkovProcess:
    return MarkovProcess(m.alphabet, m.order, {
        c: tuple(map(float, row)) for c, row in m.kernel.items()})


def _rows(text: str, alphabet: str = "abc") -> MarkovProcess:
    return MarkovProcess.from_rows(
        {c: tuple(map(F, row.split())) for c, row in
         (part.split(":") for part in text.split(";"))},
        alphabet=Alphabet(alphabet))


# a rough cell whose sum moves by an ulp if φ takes np.log1p where
# |x| >= 1/8: the oracle gives 0.15995874866432067 at L = 2, g = 1
LOG1P_CHAIN = _rows("aa:1/5 1/2 3/10;ab:1/4 3/8 3/8;ac:0 1/2 1/2;"
                    "ba:7/8 1/8 0;bb:1/7 9/14 3/14;bc:9/13 3/13 1/13;"
                    "ca:5/7 2/7 0;cb:1/6 3/4 1/12;cc:1/2 1/9 7/18")


@settings(max_examples=300, deadline=None)
@given(m=small_weight_chains(), L=st.integers(1, 4),
       g=st.sampled_from((0, 1, 7, 30)))
@example(m=LOG1P_CHAIN, L=2, g=1)
def test_gap_cell_arrays_match_the_dict_table_oracle(m, L, g):
    # each chain and its float copy; the table route reads the oracle's
    # own table through the same kernel, and float and rough cells are
    # the oracle's sum of deviations over marginals added in word order
    for chain in (m, float_twin(m)):
        cells = gap_cells_oracle(chain, L, g)
        want = table_mi_oracle(cells)
        gots = [mutual_information(cells)]
        if chain.order or chain.exact:
            gots.append(chain.gap_mutual_information(L, g))
        else:
            # no bridge: the blocks are independent, which the float
            # products of an order-0 table only nearly are: each word is
            # L rounded products, so x_ab is a few L ulp and I ~ x²/2
            assert chain.gap_mutual_information(L, g) == 0.0
            assert 0 <= gots[0] <= (4 * L * 2**-52) ** 2
        for got in gots:
            if not isinstance(want, float):
                event("exact cell")
                assert_same_scalar(got, want)
            else:
                event("rough cell" if chain.exact else "float cell")
                assert type(got) is float and got.hex() == want.hex()


def test_phi_matches_the_scalar_series_and_log1p():
    # every magnitude the series meets, from subnormal squares up to the
    # 1/8 switch, and the log1p side past it down to φ(−1) = 1, in one
    # array and alone
    mags = np.concatenate([np.logspace(-320, -0.91, 4000),
                           np.nextafter(0.125, (0, 1)), [0.0, 1e-160]])
    x = np.concatenate([mags, -mags, np.linspace(-1 + 1e-9, 40, 2001),
                        [0.125, -0.125, np.nextafter(0.125, 0), -1.0]])
    want = [scalar_phi(v).hex() for v in x.tolist()]
    assert [v.hex() for v in infocore._phi(x).tolist()] == want
    assert want[-1] == (1.0).hex()
    for part in (x[:7], x[4000:4003], x[-5:]):
        assert [v.hex() for v in infocore._phi(part).tolist()] \
            == [scalar_phi(v).hex() for v in part.tolist()]


def test_reversal_and_closed_forms_build_no_chain(monkeypatch):
    chains = [goldenmean(), table1_r2(), ternary_r2(), lopsided_chain(),
              IidProcess.from_probs((F(3, 10), F(7, 10))),
              IsingChainProcess(J=1.0, h=0.3, beta=0.7)]
    want = [closed_forms(m) for m in chains]

    def refuse(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(MarkovProcess, "__init__", refuse)
    for m, cf in zip(chains, want):
        back = reversed_model(m)
        assert back is m if isinstance(m, IsingChainProcess) \
            else back.process is m
        assert closed_forms(m) == cf


def test_random_float_chain_of_729_contexts_has_no_pmi():
    # ternary, order 6, seeded weights 1-9 normalized as floats
    rng = np.random.default_rng(1)
    rows = {}
    for c in product(range(3), repeat=6):
        w = rng.integers(1, 10, 3)
        rows[c] = tuple((w / w.sum()).tolist())
    assert MarkovProcess(Alphabet("abc"), 6, rows).closed_forms().pmi == 0


def assert_same_table(got, want, exact):
    # the oracle chain keeps its own denominators
    if exact:
        assert got.probs == want.probs
    else:
        assert got.probs.keys() == want.probs.keys()
        assert all(abs(p - want.probs[w]) <= 1e-12
                   for w, p in got.probs.items())


@settings(max_examples=60, deadline=None)
@given(m=rational_chains())
def test_closed_forms_and_reversal_match_block_table_oracle(m):
    cf = closed_forms(m)
    for name, want in block_table_closed_forms(m).items():
        got = getattr(cf, name)
        if isinstance(want, float):
            # π too rough for symbolic log2: the tables' entropies are
            # float, while the rows' may stay exact
            event("block-table oracle in float")
            assert abs(float(got) - want) <= 1e-12, name
        else:
            assert got == want, name
    # the view mirrors the forward tables; the oracle is a second chain,
    # Bayes-inverted from them, whose own tables are built from its rows
    R = max(m.order, 1)
    for chain in (m, float_twin(m)):
        rev, want = reversed_model(chain), block_table_reversed(chain)
        for L in range(1, m.order + 3):
            assert_same_table(block_distribution(rev, L),
                              block_distribution(want, L), chain.exact)
        try:
            got = reconstruct(rev, R, R + 1)
        except NonUnifilarError:
            event("reverse machine non-unifilar")
            with pytest.raises(NonUnifilarError):
                reconstruct(want, R, R + 1)
            continue
        oracle = reconstruct(want, R, R + 1)
        assert got.states == oracle.states
        assert got.transitions.keys() == oracle.transitions.keys()
        if chain.exact:
            assert got.state_probs == oracle.state_probs
            assert got.transitions == oracle.transitions
        else:
            assert got.state_probs == pytest.approx(oracle.state_probs,
                                                    abs=1e-12)
            for key, (j, p) in oracle.transitions.items():
                assert got.transitions[key] == (j, pytest.approx(p, abs=1e-12))
            assert closed_forms(chain).complexity_minus == pytest.approx(
                block_table_closed_forms(chain)["complexity_minus"],
                abs=1e-12)


@pytest.mark.parametrize("make", [
    markov_r2_uniform,
    lambda: IidProcess.from_probs([F(1, 3), F(2, 3)]),
    lambda: IsingChainProcess(J=1.0, h=0.3, beta=0.7),
], ids=["rational", "iid", "ising"])
def test_tables_and_reversal_are_built_once_per_chain(make):
    chain = make()
    views = (chain.reversed(), chain.reversed(), reversed_model(chain))
    # the Ising chain is its own reversal; another chain hands out views
    assert all((view is chain) == isinstance(chain, IsingChainProcess)
               for view in views)
    for L in (1, 2, 3):
        table = chain.block_distribution(L)
        assert chain.block_distribution(L) is table
        # every view of the chain hands out the one reversed table
        back = views[0].block_distribution(L)
        assert all(view.block_distribution(L) is back for view in views)
        # the kept table is the one a fresh chain enumerates
        fresh = make().block_distribution(L)
        assert (table.weights, table.denominator) == (fresh.weights,
                                                      fresh.denominator)


def test_float_rows_must_sum_to_one_within_row_sum_tol():
    # a float row summing to 1 + 1e-6 is refused, one summing to
    # 1 + 1e-12 is taken as it is
    assert 1e-12 < ROW_SUM_TOL < 1e-6
    with pytest.raises(ValueError, match="row for context '0' sums to"):
        MarkovProcess.from_rows({"0": (0.5, 0.5 + 1e-6), "1": (1.0, 0.0)})
    m = MarkovProcess.from_rows({"0": (0.5, 0.5 + 1e-12), "1": (1.0, 0.0)})
    assert m.kernel[(0,)] == (0.5, 0.5 + 1e-12)


def test_a_chain_refers_to_no_reversal_view():
    assert ReversedProcess.__slots__ == ("process",)
    chain = ternary_r2()
    views = chain.reversed(), reversed_model(chain)
    assert views[0] is not views[1]
    for view in views:
        assert view.process is chain
        view.block_distribution(3)
    slots = [name for cls in type(chain).__mro__
             for name in getattr(cls, "__slots__", ())]
    for name in slots:
        value = getattr(chain, name)
        held = value.values() if isinstance(value, dict) else ()
        assert not any(isinstance(x, ReversedProcess)
                       for x in (value, *held)), name


def test_del_frees_a_chain_with_its_reversed_tables():
    # no chain refers to a view, so reference counting alone frees a
    # chain and every table it keeps; a first chain fills the
    # interpreter's free lists, which stay traced once it is freed
    gc.disable()
    tracemalloc.start()
    try:
        ternary_r2().reversed().block_distribution(10)
        start = tracemalloc.get_traced_memory()[0]
        chain = ternary_r2()
        chain.reversed().block_distribution(10)
        assert tracemalloc.get_traced_memory()[0] - start > 10 * 2 ** 20
        del chain
        assert tracemalloc.get_traced_memory()[0] - start < 2 ** 20
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("model", [
    PeriodicProcess.from_string("00111"),
    SubstitutionProcess(fibonacci()),
    SubstitutionProcess(thue_morse()),
], ids=["periodic", "fib", "tm"])
def test_a_window_model_view_mirrors_its_tables_and_keeps_none(model):
    views = model.reversed(), reversed_model(model)
    assert views[0] is not views[1]
    for L in (1, 2, 3, 5):
        fwd = model.block_distribution(L)
        first, second = (view.block_distribution(L) for view in views)
        assert first is not second
        for back in (first, second):
            assert back.denominator == fwd.denominator
            assert back.weights == {w[::-1]: p
                                    for w, p in fwd.weights.items()}


# ── class and edge-context routes against the table oracles ─────────


def decimal_bits(x) -> Decimal:
    """An ExactBits value in 200-digit ``Decimal``."""
    with localcontext() as ctx:
        ctx.prec = 200
        frac = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
        return frac(x.rational) + sum(
            frac(c) * Decimal(p).ln() for p, c in x.logs) / Decimal(2).ln()


@settings(max_examples=30, deadline=None)
@given(m=rational_chains(), g=st.sampled_from((0, 1, 3, 8, 40)))
def test_class_and_context_routes_match_the_table_oracles(m, g):
    Ls = range(1, 9)
    for got, L in zip(m.block_entropies(Ls), Ls):
        d = block_distribution(m, L)
        want = shannon_entropy(d)
        if isinstance(want, float):
            # a weight that is not smooth: the float is summed over the
            # classes, not over the table's words, so it is held to the
            # table's value in 60-digit Decimal
            event("block entropy float")
            assert_near_decimal(got, decimal_entropy(d), rel=1e-13)
        else:
            assert_same_scalar(got, want)
    s = len(m.alphabet)
    for L in (L for L in Ls if s ** (2 * L) <= 2 ** 16):
        j = joint_gap_distribution(m, L, g)
        got, want = m.gap_mutual_information(L, g), mutual_information(j)
        if isinstance(got, float) or isinstance(want, float):
            event("gap MI float")
            got, want = (v if isinstance(v, float) else float(decimal_bits(v))
                         for v in (got, want))
            assert abs(got - want) <= 1e-12 * want
        else:
            assert_same_scalar(got, want)


@pytest.mark.parametrize("make", [
    lambda: IsingChainProcess(J=1.0, h=0.3, beta=0.7),
    lopsided_chain,
    lambda: MarkovProcess(Alphabet("abc"), 2, {
        c: tuple(map(float, row)) for c, row in ternary_r2().kernel.items()}),
    lambda: IidProcess.from_probs((0.2, 0.3, 0.5)),
])
def test_float_chain_routes_are_within_1e_12_of_the_oracles(make):
    m = make()
    Ls = range(1, 9)
    for got, L in zip(m.block_entropies(Ls), Ls):
        assert abs(got - shannon_entropy(block_distribution(m, L))) <= 1e-12
    for L, g in ((1, 0), (2, 3), (3, 16), (4, 1)):
        want = mutual_information(joint_gap_distribution(m, L, g))
        assert abs(m.gap_mutual_information(L, g) - want) <= 1e-12


def test_float_entropies_below_the_order_add_as_the_table_does():
    # "aa" has no mass, so the table of length 1 lists "a" last; summed
    # in lex order instead, this H(1) would move by one ulp
    m = MarkovProcess.from_rows(
        {"aa": (0, .5, .5), "ab": (.4, .4, .2), "ac": (.3, .3, .4),
         "ba": (0, .4, .6), "bb": (.2, .3, .5), "bc": (.4, .3, .3),
         "ca": (0, .7, .3), "cb": (.5, .4, .1), "cc": (.2, .5, .3)},
        Alphabet("abc"))
    table = block_distribution(m, 1)
    assert list(table.weights) == [(1,), (2,), (0,)]
    assert_same_scalar(m.block_entropies([1])[0], shannon_entropy(table))


def test_ternary_gap_cells_do_not_depend_on_the_block_length():
    # an order-2 chain: past L = 2 a longer left block adds nothing
    m = ternary_r2()
    want = m.gap_mutual_information(2, 8)
    assert isinstance(want, ExactBits)
    assert want == mutual_information(joint_gap_distribution(m, 2, 8))
    for L in range(3, 9):
        assert m.gap_mutual_information(L, 8) == want


def traced_peak_mib(f) -> float:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_chain_routes_build_no_word_table():
    # the pair table of ternary (6, 8) peaked at 88 MiB, and the block
    # tables of golden-mean H(1..24) at 52 MiB
    assert traced_peak_mib(
        lambda: ternary_r2().gap_mutual_information(6, 8)) < 16
    assert traced_peak_mib(
        lambda: goldenmean().block_entropies(range(1, 25))) < 4


def test_gap_cell_cap_counts_the_edge_context_and_the_right_block():
    m = MarkovProcess.from_rows({"0": (F(1, 2), F(1, 2)),
                                 "1": (F(1, 3), F(2, 3))})
    # 2^(1 + 14) cells are within the cap, where 2^(2·14) pairs are
    # not; an order-1 chain's cells do not depend on L
    with pytest.raises(WindowCapError):
        joint_gap_distribution(m, 14, 3)
    with pytest.raises(WindowCapError):
        m.gap_mutual_information(26, 3)
    assert m.gap_mutual_information(14, 3) \
        == mutual_information(joint_gap_distribution(m, 1, 3))


def random_cycles(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        s = int(rng.integers(2, 4))
        try:
            found.append(PeriodicProcess(Alphabet("abc"[:s]), rng.integers(
                s, size=int(rng.integers(2, 13))).tolist()))
        except ValueError:  # a smaller period
            pass
    return found


def test_chain_gap_cells_build_no_oracle_table(monkeypatch):
    # every exact model, on both measures: a chain on its bridge route
    # for every order and every L < R or L >= R, a cycle and a
    # substitution on their windows
    models = [(IidProcess.from_probs((F(1, 2), F(1, 2))), (1, 2, 3)),
              (IidProcess.from_probs((0.2, 0.3, 0.5)), (1, 2, 3)),
              (goldenmean(), (1, 2, 3)),
              (table1_r2(), (1, 2, 3, 4)),
              (ternary_r2(), (1, 2, 3)),
              (IsingChainProcess(J=1.0, h=0.3, beta=0.7), (1, 2, 3)),
              (PeriodicProcess.from_string("00111"), (1, 2, 3, 6)),
              *((m, (1, 2, 4)) for m in random_cycles(5, 4)),
              (SubstitutionProcess(thue_morse()), (1, 2, 3, 5)),
              (SubstitutionProcess(fibonacci()), (1, 2, 3, 5))]
    gs = (0, 1, 5, 40)
    oracle = [{(L, g): mutual_information(joint_gap_distribution(m, L, g))
               for L in Ls for g in gs} for m, Ls in models]
    want = [(entropy_curve(m, max(Ls)).H, gap_mi_grid(m, Ls, gs).values)
            for m, Ls in models]

    def refuse(*args, **kwargs):
        raise AssertionError("a word table was built")

    for cls in (BlockDistribution, JointBlockDistribution):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "_trusted", refuse)
    for (m, Ls), cells, (H, values) in zip(models, oracle, want):
        for got, w in zip(entropy_curve(m, max(Ls)).H, H):
            assert_same_scalar(got, w)
        grid = gap_mi_grid(m, Ls, gs).values
        assert grid.keys() == values.keys() == cells.keys()
        for key, w in cells.items():
            got = grid[key]
            assert_same_scalar(got, values[key])
            if isinstance(got, float) or isinstance(w, float):
                assert abs(got - float(w)) <= 1e-12, (m, key)
            else:
                assert got == w, (m, key)


def test_float_iid_gap_cells_are_exactly_zero():
    m = IidProcess.from_probs((0.1,) * 10)
    assert {m.gap_mutual_information(L, g)
            for L in (1, 2, 3) for g in (0, 4, 1000)} == {0.0}


def test_order0_gap_cells_build_no_bridge():
    for m, zero in ((IidProcess.from_probs((F(1, 2), F(1, 3), F(1, 6))),
                     ExactBits(0)),
                    (IidProcess.from_probs((0.2, 0.3, 0.5)), 0.0)):
        for L, g in ((1, 1000), (3, 10 ** 6)):
            got = m.gap_mutual_information(L, g)
            assert type(got) is type(zero) and got == zero
        assert m._powers == {}


def test_gap_powers_past_the_kept_count_are_dropped():
    m = ternary_r2()
    gs = range(40)
    grid = gap_mi_grid(m, (2, 3), gs)
    # the grid is visited gap by gap: one power kept
    assert len(m._powers) == 1
    for (L, g), v in grid.values.items():
        assert v == ternary_r2().gap_mutual_information(L, g)


@pytest.mark.parametrize("L", [27, 40, 100])
def test_golden_mean_block_entropy_past_the_word_cap(L):
    # 2**L words, but a handful of (edge context, weight) classes
    m = goldenmean()
    cf = closed_forms(m)
    assert m.block_entropies([L]) == [cf.excess_entropy + L * cf.entropy_rate]


def test_exact_gap_powers_are_capped_in_bits():
    # (d·T)^(g+1) of the golden mean: 2 × 2 entries of at most g + 1
    # bits, so the last exact gap inside the cap is 2^20 − 1
    assert GAP_POWER_BIT_CAP == 1 << 22
    m, g = goldenmean(), (1 << 20) - 1
    with pytest.raises(WindowCapError, match=(
            r"^exact gap power \(d·T\)\^1048577 over 2 contexts needs up to"
            r" 4194308 bits \(use --backend float\); cap is 2\*\*22$")):
        m.gap_mutual_information(1, g + 1)
    # the value, about φ^(−2g), rounds to 0 from the exact weights
    assert m.gap_mutual_information(1, g) == 0.0
    assert m._powers[g + 1].dtype == object
    with pytest.raises(WindowCapError, match="needs up to"):
        joint_gap_distribution(m, 1, 10 ** 20)


def test_exact_gap_cell_inside_the_bit_cap_stays_exact(monkeypatch):
    # a cap of 40 bits: the golden mean's cell at g = 9 takes (d·T)^10,
    # 4·10 bits, just inside, and the cell at g = 10 takes 44
    monkeypatch.setattr(processes, "GAP_POWER_BIT_CAP", 40)
    got = goldenmean().gap_mutual_information(1, 9)
    assert isinstance(got, ExactBits)
    want = mutual_information(joint_gap_distribution(goldenmean(), 1, 9))
    assert got == want
    with pytest.raises(WindowCapError, match="needs up to 44 bits"):
        goldenmean().gap_mutual_information(1, 10)


def test_exact_gap_cells_are_capped_by_their_own_array():
    # the ternary chain's (4, 12943) bridge, 81 entries of 12945·4 bits,
    # is inside the power's cap, but the cell's 9·3^4 entries of
    # 12947·4 bits are not: refused before the power is taken
    m = ternary_r2()
    with pytest.raises(WindowCapError, match=(
            r"^exact gap cell \(4, 12943\) of 729 entries needs up to"
            r" 37753452 bits \(use --backend float\); cap is 2\*\*25$")):
        m.gap_mutual_information(4, 12943)
    assert not m._powers
    floats = MarkovProcess.from_rows(
        {a + b: (1 / 2, 1 / 3, 1 / 6) if a + b == "aa" else (1 / 4, 1 / 4, 1 / 2)
         for a in "abc" for b in "abc"}, alphabet=Alphabet("abc"))
    assert isinstance(floats.gap_mutual_information(4, 12943), float)


def test_exact_gap_cell_just_inside_its_array_cap_stays_exact(monkeypatch):
    # a cap of 2**11 bits: the ternary chain's (4, 1) cell holds 729
    # entries of 5·4 bits, 14580 of the 2**14 its array may hold, and
    # (4, 2) would hold 17496; both bridges are inside 2**11
    monkeypatch.setattr(processes, "GAP_POWER_BIT_CAP", 1 << 11)
    got = ternary_r2().gap_mutual_information(4, 1)
    assert isinstance(got, ExactBits)
    assert got == mutual_information(joint_gap_distribution(ternary_r2(), 4, 1))
    m = ternary_r2()
    with pytest.raises(WindowCapError, match=(
            r"^exact gap cell \(4, 2\) of 729 entries needs up to 17496 bits"
            r" \(use --backend float\); cap is 2\*\*14$")):
        m.gap_mutual_information(4, 2)
    assert not m._powers


def test_block_entropy_classes_are_capped(monkeypatch):
    monkeypatch.setattr(processes, "WINDOW_STATE_CAP", 64)
    # golden-mean classes grow by one per length: 33 of them at length
    # 33 could become 66
    assert len(goldenmean().block_entropies(range(1, 34))) == 33
    with pytest.raises(WindowCapError, match="grows 33 .* classes"):
        goldenmean().block_entropies([34])


def test_rough_chain_block_entropies_build_no_word_table(monkeypatch):
    # past L = 3 the weights have cofactors beyond the smooth-factor
    # bound, so H(L) is a float read from the (edge context, weight)
    # classes
    m = MarkovProcess.from_rows({"0": (F(1, 10007), F(10006, 10007)),
                                 "1": (F(1, 2), F(1, 2))})
    oracle = MarkovProcess.block_distribution

    def words_below_the_order(self, L):
        if L >= self.order:
            raise AssertionError("a word table was built")
        return oracle(self, L)

    monkeypatch.setattr(MarkovProcess, "block_distribution",
                        words_below_the_order)
    got = m.block_entropies(range(1, 19))
    # an order-1 chain has H(L) = H(π) + (L − 1)·h
    with localcontext() as ctx:
        ctx.prec = 60
        dec = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
        bits = lambda ps: -sum(dec(p) * dec(p).ln() for p in ps if p) \
            / Decimal(2).ln()
        pi = m.stationary
        h = sum(dec(p) * bits(m.kernel[c]) for c, p in zip(m.contexts, pi))
        want = [bits(pi) + (L - 1) * h for L in range(1, 19)]
    assert all(isinstance(H, float) for H in got[3:])
    for H, w in zip(got, want):
        assert_near_decimal(float(H), w, rel=1e-13)


def test_markov_sample_starts_stationary():
    m = goldenmean()
    first = [int(sample(m, 1, seed=s)[0]) for s in range(2000)]
    assert abs(first.count(0) / 2000 - 2 / 3) <= 0.04


def test_markov_sample_empirical_tv():
    m = goldenmean()
    seq = sample(m, 100_000, seed=11)
    emp = empirical_block_distribution(seq, 4, m.alphabet)
    exact = block_distribution(m, 4)
    tv = sum(abs(emp.probs.get(w, 0) - float(exact.probs.get(w, 0)))
             for w in set(emp.probs) | set(exact.probs)) / 2
    assert tv <= 5 * math.sqrt(2 ** 4 / 100_000)


def bisect_sample_oracle(model, n, rng):
    """The sampler as one Python loop: one bisect per step on the
    current context's cut points (its cumulative row without the last
    entry), which clamps to the last symbol for free."""
    s = len(model.alphabet)
    R = model.order
    cuts = [np.cumsum([float(x) for x in model.kernel[c]])[:-1].tolist()
            for c in model.contexts]
    cum_pi = np.cumsum([float(x) for x in model.stationary]).tolist()
    ci = bisect_right(cum_pi, float(rng.random()))
    ci = min(ci, len(model.contexts) - 1)
    u = rng.random(n).tolist()
    mod = s ** R
    out = []
    append = out.append
    for x in u:
        a = bisect_right(cuts[ci], x)
        append(a)
        ci = (ci * s + a) % mod
    return np.array(out, dtype=np.int64)


SAMPLER_CHAINS = {
    "order0": lambda: MarkovProcess.from_rows({"": (0.7, 0.2, 0.1)},
                                              alphabet=Alphabet("abc")),
    "order0-thirds": lambda: MarkovProcess.from_rows(
        {"": (F(1, 3), F(1, 3), F(1, 3))}, alphabet=Alphabet("abc")),
    "goldenmean": goldenmean,
    "lopsided": lopsided_chain,
    "order2-binary": markov_r2_uniform,
    "order2-ternary": lambda: MarkovProcess.from_rows(
        {a + b: (F(1, 2), F(1, 3), F(1, 6)) if a + b == "aa"
         else (F(1, 4), F(1, 4), F(1, 2)) for a in "abc" for b in "abc"},
        alphabet=Alphabet("abc")),
}


def random_float_chain(s, order, seed):
    rng = np.random.default_rng(seed)
    kernel = {}
    for c in product(range(s), repeat=order):
        w = rng.random(s)
        kernel[c] = tuple(w / w.sum())
    return MarkovProcess(Alphabet("abcdef"[:s]), order, kernel)


def test_markov_sample_with_many_contexts_matches_bisect_oracle():
    # 216 contexts and about a thousand bins: composed maps would
    # outgrow the steps, so most of the walk goes step by step
    m = random_float_chain(6, 3, seed=3)
    B = processes._BLOCK
    for n in (1, 4097, 20_000, B - 1, B, B + 1, 3 * B + 5):
        got = m.sample(n, np.random.default_rng(n))
        want = bisect_sample_oracle(m, n, np.random.default_rng(n))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_markov_sample_matches_bisect_reference(name, seed):
    model = SAMPLER_CHAINS[name]()
    got = model.sample(3000, np.random.default_rng(seed))
    want = bisect_sample_oracle(model, 3000, np.random.default_rng(seed))
    assert got.dtype == _code_dtype(len(model.alphabet))
    assert np.array_equal(got, want)


@st.composite
def float_chains(draw):
    s = draw(st.integers(1, 3))
    order = draw(st.integers(0, 2))
    kernel = {}
    for c in product(range(s), repeat=order):
        raw = draw(st.lists(st.sampled_from((0.0, 0.1, 0.25, 1 / 3, 0.7, 1.0)),
                            min_size=s, max_size=s))
        if not sum(raw):
            raw[draw(st.integers(0, s - 1))] = 1.0
        kernel[c] = tuple(x / sum(raw) for x in raw)
    try:
        return MarkovProcess(Alphabet("abc"[:s]), order, kernel)
    except ValueError:  # no unique stationary law
        return draw(st.nothing())


@settings(max_examples=80, deadline=None)
@given(m=st.one_of(rational_chains(), float_chains()),
       n=st.sampled_from((1, 2, 3, 1023, 1025, 4097)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_markov_sample_matches_bisect_oracle(m, n, seed):
    _assert_sample_matches_bisect_oracle(m, n, seed)


def _assert_sample_matches_bisect_oracle(m, n, seed):
    got = m.sample(n, np.random.default_rng(seed))
    want = bisect_sample_oracle(m, n, np.random.default_rng(seed))
    assert got.dtype == _code_dtype(len(m.alphabet))
    assert np.array_equal(got, want)
    event(f"order {m.order}, {len(m.alphabet)} letters")


@settings(max_examples=80, deadline=None)
@given(m=st.one_of(rational_chains(), float_chains()),
       n=st.sampled_from((1, 2, 3, 1023, 1025, 4097)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_markov_sample_in_blocks_of_7_matches_bisect_oracle(m, n, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "_BLOCK", 7)
        _assert_sample_matches_bisect_oracle(m, n, seed)


@pytest.mark.parametrize("name", ["goldenmean", "order2-ternary"])
def test_markov_sample_across_block_boundaries(name):
    model = SAMPLER_CHAINS[name]()
    B = processes._BLOCK
    for n in (B - 1, B, B + 1, 3 * B + 5):
        got = model.sample(n, np.random.default_rng(n))
        want = bisect_sample_oracle(model, n, np.random.default_rng(n))
        assert np.array_equal(got, want)


def _bins(model):
    """The sampler's bins on a chain: those cut by the distinct cut
    points of all its rows."""
    cuts = {x for c in model.contexts for x in np.cumsum(
        [float(p) for p in model.kernel[c]])[:-1].tolist()}
    return len(cuts) + 1


def _chunk_steps(model):
    """The sampler's k on a chain of nb bins and m contexts."""
    return processes._chunk_steps(_bins(model), len(model.contexts))


# name -> (chain, its k)
CHUNKED_CHAINS = {
    # one row ends in a cut at exactly 1.0, a bin no uniform reaches
    "goldenmean": (goldenmean, 6),
    "r2": (lambda: MarkovProcess.from_rows({
        "00": (F(4, 5), F(1, 5)), "01": (F(3, 10), F(7, 10)),
        "10": (F(3, 5), F(2, 5)), "11": (F(1, 4), F(3, 4))}), 4),
    "ternary": (SAMPLER_CHAINS["order2-ternary"], 4),
    "ising": (lambda: IsingChainProcess(J=1.0, h=0.3, beta=0.7), 6),
    "one-letter": (lambda: MarkovProcess(Alphabet("a"), 1, {(0,): (F(1),)}),
                   16),
    "order0": (SAMPLER_CHAINS["order0"], 7),
    # 216 contexts: the one-step table is already past the bound
    "216-contexts": (lambda: random_float_chain(6, 3, seed=3), 1),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_CHAINS))
def test_markov_sample_at_chunk_and_block_edges_matches_bisect_oracle(name):
    build, k = CHUNKED_CHAINS[name]
    model = build()
    chain = model.as_markov() if name == "ising" else model
    assert _chunk_steps(chain) == k
    B = processes._BLOCK
    for n in sorted({1, k - 1, k, k + 1, B - 1, B, B + 1} - {0}):
        got = model.sample(n, np.random.default_rng(n))
        want = bisect_sample_oracle(chain, n, np.random.default_rng(n))
        assert got.dtype == _code_dtype(len(model.alphabet))
        assert np.array_equal(got, want), n


NEAR_CYCLE = {"a": (0.0, 1.0, 0.0), "b": (0.0, 0.0, 1.0),
              "c": (0.999, 0.0, 0.001)}


def near_cycle_chain():
    # a -> b -> c -> a, and c -> c once in a thousand steps: most
    # composed maps are the cycle, so a level's maps stay non-constant
    return MarkovProcess.from_rows(NEAR_CYCLE, alphabet=Alphabet("abc"))


@pytest.mark.parametrize("build", [near_cycle_chain,
                                   SAMPLER_CHAINS["order0"]],
                         ids=["near-cycle", "iid"])
def test_sample_over_three_blocks_matches_bisect_oracle_on_both_walks(build):
    # maps that never all become constant, and one context (m = 1),
    # whose maps are constant from the first level
    model = build()
    n = 3 * processes._BLOCK + 5
    got = model.sample(n, np.random.default_rng(n))
    want = bisect_sample_oracle(model, n, np.random.default_rng(n))
    assert np.array_equal(got, want)


def _walk_case(rows, n, seed, start):
    """(maps, n steps drawn through them by a seeded generator, start)."""
    maps = np.array(rows, dtype=np.int64)
    steps = np.random.default_rng(seed).integers(0, len(rows), n)
    return maps, steps, start


@st.composite
def walk_cases(draw):
    """A table of 1–30 maps over 1–12 contexts, each map constant, a
    permutation or random; 1–5000 steps through it; a start."""
    k, m = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(("constant", "permutation", "random")))
        if kind == "constant":
            rows.append([draw(st.integers(0, m - 1))] * m)
        elif kind == "permutation":
            rows.append(draw(st.permutations(range(m))))
        else:
            rows.append(draw(st.lists(st.integers(0, m - 1), min_size=m,
                                      max_size=m)))
    return _walk_case(rows, draw(st.integers(1, 5000)),
                      draw(st.integers(0, 2 ** 32 - 1)),
                      draw(st.integers(0, m - 1)))


# x -> max(x − 1, 0) and x -> max(x − 2, 0) over 9 contexts: every
# composition of 8 steps is constant, some of 4 steps are not
_SHIFTS = [[max(x - d, 0) for x in range(9)] for d in (1, 2)]


@settings(max_examples=200, deadline=None)
@given(case=walk_cases())
@example(case=_walk_case([[2, 2, 2], [0, 0, 0], [1, 1, 1]], 4097, 1, 1))
@example(case=_walk_case([[0]] * 5, 5000, 2, 0))
@example(case=_walk_case([[1, 2, 0], [0, 2, 1], [2, 1, 0]], 4999, 3, 2))
@example(case=_walk_case(_SHIFTS, 4999, 4, 8))
def test_walk_maps_matches_the_step_by_step_oracle(case):
    maps, steps, start = case
    got = processes._walk_maps(steps, maps, maps.tolist(), start)
    assert got.dtype == np.int64
    assert np.array_equal(got, walk_maps_oracle(steps, maps, start))


def test_markov_sample_memory_stays_in_blocks():
    m = goldenmean()
    tracemalloc.start()
    try:
        seq = sample(m, 10 ** 6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.size == 10 ** 6
    # the 8 MB output and one block of scratch
    assert peak < 16 << 20


def fixed_point_int64(subst, n):
    """The fixed-point prefix by the int64 iteration, one image per
    letter in Python."""
    w = [subst.start]
    while len(w) < n:
        w = [b for a in w for b in subst.rules[a]]
    return np.array(w[:n], dtype=np.int64)


def periodic_int64(model, n, rng):
    phase = int(rng.integers(model.period))
    return np.array(model.cycle, dtype=np.int64)[
        (phase + np.arange(n)) % model.period]


def logistic_int64(model, n):
    x, r = model.x0, model.r
    for _ in range(model.burnin):
        x = r * x * (1 - x)
    out = []
    for _ in range(n):
        out.append(0 if x <= 0.5 else 1)
        x = r * x * (1 - x)
    return np.array(out, dtype=np.int64)


def _letters_300_chain():
    rng = np.random.default_rng(300)
    alphabet = Alphabet(f"s{i}" for i in range(300))
    kernel = {}
    for c in range(300):
        w = rng.random(300)
        kernel[(c,)] = tuple(w / w.sum())
    return MarkovProcess(alphabet, 1, kernel)


def _letters_300_substitution():
    # a -> a (a + 1): primitive, every image begins with its letter
    return Substitution(Alphabet(f"s{i}" for i in range(300)),
                        [(a, (a + 1) % 300) for a in range(300)])


# name -> (model, int64 reference of (model, n, rng))
NARROW_SAMPLERS = {
    "rational": (goldenmean, bisect_sample_oracle),
    "float": (lopsided_chain, bisect_sample_oracle),
    "order2": (lambda: SAMPLER_CHAINS["order2-ternary"](),
               bisect_sample_oracle),
    "order2-float": (lambda: random_float_chain(3, 2, seed=5),
                     bisect_sample_oracle),
    "ising": (lambda: IsingChainProcess(J=1.0, h=0.3, beta=0.7),
              lambda m, n, rng: bisect_sample_oracle(m.as_markov(), n, rng)),
    "iid": (lambda: IidProcess.from_probs((0.5, 0.3, 0.2)),
            bisect_sample_oracle),
    "periodic": (lambda: PeriodicProcess.from_string("0011101"),
                 periodic_int64),
    "logistic": (lambda: LogisticSymbolizer(r=3.9, x0=0.4),
                 lambda m, n, rng: logistic_int64(m, n)),
    "tm": (lambda: SubstitutionProcess(thue_morse()),
           lambda m, n, rng: fixed_point_int64(m.substitution, n)),
    "fib": (lambda: SubstitutionProcess(fibonacci()),
            lambda m, n, rng: fixed_point_int64(m.substitution, n)),
    "chain-300": (_letters_300_chain, bisect_sample_oracle),
    "substitution-300": (
        lambda: SubstitutionProcess(_letters_300_substitution()),
        lambda m, n, rng: fixed_point_int64(m.substitution, n)),
}


@pytest.mark.parametrize("name", sorted(NARROW_SAMPLERS))
def test_every_sampler_holds_the_narrowest_type(name):
    build, reference = NARROW_SAMPLERS[name]
    model = build()
    n = 2 * processes._BLOCK + 3
    got = model.sample(n, np.random.default_rng(5))
    want = reference(model, n, np.random.default_rng(5))
    assert got.dtype == _code_dtype(len(model.alphabet))
    assert got.dtype == (np.uint16 if len(model.alphabet) > 256
                         else np.uint8)
    assert want.dtype == np.int64
    assert np.array_equal(got, want)


def _one_step_entries(model):
    """Entries of the sampler's one-step table: bins × contexts."""
    return _bins(model) * len(model.contexts)


def _walks_counted(monkeypatch):
    """Count the sampler's calls of ``_walk_maps``, the table route."""
    calls = []
    walk = processes._walk_maps

    def counted(*args):
        calls.append(1)
        return walk(*args)
    monkeypatch.setattr(processes, "_walk_maps", counted)
    return calls


def test_chain_with_many_cuts_steps_each_symbol_as_the_bisect_oracle(
        monkeypatch):
    # 300 letters: about 9·10^4 bins × 300 contexts, a table of about
    # 2.7·10^7 entries, which the walk of these n steps cannot use
    model = _letters_300_chain()
    assert _one_step_entries(model) > 2 * processes._BLOCK + 3
    calls = _walks_counted(monkeypatch)
    B = processes._BLOCK
    for n in (1, 1000, B - 1, B, B + 1):
        got = model.sample(n, np.random.default_rng(n))
        want = bisect_sample_oracle(model, n, np.random.default_rng(n))
        assert got.dtype == np.uint16
        assert np.array_equal(got, want), n
    assert not calls
    model.sample(10, np.random.default_rng(0))  # warm up
    tracemalloc.start()
    try:
        model.sample(1000, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the m cut rows, as an array and as lists, and one block of
    # uniforms; the one-step table alone is about 1 GB
    assert peak < 8 << 20


def test_chain_steps_each_symbol_only_below_its_table_size(monkeypatch):
    # 216 contexts and about a thousand bins: n steps use the table
    # from n = nb·m on
    model = random_float_chain(6, 3, seed=3)
    entries = _one_step_entries(model)
    calls = _walks_counted(monkeypatch)
    for n, walked in ((entries - 1, False), (entries, True),
                      (entries + 1, True)):
        del calls[:]
        got = model.sample(n, np.random.default_rng(n))
        want = bisect_sample_oracle(model, n, np.random.default_rng(n))
        assert np.array_equal(got, want), n
        assert bool(calls) == walked, n


def _binary_order8_chain(cuts):
    """A binary order-8 float chain whose 256 rows have ``cuts``
    distinct cut points, k/257 for k = 1..cuts, the last repeated."""
    kernel = {}
    for i, c in enumerate(product(range(2), repeat=8)):
        p = min(i + 1, cuts) / 257
        kernel[c] = (p, 1 - p)
    return MarkovProcess(Alphabet("01"), 8, kernel)


@pytest.mark.parametrize("cuts", [
    pytest.param(255, id="255-cuts-compared"),
    pytest.param(256, id="256-cuts-searchsorted"),
])
def test_chain_bins_on_each_side_of_one_byte_match_bisect_oracle(
        cuts, monkeypatch):
    # up to 255 edges a bin fits in a uint8 and is counted by one
    # comparison per edge; past that, by searchsorted
    model = _binary_order8_chain(cuts)
    assert _bins(model) == cuts + 1
    assert _code_dtype(_bins(model)).itemsize == (1 if cuts == 255 else 2)
    calls = _walks_counted(monkeypatch)
    n = _one_step_entries(model) + 3  # past it, the walk uses the table
    got = model.sample(n, np.random.default_rng(cuts))
    want = bisect_sample_oracle(model, n, np.random.default_rng(cuts))
    assert calls
    assert np.array_equal(got, want)


@pytest.mark.parametrize("subst", [thue_morse, fibonacci],
                         ids=["tm", "fib"])
def test_fixed_point_array_in_blocks_of_7_matches_int64_iteration(subst,
                                                                  monkeypatch):
    monkeypatch.setattr(substitution, "_BLOCK", 7)
    for n in (0, 1, 2, 6, 7, 8, 13, 14, 15, 1000):
        got = fixed_point_array(subst(), n)
        assert got.size == n
        assert np.array_equal(got, fixed_point_int64(subst(), n))


@pytest.mark.parametrize("name", ["rational", "tm", "fib", "periodic"])
def test_sample_memory_holds_one_narrow_sequence(name):
    # the 1 MB uint8 output, one block of scratch, and for a fixed
    # point the round before the last; an int64 sequence alone is 7.6 MiB
    model = NARROW_SAMPLERS[name][0]()
    tracemalloc.start()
    try:
        seq = sample(model, 10 ** 6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.size == 10 ** 6
    assert peak < 6 << 20


class _FixedDraws:
    """Generator stand-in returning chosen uniforms, cut points
    included, each one once, in order."""

    def __init__(self, first, draws):
        self.first, self.draws = first, list(draws)

    def random(self, size=None):
        if size is None:
            return self.first
        taken, self.draws = self.draws[:size], self.draws[size:]
        assert len(taken) == size, "more uniforms asked for than given"
        return np.array(taken)


def test_markov_sample_matches_reference_at_cut_points(monkeypatch):
    # cumsum(0.7, 0.2, 0.1) ends at 0.9999999999999999: draws above it
    # take the clamp to the last symbol
    model = SAMPLER_CHAINS["order0"]()
    top = math.nextafter(1.0, 0.0)
    draws = [0.0, 0.7, math.nextafter(0.7, 0.0), 0.9, 0.8999999999999999,
             0.9999999999999999, top, 0.5, 0.25, 1 / 3]
    # in one block, and in blocks of 3 (the last one a single step)
    for block in (processes._BLOCK, 3):
        monkeypatch.setattr(processes, "_BLOCK", block)
        for chain in (model, markov_r2_uniform(),
                      SAMPLER_CHAINS["order2-ternary"]()):
            for first in (0.0, 0.5, top):
                got = chain.sample(len(draws), _FixedDraws(first, draws))
                want = bisect_sample_oracle(chain, len(draws),
                                            _FixedDraws(first, draws))
                assert got.tolist() == want.tolist()
    assert model.sample(2, _FixedDraws(0.0, [top, 0.9999999999999999])).tolist() \
        == [2, 2]


def test_markov_refuses_a_negative_order_and_unknown_contexts():
    half = (F(1, 2), F(1, 2))
    with pytest.raises(ValueError) as e:
        MarkovProcess(Alphabet("01"), -1, {})
    assert str(e.value) == "order must be >= 0"
    with pytest.raises(ValueError) as e:
        MarkovProcess(Alphabet("01"), 0, {(): half, (0,): half})
    assert str(e.value) == "kernel has rows for unknown contexts"


def test_markov_rejects_bad_rows():
    with pytest.raises(ValueError):
        MarkovProcess.from_rows({"0": (F(1, 2), F(1, 3)), "1": (F(1), F(0))})
    with pytest.raises(ValueError):
        MarkovProcess.from_rows({"0": (F(1, 2), F(1, 2))})  # missing context


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("rows", [
    {"0": (1, 0), "1": (0, 1)},
    # states 0 and 2 absorb, 1 is transient
    {"0": (1, 0, 0), "1": (F(1, 2), 0, F(1, 2)), "2": (0, 0, 1)},
])
def test_chain_with_two_closed_classes_is_refused(rows, exact):
    kind = F if exact else float
    with pytest.raises(ValueError,
                       match="^stationary distribution is not unique$"):
        MarkovProcess.from_rows({c: tuple(map(kind, row))
                                 for c, row in rows.items()})


def test_chain_with_one_closed_class_and_a_transient_state():
    rows = {"0": (F(1, 2), F(1, 2), 0), "1": (F(1, 4), F(3, 4), 0),
            "2": (F(1, 3), F(1, 3), F(1, 3))}
    exact = MarkovProcess.from_rows(rows)
    assert exact.stationary == (F(1, 3), F(2, 3), 0)
    flt = MarkovProcess.from_rows({c: tuple(map(float, row))
                                   for c, row in rows.items()})
    assert all(abs(x - y) <= 1e-12
               for x, y in zip(flt.stationary, exact.stationary))


def table1_r2() -> MarkovProcess:
    return MarkovProcess.from_rows(
        {"00": (F(4, 5), F(1, 5)), "01": (F(3, 10), F(7, 10)),
         "10": (F(3, 5), F(2, 5)), "11": (F(1, 4), F(3, 4))})


def test_closed_forms_and_reversal_build_no_block_table(monkeypatch):
    chains = [goldenmean(), table1_r2(), ternary_r2(),
              IidProcess.from_probs((F(3, 10), F(7, 10)))]
    want = [block_table_closed_forms(m) for m in chains]
    ising = IsingChainProcess(J=1.0, h=0.3, beta=0.7)
    cycle = PeriodicProcess.from_string("00111")

    def refuse(*args):
        raise AssertionError("a block table was built")

    monkeypatch.setattr(MarkovProcess, "_extend", refuse)
    monkeypatch.setattr(MarkovProcess, "block_distribution", refuse)
    monkeypatch.setattr(PeriodicProcess, "block_distribution", refuse)
    for m, w in zip(chains, want):
        cf = closed_forms(m)
        assert {k: getattr(cf, k) for k in w} == w
        reversed_model(m)
    assert closed_forms(ising) == two_point_ising_closed_forms(1.0, 0.3, 0.7)
    reversed_model(ising)
    assert closed_forms(cycle).excess_entropy == log2_of(5)
    assert reversed_model(cycle).process is cycle


@pytest.mark.parametrize("chain, calls", [
    (IsingChainProcess(J=1.0, h=0.3, beta=0.7), 1),
    (IsingChainProcess(J=-1.0, h=0.0, beta=2.0), 1),
    (table1_r2(), 2),
    (MarkovProcess.from_rows({"0": (F(1, 2), F(1, 2)), "1": (F(1), F(0))}), 2),
])
def test_a_chain_that_is_its_own_reversal_is_partitioned_once(
        monkeypatch, chain, calls):
    seen = []
    partition = processes._causal_state_masses

    def count(rows, masses):
        seen.append(rows)
        return partition(rows, masses)

    monkeypatch.setattr(processes, "_causal_state_masses", count)
    cf = closed_forms(chain)
    assert len(seen) == calls
    if calls == 1:
        assert cf.complexity_minus == cf.complexity_plus


def test_markov_order_zero_is_iid():
    m = MarkovProcess.from_rows({"": (F(1, 4), F(3, 4))})
    assert m.order == 0
    d = block_distribution(m, 2)
    assert d.probs[(0, 1)] == F(3, 16)
    assert mutual_information(joint_gap_distribution(m, 1, 0)) == 0


def test_reversed_goldenmean_is_itself():
    # stationary two-state chains are reversible
    m = goldenmean()
    r = reversed_model(m)
    for L in range(1, 6):
        assert block_distribution(r, L).probs == block_distribution(m, L).probs
    assert reconstruct(r, 1, 2).transitions == reconstruct(m, 1, 2).transitions


def test_reversed_markov_blocks_are_mirrored():
    # a float chain's weights bit for bit, an exact one's over the
    # forward denominator
    for m in (markov_r2_uniform(), ternary_r2(), float_twin(ternary_r2()),
              lopsided_chain()):
        r = reversed_model(m)
        for L in range(1, 5):
            fwd, rev = block_distribution(m, L), block_distribution(r, L)
            assert rev.denominator == fwd.denominator
            assert rev.weights == {w[::-1]: p
                                   for w, p in fwd.weights.items()}


def test_reversed_periodic_reverses_cycle():
    m = PeriodicProcess.from_string("001")
    r = reversed_model(m)
    fwd = block_distribution(m, 3)
    rev = block_distribution(r, 3)
    for w, p in fwd.probs.items():
        assert rev.probs[tuple(reversed(w))] == p


# ── Ising chain ─────────────────────────────────────────────────────


def ising_entropy_rate(J: float, h: float, beta: float):
    """The chain's entropy rate in bits per spin, from its closed forms."""
    return IsingChainProcess(J, h, beta).closed_forms().entropy_rate


def test_ising_entropy_rate_limits():
    assert ising_entropy_rate(J=1.0, h=0.0, beta=1e-9) == pytest.approx(
        1.0, abs=1e-6)
    assert ising_entropy_rate(J=0.0, h=0.0, beta=2.7) == pytest.approx(1.0)


def test_ising_entropy_rate_zero_field_formula():
    # h=0 collapses to ln(2 cosh bJ) - bJ tanh(bJ), in bits
    for J, beta in [(1.0, 0.5), (1.0, 2.0), (0.7, 1.3)]:
        bj = beta * J
        expected = (math.log(2 * math.cosh(bj)) - bj * math.tanh(bj)) / math.log(2)
        assert ising_entropy_rate(J=J, h=0.0, beta=beta) == pytest.approx(
            expected, abs=1e-12)


def test_ising_rate_matches_conditional_entropy_of_induced_chain():
    for J, h, beta in [(1, 0, 0.5), (1, 0.3, 0.7), (0.5, -0.2, 1.3)]:
        m = IsingChainProcess(J=J, h=h, beta=beta)
        chain = m.as_markov()
        pi = chain.stationary
        cond = sum(float(pi[i])
                   * -sum(p * math.log2(p) for p in chain.kernel[(i,)] if p > 0)
                   for i in range(2))
        assert ising_entropy_rate(J=J, h=h, beta=beta) == pytest.approx(
            cond, abs=1e-9)


def test_ising_high_temperature_blocks():
    m = IsingChainProcess(J=1.0, h=0.0, beta=1e-9)
    d = block_distribution(m, 1)
    assert not d.exact
    assert d.probs[(0,)] == pytest.approx(0.5, abs=1e-8)
    cf = closed_forms(m)
    assert float(cf.excess_entropy) <= 1e-6
    assert cf.pmi == 0


def test_ising_closed_forms_decomposition():
    m = IsingChainProcess(J=1.0, h=0.0, beta=0.5)
    cf = closed_forms(m)
    h1 = float(shannon_entropy(block_distribution(m, 1)))
    assert float(cf.excess_entropy) == pytest.approx(
        h1 - float(cf.entropy_rate), abs=1e-12)
    assert float(cf.complexity_plus) == pytest.approx(h1, abs=1e-12)
    assert cf.efficiency == pytest.approx(1 - float(cf.entropy_rate) / h1)


def test_ising_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        ising_entropy_rate(J=1.0, h=0.0, beta=0.0)
    with pytest.raises(ValueError):
        IsingChainProcess(J=1.0, h=0.0, beta=-1.0)


def eigh_ising_kernel_oracle(m):
    """Reference kernel and stationary law of the Ising chain from a
    numerical eigendecomposition of the transfer matrix
    V(s, s') = exp(beta (J s s' + h (s + s')/2))."""
    spins = (-1.0, 1.0)
    V = np.array([[math.exp(m.beta * (m.J * s * t + m.h * (s + t) / 2))
                   for t in spins] for s in spins])
    vals, vecs = np.linalg.eigh(V)
    r = vecs[:, -1]
    if r[0] < 0:
        r = -r
    lam = float(vals[-1])
    rows = [[V[i, j] * r[j] / (lam * r[i]) for j in range(2)]
            for i in range(2)]
    return rows, r ** 2 / (r ** 2).sum()


@pytest.mark.parametrize("J", [1.0, 0.5, -1.0])
@pytest.mark.parametrize("h", [0.0, 0.3, -0.7, 1.5])
@pytest.mark.parametrize("beta", [0.01, 0.5, 0.7, 2.0, 10.0])
def test_ising_kernel_matches_eigh_oracle(J, h, beta):
    m = IsingChainProcess(J=J, h=h, beta=beta)
    chain = m.as_markov()
    rows, pi = eigh_ising_kernel_oracle(m)
    for i in range(2):
        for j in range(2):
            assert abs(chain.kernel[(i,)][j] - rows[i][j]) <= 1e-12
        assert abs(chain.stationary[i] - pi[i]) <= 1e-12


@pytest.mark.parametrize("h", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("beta", [20.0, 50.0, 100.0, 300.0])
def test_ising_kernel_is_finite_at_low_temperature(h, beta):
    chain = IsingChainProcess(J=1.0, h=h, beta=beta).as_markov()
    for row in chain.kernel.values():
        assert all(math.isfinite(x) and x >= 0 for x in row)
        assert abs(sum(row) - 1.0) <= 1e-12
    assert abs(sum(chain.stationary) - 1.0) <= 1e-12
    d = block_distribution(IsingChainProcess(J=1.0, h=h, beta=beta), 3)
    assert abs(math.fsum(d.probs.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("J", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("h", [0.0, 0.3])
def test_ising_law_is_stationary_over_the_temperature_range(J, h):
    # the closed-form law is not checked when the chain is built: it
    # must hold from beta = 0.01 up to where b = V(-,+) underflows
    betas = 0
    for beta in np.geomspace(0.01, 1e4, 200).tolist():
        logs = (beta * (J - h), -beta * J, beta * (J + h))
        if math.exp(logs[1] - max(logs)) == 0:
            break
        m = IsingChainProcess(J=J, h=h, beta=beta)
        pi = m.stationary
        for j in (0, 1):
            flow = math.fsum(pi[i] * m.kernel[(i,)][j] for i in (0, 1))
            assert abs(flow - pi[j]) <= 1e-12, beta
        betas += 1
    assert betas >= 150


def test_ising_chain_is_built_once():
    m = IsingChainProcess(J=1.0, h=0.3, beta=0.7)
    assert m.as_markov() is m.as_markov()


def test_ising_process_is_its_own_chain():
    m = IsingChainProcess(J=1.0, h=0.3, beta=0.7)
    assert isinstance(m, MarkovProcess) and m.as_markov() is m
    rows, pi = processes._ising_chain(1.0, 0.3, 0.7)
    chain = ChainWithLaw(Alphabet(("-1", "+1")), 1,
                         {(0,): rows[0], (1,): rows[1]}, pi)
    assert m.alphabet.symbols == chain.alphabet.symbols
    for L in range(1, 7):
        assert block_distribution(m, L).probs == \
            block_distribution(chain, L).probs
    for L, g in [(1, 0), (2, 4), (3, 64), (4, 1000)]:
        assert joint_gap_distribution(m, L, g).probs == \
            joint_gap_distribution(chain, L, g).probs
    for seed in (1, 2, 3):
        assert np.array_equal(sample(m, 5000, seed=seed),
                              sample(chain, 5000, seed=seed))


def zero_field_rate_bits(x: float) -> float:
    """ln(2 cosh x) - x tanh x in bits, written without overflow:
    the h = 0 entropy rate at x = beta J."""
    e = math.exp(-2 * x)
    return (math.log1p(e) + 2 * x * e / (1 + e)) / math.log(2)


@pytest.mark.parametrize("h,beta,T", [(0.3, 500.0, "0.002"),
                                      (0.3, 333.0, "0.003003"),
                                      (0.0, 2000.0, "0.0005")])
def test_ising_entropy_rate_overflow_names_the_temperature(h, beta, T):
    # the transfer-matrix form overflowed here (past 2 beta (|J| + |h|)
    # ~ 709) and was refused; the rate from the chain's rows is finite
    assert f"{1 / beta:g}" == T
    rate = ising_entropy_rate(J=1.0, h=h, beta=beta)
    assert math.isfinite(rate) and 0 <= rate < 1e-200
    if h == 0:
        assert rate == zero_field_rate_bits(beta)


def test_ising_entropy_rate_does_not_cancel_at_low_temperature():
    # the rate from ln lambda_1 - (beta / lambda_1) dlambda_1/dbeta gave
    # 4.1e-14 here, where the true rate is below 1e-40
    assert 0 <= ising_entropy_rate(J=1.0, h=0.3, beta=1 / 0.0055) < 1e-40
    for J, beta in [(1.0, 10.0), (1.0, 30.0), (0.5, 40.0)]:
        assert ising_entropy_rate(J=J, h=0.0, beta=beta) == pytest.approx(
            zero_field_rate_bits(beta * J), rel=1e-12)
    # E = H(1) - h stays within [0, H(1)] where the spin law is a near
    # point mass and 1 - P(-1) rounds to 1
    for T in np.geomspace(0.004, 0.35, 15):
        cf = closed_forms(IsingChainProcess(J=1.0, h=0.3, beta=1 / T))
        H1 = cf.complexity_plus
        assert 0 <= cf.entropy_rate <= H1
        assert 0 <= cf.excess_entropy <= H1


def test_ising_closed_forms_equal_two_point_oracle():
    # beta·|J| reaches 4000, where the rows round to a permutation or
    # to the identity
    for J, h, beta in product((1.0, -1.0, 0.5, -2.0), (0.0, 0.3, -0.7, 1.5),
                              (0.01, 0.5, 2.0, 10.0, 100.0, 400.0, 800.0,
                               2000.0)):
        assert closed_forms(IsingChainProcess(J=J, h=h, beta=beta)) == \
            two_point_ising_closed_forms(J, h, beta), (J, h, beta)


@pytest.mark.parametrize("h", [0.0, 0.3, -0.7, 1.5])
@pytest.mark.parametrize("beta", [0.01, 2 ** -0.5, 1.0, 10.0, 100.0])
def test_ising_chain_without_coupling_is_iid(h, beta):
    cf = closed_forms(IsingChainProcess(J=0.0, h=h, beta=beta))
    assert cf.complexity_plus == cf.complexity_minus == 0
    assert cf.efficiency == 0
    site = (1 / (1 + math.exp(2 * beta * h)), 1 / (1 + math.exp(-2 * beta * h)))
    iid = closed_forms(IidProcess.from_probs(site))
    assert abs(cf.entropy_rate - iid.entropy_rate) <= 1e-15


@pytest.mark.parametrize("J,h", [(math.nan, 0.0), (1.0, math.inf),
                                 (-math.inf, 0.3)])
def test_ising_refuses_a_coupling_that_is_not_finite(J, h):
    with pytest.raises(ValueError, match="finite"):
        IsingChainProcess(J=J, h=h, beta=1.0)


@pytest.mark.parametrize("J,h,beta", [
    (1.0, 1e308, 2.0), (1e308, -1e308, 1.0), (1e200, 0.0, 1e200),
    (np.float64(1e200), np.float64(0.3), np.float64(1e200))])
def test_ising_refuses_energies_that_overflow(J, h, beta):
    # by name, and before a NumPy scalar could warn of the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^beta·\(\|J\|\+\|h\|\) "
                           r"overflows: J=.*, h=.*, beta="):
            IsingChainProcess(J=J, h=h, beta=beta)


def test_ising_joint_symmetric_at_zero_field():
    m = IsingChainProcess(J=1.0, h=0.0, beta=0.8)
    j = joint_gap_distribution(m, 1, 0)
    assert j.probs[((0,), (1,))] == pytest.approx(j.probs[((1,), (0,))],
                                                 abs=1e-14)
    r = reversed_model(m)
    assert isinstance(r, IsingChainProcess) and r.beta == m.beta


# ── logistic map symbolization ──────────────────────────────────────


@pytest.mark.parametrize("make, message", [
    (lambda: PeriodicProcess(Alphabet("01"), ()), "cycle must be nonempty"),
    (lambda: PeriodicProcess(Alphabet("01"), (0, 2)),
     "cycle uses a symbol outside the alphabet"),
    (lambda: PeriodicProcess(Alphabet("01"), (0, 1, 0, 1)),
     "cycle of length 4 has a smaller period"),
    (lambda: LogisticSymbolizer(r=4.5, x0=0.4), r"r must lie in \[0, 4\]"),
    (lambda: LogisticSymbolizer(r=3.9, x0=-0.1),
     r"x0 must lie in \[0, 1\]"),
    (lambda: LogisticSymbolizer(r=3.9, x0=0.4, burnin=-1),
     "burn-in must be >= 0"),
])
def test_model_fields_are_checked_at_construction(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_logistic_322_band_symbolizes_constant():
    # 2-cycle at r=3.2 is {0.5130, 0.7995}: both above threshold
    m = LogisticSymbolizer(r=3.2, x0=0.41)
    seq = sample(m, 64, seed=0)
    assert set(seq.tolist()) == {1}


def test_logistic_34_band_symbolizes_alternating():
    # 2-cycle at r=3.4 is {0.4520, 0.8422}: straddles the threshold
    m = LogisticSymbolizer(r=3.4, x0=0.41)
    seq = sample(m, 64, seed=0).tolist()
    assert seq == [seq[0], 1 - seq[0]] * 32


def test_logistic_chaotic_regime_uses_both_symbols():
    m = LogisticSymbolizer(r=4.0, x0=0.2345)
    seq = sample(m, 4096, seed=0)
    counts = np.bincount(seq, minlength=2)
    assert counts.min() > 1000


# ── substitution processes ──────────────────────────────────────────


def test_substitution_blocks_are_factor_frequencies():
    m = SubstitutionProcess(thue_morse())
    d = block_distribution(m, 2)
    enc = m.alphabet.encode
    assert d.probs == {enc("00"): F(1, 6), enc("01"): F(1, 3),
                       enc("10"): F(1, 3), enc("11"): F(1, 6)}
    d5 = block_distribution(m, 5)
    assert set(d5.probs.values()) == {F(1, 12)}


def test_substitution_joint_marginals():
    m = SubstitutionProcess(thue_morse())
    j = joint_gap_distribution(m, 2, 1)
    assert left_marginal(j).probs == block_distribution(m, 2).probs
    assert right_marginal(j).probs == block_distribution(m, 2).probs


def _summed_window_law(window_probs, L, g):
    """Joint law of (w[:L], w[L+g:]) from a window law, summed by hand."""
    out: dict = {}
    for w, p in window_probs:
        key = (w[:L], w[L + g:])
        out[key] = out.get(key, 0) + p
    return out


def _assert_same_law(got, want, exact):
    assert got.keys() == want.keys()
    if exact:
        assert got == want
    else:
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
def test_substitution_gap_laws_match_marginalized_windows(L):
    # against the whole length-(2L+g) window law, marginalized
    for subst, exact in ((thue_morse(), True), (fibonacci(), False)):
        m = SubstitutionProcess(subst)
        for g in (0, 1, 2, 7, 31, 64, 255, 256):
            got = joint_gap_distribution(m, L, g)
            want = marginalize_gap(block_distribution(m, 2 * L + g), L, g)
            assert got.exact == want.exact == exact
            _assert_same_law(dict(got.probs), dict(want.probs), exact)


def test_substitution_gap_laws_match_induced_perron_oracle():
    # window laws from the Perron vector of the substitution induced on
    # length-n factors, n = 2L + g <= 16
    for subst, exact in ((thue_morse(), True), (fibonacci(), False)):
        m = SubstitutionProcess(subst)
        for n in range(2, 17):
            induced = induced_substitution(subst, n)
            v = primitivity(composition_matrix(induced)).eigenvector
            words = [subst.alphabet.encode(label)
                     for label in induced.alphabet.symbols]
            for L in range(1, n // 2 + 1):
                g = n - 2 * L
                want = _summed_window_law(zip(words, v), L, g)
                got = dict(joint_gap_distribution(m, L, g).probs)
                _assert_same_law(got, want, exact)


def _clear_substitution_memos():
    for memo in (substitution._letter_perron, substitution._pair_perron,
                 substitution.shortcut_power, substitution._pair_factors,
                 substitution.factors_of_length, substitution._pair_images):
        memo.cache_clear()


def _counted_solves(monkeypatch) -> list:
    solved = []
    solve = substitution.rational_nullspace

    def counted(rows):
        solved.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(substitution, "rational_nullspace", counted)
    return solved


def test_substitution_perron_systems_are_solved_once(monkeypatch):
    solved = _counted_solves(monkeypatch)
    tm = SubstitutionProcess(thue_morse())
    per_grid = []
    for L_grid, g_grid in (((1,), (2,)), ((1, 2, 3, 4, 5), (2, 4, 8, 16))):
        _clear_substitution_memos()
        solved.clear()
        gap_mi_grid(tm, L_grid, g_grid)
        per_grid.append(sorted(solved))
    # one pair system (4 x 4), whatever the grid; the letter check
    # solves nothing, and a solve per cell made 40 for the larger grid
    assert per_grid[0] == per_grid[1] == [4]


def test_substitution_pair_images_are_built_once_per_power():
    tm = SubstitutionProcess(thue_morse())
    L_grid, g_grid = (1, 2, 3, 4, 5), (2, 4, 8, 16)
    # the pair system reads power 1; the 20 cells, of widths 2L + g from
    # 4 to 26, read the least power with 2**p >= 2L + g - 1: 2 to 5
    power = substitution.shortcut_power
    powers = {1} | {power(tm.substitution, 2 * L + g)
                    for L in L_grid for g in g_grid}
    assert powers == {1, 2, 3, 4, 5}
    _clear_substitution_memos()
    for _ in range(2):
        grid = gap_mi_grid(tm, L_grid, g_grid)
        assert not grid.missing
        built = substitution._pair_images.cache_info()
        assert built.misses == built.currsize == len(powers)


def test_factor_tables_solve_one_perron_system(monkeypatch):
    # the letter and pair tables are read through the pair-window count
    # like every longer one, so all of them share the pair system
    solved = _counted_solves(monkeypatch)
    _clear_substitution_memos()
    for l in (1, 2, 5):
        factor_frequencies(thue_morse(), l)
    SubstitutionProcess(thue_morse()).block_distribution(1)
    assert solved == [4]


def test_fibonacci_pair_table_is_iterated_once(monkeypatch):
    solved = _counted_solves(monkeypatch)
    _clear_substitution_memos()
    first = factor_frequencies(fibonacci(), 2)
    assert solved
    solved.clear()
    second = factor_frequencies(fibonacci(), 2)
    assert all(isinstance(p, float) for p in first.freq.values())
    assert first == second
    assert solved == []


def test_thue_morse_pmi_diverges_out_to_long_gaps():
    grid = gap_mi_grid(SubstitutionProcess(thue_morse()), (2, 3, 4),
                       (1024, 2048, 4088))
    assert not grid.missing and grid.exact
    assert pmi_verdict(grid).verdict.kind == "diverging"


def test_long_thue_morse_gap_cell_builds_no_long_words():
    # a whole-window law, every length-2056 factor as a tuple, peaks
    # near 195 MB here
    m = SubstitutionProcess(thue_morse())
    tracemalloc.start()
    try:
        j = joint_gap_distribution(m, 4, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert left_marginal(j).probs == block_distribution(m, 4).probs
    assert right_marginal(j).probs == block_distribution(m, 4).probs


def test_substitution_window_cap(monkeypatch):
    import persistinfo.substitution as substitution

    def no_scan(*args):
        raise AssertionError("factors enumerated before the cap check")

    monkeypatch.setattr(substitution, "factors_of_length", no_scan)
    for subst in (thue_morse(), fibonacci()):
        m = SubstitutionProcess(subst)
        with pytest.raises(WindowCapError):
            joint_gap_distribution(m, 8, 8192)  # window length 8208
    # Thue-Morse windows reach 4096, Fibonacci windows 3789
    with pytest.raises(WindowCapError):
        block_distribution(SubstitutionProcess(thue_morse()), 4097)
    with pytest.raises(WindowCapError):
        block_distribution(SubstitutionProcess(fibonacci()), 3790)
    assert WINDOW_STATE_CAP == 1 << 26


def test_fibonacci_gap_cell_refusal_names_the_window():
    with pytest.raises(WindowCapError) as refusal:
        SubstitutionProcess(fibonacci()).gap_mutual_information(4, 4088)
    assert str(refusal.value) == (
        "window of length 4096 may have up to 17711 factors, 72544256"
        " letters in all; cap is 2**26")


@pytest.mark.parametrize("subst", [thue_morse, fibonacci], ids=["tm", "fib"])
def test_substitution_reverse_machines_decompose(subst):
    # the reversal of the stationary shift is its block law read backwards
    m = SubstitutionProcess(subst())
    Es = []
    for R in (3, 4, 5):
        fwd = reconstruct(m, R, R + 2)
        rev = reconstruct(reversed_model(m), R, R + 2)
        Es.append(complexity_decomposition(fwd, rev, m)[0])
    if subst is thue_morse:
        assert Es == [LOG2_3 - F(1, 3), LOG2_3 + F(1, 2), LOG2_3 + F(5, 6)]


def test_substitution_closed_forms_parity_row():
    cf = closed_forms(SubstitutionProcess(thue_morse()))
    assert cf.entropy_rate == 0
    assert cf.excess_entropy == math.inf
    assert cf.complexity_plus == math.inf
    assert cf.pmi == math.inf
    assert cf.efficiency is None


def test_substitution_without_closed_form():
    with pytest.raises(ClosedFormUnavailable):
        closed_forms(SubstitutionProcess(fibonacci()))


def test_substitution_sample_is_fixed_point_prefix():
    m = SubstitutionProcess(thue_morse())
    seq = sample(m, 12, seed=5)
    assert m.alphabet.decode(seq) == "011010011001"


# ── cross-model invariants ──────────────────────────────────────────


@pytest.mark.parametrize("make", [
    lambda: PeriodicProcess.from_string("011"),
    goldenmean,
    markov_r2_uniform,
    lambda: IidProcess.from_probs((F(3, 10), F(7, 10))),
    lambda: SubstitutionProcess(thue_morse()),
])
def test_joint_marginals_equal_blocks_exactly(make):
    m = make()
    j = joint_gap_distribution(m, 2, 2)
    b = block_distribution(m, 2)
    assert left_marginal(j).probs == b.probs
    assert right_marginal(j).probs == b.probs


@pytest.mark.parametrize("make", [
    lambda: PeriodicProcess.from_string("011"),
    goldenmean,
    lambda: IidProcess.from_probs((F(3, 10), F(7, 10))),
])
def test_closed_form_inequality_chain(make):
    cf = closed_forms(make())
    assert float(cf.pmi) <= float(cf.excess_entropy) + 1e-9
    assert float(cf.excess_entropy) <= float(cf.complexity_plus) + 1e-9
    if cf.efficiency is not None:
        assert -1e-9 <= float(cf.efficiency) <= 1 + 1e-9


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 9), b=st.integers(1, 9), g=st.integers(0, 6))
def test_random_binary_chain_joint_invariants(a, b, g):
    m = MarkovProcess.from_rows({
        "0": (F(a, 10), F(10 - a, 10)),
        "1": (F(b, 10), F(10 - b, 10)),
    })
    j = joint_gap_distribution(m, 1, g)
    assert sum(j.probs.values()) == 1
    assert left_marginal(j).probs == block_distribution(m, 1).probs
    assert float(mutual_information(j)) >= -1e-12


@settings(max_examples=20, deadline=None)
@given(a=st.integers(1, 9), b=st.integers(1, 9))
def test_random_binary_chain_mi_monotone_in_gap(a, b):
    m = MarkovProcess.from_rows({
        "0": (F(a, 10), F(10 - a, 10)),
        "1": (F(b, 10), F(10 - b, 10)),
    })
    vals = [float(mutual_information(joint_gap_distribution(m, 1, g)))
            for g in range(5)]
    for x, y in zip(vals, vals[1:]):
        assert y <= x + 1e-12


@pytest.mark.parametrize("subst", [thue_morse, fibonacci], ids=["tm", "fib"])
def test_substitution_block_entropies_build_no_word_table(subst, monkeypatch):
    m = SubstitutionProcess(subst())
    Ls = (1, 2, 3, 5, 64)
    want = [shannon_entropy(m.block_distribution(L)) for L in Ls]

    def no_table(self, L):
        raise AssertionError("block_entropies built a word table")

    monkeypatch.setattr(SubstitutionProcess, "block_distribution", no_table)
    assert m.block_entropies(Ls) == want
    with pytest.raises(ValueError, match="block length must be >= 1"):
        m.block_entropies([2, 0])

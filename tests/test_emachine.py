"""Oracle tests for causal-state machine reconstruction.

State partitions, statistical complexities, and the causal-state
mutual informations below were derived by hand (history partition by
conditional future laws, then entropies over the joint state law)
before the module was written.
"""

import re
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from oracles import WindowOracle, machine_block_distribution

from persistinfo.emachine import (
    IDENTITY_TOL,
    MERGE_TOL,
    EpsilonMachine,
    NonUnifilarError,
    complexity_decomposition,
    machine_excess_entropy,
    reconstruct,
)
from persistinfo.infocore import (
    BlockDistribution,
    ExactBits,
    WindowCapError,
)
from persistinfo.processes import (
    IidProcess,
    IsingChainProcess,
    MarkovProcess,
    PeriodicProcess,
    SubstitutionProcess,
    closed_forms,
    reversed_model,
)
from persistinfo.sequence import Alphabet
from persistinfo.substitution import thue_morse

LOG2_3 = ExactBits(F(0), {3: F(1)})

# golden mean: C_P = H(2/3, 1/3) = log2(3) - 2/3, E = log2(3) - 4/3
GM_CP = ExactBits(F(-2, 3), {3: F(1)})
GM_E = ExactBits(F(-4, 3), {3: F(1)})

# order-2 uniform-pair chain: 3 causal states with law (1/4, 1/2, 1/4),
# C_P = 3/2, E = (3/4)log2(3) - 1 (brute-force joint cross-checked)
R2_E = ExactBits(F(-1), {3: F(3, 4)})


def goldenmean() -> MarkovProcess:
    return MarkovProcess.from_rows(
        {"0": (F(1, 2), F(1, 2)), "1": (F(1), F(0))})


def markov_r2_uniform() -> MarkovProcess:
    return MarkovProcess.from_rows({
        "00": (F(3, 4), F(1, 4)),
        "01": (F(1, 2), F(1, 2)),
        "10": (F(1, 4), F(3, 4)),
        "11": (F(1, 2), F(1, 2)),
    })


# ── iid: a single causal state ────────────────────────────────────────────────


def test_iid_machine_single_state():
    coin = IidProcess.from_probs([F(1, 2), F(1, 2)])
    m = reconstruct(coin, 2, 2)
    assert len(m.states) == 1
    assert m.state_probs == (F(1),)
    assert m.complexity == 0
    assert m.transitions == {(0, 0): (0, F(1, 2)), (0, 1): (0, F(1, 2))}


def test_iid_biased_machine_and_excess_entropy():
    biased = IidProcess.from_probs([F(3, 4), F(1, 4)])
    m = reconstruct(biased, 1, 2)
    assert len(m.states) == 1
    assert machine_excess_entropy(m, biased) == 0


def test_iid_machine_blocks_match_model():
    coin = IidProcess.from_probs([F(1, 2), F(1, 2)])
    m = reconstruct(coin, 2, 2)
    for L in (1, 2):
        assert machine_block_distribution(m, L).probs == \
            coin.block_distribution(L).probs


# ── periodic cycles: p phase states, C_P = log2(p) ───────────────────────────


def test_period3_machine_states_and_complexity():
    p3 = PeriodicProcess.from_string("011")
    m = reconstruct(p3, 3, 3)
    assert len(m.states) == 3
    assert sorted(m.state_probs) == [F(1, 3)] * 3
    assert m.complexity == LOG2_3
    # deterministic output: every state has exactly one outgoing edge
    outgoing = {}
    for (i, a), (j, p) in m.transitions.items():
        assert p == 1
        assert i not in outgoing
        outgoing[i] = (a, j)
    assert len(outgoing) == 3


def test_period3_machine_is_refinement_stable():
    p3 = PeriodicProcess.from_string("011")
    m4 = reconstruct(p3, 4, 4)
    assert len(m4.states) == 3
    assert m4.complexity == LOG2_3


def test_period3_excess_entropy_and_decomposition():
    p3 = PeriodicProcess.from_string("011")
    fwd = reconstruct(p3, 3, 3)
    assert machine_excess_entropy(fwd, p3) == LOG2_3
    rev = reconstruct(reversed_model(p3), 3, 3)
    E, h_fwd_given_rev, h_rev_given_fwd = complexity_decomposition(
        fwd, rev, p3)
    assert E == LOG2_3
    assert h_fwd_given_rev == 0
    assert h_rev_given_fwd == 0


def test_period4_short_future_is_non_unifilar():
    # futures of length 1 conflate phases whose successors then split
    p4 = PeriodicProcess.from_string("0011")
    with pytest.raises(NonUnifilarError):
        reconstruct(p4, 2, 1)
    m = reconstruct(p4, 2, 2)
    assert len(m.states) == 4
    assert m.complexity == F(2)


# ── golden mean: two states, one forbidden transition ────────────────────────


def test_goldenmean_machine_structure():
    m = reconstruct(goldenmean(), 1, 2)
    assert len(m.states) == 2
    assert m.states == (((0,),), ((1,),))
    assert m.state_probs == (F(2, 3), F(1, 3))
    assert m.complexity == GM_CP
    assert m.transitions == {
        (0, 0): (0, F(1, 2)),
        (0, 1): (1, F(1, 2)),
        (1, 0): (0, F(1)),
    }


def test_goldenmean_machine_refinement_stable():
    m = reconstruct(goldenmean(), 3, 3)
    assert len(m.states) == 2
    assert m.complexity == GM_CP
    assert sorted(m.state_probs) == [F(1, 3), F(2, 3)]


def test_goldenmean_excess_entropy_exact():
    gm = goldenmean()
    m = reconstruct(gm, 1, 2)
    assert machine_excess_entropy(m, gm) == GM_E
    cf = closed_forms(gm)
    assert cf.excess_entropy == GM_E


def test_goldenmean_decomposition():
    gm = goldenmean()
    fwd = reconstruct(gm, 1, 2)
    rev = reconstruct(reversed_model(gm), 1, 2)
    E, h_fr, h_rf = complexity_decomposition(fwd, rev, gm)
    assert E == GM_E
    # C_P = E + H(S+|S-): (log2(3) - 2/3) - (log2(3) - 4/3) = 2/3
    assert h_fr == F(2, 3)
    assert h_rf == F(2, 3)  # chain is reversible


def _fields(machine) -> dict:
    return {k: getattr(machine, k) for k in EpsilonMachine.__slots__}


def with_complexity(machine, complexity):
    """The machine with its complexity replaced, built again from its
    fields by keyword."""
    return EpsilonMachine(**{**_fields(machine), "complexity": complexity})


def test_exact_decomposition_is_checked_by_equality():
    # exact machines must satisfy C_P = E + H(S+|S-) exactly: a shift
    # far below any float tolerance is still caught
    gm = goldenmean()
    fwd = reconstruct(gm, 1, 2)
    rev = reconstruct(reversed_model(gm), 1, 2)
    shifted = with_complexity(fwd, fwd.complexity + F(1, 10 ** 12))
    with pytest.raises(ArithmeticError, match="forward"):
        complexity_decomposition(shifted, rev, gm)
    shifted = with_complexity(rev, rev.complexity + F(1, 10 ** 12))
    with pytest.raises(ArithmeticError, match="reverse"):
        complexity_decomposition(fwd, shifted, gm)


def test_float_decomposition_is_checked_within_tolerance():
    # on floats the same shift lies inside IDENTITY_TOL
    gm = MarkovProcess.from_rows({"0": (0.5, 0.5), "1": (1.0, 0.0)})
    fwd = reconstruct(gm, 1, 2)
    rev = reconstruct(reversed_model(gm), 1, 2)
    shifted = with_complexity(fwd, fwd.complexity + 1e-12)
    E, h_fr, _ = complexity_decomposition(shifted, rev, gm)
    assert E + h_fr == pytest.approx(fwd.complexity, abs=1e-12)


def test_float_decomposition_refuses_a_miss_just_outside_identity_tol():
    # a C_P split that misses by 1e-6 is refused in either reading
    # direction, and one that misses by 1e-12 passes
    assert 1e-12 < IDENTITY_TOL < 1e-6
    gm = MarkovProcess.from_rows({"0": (0.5, 0.5), "1": (1.0, 0.0)})
    fwd = reconstruct(gm, 1, 2)
    rev = reconstruct(reversed_model(gm), 1, 2)
    for miss, refused in ((1e-6, True), (1e-12, False)):
        for pair, name in (
                ((with_complexity(fwd, fwd.complexity + miss), rev),
                 "forward"),
                ((fwd, with_complexity(rev, rev.complexity + miss)),
                 "reverse")):
            if refused:
                with pytest.raises(ArithmeticError, match=name):
                    complexity_decomposition(*pair, gm)
            else:
                complexity_decomposition(*pair, gm)


def test_float_histories_merge_only_within_merge_tol():
    # two contexts whose rows lie 1e-9 apart in total variation stay two
    # states under the default radius; 1e-14 apart, they are one
    assert 1e-14 < MERGE_TOL < 1e-9
    for gap, states in ((1e-9, 2), (1e-14, 1)):
        chain = MarkovProcess.from_rows(
            {"0": (0.5, 0.5), "1": (0.5 + gap, 0.5 - gap)})
        assert len(reconstruct(chain, 1, 1).states) == states


def test_goldenmean_machine_blocks_match_model():
    gm = goldenmean()
    m = reconstruct(gm, 1, 2)
    for L in (1, 2):
        assert machine_block_distribution(m, L).probs == \
            gm.block_distribution(L).probs


# ── order-2 chain with merged contexts ────────────────────────────────────────


def test_r2_machine_merges_equivalent_contexts():
    m = reconstruct(markov_r2_uniform(), 2, 2)
    # contexts 01 and 11 share row (1/2,1/2) and successor contexts
    assert len(m.states) == 3
    assert m.states == (
        ((0, 0),),
        ((0, 1), (1, 1)),
        ((1, 0),),
    )
    assert m.state_probs == (F(1, 4), F(1, 2), F(1, 4))
    assert m.complexity == F(3, 2)


def test_float_machine_at_zero_radius_merges_equal_laws():
    # float rows with radius 0: the total-variation route merges only
    # identical future laws, in the order of the exact key route
    rows = {"00": (0.75, 0.25), "01": (0.5, 0.5), "10": (0.25, 0.75),
            "11": (0.5, 0.5)}
    m = reconstruct(MarkovProcess.from_rows(rows), 2, 2, tol=0)
    assert m.states == reconstruct(markov_r2_uniform(), 2, 2).states
    assert m.state_probs == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)


def test_r2_machine_transitions():
    m = reconstruct(markov_r2_uniform(), 2, 2)
    assert m.transitions == {
        (0, 0): (0, F(3, 4)),
        (0, 1): (1, F(1, 4)),
        (1, 0): (2, F(1, 2)),
        (1, 1): (1, F(1, 2)),
        (2, 0): (0, F(1, 4)),
        (2, 1): (1, F(3, 4)),
    }


def test_r2_machine_excess_entropy_exact():
    chain = markov_r2_uniform()
    m = reconstruct(chain, 2, 2)
    assert machine_excess_entropy(m, chain) == R2_E
    cf = closed_forms(chain)
    assert cf.excess_entropy == R2_E
    # complexity strictly below the context entropy H(2) = 2
    assert float(m.complexity) == 1.5 < 2.0


def test_r2_decomposition_identity():
    chain = markov_r2_uniform()
    fwd = reconstruct(chain, 2, 2)
    rev = reconstruct(reversed_model(chain), 2, 2)
    E, h_fr, h_rf = complexity_decomposition(fwd, rev, chain)
    assert E == R2_E
    assert fwd.complexity == E + h_fr
    assert rev.complexity == E + h_rf


def test_r2_machine_refinement_stable():
    m = reconstruct(markov_r2_uniform(), 3, 2)
    assert len(m.states) == 3
    assert m.complexity == F(3, 2)


def ternary_r2() -> MarkovProcess:
    # context "aa" has its own row; the other eight share one, and the
    # two ending in "a" lead to "aa", so there are 3 causal states
    return MarkovProcess.from_rows(
        {a + b: (F(1, 2), F(1, 3), F(1, 6)) if a + b == "aa"
         else (F(1, 4), F(1, 4), F(1, 2)) for a in "abc" for b in "abc"},
        alphabet=Alphabet("abc"))


def test_ternary_closed_form_complexity_merges_contexts():
    cf = closed_forms(ternary_r2())
    assert cf.complexity_plus == ExactBits(F(-26, 11), {11: F(1)})
    fwd = reconstruct(ternary_r2(), 4, 4)
    assert len(fwd.states) == 3
    assert fwd.complexity == cf.complexity_plus


@pytest.mark.parametrize("make", [goldenmean, markov_r2_uniform, ternary_r2])
def test_closed_form_complexities_match_reconstruction(make):
    chain = make()
    cf = closed_forms(chain)
    assert cf.complexity_plus == reconstruct(chain, 3, 3).complexity
    assert cf.complexity_minus == reconstruct(reversed_model(chain), 3,
                                              3).complexity
    assert cf.efficiency == pytest.approx(
        float(cf.excess_entropy) / float(cf.complexity_plus), rel=1e-12)


# table1's markov-r2 row
R2_ROWS = {"00": (F(4, 5), F(1, 5)), "01": (F(3, 10), F(7, 10)),
           "10": (F(3, 5), F(2, 5)), "11": (F(1, 4), F(3, 4))}


@pytest.mark.parametrize("make, R", [
    (goldenmean, 8),
    (lambda: MarkovProcess.from_rows(R2_ROWS), 6),
    (ternary_r2, 4),
    (lambda: MarkovProcess.from_rows(
        {c: tuple(map(float, row)) for c, row in R2_ROWS.items()}), 6),
], ids=["golden", "r2", "ternary", "r2-float"])
def test_calls_on_one_chain_answer_as_on_fresh_chains(make, R):
    # forward machine, E, reverse machine and C_P split on one chain,
    # which keeps its forward and reversed tables across the calls,
    # against each call made on chains of its own
    chain = make()
    forward = reconstruct(chain, R, R)
    E = machine_excess_entropy(forward, chain)
    reverse = reconstruct(reversed_model(chain), R, R)
    split = complexity_decomposition(forward, reverse, chain)
    assert _fields(forward) == _fields(reconstruct(make(), R, R))
    fresh_E = machine_excess_entropy(reconstruct(make(), R, R), make())
    assert (type(E), E) == (type(fresh_E), fresh_E)
    assert _fields(reverse) == _fields(reconstruct(reversed_model(make()),
                                                   R, R))
    fresh_split = complexity_decomposition(
        reconstruct(make(), R, R), reconstruct(reversed_model(make()), R, R),
        make())
    assert ([type(x) for x in split], split) == (
        [type(x) for x in fresh_split], fresh_split)
    assert isinstance(E, float) != chain.exact


# ── float backend: Ising chain ────────────────────────────────────────────────


def test_ising_machine_matches_closed_forms():
    chain = IsingChainProcess(J=1.0, h=0.5, beta=0.7)
    m = reconstruct(chain, 1, 2)
    assert len(m.states) == 2
    assert isinstance(m.complexity, float)
    cf = closed_forms(chain)
    assert float(m.complexity) == pytest.approx(
        float(cf.complexity_plus), abs=1e-9)
    E = machine_excess_entropy(m, chain)
    assert float(E) == pytest.approx(float(cf.excess_entropy), abs=1e-9)


def test_ising_machine_blocks_match_model():
    chain = IsingChainProcess(J=1.0, h=0.5, beta=0.7)
    m = reconstruct(chain, 1, 2)
    mod = chain.block_distribution(2)
    mach = machine_block_distribution(m, 2)
    assert set(mach.probs) == set(mod.probs)
    for w, p in mod.probs.items():
        assert mach.probs[w] == pytest.approx(p, abs=1e-12)


# ── machine internals ────────────────────────────────────────────────────────


def test_state_probs_are_stationary():
    m = reconstruct(markov_r2_uniform(), 2, 2)
    flow = [F(0)] * len(m.states)
    for (i, _a), (j, p) in m.transitions.items():
        flow[j] += m.state_probs[i] * p
    assert tuple(flow) == m.state_probs


def test_reconstruct_argument_validation():
    gm = goldenmean()
    with pytest.raises(ValueError):
        reconstruct(gm, 0, 2)
    with pytest.raises(ValueError):
        reconstruct(gm, 1, 0)
    with pytest.raises(ValueError):
        reconstruct(gm, 1, 2, tol=-1e-3)
    # refused before the 2**28-word window is built
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        reconstruct(gm, 14, 14, tol=-1e-3)


class _OneTable:
    """A binary process of no known order that hands out one given
    table at its one length, whether or not a process has it."""

    alphabet = Alphabet("01")

    def __init__(self, weights):
        self._weights = weights

    def block_distribution(self, L: int):
        return BlockDistribution(self.alphabet, L, self._weights,
                                 sum(self._weights.values()))


def test_reconstruct_refuses_a_table_that_no_process_has():
    # history 0 is followed by 1, but no pair starts with 1
    with pytest.raises(ArithmeticError) as e:
        reconstruct(_OneTable({(0, 1): 1}), 1, 1)
    assert str(e.value) == ("successor history has zero probability; "
                            "window law is inconsistent")
    # P(0) = 1/2 in the first symbol, but 1/4 in the second
    with pytest.raises(ArithmeticError) as e:
        reconstruct(_OneTable({(0, 0): 1, (0, 1): 1, (1, 1): 2}), 1, 1)
    assert str(e.value) == "state law is not stationary"


def test_reconstructed_machine_rows_sum_to_one():
    # reconstruct divides each edge by its state's mass, so each state's
    # outgoing edges sum to exactly 1 with no check of its own
    for model, R, F_len in ((SubstitutionProcess(thue_morse()), 4, 5),
                            (goldenmean(), 1, 2), (ternary_r2(), 4, 4)):
        m = reconstruct(model, R, F_len)
        sums = [0] * len(m.states)
        for (i, _a), (_j, p) in m.transitions.items():
            sums[i] += p
        assert sums == [1] * len(m.states)
        assert all(isinstance(x, F) for x in sums)


def test_machine_is_immutable():
    m = reconstruct(goldenmean(), 1, 2)
    with pytest.raises((AttributeError, TypeError)):
        m.complexity = 0
    # and so are a record and a model
    with pytest.raises(AttributeError):
        closed_forms(goldenmean()).pmi = 0
    with pytest.raises(AttributeError):
        PeriodicProcess.from_string("00111").cycle = (0, 1)


# ── chains read by edge context, against the window oracle ───────────────────


@st.composite
def chain_horizons(draw):
    """A random rational chain of order <= 2 over <= 3 symbols, row
    weights 1-9, with R from its order to order + 2 and F from 1 to 3."""
    s = draw(st.integers(2, 3))
    order = draw(st.integers(0, 2))
    kernel = {}
    for i in range(s ** order):
        c = tuple(i // s ** k % s for k in reversed(range(order)))
        w = draw(st.lists(st.integers(1, 9), min_size=s, max_size=s))
        kernel[c] = tuple(F(x, sum(w)) for x in w)
    m = MarkovProcess(Alphabet("abc"[:s]), order, kernel)
    R = draw(st.integers(max(order, 1), order + 2))
    return m, R, draw(st.integers(1, 3))


def machine_or_refusal(model, R, F_len):
    try:
        return reconstruct(model, R, F_len)
    except NonUnifilarError:
        return None


def assert_same_machine(got, want, exact=True):
    assert got.states == want.states
    assert got.history_index == want.history_index
    assert type(got.complexity) is type(want.complexity)
    assert got.tol == want.tol
    assert got.transitions.keys() == want.transitions.keys()
    if exact:
        assert got.state_probs == want.state_probs
        assert got.transitions == want.transitions
        assert got.complexity == want.complexity
        return
    assert got.state_probs == pytest.approx(want.state_probs, abs=1e-12)
    for key, (j, p) in want.transitions.items():
        assert got.transitions[key][0] == j
        assert got.transitions[key][1] == pytest.approx(p, abs=1e-12)
    assert got.complexity == pytest.approx(want.complexity, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(case=chain_horizons())
def test_chain_machines_match_window_oracle(case):
    m, R, F_len = case
    asked = []
    block_distribution = MarkovProcess.block_distribution

    def counted(self, L):
        asked.append(L)
        return block_distribution(self, L)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MarkovProcess, "block_distribution", counted)
        got = machine_or_refusal(m, R, F_len)
    # the chain reads no table longer than the next-symbol table and
    # the future tables of its edge contexts
    assert asked and max(asked) <= max(R + 1, m.order + F_len)
    want = machine_or_refusal(WindowOracle(m), R, F_len)
    assert (got is None) == (want is None)
    if got is None:
        event("non-unifilar on both routes")
        return
    assert_same_machine(got, want)
    back = reversed_model(m)
    rev = machine_or_refusal(back, R, F_len)
    rev_want = machine_or_refusal(WindowOracle(back), R, F_len)
    assert (rev is None) == (rev_want is None)
    if rev is None:
        event("reverse non-unifilar on both routes")
        return
    assert_same_machine(rev, rev_want)
    assert complexity_decomposition(got, rev, m) == complexity_decomposition(
        want, rev_want, WindowOracle(m))

    floats = MarkovProcess(m.alphabet, m.order, {
        c: tuple(float(x) for x in row) for c, row in m.kernel.items()})
    got = machine_or_refusal(floats, R, F_len)
    want = machine_or_refusal(WindowOracle(floats), R, F_len)
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_machine(got, want, exact=False)


def test_ising_chain_machine_matches_window_oracle():
    chain = IsingChainProcess(J=1.0, h=0.3, beta=0.7)
    back = reversed_model(chain)
    for R, F_len in ((1, 1), (1, 3), (2, 2), (3, 1)):
        fwd, rev = reconstruct(chain, R, F_len), reconstruct(back, R, F_len)
        fwd_want = reconstruct(WindowOracle(chain), R, F_len)
        rev_want = reconstruct(WindowOracle(back), R, F_len)
        assert_same_machine(fwd, fwd_want, exact=False)
        assert_same_machine(rev, rev_want, exact=False)
        got = complexity_decomposition(fwd, rev, chain)
        want = complexity_decomposition(fwd_want, rev_want,
                                        WindowOracle(chain))
        assert got == pytest.approx(want, abs=1e-12)


def test_r2_machines_at_horizon_10_match_closed_forms():
    # 2**20-word windows on the window route; 2**10 histories and four
    # future tables of 2**10 words here
    chain = MarkovProcess.from_rows({
        "00": (F(4, 5), F(1, 5)), "01": (F(3, 10), F(7, 10)),
        "10": (F(3, 5), F(2, 5)), "11": (F(1, 4), F(3, 4))})
    fwd = reconstruct(chain, 10, 10)
    rev = reconstruct(reversed_model(chain), 10, 10)
    cf = closed_forms(chain)
    assert fwd.complexity == cf.complexity_plus
    assert rev.complexity == cf.complexity_minus
    E, _h_fr, _h_rf = complexity_decomposition(fwd, rev, chain)
    assert E == cf.excess_entropy


def test_random_order_6_chain_reverse_machine_matches_closed_forms():
    # 64 contexts of seeded weights 1-9; E is taken as a float
    rng = np.random.default_rng(1)
    rows = {}
    for c in product(range(2), repeat=6):
        w = rng.integers(1, 10, 2).tolist()
        rows[c] = tuple(F(x, sum(w)) for x in w)
    chain = MarkovProcess(Alphabet("01"), 6, rows)
    fwd = reconstruct(chain, 6, 8)
    rev = reconstruct(reversed_model(chain), 6, 8)
    cf = closed_forms(chain)
    assert rev.complexity == cf.complexity_minus
    E = complexity_decomposition(fwd, rev, chain)[0]
    assert abs(E - cf.excess_entropy) <= 1e-12


def test_state_joint_refuses_a_context_split_across_states():
    # the order-2 machine splits the last symbol '0' between {00}, {10}
    r2 = reconstruct(markov_r2_uniform(), 2, 2)
    gm = goldenmean()
    rev = reconstruct(reversed_model(gm), 2, 2)
    with pytest.raises(ValueError, match="edge context '0' lies in states"):
        complexity_decomposition(r2, rev, gm)


class ChainTables:
    """A chain seen through its alphabet, its order and its block
    tables alone, recording the lengths of the tables asked for."""

    def __init__(self, chain):
        self._chain = chain
        self.alphabet = chain.alphabet
        self.order = chain.order
        self.asked = set()

    def block_distribution(self, L: int):
        self.asked.add(L)
        return self._chain.block_distribution(L)


@settings(max_examples=60, deadline=None)
@given(case=chain_horizons())
def test_machines_read_a_chain_through_its_order_and_block_tables(case):
    m, R, F_len = case
    k = m.order
    event(f"order {k}, R = order + {R - k}")
    # the next-symbol table of length R + 1 and the future tables of
    # length k + F, one table when k = R
    tables = {R + 1, k + F_len} if k < R else {k + F_len}
    machines = []
    for model in (m, reversed_model(m)):
        proxy = ChainTables(model)
        got = machine_or_refusal(proxy, R, F_len)
        assert proxy.asked == tables
        want = machine_or_refusal(model, R, F_len)
        assert (got is None) == (want is None)
        if got is None:
            event("non-unifilar")
            return
        assert_same_machine(got, want)
        machines.append((got, want))
    (fwd, fwd_want), (rev, rev_want) = machines
    proxy = ChainTables(m)
    assert complexity_decomposition(fwd, rev, proxy) == \
        complexity_decomposition(fwd_want, rev_want, m)
    assert proxy.asked == {2 * max(k, 1)}


def test_float_chain_rows_off_by_1e10_give_tables_and_machines():
    # rows are accepted within 1e-9 of 1; the tables built from them
    # are valid by construction and are not checked again at 1e-12
    m = MarkovProcess.from_rows({"0": (0.3, 0.7000000001), "1": (0.5, 0.5)})
    assert len(m.block_distribution(5).weights) == 32
    machine = reconstruct(m, 1, 3)
    assert len(machine.states) == 2
    assert isinstance(machine.complexity, float)


def test_machine_future_tables_keep_the_window_cap():
    # the length-27 future table of the golden mean is refused
    with pytest.raises(WindowCapError, match=re.escape(
            "window of length 27 over 2 symbols needs 2**27 states; "
            "cap is 2**26")):
        reconstruct(goldenmean(), 1, 26)


@pytest.mark.parametrize("model, R, F_, lengths", [
    pytest.param(goldenmean(), 8, 8, [9], id="goldenmean-8-8"),
    pytest.param(IidProcess.from_probs([F(1, 2), F(1, 2)]), 1, 2, [2],
                 id="coin-1-2"),
    # k = order 1 < R and k + F > R + 1: both tables are needed
    pytest.param(goldenmean(), 3, 1, [2, 4], id="goldenmean-3-1"),
])
def test_reconstruct_builds_each_table_once(monkeypatch, model, R, F_,
                                            lengths):
    asked = []
    build = MarkovProcess.block_distribution
    monkeypatch.setattr(MarkovProcess, "block_distribution",
                        lambda self, L: asked.append(L) or build(self, L))
    reconstruct(model, R, F_)
    assert asked == lengths

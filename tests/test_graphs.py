"""Graph questions answered by breadth-first walks: irreducibility and
period of a composition matrix, uniqueness of a float chain's
stationary law, and the period that a chain's PMI reads, each checked
against the boolean-matrix oracles in ``oracles``; and the stationary
law, checked against the eigendecomposition oracle on floats and the
Gauss–Jordan oracle on rationals."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from persistinfo.infocore import log2_of
from persistinfo.sequence import Alphabet
from persistinfo.processes import MarkovProcess, _stationary
from persistinfo.substitution import (
    ReducibleMatrixError,
    _irreducible_period,
    _levels,
    primitivity,
)

from oracles import (
    closed_classes,
    eig_float_stationary,
    graph_period,
    reachability,
    stationary_from_transitions,
)


def float_stationary(T: np.ndarray) -> np.ndarray:
    return np.array(_stationary(T, 1))


@st.composite
def digraphs(draw):
    """Boolean matrices of 1–12 nodes, edge i -> j when B[i, j], with
    shuffled labels: either a planted period d in 1–4 (d·k nodes in d
    cyclic classes, edges only from one class to the next, and maybe a
    cycle through every node) or a random sparse pattern."""
    pairs = st.tuples(st.integers(0, 11), st.integers(0, 11))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        n = d * draw(st.integers(1, 12 // d))
        B = np.zeros((n, n), dtype=bool)
        if draw(st.booleans()):
            B[np.arange(n), (np.arange(n) + 1) % n] = True
        for i, j in draw(st.lists(pairs, max_size=2 * n)):
            if i < n and j < n and j % d == (i + 1) % d:
                B[i, j] = True
    else:
        n = draw(st.integers(1, 12))
        B = np.zeros((n, n), dtype=bool)
        for i, j in draw(st.lists(pairs, max_size=3 * n)):
            if i < n and j < n:
                B[i, j] = True
    perm = draw(st.permutations(range(n)))
    return B[np.ix_(perm, perm)]


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_walks_match_matrix_oracles_on_random_digraphs(B):
    # the oracles read edge j -> i when B[i, j], so they are handed B.T
    reached = reachability(B.T)[:, 0]
    level, _ = _levels([np.flatnonzero(r).tolist() for r in B], 0)
    assert sorted(level) == np.flatnonzero(reached).tolist()
    if reachability(B.T).all():
        event(f"irreducible, period {graph_period(B.T)}")
        assert _irreducible_period(B) == graph_period(B.T)
    else:
        with pytest.raises(ReducibleMatrixError,
                           match="composition matrix is reducible"):
            _irreducible_period(B)


def test_primitivity_refuses_an_empty_matrix():
    # no node to start a walk from
    with pytest.raises(ValueError, match="square and nonempty"):
        primitivity(np.zeros((0, 0), dtype=int))


def test_levels_are_breadth_first_distances():
    # 0 -> 1 -> 2 -> 0 and 0 -> 2: levels 0, 1, 1; cycles of 2 and 3
    level, period = _levels([[1, 2], [2], [0]], 0)
    assert level == {0: 0, 1: 1, 2: 1} and period == 1
    assert _levels([[1], [2], [3], [0]], 2) == ({2: 0, 3: 1, 0: 2, 1: 3}, 4)
    assert _levels([[1], []], 0) == ({0: 0, 1: 1}, 0)


@st.composite
def float_rows(draw, max_states=8):
    """A row-stochastic float matrix of 1–8 states, each row with 1–3
    drawn (column, weight 1–9) entries over their sum: sparse enough
    that several closed classes and periods above 1 are common."""
    m = draw(st.integers(1, max_states))
    entry = st.tuples(st.integers(0, m - 1), st.integers(1, 9))
    W = np.zeros((m, m))
    for i in range(m):
        for j, w in draw(st.lists(entry, min_size=1, max_size=3)):
            W[i, j] += w
    return W / W.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(float_rows())
def test_float_stationary_refuses_exactly_several_closed_classes(T):
    if len(closed_classes(T)) > 1:
        event("refused")
        with pytest.raises(ValueError,
                           match="stationary distribution is not unique"):
            float_stationary(T)
    else:
        pi = float_stationary(T)
        assert np.allclose(pi @ T, pi, atol=1e-9)
        assert math.isclose(pi.sum(), 1.0)


@settings(max_examples=150, deadline=None)
@given(float_rows(max_states=6), st.booleans())
def test_chain_pmi_reads_the_period_of_its_closed_class(T, exact):
    classes = closed_classes(T)
    assume(len(classes) == 1)
    live = sorted(classes[0])
    d = graph_period((T[np.ix_(live, live)] != 0).T)
    event(f"period {d}, {len(T) - len(live)} transient")
    m = len(T)
    rows = {(c,): tuple(Fraction(x).limit_denominator(10 ** 4) if exact
                        else float(x) for x in T[c]) for c in range(m)}
    chain = MarkovProcess(Alphabet([str(i) for i in range(m)]), 1, rows)
    assert chain.closed_forms().pmi == (log2_of(d) if d > 1 else 0)


def test_float_chain_with_transient_contexts_has_no_mass_on_them():
    # 2 <-> 3 is the closed class, of period 2; 0, 1, 4 and 5 are
    # transient, and the eigenvector carries rounding noise on them
    T = np.zeros((6, 6))
    T[0, 1] = T[0, 5] = 0.5
    T[1, 0] = T[2, 3] = T[3, 2] = T[4, 0] = T[5, 2] = 1.0
    assert np.flatnonzero(float_stationary(T)).tolist() == [2, 3]
    rows = {(c,): tuple(T[c].tolist()) for c in range(6)}
    chain = MarkovProcess(Alphabet([str(i) for i in range(6)]), 1, rows)
    cf = chain.closed_forms()
    assert cf.pmi == log2_of(2) and cf.entropy_rate == 0


@settings(max_examples=300, deadline=None)
@given(float_rows())
def test_float_stationary_matches_the_eig_oracle(T):
    try:
        want = eig_float_stationary(T)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            float_stationary(T)
        return
    got = float_stationary(T)
    assert np.flatnonzero(got).tolist() == np.flatnonzero(want).tolist()
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 7, 60, 243])
@pytest.mark.parametrize("density", [0.05, 1.0])
def test_float_stationary_of_random_chains_matches_the_eig_oracle(m, density):
    rng = np.random.default_rng(m)
    W = rng.random((m, m)) * (rng.random((m, m)) < density)
    # a cycle through every state: one closed class
    W[np.arange(m), (np.arange(m) + 1) % m] += rng.random(m) + 0.1
    T = W / W.sum(axis=1, keepdims=True)
    got, want = float_stationary(T), eig_float_stationary(T)
    assert np.abs(got - want).max() <= 1e-12
    assert np.allclose(got @ T, got, rtol=0, atol=1e-15)


def test_float_chain_of_period_2_has_its_pmi_below_its_excess_entropy():
    # the eigenvector gave π = (0.5, 0.49999999999999994) on the class,
    # so E = H(π) rounded one ulp below the exact PMI of 1 bit
    T = np.zeros((6, 6))
    T[0, 1] = T[0, 5] = 0.5
    T[1, 0] = T[2, 3] = T[3, 2] = T[4, 0] = T[5, 2] = 1.0
    rows = {(c,): tuple(T[c].tolist()) for c in range(6)}
    chain = MarkovProcess(Alphabet([str(i) for i in range(6)]), 1, rows)
    assert chain.stationary == (0.0, 0.0, 0.5, 0.5, 0.0, 0.0)
    cf = chain.closed_forms()
    assert cf.pmi == log2_of(2) and cf.excess_entropy == 1.0


@st.composite
def sparse_rational_chains(draw):
    """Rational chains of up to 27 contexts (binary up to order 4,
    ternary up to order 3) whose rows have weights 0, 1 or 3, each 0
    with probability 1/2 and the first 1 where all are 0: many have
    transient contexts or several closed classes."""
    s = draw(st.integers(2, 3))
    order = draw(st.integers(0, 4 if s == 2 else 3))
    weights = st.lists(st.sampled_from((0, 0, 1, 3)), min_size=s,
                       max_size=s).map(lambda w: w if any(w) else [1] + w[1:])
    rows = {}
    for c in product(range(s), repeat=order):
        w = draw(weights)
        rows[c] = tuple(Fraction(x, sum(w)) for x in w)
    return s, order, rows


@settings(max_examples=200, deadline=None)
@given(sparse_rational_chains())
@example((2, 1, {(0,): (Fraction(1), Fraction(0)),
                 (1,): (Fraction(0), Fraction(1))}))  # two closed classes
@example((2, 1, {(0,): (Fraction(1, 2), Fraction(1, 2)),
                 (1,): (Fraction(0), Fraction(1))}))  # '0' is transient
def test_exact_stationary_law_matches_the_gauss_jordan_oracle(case):
    s, order, rows = case
    contexts = list(product(range(s), repeat=order))
    index = {c: i for i, c in enumerate(contexts)}
    T = [[Fraction(0)] * len(contexts) for _ in contexts]
    for c, row in rows.items():
        for a, p in enumerate(row):
            T[index[c]][index[(c + (a,))[1:]]] += p
    try:
        want = stationary_from_transitions(T)
    except ValueError as e:
        event("refused")
        with pytest.raises(ValueError, match=str(e)):
            MarkovProcess(Alphabet("abc"[:s]), order, rows)
        return
    event("transient contexts" if 0 in want else "every context recurrent")
    assert MarkovProcess(Alphabet("abc"[:s]), order, rows).stationary == want

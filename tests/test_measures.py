"""Oracle tests for entropy curves, gap-MI grids and PMI verdicts.

The Thue-Morse grid anchors below were computed with an independent
script (factor tables + gap marginalization + mutual information)
before this module existed and are frozen here as regression values.
"""

import math
import tracemalloc
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persistinfo import infocore, measures
from persistinfo.infocore import (
    _BLOCK,
    Alphabet,
    ExactBits,
    _code_counts,
    _code_dtype,
    _concat_pieces,
    _distinct_counts,
    _doubling_steps,
    _grow_codes,
    _pair_codes,
    _ranks,
    empirical_block_distribution,
    mutual_information,
    shannon_entropy,
    window_codes,
)
from persistinfo.measures import (
    EfficiencyReport,
    EmpiricalSource,
    EntropyCurve,
    GapMIGrid,
    PmiReport,
    UndersampledError,
    efficiency,
    entropy_curve,
    excess_entropy_finite,
    gap_mi_grid,
    pmi_verdict,
)
from persistinfo.processes import (
    IidProcess,
    LogisticSymbolizer,
    MarkovProcess,
    PeriodicProcess,
    SubstitutionProcess,
    WindowCapError,
    sample,
)
from persistinfo.substitution import fibonacci, thue_morse

from oracles import (
    empirical_block_entropy,
    geometric_decay_rate,
    int64_grow_codes,
)

LOG2_3 = ExactBits(F(0), {3: F(1)})


def goldenmean() -> MarkovProcess:
    return MarkovProcess.from_rows(
        {"0": (F(1, 2), F(1, 2)), "1": (F(1), F(0))})


def lopsided_chain() -> MarkovProcess:
    return MarkovProcess.from_rows({"0": (0.9, 0.1), "1": (0.2, 0.8)})


# ── entropy curves ──────────────────────────────────────────────────


def test_entropy_curve_fair_coin():
    c = entropy_curve(IidProcess.from_probs((F(1, 2), F(1, 2))), 5)
    assert list(c.H) == [1, 2, 3, 4, 5]
    assert list(c.dH) == [1, 1, 1, 1, 1]
    assert c.h_hat == 1
    assert c.E_hat == 0
    assert c.exact


def test_entropy_curve_period3():
    c = entropy_curve(PeriodicProcess.from_string("011"), 4)
    assert c.H[0] == ExactBits(F(-2, 3), {3: F(1)})
    for L in (2, 3, 4):
        assert c.H[L - 1] == LOG2_3
    assert c.h_hat == 0
    assert c.E_hat == LOG2_3


def test_entropy_curve_parity_fixed_point():
    c = entropy_curve(SubstitutionProcess(thue_morse()), 5)
    assert list(c.H) == [
        F(1),
        ExactBits(F(1, 3), {3: F(1)}),
        ExactBits(F(1), {3: F(1)}),
        ExactBits(F(5, 3), {3: F(1)}),
        ExactBits(F(2), {3: F(1)}),
    ]
    assert list(c.dH) == [
        F(1),
        ExactBits(F(-2, 3), {3: F(1)}),
        F(2, 3),
        F(2, 3),
        F(1, 3),
    ]
    assert c.h_hat == F(1, 3)
    assert c.E_hat == ExactBits(F(1, 3), {3: F(1)})
    assert c.h_ratio == ExactBits(F(2, 5), {3: F(1, 5)})


def test_entropy_curve_monotonicity_invariants():
    for model in [goldenmean(), PeriodicProcess.from_string("00101"),
                  SubstitutionProcess(thue_morse())]:
        c = entropy_curve(model, 6)
        for a, b in zip(c.H, c.H[1:]):
            assert float(b) >= float(a) - 1e-9
        for a, b in zip(c.dH, c.dH[1:]):
            assert float(b) <= float(a) + 1e-9


def test_entropy_curve_markov_increment_is_exact_rate():
    # H(L) is exactly linear from L = R on, so the last increment is
    # the exact rate and E_hat the exact excess entropy
    c = entropy_curve(goldenmean(), 8)
    assert c.h_hat == F(2, 3)
    assert c.E_hat == ExactBits(F(-4, 3), {3: F(1)})


def test_entropy_curve_from_plain_sequence():
    c = entropy_curve("01" * 500, 6)
    assert not c.exact
    assert float(c.H[0]) == pytest.approx(1.0, abs=1e-4)
    assert float(c.h_hat) == pytest.approx(0.0, abs=0.01)
    assert float(c.E_hat) == pytest.approx(1.0, abs=0.02)


def test_entropy_curve_exact_flag_follows_the_values():
    # exact tables over a large prime, whose entropies fall back to float
    m = MarkovProcess.from_rows({"0": (F(1, 1000000007),
                                       F(1000000006, 1000000007)),
                                 "1": (F(1, 2), F(1, 2))})
    c = entropy_curve(m, 3)
    assert any(isinstance(h, float) for h in c.H)
    assert c.exact is False
    assert c.to_json_dict()["exact"] is False
    assert gap_mi_grid(m, (1, 2), (4, 8)).exact is False


def test_entropy_curve_csv_shape():
    c = entropy_curve(IidProcess.from_probs((F(1, 2), F(1, 2))), 3)
    lines = c.to_csv().strip().splitlines()
    assert lines[0] == "L,H_exact,H_bits,dH_exact,dH_bits"
    assert len(lines) == 4
    assert lines[1].startswith("1,1,1,1,1")


# ── finite-L excess entropy ─────────────────────────────────────────


def test_excess_entropy_finite_iid_zero():
    m = IidProcess.from_probs((F(3, 10), F(7, 10)))
    for L in (1, 2, 4):
        assert excess_entropy_finite(m, L) == 0


def test_excess_entropy_finite_periodic():
    assert excess_entropy_finite(PeriodicProcess.from_string("01"), 1) == 1
    m = PeriodicProcess.from_string("011")
    for L in (3, 5):
        assert excess_entropy_finite(m, L) == LOG2_3


def test_excess_entropy_finite_markov_exact_at_all_L():
    m = goldenmean()
    for L in (1, 2, 4, 8):
        assert excess_entropy_finite(m, L) == ExactBits(F(-4, 3), {3: F(1)})


def test_excess_entropy_finite_empirical():
    seq = sample(goldenmean(), 200_000, seed=3)
    est = float(excess_entropy_finite(seq, 4))
    assert est == pytest.approx(math.log2(3) - 4 / 3, abs=5e-3)


# ── gap-MI grids ────────────────────────────────────────────────────


def test_grid_period2_all_ones():
    g = gap_mi_grid(PeriodicProcess.from_string("01"), [1, 2, 3], [0, 1, 2])
    assert g.exact
    assert set(map(float, g.values.values())) == {1.0}
    assert g.missing == {}


def test_grid_iid_all_zero():
    g = gap_mi_grid(IidProcess.from_probs((F(1, 2), F(1, 2))),
                    [1, 2, 3], [0, 2, 4])
    assert all(v == 0 for v in g.values.values())


def test_grid_markov_decays_in_gap():
    g = gap_mi_grid(lopsided_chain(), [1, 2], [0, 4, 8, 12])
    for L in (1, 2):
        col = [float(g.values[(L, gg)]) for gg in (0, 4, 8, 12)]
        assert all(b < a for a, b in zip(col, col[1:]))


def test_grid_nondecreasing_in_L_at_fixed_gap():
    for model in [goldenmean(), SubstitutionProcess(thue_morse())]:
        g = gap_mi_grid(model, [2, 3, 4], [0, 2, 4])
        for gg in (0, 2, 4):
            col = [float(g.values[(L, gg)]) for L in (2, 3, 4)]
            assert all(b >= a - 1e-12 for a, b in zip(col, col[1:]))


def test_grid_parity_frozen_anchors():
    g = gap_mi_grid(SubstitutionProcess(thue_morse()), [3, 5, 7, 9], [2, 4, 8])
    assert float(g.values[(3, 2)]) == pytest.approx(0.918296, abs=1e-6)
    assert float(g.values[(7, 4)]) == pytest.approx(2.918296, abs=1e-6)
    assert float(g.values[(9, 8)]) == pytest.approx(3.043296, abs=1e-6)


def test_grid_marks_capped_cells_missing():
    tm = SubstitutionProcess(thue_morse())
    g = gap_mi_grid(tm, [2, 3, 4], [2, 8192])
    for L in (2, 3, 4):
        assert (L, 2) in g.values
        assert (L, 8192) not in g.values
        assert "cap" in g.missing[(L, 8192)]
        # the model's own refusal, as it raised it
        with pytest.raises(WindowCapError) as refused:
            tm.gap_mutual_information(L, 8192)
        assert g.missing[(L, 8192)] == str(refused.value)


class _SurfaceOnly:
    """A model with the two questions of the surface and nothing else:
    the golden mean's answers, read from its chain."""

    def __init__(self):
        self.chain = goldenmean()
        self.alphabet = self.chain.alphabet

    def block_entropies(self, Ls):
        return self.chain.block_entropies(Ls)

    def gap_mutual_information(self, L, g):
        return self.chain.gap_mutual_information(L, g)


def test_any_model_with_the_two_methods_is_a_source():
    m, chain = _SurfaceOnly(), goldenmean()
    assert entropy_curve(m, 6) == entropy_curve(chain, 6)
    assert excess_entropy_finite(m, 3) == excess_entropy_finite(chain, 3)
    grid = gap_mi_grid(m, (1, 2, 3), (0, 4, 8))
    assert grid == gap_mi_grid(chain, (1, 2, 3), (0, 4, 8))
    assert grid.exact and not grid.empirical


def test_sample_only_model_is_refused_as_a_sequence_naming_its_class():
    with pytest.raises(ValueError, match="0-dimensional LogisticSymbolizer"):
        entropy_curve(LogisticSymbolizer(r=3.9, x0=0.4), 3)


@pytest.mark.parametrize("model", [
    PeriodicProcess.from_string("00111"),
    SubstitutionProcess(thue_morse()),
    SubstitutionProcess(fibonacci()),
])
def test_table_models_answer_from_their_own_tables(model):
    Ls, gs = (1, 2, 3, 5), (0, 1, 7, 64)
    assert model.block_entropies(Ls) == [
        shannon_entropy(model.block_distribution(L)) for L in Ls]
    grid = gap_mi_grid(model, Ls, gs)
    assert not grid.missing
    assert grid.values == {
        (L, g): mutual_information(model.joint_gap_distribution(L, g))
        for L in Ls for g in gs}
    assert entropy_curve(model, 5).H == tuple(model.block_entropies(
        range(1, 6)))


def test_grid_undersampling_guard():
    seq = sample(IidProcess.from_probs((F(1, 2), F(1, 2))), 2000, seed=1)
    g = gap_mi_grid(seq, [2, 5], [0, 1])
    assert (2, 0) in g.values
    assert (5, 0) in g.missing and (5, 1) in g.missing
    src = EmpiricalSource(seq)
    with pytest.raises(UndersampledError):
        src.joint_gap_distribution(5, 0)


def test_undersampled_cell_is_refused_before_decoding(monkeypatch):
    seq = sample(IidProcess.from_probs((F(1, 2), F(1, 2))), 2000, seed=1)
    L, g = 5, 0
    m = len(seq) - 2 * L - g + 1
    distinct = len({(tuple(seq[i:i + L]), tuple(seq[i + L + g:i + 2 * L + g]))
                    for i in range(m)})
    assert distinct > m / 10

    def no_decoding(*args):
        raise AssertionError("decoded the pairs of a refused cell")

    monkeypatch.setattr(infocore, "_words", no_decoding)
    with pytest.raises(UndersampledError) as err:
        EmpiricalSource(seq).joint_gap_distribution(L, g)
    assert str(err.value) == (
        f"{distinct} distinct block pairs from {m} windows;"
        " refusing estimate beyond one pair per ten windows")


def _naive_counts(words):
    counts = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    return counts


@st.composite
def _sequences_and_cells(draw):
    s = draw(st.integers(1, 4))
    L = draw(st.integers(1, 6))
    g = draw(st.integers(0, 8))
    n = draw(st.integers(2 * L + g, 2000))
    seq = draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    return s, L, g, seq


@given(_sequences_and_cells())
@settings(max_examples=80, deadline=None)
def test_empirical_tables_match_tuple_slicing(case):
    s, L, g, seq = case
    alphabet = Alphabet(str(a) for a in range(s))
    n = len(seq)

    blocks = _naive_counts(tuple(seq[i:i + L]) for i in range(n - L + 1))
    d = empirical_block_distribution(seq, L, alphabet)
    total = n - L + 1
    assert list(d.probs.items()) == [(w, blocks[w] / total)
                                     for w in sorted(blocks)]

    m = n - 2 * L - g + 1
    pairs = _naive_counts((tuple(seq[i:i + L]), tuple(seq[i + L + g:i + 2 * L + g]))
                          for i in range(m))
    src = EmpiricalSource(seq, alphabet)
    if len(pairs) > m / 10:
        with pytest.raises(UndersampledError, match=f"^{len(pairs)} distinct"):
            src.joint_gap_distribution(L, g)
        return
    j = src.joint_gap_distribution(L, g)
    assert list(j.probs.items()) == [(k, pairs[k] / m) for k in sorted(pairs)]


def _fsum_entropy(counts) -> float:
    # correctly rounded sum of the same terms, over integer counts
    total = sum(counts)
    return -math.fsum(c / total * math.log2(c / total) for c in counts)


@st.composite
def _count_path_cases(draw):
    s = draw(st.integers(1, 4))
    L = draw(st.integers(1, 6))
    g = draw(st.integers(0, 8))
    n = draw(st.integers(2 * L + g, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = np.array(draw(st.lists(st.integers(0, 5), min_size=s,
                                     max_size=s)), dtype=float) + 1e-3
    # a noisy periodic sequence: low noise keeps large cells sampled
    period = rng.choice(s, size=draw(st.integers(1, 7)))
    noise = rng.choice(s, size=n, p=weights / weights.sum())
    flip = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    seq = np.where(flip, noise, np.resize(period, n))
    return s, L, g, seq


@given(_count_path_cases())
@settings(max_examples=80, deadline=None)
def test_count_path_matches_table_oracles(case):
    s, L, g, seq = case
    alphabet = Alphabet(str(a) for a in range(s))
    src = EmpiricalSource(seq, alphabet)

    blocks = _naive_counts(tuple(seq[i:i + L].tolist())
                           for i in range(seq.size - L + 1))
    h = empirical_block_entropy(src, L)
    assert type(h) is float
    assert abs(h - _fsum_entropy(list(blocks.values()))) <= 1e-12
    assert abs(h - shannon_entropy(src.block_distribution(L))) <= 1e-9

    try:
        want = mutual_information(src.joint_gap_distribution(L, g))
    except UndersampledError as e:
        with pytest.raises(UndersampledError) as err:
            src.gap_mutual_information(L, g)
        assert str(err.value) == str(e)
        return
    got = src.gap_mutual_information(L, g)
    assert type(got) is float
    assert abs(got - want) <= 1e-9


def matmul_window_codes(arr, L, s):
    """Reference window codes: every length-L window times the powers
    of s, as a matrix product over a strided view."""
    powers = (s ** np.arange(L - 1, -1, -1)).astype(np.int64)
    return np.lib.stride_tricks.sliding_window_view(arr, L) @ powers


def _codes_sort_as_the_words(arr, L, s):
    """Whether the window codes past 63 bits sort and tie exactly as
    the length-L words, with their range below 2**63."""
    codes, size = window_codes(arr, L, s)
    windows = np.lib.stride_tricks.sliding_window_view(arr, L)
    words = list(map(tuple, windows.tolist()))
    rank = {w: i for i, w in enumerate(sorted(set(words)))}
    return (size < 2 ** 63 and 0 <= codes.min() and codes.max() < size
            and np.array_equal(np.unique(codes, return_inverse=True)[1],
                               [rank[w] for w in words]))


def test_window_code_memo_matches_window_codes():
    # window_codes builds length L by doubling; every length agrees
    # with the matrix product, and from 40 ternary digits (63.4 bits)
    # on the codes are ranks that sort as the words
    arr = np.random.default_rng(5).integers(0, 3, 200)
    for L in range(1, 40):
        got, size = window_codes(arr, L, 3)
        # the narrowest unsigned type of 3**L codes, int64 past 32 bits
        assert got.dtype == (np.uint8 if L <= 5 else np.uint16 if L <= 10
                             else np.uint32 if L <= 20 else np.int64)
        assert np.array_equal(got, matmul_window_codes(arr, L, 3))
    for L in (40, 41, 64, 127):
        assert _codes_sort_as_the_words(arr, L, 3)


def test_window_code_memo_restarts_off_the_walk():
    arr = np.random.default_rng(6).integers(0, 4, 300)
    for L in (5, 3, 4, 9, 9, 1, 31, 32, 300):
        if L <= 31:
            assert np.array_equal(window_codes(arr, L, 4)[0],
                                  matmul_window_codes(arr, L, 4))
        else:
            assert _codes_sort_as_the_words(arr, L, 4)
    ones = np.ones(64, dtype=np.int64)
    assert window_codes(ones, 62, 2)[0].tolist() == [2 ** 62 - 1] * 3


# (s, L): s**L exactly 2**8, 2**16 and 2**32, past 63 bits (ranked),
# and one letter
NARROW_CODE_CASES = [(2, 8), (4, 4), (16, 2), (2, 16), (4, 8), (256, 2),
                     (2, 32), (16, 8), (65536, 2), (3, 40), (2, 64), (2, 70),
                     (1, 5), (1, 64)]


def _narrow_code_sequence(s, L):
    """Random letters of range(s) across two blocks, with one window of
    L letters s − 1, whose code is the largest of its range."""
    arr = np.random.default_rng(s * 1000 + L).integers(
        0, s, _BLOCK + 3 * L + 5)
    arr[_BLOCK - 2:_BLOCK - 2 + L] = s - 1
    return arr


@pytest.mark.parametrize("s, L", NARROW_CODE_CASES)
@pytest.mark.parametrize("held", ["narrow", "int64"])
def test_grow_codes_in_the_codes_type_match_the_int64_oracle(s, L, held):
    # arr held in the alphabet's own type, or wider than the codes
    arr = _narrow_code_sequence(s, L)
    arr = arr.astype(_code_dtype(s) if held == "narrow" else np.int64)
    dtype = _code_dtype(s ** L)
    for steps in (_doubling_steps(L), _doubling_steps(L) + ["pair"],
                  ["append"] * (L - 1)):
        got = _grow_codes(arr, s, arr.astype(dtype), s, steps)
        want = int64_grow_codes(arr, s, arr.astype(dtype), s, steps)
        assert got[0].dtype == dtype
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        if not want[2]:
            assert got[1] == s ** L
            assert int(got[0].max()) == s ** L - 1


@pytest.mark.parametrize("span, held", [
    (1 << 8, np.uint8), (1 << 8, np.int64),
    (1 << 16, np.uint16), (1 << 16, np.int64)])
def test_pair_codes_hold_span_squared_at_the_type_edges(span, held):
    # span² = 2**16 and 2**32: the pair codes fill uint16 and uint32
    rng = np.random.default_rng(span)
    n, shift = _BLOCK + 7, 5
    codes = rng.integers(0, span, n).astype(held)
    codes[:shift + 1] = span - 1
    want = codes[:n - shift].astype(np.int64) * span + codes[shift:]
    got = _pair_codes(codes, span, shift, 0, n - shift)
    assert got.dtype == (np.uint16 if span == 1 << 8 else np.uint32)
    assert np.array_equal(got, want)
    assert int(got[0]) == span * span - 1
    lo, hi = _BLOCK - 3, _BLOCK + 2
    assert np.array_equal(_pair_codes(codes, span, shift, lo, hi),
                          want[lo:hi])
    if span == 1 << 8:
        counts = _code_counts(codes, span * span, (span, shift))
        assert np.array_equal(counts,
                              np.bincount(want, minlength=span * span))


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_ranks_and_concat_pieces_at_block_edges(n, dtype):
    rng = np.random.default_rng(n)
    size = int(np.iinfo(dtype).max) + 1 if dtype == np.uint8 else 3000
    codes = rng.integers(0, size, n).astype(dtype)
    uniq, ranks = _ranks(codes, size)
    want = np.unique(codes)
    assert np.array_equal(uniq, want)
    assert ranks.dtype == _code_dtype(want.size)
    assert np.array_equal(ranks, np.searchsorted(want, codes))
    # pieces of one length are rows of a table; of unequal lengths,
    # spans of the concatenated pieces
    small = codes % 7
    equal = [np.full(3, c, dtype=np.uint8) + np.arange(3, dtype=np.uint8)
             for c in range(7)]
    unequal = [np.arange(c + 1, dtype=np.uint8) for c in range(7)]
    for pieces in (equal, unequal):
        got = _concat_pieces(small, pieces)
        assert np.array_equal(got, np.concatenate(
            [pieces[c] for c in small.tolist()]))


def test_ranks_of_narrow_codes_make_no_whole_array_index():
    # an intp index of 10**6 codes is 8 MB; a block's is 512 KiB
    codes = np.random.default_rng(8).integers(0, 200, 10 ** 6,
                                              dtype=np.uint8)
    _ranks(codes[:10], 256)  # warm up
    tracemalloc.start()
    try:
        uniq, ranks = _ranks(codes, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranks.dtype == np.uint8 and uniq.size == 200
    # the 1 MB output and one block of scratch
    assert peak < 2 << 20


def entropy_curve_oracle(src, L_max):
    """H(1..L_max) of an observed sequence, one pass per length."""
    return tuple(empirical_block_entropy(src, L)
                 for L in range(1, L_max + 1))


def gap_mi_grid_oracle(src, Ls, gs):
    """Values and refusals of the gap grid, one pass per cell."""
    values, missing = {}, {}
    for L in Ls:
        for g in gs:
            try:
                values[(L, g)] = src.gap_mutual_information(L, g)
            except UndersampledError as e:
                missing[(L, g)] = str(e)
    return values, missing


@st.composite
def _marginal_route_cases(draw):
    s = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    period = rng.choice(s, size=draw(st.integers(1, 9)))
    noise = rng.integers(0, s, n)
    flip = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    seq = np.where(flip, noise, np.resize(period, n))
    # L_max near n on short sequences, past the dense lengths on long ones
    L_max = draw(st.integers(1, min(n + 1, 40)))
    Ls = draw(st.lists(st.integers(1, 17), min_size=1, max_size=5))
    gs = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    return s, seq, L_max, sorted(set(Ls)), sorted(set(gs) | {0})


@given(_marginal_route_cases())
@settings(max_examples=150, deadline=None)
def test_marginal_route_matches_per_length_oracles(case):
    s, seq, L_max, Ls, gs = case
    src = EmpiricalSource(seq, Alphabet(str(a) for a in range(s)))
    try:
        want = entropy_curve_oracle(src, L_max)
    except UndersampledError as e:
        with pytest.raises(UndersampledError) as err:
            entropy_curve(src, L_max)
        assert str(err.value) == str(e)
    else:
        assert entropy_curve(src, L_max).H == want

    grid = gap_mi_grid(src, Ls, gs)
    values, missing = gap_mi_grid_oracle(src, Ls, gs)
    assert grid.values == values
    assert grid.missing == missing
    for v in grid.values.values():
        assert type(v) is float


def _count_long_counts(monkeypatch, n):
    """Record every counting pass, a bincount or a block-by-block
    ``_code_counts``, over n // 2 codes or more."""
    calls = []

    def counting(count):
        def counted(x, *args, **kwargs):
            if np.size(x) >= n // 2:
                calls.append(np.size(x))
            return count(x, *args, **kwargs)
        return counted

    monkeypatch.setattr(np, "bincount", counting(np.bincount))
    code_counts = counting(infocore._code_counts)
    for module in (infocore, measures):
        monkeypatch.setattr(module, "_code_counts", code_counts)
    return calls


def test_dense_lengths_count_the_sequence_once(monkeypatch):
    n = 200_000
    seq = sample(lopsided_chain(), n, seed=4)
    src = EmpiricalSource(seq)
    calls = _count_long_counts(monkeypatch, n)
    # 2**16 codes fit in the 199_985 windows of length 16
    curve = entropy_curve(src, 16)
    assert len(calls) == 1
    del calls[:]
    # 2**(2 * 6) pair codes fit at every gap
    grid = gap_mi_grid(src, (1, 2, 3, 4, 5, 6), (0, 4, 8, 16, 32))
    assert len(calls) == 5
    assert not grid.missing
    monkeypatch.undo()
    assert curve.H == entropy_curve_oracle(src, 16)
    assert (grid.values, grid.missing) == gap_mi_grid_oracle(
        src, grid.L_grid, grid.g_grid)


def test_counts_take_their_type_from_the_sequence_length(monkeypatch):
    # every count of the marginal routes is uint32, read off the
    # sequence's n symbols once per call, and no marginal sum widens
    # to uint64
    n = 20_000
    src = EmpiricalSource(sample(lopsided_chain(), n, seed=5))
    lengths, held = [], []
    count_dtype, entropy_of_counts = measures._count_dtype, \
        measures._entropy_of_counts

    def spy_dtype(m):
        lengths.append(m)
        return count_dtype(m)

    def spy_entropy(counts):
        held.append(counts.dtype)
        return entropy_of_counts(counts)
    monkeypatch.setattr(measures, "_count_dtype", spy_dtype)
    monkeypatch.setattr(measures, "_entropy_of_counts", spy_entropy)
    H = src.block_entropies([1, 2, 3, 4, 5, 6, 7, 8])
    values, missing = src.gap_mutual_informations((1, 2, 3), (0, 4))
    assert lengths == [n, n, n]
    assert held == [np.dtype(np.uint32)] * (8 + 3 * len(values))
    monkeypatch.undo()
    assert H == [empirical_block_entropy(src, L) for L in range(1, 9)]
    assert not missing and values == {
        (L, g): src.gap_mutual_information(L, g) for L, g in values}


@pytest.mark.parametrize("extra", [0, 1])
def test_distinct_counts_switch_agrees(extra):
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 500, 500)
    uniq, counts = _distinct_counts(codes, codes.size + extra)
    want_uniq, want_counts = np.unique(codes, return_counts=True)
    assert uniq.tolist() == want_uniq.tolist()
    assert counts.tolist() == want_counts.tolist()
    assert counts.dtype == np.uint32
    uniq, ranks = _ranks(codes, codes.size + extra)
    assert uniq.tolist() == want_uniq.tolist()
    assert ranks.dtype == np.uint16
    assert ranks.tolist() == np.searchsorted(want_uniq, codes).tolist()
    weights = rng.integers(1, 1000, 500)
    uniq, sums = _distinct_counts(codes, codes.size + extra, weights)
    want = {}
    for c, w in zip(codes.tolist(), weights.tolist()):
        want[c] = want.get(c, 0) + w
    assert uniq.tolist() == sorted(want)
    assert sums.tolist() == [want[c] for c in sorted(want)]


@pytest.mark.parametrize("seq,L", [("ab" * 2000, 28), ("abc" * 2000, 19)])
def test_gap_mi_of_long_blocks_matches_table(seq, L):
    # s**L far exceeds the number of windows; the marginals must not
    # take one slot per possible block
    src = EmpiricalSource(seq)
    want = mutual_information(src.joint_gap_distribution(L, 1))
    assert src.gap_mutual_information(L, 1) == pytest.approx(want, abs=1e-12)


def test_gap_mi_buffers_stay_within_the_windows():
    src = EmpiricalSource("ab" * 2000)
    empirical_block_entropy(src, 22)  # pack the window codes outside the trace
    tracemalloc.start()
    try:
        mi = src.gap_mutual_information(22, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mi == pytest.approx(1.0, abs=1e-12)
    # a few arrays of the ~4000 windows, not a 2**22-slot buffer
    assert peak < 1 << 20


def test_count_path_falls_back_past_63_bits():
    seq = "abc" * 300 + "cab" * 300
    src = EmpiricalSource(seq)
    # ternary codes of length 40 do not fit; pair codes of 2 x 20 neither
    assert (src.block_entropies([40])
            == [shannon_entropy(src.block_distribution(40))])
    L, g = 20, 3
    m = len(seq) - 2 * L - g + 1
    left = [seq[i:i + L] for i in range(m)]
    right = [seq[i + L + g:i + 2 * L + g] for i in range(m)]
    want = (_fsum_entropy(list(_naive_counts(left).values()))
            + _fsum_entropy(list(_naive_counts(right).values()))
            - _fsum_entropy(list(_naive_counts(zip(left, right)).values())))
    assert abs(src.gap_mutual_information(L, g) - want) <= 1e-12


def test_constant_sequence_has_positive_zero_entropy():
    src = EmpiricalSource("a" * 50)
    for h in (*src.block_entropies([3]), src.gap_mutual_information(2, 1)):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_empirical_measures_build_no_tables(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("built a word table")

    monkeypatch.setattr(infocore, "_words", no_tables)
    monkeypatch.setattr(measures, "empirical_block_distribution", no_tables)
    # the table entropies, which no module of the package imports
    for name in ("shannon_entropy", "mutual_information"):
        monkeypatch.setattr(infocore, name, no_tables)
    seq = sample(goldenmean(), 20_000, seed=3)
    src = EmpiricalSource(seq)
    curve = entropy_curve(src, 10)
    assert curve.exact is False
    assert curve.h_hat == pytest.approx(2 / 3, abs=0.02)
    grid = gap_mi_grid(src, (1, 2, 3, 8), (0, 4, 8))
    assert set(grid.missing) == {(8, 0), (8, 4), (8, 8)}
    assert grid.values[(1, 0)] == pytest.approx(0.2516, abs=0.01)
    # binary codes pass 63 bits at L = 63, and pair codes at L = 32
    tm = EmpiricalSource(sample(SubstitutionProcess(thue_morse()), 20_000,
                                seed=3))
    curve = entropy_curve(tm, 66)
    assert curve.h_hat == pytest.approx(0.0208, abs=0.001)
    assert all(d > 0 for d in curve.dH)
    grid = gap_mi_grid(tm, (32, 40), (0, 8, 16))
    assert not grid.missing
    assert all(grid.values[(40, g)] > grid.values[(32, g)] + 0.3
               for g in (0, 8, 16))


def _with_rank_codes(estimate):
    """estimate() with the window codes ranked before every step of
    the doubling, as past 63 bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infocore, "_passes_63_bits", lambda size, factor: True)
        return _refusal_or_value(estimate)


def _refusal_or_value(estimate):
    try:
        return estimate()
    except UndersampledError as e:
        return ("refused", str(e))


@given(_count_path_cases())
@settings(max_examples=80, deadline=None)
def test_rank_codes_match_digit_codes(case):
    s, L, g, seq = case
    src = EmpiricalSource(seq, Alphabet(str(a) for a in range(s)))
    estimates = (
        lambda: empirical_block_entropy(src, L),
        lambda: src.gap_mutual_information(L, g),
        lambda: list(src.block_distribution(L).probs.items()),
        lambda: list(src.joint_gap_distribution(L, g).probs.items()),
    )
    for estimate in estimates:
        assert _with_rank_codes(estimate) == _refusal_or_value(estimate)


def test_rank_codes_sort_the_windows_once_per_length(monkeypatch):
    src = EmpiricalSource(sample(SubstitutionProcess(thue_morse()), 20_000,
                                 seed=3))
    row_sorts, reranks = [], []

    def counted_rows(rows, s):
        row_sorts.append(rows.shape)
        return sort_rows(rows, s)

    def counted_reranks(size, factor):
        if passes(size, factor):
            reranks.append((size, factor))
            return True
        return False

    sort_rows, passes = infocore._distinct_rows, infocore._passes_63_bits
    monkeypatch.setattr(infocore, "_distinct_rows", counted_rows)
    monkeypatch.setattr(infocore, "_passes_63_bits", counted_reranks)
    grid = gap_mi_grid(src, (32, 40), (0, 8, 16))
    # no row sort; one integer sort per L, of its pair-width codes
    assert row_sorts == []
    assert reranks == [(2 ** 32, 2 ** 32), (2 ** 40, 2 ** 40)]
    monkeypatch.undo()
    assert (grid.values, grid.missing) == gap_mi_grid_oracle(
        src, grid.L_grid, grid.g_grid)


def _first_ranked_length(s):
    """The shortest window length whose s**L digit codes pass 63 bits."""
    L = 1
    while s ** L < 2 ** 63:
        L += 1
    return L


@st.composite
def _narrow_cases(draw):
    # 256 symbols are the most a uint8 array holds
    s = draw(st.sampled_from([2, 3, 255, 256, 257]))
    edge = _first_ranked_length(s)
    L = draw(st.sampled_from([1, 2, edge - 1, edge, edge + 1]))
    g = draw(st.integers(0, 4))
    n = draw(st.integers(2 * L + g + 1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a noisy periodic sequence, so that some cells are sampled, that
    # holds the top symbol somewhere
    period = rng.integers(0, s, size=draw(st.integers(1, 7)))
    flip = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    seq = np.where(flip, rng.integers(0, s, size=n), np.resize(period, n))
    seq[draw(st.integers(0, n - 1))] = s - 1
    return s, L, g, seq


@given(_narrow_cases())
@settings(max_examples=60, deadline=None)
def test_narrow_sequences_count_as_their_int64_copies(case):
    s, L, g, seq = case
    alphabet = Alphabet(str(a) for a in range(s))
    src = EmpiricalSource(seq, alphabet)
    assert src.arr.dtype == (np.uint8 if s <= 256 else np.uint16)
    wide = EmpiricalSource(seq, alphabet)
    wide.arr = src.arr.astype(np.int64)
    codes, size = window_codes(src.arr, L, s, 2 * L)
    wide_codes, wide_size = window_codes(wide.arr, L, s, 2 * L)
    assert size == wide_size and np.array_equal(codes, wide_codes)
    Ls = list(range(1, L + 1))
    assert src.block_entropies(Ls) == wide.block_entropies(Ls)
    assert empirical_block_entropy(src, L) == empirical_block_entropy(wide, L)
    grid = (sorted({1, L // 2 + 1, L}), sorted({0, g, g + 1}))
    assert (src.gap_mutual_informations(*grid)
            == wide.gap_mutual_informations(*grid))
    assert (_refusal_or_value(lambda: src.gap_mutual_information(L, g))
            == _refusal_or_value(lambda: wide.gap_mutual_information(L, g)))


def test_longer_lengths_grow_from_the_length_before(monkeypatch):
    src = EmpiricalSource(sample(SubstitutionProcess(thue_morse()), 20_000,
                                 seed=3))
    # 1, 2 and 3 are counted at the dense top, 3; the others grow by
    # appends, past the 63-bit re-rank between 62 and 63, or are coded
    # afresh where that takes fewer steps (30, 61, 90, 200)
    Ls = [1, 2, 3, 15, 16, 17, 30, 61, 62, 63, 64, 65, 66, 90, 200]
    coded = []

    def counted(arr, L, s, width=None):
        coded.append(L)
        return codes_of(arr, L, s, width)

    codes_of = measures.window_codes
    monkeypatch.setattr(measures, "window_codes", counted)
    got = src.block_entropies(Ls)
    assert coded == [3]
    monkeypatch.undo()
    assert got == [empirical_block_entropy(src, L) for L in Ls]


def _ternary_chain_sample():
    rows = {a + b: ((F(1, 2), F(1, 3), F(1, 6)) if a + b == "aa"
                    else (F(1, 4), F(1, 4), F(1, 2)))
            for a in "abc" for b in "abc"}
    chain = MarkovProcess.from_rows(rows, alphabet=Alphabet("abc"))
    return sample(chain, 10 ** 6, seed=1), chain.alphabet


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sequence_statistics_hold_narrow_arrays():
    # 10**6 ternary symbols: the uint8 symbols, uint32 length-12 codes
    # and the 3**12 int64 counts, not int64 copies of each
    seq, alphabet = _ternary_chain_sample()
    H, peak = _traced_peak(
        lambda: EmpiricalSource(seq, alphabet).block_entropies(range(1, 13)))
    assert len(H) == 12
    assert peak < 12 * 10 ** 6
    # the uint16 length-6 codes and the dense pair counts, counted one
    # block of pair codes at a time
    (values, missing), peak = _traced_peak(
        lambda: EmpiricalSource(seq, alphabet).gap_mutual_informations(
            range(1, 7), (4, 8, 16, 32)))
    assert len(values) + len(missing) == 24
    assert peak < 15 * 10 ** 6


def test_block_entropy_of_a_long_uniform_sequence_is_correctly_summed():
    arr = np.random.default_rng(11).integers(0, 3, 10 ** 6)
    L = 12
    m = arr.size - L + 1
    codes = sum(arr[i:i + m] * 3 ** (L - 1 - i) for i in range(L))
    counts = np.bincount(codes)
    want = _fsum_entropy(counts[counts > 0].tolist())
    [h] = EmpiricalSource(arr, Alphabet("abc")).block_entropies([L])
    assert abs(h - want) <= 1e-13


def test_grid_csv_layout():
    g = gap_mi_grid(PeriodicProcess.from_string("01"), [1, 2, 3], [0, 1, 2])
    lines = g.to_csv().strip().splitlines()
    assert lines[0] == "L,g,E_bits"
    assert len(lines) == 10
    assert lines[1] == "1,0,1"


# ── PMI verdicts ────────────────────────────────────────────────────


def test_verdict_periodic_converges_to_log_period():
    g = gap_mi_grid(PeriodicProcess.from_string("011"), [2, 3, 4], [2, 4, 8])
    report = pmi_verdict(g)
    assert report.verdict.kind == "converged"
    assert report.verdict.value == pytest.approx(math.log2(3), abs=1e-9)
    assert report.verdict.uncertainty <= 1e-9


def test_verdict_markov_converges_to_zero():
    g = gap_mi_grid(lopsided_chain(), [1, 2, 3], [16, 24, 48])
    report = pmi_verdict(g)
    assert report.verdict.kind == "converged"
    assert abs(report.verdict.value) <= 1e-6


def test_verdict_parity_diverges():
    g = gap_mi_grid(SubstitutionProcess(thue_morse()), [3, 5, 7, 9], [2, 4, 8])
    report = pmi_verdict(g)
    assert report.verdict.kind == "diverging"
    assert report.diagnostics["slope_top_half"] >= 0.05
    assert report.tail_values[9] == pytest.approx(3.043296, abs=1e-6)


def test_verdict_parity_diverges_at_long_gaps():
    g = gap_mi_grid(SubstitutionProcess(thue_morse()), range(1, 9),
                    (32, 64, 128, 256))
    assert not g.missing
    assert len(g.values) == 32
    assert pmi_verdict(g).verdict.kind == "diverging"


def test_verdict_requires_three_by_three():
    g = gap_mi_grid(PeriodicProcess.from_string("01"), [1, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        pmi_verdict(g)
    g = gap_mi_grid(PeriodicProcess.from_string("01"), [1, 2, 3], [0, 1])
    with pytest.raises(ValueError):
        pmi_verdict(g)


@pytest.mark.parametrize("name, value", [
    pytest.param("eps_g", math.nan, id="eps_g-nan"),
    pytest.param("eps_L", -1e-9, id="eps_L-negative"),
    pytest.param("delta", math.inf, id="delta-inf"),
])
def test_verdict_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
        name, value):
    g = gap_mi_grid(PeriodicProcess.from_string("00111"), [5, 6, 7],
                    [10, 20, 40])
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"
                                         f" >= 0, not {value}$"):
        pmi_verdict(g, **{name: value})
    assert pmi_verdict(g, **{name: 0}).verdict.kind == "converged"


def test_verdict_converged_value_bounded_by_tail_column():
    g = gap_mi_grid(PeriodicProcess.from_string("011"), [2, 3, 4], [2, 4, 8])
    report = pmi_verdict(g)
    tail_min = min(float(g.values[(L, 8)]) for L in (2, 3, 4))
    assert report.verdict.value <= tail_min + report.verdict.uncertainty + 1e-12


def test_verdict_empirical_matches_exact_kinds():
    per = PeriodicProcess.from_string("011")
    seq = sample(per, 100_000, seed=5)
    emp = pmi_verdict(gap_mi_grid(seq, [2, 3, 4], [2, 4, 8]))
    assert emp.verdict.kind == "converged"
    assert emp.verdict.value == pytest.approx(math.log2(3), abs=1e-3)

    seq = sample(goldenmean(), 300_000, seed=6)
    emp = pmi_verdict(gap_mi_grid(seq, [1, 2, 3], [16, 24, 48]))
    assert emp.verdict.kind == "converged"
    assert abs(emp.verdict.value) <= 1e-3


def test_verdict_json_roundtrip_fields():
    g = gap_mi_grid(PeriodicProcess.from_string("011"), [2, 3, 4], [2, 4, 8])
    d = pmi_verdict(g).to_json_dict()
    assert d["verdict"]["kind"] == "converged"
    assert {"L_grid", "g_grid", "cells", "missing"} <= set(d["grid"])
    assert len(d["grid"]["cells"]) == 9


def grid_of_tails(tails):
    """A float grid whose value at every gap is tails[L − 1]."""
    Ls, gs = tuple(range(1, len(tails) + 1)), (1, 2, 4)
    values = {(L, g): v for L, v in zip(Ls, tails) for g in gs}
    return GapMIGrid(L_grid=Ls, g_grid=gs, values=values, missing={},
                     exact=False, empirical=False)


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=9))
def test_verdict_slope_is_the_exact_least_squares_slope(tails):
    top = list(range(len(tails) // 2 + 1, len(tails) + 1))
    ys = [F(tails[L - 1]) for L in top]
    x_bar, y_bar = F(sum(top), len(top)), sum(ys) / len(top)
    want = (sum((x - x_bar) * (y - y_bar) for x, y in zip(top, ys))
            / sum((x - x_bar) ** 2 for x in top))
    got = pmi_verdict(grid_of_tails(tails)).diagnostics["slope_top_half"]
    assert got == float(want)


@pytest.mark.parametrize("v", [0.0, 1e-300, math.log2(3), 0.1, -7.25])
def test_verdict_slope_of_a_flat_tail_is_zero(v):
    for tails in ([1.0, v, v, v, v], [v] * 4):
        got = pmi_verdict(grid_of_tails(tails)).diagnostics["slope_top_half"]
        assert got == 0.0 and math.copysign(1, got) == 1


# ── efficiency and decay diagnostics ────────────────────────────────


def test_efficiency_basic_and_zero_convention():
    machine = types.SimpleNamespace(complexity=2.0)
    rep = efficiency(0.5, machine)
    assert rep == EfficiencyReport(excess_entropy=0.5, complexity_plus=2.0,
                                   e_plus=0.25, consistent=True)
    trivial = types.SimpleNamespace(complexity=0.0)
    rep = efficiency(0.0, trivial)
    assert rep.e_plus == 0 and rep.consistent


def test_efficiency_reports_inconsistency_unclamped():
    machine = types.SimpleNamespace(complexity=1.0)
    rep = efficiency(1.2, machine)
    assert rep.e_plus == pytest.approx(1.2)
    assert not rep.consistent


def test_geometric_decay_rate_exact_series():
    pts = [(g, 3.0 * 0.49 ** g) for g in range(4, 13)]
    assert geometric_decay_rate(pts) == pytest.approx(0.49, abs=1e-9)
    with pytest.raises(ValueError):
        geometric_decay_rate([(0, 1.0)])


def test_geometric_decay_rate_on_markov_grid():
    m = lopsided_chain()
    g = gap_mi_grid(m, [1, 2, 3], [4, 6, 8, 10, 12])
    pts = [(gg, float(g.values[(1, gg)])) for gg in (4, 6, 8, 10, 12)]
    assert geometric_decay_rate(pts) == pytest.approx(0.49, rel=0.10)

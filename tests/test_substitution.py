"""Substitution systems: fixed points, spectral data, exact factor tables.

Golden values below were derived independently before implementation:
matrices and eigenvectors by hand from the rewriting rules, factor
counts and frequencies by scanning long prefixes generated with the
bit-parity definition of the Thue-Morse sequence, block-entropy
increments from the exact frequency tables.
"""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persistinfo.infocore import (
    Alphabet,
    BlockDistribution,
    ExactBits,
    shannon_entropy,
)
from persistinfo.processes import WindowCapError
from persistinfo.substitution import (
    ReducibleMatrixError,
    Substitution,
    composition_matrix,
    factor_count_bound,
    factor_frequencies,
    factors_of_length,
    fibonacci,
    fixed_point_prefix,
    forbidden_words_check,
    induced_substitution,
    primitivity,
    shortcut_matrix,
    shortcut_power,
    thue_morse,
    thue_morse_block_entropy_increment,
)

F = Fraction


def tm_reference(n: int) -> str:
    # independent oracle: bit-parity definition
    return "".join(str(bin(i).count("1") & 1) for i in range(n))


# frozen: number of distinct length-n factors, n = 1..17, from scanning
# a 2^15-symbol bit-parity prefix
TM_COMPLEXITY = [2, 4, 6, 10, 12, 16, 20, 22, 24, 28, 32, 36, 40, 42, 44, 46, 48]

# frozen: exact block-entropy increments in bits, n = 2..17, derived from
# the exact frequency tables (heavy/light classes 1/(3*2^k), 1/(6*2^k))
TM_DH = {
    2: ExactBits(F(-2, 3), {3: F(1)}),
    3: ExactBits(F(2, 3)),
    4: ExactBits(F(2, 3)),
    5: ExactBits(F(1, 3)),
    6: ExactBits(F(1, 3)),
    7: ExactBits(F(1, 3)),
    8: ExactBits(F(1, 6)),
    9: ExactBits(F(1, 6)),
    10: ExactBits(F(1, 6)),
    11: ExactBits(F(1, 6)),
    12: ExactBits(F(1, 6)),
    13: ExactBits(F(1, 6)),
    14: ExactBits(F(1, 12)),
    15: ExactBits(F(1, 12)),
    16: ExactBits(F(1, 12)),
    17: ExactBits(F(1, 12)),
}

# frozen: the twelve length-5 factors and the 12x4 shortcut matrix rows
# (columns ordered 00, 01, 10, 11), keyed by factor
TM_L5_FACTORS = {
    "00101", "00110", "01001", "01011", "01100", "01101",
    "11010", "11001", "10110", "10100", "10011", "10010",
}
TM_SHORTCUT_5_3 = {
    "00101": (1, 0, 1, 1),
    "00110": (0, 1, 1, 0),
    "01001": (1, 1, 0, 1),
    "01011": (1, 0, 1, 1),
    "01100": (0, 1, 1, 0),
    "01101": (1, 1, 0, 1),
    "11010": (1, 1, 0, 1),
    "11001": (0, 1, 1, 0),
    "10110": (1, 0, 1, 1),
    "10100": (1, 1, 0, 1),
    "10011": (0, 1, 1, 0),
    "10010": (1, 0, 1, 1),
}


# ── construction and fixed points ─────────────────────────────────────────────


def test_thue_morse_prefix_matches_reference():
    tm = thue_morse()
    assert tm.alphabet.decode(fixed_point_prefix(tm, 12)) == "011010011001"
    assert tm.alphabet.decode(fixed_point_prefix(tm, 256)) == tm_reference(256)


def test_fixed_point_prefix_trivial_and_idempotent():
    tm = thue_morse()
    assert fixed_point_prefix(tm, 1) == (0,)
    w = fixed_point_prefix(tm, 100)
    expanded = tm.apply(w)
    assert expanded[:100] == w


def test_fibonacci_prefix():
    fib = fibonacci()
    assert fib.alphabet.decode(fixed_point_prefix(fib, 8)) == "01001010"


def test_rejects_nongrowing_rules():
    # image of 1 never grows: |zeta^n(1)| = 1 for all n, while
    # |zeta^n(0)| = n + 1 does; the message names 1, the real cause
    with pytest.raises(ValueError, match="'1'"):
        Substitution.from_strings({"0": "01", "1": "1"}, start="0")


def _grows_by_spectral_radius(rules) -> bool:
    """Reference growth rule: |zeta^n(a)| -> infinity iff the
    composition matrix restricted to the letters reachable from a has
    spectral radius above 1."""
    s = len(rules)
    M = np.zeros((s, s))
    for j, image in enumerate(rules):
        for a in image:
            M[a, j] += 1
    reach = (M > 0) | np.eye(s, dtype=bool)
    for _ in range(s):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    for a in range(s):
        idx = np.flatnonzero(reach[:, a])
        sub = M[np.ix_(idx, idx)]
        if max(abs(np.linalg.eigvals(sub))) <= 1 + 1e-9:
            return False
    return True


@st.composite
def _rule_sets(draw):
    s = draw(st.integers(1, 5))
    rules = [draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=3))
             for _ in range(s)]
    # the start letter's image must begin with it; letter 0 is the start
    rules[0][0] = 0
    return [tuple(r) for r in rules]


@settings(max_examples=400, deadline=None)
@given(_rule_sets())
def test_growth_check_matches_spectral_radius_rule(rules):
    alphabet = Alphabet(str(a) for a in range(len(rules)))
    try:
        subst = Substitution(alphabet, rules)
    except ValueError as exc:
        assert not _grows_by_spectral_radius(rules)
        # the named letter's images stay one letter long
        letter = alphabet.index(str(exc).split("'")[1])
        b = letter
        for _ in range(len(rules) + 1):
            assert len(rules[b]) == 1
            b = rules[b][0]
    else:
        assert _grows_by_spectral_radius(rules)
        # |zeta^n(a)| for every letter a, up to n = 3s: the shortest
        # image has doubled at least three times
        lengths = [1] * len(rules)
        for _ in range(3 * len(rules)):
            lengths = [sum(lengths[b] for b in r) for r in subst.rules]
        assert min(lengths) >= 8


def test_rejects_wrong_start():
    with pytest.raises(ValueError):
        Substitution.from_strings({"0": "10", "1": "01"}, start="0")


# ── composition matrices and Perron-Frobenius data ────────────────────────────


def test_composition_matrices():
    assert np.array_equal(composition_matrix(thue_morse()),
                          [[1, 1], [1, 1]])
    assert np.array_equal(composition_matrix(fibonacci()),
                          [[1, 1], [1, 0]])
    doubler = Substitution.from_strings({"0": "00"}, start="0")
    assert np.array_equal(composition_matrix(doubler), [[2]])
    assert not composition_matrix(doubler).flags.writeable


def test_pf_thue_morse_exact():
    pf = primitivity(composition_matrix(thue_morse()))
    assert pf.primitive and pf.period == 1
    assert pf.exact and pf.theta == F(2)
    assert pf.eigenvector == (F(1, 2), F(1, 2))


def test_pf_swap_matrix_periodic():
    pf = primitivity([[0, 1], [1, 0]])
    assert not pf.primitive
    assert pf.period == 2
    assert pf.theta == F(1)
    assert pf.eigenvector == (F(1, 2), F(1, 2))


def test_pf_fibonacci_float():
    pf = primitivity(composition_matrix(fibonacci()))
    assert pf.primitive and not pf.exact
    assert pf.theta == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)


def test_pf_rejects_reducible():
    with pytest.raises(ReducibleMatrixError):
        primitivity([[2, 1], [0, 2]])


# ── induced substitutions ─────────────────────────────────────────────────────


def test_induced_thue_morse_pairs():
    tm = thue_morse()
    z2 = induced_substitution(tm, 2)
    # lexicographic induced alphabet: 00, 01, 10, 11
    assert z2.alphabet.symbols == ("00", "01", "10", "11")
    rules = {
        lab: tuple(z2.alphabet.symbols[i] for i in z2.rules[z2.alphabet.index(lab)])
        for lab in z2.alphabet.symbols
    }
    assert rules == {
        "00": ("01", "10"),
        "01": ("01", "11"),
        "10": ("10", "00"),
        "11": ("10", "01"),
    }
    M2 = composition_matrix(z2)
    assert np.array_equal(
        M2,
        [[0, 0, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 0, 0]],
    )
    pf = primitivity(M2)
    assert pf.theta == F(2)
    assert pf.eigenvector == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))


def test_induced_column_sums_equal_first_letter_image_length():
    tm = thue_morse()
    for l in (2, 3, 4):
        zl = induced_substitution(tm, l)
        M = composition_matrix(zl)
        factors = factors_of_length(tm, l)
        for j, w in enumerate(factors):
            assert M[:, j].sum() == len(tm.rules[w[0]])


# ── factor frequencies ────────────────────────────────────────────────────────


def test_frequencies_pairs():
    table = factor_frequencies(thue_morse(), 2)
    assert table.exact
    assert table.freq == {
        (0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 3), (1, 1): F(1, 6)
    }


def test_pair_table_handed_out_cannot_change_the_next_one():
    table = factor_frequencies(thue_morse(), 2)
    table.freq[(0, 0)] = F(1, 2)
    del table.freq[(1, 1)]
    again = factor_frequencies(thue_morse(), 2)
    assert again.freq == {
        (0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 3), (1, 1): F(1, 6)
    }


def test_frequencies_length_five():
    tm = thue_morse()
    table = factor_frequencies(tm, 5)
    assert len(table.factors) == 12
    assert {tm.alphabet.decode(w) for w in table.factors} == TM_L5_FACTORS
    assert set(table.freq.values()) == {F(1, 12)}


def test_frequencies_single_letters():
    table = factor_frequencies(thue_morse(), 1)
    assert table.freq == {(0,): F(1, 2), (1,): F(1, 2)}


def test_frequency_class_structure():
    # lengths 2^k+1 .. 2^(k+1) only ever use 1/(3*2^k) and 1/(6*2^k)
    tm = thue_morse()
    for l, k in ((3, 1), (4, 1), (6, 2), (9, 3)):
        freqs = set(factor_frequencies(tm, l).freq.values())
        assert freqs <= {F(1, 3 * 2 ** k), F(1, 6 * 2 ** k)}


def test_frequencies_require_primitive():
    swap = Substitution.from_strings({"0": "01", "1": "11"}, start="0")
    # reducible: 0 never reappears; frequencies undefined
    with pytest.raises(ReducibleMatrixError):
        factor_frequencies(swap, 2)


def test_non_growing_rules_raise_rather_than_hang():
    # a rule set that never grows is refused at construction, so no
    # power search or fixed-point build can be handed one
    with pytest.raises(ValueError, match="'0'"):
        Substitution(Alphabet(["0"]), [(0,)])


def test_frequency_refinement_consistency():
    # exact marginals from length 1 up, across dyadic boundaries, where
    # the shortcut power steps up
    tm = thue_morse()
    for l in (1, 2, 3, 4, 31, 32, 33, 64, 65):
        coarse = factor_frequencies(tm, l).freq
        fine = factor_frequencies(tm, l + 1).freq
        right: dict = {}
        left: dict = {}
        for w, p in fine.items():
            right[w[:-1]] = right.get(w[:-1], F(0)) + p
            left[w[1:]] = left.get(w[1:], F(0)) + p
        assert right == coarse
        assert left == coarse


def test_fibonacci_short_tables_are_within_an_ulp():
    # closed forms in sqrt(5): P(0) = (sqrt5 - 1)/2, P(1) = P(01) = P(10)
    # = (3 - sqrt5)/2 and P(00) = sqrt5 - 2, to 60 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        r5 = decimal.Decimal(5).sqrt()
        want = {"0": (r5 - 1) / 2, "1": (3 - r5) / 2, "00": r5 - 2,
                "01": (3 - r5) / 2, "10": (3 - r5) / 2}
        fib = fibonacci()
        for l in (1, 2):
            table = factor_frequencies(fib, l)
            assert {fib.alphabet.decode(w) for w in table.factors} == {
                k for k in want if len(k) == l}
            for w, p in table.freq.items():
                err = abs(decimal.Decimal(p) - want[fib.alphabet.decode(w)])
                assert err <= decimal.Decimal(math.ulp(p))


def test_frequencies_match_long_prefix_counts():
    # spectral route vs plain counting on a 2^18-symbol prefix
    from persistinfo.infocore import empirical_block_distribution

    tm = thue_morse()
    emp = empirical_block_distribution(tm_reference(1 << 18), 6)
    table = factor_frequencies(tm, 6)
    tv = sum(
        abs(float(table.freq.get(w, F(0))) - emp.probs.get(w, 0.0))
        for w in set(table.freq) | set(emp.probs)
    ) / 2
    assert tv <= 0.01


# ── shortcut matrix ───────────────────────────────────────────────────────────


def test_shortcut_worked_example_l5_p3():
    tm = thue_morse()
    sc = shortcut_matrix(tm, 5, 3)
    assert [tm.alphabet.decode(w) for w in sc.factors_2] == ["00", "01", "10", "11"]
    rows = {
        tm.alphabet.decode(w): tuple(int(x) for x in sc.matrix[i])
        for i, w in enumerate(sc.factors_l)
    }
    assert rows == TM_SHORTCUT_5_3
    # unnormalized pair eigenvector (1,2,2,1)/6 maps to (4,...,4)/24
    assert sc.v2 == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    image = sc.matrix @ np.array([1, 2, 2, 1])
    assert list(image) == [4] * 12
    assert sc.v_l == tuple([F(1, 12)] * 12)
    assert sc.v_l == primitivity(
        composition_matrix(induced_substitution(tm, 5))).eigenvector


def test_shortcut_commutation_identity():
    tm = thue_morse()
    sc = shortcut_matrix(tm, 5, 3)
    M2 = composition_matrix(induced_substitution(tm, 2))
    M5 = composition_matrix(induced_substitution(tm, 5))
    assert np.array_equal(sc.matrix @ M2, M5 @ sc.matrix)


def test_shortcut_on_pairs_is_matrix_power():
    tm = thue_morse()
    M2 = composition_matrix(induced_substitution(tm, 2))
    sc = shortcut_matrix(tm, 2, 3)
    assert np.array_equal(sc.matrix, np.linalg.matrix_power(M2, 3))


@pytest.mark.parametrize("p", (1, 2, 3))
def test_shortcut_at_length_1_gives_the_letter_table(p):
    # the length-1 windows of ζ^p(α) tally its letters
    tm = shortcut_matrix(thue_morse(), 1, p)
    assert tm.factors_l == ((0,), (1,))
    assert tm.v_l == (F(1, 2), F(1, 2)) and tm.exact
    fib = shortcut_matrix(fibonacci(), 1, p)
    assert not fib.exact
    assert sum(fib.v_l) == pytest.approx(1.0, abs=1e-12)


def test_shortcut_rejects_small_p():
    with pytest.raises(ValueError):
        shortcut_matrix(thue_morse(), 9, 2)  # min |zeta^2(a)| = 4 < 8


def _image(subst, letter, power):
    """ζ^power(letter), the rules applied power times."""
    w = (letter,)
    for _ in range(power):
        w = subst.apply(w)
    return w


def _induced_oracle(subst, l):
    """Perron eigenvector of the induced substitution on length-l
    factors (rows in lex order), the route the shortcut replaces."""
    return primitivity(composition_matrix(induced_substitution(subst, l))).eigenvector


@pytest.mark.parametrize("l", range(2, 13))
def test_shortcut_equivalence_minimal_p(l):
    tm = thue_morse()
    p = 1
    while min(len(_image(tm, a, p)) for a in range(2)) < l - 1:
        p += 1
    assert shortcut_power(tm, l) == p
    sc = shortcut_matrix(tm, l, p)
    oracle = _induced_oracle(tm, l)
    assert sc.exact
    assert sc.v_l == oracle
    table = factor_frequencies(tm, l)
    assert table.exact
    assert tuple(table.freq[w] for w in table.factors) == oracle


def test_shortcut_equivalence_fibonacci():
    fib = fibonacci()
    for l in range(2, 25):
        table = factor_frequencies(fib, l)
        assert not table.exact
        got = [table.freq[w] for w in table.factors]
        assert got == pytest.approx(list(_induced_oracle(fib, l)), abs=1e-12)
        assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_factor_count_bound_covers_factors():
    for subst in (thue_morse(), fibonacci()):
        for n in range(1, 41):
            assert (len(factors_of_length(subst, n))
                    <= factor_count_bound(subst, n))


def test_factor_count_bound_at_the_window_cap():
    # n * bound <= 2**26 up to n = 4096 (Thue-Morse) and 3789 (Fibonacci)
    cap = 1 << 26
    for subst, n_max in ((thue_morse(), 4096), (fibonacci(), 3789)):
        assert n_max * factor_count_bound(subst, n_max) <= cap
        assert (n_max + 1) * factor_count_bound(subst, n_max + 1) > cap


def test_factor_tables_refuse_windows_past_the_cap():
    tm = thue_morse()
    bound = factor_count_bound(tm, 4097)
    with pytest.raises(WindowCapError) as e:
        factors_of_length(tm, 4097)
    assert str(e.value) == (f"window of length 4097 may have up to {bound}"
                            f" factors, {4097 * bound} letters in all;"
                            " cap is 2**26")
    with pytest.raises(WindowCapError):
        factor_frequencies(fibonacci(), 3790)
    # images of 2**40 letters are refused before any is built
    with pytest.raises(WindowCapError):
        shortcut_matrix(tm, 5, 40)


# ── complexity function and entropy increments ────────────────────────────────


def test_complexity_against_frozen_table_and_rescan():
    tm = thue_morse()
    computed = [len(factors_of_length(tm, n)) for n in range(1, 18)]
    assert computed == TM_COMPLEXITY
    # independent scan of a bit-parity prefix
    ref = tm_reference(1 << 15)
    rescan = [len({ref[i:i + n] for i in range(len(ref) - n + 1)})
              for n in range(1, 18)]
    assert computed == rescan


def test_complexity_increments_by_ranges():
    # p(n+1) - p(n) = 4 for 2^k+1 <= n <= 3*2^(k-1), else 2, k >= 1
    for n in range(3, 17):
        k = (n - 1).bit_length() - 1
        expected = 4 if n <= 3 * 2 ** (k - 1) else 2
        assert TM_COMPLEXITY[n] - TM_COMPLEXITY[n - 1] == expected


def test_constant_substitution_complexity():
    doubler = Substitution.from_strings({"0": "00"}, start="0")
    assert [len(factors_of_length(doubler, n)) for n in (1, 3, 7)] == [1, 1, 1]
    # 1 never occurs in the fixed point 000..., so 11 is no factor
    split = Substitution.from_strings({"0": "00", "1": "11"}, start="0")
    assert [len(factors_of_length(split, n)) for n in (1, 3, 7)] == [1, 1, 1]


ABC_RULES = {"a": "abc", "b": "ac", "c": "b"}


@pytest.mark.parametrize("subst", [
    thue_morse(), fibonacci(), Substitution.from_strings(ABC_RULES, start="a"),
], ids=["tm", "fib", "abc"])
def test_factor_sets_match_prefix_rescan(subst):
    # every factor of length n <= 64 of these three occurs within the
    # first 7n letters, so a 2^13-letter prefix holds them all
    prefix = bytes(fixed_point_prefix(subst, 1 << 13))
    for n in range(1, 65):
        rescan = sorted({prefix[i:i + n] for i in range(len(prefix) - n + 1)})
        assert [bytes(w) for w in factors_of_length(subst, n)] == rescan


def test_entropy_increment_closed_form():
    for n, expected in TM_DH.items():
        assert thue_morse_block_entropy_increment(n) == expected
    with pytest.raises(ValueError):
        thue_morse_block_entropy_increment(1)


def test_entropy_increment_agrees_with_factor_tables():
    tm = thue_morse()
    H = {n: shannon_entropy(BlockDistribution(
        tm.alphabet, n, factor_frequencies(tm, n).freq)) for n in range(1, 18)}
    for n in range(2, 18):
        assert H[n] - H[n - 1] == thue_morse_block_entropy_increment(n)


# ── forbidden words ───────────────────────────────────────────────────────────


def test_forbidden_words():
    assert forbidden_words_check("0110100110010110")
    assert not forbidden_words_check("000")
    assert not forbidden_words_check("110101011")
    assert forbidden_words_check(tm_reference(1 << 14))
    tm = thue_morse()
    assert forbidden_words_check(fixed_point_prefix(tm, 1 << 14))


# ── structural properties ─────────────────────────────────────────────────────


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_letter_counts_transform_linearly(bits):
    # occurrence counts obey L(zeta(B)) = M @ L(B)
    for subst in (thue_morse(), fibonacci()):
        w = tuple(bits)
        M = composition_matrix(subst)
        counts = np.array([w.count(a) for a in range(2)])
        image = subst.apply(w)
        image_counts = np.array([image.count(a) for a in range(2)])
        assert np.array_equal(image_counts, M @ counts)


@pytest.mark.parametrize("l", range(2, 7))
def test_induced_matrix_keeps_leading_eigenvalue(l):
    tm, fib = thue_morse(), fibonacci()
    tm_l = composition_matrix(induced_substitution(tm, l))
    assert primitivity(tm_l).theta == F(2)
    got = primitivity(composition_matrix(induced_substitution(fib, l))).theta
    assert got == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)


def test_growth_ratio_approaches_leading_eigenvalue():
    tm, fib = thue_morse(), fibonacci()
    for subst, theta in ((tm, 2.0), (fib, (1 + 5 ** 0.5) / 2)):
        a = len(_image(subst, 0, 20))
        b = len(_image(subst, 0, 21))
        assert b / a == pytest.approx(theta, abs=1e-6)

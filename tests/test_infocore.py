"""Entropy/MI primitives: frozen oracle values and algebraic properties.

Oracle constants in this file were derived by hand from the defining
formulas (entropy of explicitly listed probability tables, joints of
two-phase processes) and are frozen; the implementation must reproduce
them, not the other way around.
"""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from persistinfo import sequence
from persistinfo.infocore import (
    BlockDistribution,
    ExactBits,
    SMOOTH_FACTOR_BOUND,
    JointBlockDistribution,
    _entropy_of_counts,
    _factor_smooth,
    _NotSmooth,
    empirical_block_distribution,
    entropy_of_probs,
    log2_of,
    marginalize_gap,
    mutual_information,
    shannon_entropy,
)
from persistinfo.sequence import (
    Alphabet,
    _BLOCK,
    _code_counts,
    _coerce_sequence,
    _count_dtype,
    _distinct_counts,
)

from oracles import (
    FractionExactBits,
    empirical_block_entropy,
    left_marginal,
    right_marginal,
    two_array_entropy_of_counts,
)

BITS = Alphabet("01")

F = Fraction


def thue_morse_prefix(n: int) -> str:
    # independent oracle: bit-parity definition, no package machinery
    return "".join(str(bin(i).count("1") & 1) for i in range(n))


# ── ExactBits: symbolic values a + sum_p c_p * log2(p) ────────────────────────


def test_exactbits_log2_of_small_rationals():
    assert log2_of(1) == ExactBits(F(0))
    assert log2_of(8) == ExactBits(F(3))
    assert log2_of(F(1, 2)) == ExactBits(F(-1))
    assert log2_of(3) == ExactBits(F(0), {3: F(1)})
    assert log2_of(F(1, 6)) == ExactBits(F(-1), {3: F(-1)})
    assert log2_of(12) == ExactBits(F(2), {3: F(1)})
    assert log2_of(F(9, 5)) == ExactBits(F(0), {3: F(2), 5: F(-1)})


def test_exactbits_arithmetic_and_equality():
    a = log2_of(6)            # 1 + log2(3)
    b = log2_of(F(3, 2))      # -1 + log2(3)
    assert a - b == ExactBits(F(2))
    assert a + b == ExactBits(F(0), {3: F(2)})
    assert 2 * b == b + b
    assert -(a - a) == ExactBits(F(0))
    assert a / 2 == ExactBits(F(1, 2), {3: F(1, 2)})
    # zero coefficients are dropped, so equality is structural
    assert a - log2_of(3) == ExactBits(F(1))
    assert ExactBits(F(1)) == 1
    assert ExactBits(F(1, 3)) == F(1, 3)
    assert ExactBits(F(0), {3: F(1)}) != 1


def test_exactbits_with_a_float_gives_that_float():
    # an exact value meets a float as a Fraction does: the result is the
    # float computed from float(x), bit for bit, from either side
    x = ExactBits(F(1, 3), {3: F(1)})
    for got, want in ((x + 0.25, float(x) + 0.25),
                      (0.25 + x, 0.25 + float(x)),
                      (x - 0.25, float(x) - 0.25),
                      (0.25 - x, 0.25 - float(x)),
                      (x * 0.5, float(x) * 0.5),
                      (0.5 * x, 0.5 * float(x)),
                      (x / 0.5, float(x) / 0.5)):
        assert type(got) is float
        assert got.hex() == want.hex()
    # exact operands stay exact
    assert x - F(1, 3) == log2_of(3)


def test_exactbits_float_and_log3_pair():
    v = ExactBits(F(1, 3), {3: F(1)})
    assert float(v) == pytest.approx(1.9182958340544896, abs=1e-15)
    # the value a + b·log₂3 is held as a and the (prime, b) pairs
    assert (v.rational, v.logs) == (F(1, 3), ((3, F(1)),))
    assert ExactBits(F(0), {5: F(1)}).logs == ((5, F(1)),)
    w = ExactBits(F(7, 2))
    assert (w.rational, w.logs) == (F(7, 2), ())


def test_exactbits_without_logs_equals_a_float_of_its_value():
    # as Fraction(1, 2) == 0.5; the hashes already agree
    assert F(1, 2) == 0.5
    assert ExactBits(F(1, 2)) == 0.5 and 0.5 == ExactBits(F(1, 2))
    assert hash(ExactBits(F(1, 2))) == hash(0.5)
    assert ExactBits(F(1, 3)) != 1 / 3
    # a log term is irrational: no float equals it
    assert log2_of(3) != float(log2_of(3))


PRIMES = (3, 5, 7, 11, 13)
RATIONALS = st.builds(F, st.integers(-40, 40), st.integers(1, 36))
EXACT_ARGS = st.tuples(RATIONALS, st.dictionaries(st.sampled_from(PRIMES),
                                                  RATIONALS, max_size=4))


def assert_matches_oracle(got, want):
    assert type(got) is ExactBits
    assert (got.rational, got.logs) == (want.rational, want.logs)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert float(got).hex() == float(want).hex()


@given(EXACT_ARGS, EXACT_ARGS,
       st.one_of(st.integers(-6, 6), RATIONALS))
@settings(max_examples=300, deadline=None)
def test_exactbits_matches_fraction_oracle(a, b, k):
    # integers over one denominator against one Fraction per coefficient
    x, y = ExactBits(*a), ExactBits(*b)
    ox, oy = FractionExactBits(*a), FractionExactBits(*b)
    pairs = [(x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy),
             (y - x, oy - ox), (-x, -ox), (x + k, ox + k), (k + x, k + ox),
             (x - k, ox - k), (k - x, k - ox), (x * k, ox * k),
             (k * x, k * ox), (x - x, ox - ox)]
    if k:
        pairs.append((x / k, ox / k))
    for got, want in pairs:
        assert_matches_oracle(got, want)
        assert (got == k) == (want == k)
    for got, want in pairs:
        for other, other_want in pairs:
            assert (got == other) == (want == other_want)


@given(EXACT_ARGS, st.one_of(st.integers(-6, 6), RATIONALS, EXACT_ARGS),
       st.floats())
@example((F(0), {}), 0, -0.0)
@example((F(1, 3), {3: F(-1, 2)}), (F(0), {3: F(1)}), 0.0)
@settings(max_examples=300, deadline=None)
def test_exactbits_subtraction_adds_the_negation(a, k, b):
    x, ox = ExactBits(*a), FractionExactBits(*a)
    y, oy = ((ExactBits(*k), FractionExactBits(*k)) if isinstance(k, tuple)
             else (k, k))
    assert_matches_oracle(x - y, ox - oy)
    assert_matches_oracle(y - x, oy - ox)
    # a float result rounds as float(x) - b and b - float(x) do; only
    # -0.0 - x with float(x) == 0 reads +0.0, as -0.0 + 0.0 does
    assert repr(x - b) == repr(float(x) - b)
    if b == 0 and float(x) == 0:
        assert repr(b - x) == "0.0"
    else:
        assert repr(b - x) == repr(b - float(x))
    for bad in ("1", None, [1], 1j):
        with pytest.raises(TypeError):
            x - bad
        with pytest.raises(TypeError):
            bad - x


# ── shannon_entropy ───────────────────────────────────────────────────────────


def test_entropy_uniform_three_bits():
    probs = {w: F(1, 8) for w in product(range(2), repeat=3)}
    d = BlockDistribution(BITS, 3, probs)
    assert shannon_entropy(d) == ExactBits(F(3))
    assert float(shannon_entropy(d)) == 3.0


def test_entropy_point_mass():
    d = BlockDistribution(BITS, 2, {(0, 1): F(1)})
    assert shannon_entropy(d) == ExactBits(F(0))


def test_entropy_thue_morse_pair_table():
    # hand derivation: H = 2*(1/6)log2 6 + 2*(1/3)log2 3 = 1/3 + log2 3
    d = BlockDistribution(
        BITS,
        2,
        {(0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 3), (1, 1): F(1, 6)},
    )
    h = shannon_entropy(d)
    assert h == ExactBits(F(1, 3), {3: F(1)})
    assert (h.rational, h.logs) == (F(1, 3), ((3, F(1)),))
    assert float(h) == pytest.approx(1.918295834054490, abs=1e-12)


def test_entropy_float_backend():
    d = BlockDistribution(BITS, 1, {(0,): 0.25, (1,): 0.75})
    h = shannon_entropy(d)
    assert isinstance(h, float)
    assert h == pytest.approx(2 - 0.75 * 1.584962500721156, abs=1e-12)


def test_entropy_zero_probability_entries_are_skipped():
    d = BlockDistribution(BITS, 1, {(0,): F(1), (1,): F(0)})
    assert shannon_entropy(d) == ExactBits(F(0))


def entropy_per_entry_oracle(probs):
    """Reference exact entropy: one ExactBits per entry; any entry that
    does not factor over small primes turns the table to floats,
    −Σ p·log₂ p summed pairwise by NumPy in table order."""
    try:
        total = ExactBits(F(0))
        for p in probs:
            if p == 0:
                continue
            total = total - F(p) * log2_of(p)
        return total
    except ValueError:
        p = np.array([float(x) for x in probs])
        p = p[p > 0.0]
        return float(0.0 - (p * np.log2(p)).sum())


def assert_same_entropy(got, want):
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


def test_entropy_matches_oracle_on_product_table():
    # 3^8 words sharing 45 distinct probabilities
    row = (F(1, 2), F(1, 3), F(1, 6))
    d = BlockDistribution(Alphabet("abc"), 8, {
        w: math.prod(row[a] for a in w) for w in product(range(3), repeat=8)})
    assert len(set(d.probs.values())) == 45
    assert_same_entropy(shannon_entropy(d),
                        entropy_per_entry_oracle(d.probs.values()))


def test_entropy_of_rough_table_falls_back_like_oracle():
    # 100000007 is a prime above SMOOTH_FACTOR_BOUND ** 2
    big = 100000007
    probs = [F(1, 3), F(1, 3), F(1, 3 * big), F(big - 1, 3 * big)]
    want = entropy_per_entry_oracle(probs)
    assert isinstance(want, float)
    assert_same_entropy(entropy_of_probs(probs), want)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=60),
       st.lists(st.integers(10 ** 8, 10 ** 10), max_size=2),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_entropy_matches_per_entry_oracle(small, rough, rnd):
    # small weights repeat values; rough ones are often not smooth
    weights = small + rough
    rnd.shuffle(weights)
    total = sum(weights)
    if total == 0:
        return
    probs = [F(w, total) for w in weights]
    assert_same_entropy(entropy_of_probs(probs),
                        entropy_per_entry_oracle(probs))


def test_float_entropy_of_one_word_is_positive_zero():
    # −Σ over a point mass would be −0.0, printed as "-0"
    for h in (entropy_of_probs([1.0, 0.0]),
              shannon_entropy(BlockDistribution(BITS, 1, {(1,): 1.0}))):
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0


def test_table_and_count_routes_give_one_sequence_entropy():
    from persistinfo.measures import EmpiricalSource
    from persistinfo.processes import MarkovProcess, sample
    m = MarkovProcess.from_rows(
        {a + b: (F(1, 2), F(1, 3), F(1, 6)) if a + b == "aa"
         else (F(1, 4), F(1, 4), F(1, 2)) for a in "abc" for b in "abc"},
        alphabet=Alphabet("abc"))
    src = EmpiricalSource(sample(m, 20_000, seed=101), m.alphabet)
    for L in range(1, 9):
        assert shannon_entropy(src.block_distribution(L)) \
            == empirical_block_entropy(src, L)


def trial_division_oracle(n, bound=10_000):
    """The factoring routine before the prime sieve: trial division by
    every integer below the bound."""
    out = {}
    for p in range(2, bound):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n >= bound * bound:
            raise _NotSmooth(n)
        out[n] = out.get(n, 0) + 1
    return out


def _factor_or_refusal(factor, n):
    try:
        return factor(n)
    except _NotSmooth as exc:
        return ("not smooth", exc.args)


def test_large_cofactors_are_stripped_by_gcds_like_trial_division():
    # n still at least 10^8 at the 65th prime (313) takes the gcd route:
    # factors on both sides of 313, repeated, with and without a rough
    # or a prime cofactor; a refusal names the same cofactor
    rng = random.Random(7)
    primes = [p for p in range(2, 10_000)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    cases = [313 ** 2 * 10007, 317 * 100000007, 311 ** 3 * 100000007,
             307 * 313 * 9967 * 9973, 2 ** 40 * 313 * 10009 ** 2,
             313 * 317 * 10007 * 10009]
    for _ in range(200):
        n = math.prod(rng.choice(primes) ** rng.randint(1, 3)
                      for _ in range(rng.randint(1, 5)))
        cases.append(n * rng.choice((1, 10007, 100000007, 10007 * 10009)))
    for n in cases:
        assert _factor_or_refusal(_factor_smooth, n) \
            == _factor_or_refusal(trial_division_oracle, n), n
    with pytest.raises(ValueError, match=r"cofactor 100000007\)"):
        log2_of(317 * 100000007)


def test_factor_cache_returns_one_read_only_factorization():
    q = F(45, 28)
    assert log2_of(q) == log2_of(q)
    f = _factor_smooth(360)
    assert f is _factor_smooth(360)
    assert f == {2: 3, 3: 2, 5: 1}
    with pytest.raises(TypeError):
        f[7] = 1
    assert _factor_smooth(360) == {2: 3, 3: 2, 5: 1}


def test_rough_integers_are_refused_on_every_call():
    # lru_cache does not cache an exception: a rough integer is divided
    # again, and refused again, on each call
    n = 3 * 100000007
    before = _factor_smooth.cache_info()
    for _ in range(2):
        with pytest.raises(_NotSmooth):
            _factor_smooth(n)
    after = _factor_smooth.cache_info()
    assert after.misses == before.misses + 2
    assert after.hits == before.hits


def test_factor_smooth_matches_trial_division_oracle():
    assert SMOOTH_FACTOR_BOUND == 10_000
    for n in range(1, 200_001):
        assert _factor_smooth(n) == trial_division_oracle(n), n
    # semiprimes around the bound squared: 9973 and 9967 are the
    # largest primes below the bound, 10007 and 10009 the smallest above
    primes = (9949, 9967, 9973, 10007, 10009, 10037)
    cases = [p * q for p in primes for q in primes]
    cases += [2 * 10007 * 10009, 9973 ** 2 * 10007, 10 ** 8 - 1, 10 ** 8,
              10 ** 8 + 1, 100000007, 3 * 100000007]
    for n in cases:
        assert _factor_or_refusal(_factor_smooth, n) \
            == _factor_or_refusal(trial_division_oracle, n), n


# ── mutual_information ────────────────────────────────────────────────────────


def test_mi_product_is_zero():
    left = {(0,): F(1, 4), (1,): F(3, 4)}
    probs = {
        (a, b): pa * pb
        for a, pa in left.items()
        for b, pb in left.items()
    }
    j = JointBlockDistribution(BITS, 1, 0, 1, probs)
    assert mutual_information(j) == ExactBits(F(0))


def test_mi_perfect_copy_equals_entropy():
    probs = {((0,), (0,)): F(1, 4), ((1,), (1,)): F(3, 4)}
    j = JointBlockDistribution(BITS, 1, 0, 1, probs)
    assert mutual_information(j) == shannon_entropy(left_marginal(j))


def test_mi_period_two_single_symbols():
    # two-phase joint at even gap: {(0,1),(1,0)} each 1/2 -> 1 bit
    j = JointBlockDistribution(
        BITS, 1, 0, 1, {((0,), (1,)): F(1, 2), ((1,), (0,)): F(1, 2)}
    )
    assert mutual_information(j) == ExactBits(F(1))


# ── marginalize_gap ───────────────────────────────────────────────────────────


def test_marginalize_uniform_pairs():
    window = BlockDistribution(
        BITS, 2, {w: F(1, 4) for w in product(range(2), repeat=2)}
    )
    j = marginalize_gap(window, 1, 0)
    assert j.probs == {
        ((a,), (b,)): F(1, 4) for a in range(2) for b in range(2)
    }


def test_marginalize_period_two_gap_one():
    window = BlockDistribution(
        BITS, 3, {(0, 1, 0): F(1, 2), (1, 0, 1): F(1, 2)}
    )
    j = marginalize_gap(window, 1, 1)
    assert j.gap == 1
    assert j.probs == {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)}


def test_marginalize_gap_zero_is_reshape():
    probs = {
        (0, 0, 1, 1): F(1, 2),
        (1, 0, 0, 1): F(1, 3),
        (0, 1, 1, 0): F(1, 6),
    }
    window = BlockDistribution(BITS, 4, probs)
    j = marginalize_gap(window, 2, 0)
    assert j.probs == {(w[:2], w[2:]): p for w, p in probs.items()}
    assert left_marginal(j).probs == {
        (0, 0): F(1, 2), (1, 0): F(1, 3), (0, 1): F(1, 6)
    }


def test_marginalize_rejects_bad_lengths():
    window = BlockDistribution(BITS, 2, {(0, 1): F(1)})
    with pytest.raises(ValueError):
        marginalize_gap(window, 2, 1)


# ── empirical_block_distribution ──────────────────────────────────────────────


def test_empirical_two_symbol_windows():
    d = empirical_block_distribution("0101", 2)
    # count / total, correctly rounded
    assert d.probs == {(0, 1): 2 / 3, (1, 0): 1 / 3}


def test_empirical_windows_past_63_bits_come_counted_in_lex_order():
    # 8 letters of a 300-letter alphabet overflow 63-bit codes, so the
    # windows are sorted as rows of two-byte letters; 1 < 256 must hold
    rng = np.random.default_rng(3)
    arr = np.concatenate([rng.integers(0, 300, 500),
                          np.tile([299, 0, 256, 1], 100)])
    alphabet = Alphabet(str(i) for i in range(300))
    d = empirical_block_distribution(arr, 8, alphabet=alphabet)
    want = Counter(tuple(arr[i:i + 8].tolist()) for i in range(arr.size - 7))
    assert list(d.weights) == sorted(want)
    assert d.weights == {w: k / (arr.size - 7) for w, k in want.items()}


def test_empirical_degenerate():
    d = empirical_block_distribution("0000", 1, alphabet=BITS)
    assert d.probs == {(0,): 1.0}


def test_empirical_thue_morse_single_symbols():
    d = empirical_block_distribution(thue_morse_prefix(64), 1)
    assert abs(d.probs[(0,)] - 0.5) <= 1 / 64


def test_empirical_rejects_short_sequence():
    with pytest.raises(ValueError):
        empirical_block_distribution("01", 3)


# ── distribution validation ───────────────────────────────────────────────────


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError):
        BlockDistribution(BITS, 1, {(0,): F(1, 2), (1,): F(1, 4)})


def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        BlockDistribution(BITS, 1, {(0,): F(3, 2), (1,): F(-1, 2)})


@pytest.mark.parametrize("probs, denominator, message", [
    ({(0,): 1.5, (1,): -0.5}, None, "negative probability"),
    ({(0,): 1.5, (1,): 0.5}, 2, "exact weights must be integers"),
    # NaN fails every comparison, so neither the sign nor the sum check
    # sees it
    ({(0,): float("nan"), (1,): 0.5}, None, "probability of word (0,) is NaN"),
    ({(0,): 1.0, (1,): float("nan")}, None, "probability of word (1,) is NaN"),
])
def test_distribution_refusals_name_the_cause(probs, denominator, message):
    with pytest.raises(ValueError) as e:
        BlockDistribution(BITS, 1, probs, denominator)
    assert str(e.value) == message


def test_log2_of_refuses_a_nonpositive_rational():
    for q in (0, F(-1, 3)):
        with pytest.raises(ValueError) as e:
            log2_of(q)
        assert str(e.value) == "log2 of a nonpositive rational"


def test_distribution_rejects_wrong_length_word():
    with pytest.raises(ValueError):
        BlockDistribution(BITS, 2, {(0,): F(1)})


def test_distribution_names_the_offending_word():
    probs = {(0, 0): F(1, 2), (0, 1): F(1, 4), (0, 2): F(1, 4)}
    with pytest.raises(ValueError, match=r"word \(0, 2\) leaves the alphabet"):
        BlockDistribution(BITS, 2, probs)
    with pytest.raises(ValueError, match=r"word \(1,\) has length 1"):
        BlockDistribution(BITS, 2, {(0, 0): F(1, 2), (1,): F(1, 2)})
    with pytest.raises(ValueError, match="wrong block lengths"):
        JointBlockDistribution(BITS, 1, 0, 1, {((0,), (1, 1)): F(1)})


def test_large_uniform_float_table_is_accepted():
    # 3^12 entries of 1/3^12: a naive running sum drifts to
    # 0.9999999999917 and used to fail the 1e-12 tolerance
    words = list(product(range(3), repeat=12))
    probs = dict.fromkeys(words, 1 / len(words))
    d = BlockDistribution(Alphabet("abc"), 12, probs)
    assert d.exact is False
    assert shannon_entropy(d) == pytest.approx(12 * math.log2(3), abs=1e-9)
    probs[words[0]] += 1e-11
    with pytest.raises(ValueError, match="probabilities sum to"):
        BlockDistribution(Alphabet("abc"), 12, probs)


# ── sequence parsing ──────────────────────────────────────────────────────────


@pytest.mark.parametrize("text", [
    "0110100110010110", "banana", "naïve café", "αβγαγβ", "a\U0001F600b\U0001F600",
])
def test_coerce_string_infers_sorted_alphabet(text):
    arr, alphabet = _coerce_sequence(text, None)
    assert alphabet.symbols == tuple(sorted(set(text)))
    assert arr.dtype == np.uint8
    assert arr.tolist() == list(alphabet.encode(text))


@pytest.mark.parametrize("text,labels", [
    ("0110", "10"), ("ccab", "abcd"), ("ψφψ", "φχψ"), ("x\U0001F600", ["\U0001F600", "x", "zz"]),
])
def test_coerce_string_with_given_alphabet(text, labels):
    alphabet = Alphabet(labels)
    arr, same = _coerce_sequence(text, alphabet)
    assert same is alphabet
    assert arr.tolist() == list(alphabet.encode(text))


def test_coerce_string_with_a_high_code_point_stays_small():
    # a bincount over code points would take 0x110000 int64 slots
    tracemalloc.start()
    try:
        arr, alphabet = _coerce_sequence("a\U0010FFFFa", None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alphabet.symbols == ("a", "\U0010FFFF")
    assert arr.tolist() == [0, 1, 0]
    assert peak < 1 << 20


def test_coerce_rejects_character_outside_alphabet():
    with pytest.raises(ValueError, match=r"symbol 'x' at position 2"):
        _coerce_sequence("01x0", BITS)
    with pytest.raises(ValueError, match=r"symbol 'é' at position 0"):
        _coerce_sequence("é", Alphabet(["é1", "é2"]))


def test_coerce_rejects_integer_symbols_outside_alphabet():
    with pytest.raises(ValueError, match=r"symbol -1 at position 2"):
        _coerce_sequence([0, 1, -1, 1, 0, 2], BITS)
    with pytest.raises(ValueError, match=r"symbol 2 at position 5"):
        _coerce_sequence(np.array([0, 1, 0, 1, 0, 2]), BITS)
    with pytest.raises(ValueError, match=r"symbol -3 at position 1"):
        _coerce_sequence([1, -3, 0], None)
    with pytest.raises(ValueError, match=r"symbol -1 at position 2"):
        empirical_block_distribution([0, 1, -1, 1, 0, 2], 1, alphabet=BITS)


def test_coerce_rejects_values_that_are_not_integers():
    with pytest.raises(ValueError, match=r"symbol 0\.5 at position 0 is not "
                                         r"an integer"):
        _coerce_sequence(np.array([0.5, 1.7, 1.2, 0.9]), None)
    with pytest.raises(ValueError, match=r"symbol 1\.25 at position 2"):
        _coerce_sequence([0, 1.0, 1.25, 1], BITS)
    with pytest.raises(ValueError, match=r"symbol nan at position 1"):
        _coerce_sequence([1.0, float("nan")], None)
    with pytest.raises(ValueError, match=r"symbol Fraction\(1, 2\) at "
                                         r"position 1"):
        _coerce_sequence([Fraction(1), Fraction(1, 2)], None)
    # integral values of any type are indices
    arr, alphabet = _coerce_sequence(np.array([0.0, 2.0, 1.0]), None)
    assert arr.tolist() == [0, 2, 1] and arr.dtype == np.uint8
    assert alphabet.symbols == ("0", "1", "2")
    assert _coerce_sequence([Fraction(1), 0], BITS)[0].tolist() == [1, 0]


@pytest.mark.parametrize("s, dtype", [
    (1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16),
    (65536, np.uint16), (65537, np.uint32),
])
def test_coerce_holds_the_narrowest_unsigned_type(s, dtype):
    seq = np.arange(s, dtype=np.int64)[::-1]
    arr, alphabet = _coerce_sequence(seq, None)
    assert arr.dtype == dtype and len(alphabet) == s
    assert arr.tolist() == seq.tolist()
    text = "".join(map(chr, range(0x100, 0x100 + s)))
    arr, _ = _coerce_sequence(text, None)
    assert arr.dtype == dtype and arr.tolist() == list(range(s))


# ── properties ────────────────────────────────────────────────────────────────


def exact_window_dists(n: int):
    words = list(product(range(2), repeat=n))
    return st.lists(
        st.integers(min_value=0, max_value=20),
        min_size=len(words),
        max_size=len(words),
    ).filter(lambda ws: sum(ws) > 0).map(
        lambda ws: BlockDistribution(
            BITS,
            n,
            {
                w: F(x, sum(ws))
                for w, x in zip(words, ws)
                if x
            },
        )
    )


@given(exact_window_dists(3))
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(d):
    h = float(shannon_entropy(d))
    assert -1e-12 <= h <= 3 + 1e-12


@given(exact_window_dists(4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_mi_nonnegative_and_symmetric(window, gap):
    left = (4 - gap) // 2
    right = 4 - gap - left
    if left < 1 or right < 1:
        return
    j = marginalize_gap(window, left, gap)
    mi = mutual_information(j)
    assert float(mi) >= -1e-12
    swapped = JointBlockDistribution(
        BITS,
        j.right_length,
        j.gap,
        j.left_length,
        {(b, a): p for (a, b), p in j.probs.items()},
    )
    assert abs(float(mi) - float(mutual_information(swapped))) <= 1e-9


@given(exact_window_dists(4))
@settings(max_examples=60, deadline=None)
def test_mi_monotone_in_left_block_length(window):
    # same rightmost block, left block extended leftward: I can only grow
    narrow = mutual_information(marginalize_gap(window, 1, 2))
    wide = mutual_information(marginalize_gap(window, 3, 0))
    assert float(wide) >= float(narrow) - 1e-12


@given(exact_window_dists(4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_marginals_are_consistent(window, gap):
    left = 4 - gap - 1
    j = marginalize_gap(window, left, gap)
    lm, rm = left_marginal(j), right_marginal(j)
    assert sum(lm.probs.values()) == 1
    assert sum(rm.probs.values()) == 1
    # left marginal equals summing the window over everything after the block
    direct = {}
    for w, p in window.probs.items():
        direct[w[:left]] = direct.get(w[:left], F(0)) + p
    assert lm.probs == direct


# ── counting codes: bincount up to 4096 codes, np.add.at past it ─────────────


_COUNT_LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def _pair_case(rng, span, dtype, n, shift=5):
    """n codes in range(span) held as dtype, and their pair codes
    codes[i]·span + codes[i + shift] in intp."""
    codes = rng.integers(0, span, n).astype(dtype)
    return codes, codes[:n - shift].astype(np.intp) * span + codes[shift:]


@pytest.mark.parametrize("size", [1, 50, 4095, 4096, 4097, 59049])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_code_counts_match_bincount_on_both_sides_of_the_range_rule(size,
                                                                   dtype):
    rng = np.random.default_rng(size)
    held = int(np.iinfo(dtype).max) + 1
    # pair codes range over span²: the least span with span² >= size,
    # so 4095 and 4096 count by bincount, 4097 (4225) by np.add.at
    span = math.isqrt(size - 1) + 1
    for n in _COUNT_LENGTHS:
        codes = rng.integers(0, min(size, held), n).astype(dtype)
        got = _code_counts(codes, size)
        assert got.dtype == np.uint32
        assert np.array_equal(
            got, np.bincount(codes.astype(np.intp), minlength=size)), n
        codes, want = _pair_case(rng, min(span, held), dtype, n)
        got = _code_counts(codes, span * span, (span, 5))
        assert got.dtype == np.uint32
        assert np.array_equal(
            got, np.bincount(want, minlength=span * span)), n


class _RecordedAdd:
    """``np.add`` with each ``at`` call recorded."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def at(self, *args):
        self.calls.append("add.at")
        np.add.at(*args)


class _CountingNumpy:
    """NumPy as ``sequence`` reads it, with each ``np.add.at`` and
    ``np.bincount`` call recorded."""

    def __init__(self):
        self.calls = []
        self.add = _RecordedAdd(self.calls)

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, *args, **kwargs):
        self.calls.append("bincount")
        return np.bincount(*args, **kwargs)


@pytest.mark.parametrize("size, pair, route", [
    (50, False, "bincount"), (4096, False, "bincount"),
    (4097, False, "add.at"), (59049, False, "add.at"),
    (4096, True, "bincount"), (4225, True, "add.at")])
def test_code_counts_take_bincount_up_to_4096_codes(monkeypatch, size, pair,
                                                    route):
    rng = np.random.default_rng(size)
    n = 3 * _BLOCK + 7
    if pair:
        span = math.isqrt(size)
        codes, want = _pair_case(rng, span, np.uint16, n)
        args = (codes, size, (span, 5))
    else:
        codes = rng.integers(0, size, n).astype(np.uint16)
        want = codes.astype(np.intp)
        args = (codes, size)
    spy = _CountingNumpy()
    monkeypatch.setattr(sequence, "np", spy)
    got = _code_counts(*args)
    monkeypatch.undo()
    # one call per block of _BLOCK codes, every one by the same kernel
    assert spy.calls == [route] * 4
    assert np.array_equal(got, np.bincount(want, minlength=size))


# ── sparse counts: the runs of a sorted copy ─────────────────────────────────


def _sparse_cases(dtype):
    """Code arrays held as dtype: few values in long runs that cross
    every block edge, one value, every value distinct, and runs that
    change exactly at, just before and just after a block edge."""
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    n = 3 * _BLOCK + 7
    top = min(int(np.iinfo(dtype).max), 1 << 40)
    edges = np.zeros(n, dtype=dtype)
    for i, at in enumerate((_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK)):
        edges[at:] = i + 1
    distinct = min(n, top + 1)
    return [
        rng.integers(0, 7, n).astype(dtype),
        rng.integers(0, top, n, endpoint=True).astype(dtype),
        np.full(n, top, dtype=dtype),
        rng.permutation(distinct).astype(dtype) * (top // max(distinct - 1, 1)),
        edges[::-1].copy(),
        rng.integers(0, 7, 1).astype(dtype),
    ]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
def test_sparse_distinct_counts_match_unique(dtype):
    for codes in _sparse_cases(dtype):
        # a range past the code count takes the sorted route
        uniq, counts = _distinct_counts(codes, codes.size + 1)
        want_uniq, want_counts = np.unique(codes, return_counts=True)
        assert uniq.dtype == codes.dtype and counts.dtype == np.uint32
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               3 * _BLOCK + 7])
def test_entropy_of_counts_is_the_two_array_form_to_the_bit(n):
    rng = np.random.default_rng(n)
    cases = [rng.integers(0, 50, n), rng.integers(0, 2, n) * 10 ** 6,
             np.eye(1, n, n // 2, dtype=np.int64).ravel() * 7]
    for counts in cases:
        want = two_array_entropy_of_counts(counts)
        for held in (counts, counts.astype(np.uint32),
                     counts.astype(np.float64)):
            got = _entropy_of_counts(held)
            assert type(got) is float and got.hex() == want.hex()
    assert _entropy_of_counts(cases[2]) == 0.0


def test_count_type_is_uint32_below_2_to_the_32_symbols():
    assert _count_dtype(1) == np.uint32
    assert _count_dtype((1 << 32) - 1) == np.uint32
    assert _count_dtype(1 << 32) == np.int64
    codes = np.array([3, 1, 3, 0], dtype=np.uint8)
    for size in (4, 5000):  # by bincount, by np.add.at
        for n, dtype in (((1 << 32) - 1, np.uint32), (1 << 32, np.int64)):
            got = _code_counts(codes, size, dtype=_count_dtype(n))
            assert got.dtype == dtype
            assert got[:4].tolist() == [1, 1, 0, 2] and not got[4:].any()

"""Exact bit values, block distributions, and entropy/MI primitives.

Everything downstream (process models, substitution systems, complexity
measures, causal-state machines) consumes the types defined here and
the alphabets and window counts of :mod:`persistinfo.sequence`.

Conventions
───────────
  * Words are tuples of symbol indices into an :class:`Alphabet`; the
    packed index tuple is the canonical dictionary key, so iteration
    order is reproducible after sorting.
  * All entropies are in bits (base-2 logarithms).
  * 0·log 0 = 0 is enforced structurally: zero-probability entries are
    skipped, absent words mean probability zero.
  * Two probability backends coexist.  An exact table holds integer
    weights over one denominator D, so a word's probability is w / D;
    it never rounds, and ``probs`` reads that value as a
    :class:`fractions.Fraction`.  Models build the weights directly;
    a table given as Fractions is converted once, with D the lcm of
    their denominators.  Marginals add integers over the same D.  Float
    distributions carry doubles and track no error bounds.
  * Exact entropies are represented symbolically as
    a + Σ_p c_p·log₂(p) over odd primes p (:class:`ExactBits`) whenever
    every probability factors over small primes; log₂ of distinct
    primes are linearly independent over ℚ, so structural equality of
    the representation is equality of the value.  It is held as
    integers over one denominator, reduced by their common gcd.  The
    work is per distinct weight, not per entry: each distinct w is
    reduced by gcd(w, D), and its multiplicity weights its prime
    coefficients, which are summed as integers over D; each integer is
    factored once per process (a bounded cache).  Distributions whose
    rationals do not factor cheaply fall back to float entropies of
    the correctly rounded w / D; a mutual information, read from one
    2-D array of joint weights (``_mi_of_joint``), is decided on its
    joint: a rough or float one is a sum of nonnegative terms.
  * One rule joins the two: an exact value (ExactBits, Fraction)
    combined with a float gives a float, so sums and differences of
    entropies need no branch on the backend.  Checks of an identity go
    through ``_agrees``, which compares exact values by equality and
    applies a tolerance only when a float is involved.
  * Every float entropy, of a float table, of that fallback or of
    empirical counts, goes through one NumPy kernel (``_entropy_of_p``):
    −Σ p·log₂ p, each term written over its p, summed pairwise in table
    order (each term times its multiplicity where a table is given as
    weight counts), 0.0 for a single word.
"""

from __future__ import annotations

import math
from collections import Counter, abc
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from numbers import Rational
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .sequence import (  # the benchmark imports Alphabet from here too
    Alphabet,
    _BLOCK,
    _code_words,
    _coerce_sequence,
    _distinct_counts,
    window_codes,
)

__all__ = [
    "Word",
    "ExactBits",
    "Scalar",
    "BlockDistribution",
    "JointBlockDistribution",
    "log2_of",
    "shannon_entropy",
    "entropy_of_probs",
    "mutual_information",
    "marginalize_gap",
    "empirical_block_distribution",
]

Word = tuple  # tuple[int, ...]; alias documents intent

#: trial-division bound: exact symbolic entropies require all probability
#: numerators/denominators to factor completely over primes below this
SMOOTH_FACTOR_BOUND = 10_000

#: float distributions must sum to 1 within this
FLOAT_SUM_TOL = 1e-12

# Enumerated window states (alphabet size ** window length, or letters
# of substitution windows) above this are refused rather than attempted.
WINDOW_STATE_CAP = 1 << 26

# An exact gap power (d·T)^n of m contexts whose m² entries, each at most
# d^n, could hold more bits than this (m²·n·⌈log2 d⌉) is refused rather
# than attempted, and so is a gap cell whose own array could hold more
# than eight times this (``processes.MarkovProcess.gap_mutual_information``):
# the power squares its entries, the cell multiplies each a fixed number
# of times.  The largest cells accepted on the golden-mean and ternary
# chains take about a second.
GAP_POWER_BIT_CAP = 1 << 22


class WindowCapError(ValueError):
    """A window needs more enumerated states, or an exact gap power more
    bits, than the cap it names."""

    def __init__(self, detail: str, cap: int = WINDOW_STATE_CAP):
        super().__init__(f"{detail}; cap is 2**{cap.bit_length() - 1}")


# ── Exact symbolic bit values ─────────────────────────────────────────────────


@lru_cache(maxsize=None)
def _primes_below(bound: int) -> tuple:
    """The primes below ``bound``, by a sieve of Eratosthenes."""
    sieve = np.ones(max(bound, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(np.flatnonzero(sieve).tolist())


@lru_cache(maxsize=None)
def _late_primes_product(bound: int) -> int:
    """The product of the primes below ``bound`` past the first 64."""
    return math.prod(_primes_below(bound)[64:])


@lru_cache(maxsize=1 << 14)
def _factor_smooth(n: int) -> Mapping[int, int]:
    """Factor n ≥ 1 by trial division by the primes below
    SMOOTH_FACTOR_BOUND; raise if a cofactor above that bound survives
    (the value is then not smooth enough for symbolic entropy and the
    caller falls back to float).  Where n is still at least the bound's
    square at the 65th prime, gcds strip the later primes from it first,
    so a rough n is refused without a division per prime.  Cached per
    process, as a read-only mapping that every caller shares; a refusal
    is not cached."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    primes = _primes_below(SMOOTH_FACTOR_BOUND)
    for p in primes:
        if p * p > n:
            break
        if p == primes[64] and n >= SMOOTH_FACTOR_BOUND ** 2:
            c, g = n, math.gcd(n, _late_primes_product(SMOOTH_FACTOR_BOUND))
            while g > 1:
                c //= g
                g = math.gcd(c, g)
            if c >= SMOOTH_FACTOR_BOUND ** 2:
                raise _NotSmooth(c)
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n >= SMOOTH_FACTOR_BOUND ** 2:
            raise _NotSmooth(n)
        out[n] = out.get(n, 0) + 1
    return MappingProxyType(out)


class _NotSmooth(Exception):
    pass


class _Frozen:
    """Slotted fields, set once in ``__init__``: assigning one afterwards
    raises, as on a frozen record."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class ExactBits(_Frozen):
    """Exact value in bits: ``rational + Σ coeff·log₂(prime)``.

    Held as integers over one positive denominator: a numerator and one
    nonzero coefficient per odd prime (log₂2 = 1 is rational), reduced
    by their gcd, so ``==`` is value equality; ``rational`` and ``logs``
    read them as Fractions.  Supports +, −, scaling by rationals,
    division by rationals, and float conversion; with a float it gives
    a float, and compares by value, as a Fraction does.  Subtraction is
    addition of the negation, so x − y rounds as x + (−y) does, and
    −0.0 − ExactBits(0) is +0.0.  Immutable and hashable.
    """

    __slots__ = ("_num", "_coeffs", "_den")

    def __init__(self, rational, logs: Mapping[int, Fraction] | tuple = ()):
        r = Fraction(rational)
        coeffs = {int(p): Fraction(c) for p, c in dict(logs).items() if c}
        for p in coeffs:
            if p < 3 or p % 2 == 0:
                raise ValueError("log coefficients must be on odd primes")
        den = math.lcm(*(c.denominator for c in (r, *coeffs.values())))
        self._set(r.numerator * (den // r.denominator),
                  {p: c.numerator * (den // c.denominator)
                   for p, c in coeffs.items()}, den)

    def _set(self, num: int, coeffs: dict, den: int) -> "ExactBits":
        """Store num + Σ c·log₂p over den > 0, zeros dropped, reduced."""
        terms = sorted((p, c) for p, c in coeffs.items() if c)
        g = math.gcd(num, den, *(c for _, c in terms))
        if g > 1:
            num, den = num // g, den // g
            terms = [(p, c // g) for p, c in terms]
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_coeffs", tuple(terms))
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def _of(cls, num: int, coeffs: dict, den: int) -> "ExactBits":
        return cls.__new__(cls)._set(num, coeffs, den)

    @property
    def rational(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def logs(self) -> tuple:
        return tuple((p, Fraction(c, self._den)) for p, c in self._coeffs)

    # arithmetic ──────────────────────────────────────────────────────

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        coeffs = {p: a * c for p, c in self._coeffs}
        for p, c in other._coeffs:
            coeffs[p] = coeffs.get(p, 0) + b * c
        return ExactBits._of(a * self._num + b * other._num, coeffs, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self) -> "ExactBits":
        return ExactBits._of(-self._num, {p: -c for p, c in self._coeffs},
                             self._den)

    def __mul__(self, factor):
        if isinstance(factor, float):
            return float(self) * factor
        if not isinstance(factor, Rational):
            return NotImplemented
        a, b = Fraction(factor).as_integer_ratio()
        coeffs = {p: a * c for p, c in self._coeffs}
        return ExactBits._of(a * self._num, coeffs, b * self._den)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        if isinstance(factor, float):
            return float(self) / factor
        if not isinstance(factor, Rational):
            return NotImplemented
        return self * (Fraction(1) / Fraction(factor))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactBits):
            return (self._num == other._num and self._den == other._den
                    and self._coeffs == other._coeffs)
        if isinstance(other, (Rational, float)):
            return not self._coeffs and self.rational == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self._coeffs:
            return hash(self.rational)
        return hash((self.rational, self.logs))

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is
        return self._num / self._den + sum(
            c / self._den * math.log2(p) for p, c in self._coeffs
        )

    # views ───────────────────────────────────────────────────────────

    def __repr__(self) -> str:
        return f"ExactBits({self!s})"

    def __str__(self) -> str:
        parts = [str(self.rational)] if self._num or not self._coeffs else []
        for p, c in self.logs:
            if c == 1:
                parts.append(f"log2({p})")
            else:
                parts.append(f"{c}*log2({p})")
        return " + ".join(parts) if parts else "0"


def _as_exact(x) -> "ExactBits":
    if isinstance(x, ExactBits):
        return x
    if isinstance(x, Rational):
        return ExactBits(x)
    return NotImplemented


def log2_of(q) -> ExactBits:
    """Exact log₂ of a positive rational as an :class:`ExactBits`.

    Requires numerator and denominator to be smooth (see
    SMOOTH_FACTOR_BOUND); raises ValueError otherwise.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of a nonpositive rational")
    try:
        num = _factor_smooth(q.numerator)
        den = _factor_smooth(q.denominator)
    except _NotSmooth as exc:
        raise ValueError(
            f"rational too rough for symbolic log2 (cofactor {exc})"
        ) from None
    coeffs = dict(num)
    for p, e in den.items():
        coeffs[p] = coeffs.get(p, 0) - e
    return ExactBits._of(coeffs.pop(2, 0), coeffs, 1)


Scalar = Union[ExactBits, Fraction, float]


def _agrees(x, y, tol: float) -> bool:
    """Whether two scalars agree: ``x == y`` when both are exact,
    ``|x − y| <= tol`` when either is a float."""
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= tol
    return x == y


def _fmt(x) -> str:
    """Float rendering of a scalar, 12 significant digits."""
    return f"{float(x):.12g}"


def _exact_str(x) -> str:
    """Exact rendering of a scalar; empty for a float."""
    return "" if isinstance(x, float) else str(x)


# ── Distributions ─────────────────────────────────────────────────────────────


def _rational_weights(values) -> tuple:
    """Rationals as integer weights over the lcm D of their
    denominators: (list of weights, D)."""
    fracs = [Fraction(v) for v in values]
    D = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (D // f.denominator) for f in fracs], D


def _table_weights(probs: Mapping, denominator):
    """Validated (weights, denominator) of a probability table.

    With a denominator, ``probs`` holds nonnegative integer weights that
    sum to it.  Without one, an all-rational table is converted once to
    integer weights over the lcm of its denominators, and anything else
    is a float table, whose denominator is None: its entries may fall
    FLOAT_SUM_TOL below 0 and their sum as far from 1, and a NaN entry,
    which no comparison catches, is refused by name.
    """
    weights = dict(probs)
    values = weights.values()
    if denominator is None and all(
            isinstance(v, Rational) and not isinstance(v, float)
            for v in values):
        ints, denominator = _rational_weights(values)
        weights = dict(zip(weights, ints))
        values = weights.values()
    if denominator is not None and not set(map(type, values)) <= {int}:
        raise ValueError("exact weights must be integers")
    tol = FLOAT_SUM_TOL if denominator is None else 0
    if min(values, default=0) < -tol:
        raise ValueError("negative probability")
    if denominator is None:
        # correctly rounded: a naive sum of 10^5+ entries drifts past the
        # tolerance on its own
        total = math.fsum(values)
        if math.isnan(total):
            word = next(w for w, p in weights.items() if math.isnan(p))
            raise ValueError(f"probability of word {word} is NaN")
        if abs(total - 1.0) > FLOAT_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        return weights, None
    total = sum(values)
    if total != denominator:
        raise ValueError(f"probabilities sum to {Fraction(total, denominator)}"
                         ", not 1")
    return weights, denominator


class _FractionView(abc.Mapping):
    """Read-only key → Fraction view of integer weights over one
    denominator.  Each lookup builds its Fraction, so a table that is
    never read by key pays for none."""

    __slots__ = ("_weights", "_denominator")

    def __init__(self, weights: dict, denominator: int):
        self._weights = weights
        self._denominator = denominator

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._weights[key], self._denominator)

    def __iter__(self):
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Table:
    """Shared storage of block and joint tables.

    ``weights`` maps keys to integer weights over ``denominator`` on
    exact tables, and to float probabilities on float tables, whose
    ``denominator`` is None.  ``probs`` reads the table as key →
    probability: Fractions on exact tables.
    """

    __slots__ = ()

    def _set_weights(self, weights: dict, denominator) -> None:
        self.weights = weights
        self.denominator = denominator
        self.exact = denominator is not None

    @property
    def probs(self) -> Mapping:
        if self.denominator is None:
            return self.weights
        return _FractionView(self.weights, self.denominator)


class BlockDistribution(_Table):
    """Probability table over fixed-length words.

    ``probs`` maps index words (tuples) to probabilities; absent words
    have probability 0.  Exact tables hold integer ``weights`` over one
    ``denominator``: pass them with ``denominator``, or pass Fractions,
    which are converted once.  Any float value makes a float table.
    """

    __slots__ = ("alphabet", "block_length", "weights", "denominator",
                 "exact")

    def __init__(self, alphabet: Alphabet, block_length: int, probs: Mapping,
                 denominator: int | None = None):
        if block_length < 0:
            raise ValueError("block length must be >= 0")
        self.alphabet = alphabet
        self.block_length = int(block_length)
        weights, denominator = _table_weights(probs, denominator)
        s = len(alphabet)
        lengths = set(map(len, weights))
        symbols = set(chain.from_iterable(weights))
        if lengths - {self.block_length} or symbols - set(range(s)):
            # name the first offending word
            for w in weights:
                if len(w) != self.block_length:
                    raise ValueError(f"word {w} has length {len(w)}, "
                                     f"expected {self.block_length}")
                if any(not (0 <= a < s) for a in w):
                    raise ValueError(f"word {w} leaves the alphabet")
        self._set_weights(weights, denominator)

    @classmethod
    def _trusted(cls, alphabet, block_length, weights, denominator):
        """A table of weights that are valid by construction."""
        d = cls.__new__(cls)
        d.alphabet = alphabet
        d.block_length = block_length
        d._set_weights(weights, denominator)
        return d

    def __repr__(self) -> str:
        return (
            f"BlockDistribution(L={self.block_length}, "
            f"{len(self.weights)} words, exact={self.exact})"
        )


class JointBlockDistribution(_Table):
    """Joint law of two blocks separated by ``gap`` unseen symbols.

    Keys are (left word, right word) pairs, stored as in
    :class:`BlockDistribution`.
    """

    __slots__ = ("alphabet", "left_length", "gap", "right_length", "weights",
                 "denominator", "exact")

    def __init__(self, alphabet: Alphabet, left_length: int, gap: int,
                 right_length: int, probs: Mapping,
                 denominator: int | None = None):
        if left_length < 1 or right_length < 1 or gap < 0:
            raise ValueError("need left, right >= 1 and gap >= 0")
        self.alphabet = alphabet
        self.left_length = int(left_length)
        self.gap = int(gap)
        self.right_length = int(right_length)
        weights, denominator = _table_weights(probs, denominator)
        for lw, rw in weights:
            if len(lw) != self.left_length or len(rw) != self.right_length:
                raise ValueError(f"pair {(lw, rw)} has wrong block lengths")
        self._set_weights(weights, denominator)

    @classmethod
    def _trusted(cls, alphabet, left_length, gap, right_length, weights,
                 denominator):
        """A table of weights that are valid by construction."""
        j = cls.__new__(cls)
        j.alphabet = alphabet
        j.left_length = left_length
        j.gap = gap
        j.right_length = right_length
        j._set_weights(weights, denominator)
        return j

    def __repr__(self) -> str:
        return (
            f"JointBlockDistribution(L={self.left_length}, g={self.gap}, "
            f"L'={self.right_length}, {len(self.weights)} pairs)"
        )


# ── Entropy and mutual information ────────────────────────────────────────────


def _entropy_of_weights(counts: Mapping, denominator) -> Scalar:
    """Σ −k·p·log₂ p over p = w / D, for a mapping of weights w to
    their multiplicities k.  Integer weights over an integer D give
    ExactBits, or raise ``_NotSmooth`` when some p does not factor over
    small primes; float weights (D None) are probabilities.

    Each distinct w is reduced to p = n/d by gcd(w, D), and n and d
    are factored (once per process, by the cache of ``_factor_smooth``);
    its k entries add k·w·(e_q(d) − e_q(n)) / D to the coefficient of
    log₂ q for every prime q of n or d.  The integer sums over D are
    the ExactBits as it is stored.
    """
    if denominator is None:
        size = len(counts)
        return _entropy_of_p(np.fromiter(counts, np.float64, size),
                             np.fromiter(counts.values(), np.float64, size))
    D = denominator
    sums: dict = {}
    for w, k in counts.items():
        if not w:
            continue
        g = math.gcd(w, D)
        kw = k * w
        for q, e in _factor_smooth(w // g).items():
            sums[q] = sums.get(q, 0) - e * kw
        for q, e in _factor_smooth(D // g).items():
            sums[q] = sums.get(q, 0) + e * kw
    return ExactBits._of(sums.pop(2, 0), sums, D)


def _entropy_of_table(weights, denominator) -> Scalar:
    """Entropy of a table's weights: ``_entropy_of_weights`` of their
    counts, or, where that is not smooth or the table is float, the
    float sum of its entries in table order."""
    if denominator is not None:
        try:
            return _entropy_of_weights(Counter(weights), denominator)
        except _NotSmooth:
            # int / int is correctly rounded, as float(Fraction(w, D)) is
            weights = [w / denominator for w in weights]
    return _entropy_of_p(np.fromiter(weights, dtype=np.float64))


def _entropy_of_p(p: np.ndarray, k: np.ndarray | None = None) -> float:
    """−Σ k·p·log₂ p over the positive entries of a float array, each
    with multiplicity k (1 if not given), in bits, summed pairwise by
    NumPy: the one float entropy kernel.  The terms overwrite p, a
    ``_BLOCK`` at a time, so they take no second array; one ``np.sum``
    adds them all, so the float does not depend on the block."""
    if p.size == 1 and k is None:  # one word, whatever its rounded mass
        return 0.0
    positive = p > 0.0
    if not positive.all():
        p = p[positive]
        k = None if k is None else k[positive]
    for lo in range(0, p.size, _BLOCK):
        block = p[lo:lo + _BLOCK]
        block *= np.log2(block)
    if k is not None:
        p *= k
    # 0.0 − x, not −x: a single word gives 0.0, never −0.0
    return float(0.0 - p.sum())


def _entropy_of_counts(counts: np.ndarray) -> float:
    """Plug-in entropy in bits, −Σ p·log₂ p over p = counts / N, from one
    float array of the nonzero counts' length: p is written into it a
    block of counts at a time, and its terms over it
    (``_entropy_of_p``)."""
    p, at = np.empty(np.count_nonzero(counts)), 0
    for lo in range(0, counts.size, _BLOCK):
        block = counts[lo:lo + _BLOCK]
        block = block[block > 0]
        p[at:at + block.size] = block
        at += block.size
    p /= counts.sum()
    return _entropy_of_p(p)


def shannon_entropy(d) -> Scalar:
    """Shannon entropy in bits of a block or joint table: the tests'
    oracle of the models' ``block_entropies``, which build no table.

    Exact tables yield :class:`ExactBits` whenever every probability
    factors over small primes; otherwise a float computed from the
    exact rationals.  Float tables always yield floats."""
    return _entropy_of_table(d.weights.values(), d.denominator)


def entropy_of_probs(probs) -> Scalar:
    """Shannon entropy in bits of a bare probability collection.

    Exact (Fraction) entries follow the same smooth/float rules as
    :func:`shannon_entropy`; any float entry forces the float path.
    """
    values = list(probs)
    if any(isinstance(p, float) for p in values):
        return _entropy_of_p(np.fromiter(values, dtype=np.float64))
    return _entropy_of_table(*_rational_weights(values))


def mutual_information(j: JointBlockDistribution) -> Scalar:
    """I(left; right) in bits of a joint table: the tests' oracle of the
    models' ``gap_mutual_information``, which build no table: its
    weights as one 2-D array with the left and right words in order."""
    rows, cols = ({w: i for i, w in enumerate(sorted(set(words)))}
                  for words in zip(*j.weights))
    J = np.zeros((len(rows), len(cols)),
                 dtype=float if j.denominator is None else object)
    for (a, b), w in j.weights.items():
        J[rows[a], cols[b]] = w
    return _mi_of_joint(J, j.denominator)


def _mi_of_joint(J: np.ndarray, D) -> Scalar:
    """I(row; column) in bits of a 2-D array of joint weights, Python ints
    over D (object dtype) or floats (D None), its row and column sums,
    added in order, as marginals.  A smooth exact joint gives ExactBits
    H + H − H (``_entropy_of_weights`` raises at a rough weight); any
    other I = Σ p(a)p(b)·φ(x_ab) / ln 2 over the support, x_ab = p(ab) /
    (p(a)p(b)) − 1 rounded once, plus p(a)p(b) for each pair never taken
    (φ(−1) = 1): 1 − Σ p(a)p(b) over the support from integers, pair by
    pair from floats, where that difference could cancel below 0."""
    left = np.add.accumulate(J, axis=1)[:, -1]
    right = np.add.accumulate(J, axis=0)[-1]
    if D is not None:
        with suppress(_NotSmooth):
            h = _entropy_of_weights(Counter(J.ravel().tolist()), D)
            return (_entropy_of_weights(Counter(left.tolist()), D)
                    + _entropy_of_weights(Counter(right.tolist()), D) - h)
    rows, cols = np.nonzero(J)
    w, ab = J[rows, cols], left[rows] * right[cols]
    if D is None:
        D, unseen = 1, np.outer(left, right)[J == 0].tolist()
        if not ab.all():  # p(a)p(b) underflows: add w·ln(w / p(a)p(b)) − w
            v, a, b = w[ab == 0], left[rows[ab == 0]], right[cols[ab == 0]]
            unseen += (v * (np.log(v / a) - np.log(b) - 1)).tolist()
            w, ab = w[ab != 0], ab[ab != 0]
    else:
        unseen = [(D * D - ab.sum()) / (D * D)]
    x = ((w * D - ab) / ab).astype(np.float64)
    terms = (ab / (D * D)).astype(np.float64) * _phi(x)
    return math.fsum([*terms.tolist(), *unseen]) / math.log(2)


def _phi(x: np.ndarray) -> np.ndarray:
    """φ(x) = (1 + x)·ln(1 + x) − x >= 0 for each x >= −1, φ(−1) = 1:
    ``math.log1p`` where |x| >= 1/8, and below, where the two terms
    cancel, the series Σ_{n>=2} (−x)^n / (n(n − 1)) until a term is at
    most 1e-17 of the sum.  Every entry takes the terms the largest |x|
    needs (its sum is past x²/2.1, so |x|^(n−2) <= e^−40 ends it); a
    term past an entry's last is below half its ulp: it leaves it as is."""
    big = np.abs(x) >= 0.125
    y = np.where(big, 0.0, x)
    top = float(np.abs(y).max(initial=0.0))
    total, term, step = np.zeros_like(y), y * y, -y
    for n in range(2, 2 + (math.ceil(40 / -math.log(top)) if top else 0)):
        total += term / (n * (n - 1))
        term *= step
    total[big] = [(1 + v) * math.log1p(v) - v if v > -1 else 1.0
                  for v in x[big].tolist()]
    return total


def marginalize_gap(window: BlockDistribution, left_length: int,
                    gap: int) -> JointBlockDistribution:
    """Collapse a length-(left+gap+right) window distribution to the
    joint of its first ``left_length`` and last remaining symbols,
    summing out the middle ``gap`` symbols.

    Marginal sums are preserved exactly on the exact backend: the
    joint holds the window's integer weights, added, over the same
    denominator.
    """
    right_length = window.block_length - left_length - gap
    if left_length < 1 or gap < 0 or right_length < 1:
        raise ValueError(
            f"window of length {window.block_length} cannot split into "
            f"left={left_length}, gap={gap}, right={right_length}"
        )
    pairs: dict = {}
    for w, x in window.weights.items():
        key = (w[:left_length], w[left_length + gap:])
        pairs[key] = pairs.get(key, 0) + x
    return JointBlockDistribution._trusted(
        window.alphabet, left_length, gap, right_length, pairs,
        window.denominator)


# ── Empirical estimation ──────────────────────────────────────────────────────


def empirical_block_distribution(seq, L: int, alphabet: Alphabet | None = None
                                 ) -> BlockDistribution:
    """Plug-in estimator: sliding-window counts over all n−L+1 positions.

    ``seq`` may be a plain string (one character per symbol; alphabet
    inferred from the distinct characters when not given), an integer
    sequence, or an integer ndarray.
    """
    if L < 1:
        raise ValueError("block length must be >= 1")
    arr, alphabet = _coerce_sequence(seq, alphabet)
    codes, size = window_codes(arr, L, len(alphabet))
    uniq, counts = _distinct_counts(codes, size)
    words = _code_words(arr, L, codes, uniq)
    total = int(counts.sum())
    # int64 / int64 rounds exactly as int / int below 2**53
    probs = dict(zip(words, (counts / total).tolist()))
    return BlockDistribution(alphabet, L, probs)

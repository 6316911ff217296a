"""Alphabets, words, block distributions, and entropy/MI primitives.

Everything downstream (process models, substitution systems, complexity
measures, causal-state machines) consumes the types defined here.

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
  * Empirical statistics are integer counts: a sequence is parsed into
    an index array of the narrowest unsigned type, one byte per symbol
    up to 256 symbols, without a Python call per symbol (an ASCII line
    by one ``bytes.translate`` through a 256-byte table), and every
    length-L window is packed into one integer code by doubling in
    place: base-s digits, ranked among their distinct values, which
    keeps their order, before they would pass 63 bits
    (:func:`window_codes`).  The codes are counted block by block over
    their range when it is no larger than their number (``_code_counts``:
    a bincount per block up to 4096 codes, ``np.add.at`` past that),
    and otherwise by the runs of a sorted copy in their own type, read
    block by block (``_distinct_counts``).  Counts are uint32 below
    2^32 symbols and int64 past that (``_count_dtype``).
    Plug-in entropies are summed by NumPy straight from the counts, in
    one float array of their nonzero entries
    (``_entropy_of_counts``), so ``measures.EmpiricalSource`` estimates
    H(L) and the gap MIs without building a word table.  The tables
    (:func:`empirical_block_distribution`, joint gap tables) remain
    for callers that need the words: each distinct code's word is read
    off the first window where it occurs (:func:`_code_words`), digit
    codes and ranked codes alike.
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
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Alphabet",
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

#: symbols a long sequence is sampled and written in at a time (each
#: sampled block read k steps per lookup of the k-step table, its step
#: maps composed until they coalesce), bytes a comma-separated line of
#: mixed label widths is read in (one of uniform widths is read in one
#: strided pass), bytes of an ASCII line searched for new symbols in
#: at a time (each block sampled ``_BLOCK >> 4`` bytes at a time),
#: windows coded and counted in at a time (one bincount per block over
#: at most ``_BLOCK >> 4`` codes, ``np.add.at`` past that), sorted codes
#: searched for runs, counts turned into p and p·log₂ p written in at a
#: time, codes gathered through a lookup table in at a time, so that
#: the intp copy ``take`` makes of a narrow index is one block long, and
#: letters turned into word tuples in at a time, so that the nested
#: lists ``tolist`` makes are one block long
#: (``processes.MarkovProcess.sample``, the writer and the block route
#: of the comma loader of ``cli``, :func:`_char_codes`,
#: :func:`window_codes`, :func:`_sorted_runs`, :func:`_entropy_of_counts`,
#: :func:`_entropy_of_p`, :func:`_ranks`, :func:`_words`); outputs do not
#: depend on it
_BLOCK = 1 << 16

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


# ── Alphabet ──────────────────────────────────────────────────────────────────


class Alphabet:
    """Ordered finite set of distinct symbol labels.

    The index ↔ label bijection is fixed at construction and stable for
    the lifetime of the object.  Size 1 is permitted (degenerate but
    valid); size ≥ 2 is the nontrivial case.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        self.symbols = tuple(str(s) for s in symbols)
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        for i, s in enumerate(self.symbols):
            if self._index[s] != i:
                raise ValueError(
                    f"alphabet labels must be distinct: {s!r} repeats")

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def encode(self, text: Union[str, Iterable[str]]) -> Word:
        """Map a label sequence to a word of indices.

        Strings are read per character; any other iterable is read per
        element (for multi-character labels).
        """
        try:
            return tuple(self._index[c] for c in text)
        except KeyError as e:
            raise ValueError(f"label {e.args[0]!r} is not in the alphabet"
                             f" {list(self.symbols)}") from None

    def decode(self, word: Sequence[int]) -> str:
        """Render a word as text; comma-joined if labels are not all
        single characters."""
        labels = [self.symbols[i] for i in word]
        if all(len(s) == 1 for s in self.symbols):
            return "".join(labels)
        return ",".join(labels)


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


def _code_dtype(size: int) -> np.dtype:
    """The narrowest unsigned type of codes drawn from range(size), up
    to 32 bits, and int64 past that: no code array is ever uint64,
    which NumPy mixes with int64 as float64."""
    return (np.min_scalar_type(size - 1) if size <= 1 << 32
            else np.dtype(np.int64))


def _coerce_sequence(seq, alphabet: Alphabet | None):
    """Accept str / int sequence / ndarray; return (index array, alphabet).

    The indices are held in the narrowest unsigned type of the alphabet
    (``_code_dtype``): one byte per symbol up to 256 symbols.  A string
    is read one character per symbol, an ASCII one at one byte per
    character; without an alphabet the sorted distinct characters form
    it.  Symbols outside the alphabet, and values that are not
    integers, raise ValueError naming the first one and its position.
    """
    if isinstance(seq, str):
        if seq.isascii():
            return _char_codes(seq.encode("ascii"), alphabet)
        return _char_codes(np.frombuffer(
            seq.encode("utf-32-le", "surrogatepass"), dtype=np.uint32),
            alphabet)
    arr = np.asarray(seq)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional, not a "
                         f"{arr.ndim}-dimensional {type(seq).__name__}")
    if arr.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            ints = arr.astype(np.int64)
        if arr.dtype.kind in "fO":
            off = ints != arr
            if off.any():
                t = int(np.argmax(off))
                raise ValueError(f"symbol {arr[t:t + 1].tolist()[0]!r} at "
                                 f"position {t} is not an integer index")
        arr = ints
    if alphabet is None:
        top = int(arr.max(initial=0))
        alphabet = Alphabet(str(i) for i in range(top + 1))
    # two reductions and no whole-array masks, unless a symbol is bad
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= len(alphabet)):
        t = int(np.argmax((arr < 0) | (arr >= len(alphabet))))
        raise ValueError(f"symbol {int(arr[t])} at position {t} is outside "
                         f"the alphabet indices 0..{len(alphabet) - 1}")
    return arr.astype(_code_dtype(len(alphabet)), copy=False), alphabet


def _char_codes(line, alphabet: Alphabet | None, lo: int = 0,
                hi: int | None = None):
    """(index array, alphabet) of the characters line[lo:hi], one per
    symbol, given as ASCII bytes or as an array of their code points
    (the string branch of :func:`_coerce_sequence`, and the sequence
    files of ``cli``, read in place between the offsets of their line).

    Bytes are coded by one ``bytes.translate`` of the whole of line
    through a 256-byte table of their codes, whose slice [lo:hi] is
    returned as a view (unless a given alphabet has more than 256
    symbols), so no other copy of the line is made.  Their distinct
    bytes are found ``_BLOCK`` bytes at a time by deletion passes
    (``bytes.translate`` with bytes to delete): the bytes found so far
    are deleted from the block, then, until nothing is left, every byte
    of a sample of about ``_BLOCK >> 4`` bytes spread evenly across
    what is left.  A block of a line sorted by symbol thus takes one
    sampled pass for its runs longer than the sample's stride, not one
    per symbol, and a pass holds at most two blocks.  Code points are
    ranked (:func:`_ranks`).
    """
    by_bytes = isinstance(line, bytes) and (alphabet is None
                                            or len(alphabet) <= 256)
    if by_bytes:
        hi = len(line) if hi is None else hi
        found = set()
        for start in range(lo, hi, _BLOCK):
            rest = line[start:min(start + _BLOCK, hi)]
            rest = rest.translate(None, bytes(found))
            while rest:
                sample = rest[::len(rest) // (_BLOCK >> 4) + 1]
                found.update(sample)
                rest = rest.translate(None, sample)
        uniq = sorted(found)
    else:
        if isinstance(line, bytes):
            line = np.frombuffer(line, dtype=np.uint8)
        line = line[lo:hi]
        # the distinct code points, ascending; sorted only when a high
        # code point would make a lookup table outgrow the line
        uniq, codes = _ranks(line, int(line.max(initial=0)) + 1)
        uniq = uniq.tolist()
    chars = list(map(chr, uniq))
    values = None
    if alphabet is None:
        alphabet = Alphabet(chars)
    else:
        index = {c: i for i, c in enumerate(alphabet.symbols)}
        bad = [u for u, c in zip(uniq, chars) if c not in index]
        if bad:
            if by_bytes:
                t, u = min((line.find(u, lo, hi) - lo, u) for u in bad)
            else:
                t = int(np.isin(line, bad).argmax())
                u = int(line[t])
            raise ValueError(f"symbol {chr(u)!r} at position {t} is not "
                             f"in the alphabet {alphabet.symbols}")
        values = [index[c] for c in chars]
    if by_bytes:
        table = bytearray(256)
        for u, v in zip(uniq, values or range(len(uniq))):
            table[u] = v
        codes = np.frombuffer(line.translate(table), dtype=np.uint8)
        return codes[lo:hi], alphabet
    if values is not None:
        codes = np.array(values, dtype=_code_dtype(len(alphabet)))[codes]
    return codes, alphabet


def _passes_63_bits(size: int, factor: int) -> bool:
    """Whether codes of range ``size`` times ``factor`` pass 63 bits;
    :func:`window_codes` ranks its codes before such a step."""
    return size * factor >= 1 << 63


def _doubling_steps(L: int) -> list:
    """The steps that take length-1 codes to length L: for each binary
    digit of L after the leading one, a "double", then an "append"
    where the digit is one."""
    return [step for bit in bin(L)[3:]
            for step in ("double", "append")[:1 + int(bit)]]


def _grow_codes(arr: np.ndarray, s: int, codes: np.ndarray, size: int,
                steps: Sequence[str]):
    """Apply ``steps`` to the codes, in range(size), of the length-k
    windows of arr, in the codes array itself: "double" gives the codes
    of length 2k, "append" those of length k + 1, and "pair" only ranks
    the codes if their range squared would pass 63 bits.

    A step writes one ascending block of windows at a time, computed in
    the codes' own type: ``codes`` must hold every range the steps
    reach, so block·factor + tail never leaves it, even where ``arr``
    is held in a wider type.  A block reads only codes at or past its
    own start, which no earlier block has overwritten.  Before a step
    whose range would pass 63 bits, the codes are replaced by their
    ranks among their distinct values (:func:`_ranks`).  Returns
    (codes, size).
    """
    for step in steps:
        if _passes_63_bits(size, s if step == "append" else size):
            uniq, ranks = _ranks(codes, size)
            codes[:] = ranks
            size = uniq.size
        if step == "pair":
            continue
        k = arr.size - codes.size + 1  # the length of the windows coded
        factor, tail = (s, arr[k:]) if step == "append" else (size, codes[k:])
        for lo in range(0, tail.size, _BLOCK):
            hi = min(lo + _BLOCK, tail.size)
            block = codes[lo:hi] * factor
            np.add(block, tail[lo:hi], out=block, casting="unsafe")
            codes[lo:hi] = block
        codes, size = codes[:tail.size], size * factor
    return codes, size


def window_codes(arr: np.ndarray, L: int, s: int, width: int | None = None):
    """Codes of the length-L windows of arr that sort as their words,
    and their range: (codes, size).  A table reads the word of a code
    off a window where it occurs (:func:`_code_words`).

    The codes are held in the narrowest unsigned type of the s**L
    words (``_code_dtype``), int64 past 32 bits, and built by doubling
    in that one array and in that type (:func:`_grow_codes`): a
    length-2k code is the length-k code times its range plus the
    length-k code k places on, and a digit is appended wherever L's
    binary expansion has a one.
    The codes are base-s digits until a step would pass 63 bits; the
    codes are then ranked among their distinct values, one integer
    sort that keeps their order (Karp, Miller and Rosenberg), and the
    ranks double on.  Pair codes of ``width`` 2L rank once more if
    they would pass 63 bits.  Ranks number at most the windows, so all
    fits below 3·10^9 windows.
    """
    if arr.size < L:
        raise ValueError(
            f"sequence of length {arr.size} has no length-{L} windows")
    return _grow_codes(
        arr, s, arr.astype(_code_dtype(s ** L)), s,
        _doubling_steps(L) + ["pair"] * ((width or L) > L))


def _code_words(arr: np.ndarray, L: int, codes: np.ndarray,
                wanted: np.ndarray) -> tuple:
    """The words of the ``wanted`` codes among the length-L window codes
    of arr (:func:`window_codes`), each read off the first window where
    it occurs (:func:`_words`): the same for digit and ranked codes."""
    distinct, first = np.unique(codes, return_index=True)
    starts = first[np.searchsorted(distinct, wanted)]
    return _words(sliding_window_view(arr, L)[starts])


def _words(rows: np.ndarray) -> tuple:
    """The rows of a 2-D array of letters as word tuples, converted
    about ``_BLOCK`` letters at a time, so that the nested lists
    ``tolist`` makes stay one block long."""
    step = max(1, _BLOCK // rows.shape[1])
    return tuple(chain.from_iterable(
        map(tuple, rows[lo:lo + step].tolist())
        for lo in range(0, len(rows), step)))


def _concat_pieces(codes: np.ndarray, pieces: Sequence[np.ndarray]):
    """pieces[codes[0]] + pieces[codes[1]] + ... as one array, built
    by one gather with no Python call per code.

    Pieces of one common length are rows of a table, gathered by one
    ``take``; otherwise output position t of the piece for code c,
    which starts at output offset o, reads the concatenated pieces at
    start(c) + (t − o).  The codes may be held in any integer type;
    callers pass a block of codes at a time, since ``take`` copies
    them to intp and the index arrays of unequal pieces are int64 per
    output letter.
    """
    lengths = np.array([len(piece) for piece in pieces], dtype=np.int64)
    flat = np.concatenate(pieces)
    if lengths.min() == lengths.max():
        rows = flat.reshape(len(pieces), int(lengths[0]))
        return rows.take(codes, axis=0).ravel()
    lens = lengths[codes]
    # start(c) − o per code, then per output position
    shift = (np.cumsum(lengths) - lengths)[codes]
    shift -= np.cumsum(lens)
    shift += lens
    index = np.repeat(shift, lens)
    index += np.arange(index.size)
    return flat[index]


def _pair_codes(codes: np.ndarray, span: int, shift: int, lo: int,
                hi: int) -> np.ndarray:
    """Pair codes codes[i]·span + codes[i + shift] of the codes, in
    range(span), for lo ≤ i < hi: computed in the narrowest unsigned
    type of their range span² (``_code_dtype``), int64 past 32 bits,
    which holds every pair code, whatever type the codes are in."""
    pairs = codes[lo:hi].astype(_code_dtype(span * span))
    pairs *= span
    np.add(pairs, codes[lo + shift:hi + shift], out=pairs, casting="unsafe")
    return pairs


def _count_dtype(n: int) -> np.dtype:
    """The type of the window counts of a sequence of n symbols: uint32
    below 2^32 symbols, int64 past that.  It is read from the sequence,
    not from one length's windows: marginal sums add the edge windows
    as L falls, but no count or total of any length passes n."""
    return np.dtype(np.uint32 if n < 1 << 32 else np.int64)


def _code_counts(codes: np.ndarray, size: int, pair=None,
                 dtype=None) -> np.ndarray:
    """Counts of codes drawn from range(size), as an array of that
    length in ``dtype``, by default ``_count_dtype(codes.size)``.  With
    ``pair = (span, shift)`` and size span², the codes counted are the
    pair codes codes[i]·span + codes[i + shift], for i below
    codes.size − shift (:func:`_pair_codes`).

    Counted ``_BLOCK`` codes at a time: by one ``np.bincount`` per
    block over at most ``_BLOCK >> 4`` (4096) codes, added in with
    ``casting="unsafe"`` (its int64 counts fit), by ``np.add.at`` past
    that, where a bincount's intp copy and whole-range array per block
    cost more.  ``np.add.at`` adds a one of the counts' own type: with
    the Python int 1 it leaves NumPy's fast path for a uint32 array
    (7.5 against 0.36 ms per 64 K codes over 531441 bins).  Per 10^6
    codes (numpy 2.4, 2-vCPU VM), bincount against add.at: 2.3 vs 3.2
    ms at 4096 bins, 2.1 vs 3.5 at ~50 bins, 3.9 vs 3.8 at 59049 and
    15.6 vs 7.3 at 531441.
    """
    span, shift = pair or (0, 0)
    m = codes.size - shift
    counts = np.zeros(size, dtype=dtype or _count_dtype(codes.size))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        block = _pair_codes(codes, span, shift, lo, hi) if pair \
            else codes[lo:hi]
        if size <= _BLOCK >> 4:
            counts += np.bincount(block, minlength=size).astype(counts.dtype)
        else:
            np.add.at(counts, block, counts.dtype.type(1))
    return counts


def _distinct_counts(codes: np.ndarray, size: int, weights=None):
    """Distinct values of codes drawn from range(size), ascending, and
    their counts in ``_count_dtype(codes.size)``; with positive
    ``weights``, the sum of each value's weights as a float64 array
    instead.

    Counted over the whole range (``_code_counts``, or a bincount of
    the weights) when it is no larger than the code array, so that
    buffer never outgrows the input; otherwise by the runs of a sorted
    copy (:func:`_sorted_runs`), or, with weights, by ``np.unique``.
    """
    if size <= codes.size:
        counts = (_code_counts(codes, size) if weights is None
                  else np.bincount(codes, weights, minlength=size))
        uniq = np.flatnonzero(counts)
        return uniq, counts[uniq]
    if weights is None:
        return _sorted_runs(codes)
    uniq, inverse = np.unique(codes, return_inverse=True)
    return uniq, np.bincount(inverse.ravel(), weights)


def _sorted_runs(codes: np.ndarray):
    """Distinct values of codes, ascending, in the codes' type, and the
    length of each one's run in a sorted copy, in
    ``_count_dtype(codes.size)``: what ``np.unique(codes,
    return_counts=True)`` gives, without its int64 index and ``diff``
    arrays of one entry per distinct value.

    The copy is sorted in the codes' own (narrowest) type, and its runs
    are found ``_BLOCK`` codes at a time, twice: once to count them,
    once to write each run's value and the length of the run before.
    """
    ordered = np.sort(codes)
    n = ordered.size

    def starts(lo):  # of the runs in [lo, lo + _BLOCK)
        block = ordered[lo - 1:lo + _BLOCK]
        return np.flatnonzero(block[1:] != block[:-1]) + lo
    k = 1 + sum(starts(lo).size for lo in range(1, n, _BLOCK))
    uniq, runs = np.empty(k, ordered.dtype), np.empty(k, _count_dtype(n))
    uniq[0], at, last = ordered[0], 1, 0
    for lo in range(1, n, _BLOCK):
        new = starts(lo)
        uniq[at:at + new.size] = ordered[new]
        runs[at - 1:at - 1 + new.size] = np.diff(new, prepend=last)
        at, last = at + new.size, new[-1] if new.size else last
    runs[k - 1] = n - last
    return uniq, runs


def _ranks(codes: np.ndarray, size: int):
    """Distinct values of codes drawn from range(size), ascending, and
    the index of each code among them, in the narrowest unsigned type
    of their number (``_code_dtype``): a lookup table when the range
    is no larger than the code array, a sort otherwise.  The table is
    read by one ``take`` per ``_BLOCK`` codes into the output, so the
    intp copy that ``take`` makes of a narrow index is one block long."""
    if size > codes.size:
        uniq, inverse = np.unique(codes, return_inverse=True)
        return uniq, inverse.ravel().astype(_code_dtype(uniq.size))
    uniq = np.flatnonzero(_code_counts(codes, size))
    table = np.empty(size, dtype=_code_dtype(uniq.size))
    table[uniq] = np.arange(uniq.size)
    out = np.empty(codes.size, dtype=table.dtype)
    for lo in range(0, codes.size, _BLOCK):
        table.take(codes[lo:lo + _BLOCK], out=out[lo:lo + _BLOCK])
    return uniq, out


def _distinct_rows(rows: np.ndarray, s: int):
    """Distinct rows of a 2-D array of letters in range(s), in lex
    order, and each row's index among them.  Rows of any length are
    sorted as byte strings of big-endian letters."""
    dtype = np.min_scalar_type(s - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    return uniq.view(dtype).reshape(uniq.size, -1), inverse


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

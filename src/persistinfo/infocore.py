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
    it never rounds, and ``prob()`` returns that value as a
    :class:`fractions.Fraction`.  Models build the weights directly;
    a table given as Fractions is converted once, with D the lcm of
    their denominators.  Marginals and restrictions add integers over
    the same D.  Float distributions carry doubles and track no error
    bounds.
  * Exact entropies are represented symbolically as
    a + Σ_p c_p·log₂(p) over odd primes p (:class:`ExactBits`) whenever
    every probability factors over small primes; log₂ of distinct
    primes are linearly independent over ℚ, so structural equality of
    the representation is equality of the value.  The work is per
    distinct weight, not per entry: each distinct w is reduced by
    gcd(w, D), factored once, and its multiplicity weights its prime
    coefficients, which are summed as integers.  Distributions whose
    rationals do not factor cheaply fall back to float entropies of
    the correctly rounded w / D, and their mutual information to a sum
    of nonnegative terms.
  * One rule joins the two: an exact value (ExactBits, Fraction)
    combined with a float gives a float, so sums and differences of
    entropies need no branch on the backend.  Checks of an identity go
    through ``_agrees``, which compares exact values by equality and
    applies a tolerance only when a float is involved.
  * Every float entropy, of a float table, of that fallback or of
    empirical counts, goes through one NumPy kernel (``_entropy_of_p``):
    −Σ p·log₂ p summed pairwise in table order (each term times its
    multiplicity where a table is given as weight counts), 0.0 for a
    single word.
  * Empirical statistics are integer counts: a sequence is parsed into
    an index array of the narrowest unsigned type, one byte per symbol
    up to 256 symbols, without a Python call per symbol, and every
    length-L window is packed into one integer code by doubling in
    place: base-s digits, ranked among their distinct values, which
    keeps their order, before they would pass 63 bits
    (:func:`window_codes`).  The codes are counted block by block over
    their range when it is no larger than their number
    (``_code_counts``), with ``np.unique`` otherwise
    (``_distinct_counts``).
    Plug-in entropies are summed by NumPy straight from the counts
    (``_entropy_of_counts``), so ``measures.EmpiricalSource`` estimates
    H(L) and the gap MIs without building a word table.  The tables
    (:func:`empirical_block_distribution`, joint gap tables) remain
    for callers that need the words; only their distinct codes are
    decoded: digit codes as one digit array per chunk of codes, ranked
    codes by reading each off a window where it occurs.
"""

from __future__ import annotations

import math
from collections import Counter, abc
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from numbers import Rational
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
    "decode_window_codes",
]

Word = tuple  # tuple[int, ...]; alias documents intent

#: trial-division bound: exact symbolic entropies require all probability
#: numerators/denominators to factor completely over primes below this
SMOOTH_FACTOR_BOUND = 10_000

#: float distributions must sum to 1 within this
FLOAT_SUM_TOL = 1e-12

#: window codes decoded per digit array; bounds its memory
DECODE_CHUNK = 1 << 14

#: symbols a long sequence is sampled and written in at a time (each
#: sampled block read k steps per lookup of the k-step table), bytes a
#: comma-separated line of mixed label widths is read in (one of
#: uniform widths is read in one strided pass), and windows coded and
#: counted in at a time (``processes.MarkovProcess.sample``, the writer
#: and the block route of the comma loader of ``cli``,
#: :func:`window_codes`); outputs do not depend on it
_BLOCK = 1 << 16

# Enumerated window states (alphabet size ** window length, or letters
# of substitution windows) above this are refused rather than attempted.
WINDOW_STATE_CAP = 1 << 26


class WindowCapError(ValueError):
    """A window needs more enumerated states than the cap it names."""

    def __init__(self, detail: str):
        super().__init__(
            f"{detail}; cap is 2**{WINDOW_STATE_CAP.bit_length() - 1}")


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
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet labels must be distinct")
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def index(self, label: str) -> int:
        return self._index[label]

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


def _factor_smooth(n: int) -> dict:
    """Factor n ≥ 1 by trial division by the primes below
    SMOOTH_FACTOR_BOUND; raise if a cofactor above that bound survives
    (the value is then not smooth enough for symbolic entropy and the
    caller falls back to float)."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in _primes_below(SMOOTH_FACTOR_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n >= SMOOTH_FACTOR_BOUND ** 2:
            raise _NotSmooth(n)
        out[n] = out.get(n, 0) + 1
    return out


class _NotSmooth(Exception):
    pass


class ExactBits:
    """Exact value in bits: ``rational + Σ coeff·log₂(prime)``.

    ``logs`` maps odd primes to rational coefficients (the prime 2 is
    folded into the rational part since log₂2 = 1).  Zero coefficients
    are dropped, so ``==`` is value equality.  Supports +, −, scaling
    by rationals, division by rationals, and float conversion; + and −
    with a float give a float, as with a Fraction.  Immutable and
    hashable.
    """

    __slots__ = ("rational", "logs")

    def __init__(self, rational, logs: Mapping[int, Fraction] | tuple = ()):
        object.__setattr__(self, "rational", Fraction(rational))
        items = logs if isinstance(logs, tuple) else tuple(dict(logs).items())
        clean = tuple(
            sorted((int(p), Fraction(c)) for p, c in items if c != 0)
        )
        for p, _ in clean:
            if p < 3 or p % 2 == 0:
                raise ValueError("log coefficients must be on odd primes")
        object.__setattr__(self, "logs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactBits is immutable")

    # arithmetic ──────────────────────────────────────────────────────

    def _combine(self, other: "ExactBits", sign: int) -> "ExactBits":
        coeffs = dict(self.logs)
        for p, c in other.logs:
            coeffs[p] = coeffs.get(p, Fraction(0)) + sign * c
        return ExactBits(self.rational + sign * other.rational, coeffs)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def __neg__(self) -> "ExactBits":
        return ExactBits(-self.rational, {p: -c for p, c in self.logs})

    def __mul__(self, factor):
        if not isinstance(factor, Rational):
            return NotImplemented
        factor = Fraction(factor)
        return ExactBits(
            self.rational * factor, {p: c * factor for p, c in self.logs}
        )

    __rmul__ = __mul__

    def __truediv__(self, factor):
        if not isinstance(factor, Rational):
            return NotImplemented
        return self * (Fraction(1) / Fraction(factor))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactBits):
            return self.rational == other.rational and self.logs == other.logs
        if isinstance(other, Rational):
            return not self.logs and self.rational == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if not self.logs:
            return hash(self.rational)
        return hash((self.rational, self.logs))

    def __float__(self) -> float:
        return float(self.rational) + sum(
            float(c) * math.log2(p) for p, c in self.logs
        )

    # views ───────────────────────────────────────────────────────────

    def __repr__(self) -> str:
        return f"ExactBits({self!s})"

    def __str__(self) -> str:
        parts = [] if (self.rational == 0 and self.logs) else [str(self.rational)]
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
        return ExactBits(Fraction(x))
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
    rational = Fraction(num.pop(2, 0) - den.pop(2, 0))
    coeffs: dict[int, Fraction] = {p: Fraction(e) for p, e in num.items()}
    for p, e in den.items():
        coeffs[p] = coeffs.get(p, Fraction(0)) - e
    return ExactBits(rational, coeffs)


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


def _is_exact_probs(values) -> bool:
    return all(isinstance(v, Rational) and not isinstance(v, float)
               for v in values)


def _validate_float_probs(values) -> None:
    if min(values, default=0.0) < -FLOAT_SUM_TOL:
        raise ValueError("negative probability")
    # correctly rounded: a naive sum of 10^5+ entries drifts past the
    # tolerance on its own
    total = math.fsum(values)
    if abs(total - 1.0) > FLOAT_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


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
    is a float table, whose denominator is None.
    """
    weights = dict(probs)
    values = weights.values()
    if denominator is None and _is_exact_probs(values):
        ints, denominator = _rational_weights(values)
        weights = dict(zip(weights, ints))
        values = weights.values()
    if denominator is None:
        _validate_float_probs(values)
        return weights, None
    if not set(map(type, values)) <= {int}:
        raise ValueError("exact weights must be integers")
    if min(values, default=0) < 0:
        raise ValueError("negative probability")
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

    def _prob(self, key):
        if self.denominator is None:
            return self.weights.get(key, 0.0)
        return Fraction(self.weights.get(key, 0), self.denominator)

    def _summed(self, key) -> dict:
        """Weights added up per ``key(k)``, in first-seen order."""
        out: dict = {}
        for k, w in self.weights.items():
            k = key(k)
            out[k] = out.get(k, 0) + w
        return out


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

    def prob(self, word: Word):
        return self._prob(tuple(word))

    def restrict(self, start: int, stop: int) -> "BlockDistribution":
        """Marginal distribution of word[start:stop]."""
        if not (0 <= start <= stop <= self.block_length):
            raise ValueError("bad restriction bounds")
        return BlockDistribution._trusted(
            self.alphabet, stop - start,
            self._summed(lambda w: w[start:stop]), self.denominator)

    def __repr__(self) -> str:
        return (
            f"BlockDistribution(L={self.block_length}, "
            f"{len(self.weights)} words, exact={self.exact})"
        )


class JointBlockDistribution(_Table):
    """Joint law of two blocks separated by ``gap`` unseen symbols.

    Keys are (left word, right word) pairs, stored as in
    :class:`BlockDistribution`.  Both marginals are valid
    :class:`BlockDistribution` objects over the same denominator.
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

    def prob(self, pair) -> Scalar:
        lw, rw = pair
        return self._prob((tuple(lw), tuple(rw)))

    def left_marginal(self) -> BlockDistribution:
        return BlockDistribution._trusted(
            self.alphabet, self.left_length,
            self._summed(lambda k: k[0]), self.denominator)

    def right_marginal(self) -> BlockDistribution:
        return BlockDistribution._trusted(
            self.alphabet, self.right_length,
            self._summed(lambda k: k[1]), self.denominator)

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

    Each distinct w is reduced to p = n/d by gcd(w, D) and factored
    once; its k entries add k·w·(e_q(d) − e_q(n)) / D to the
    coefficient of log₂ q for every prime q of n or d.  The sums stay
    integers until that one division.
    """
    if denominator is None:
        size = len(counts)
        return _entropy_of_p(np.fromiter(counts, np.float64, size),
                             np.fromiter(counts.values(), np.float64, size))
    D = denominator
    sums: dict = {}
    den_factors: dict = {}
    for w, k in counts.items():
        if not w:
            continue
        g = math.gcd(w, D)
        d = D // g
        kw = k * w
        for q, e in _factor_smooth(w // g).items():
            sums[q] = sums.get(q, 0) - e * kw
        if d not in den_factors:
            den_factors[d] = _factor_smooth(d)
        for q, e in den_factors[d].items():
            sums[q] = sums.get(q, 0) + e * kw
    coeffs = {q: Fraction(s, D) for q, s in sums.items()}
    return ExactBits(coeffs.pop(2, 0), coeffs)


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
    return _entropy_float(weights)


def _entropy_of_p(p: np.ndarray, k: np.ndarray | None = None) -> float:
    """−Σ k·p·log₂ p over the positive entries of a float array, each
    with multiplicity k (1 if not given), in bits, summed pairwise by
    NumPy: the one float entropy kernel."""
    if p.size == 1 and k is None:  # one word, whatever its rounded mass
        return 0.0
    positive = p > 0.0
    if not positive.all():
        p = p[positive]
        k = None if k is None else k[positive]
    terms = np.log2(p)
    terms *= p  # in place: one array of terms, not two
    if k is not None:
        terms *= k
    # 0.0 − x, not −x: a single word gives 0.0, never −0.0
    return float(0.0 - terms.sum())


def _entropy_float(probs) -> float:
    return _entropy_of_p(np.fromiter(probs, dtype=np.float64))


def _entropy_of_counts(counts: np.ndarray) -> float:
    """Plug-in entropy in bits, −Σ p·log₂ p over p = counts / N."""
    return _entropy_of_p(counts[counts > 0] / counts.sum())


def shannon_entropy(d) -> Scalar:
    """Shannon entropy in bits of a block or joint distribution.

    Exact tables yield :class:`ExactBits` whenever every probability
    factors over small primes; otherwise a float computed from the
    exact rationals.  Float tables always yield floats.
    """
    return _entropy_of_table(d.weights.values(), d.denominator)


def entropy_of_probs(probs) -> Scalar:
    """Shannon entropy in bits of a bare probability collection.

    Exact (Fraction) entries follow the same smooth/float rules as
    :func:`shannon_entropy`; any float entry forces the float path.
    """
    values = list(probs)
    if any(isinstance(p, float) for p in values):
        return _entropy_float(float(p) for p in values)
    return _entropy_of_table(*_rational_weights(values))


def mutual_information(j: JointBlockDistribution) -> Scalar:
    """I(left; right) = H(left) + H(right) − H(joint), in bits.

    Nonnegative (exactly on the exact backend, within ~1e-12 in float)
    and symmetric under swapping the two blocks.  Where an exact
    table's entropies fall back to float, whose difference cancels, it
    is ``_mi_of_deviations``.
    """
    left, right = j.left_marginal(), j.right_marginal()
    h_left, h_right, h_joint = map(shannon_entropy, (left, right, j))
    if j.exact and any(isinstance(h, float)
                       for h in (h_left, h_right, h_joint)):
        return _mi_of_deviations(j.weights, left.weights, right.weights,
                                 j.denominator)
    return h_left + h_right - h_joint


def _phi(x: float) -> float:
    """(1 + x)·ln(1 + x) − x >= 0 for x >= −1; a series where |x| < 1/8,
    where the two terms cancel."""
    if abs(x) >= 0.125:
        return (1 + x) * math.log1p(x) - x
    # Σ_{n>=2} (−x)^n / (n(n − 1)), alternating and shrinking
    total, term, n = 0.0, x * x, 2
    while abs(term) > 1e-17 * total:
        total += term / (n * (n - 1))
        term *= -x
        n += 1
    return total


def _mi_of_deviations(joint: dict, left: dict, right: dict, D: int) -> float:
    """I = Σ p(a)p(b)·φ(x_ab) / ln 2 over the pairs of the marginals'
    supports, x_ab = p(ab) / (p(a)p(b)) − 1 exact until rounded once:
    a sum of nonnegative terms.  The pairs the joint never takes have
    φ(−1) = 1 and add 1 − Σ p(a)p(b) over those it takes."""
    D2 = D * D
    terms, taken = [], 0
    for (a, b), w in joint.items():
        if w:
            ab = left[a] * right[b]
            taken += ab
            terms.append(ab / D2 * _phi((w * D - ab) / ab))
    terms.append((D2 - taken) / D2)
    return math.fsum(terms) / math.log(2)


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
    return JointBlockDistribution._trusted(
        window.alphabet, left_length, gap, right_length,
        window._summed(lambda w: (w[:left_length], w[left_length + gap:])),
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
            points = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
        else:
            points = np.frombuffer(seq.encode("utf-32-le", "surrogatepass"),
                                   dtype=np.uint32)
        return _char_codes(points, alphabet)
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


def _char_codes(points: np.ndarray, alphabet: Alphabet | None):
    """(index array, alphabet) of a line of characters given as their
    code points, one per character (the string branch of
    :func:`_coerce_sequence`)."""
    # the distinct code points, ascending; sorted only when a high code
    # point would make a lookup table outgrow the line
    uniq, codes = _ranks(points, int(points.max(initial=0)) + 1)
    chars = list(map(chr, uniq.tolist()))
    if alphabet is None:
        return codes, Alphabet(chars)
    index = {c: i for i, c in enumerate(alphabet.symbols)}
    known = np.array([c in index for c in chars], dtype=bool)
    if not known.all():
        t = int(np.argmin(known[codes]))
        raise ValueError(f"symbol {chr(points[t])!r} at position {t} is not "
                         f"in the alphabet {alphabet.symbols}")
    table = np.array([index[c] for c in chars],
                     dtype=_code_dtype(len(alphabet)))
    return table[codes], alphabet


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
    int64; a block reads only codes at or past its own start, which no
    earlier block has overwritten.  Before a step whose range would
    pass 63 bits, the codes are replaced by their ranks among their
    distinct values (:func:`_ranks`).  ``codes`` must hold every
    range the steps reach.  Returns (codes, size, whether ranked).
    """
    ranked = False
    for step in steps:
        if _passes_63_bits(size, s if step == "append" else size):
            uniq, ranks = _ranks(codes, size)
            codes[:] = ranks
            size, ranked = uniq.size, True
        if step == "pair":
            continue
        k = arr.size - codes.size + 1  # the length of the windows coded
        factor, tail = (s, arr[k:]) if step == "append" else (size, codes[k:])
        for lo in range(0, tail.size, _BLOCK):
            hi = min(lo + _BLOCK, tail.size)
            block = codes[lo:hi].astype(np.int64)
            block *= factor
            block += tail[lo:hi]
            codes[lo:hi] = block
        codes, size = codes[:tail.size], size * factor
    return codes, size, ranked


def window_codes(arr: np.ndarray, L: int, s: int, width: int | None = None):
    """Codes of the length-L windows of arr that sort as their words:
    (codes, their range, a decoder from distinct codes to words).

    The codes are held in the narrowest unsigned type of the s**L
    words (``_code_dtype``), int64 past 32 bits, and built by doubling
    in that one array (:func:`_grow_codes`): a length-2k code is the
    length-k code times its range plus the length-k code k places on,
    and a digit is appended wherever L's binary expansion has a one.
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
    codes, size, ranked = _grow_codes(
        arr, s, arr.astype(_code_dtype(s ** L)), s,
        _doubling_steps(L) + ["pair"] * ((width or L) > L))
    if not ranked:
        return codes, size, lambda uniq: decode_window_codes(uniq, L, s)

    def decode(uniq):
        # each distinct code read off a window where it occurs
        distinct, first = np.unique(codes, return_index=True)
        starts = first[np.searchsorted(distinct, uniq)]
        windows, words = sliding_window_view(arr, L), []
        for start in range(0, starts.size, DECODE_CHUNK):
            rows = windows[starts[start:start + DECODE_CHUNK]]
            words.extend(map(tuple, rows.tolist()))
        return words
    return codes, size, decode


def _concat_pieces(codes: np.ndarray, pieces: Sequence[np.ndarray]):
    """pieces[codes[0]] + pieces[codes[1]] + ... as one array, built
    by one gather with no Python call per code.

    Pieces of one common length are rows of a table; otherwise output
    position t of the piece for code c, which starts at output offset
    o, reads the concatenated pieces at start(c) + (t − o).  The codes
    index as given, in whatever integer type they are held; callers
    pass a block of codes at a time, since the index arrays of unequal
    pieces are int64 per output letter.
    """
    lengths = np.array([len(piece) for piece in pieces], dtype=np.int64)
    flat = np.concatenate(pieces)
    if lengths.min() == lengths.max():
        return flat.reshape(len(pieces), int(lengths[0]))[codes].ravel()
    lens = lengths[codes]
    # start(c) − o per code, then per output position
    shift = (np.cumsum(lengths) - lengths)[codes]
    shift -= np.cumsum(lens)
    shift += lens
    index = np.repeat(shift, lens)
    index += np.arange(index.size)
    return flat[index]


def decode_window_codes(codes, L: int, s: int) -> list:
    """Words of base-s window codes (inverse of :func:`window_codes`),
    decoded as one (chunk, L) digit array per chunk of codes."""
    codes = np.asarray(codes, dtype=np.int64)
    powers = s ** np.arange(L - 1, -1, -1, dtype=np.int64)
    words: list = []
    for start in range(0, codes.size, DECODE_CHUNK):
        chunk = codes[start:start + DECODE_CHUNK, None]
        words.extend(map(tuple, (chunk // powers % s).tolist()))
    return words


def _code_counts(codes: np.ndarray, size: int, pair=None) -> np.ndarray:
    """Counts of codes drawn from range(size), as an int64 array of
    that length.  With ``pair = (span, shift)`` the codes counted are
    the pair codes codes[i]·span + codes[i + shift], for i below
    codes.size − shift, each computed in int64.

    Counted ``_BLOCK`` codes at a time with ``np.add.at``, which makes
    no intp copy of narrow codes, as ``np.bincount`` does, and no
    array of the whole range per block.
    """
    span, shift = pair or (0, 0)
    m = codes.size - shift
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        block = codes[lo:hi]
        if pair:
            block = block.astype(np.int64) * span
            block += codes[lo + shift:hi + shift]
        np.add.at(counts, block, 1)
    return counts


def _distinct_counts(codes: np.ndarray, size: int, weights=None):
    """Distinct values of codes drawn from range(size), ascending, and
    their counts as an int64 array; with positive ``weights``, the sum
    of each value's weights as a float64 array instead.

    Counted over the whole range (``_code_counts``, or a bincount of
    the weights) when it is no larger than the code array, so that
    buffer never outgrows the input; a sort otherwise.
    """
    if size <= codes.size:
        counts = (_code_counts(codes, size) if weights is None
                  else np.bincount(codes, weights, minlength=size))
        uniq = np.flatnonzero(counts)
        return uniq, counts[uniq]
    if weights is None:
        return np.unique(codes, return_counts=True)
    uniq, inverse = np.unique(codes, return_inverse=True)
    return uniq, np.bincount(inverse.ravel(), weights)


def _ranks(codes: np.ndarray, size: int):
    """Distinct values of codes drawn from range(size), ascending, and
    the index of each code among them, in the narrowest unsigned type
    of their number (``_code_dtype``): a lookup table when the range
    is no larger than the code array, a sort otherwise."""
    if size > codes.size:
        uniq, inverse = np.unique(codes, return_inverse=True)
        return uniq, inverse.ravel().astype(_code_dtype(uniq.size))
    uniq = np.flatnonzero(_code_counts(codes, size))
    table = np.empty(size, dtype=_code_dtype(uniq.size))
    table[uniq] = np.arange(uniq.size)
    return uniq, table[codes]


def _distinct_rows(rows: np.ndarray, s: int):
    """Distinct rows of a 2-D array of letters in range(s), in lex
    order, and each row's index among them.  Rows of any length are
    sorted as byte strings of big-endian letters."""
    dtype = np.min_scalar_type(s - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    return uniq.view(dtype).reshape(uniq.size, -1), inverse


def empirical_block_distribution(seq, L: int, alphabet: Alphabet | None = None,
                                 exact: bool = False) -> BlockDistribution:
    """Plug-in estimator: sliding-window counts over all n−L+1 positions.

    ``seq`` may be a plain string (one character per symbol; alphabet
    inferred from the distinct characters when not given), an integer
    sequence, or an integer ndarray.  ``exact=True`` keeps the counts
    as exact rationals count/total.
    """
    if L < 1:
        raise ValueError("block length must be >= 1")
    arr, alphabet = _coerce_sequence(seq, alphabet)
    codes, size, decode = window_codes(arr, L, len(alphabet))
    uniq, counts = _distinct_counts(codes, size)
    words = decode(uniq)
    total = int(counts.sum())
    if exact:
        return BlockDistribution(alphabet, L,
                                 dict(zip(words, counts.tolist())), total)
    # int64 / int64 rounds exactly as int / int below 2**53
    probs = dict(zip(words, (counts / total).tolist()))
    return BlockDistribution(alphabet, L, probs)

"""Primitive substitution systems and their factor statistics.

A substitution is a map from letters to nonempty words, iterated from a
starting letter whose image begins with that letter, so the iterates
converge to a one-sided fixed point.  This module computes, exactly
where the arithmetic allows it:

  * fixed-point prefixes and the factor sets of each length,
  * the composition matrix and its Perron eigendata,
  * the induced substitution on length-l factors, whose Perron
    eigenvector gives the factor frequencies,
  * the shortcut count matrix taking pair frequencies directly to
    length-l factor frequencies without building the induced system,
  * the factor-complexity function, and the closed-form block-entropy
    increments of the parity (Thue-Morse) fixed point.

Factor frequencies take one of three routes by length: l = 1 reads the
Perron eigenvector of the letter composition matrix, l = 2 that of the
substitution induced on pairs (at most s**2 columns), and l >= 3 maps
the pair frequencies through the shortcut count matrix at the smallest
power p with every |ζ^p(a)| >= l - 1, which is integer counting only.
The induced substitution on length-l factors stays available as an
independent check of the shortcut route.

Frequencies come out as Fractions whenever the Perron root of the
relevant composition matrix is rational (it is an integer then, since
the characteristic polynomial is monic with integer coefficients);
otherwise floats from power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from ._ratlinalg import rational_nullspace
from .infocore import (
    Alphabet,
    BlockDistribution,
    ExactBits,
    Word,
    _concat_pieces,
)

__all__ = [
    "NonPrimitiveError",
    "ReducibleMatrixError",
    "Substitution",
    "CompositionMatrix",
    "PerronFrobeniusData",
    "FactorTable",
    "ShortcutData",
    "composition_matrix",
    "primitivity",
    "fixed_point_array",
    "fixed_point_prefix",
    "factors_of_length",
    "induced_substitution",
    "factor_frequencies",
    "shortcut_matrix",
    "shortcut_power",
    "factor_count_bound",
    "complexity_function",
    "thue_morse_block_entropy_increment",
    "forbidden_words_check",
    "thue_morse",
    "fibonacci",
]


class ReducibleMatrixError(ValueError):
    """Composition matrix is not irreducible."""


class NonPrimitiveError(ValueError):
    """Operation requires a primitive substitution."""


# ── substitution rules ──────────────────────────────────────────────


class Substitution:
    """Letter-to-word map with a designated fixed-point seed.

    rules[a] is the image word of letter a (a tuple of letter indices).
    Construction validates, unless check=False, that every letter's
    iterated image grows without bound and that the seed letter's image
    starts with the seed, which together guarantee a one-sided fixed
    point.  check=False is for systems produced by constructions that
    guarantee this already (the induced substitutions below).
    """

    __slots__ = ("alphabet", "rules", "start")

    def __init__(self, alphabet: Alphabet, rules: Sequence[Word],
                 start: int = 0, check: bool = True):
        s = len(alphabet)
        rules = tuple(tuple(r) for r in rules)
        if len(rules) != s:
            raise ValueError("need exactly one rule per letter")
        for r in rules:
            if not r:
                raise ValueError("empty image word")
            if any(not (0 <= a < s) for a in r):
                raise ValueError("image uses a letter outside the alphabet")
        if not (0 <= start < s):
            raise ValueError("start letter outside the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "start", start)
        if check:
            self._check_admissible()

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def _check_admissible(self) -> None:
        if self.rules[self.start][0] != self.start:
            raise ValueError(
                "image of the start letter must begin with the start letter")
        M = composition_matrix(self).M
        s = len(self.alphabet)
        reach = _reachability(M > 0)
        for a in range(s):
            # |iterates of a| -> infinity iff the composition matrix
            # restricted to the letters reachable from a has spectral
            # radius above 1
            idx = np.flatnonzero(reach[:, a])
            sub = M[np.ix_(idx, idx)].astype(float)
            radius = max(abs(np.linalg.eigvals(sub)))
            if radius <= 1 + 1e-9:
                raise ValueError(
                    f"iterated images of letter {self.alphabet.decode((a,))!r}"
                    " do not grow")

    @classmethod
    def from_strings(cls, rules: Mapping[str, str], start: str,
                     alphabet: Optional[Alphabet] = None,
                     check: bool = True) -> "Substitution":
        """Build from single-character symbols, e.g. {"0": "01", "1": "10"}."""
        if alphabet is None:
            alphabet = Alphabet(sorted(rules))
        table = [alphabet.encode(rules[sym]) for sym in alphabet.symbols]
        return cls(alphabet, table, alphabet.encode(start)[0], check=check)

    def apply(self, word: Sequence[int]) -> Word:
        out: list[int] = []
        for a in word:
            out.extend(self.rules[a])
        return tuple(out)

    def iterate_letter(self, letter: int, power: int) -> Word:
        w: Word = (letter,)
        for _ in range(power):
            w = self.apply(w)
        return w

    def __eq__(self, other):
        if not isinstance(other, Substitution):
            return NotImplemented
        return (self.alphabet.symbols == other.alphabet.symbols
                and self.rules == other.rules and self.start == other.start)

    def __hash__(self):
        return hash((self.alphabet.symbols, self.rules, self.start))

    def __repr__(self):
        body = ", ".join(
            f"{self.alphabet.decode((a,))}->{self.alphabet.decode(r)}"
            for a, r in enumerate(self.rules))
        return f"Substitution({body}; start={self.alphabet.decode((self.start,))})"


def thue_morse() -> Substitution:
    """Parity substitution 0 -> 01, 1 -> 10."""
    return Substitution.from_strings({"0": "01", "1": "10"}, "0")


def fibonacci() -> Substitution:
    """Golden-ratio substitution 0 -> 01, 1 -> 0."""
    return Substitution.from_strings({"0": "01", "1": "0"}, "0")


def fixed_point_array(subst: Substitution, n: int) -> np.ndarray:
    """First n letters of the one-sided fixed point as an int64 array.

    Each round applies ζ to the whole prefix at once: the images are
    gathered by letter (``_concat_pieces``), with no Python call per
    letter.
    """
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    images = [np.array(r, dtype=np.int64) for r in subst.rules]
    w = np.array([subst.start], dtype=np.int64)
    while w.size < n:
        nxt = _concat_pieces(w, images)
        if nxt.size == w.size:
            raise ValueError("substitution does not grow from its start letter")
        w = nxt
    return w[:n]


def fixed_point_prefix(subst: Substitution, n: int) -> Word:
    """First n letters of the one-sided fixed point, as a word."""
    return tuple(fixed_point_array(subst, n).tolist())


# ── composition matrix and Perron eigendata ─────────────────────────


@dataclass(frozen=True)
class CompositionMatrix:
    """M[i, j] = number of occurrences of letter i in the image of letter j.

    Column sums are the image lengths; left-multiplication maps the
    letter-count vector of a word to that of its image.
    """

    M: np.ndarray


def composition_matrix(subst: Substitution) -> CompositionMatrix:
    s = len(subst.alphabet)
    M = np.zeros((s, s), dtype=np.int64)
    for j, image in enumerate(subst.rules):
        for a in image:
            M[a, j] += 1
    M.setflags(write=False)
    return CompositionMatrix(M)


def _reachability(B: np.ndarray) -> np.ndarray:
    """Transitive closure of the digraph with edge j -> i when B[i, j]."""
    s = B.shape[0]
    R = B | np.eye(s, dtype=bool)
    for _ in range(max(1, s.bit_length())):
        R = R | _boolmat_mul(R, R)
    return R


def _boolmat_mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return (X.astype(np.int64) @ Y.astype(np.int64)) > 0


def _boolmat_pow(B: np.ndarray, k: int) -> np.ndarray:
    result = np.eye(B.shape[0], dtype=bool)
    base = B
    while k:
        if k & 1:
            result = _boolmat_mul(result, base)
        base = _boolmat_mul(base, base)
        k >>= 1
    return result


def _graph_period(B: np.ndarray) -> int:
    """gcd of cycle lengths of a strongly connected digraph
    (edge j -> i when B[i, j])."""
    s = B.shape[0]
    level = [-1] * s
    level[0] = 0
    queue = [0]
    d = 0
    while queue:
        nxt = []
        for u in queue:
            for v in np.flatnonzero(B[:, u]):
                v = int(v)
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    d = math.gcd(d, level[u] + 1 - level[v])
        queue = nxt
    return abs(d) if d else 1


@dataclass(frozen=True)
class PerronFrobeniusData:
    """Perron root and normalized (sum 1) right eigenvector of an
    irreducible nonnegative integer matrix, plus primitivity data.

    exact=True means theta is a Fraction (necessarily an integer: the
    characteristic polynomial is monic over Z, so rational roots are
    integers) and the eigenvector entries are Fractions.
    """

    theta: object
    eigenvector: tuple
    primitive: bool
    irreducible: bool
    period: int
    exact: bool


def primitivity(M) -> PerronFrobeniusData:
    """Eigendata of a composition matrix; raises ReducibleMatrixError
    unless the matrix is irreducible."""
    if isinstance(M, CompositionMatrix):
        M = M.M
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if (A < 0).any():
        raise ValueError("matrix must be nonnegative")
    s = A.shape[0]
    B = A > 0
    if not _reachability(B).all():
        raise ReducibleMatrixError("composition matrix is reducible")
    # Wielandt bound: an irreducible matrix is primitive iff this power
    # is strictly positive
    primitive = bool(_boolmat_pow(B, (s - 1) ** 2 + 1).all())
    period = 1 if primitive else _graph_period(B)

    theta, vec, exact = _perron_eigen(A)
    return PerronFrobeniusData(theta=theta, eigenvector=vec,
                               primitive=primitive, irreducible=True,
                               period=period, exact=exact)


def _perron_eigen(A: np.ndarray):
    s = A.shape[0]
    colsums = A.sum(axis=0)
    # Perron root lies between the extreme column sums; if rational it
    # is one of the integers in that range, and it is the only
    # candidate with a strictly positive eigenvector.
    for t in range(int(colsums.max()), int(colsums.min()) - 1, -1):
        shifted = [[Fraction(int(A[i, j])) - (t if i == j else 0)
                    for j in range(s)] for i in range(s)]
        basis = rational_nullspace(shifted)
        if len(basis) != 1:
            continue
        v = basis[0]
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            total = sum(v)
            return Fraction(t), tuple(x / total for x in v), True
    # Irrational Perron root: power iteration on A + I, which is
    # primitive whenever A is irreducible, so it converges even for
    # matrices with period > 1.
    shifted_f = A.astype(float) + np.eye(s)
    v = np.full(s, 1.0 / s)
    for _ in range(100_000):
        nxt = shifted_f @ v
        nxt /= nxt.sum()
        if np.abs(nxt - v).max() <= 1e-15:
            v = nxt
            break
        v = nxt
    theta = float((A.astype(float) @ v).sum() / v.sum())
    residual = np.abs(A.astype(float) @ v - theta * v).max()
    if residual > 1e-10:
        raise ArithmeticError("power iteration failed to converge")
    return theta, tuple(float(x) for x in v), False


# ── factor sets, induced substitutions, frequencies ─────────────────


@lru_cache(maxsize=None)
def factors_of_length(subst: Substitution, l: int) -> tuple:
    """All length-l factors of the fixed point, in lexicographic order.

    Scans fixed-point prefixes of doubling length until the factor set
    is both stable under doubling and closed under taking length-l
    windows of factor images anchored in the first letter's image.
    For a primitive substitution these two conditions make the scan
    provably exhaustive.
    """
    if l < 1:
        raise ValueError("factor length must be positive")
    n = max(64, 4 * l)
    prev: Optional[frozenset] = None
    while True:
        prefix = fixed_point_prefix(subst, n)
        found = frozenset(prefix[i:i + l] for i in range(len(prefix) - l + 1))
        if prev == found and _factor_set_closed(subst, found, l):
            return tuple(sorted(found))
        prev = found
        n *= 2
        if n > 1 << 24:
            raise RuntimeError("factor scan did not stabilize")


def _factor_set_closed(subst: Substitution, factors: frozenset, l: int) -> bool:
    for w in factors:
        image = subst.apply(w)
        if len(image) < l:
            return False
        for t in range(len(subst.rules[w[0]])):
            if image[t:t + l] not in factors:
                return False
    return True


def induced_substitution(subst: Substitution, l: int) -> Substitution:
    """Substitution induced on length-l factors.

    Factor ω = ω₀ω₁…, with |ζ(ω₀)| = k, maps to the first k length-l
    windows of ζ(ω); the seed is the fixed point's leading factor.
    The induced fixed point at position t is the window starting at
    position t of the original fixed point.
    """
    factors = factors_of_length(subst, l)
    index = {w: i for i, w in enumerate(factors)}
    labels = tuple(subst.alphabet.decode(w) for w in factors)
    rules = []
    for w in factors:
        image = subst.apply(w)
        k = len(subst.rules[w[0]])
        rules.append(tuple(index[image[t:t + l]] for t in range(k)))
    start = index[fixed_point_prefix(subst, l)]
    return Substitution(Alphabet(labels), rules, start, check=False)


@dataclass(frozen=True)
class FactorTable:
    """Frequencies of the length-l factors of a fixed point."""

    length: int
    factors: tuple
    freq: dict
    exact: bool

    def as_distribution(self, alphabet: Alphabet) -> BlockDistribution:
        return BlockDistribution(alphabet, self.length, self.freq)


def factor_frequencies(subst: Substitution, l: int) -> FactorTable:
    """Exact (when the Perron root is rational) frequencies of the
    length-l factors.  Requires a primitive substitution; frequencies
    then exist and are positive for every factor.

    l = 1 reads the letter Perron eigenvector and l = 2 the Perron
    eigenvector of the substitution induced on pairs.  l >= 3 maps the
    pair frequencies through shortcut_matrix at shortcut_power(subst, l),
    so no linear system larger than the pair one is solved; the result
    is exact exactly when the pair table is.
    """
    pf_letters = primitivity(composition_matrix(subst))
    if not pf_letters.primitive:
        raise NonPrimitiveError("factor frequencies require primitivity")
    if l == 1:
        factors = factors_of_length(subst, 1)
        freq = {w: pf_letters.eigenvector[w[0]] for w in factors}
        return FactorTable(1, factors, freq, pf_letters.exact)
    if l == 2:
        pf = primitivity(composition_matrix(induced_substitution(subst, 2)))
        factors = factors_of_length(subst, 2)
        freq = {w: pf.eigenvector[i] for i, w in enumerate(factors)}
        return FactorTable(2, factors, freq, pf.exact)
    sc = shortcut_matrix(subst, l, shortcut_power(subst, l))
    return FactorTable(l, sc.factors_l, dict(zip(sc.factors_l, sc.v_l)),
                       sc.exact)


# ── shortcut from pair frequencies to length-l frequencies ──────────


@dataclass(frozen=True)
class ShortcutData:
    """Count matrix taking pair frequencies to length-l factor
    frequencies after one normalization.

    matrix[i, j] counts occurrences of length-l factor i in
    ζ^p(α)ζ^p(β) that start inside ζ^p(α), where (α, β) is pair j.
    Rows follow factors_l, columns follow factors_2 (both lex).
    """

    matrix: np.ndarray
    factors_l: tuple
    factors_2: tuple
    v2: tuple
    v_l: tuple
    power: int
    exact: bool


def _image_lengths(subst: Substitution, power: int) -> list:
    """|ζ^p(a)| for every letter a: the column sums of M^p, as Python
    ints (row vector of ones times M, p times)."""
    M = composition_matrix(subst).M.tolist()
    s = len(M)
    lengths = [1] * s
    for _ in range(power):
        lengths = [sum(lengths[i] * M[i][j] for i in range(s))
                   for j in range(s)]
    return lengths


def shortcut_power(subst: Substitution, l: int) -> int:
    """Smallest power p >= 1 with min_a |ζ^p(a)| >= l - 1, the least p
    that shortcut_matrix accepts for length l.  The shortest image grows
    at least once every s powers when every letter's images grow, as
    Substitution checks unless built with check=False."""
    p, stalled = 1, 0
    shortest = min(_image_lengths(subst, 1))
    while shortest < l - 1:
        p += 1
        longer = min(_image_lengths(subst, p))
        stalled = 0 if longer > shortest else stalled + 1
        if stalled > len(subst.alphabet):
            raise ValueError("iterated images of some letter do not grow")
        shortest = longer
    return p


@lru_cache(maxsize=None)
def _pair_factors(subst: Substitution) -> frozenset:
    """Length-2 factors of a primitive substitution's fixed point,
    without scanning it: the smallest pair set holding the pairs inside
    every letter image and the pairs of ζ(αβ) for each of its pairs αβ."""
    found: set = set()
    todo = [w[i:i + 2] for w in subst.rules for i in range(len(w) - 1)]
    while todo:
        pair = todo.pop()
        if pair not in found:
            found.add(pair)
            image = subst.apply(pair)
            todo.extend(image[i:i + 2] for i in range(len(image) - 1))
    return frozenset(found)


def factor_count_bound(subst: Substitution, n: int) -> int:
    """Upper bound on the number of length-n factors of a primitive
    substitution's fixed point, found before enumerating any of them.

    With p = shortcut_power(subst, n), every length-n factor starts
    inside some ζ^p(α) and ends inside the next image ζ^p(β), where αβ
    is a factor; so there are at most Σ_{αβ} |ζ^p(α)| of them.
    """
    if n < 1:
        raise ValueError("factor length must be positive")
    lengths = _image_lengths(subst, shortcut_power(subst, n))
    return sum(lengths[alpha] for alpha, _ in _pair_factors(subst))


def shortcut_matrix(subst: Substitution, l: int, power: int) -> ShortcutData:
    if l < 2:
        raise ValueError("factor length must be at least 2")
    if power < 1:
        raise ValueError("power must be positive")
    if min(_image_lengths(subst, power)) < l - 1:
        raise ValueError(
            f"power {power} is too small: need every ζ^p image at least"
            f" {l - 1} letters long so windows anchored in the first image"
            " never outrun the pair")
    factors_l = factors_of_length(subst, l)
    factors_2 = factors_of_length(subst, 2)
    index_l = {w: i for i, w in enumerate(factors_l)}
    images = [subst.iterate_letter(a, power) for a in range(len(subst.alphabet))]
    C = np.zeros((len(factors_l), len(factors_2)), dtype=np.int64)
    for j, (alpha, beta) in enumerate(factors_2):
        w = images[alpha] + images[beta]
        for t in range(len(images[alpha])):
            window = w[t:t + l]
            if len(window) == l:
                C[index_l[window], j] += 1
    C.setflags(write=False)

    pair_table = factor_frequencies(subst, 2)
    v2 = tuple(pair_table.freq[w] for w in factors_2)
    raw = [sum(int(C[i, j]) * v2[j] for j in range(len(factors_2)))
           for i in range(len(factors_l))]
    total = sum(raw)
    v_l = tuple(x / total for x in raw)
    return ShortcutData(matrix=C, factors_l=factors_l, factors_2=factors_2,
                        v2=v2, v_l=v_l, power=power, exact=pair_table.exact)


# ── complexity and parity-sequence entropy increments ───────────────


def complexity_function(subst: Substitution, n: int) -> int:
    """Number of distinct length-n factors of the fixed point."""
    return len(factors_of_length(subst, n))


def thue_morse_block_entropy_increment(n: int) -> ExactBits:
    """Exact increment H(n) - H(n-1) of the parity fixed point's block
    entropy, n >= 2, in bits.

    Each length-(n-1) factor extends uniquely to the right except the
    right-special ones, which split their frequency evenly between two
    extensions; every right-special factor of length m in
    [2^k + 1, 2^(k+1)] has frequency 1/(3 * 2^k).  Counting the
    right-special factors per dyadic block gives a staircase that
    halves at m = 2^k + 1 and drops a further factor 2/3 at
    m = 3 * 2^(k-1) + 1.
    """
    if n < 2:
        raise ValueError("increment defined for n >= 2")
    if n == 2:
        # H(2) - H(1) = log2(3) - 2/3
        return ExactBits(Fraction(-2, 3), {3: Fraction(1)})
    m = n - 1
    if m == 2:
        return ExactBits(Fraction(2, 3))
    k = (m - 1).bit_length() - 1
    num = 4 if m <= 3 * 2 ** (k - 1) else 2
    return ExactBits(Fraction(num, 3 * 2 ** k))


_PARITY_FORBIDDEN = ("000", "111", "01010", "10101")


def forbidden_words_check(sequence) -> bool:
    """True when the binary sequence avoids the four minimal forbidden
    words of the parity fixed point: 000, 111, 01010, 10101."""
    if isinstance(sequence, str):
        s = sequence
    else:
        s = "".join(str(int(x)) for x in sequence)
    if set(s) - {"0", "1"}:
        raise ValueError("expected a binary sequence")
    return not any(bad in s for bad in _PARITY_FORBIDDEN)

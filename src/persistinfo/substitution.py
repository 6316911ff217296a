"""Primitive substitution systems and their factor statistics.

A substitution is a map from letters to nonempty words, iterated from a
starting letter whose image begins with that letter, so the iterates
converge to a one-sided fixed point.  This module computes, exactly
where the arithmetic allows it:

  * fixed-point prefixes, the composition matrix and its Perron
    eigendata,
  * factor sets, factor frequencies and gap laws, all from one count:
    the windows of ζ^p(α)ζ^p(β) that start inside ζ^p(α), over the
    pairs αβ of the fixed point (_pair_window_counts),
  * the closed-form block-entropy increments of the parity (Thue-Morse)
    fixed point.

Factor frequencies of every length l >= 1 map the pair frequencies
(the Perron eigenvector of the pair count matrix at p = 1, which is
the composition matrix of the substitution induced on pairs) through
the count matrix of length-l windows (the paper's shortcut matrix) at
the smallest p with every |ζ^p(a)| >= l - 1; at l = 2 that count is
the pair matrix itself.  The induced substitution on length-l factors
stays only as an independent check of this route.

Frequencies come out as Fractions whenever the Perron root of the
pair composition matrix is rational (it is an integer then, since
the characteristic polynomial is monic with integer coefficients);
otherwise floats from power iteration.

What a substitution determines is built once per substitution and
process (Substitution is immutable and hashable): the primitivity
check of the letter composition matrix (_letter_perron, a forward and
a backward breadth-first walk over its nonzero entries), the pair
frequencies with their integer weights (_pair_perron, the one Perron
system solved), the pair factors, the factor sets, and the shortcut
powers with their image lengths.  The images ζ^p(a) are rebuilt for
each count; building them costs less than the window pass that reads
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._ratlinalg import rational_nullspace
from .infocore import (
    WINDOW_STATE_CAP,
    Alphabet,
    ExactBits,
    WindowCapError,
    Word,
    _BLOCK,
    _code_dtype,
    _concat_pieces,
    _distinct_rows,
    _rational_weights,
)

__all__ = [
    "ReducibleMatrixError",
    "Substitution",
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
    "thue_morse_block_entropy_increment",
    "forbidden_words_check",
    "thue_morse",
    "fibonacci",
]


class ReducibleMatrixError(ValueError):
    """Composition matrix is not irreducible."""


# ── substitution rules ──────────────────────────────────────────────


class Substitution:
    """Letter-to-word map with a designated fixed-point seed.

    rules[a] is the image word of letter a (a tuple of letter indices).
    Construction checks that the seed letter's image starts with the
    seed and that every letter's iterated images grow without bound,
    which together guarantee a one-sided fixed point.  A rule set that
    fails the growth check is rejected with a letter whose images stay
    one letter long forever.
    """

    __slots__ = ("alphabet", "rules", "start")

    def __init__(self, alphabet: Alphabet, rules: Sequence[Word],
                 start: int = 0):
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
        self._check_admissible()

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def _check_admissible(self) -> None:
        if self.rules[self.start][0] != self.start:
            raise ValueError(
                "image of the start letter must begin with the start letter")
        # Every letter's images grow iff following one-letter images from
        # each letter reaches a longer image within s steps.  A chain
        # that reaches none cycles at length 1 forever; if every chain
        # reaches one, |ζ^s(b)| >= 2 for every letter b, so the
        # shortest image at least doubles every s powers.
        s = len(self.rules)
        for a in range(s):
            b = a
            for _ in range(s):
                if len(self.rules[b]) > 1:
                    break
                b = self.rules[b][0]
            else:
                raise ValueError(
                    f"iterated images of letter {self.alphabet.decode((a,))!r}"
                    " do not grow: they stay one letter long")

    @classmethod
    def from_strings(cls, rules: Mapping[str, str], start: str,
                     alphabet: Optional[Alphabet] = None) -> "Substitution":
        """Build from single-character symbols, e.g. {"0": "01", "1": "10"};
        ``start`` is one of them."""
        if alphabet is None:
            alphabet = Alphabet(sorted(rules))
        table = [alphabet.encode(rules[sym]) for sym in alphabet.symbols]
        letter = alphabet.encode(start) if isinstance(start, str) else ()
        if len(letter) != 1:
            raise ValueError(f"start {start!r} is not one letter")
        return cls(alphabet, table, letter[0])

    def apply(self, word: Sequence[int]) -> Word:
        out: list[int] = []
        for a in word:
            out.extend(self.rules[a])
        return tuple(out)

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
    """First n letters of the one-sided fixed point, in the narrowest
    unsigned type of its alphabet (``_code_dtype``).

    Each round writes ζ of the prefix so far into one new array of
    the image's length, read off the letter counts that the
    composition matrix carries from round to round, or of n letters in
    the last round.  The prefix is read ``_BLOCK`` letters at a time,
    their images gathered by letter (``_concat_pieces``) with no Python
    call per letter, and the last round stops once n letters are
    written.
    """
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    dtype = _code_dtype(len(subst.alphabet))
    images = [np.array(r, dtype=dtype) for r in subst.rules]
    M = composition_matrix(subst)
    counts = np.zeros(len(images), dtype=np.int64)
    counts[subst.start] = 1
    w = np.array([subst.start], dtype=dtype)
    while w.size < n:
        counts = M @ counts
        image = np.empty(min(int(counts.sum()), n), dtype=dtype)
        at = 0
        for lo in range(0, w.size, _BLOCK):
            piece = _concat_pieces(w[lo:lo + _BLOCK], images)
            piece = piece[:image.size - at]
            image[at:at + piece.size] = piece
            at += piece.size
            if at == image.size:
                break
        w = image
    return w[:n]


def fixed_point_prefix(subst: Substitution, n: int) -> Word:
    """First n letters of the one-sided fixed point, as a word."""
    return tuple(fixed_point_array(subst, n).tolist())


# ── composition matrix and Perron eigendata ─────────────────────────


def composition_matrix(subst: Substitution) -> np.ndarray:
    """Read-only int64 M with M[i, j] = number of occurrences of letter i
    in the image of letter j.

    Column sums are the image lengths; left-multiplication maps the
    letter-count vector of a word to that of its image.
    """
    s = len(subst.alphabet)
    M = np.zeros((s, s), dtype=np.int64)
    for j, image in enumerate(subst.rules):
        for a in image:
            M[a, j] += 1
    M.setflags(write=False)
    return M


def _levels(succ, start: int) -> tuple:
    """Breadth-first levels of the nodes reached from ``start`` over the
    successor lists ``succ``, and the gcd over the edges u -> v among
    them of level(u) + 1 − level(v): the period of the reached nodes
    when they are strongly connected, 0 when they carry no cycle
    (Denardo, Math. Oper. Res. 2, 1977)."""
    level, queue, period = {start: 0}, [start], 0
    for u in queue:  # the queue grows while it is read
        for v in succ[u]:
            if v in level:
                period = math.gcd(period, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                queue.append(v)
    return level, period


def _irreducible_period(B: np.ndarray) -> int:
    """Period of the digraph with edge i -> j when B[i, j]; raises
    ReducibleMatrixError unless a forward and a backward walk from
    node 0 both reach every node."""
    forward, period = _levels([np.flatnonzero(r).tolist() for r in B], 0)
    backward, _ = _levels([np.flatnonzero(c).tolist() for c in B.T], 0)
    if len(forward) < len(B) or len(backward) < len(B):
        raise ReducibleMatrixError("composition matrix is reducible")
    return period


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
    period: int
    exact: bool


def primitivity(M) -> PerronFrobeniusData:
    """Eigendata of a composition matrix; raises ReducibleMatrixError
    unless the matrix is irreducible."""
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError("matrix must be square and nonempty")
    if (A < 0).any():
        raise ValueError("matrix must be nonnegative")
    # an irreducible matrix is primitive iff it is aperiodic
    period = _irreducible_period(A > 0)
    theta, vec, exact = _perron_eigen(A)
    return PerronFrobeniusData(theta=theta, eigenvector=vec,
                               primitive=period == 1, period=period,
                               exact=exact)


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
    """All length-l factors of the fixed point, in lexicographic order:
    the distinct windows of the pair images (see _pair_window_counts)."""
    if l < 1:
        raise ValueError("factor length must be positive")
    rows, _ = _pair_window_counts(subst, shortcut_power(subst, l), ((0, l),))
    return tuple(map(tuple, rows.tolist()))


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
    return Substitution(Alphabet(labels), rules, start)


@dataclass(frozen=True)
class FactorTable:
    """Frequencies of the length-l factors of a fixed point."""

    factors: tuple
    freq: dict
    exact: bool


@lru_cache(maxsize=None)
def _letter_perron(subst: Substitution) -> None:
    """Primitivity check of the letter composition matrix, once per
    substitution, as in primitivity but with no eigenvector solved.
    Irreducible is enough: the start letter's image begins with it,
    a loop, so an irreducible letter matrix has period 1."""
    _irreducible_period(composition_matrix(subst) > 0)


@lru_cache(maxsize=None)
def _pair_perron(subst: Substitution) -> tuple:
    """The pairs of the fixed point in lex order, the Perron data of
    their count matrix at p = 1 (the composition matrix of the
    substitution induced on pairs), and the pair weights that
    _window_law multiplies counts by: the frequencies as integers over
    one denominator when exact, else the floats themselves.  The one
    Perron system of a substitution, solved after the letter check."""
    _letter_perron(subst)
    # the rows are the pairs themselves, in the column order
    rows, C = _pair_window_counts(subst, 1, ((0, 2),))
    pf = primitivity(C)
    weights = (_rational_weights(pf.eigenvector)[0] if pf.exact
               else pf.eigenvector)
    return tuple(map(tuple, rows.tolist())), pf, tuple(weights)


def factor_frequencies(subst: Substitution, l: int) -> FactorTable:
    """Exact (when the Perron root is rational) frequencies of the
    length-l factors.  Requires a primitive substitution; frequencies
    then exist and are positive for every factor.

    Every length l >= 1 maps the pair frequencies through
    shortcut_matrix at shortcut_power(subst, l), so no linear system
    other than the pair one is solved; the result is exact exactly when
    the pair table is.  The pair eigenvector is solved once per
    substitution; each call returns a table of its own.
    """
    sc = shortcut_matrix(subst, l, shortcut_power(subst, l))
    return FactorTable(sc.factors_l, dict(zip(sc.factors_l, sc.v_l)),
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


@lru_cache(maxsize=None)
def _shortcut_lengths(subst: Substitution, l: int) -> tuple:
    """shortcut_power(subst, l) and |ζ^p(a)| for every letter a at that
    power p, the column sums of M^p, as a tuple of Python ints.  The
    shortest image doubles at least once every s powers, as Substitution
    checks at construction."""
    M = composition_matrix(subst).astype(object)
    p, lengths = 1, M.sum(axis=0)
    while min(lengths) < l - 1:
        p, lengths = p + 1, lengths @ M
    return p, tuple(lengths.tolist())


def shortcut_power(subst: Substitution, l: int) -> int:
    """Smallest power p >= 1 with min_a |ζ^p(a)| >= l - 1, the least p
    that shortcut_matrix accepts for length l."""
    return _shortcut_lengths(subst, l)[0]


@lru_cache(maxsize=None)
def _pair_factors(subst: Substitution) -> frozenset:
    """Length-2 factors of the fixed point, without scanning it: the
    smallest pair set holding its leading pair and the pairs of ζ(αβ)
    for each of its pairs αβ, so unreachable letters add none."""
    found: set = set()
    todo = [fixed_point_prefix(subst, 2)]
    while todo:
        pair = todo.pop()
        if pair not in found:
            found.add(pair)
            image = subst.apply(pair)
            todo.extend(image[i:i + 2] for i in range(len(image) - 1))
    return frozenset(found)


def _pair_window_counts(subst: Substitution, power: int, spans) -> tuple:
    """The windows of ζ^p(α)ζ^p(β) that start inside ζ^p(α), for the
    pairs αβ of the fixed point in lex order, each read through
    ``spans`` ((start, stop), ...) as one row of letters: the distinct
    rows in lex order, and the int64 matrix counting each row (down)
    per pair (across).  Once every |ζ^p| >= n − 1, the rows of width n
    are the length-n factors and the matrix is the shortcut matrix.

    The image lengths |ζ^p(a)| come first, as integers: a power too
    small for the width, and more than WINDOW_STATE_CAP letters of
    windows (width times Σ_αβ |ζ^p(α)|), are refused before any image
    is built.  Image lengths never shrink with p, so once every image
    outgrows both the cap and the width the refusal is certain, and
    the message quotes the count at that power."""
    s, width = len(subst.alphabet), max(stop for _, stop in spans)
    pairs = sorted(_pair_factors(subst))
    lengths = [1] * s
    for _ in range(power):
        lengths = [sum(lengths[b] for b in rule) for rule in subst.rules]
        if min(lengths) > max(WINDOW_STATE_CAP, width):
            break  # refused below, and at every higher power
    if min(lengths) < width - 1:
        raise ValueError(f"power {power} is too small: need every ζ^p"
                         f" image at least {width - 1} letters long")
    bound = sum(lengths[alpha] for alpha, _ in pairs)
    if width * bound > WINDOW_STATE_CAP:
        raise WindowCapError(
            f"window of length {width} may have up to {bound}"
            f" factors, {width * bound} letters in all")
    images = [np.array([a], np.min_scalar_type(s - 1)) for a in range(s)]
    for _ in range(power):
        images = [np.concatenate([images[b] for b in rule])
                  for rule in subst.rules]
    rows = []
    for alpha, beta in pairs:
        w = sliding_window_view(np.concatenate((images[alpha], images[beta])),
                                width)[:len(images[alpha])]
        rows.append(np.concatenate([w[:, a:b] for a, b in spans], axis=1))
    distinct, inverse = _distinct_rows(np.concatenate(rows), s)
    owner = np.repeat(np.arange(len(pairs)), [len(r) for r in rows])
    counts = np.bincount(inverse * len(pairs) + owner,
                         minlength=len(distinct) * len(pairs))
    counts = counts.reshape(len(distinct), len(pairs))
    counts.setflags(write=False)
    return distinct, counts


def _window_law(subst: Substitution, power: int, spans) -> tuple:
    """The windows of _pair_window_counts(subst, power, spans) with
    their law under the pair table: the distinct rows, the count
    matrix, the row weights Σ_j counts[i, j]·v2[j], and D.  The weights
    are integers summing to D when the pair table is exact, else
    probabilities with D = None."""
    rows, counts = _pair_window_counts(subst, power, spans)
    _, pf, v2 = _pair_perron(subst)
    raw = (counts.astype(object) @ np.array(v2, dtype=object)).tolist()
    total = sum(raw)
    if pf.exact:
        return rows, counts, raw, total
    return rows, counts, [x / total for x in raw], None


def factor_count_bound(subst: Substitution, n: int) -> int:
    """Upper bound on the number of length-n factors of a primitive
    substitution's fixed point, found before enumerating any of them.

    With p = shortcut_power(subst, n), every length-n factor starts
    inside some ζ^p(α) and ends inside the next image ζ^p(β), where αβ
    is a factor; so there are at most Σ_{αβ} |ζ^p(α)| of them.
    """
    if n < 1:
        raise ValueError("factor length must be positive")
    _, lengths = _shortcut_lengths(subst, n)
    return sum(lengths[alpha] for alpha, _ in _pair_factors(subst))


def shortcut_matrix(subst: Substitution, l: int, power: int) -> ShortcutData:
    """ShortcutData at any l >= 1: at l = 1 the count tallies the
    letters of each ζ^p(α), which gives the letter table at every p."""
    if l < 1:
        raise ValueError("factor length must be positive")
    if power < 1:
        raise ValueError("power must be positive")
    rows, C, weights, D = _window_law(subst, power, ((0, l),))
    pairs, pf, _ = _pair_perron(subst)
    v_l = tuple(weights) if D is None else tuple(
        Fraction(w, D) for w in weights)
    return ShortcutData(
        matrix=C, factors_l=tuple(map(tuple, rows.tolist())),
        factors_2=pairs, v2=pf.eigenvector,
        v_l=v_l, power=power, exact=pf.exact)


# ── parity-sequence entropy increments ──────────────────────────────


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

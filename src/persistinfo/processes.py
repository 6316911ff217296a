"""Stationary symbolic process models with exact block statistics.

Every exact model answers the two questions of the measures,
``block_entropies(Ls)`` and ``gap_mutual_information(L, g)`` (two
length-L blocks g unseen symbols apart): a Markov chain from its rows
and stationary law, with no word table; a periodic cycle from its own
``block_distribution`` and ``joint_gap_distribution`` (``_TableLaws``),
and a substitution fixed point the first from its window weights, the
second from its own joint tables.  Models add closed forms
where their class has them and a seeded sampler; the logistic map is
sample-only.  Module-level functions call the method of their name.

Rational model parameters give exact distributions end to end: each
table holds integer weights over one denominator D, built from
integers without a Fraction per word, and ``prob()`` returns w / D as
a Fraction.  The i.i.d. source (order 0) and the Ising chain (order
1) are Markov chains: ``MarkovProcess`` subclasses with no law or
sampler of their own.  A rational Markov chain keeps its rows,
stationary law and context matrix scaled to integers, so a length-L
word has weight over q·d^(L−R).  The context matrix is one NumPy
array on every chain (Python ints d·T in an object array on a
rational one, float64 on a float one), and a gap is bridged by its
``np.linalg.matrix_power``, each row divided by its sum on a float
chain.  Float parameters (and the Ising chain, whose transfer-matrix
eigendata is irrational) give float distributions.  Enumeration-based
paths refuse window sizes beyond WINDOW_STATE_CAP states; Markov chains
bridge the gap with a matrix power instead of enumerating it, so the
cap there applies only to the two visible blocks (s^R·s^max(L, R)
states for a gap cell read from the left block's edge context).  A
substitution fixed point has far fewer factors than words: its laws
read the length-n windows of the pair images ζ^p(α)ζ^p(β), and the
window count (factor_count_bound(n) at the shortest power p) times n,
found from the image lengths before any image is built, is held to
the same cap; a gap law reads only the two blocks of each window,
building no length-n word.  WINDOW_STATE_CAP and WindowCapError live
in ``infocore`` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from numbers import Rational
from typing import Mapping, Optional, Sequence

import numpy as np

from ._ratlinalg import stationary_from_transitions
from .infocore import (
    WINDOW_STATE_CAP,
    Alphabet,
    BlockDistribution,
    ExactBits,
    JointBlockDistribution,
    Scalar,
    WindowCapError,
    Word,
    _BLOCK,
    _NotSmooth,
    _agrees,
    _code_dtype,
    _distinct_rows,
    _entropy_of_p,
    _entropy_of_table,
    _entropy_of_weights,
    _ranks,
    _rational_weights,
    entropy_of_probs,
    log2_of,
    mutual_information,
    shannon_entropy,
)
from .substitution import (
    Substitution,
    _levels,
    _window_law,
    fixed_point_array,
    shortcut_power,
)

__all__ = [
    "WINDOW_STATE_CAP",
    "WindowCapError",
    "ClosedFormUnavailable",
    "ClosedForms",
    "PeriodicProcess",
    "MarkovProcess",
    "IidProcess",
    "IsingChainProcess",
    "LogisticSymbolizer",
    "SubstitutionProcess",
    "block_distribution",
    "joint_gap_distribution",
    "closed_forms",
    "sample",
    "reversed_model",
    "ising_entropy_rate",
]

#: gap matrix powers a Markov chain keeps, one per gap length
GAP_POWERS_KEPT = 32


class ClosedFormUnavailable(ValueError):
    """The model class has no exact expression for the request."""


def _check_cap(s: int, window_length: int) -> None:
    if s ** window_length > WINDOW_STATE_CAP:
        raise WindowCapError(
            f"window of length {window_length} over {s} symbols needs"
            f" {s}**{window_length} states")


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form complexity quantities of a model class.

    entropy_rate, excess_entropy, complexity_plus/minus and pmi are in
    bits (Fraction/ExactBits for exact models, float otherwise,
    math.inf where the quantity diverges).  efficiency is the ratio
    excess_entropy / complexity_plus with the conventions e = 0 when
    the complexity vanishes and e = None where no finite ratio exists.
    """

    entropy_rate: object
    excess_entropy: object
    complexity_plus: object
    complexity_minus: object
    pmi: object
    efficiency: object


# ── periodic ────────────────────────────────────────────────────────


class _TableLaws:
    """H(L) and I(L, g) read from the model's own word tables."""

    def block_entropies(self, Ls: Sequence[int]) -> list:
        return [shannon_entropy(self.block_distribution(L)) for L in Ls]

    def gap_mutual_information(self, L: int, g: int) -> Scalar:
        return mutual_information(self.joint_gap_distribution(L, g))


@dataclass(frozen=True)
class PeriodicProcess(_TableLaws):
    """Uniformly random phase on a fixed cycle whose rotations are all
    distinct (so the stated period is the true one)."""

    alphabet: Alphabet
    cycle: Word

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(self.cycle))
        p = len(self.cycle)
        if p < 1:
            raise ValueError("cycle must be nonempty")
        s = len(self.alphabet)
        if any(not (0 <= a < s) for a in self.cycle):
            raise ValueError("cycle uses a symbol outside the alphabet")
        rotations = {self.cycle[t:] + self.cycle[:t] for t in range(p)}
        if len(rotations) != p:
            raise ValueError(f"cycle of length {p} has a smaller period")

    @classmethod
    def from_string(cls, cycle: str | Sequence,
                    alphabet: Optional[Alphabet] = None) -> "PeriodicProcess":
        """A cycle of characters, or of labels, each read as ``Alphabet``
        reads its labels: by ``str``."""
        labels = [str(a) for a in cycle]
        if alphabet is None:
            alphabet = Alphabet(sorted(set(labels)))
        return cls(alphabet, alphabet.encode(labels))

    @property
    def period(self) -> int:
        return len(self.cycle)

    def _window(self, phase: int, n: int) -> Word:
        p = self.period
        return tuple(self.cycle[(phase + i) % p] for i in range(n))

    def block_distribution(self, L: int) -> BlockDistribution:
        if L < 1:
            raise ValueError("block length must be >= 1")
        # one unit of weight per phase, over the period
        counts: dict = {}
        for t in range(self.period):
            word = self._window(t, L)
            counts[word] = counts.get(word, 0) + 1
        return BlockDistribution(self.alphabet, L, counts, self.period)

    def joint_gap_distribution(self, L: int, g: int) -> JointBlockDistribution:
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        counts: dict = {}
        for t in range(self.period):
            key = (self._window(t, L), self._window(t + L + g, L))
            counts[key] = counts.get(key, 0) + 1
        return JointBlockDistribution(self.alphabet, L, g, L, counts,
                                      self.period)

    def closed_forms(self) -> ClosedForms:
        # p equally likely phases, each its own length-p block
        H = log2_of(self.period)
        e = Fraction(1) if self.period > 1 else Fraction(0)
        return ClosedForms(entropy_rate=Fraction(0), excess_entropy=H,
                           complexity_plus=H, complexity_minus=H,
                           pmi=H, efficiency=e)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The cycle from a uniformly drawn phase on, tiled in the
        narrowest unsigned type of the alphabet (``_code_dtype``)."""
        phase = int(rng.integers(self.period))
        rotated = np.array(self.cycle[phase:] + self.cycle[:phase],
                           dtype=_code_dtype(len(self.alphabet)))
        return np.tile(rotated, -(-n // self.period))[:n]

    def reversed(self) -> "PeriodicProcess":
        return PeriodicProcess(self.alphabet, self.cycle[::-1])


# ── order-R Markov ──────────────────────────────────────────────────


def _as_weight(x):
    if isinstance(x, bool):
        raise ValueError("probabilities must be numbers, not bools")
    if isinstance(x, Rational):
        return Fraction(x)
    return float(x)


def _float_stationary(T: np.ndarray) -> np.ndarray:
    """Stationary law of a float stochastic matrix: the eigenvector of
    T^t for the eigenvalue nearest 1, 0 off its closed class, refused
    unless the zero pattern of T has one, as the rational solve is."""
    vals, vecs = np.linalg.eig(T.T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    # one closed class exactly when a backward walk from the heaviest
    # state k reaches every state; a forward walk from k is that class
    k = int(np.argmax(np.abs(v)))
    if len(_levels([np.flatnonzero(c).tolist() for c in T.T], k)[0]) < len(T):
        raise ValueError("stationary distribution is not unique")
    closed = list(_levels([np.flatnonzero(r).tolist() for r in T], k)[0])
    v = np.clip(v / v.sum(), 0.0, None) * np.isin(np.arange(len(T)), closed)
    return v / v.sum()


def _entropy_nats(probs) -> float:
    """Entropy in nats of a float law.  The largest entry's term is
    written −(1 − r)·log1p(−r), r the sum of the others, so that it
    survives where that entry rounds to 1; the terms are summed once,
    by ``fsum``."""
    *rest, _ = sorted(probs)
    r = math.fsum(rest)
    if r <= 0:
        return 0.0
    return -math.fsum([*(p * math.log(p) for p in rest if p > 0),
                       (1 - r) * math.log1p(-r)])


#: edges up to which the sampler bins its uniforms by one comparison per
#: edge; ``searchsorted`` bins them past it
_COMPARED_EDGES = 16

#: entries (chunk codes × contexts) of the sampler's k-step table
_STEP_TABLE = 1 << 12


def _chunk_steps(nb: int, m: int) -> int:
    """Steps the sampler reads per table lookup, given nb bins and m
    contexts: the largest k ≤ 16 with nb^k·m entries within
    ``_STEP_TABLE``, and 1 when one step's table is already past it."""
    k = 1
    while k < 16 and nb ** (k + 1) * m <= _STEP_TABLE:
        k += 1
    return k


def _walk_maps(steps: np.ndarray, maps: np.ndarray, rows: list,
               start: int) -> np.ndarray:
    """States x_0 = start, x_{t+1} = maps[steps[t], x_t] for t < n − 1.

    Adjacent steps are composed pairwise into one map per pair, level
    after level; each level keeps each distinct map once, so its table
    stays small (a mixing chain's maps become constant).  Composing
    stops at one step, or before a level whose table would outgrow its
    steps (a chain with many contexts); the steps left are walked one
    by one.  The state before every pair then gives the state inside
    it, from the top level back down, each level read from its
    flattened table with one ``take``.  ``rows`` is ``maps.tolist()``,
    walked when nothing is composed; the sampler builds it once and
    calls this once per block, so every level is at most a block long.
    """
    n = steps.size
    levels = []
    while steps.size > 1:
        k, m = maps.shape
        if steps.size % 2:
            # a pad step: its map acts only after the last step
            steps = np.append(steps, 0)
        distinct, ids = _ranks(steps[0::2] * k + steps[1::2], k * k)
        if distinct.size * m > ids.size:
            break
        levels.append((steps, maps))
        first, second = np.divmod(distinct, k)
        # many pairs compose to the same map: keep each map once
        maps, same = _distinct_rows(maps[second[:, None], maps[first]], m)
        steps = same[ids]
    table = maps.tolist() if levels else rows
    top = []
    state = start
    for step in steps.tolist():
        top.append(state)
        state = table[step][state]
    states = np.array(top, dtype=np.int64)
    for steps, maps in reversed(levels):
        states = states[:steps.size // 2]
        inner = np.empty(steps.size, dtype=np.int64)
        inner[0::2] = states
        inner[1::2] = maps.ravel().take(steps[0::2] * maps.shape[1] + states)
        states = inner
    return states[:n]


class MarkovProcess:
    """Order-R Markov chain given by one probability row per length-R
    context; order 0 degenerates to an i.i.d. source.

    The stationary law is solved on the context chain (exactly for
    rational rows); builders that already know it may pass
    ``stationary`` aligned with the lexicographic context order, which
    is then verified rather than re-solved.

    A rational chain is kept as integers: with d the common denominator
    of its rows and q that of its stationary law, the rows d·P, the
    context weights q·π and the context matrix d·T.  A length-L word
    (L >= R) then has weight q·π(c)·Π d·P over q·d^(L−R).  The context
    matrix is one NumPy array, of Python ints d·T (dtype object) on a
    rational chain and of floats T on a float one, and a gap cell
    bridges the g + R symbols past the left block by one
    ``np.linalg.matrix_power``, built once per gap, for every order
    and every L.

    The measures read :meth:`block_entropies` and
    :meth:`gap_mutual_information`, which build no word table; their
    oracles, which do, are ``block_distribution`` and
    ``joint_gap_distribution``.  Both routes enumerate the law and read
    no closed form, so they stay a check on the closed forms.
    """

    __slots__ = ("alphabet", "order", "kernel", "exact", "stationary",
                 "contexts", "_cindex", "_edges", "_moves", "_T", "_d", "_pi",
                 "_q", "_powers")

    def __init__(self, alphabet: Alphabet, order: int,
                 kernel: Mapping[Word, Sequence],
                 stationary: Optional[Sequence] = None):
        s = len(alphabet)
        if order < 0:
            raise ValueError("order must be >= 0")
        contexts = tuple(product(range(s), repeat=order))
        rows = {}
        for c in contexts:
            if c not in kernel:
                raise ValueError(f"kernel is missing context {c}")
            row = tuple(_as_weight(x) for x in kernel[c])
            if len(row) != s:
                raise ValueError(f"row for context {c} has wrong length")
            if any(x < 0 for x in row):
                raise ValueError(f"row for context {c} has negative entries")
            rows[c] = row
        if len(kernel) != len(contexts):
            raise ValueError("kernel has rows for unknown contexts")
        exact = all(isinstance(x, Fraction) for row in rows.values()
                    for x in row)
        if not exact:
            rows = {c: tuple(float(x) for x in row) for c, row in rows.items()}
        for c, row in rows.items():
            total = sum(row)
            if not _agrees(total, 1, 1e-9):
                raise ValueError(f"row for context {c} sums to {total}, not 1")

        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "kernel", rows)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "_cindex",
                           {c: i for i, c in enumerate(contexts)})
        object.__setattr__(self, "_powers", {})

        # the nonzero entries of each row as ((symbol,), weight): d·P
        # for rational rows, P itself (d = 1) for float rows
        d = math.lcm(*(x.denominator for row in rows.values()
                       for x in row)) if exact else 1
        edges = {c: tuple(((a,), x.numerator * (d // x.denominator)
                           if exact else x) for a, x in enumerate(row) if x)
                 for c, row in rows.items()}
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_edges", edges)

        # per context index, the (next context index, weight) of each edge
        moves = tuple(
            tuple((self._cindex[(c + a)[-order:] if order else ()], w)
                  for a, w in edges[c]) for c in contexts)
        object.__setattr__(self, "_moves", moves)

        m = len(contexts)
        # Python ints in an object array on a rational chain: (d·T)^g
        # outgrows int64
        T = np.zeros((m, m), dtype=object if exact else float)
        for ci, row in enumerate(moves):
            for cj, w in row:
                T[ci, cj] += w
        object.__setattr__(self, "_T", T)

        if stationary is not None:
            pi = tuple(_as_weight(x) for x in stationary)
            if len(pi) != m:
                raise ValueError("stationary vector has wrong length")
            if exact and not all(isinstance(x, Fraction) for x in pi):
                raise ValueError("stationary vector of a chain with rational "
                                 "rows must be rational, not float")
            # flow = pi·(d·T) over the moves, to be compared with d·pi
            flow = [0] * m
            for ci, row in enumerate(moves):
                for cj, w in row:
                    flow[cj] += pi[ci] * w
            if not all(_agrees(flow[j], d * pi[j], 1e-9) for j in range(m)):
                raise ValueError("supplied stationary vector is not stationary")
        elif exact:
            pi = stationary_from_transitions(
                [[Fraction(w, d) for w in row] for row in T])
        else:
            pi = tuple(float(x) for x in _float_stationary(T))
        object.__setattr__(self, "stationary", pi)
        if exact:
            weights, q = _rational_weights(pi)
            object.__setattr__(self, "_pi", tuple(weights))
        else:
            q = None
            object.__setattr__(self, "_pi", pi)
        object.__setattr__(self, "_q", q)

    def __setattr__(self, name, value):
        raise AttributeError("MarkovProcess is immutable")

    @classmethod
    def from_rows(cls, rows: Mapping[str, Sequence],
                  alphabet: Optional[Alphabet] = None) -> "MarkovProcess":
        """Rows keyed by context strings, e.g. {"0": (.9, .1), "1": (.2, .8)}."""
        orders = {len(k) for k in rows}
        if len(orders) != 1:
            raise ValueError("context strings must share one length")
        order = orders.pop()
        widths = {len(v) for v in rows.values()}
        if len(widths) != 1:
            raise ValueError("rows must share one length")
        if alphabet is None:
            alphabet = Alphabet(str(i) for i in range(widths.pop()))
        kernel = {alphabet.encode(k): v for k, v in rows.items()}
        return cls(alphabet, order, kernel)

    # context-chain helpers -------------------------------------------------

    def _denominator(self, steps: int):
        """Denominator of weights started from the context law and
        pushed ``steps`` symbols; None on a float chain."""
        return self._q * self._d ** steps if self.exact else None

    def _gap_matrix(self, g: int):
        """(d·T)^g, or T^g on a float chain with each row divided by its
        sum; kept per g, up to GAP_POWERS_KEPT of them, the oldest
        dropped first.

        A float T is summed in float (ten 0.1s give 0.9999999999999999),
        so its powers lose mass as g grows; the row sums put it back."""
        Tg = self._powers.get(g)
        if Tg is None:
            Tg = np.linalg.matrix_power(self._T, g)
            if not self.exact:
                # not in place: the first power is _T itself
                Tg = Tg / Tg.sum(axis=1, keepdims=True)
            if len(self._powers) >= GAP_POWERS_KEPT:
                del self._powers[next(iter(self._powers))]
            self._powers[g] = Tg
        return Tg

    def _extend(self, start: Mapping[Word, object], steps: int) -> dict:
        """Push a dict of weighted words forward ``steps`` symbols,
        multiplying by the row weights (d·P on a rational chain).

        Keys must already be at least ``order`` long so the context is
        the word suffix.  Zero-probability branches are never created.
        """
        layer = dict(start)
        R = self.order
        edges = self._edges
        for _ in range(steps):
            new: dict = {}
            for word, p in layer.items():
                for a, w in edges[word[-R:] if R else ()]:
                    new[word + a] = p * w
            layer = new
        return layer

    def _context_weights(self) -> dict:
        return {c: p for c, p in zip(self.contexts, self._pi) if p != 0}

    # public surface ---------------------------------------------------------

    def block_distribution(self, L: int) -> BlockDistribution:
        if L < 1:
            raise ValueError("block length must be >= 1")
        _check_cap(len(self.alphabet), L)
        R = self.order
        if R and L <= R:
            ctx = BlockDistribution(self.alphabet, R, self._context_weights(),
                                    self._denominator(0))
            return ctx.restrict(R - L, R)
        words = self._extend(self._context_weights(), L - R)
        return BlockDistribution(self.alphabet, L, words,
                                 self._denominator(L - R))

    def block_entropies(self, Ls: Sequence[int]) -> list:
        """H(L) in bits for each length of Ls.  Words of length L >= R
        continue by their edge context alone, so one layer of classes
        (edge context, weight) → number of words grows from the context
        weights at length R; each H(L) reads the weights' counts, in
        float where an exact H(L) is not smooth.  L < R reads the block
        table; a layer is refused before it could outgrow WINDOW_STATE_CAP
        classes."""
        if min(Ls) < 1:
            raise ValueError("block length must be >= 1")
        R, s = self.order, len(self.alphabet)
        H = {L: shannon_entropy(self.block_distribution(L))
             for L in Ls if L < R}
        layer = {(ci, w): 1 for ci, w in enumerate(self._pi) if w}
        for L in range(R, max(Ls) + 1):
            if L > R:
                if len(layer) * s > WINDOW_STATE_CAP:
                    raise WindowCapError(
                        f"block entropy at length {L} grows {len(layer)}"
                        f" (edge context, weight) classes over {s} symbols")
                grown: dict = {}
                for (ci, w), k in layer.items():
                    for cj, e in self._moves[ci]:
                        key = (cj, w * e)
                        grown[key] = grown.get(key, 0) + k
                layer = grown
            if L not in Ls:
                continue
            counts: dict = {}
            for (_, w), k in layer.items():
                counts[w] = counts.get(w, 0) + k
            D = self._denominator(L - R)
            try:
                H[L] = _entropy_of_weights(counts, D)
            except _NotSmooth:
                # int / int rounds correctly; arrays keep the multiplicity
                # of two weights that round to one float
                H[L] = _entropy_of_p(
                    np.array([w / D for w in counts], dtype=np.float64),
                    np.array(list(counts.values()), dtype=np.float64))
        return [H[L] for L in Ls]

    def joint_gap_distribution(self, L: int, g: int) -> JointBlockDistribution:
        """The joint law of every (left, right) pair, one multiply-add per
        left word × bridge context × right word: the oracle of
        ``gap_mutual_information``, read by the tests alone."""
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        # the gap is bridged by a matrix power, so only the two visible
        # blocks are enumerated
        _check_cap(len(self.alphabet), 2 * L)
        R = self.order
        # an order-0 chain forgets its past at once: the identity bridges it
        gap = g if R else 0
        bridges = self._gap_matrix(gap).tolist()
        right = [(self._cindex[w[:R]], w[R:], q) for w, q in
                 self._extend(dict.fromkeys(self.contexts, 1), L).items()]
        # the left block and the context at its right edge, both read off
        # the table of blocks of length K = max(L, R)
        K = max(L, R)
        block = self.block_distribution(K)
        probs: dict = {}
        for w, p in block.weights.items():
            a = w[K - L:]
            row = [p * x for x in bridges[self._cindex[w[K - R:]]]]
            for cj, b, q in right:
                if row[cj]:
                    key = (a, b)
                    probs[key] = probs.get(key, 0) + row[cj] * q
        den = block.denominator
        if den is not None:
            den *= self._d ** (gap + L)
        return JointBlockDistribution(self.alphabet, L, g, L, probs, den)

    def gap_mutual_information(self, L: int, g: int) -> Scalar:
        """I(A; B) in bits of two length-L blocks g symbols apart.  A
        reaches B only through its last min(L, R) symbols, the tail
        c[max(R − L, 0):] of its edge context c, weighted q·π(c); B is
        the first L symbols of a word entered at each context that
        (d·T)^(g+R) bridges c to.  That is s^R·s^max(L, R) cells, capped
        as such, where ``joint_gap_distribution`` has s^(2L) pairs; an
        order-0 cell would have one left key, so it is 0 with no bridge."""
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        R = self.order
        _check_cap(len(self.alphabet), R + max(L, R))
        if R == 0:
            return ExactBits(0) if self.exact else 0.0
        bridges = self._gap_matrix(g + R).tolist()
        right = [(self._cindex[w[:R]], w[:L], q) for w, q in self._extend(
            dict.fromkeys(self.contexts, 1), max(L - R, 0)).items()]
        cells: dict = {}
        for c, p in self._context_weights().items():
            a = c[max(R - L, 0):]
            row = [p * x for x in bridges[self._cindex[c]]]
            for cj, b, q in right:
                if row[cj]:
                    key = (a, b)
                    cells[key] = cells.get(key, 0) + row[cj] * q
        return mutual_information(JointBlockDistribution._trusted(
            self.alphabet, min(L, R), g, L, cells,
            self._denominator(g + max(L, R))))

    def closed_forms(self) -> ClosedForms:
        """h = Σ_c π(c)·H(P(·|c)), E = H(π) − R·h and C± (the entropies
        of the causal-state masses of the chain and of its reversal),
        read from the rows and π, never from a block table."""
        R = self.order
        rows = [(p, self.kernel[c])
                for c, p in zip(self.contexts, self.stationary) if p]
        if self.exact:
            bits = entropy_of_probs
            h = sum(p * entropy_of_probs(row) for p, row in rows)
        else:
            def bits(probs):
                return _entropy_nats(probs) / math.log(2)
            h = sum(p * _entropy_nats(row) for p, row in rows) / math.log(2)
        HR = bits(self.stationary)
        E = HR - R * h
        C_plus = bits(self._causal_state_masses())
        back = self.reversed()  # the Ising chain is its own reversal
        C_minus = C_plus if back is self else bits(back._causal_state_masses())
        if float(C_plus) == 0.0:
            eff = Fraction(0)
        else:
            # E / C_P, written as H(R)/C_P − R·h/C_P so that it rounds as
            # 1 − R·h/H(R) does when no two contexts merge
            eff = float(HR) / float(C_plus) - R * float(h) / float(C_plus)
        # the phase among the d cyclic classes of the closed class, walked
        # from its heaviest context, persists across any gap
        start = max(range(len(self.contexts)), key=self._pi.__getitem__)
        d = _levels([[cj for cj, _ in row] for row in self._moves], start)[1]
        return ClosedForms(entropy_rate=h, excess_entropy=E,
                           complexity_plus=C_plus, complexity_minus=C_minus,
                           pmi=log2_of(d) if d > 1 else Fraction(0),
                           efficiency=eff)

    def _causal_state_masses(self) -> list:
        """Stationary masses of the causal states.

        A context's future law is fixed by its kernel row and the
        contexts it moves to, so contexts with equal future laws are
        found by partition refinement: start from equal rows, then split
        classes by the classes of the successors on each symbol of
        nonzero probability, until no class splits.
        """
        def numbered(signature):
            ids: dict = {}
            return {c: ids.setdefault(signature[c], len(ids))
                    for c in self.contexts}

        cls = numbered(self.kernel)
        while True:
            finer = numbered({
                c: (cls[c],) + tuple(cls[(c + (a,))[1:]] if pa != 0 else -1
                                     for a, pa in enumerate(row))
                for c, row in self.kernel.items()})
            if max(finer.values()) == max(cls.values()):
                break
            cls = finer
        masses: dict = {}
        for c, p in zip(self.contexts, self.stationary):
            masses[cls[c]] = masses.get(cls[c], 0) + p
        return list(masses.values())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n symbols by inverse CDF, one uniform u per symbol: the symbol
        is the number of cut points of the current context's row (its
        cumulative sum without the last entry) at or below u.

        The start context is drawn from the stationary law.  The walk
        itself is vectorized: u's bin among the union of all rows' cut
        points (the number of those edges at or below u, by one
        comparison per edge, or ``searchsorted`` past
        ``_COMPARED_EDGES`` edges) fixes the symbol for every context,
        so each step is a map from context to next context.  Runs of k
        bins are read as one base-nb chunk code (nb bins), looked up
        in a k-step table built once per call: for each code and
        context, the k symbols written and the context reached.  k is
        the largest with nb^k·m ≤ ``_STEP_TABLE`` (m contexts), at
        most 16; a chain with many contexts gets k = 1, the one-step
        table itself.  Equal k-step maps are kept once, and
        ``_walk_maps`` composes the chunks' maps instead of stepping
        through them one by one.

        The uniforms are drawn and walked ``_BLOCK`` at a time, each
        block from the context the previous one ended in, which is
        replayed step by step over the block's last chunk (padded with
        bin 0 when it is partial).  Each block is written into one
        output array in the narrowest unsigned type of the alphabet
        (``_code_dtype``): one byte per symbol up to 256 symbols.  A
        Generator gives the same doubles in blocks as in one call, so
        the sample does not depend on the block size.  A block's
        symbols are one ``take`` of k-symbol rows from the table, held
        in the output's type; only the chunk codes and the walk of a
        block are computed in int64.  An order-0 chain (``IidProcess`` too) walks its single
        context the same way.
        """
        s = len(self.alphabet)
        dtype = _code_dtype(s)
        m = len(self.contexts)
        cuts = np.array([np.cumsum([float(x) for x in self.kernel[c]])[:-1]
                         for c in self.contexts]).reshape(m, s - 1)
        cum_pi = np.cumsum([float(x) for x in self.stationary])
        start = min(int(np.searchsorted(cum_pi, float(rng.random()),
                                        side="right")), m - 1)
        # the distinct cut points, ascending, without np.unique's
        # masked-array check (it imports numpy.ma)
        edges = np.sort(cuts, axis=None)
        edges = edges[np.diff(edges, prepend=-np.inf) > 0]
        nb = edges.size + 1
        # bin b holds the u with exactly b edges at or below them; its
        # symbol in each row counts that row's cuts at or below edge b−1
        floor = np.concatenate(([-np.inf], edges))
        symbols = np.array([np.searchsorted(row, floor, side="right")
                            for row in cuts]).T
        maps = (np.arange(m) * s + symbols) % m
        rows = maps.tolist()
        k = _chunk_steps(nb, m)
        if k == 1:
            ids, step_maps, step_rows = None, maps, rows
            written = symbols.reshape(-1, 1).astype(dtype)
        else:
            # digit j of code q (most significant first) is the bin of
            # step j of its chunk
            q = np.arange(nb ** k)[:, None]
            state = np.tile(np.arange(m), (q.size, 1))
            written = np.empty((q.size, m, k), dtype=dtype)
            for j in range(k):
                b = q // nb ** (k - 1 - j) % nb
                written[:, :, j] = symbols[b, state]
                state = maps[b, state]
            written = written.reshape(-1, k)
            step_maps, ids = _distinct_rows(state, m)
            step_maps = step_maps.astype(np.int64)
            step_rows = step_maps.tolist()
        bin_type = _code_dtype(nb)
        out = np.empty(n, dtype=dtype)
        context = start
        for lo in range(0, n, _BLOCK):
            u = rng.random(min(_BLOCK, n - lo))
            bins = np.zeros(-(-u.size // k) * k, dtype=bin_type)
            if edges.size > _COMPARED_EDGES:
                bins[:u.size] = np.searchsorted(edges, u, side="right")
            else:
                for e in edges.tolist():
                    bins[:u.size] += u >= e
            chunks = bins.reshape(-1, k)
            codes = chunks[:, 0].astype(np.int64)
            for j in range(1, k):
                codes *= nb
                codes += chunks[:, j]
            states = _walk_maps(codes if ids is None else ids[codes],
                                step_maps, step_rows, context)
            codes *= m
            codes += states
            out[lo:lo + u.size] = written.take(codes, axis=0).ravel()[:u.size]
            context = int(states[-1])
            for b in bins[bins.size - k:u.size].tolist():
                context = rows[b][context]
        return out

    def reversed(self) -> "MarkovProcess":
        """Time reversal: an order-R chain whose kernel is the Bayes
        inversion P(a | d) = π(c)·P(b | c) / π(reversed(d)), where the
        forward word a·reversed(d) is the context c followed by b; read
        from the rows and π, not from a block table.

        Contexts never visited forward get a uniform placeholder row;
        the reversed stationary law puts no mass there, and it is
        passed through explicitly because the placeholder rows would
        otherwise make the stationary solve ambiguous.
        """
        R, s = self.order, len(self.alphabet)
        pi = dict(zip(self.contexts, self.stationary))
        uniform = tuple(
            Fraction(1, s) if self.exact else 1.0 / s for _ in range(s))
        kernel: dict = {}
        for d in self.contexts:
            fwd = d[::-1]
            kernel[d] = uniform if pi[fwd] == 0 else tuple(
                pi[w[:R]] * self.kernel[w[:R]][w[R]] / pi[fwd]
                for w in [(a,) + fwd for a in range(s)])
        return MarkovProcess(self.alphabet, R, kernel,
                             stationary=[pi[d[::-1]] for d in self.contexts])

    def __repr__(self):
        return (f"MarkovProcess(order={self.order}, "
                f"alphabet={''.join(self.alphabet.symbols)!r}, "
                f"{'exact' if self.exact else 'float'})")


# ── i.i.d. ──────────────────────────────────────────────────────────


class IidProcess(MarkovProcess):
    """Independent symbols with a fixed marginal: an order-0 Markov
    chain, whose laws, walk and reversal it inherits."""

    def __init__(self, alphabet: Alphabet, probs: Sequence):
        super().__init__(alphabet, 0, {(): probs})

    @classmethod
    def from_probs(cls, probs: Sequence,
                   alphabet: Optional[Alphabet] = None) -> "IidProcess":
        if alphabet is None:
            alphabet = Alphabet(str(i) for i in range(len(probs)))
        return cls(alphabet, probs)

    # the chain's own methods, bound here by name as well, since
    # per-class method wrappers (perfbench/tracer.py) look them up in
    # this class
    joint_gap_distribution = MarkovProcess.joint_gap_distribution
    sample = MarkovProcess.sample


# ── one-dimensional Ising chain ─────────────────────────────────────


def ising_entropy_rate(J: float, h: float, beta: float) -> float:
    """Entropy rate (bits per spin) of the nearest-neighbour Ising
    chain: the closed form Σ_s π_s H(P(· | s)) of ``IsingChainProcess``,
    which takes no difference of large numbers and never overflows."""
    return IsingChainProcess(J, h, beta).closed_forms().entropy_rate


def _ising_chain(J: float, h: float, beta: float):
    """Rows P(s' | s) and stationary law of the chain induced by the
    transfer matrix, in closed form and free of overflow.

    With a = V(-,-), b = V(-,+), c = V(+,+), the diagonal of the kernel
    is V(s, s) / lambda_1, so row - is (a, lambda_1 - a) / lambda_1 and
    row + is (lambda_1 - c, c) / lambda_1.  The three entries are
    scaled by the largest of them (log-sum-exp), and lambda_1 - a,
    lambda_1 - c are taken in the form that does not cancel.  Detailed
    balance gives the stationary law (lambda_1 - c, lambda_1 - a) up to
    normalization.
    """
    logs = (beta * (J - h), -beta * J, beta * (J + h))
    top = max(logs)
    a, b, c = (math.exp(t - top) for t in logs)
    if J == 0:  # one site law for both rows, so that they are equal
        site = (a / (a + c), c / (a + c))
        return (site, site), site
    u = (a - c) / 2
    r = math.hypot(u, b)  # lambda_1 = (a + c) / 2 + r
    da = r - u if u <= 0 else b * b / (r + u)  # lambda_1 - a
    dc = r + u if u >= 0 else b * b / (r - u)  # lambda_1 - c
    rows = ((a / (a + da), da / (a + da)), (dc / (c + dc), c / (c + dc)))
    # both differences vanish only at h = 0 once b underflows: the two
    # ground states, each with mass 1/2
    pi = (dc / (da + dc), da / (da + dc)) if da + dc else (0.5, 0.5)
    return rows, pi


class IsingChainProcess(MarkovProcess):
    """Spin chain with energy -J s s' - h s per bond/site, presented as
    a binary symbol process (spin -1 is symbol 0, spin +1 is symbol 1).

    The symmetric transfer matrix V(s, s') = exp(beta (J s s' +
    h (s + s')/2)) induces an order-1 Markov chain P(s'|s) =
    V(s, s') r(s') / (lambda_1 r(s)) with stationary law r(s)^2, which
    carries all block statistics: the process is that chain, whose
    laws, walk and closed forms it inherits (PMI pinned to 0).  The
    chain's rows come in closed form from lambda_1 (see
    ``_ising_chain``), so they stay finite at any temperature; at J = 0
    they are one site law, so C± = 0.
    """

    __slots__ = ("J", "h", "beta")

    def __init__(self, J: float, h: float, beta: float):
        if not (beta > 0 and all(map(math.isfinite, (J, h, beta)))):
            raise ValueError("J, h and beta must be finite, beta positive")
        rows, pi = _ising_chain(J, h, beta)
        super().__init__(Alphabet(("-1", "+1")), 1,
                         {(0,): rows[0], (1,): rows[1]}, stationary=pi)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", beta)

    def as_markov(self) -> MarkovProcess:
        """The induced order-1 chain: the process itself."""
        return self

    def closed_forms(self) -> ClosedForms:
        # V > 0, so the chain is aperiodic even where its float rows
        # round to a permutation
        return replace(super().closed_forms(), pmi=Fraction(0))

    def reversed(self) -> "IsingChainProcess":
        # V is symmetric, so the chain satisfies detailed balance
        return self


# ── symbolized logistic map ─────────────────────────────────────────


@dataclass(frozen=True)
class LogisticSymbolizer:
    """Threshold observation of x -> r x (1 - x): symbol 0 when
    x <= 1/2, else 1, after a deterministic burn-in.

    Purely deterministic given (r, x0); the sampler ignores its seed.
    Sample-only: it has no exact law.
    """

    r: float
    x0: float
    burnin: int = 1000

    def __post_init__(self):
        if not (0 <= self.r <= 4):
            raise ValueError("r must lie in [0, 4]")
        if not (0 <= self.x0 <= 1):
            raise ValueError("x0 must lie in [0, 1]")
        if self.burnin < 0:
            raise ValueError("burn-in must be >= 0")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet("01")

    def sample(self, n: int, rng=None) -> np.ndarray:
        x = self.x0
        r = self.r
        for _ in range(self.burnin):
            x = r * x * (1 - x)
        out = np.empty(n, dtype=_code_dtype(len(self.alphabet)))
        for t in range(n):
            out[t] = 0 if x <= 0.5 else 1
            x = r * x * (1 - x)
        return out


# ── substitution fixed points ───────────────────────────────────────


_PARITY_RULES = ((0, 1), (1, 0))


@dataclass(frozen=True)
class SubstitutionProcess(_TableLaws):
    """Uniquely ergodic process of a primitive substitution fixed
    point; block laws are the exact factor frequencies.  Windows are
    capped on the letters of the pair-image windows they are read from
    (substitution._pair_window_counts), not on alphabet size ** length."""

    substitution: Substitution

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def block_entropies(self, Ls: Sequence[int]) -> list:
        """H(L) of the window weights of ``_window_law``, no word built."""
        if any(L < 1 for L in Ls):
            raise ValueError("block length must be >= 1")
        subst = self.substitution
        return [_entropy_of_table(*_window_law(
            subst, shortcut_power(subst, L), ((0, L),))[2:]) for L in Ls]

    def block_distribution(self, L: int) -> BlockDistribution:
        if L < 1:
            raise ValueError("block length must be >= 1")
        subst = self.substitution
        rows, _, weights, D = _window_law(subst, shortcut_power(subst, L),
                                          ((0, L),))
        keys = map(tuple, rows.tolist())
        return BlockDistribution._trusted(
            self.alphabet, L, dict(zip(keys, weights)), D)

    def joint_gap_distribution(self, L: int, g: int) -> JointBlockDistribution:
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        n = 2 * L + g
        subst = self.substitution
        rows, _, weights, D = _window_law(subst, shortcut_power(subst, n),
                                          ((0, L), (L + g, n)))
        keys = [(tuple(r[:L]), tuple(r[L:])) for r in rows.tolist()]
        return JointBlockDistribution._trusted(
            self.alphabet, L, g, L, dict(zip(keys, weights)), D)

    def closed_forms(self) -> ClosedForms:
        """Only the parity (Thue-Morse) fixed point has tabulated
        values: zero entropy rate with diverging E, C and PMI; the
        efficiency of an infinite/infinite ratio is left undefined."""
        if len(self.alphabet) == 2 and self.substitution.rules == _PARITY_RULES \
                and self.substitution.start == 0:
            return ClosedForms(entropy_rate=Fraction(0),
                               excess_entropy=math.inf,
                               complexity_plus=math.inf,
                               complexity_minus=math.inf,
                               pmi=math.inf, efficiency=None)
        raise ClosedFormUnavailable(
            "no tabulated closed forms for this substitution")

    def sample(self, n: int, rng=None) -> np.ndarray:
        """The fixed-point prefix itself (deterministic); its sliding
        statistics converge to the block law by unique ergodicity."""
        return fixed_point_array(self.substitution, n)

    def reversed(self):
        raise ClosedFormUnavailable(
            "time reversal of a one-sided fixed point is not provided")


# ── dispatch ────────────────────────────────────────────────────────


def block_distribution(model, L: int) -> BlockDistribution:
    """Exact stationary law of length-L blocks."""
    return model.block_distribution(L)


def joint_gap_distribution(model, L: int, g: int) -> JointBlockDistribution:
    """Exact joint law of two length-L blocks separated by g symbols."""
    return model.joint_gap_distribution(L, g)


def closed_forms(model) -> ClosedForms:
    """Tabulated complexity quantities of the model class."""
    return model.closed_forms()


def sample(model, n: int, seed: int = 0) -> np.ndarray:
    """Length-n symbol sample, stationary at fixed seed where the model
    class allows a stationary start."""
    if n < 1:
        raise ValueError("sample length must be >= 1")
    rng = np.random.default_rng(seed)
    return model.sample(n, rng)


def reversed_model(model):
    """The time-reversed process as a model of the same family."""
    return model.reversed()

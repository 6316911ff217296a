"""Stationary symbolic process models with exact block statistics.

Every exact model answers the two questions of the measures,
``block_entropies(Ls)`` and ``gap_mutual_information(L, g)`` (two
length-L blocks g unseen symbols apart), with no word table: a Markov
chain from its rows and stationary law, a periodic cycle and a
substitution fixed point from the weights of their windows
(``_WindowLaws``), a gap cell as one 2-D weight array.  Models add
closed forms where their class has them, a time reversal
(``ReversedProcess``) and a seeded sampler; the logistic map is
sample-only.  Module-level functions call the method of their name.

Rational model parameters give exact distributions end to end: each
table holds integer weights over one denominator D, built from
integers without a Fraction per word, and ``probs`` reads w / D as a
Fraction.  The i.i.d. source (order 0) and the Ising chain (order
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
states for a gap cell read from the left block's edge context), and an
exact power is held to GAP_POWER_BIT_CAP bits instead, the cell's own
array of those states to eight times that.  A
substitution fixed point has far fewer factors than words: its laws
read the length-n windows of the pair images ζ^p(α)ζ^p(β), and the
window count Σ_αβ |ζ^p(α)| times n, found from the image lengths
before any image is built, is held to the same cap; a gap law reads
only the two blocks of each window, building no length-n word.
WINDOW_STATE_CAP and WindowCapError live in ``infocore`` and are
re-exported here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product
from numbers import Rational
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._ratlinalg import rational_nullspace
from .infocore import (
    GAP_POWER_BIT_CAP,
    WINDOW_STATE_CAP,
    BlockDistribution,
    ExactBits,
    JointBlockDistribution,
    Scalar,
    WindowCapError,
    Word,
    _Frozen,
    _NotSmooth,
    _agrees,
    _entropy_of_p,
    _entropy_of_table,
    _entropy_of_weights,
    _mi_of_joint,
    _rational_weights,
    entropy_of_probs,
    log2_of,
)
from .sequence import (
    Alphabet,
    _BLOCK,
    _code_dtype,
    _distinct_rows,
    _ranks,
    _words,
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
    "closed_forms",
    "sample",
    "reversed_model",
]


def _one_length(what: str, named: Mapping, detail: str) -> int:
    """The length that every value of ``named`` shares; a refusal names
    the first key of each of two lengths."""
    first: dict = {}
    for key, value in named.items():
        first.setdefault(len(value), key)
    if len(first) == 1:
        return next(iter(first))
    two = [detail.format(k, n) for n, k in first.items()][:2]
    raise ValueError(f"{what} must share one length"
                     + (": " + ", ".join(two) if two else ""))


class ClosedFormUnavailable(ValueError):
    """The model class has no exact expression for the request."""


def _check_cap(s: int, window_length: int) -> None:
    if s ** window_length > WINDOW_STATE_CAP:
        raise WindowCapError(
            f"window of length {window_length} over {s} symbols needs"
            f" {s}**{window_length} states")


class ClosedForms(NamedTuple):
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


class _WindowLaws(_Frozen):
    """H(L), tables, gap cells and reversal of a model that lists its
    windows: ``_window_law(spans)`` reads them through ``spans``, as the
    rows of a 2-D array of letters in lex order, with integer weights
    over D (floats when D is None)."""

    __slots__ = ()

    def block_entropies(self, Ls: Sequence[int]) -> list:
        if any(L < 1 for L in Ls):
            raise ValueError("block length must be >= 1")
        return [_entropy_of_table(*self._window_law(((0, L),))[1:])
                for L in Ls]

    def block_distribution(self, L: int) -> BlockDistribution:
        if L < 1:
            raise ValueError("block length must be >= 1")
        rows, weights, D = self._window_law(((0, L),))
        return BlockDistribution._trusted(
            self.alphabet, L, dict(zip(_words(rows), weights)), D)

    def _gap_law(self, L: int, g: int) -> tuple:
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        return self._window_law(((0, L), (L + g, 2 * L + g)))

    def joint_gap_distribution(self, L: int, g: int) -> JointBlockDistribution:
        """The gap windows as a table: the tests' oracle of the cells."""
        rows, weights, D = self._gap_law(L, g)
        pairs = zip(_words(rows[:, :L]), _words(rows[:, L:]))
        return JointBlockDistribution._trusted(
            self.alphabet, L, g, L, dict(zip(pairs, weights)), D)

    def gap_mutual_information(self, L: int, g: int) -> Scalar:
        """I(A; B) of two length-L blocks g apart, as a Markov cell's: the
        gap windows' weights fill one 2-D array for ``_mi_of_joint`` at
        the ranks of their left and right blocks, with no word built.
        The rows are in lex order, so their left halves are sorted and
        ranked by the starts of their runs; the right halves are ranked
        by ``_distinct_rows``."""
        rows, weights, D = self._gap_law(L, g)
        left = rows[:, :L]
        a = np.cumsum((left[1:] != left[:-1]).any(axis=1))
        a = np.concatenate(([0], a))
        _, b = _distinct_rows(rows[:, L:], len(self.alphabet))
        J = np.zeros((a[-1] + 1, b.max() + 1),
                     dtype=float if D is None else object)
        J[a, b] = weights
        return _mi_of_joint(J, D)

    def reversed(self) -> "ReversedProcess":
        return ReversedProcess(self)


class ReversedProcess(_Frozen):
    """The time reversal of a process, read off it: its length-L table is
    the process's with each word read backwards, over the same weights
    and D (so H(L) and I(L, g) do not change), and it holds what
    ``emachine`` reads of a model (``order`` where the process has one).
    Every call reads the process's table, so that a trace counts every
    read.  The view keeps nothing: a Markov chain keeps each reversed
    table, and callers share it, so a returned table must not be
    modified."""

    __slots__ = ("process",)

    def __init__(self, process):
        object.__setattr__(self, "process", process)

    alphabet = property(lambda self: self.process.alphabet)
    order = property(lambda self: self.process.order)

    def block_distribution(self, L: int) -> BlockDistribution:
        fwd = self.process.block_distribution(L)
        kept = getattr(self.process, "_reversed", {})
        if L not in kept:
            kept[L] = BlockDistribution._trusted(
                self.alphabet, L,
                {w[::-1]: p for w, p in fwd.weights.items()}, fwd.denominator)
        return kept[L]


# ── periodic ────────────────────────────────────────────────────────


class PeriodicProcess(_WindowLaws):
    """Uniformly random phase on a fixed cycle whose rotations are all
    distinct (so the stated period is the true one)."""

    __slots__ = ("alphabet", "cycle")

    def __init__(self, alphabet: Alphabet, cycle: Word):
        cycle = tuple(cycle)
        p = len(cycle)
        if p < 1:
            raise ValueError("cycle must be nonempty")
        s = len(alphabet)
        if any(not (0 <= a < s) for a in cycle):
            raise ValueError("cycle uses a symbol outside the alphabet")
        rotations = {cycle[t:] + cycle[:t] for t in range(p)}
        if len(rotations) != p:
            raise ValueError(f"cycle of length {p} has a smaller period")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "cycle", cycle)

    @classmethod
    def from_string(cls, cycle: str | Sequence) -> "PeriodicProcess":
        """A cycle of characters, or of labels, each read as ``Alphabet``
        reads its labels: by ``str``."""
        labels = [str(a) for a in cycle]
        alphabet = Alphabet(sorted(set(labels)))
        return cls(alphabet, alphabet.encode(labels))

    @property
    def period(self) -> int:
        return len(self.cycle)

    def _window_law(self, spans) -> tuple:
        """One window per phase, of weight 1 over the period; its offsets
        are reduced modulo p as Python ints, so a gap may pass int64."""
        p, c = self.period, self.cycle
        offsets = [i % p for start, stop in spans for i in range(start, stop)]
        counts = Counter(tuple(c[(t + i) % p] for i in offsets)
                         for t in range(p))
        rows = sorted(counts)
        return np.array(rows), [counts[r] for r in rows], p

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


# ── order-R Markov ──────────────────────────────────────────────────

#: a float row of a Markov kernel must sum to 1 within this
ROW_SUM_TOL = 1e-9


def _as_weight(x):
    if isinstance(x, bool):
        raise ValueError("probabilities must be numbers, not bools")
    if isinstance(x, Rational):
        return Fraction(x)
    return float(x)


def _stationary(T: np.ndarray, d) -> tuple:
    """Stationary law of the context matrix T, rows summing to d (d·T
    of Python ints on a rational chain, float T with d = 1 on a float
    one), refused unless the zero pattern of T has one closed class:
    the law on that class, 0 off it.  Every chain takes its π from here
    but the Ising chain, whose π is in closed form.

    A walk steps from a state k to one that k reaches and that does
    not reach k, which reaches fewer states, until none is left: k is
    then in a closed class, the states it reaches.  The class is the
    only one exactly when a backward walk from k reaches every state.
    """
    B = T != 0
    succ = [np.flatnonzero(r).tolist() for r in B]
    pred = [np.flatnonzero(c).tolist() for c in B.T]
    k = 0
    while True:
        ahead, behind = _levels(succ, k)[0], _levels(pred, k)[0]
        j = next((j for j in ahead if j not in behind), None)
        if j is None:
            break
        k = j
    if len(behind) < len(T):
        raise ValueError("stationary distribution is not unique")
    closed = sorted(ahead)
    TC = T[np.ix_(closed, closed)]
    if T.dtype == object:
        # the class is irreducible: (d·T − d·I)^t on it has a nullspace
        # of one vector, of one sign
        rows, n = TC.tolist(), len(closed)
        (v,) = rational_nullspace([[rows[j][i] - (d if i == j else 0)
                                    for j in range(n)] for i in range(n)])
        total = sum(v)
        v = [x / total for x in v]
        pi = [Fraction(0)] * len(T)
    else:
        # (T − I)^t on the class has rank one less than its size and
        # rows that sum to zero: the last is replaced by Σπ = 1
        A = TC.T - np.eye(len(closed))
        A[-1] = 1.0
        b = np.zeros(len(closed))
        b[-1] = 1.0
        # the solve's error sits on the last state; one step of the
        # chain spreads it over the class
        v = np.clip(np.linalg.solve(A, b), 0.0, None) @ TC
        v = (v / v.sum()).tolist()
        pi = [0.0] * len(T)
    for i, x in zip(closed, v):
        pi[i] = x
    return tuple(pi)


def _causal_state_masses(rows: Mapping[Word, Sequence],
                         masses: Sequence) -> list:
    """Stationary masses of the causal states of a chain given by its
    rows, one per context (``masses`` aligned with them).

    A context's future law is fixed by its row and the contexts it
    moves to, so contexts with equal future laws are found by partition
    refinement: start from equal rows, then split classes by the
    classes of the successors on each symbol of nonzero probability,
    until no class splits.  Contexts of mass 0 may be left out where no
    edge of nonzero probability reaches them, as in the reversed rows,
    whose every edge carries its target's mass as a factor.
    """
    def numbered(signature):
        ids: dict = {}
        return {c: ids.setdefault(signature[c], len(ids)) for c in rows}

    cls = numbered(rows)
    while True:
        finer = numbered({
            c: (cls[c],) + tuple(cls[(c + (a,))[1:]] if pa != 0 else -1
                                 for a, pa in enumerate(row))
            for c, row in rows.items()})
        if max(finer.values()) == max(cls.values()):
            break
        cls = finer
    total: dict = {}
    for c, p in zip(rows, masses):
        total[cls[c]] = total.get(cls[c], 0) + p
    return list(total.values())


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
    stays small.  Composing stops at one step, at a level whose maps
    are all constant (they coalesce, as a mixing chain's soon do), or
    before a level whose table would outgrow its steps (many contexts).
    The top steps are then read in one gather when their maps are
    constant (the state before step i is the constant of step i − 1),
    and walked one by one otherwise.  The state before every pair gives
    the state inside it, from the top level back down, each level read
    from its flattened table with one ``take``.  ``rows`` is
    ``maps.tolist()``, walked when nothing is composed; the sampler
    builds it once and calls this once per block, so every level is at
    most a block long.
    """
    n = steps.size
    levels = []
    while steps.size > 1 and not (maps == maps[:, :1]).all():
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
    if (maps == maps[:, :1]).all():
        states = np.concatenate(([start], maps[steps[:-1], 0]))
    else:
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


class MarkovProcess(_Frozen):
    """Order-R Markov chain given by one probability row per length-R
    context; order 0 degenerates to an i.i.d. source.

    The stationary law is solved on the one closed class of the
    context chain (``_stationary``, exactly for rational rows); a chain
    whose zero pattern has more than one closed class is refused.

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
    :meth:`gap_mutual_information`, which build no word table (a gap
    cell is one 2-D array of weights); their oracles, which do, are
    ``block_distribution`` and ``joint_gap_distribution``.  Both routes
    enumerate the law and read no closed form, so they stay a check on
    the closed forms.
    ``block_distribution`` and ``order`` are also all that ``emachine``
    reads of a chain, and of its reversal through a ``reversed`` view;
    the tables are valid by construction (every row d·P sums to d), so
    they are not checked again.  Each table, forward or reversed, is
    built once and kept, keyed by L, until the chain is freed.
    """

    __slots__ = ("alphabet", "order", "kernel", "exact", "stationary",
                 "contexts", "_cindex", "_edges", "_moves", "_T", "_d", "_pi",
                 "_q", "_powers", "_tables", "_reversed")

    def __init__(self, alphabet: Alphabet, order: int,
                 kernel: Mapping[Word, Sequence]):
        s = len(alphabet)
        if order < 0:
            raise ValueError("order must be >= 0")
        contexts = tuple(product(range(s), repeat=order))
        rows = {}
        for c in contexts:
            if c not in kernel:
                raise ValueError(
                    f"kernel is missing context {alphabet.decode(c)!r}")
            row = tuple(_as_weight(x) for x in kernel[c])
            if len(row) != s:
                raise ValueError(f"row for context {alphabet.decode(c)!r} "
                                 "has wrong length")
            if any(x < 0 for x in row):
                raise ValueError(f"row for context {alphabet.decode(c)!r} "
                                 "has negative entries")
            rows[c] = row
        if len(kernel) != len(contexts):
            raise ValueError("kernel has rows for unknown contexts")
        exact = all(isinstance(x, Fraction) for row in rows.values()
                    for x in row)
        if not exact:
            rows = {c: tuple(float(x) for x in row) for c, row in rows.items()}
        for c, row in rows.items():
            total = sum(row)
            if not _agrees(total, 1, ROW_SUM_TOL):
                raise ValueError(f"row for context {alphabet.decode(c)!r} "
                                 f"sums to {total}, not 1")

        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "kernel", rows)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "_cindex",
                           {c: i for i, c in enumerate(contexts)})
        object.__setattr__(self, "_powers", {})
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_reversed", {})

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

        pi = self._solve_stationary(T, d)
        object.__setattr__(self, "stationary", pi)
        if exact:
            weights, q = _rational_weights(pi)
            object.__setattr__(self, "_pi", tuple(weights))
        else:
            q = None
            object.__setattr__(self, "_pi", pi)
        object.__setattr__(self, "_q", q)

    def _solve_stationary(self, T: np.ndarray, d) -> tuple:
        """π of the context matrix; the Ising chain's is in closed form."""
        return _stationary(T, d)

    @classmethod
    def from_rows(cls, rows: Mapping[str, Sequence],
                  alphabet: Optional[Alphabet] = None) -> "MarkovProcess":
        """Rows keyed by context strings, e.g. {"0": (.9, .1), "1": (.2, .8)}."""
        order = _one_length("context strings", {k: k for k in rows},
                            "{!r} has length {}")
        width = _one_length("rows", rows, "row {!r} has {} entries")
        if alphabet is None:
            alphabet = Alphabet(str(i) for i in range(width))
        kernel = {alphabet.encode(k): v for k, v in rows.items()}
        return cls(alphabet, order, kernel)

    # context-chain helpers -------------------------------------------------

    def _denominator(self, steps: int):
        """Denominator of weights started from the context law and
        pushed ``steps`` symbols; None on a float chain."""
        return self._q * self._d ** steps if self.exact else None

    def _gap_matrix(self, g: int):
        """(d·T)^g, or T^g on a float chain with each row divided by its
        sum; the last power built is kept, so the cells of one gap
        (``measures.gap_mi_grid`` visits a grid gap by gap) build it
        once.

        A float T is summed in float (ten 0.1s give 0.9999999999999999),
        so its powers lose mass as g grows; the row sums put it back.  An
        exact power is refused before it is taken when its entries could
        pass GAP_POWER_BIT_CAP bits."""
        Tg = self._powers.get(g)
        if Tg is None:
            # m² entries, each at most d^g ≤ 2^(g·⌈log2 d⌉); d = 1 on a
            # float chain
            m = len(self.contexts)
            bits = m * m * g * (self._d - 1).bit_length()
            if bits > GAP_POWER_BIT_CAP:
                raise WindowCapError(
                    f"exact gap power (d·T)^{g} over {m} contexts needs up"
                    f" to {bits} bits (use --backend float)",
                    GAP_POWER_BIT_CAP)
            Tg = np.linalg.matrix_power(self._T, g)
            if not self.exact:
                # not in place: the first power is _T itself
                Tg = Tg / Tg.sum(axis=1, keepdims=True)
            self._powers.clear()
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

    def _context_sums(self, L: int) -> dict:
        """The context weights summed to their last L <= R symbols,
        zeros left out, keys in first-seen order."""
        cut = self.order - L
        sums: dict = {}
        for c, w in zip(self.contexts, self._pi):
            if w:
                sums[c[cut:]] = sums.get(c[cut:], 0) + w
        return sums

    # public surface ---------------------------------------------------------

    def block_distribution(self, L: int) -> BlockDistribution:
        """The length-L table, enumerated on the first call for L and
        kept: every caller shares it, so it must not be modified."""
        table = self._tables.get(L)
        if table is None:
            if L < 1:
                raise ValueError("block length must be >= 1")
            _check_cap(len(self.alphabet), L)
            R = self.order
            # every row d·P sums to d: the words' weights sum to q·d^(L−R)
            words = (self._context_sums(L) if L <= R
                     else self._extend(self._context_sums(R), L - R))
            table = self._tables[L] = BlockDistribution._trusted(
                self.alphabet, L, words, self._denominator(max(L - R, 0)))
        return table

    def block_entropies(self, Ls: Sequence[int]) -> list:
        """H(L) in bits for each length of Ls.  Words of length L >= R
        continue by their edge context alone, so one layer of classes
        (edge context, weight) → number of words grows from the context
        weights at length R; each H(L) reads the weights' counts, in
        float where an exact H(L) is not smooth.  L < R sums the context
        weights to their last L symbols, as a table adds them; a layer is
        refused before it could outgrow WINDOW_STATE_CAP classes."""
        if min(Ls) < 1:
            raise ValueError("block length must be >= 1")
        R, s = self.order, len(self.alphabet)
        H = {}
        for L in {L for L in Ls if L < R}:
            H[L] = _entropy_of_table(self._context_sums(L).values(),
                                     self._denominator(0))
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
        (d·T)^(g+R) bridges c to.  The s^R·s^max(L, R) cells (capped as
        such, and, before the bridge is taken, in bits at eight times
        GAP_POWER_BIT_CAP; ``joint_gap_distribution`` has s^(2L) pairs)
        are one 2-D array for ``_mi_of_joint``: q·π ⊙ (d·T)^(g+R), for
        L > R a column per right word, its entering context's column
        times its other symbols' weight, for L < R summed over the first
        R − L symbols of c and the last R − L of the entering context, as
        a table adds them.  An order-0 cell would have one left key: 0,
        with no bridge.
        """
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        R, s, m = self.order, len(self.alphabet), len(self.contexts)
        _check_cap(s, R + max(L, R))
        if R == 0:
            return ExactBits(0) if self.exact else 0.0
        # J's entries, each at most d^(g + max(L, R)); d = 1 on a float
        # chain
        entries, cap = m * s ** max(L, R), GAP_POWER_BIT_CAP << 3
        bits = entries * (g + max(L, R)) * (self._d - 1).bit_length()
        if bits > cap:
            raise WindowCapError(
                f"exact gap cell ({L}, {g}) of {entries} entries needs up to"
                f" {bits} bits (use --backend float)", cap)
        B = self._gap_matrix(g + R)
        J = np.array(self._pi, dtype=B.dtype)[:, None] * B
        if L < R:
            P, A = s ** (R - L), s ** L
            J = J.reshape(P, A, A, P).transpose(1, 2, 0, 3).reshape(A, A, -1)
            J = np.add.accumulate(J, axis=2)[:, :, -1]
        elif L > R:
            # d·P(a | c): row c of d·T is 0 off the s contexts c moves to
            q = rows = self._T.reshape(m, -1, s).sum(axis=1)
            for _ in range(L - R - 1):
                q = q.reshape(-1, m, 1) * rows
            J = np.repeat(J, s ** (L - R), axis=1) * q.ravel()
        return _mi_of_joint(J, self._denominator(g + max(L, R)))

    def closed_forms(self) -> ClosedForms:
        """h = Σ_c π(c)·H(P(·|c)), E = H(π) − R·h and C± (the entropies
        of the causal-state masses of the rows and of the reversed rows
        P(a | d) = π(c)·P(b | c) / π(reversed(d)), where the forward word
        a·reversed(d) is the context c followed by b), read from the rows
        and π, never from a block table or a second chain."""
        R, s = self.order, len(self.alphabet)
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
        C_plus = bits(_causal_state_masses(self.kernel, self.stationary))
        if self.reversed() is self:  # the Ising chain
            C_minus = C_plus
        else:
            pi = dict(zip(self.contexts, self.stationary))
            rev = {d: pi[d[::-1]] for d in self.contexts if pi[d[::-1]]}
            back = {d: tuple(pi[w[:R]] * self.kernel[w[:R]][w[R]] / p
                             for w in ((a,) + d[::-1] for a in range(s)))
                    for d, p in rev.items()}
            C_minus = bits(_causal_state_masses(back, list(rev.values())))
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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n symbols by inverse CDF, one uniform u per symbol: the symbol
        is the number of cut points of the current context's row (its
        cumulative sum without the last entry) at or below u.

        The start context is drawn from the stationary law.  The walk
        itself is vectorized: u's bin among the union of all rows' cut
        points (the number of those edges at or below u, by one
        comparison per edge while a bin fits in one byte, up to 255
        edges, and by ``searchsorted`` past that, where the comparisons
        cost more) fixes the symbol for every context,
        so each step is a map from context to next context.  Runs of k
        bins are read as one base-nb chunk code (nb bins), looked up
        in a k-step table built once per call: for each code and
        context, the k symbols written and the context reached.  k is
        the largest with nb^k·m ≤ ``_STEP_TABLE`` (m contexts), at
        most 16; a chain with many contexts gets k = 1, built the same
        way: the one-step table, whose maps are the distinct one-step
        maps.  Equal k-step maps are kept once, and
        ``_walk_maps`` composes the chunks' maps until they coalesce
        into constant maps, read in one gather, rather than stepping
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
        block are computed in int64.  An order-0 chain (``IidProcess``
        too) walks its single context the same way.

        A walk of n steps reads at most n entries of the one-step table,
        so when the table has more (nb·m > n, a chain with many
        distinct cut points) it is not built: each symbol is stepped
        from its context's own cut row by one bisect, one ``_BLOCK`` of
        uniforms at a time, and the memory is that of the m rows.
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
        out = np.empty(n, dtype=dtype)
        if nb * m > n:
            rows = cuts.tolist()
            context = start
            for lo in range(0, n, _BLOCK):
                u = rng.random(min(_BLOCK, n - lo))
                block = []
                for x in u.tolist():
                    a = bisect_right(rows[context], x)
                    block.append(a)
                    context = (context * s + a) % m
                out[lo:lo + u.size] = block
            return out
        # bin b holds the u with exactly b edges at or below them; its
        # symbol in each row counts that row's cuts at or below edge b−1
        floor = np.concatenate(([-np.inf], edges))
        symbols = np.array([np.searchsorted(row, floor, side="right")
                            for row in cuts]).T
        maps = (np.arange(m) * s + symbols) % m
        rows = maps.tolist()
        k = _chunk_steps(nb, m)
        # digit j of code q (most significant first) is the bin of step
        # j of its chunk
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
        context = start
        for lo in range(0, n, _BLOCK):
            u = rng.random(min(_BLOCK, n - lo))
            bins = np.zeros(-(-u.size // k) * k, dtype=bin_type)
            if bin_type.itemsize > 1:
                bins[:u.size] = np.searchsorted(edges, u, side="right")
            else:
                for e in edges.tolist():
                    bins[:u.size] += u >= e
            chunks = bins.reshape(-1, k)
            codes = chunks[:, 0].astype(np.int64)
            for j in range(1, k):
                codes *= nb
                codes += chunks[:, j]
            states = _walk_maps(ids[codes], step_maps, step_rows, context)
            codes *= m
            codes += states
            out[lo:lo + u.size] = written.take(codes, axis=0).ravel()[:u.size]
            context = int(states[-1])
            for b in bins[bins.size - k:u.size].tolist():
                context = rows[b][context]
        return out

    def reversed(self) -> ReversedProcess:
        """A new reversal view, whose tables the chain keeps."""
        return ReversedProcess(self)

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
        if not math.isfinite(float(beta) * (abs(float(J)) + abs(float(h)))):
            raise ValueError(f"beta·(|J|+|h|) overflows: {J=}, {h=}, {beta=}")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", beta)
        rows, _ = _ising_chain(J, h, beta)
        super().__init__(Alphabet(("-1", "+1")), 1,
                         {(0,): rows[0], (1,): rows[1]})

    def _solve_stationary(self, T: np.ndarray, d) -> tuple:
        # detailed balance, in closed form: the rows can round to the
        # identity, whose solve has no unique law
        return _ising_chain(self.J, self.h, self.beta)[1]

    def as_markov(self) -> MarkovProcess:
        """The induced order-1 chain: the process itself."""
        return self

    def closed_forms(self) -> ClosedForms:
        # V > 0, so the chain is aperiodic even where its float rows
        # round to a permutation
        return super().closed_forms()._replace(pmi=Fraction(0))

    def reversed(self) -> "IsingChainProcess":
        # V is symmetric, so the chain satisfies detailed balance
        return self


# ── symbolized logistic map ─────────────────────────────────────────


class LogisticSymbolizer(_Frozen):
    """Threshold observation of x -> r x (1 - x): symbol 0 when
    x <= 1/2, else 1, after a deterministic burn-in.

    Purely deterministic given (r, x0); the sampler ignores its seed.
    Sample-only: it has no exact law.
    """

    __slots__ = ("r", "x0", "burnin")

    def __init__(self, r: float, x0: float, burnin: int = 1000):
        if not (0 <= r <= 4):
            raise ValueError("r must lie in [0, 4]")
        if not (0 <= x0 <= 1):
            raise ValueError("x0 must lie in [0, 1]")
        if burnin < 0:
            raise ValueError("burn-in must be >= 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "burnin", burnin)

    alphabet = Alphabet("01")

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


class SubstitutionProcess(_WindowLaws):
    """Uniquely ergodic process of a primitive substitution fixed
    point; block laws are the exact factor frequencies.  Windows are
    capped on the letters of the pair-image windows they are read from
    (substitution._pair_window_counts), not on alphabet size ** length."""

    __slots__ = ("substitution",)

    def __init__(self, substitution: Substitution):
        object.__setattr__(self, "substitution", substitution)

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def _window_law(self, spans) -> tuple:
        """``substitution._window_law`` at the least power it accepts."""
        subst = self.substitution
        power = shortcut_power(subst, spans[-1][1])
        return _window_law(subst, power, spans)[:3]

    # the shared table methods, bound here by name as well, since
    # per-class method wrappers (perfbench/tracer.py) look them up in
    # this class
    block_distribution = _WindowLaws.block_distribution
    joint_gap_distribution = _WindowLaws.joint_gap_distribution

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


# ── dispatch ────────────────────────────────────────────────────────


def closed_forms(model) -> ClosedForms:
    """Tabulated complexity quantities of the model class."""
    return model.closed_forms()


def sample(model, n: int, seed: int = 0) -> np.ndarray:
    """Length-n symbol sample, stationary at fixed seed where the model
    class allows a stationary start.  Substitution fixed points and the
    logistic map are deterministic: their seed is not read, and no
    generator is built for them, so ``numpy.random`` is not imported."""
    if n < 1:
        raise ValueError("sample length must be >= 1")
    if isinstance(model, (SubstitutionProcess, LogisticSymbolizer)):
        return model.sample(n)
    return model.sample(n, np.random.default_rng(seed))


def reversed_model(model):
    """The time-reversed process: a new ``ReversedProcess`` view of the
    model (a Markov chain keeps the reversed tables that its views
    build), or the Ising chain itself (it satisfies detailed balance)."""
    return model.reversed()

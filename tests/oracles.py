"""Reference computations that only the tests read."""

import argparse
import math
import sys
from fractions import Fraction
from itertools import product
from numbers import Rational
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from persistinfo._ratlinalg import rational_nullspace
from persistinfo.infocore import (
    BlockDistribution,
    ExactBits,
    JointBlockDistribution,
    _entropy_of_counts,
    _factor_smooth,
    entropy_of_probs,
    shannon_entropy,
)
from persistinfo.processes import (
    ClosedForms,
    MarkovProcess,
    PeriodicProcess,
    _causal_state_masses,
    _ising_chain,
)
from persistinfo.sequence import (
    Alphabet,
    _BLOCK,
    _code_dtype,
    _distinct_counts,
    _passes_63_bits,
    _ranks,
    window_codes,
)
from persistinfo.substitution import (
    _levels,
    _pair_factors,
    composition_matrix,
    shortcut_power,
)


def thue_morse_block_entropy_increment(n: int) -> ExactBits:
    """Exact increment H(n) - H(n-1) of the parity fixed point's block
    entropy, n >= 2, in bits: the closed form that the enumerated
    H(L) of the Thue-Morse process are checked against.

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


def pair_window_counts(subst, power: int, spans) -> tuple:
    """The windows of ζ^p(α)ζ^p(β) that start inside ζ^p(α), for the
    pairs αβ of the fixed point in lex order, read through ``spans``:
    the distinct rows in lex order, and the matrix counting each row
    (down) per pair (across).  Built pair by pair, from a sliding window
    view of each pair image, with the images rebuilt on every call and
    the rows ranked by ``np.unique``: the oracle of
    ``substitution._pair_window_counts``, which gathers every row of a
    call at once from the pair images built once per power."""
    s = len(subst.alphabet)
    width = max(stop for _, stop in spans)
    pairs = sorted(_pair_factors(subst))
    images = [np.array([a], np.min_scalar_type(s - 1)) for a in range(s)]
    for _ in range(power):
        images = [np.concatenate([images[b] for b in rule])
                  for rule in subst.rules]
    rows = []
    for alpha, beta in pairs:
        w = sliding_window_view(np.concatenate((images[alpha], images[beta])),
                                width)[:len(images[alpha])]
        rows.append(np.concatenate([w[:, a:b] for a, b in spans], axis=1))
    distinct, inverse = np.unique(np.concatenate(rows), axis=0,
                                  return_inverse=True)
    owner = np.repeat(np.arange(len(pairs)), [len(r) for r in rows])
    counts = np.zeros((len(distinct), len(pairs)), dtype=np.int64)
    np.add.at(counts, (inverse.ravel(), owner), 1)
    return distinct, counts


def shortcut_power_by_matrix(subst, l: int) -> int:
    """``substitution.shortcut_power`` from powers of the composition
    matrix M as an object array of Python ints: the image lengths
    |ζ^p(a)| are the column sums of M^p, and p is the least p >= 1
    whose shortest image has at least l - 1 letters."""
    M = composition_matrix(subst).astype(object)
    p, lengths = 1, M.sum(axis=0)
    while min(lengths) < l - 1:
        p, lengths = p + 1, lengths @ M
    return p


def geometric_decay_rate(points: Sequence) -> float:
    """Least-squares geometric rate of a positive decaying series:
    fits log v against g and returns exp(slope).  For an order-1 chain
    the MI tail decays at the squared second eigenvalue."""
    pts = [(float(g), float(v)) for g, v in points if float(v) > 0]
    if len(pts) < 2 or len({g for g, _ in pts}) < 2:
        raise ValueError("need at least two positive points to fit a rate")
    gs = [g for g, _ in pts]
    logs = [math.log(v) for _, v in pts]
    slope = float(np.polyfit(gs, logs, 1)[0])
    return math.exp(slope)


class WindowOracle:
    """A model seen through its block tables alone, so that
    ``emachine`` reads its causal states and state joint from word
    windows of length R + F and Rf + Rr, as on a process of no known
    order."""

    def __init__(self, model):
        self._model = model

    @property
    def alphabet(self):
        return self._model.alphabet

    def block_distribution(self, L: int):
        return self._model.block_distribution(L)


def block_distribution(model, L: int) -> BlockDistribution:
    """Exact stationary law of length-L blocks: the model's method."""
    return model.block_distribution(L)


def joint_gap_distribution(model, L: int, g: int) -> JointBlockDistribution:
    """Exact joint law of two length-L blocks separated by g symbols:
    the model's method."""
    return model.joint_gap_distribution(L, g)


# ── tables read off other tables ─────────────────────────────────────


def _marginal(j: JointBlockDistribution, side: int,
              length: int) -> BlockDistribution:
    weights: dict = {}
    for key, w in j.weights.items():
        weights[key[side]] = weights.get(key[side], 0) + w
    return BlockDistribution._trusted(j.alphabet, length, weights,
                                      j.denominator)


def left_marginal(j: JointBlockDistribution) -> BlockDistribution:
    """The law of a joint table's left block, its weights added in
    first-seen order over the same denominator."""
    return _marginal(j, 0, j.left_length)


def right_marginal(j: JointBlockDistribution) -> BlockDistribution:
    """The law of a joint table's right block, as ``left_marginal``."""
    return _marginal(j, 1, j.right_length)


def machine_block_distribution(machine, L: int) -> BlockDistribution:
    """Law of a causal-state machine's length-L output blocks, started
    from the stationary state mixture: the source's for L up to the
    machine's ``future_length``."""
    if L < 1:
        raise ValueError("block length must be >= 1")
    layer = {(i, ()): p for i, p in enumerate(machine.state_probs) if p != 0}
    for _ in range(L):
        new: dict = {}
        for (i, w), p in layer.items():
            for a in range(len(machine.alphabet)):
                edge = machine.transitions.get((i, a))
                if edge is not None:
                    j, q = edge
                    new[(j, w + (a,))] = new.get((j, w + (a,)), 0) + p * q
        layer = new
    probs: dict = {}
    for (_j, w), p in layer.items():
        probs[w] = probs.get(w, 0) + p
    return BlockDistribution(machine.alphabet, L, probs)


def empirical_block_entropy(src, L: int) -> float:
    """Plug-in H(L) in bits of a sequence source, from the counts of its
    length-L codes alone: the oracle of ``EmpiricalSource.block_entropies``,
    which reads shorter lengths off the counts of a longer one."""
    src._check_block(L)
    codes, size = window_codes(src.arr, L, len(src.alphabet))
    return _entropy_of_counts(_distinct_counts(codes, size)[1])


def factor_count_bound(subst, n: int) -> int:
    """Upper bound on the number of length-n factors of a primitive
    substitution's fixed point, found before enumerating any of them.

    With p = shortcut_power(subst, n), every length-n factor starts
    inside some ζ^p(α) and ends inside the next image ζ^p(β), where αβ
    is a factor; so there are at most Σ_{αβ} |ζ^p(α)| of them.
    """
    if n < 1:
        raise ValueError("factor length must be positive")
    M = composition_matrix(subst).astype(object)
    lengths = np.linalg.matrix_power(M, shortcut_power(subst, n)).sum(axis=0)
    return sum(int(lengths[alpha]) for alpha, _ in _pair_factors(subst))


# ── exact bits with one Fraction per coefficient ─────────────────────


class FractionExactBits:
    """``infocore.ExactBits`` as it was held before its integer storage:
    ``rational + Σ coeff·log₂(prime)`` with a Fraction rational part and
    sorted (odd prime, nonzero Fraction) pairs.  Its ``repr`` reads
    ``ExactBits(...)``, so the two render alike."""

    __slots__ = ("rational", "logs")

    def __init__(self, rational, logs=()):
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

    def _combine(self, other, sign: int):
        coeffs = dict(self.logs)
        for p, c in other.logs:
            coeffs[p] = coeffs.get(p, Fraction(0)) + sign * c
        return FractionExactBits(self.rational + sign * other.rational, coeffs)

    @staticmethod
    def _as_exact(x):
        if isinstance(x, FractionExactBits):
            return x
        if isinstance(x, Rational):
            return FractionExactBits(Fraction(x))
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = self._as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        other = self._as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        other = self._as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def __neg__(self):
        return FractionExactBits(-self.rational, {p: -c for p, c in self.logs})

    def __mul__(self, factor):
        if not isinstance(factor, Rational):
            return NotImplemented
        factor = Fraction(factor)
        return FractionExactBits(
            self.rational * factor, {p: c * factor for p, c in self.logs}
        )

    __rmul__ = __mul__

    def __truediv__(self, factor):
        if not isinstance(factor, Rational):
            return NotImplemented
        return self * (Fraction(1) / Fraction(factor))

    def __eq__(self, other) -> bool:
        if isinstance(other, FractionExactBits):
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


def fraction_log2_of(q) -> FractionExactBits:
    """log₂ of a positive smooth rational as a :class:`FractionExactBits`."""
    q = Fraction(q)
    num = dict(_factor_smooth(q.numerator))
    den = dict(_factor_smooth(q.denominator))
    rational = Fraction(num.pop(2, 0) - den.pop(2, 0))
    coeffs = {p: Fraction(e) for p, e in num.items()}
    for p, e in den.items():
        coeffs[p] = coeffs.get(p, Fraction(0)) - e
    return FractionExactBits(rational, coeffs)


def fraction_entropy(probs) -> FractionExactBits:
    """−Σ p·log₂ p of smooth rationals, one :class:`FractionExactBits`
    term per nonzero p."""
    total = FractionExactBits(0)
    for p in map(Fraction, probs):
        if p:
            total = total - p * fraction_log2_of(p)
    return total


# ── gap cells as dict tables, and their MI term by term ──────────────


def gap_cells_oracle(m, L: int, g: int) -> JointBlockDistribution:
    """The cells of ``MarkovProcess.gap_mutual_information`` as a table
    keyed by (left, right) words, built one multiply-add per edge
    context × right word: the left key is the tail c[max(R − L, 0):]
    of the edge context c, weighted q·π(c), and the right key the first
    L symbols of each word entered at a context that (d·T)^(g+R)
    bridges c to.  Keys and sums in scan order, c by c."""
    R = m.order
    bridges = m._gap_matrix(g + R).tolist()
    right = [(m._cindex[w[:R]], w[:L], q) for w, q in m._extend(
        dict.fromkeys(m.contexts, 1), max(L - R, 0)).items()]
    cells: dict = {}
    for c, p in m._context_sums(R).items():
        a = c[max(R - L, 0):]
        row = [p * x for x in bridges[m._cindex[c]]]
        for cj, b, q in right:
            if row[cj]:
                key = (a, b)
                cells[key] = cells.get(key, 0) + row[cj] * q
    return JointBlockDistribution._trusted(
        m.alphabet, min(L, R), g, L, cells, m._denominator(g + max(L, R)))


def scalar_phi(x: float) -> float:
    """(1 + x)·ln(1 + x) − x >= 0 for x >= −1, with φ(−1) = 1; a series
    where |x| < 1/8, where the two terms cancel."""
    if x == -1:
        return 1.0
    if abs(x) >= 0.125:
        return (1 + x) * math.log1p(x) - x
    # Σ_{n>=2} (−x)^n / (n(n − 1)), alternating and shrinking
    total, term, n = 0.0, x * x, 2
    while abs(term) > 1e-17 * total:
        total += term / (n * (n - 1))
        term *= -x
        n += 1
    return total


def mi_of_deviations(joint: dict, left: dict, right: dict, D=None) -> float:
    """I = Σ p(a)p(b)·φ(x_ab) / ln 2 over the pairs of the marginals'
    supports, x_ab = p(ab) / (p(a)p(b)) − 1 exact until rounded once,
    one pair at a time, of integer weights over D or of float weights
    (D None).  The pairs the joint never takes have φ(−1) = 1: for
    integers they add 1 − Σ p(a)p(b) over those it takes, and for
    floats each adds its own p(a)p(b)."""
    scale = 1 if D is None else D
    D2 = scale * scale
    terms, taken = [], 0
    for (a, b), w in joint.items():
        if w:
            ab = left[a] * right[b]
            taken += ab
            if ab:
                terms.append(ab / D2 * scalar_phi((w * scale - ab) / ab))
            else:  # a float p(a)p(b) that underflows: w·ln(w/p(a)p(b)) − w
                terms.append(w * (math.log(w / left[a]) - math.log(right[b])
                                  - 1))  # to an ulp of np.log's
    if D is None:
        terms += [left[a] * right[b] for a in left for b in right
                  if not joint.get((a, b))]
    else:
        terms.append((D2 - taken) / D2)
    return math.fsum(terms) / math.log(2)


def table_mi_oracle(j: JointBlockDistribution):
    """I(left; right) of a joint table through its marginals, each
    summed in sorted key order: H(left) + H(right) − H(joint) where all
    three are exact, else ``mi_of_deviations``."""
    left: dict = {}
    right: dict = {}
    for (a, b), w in sorted(j.weights.items()):
        left[a] = left.get(a, 0) + w
        right[b] = right.get(b, 0) + w
    if j.exact:
        hs = [shannon_entropy(t)
              for t in (left_marginal(j), right_marginal(j), j)]
        if not any(isinstance(h, float) for h in hs):
            return hs[0] + hs[1] - hs[2]
    return mi_of_deviations(j.weights, left, right, j.denominator)


# ── periodic cycles read phase by phase ───────────────────────────────


def _phase_window(m: PeriodicProcess, phase: int, n: int) -> tuple:
    p = m.period
    return tuple(m.cycle[(phase + i) % p] for i in range(n))


def phase_block_table(m: PeriodicProcess, L: int) -> BlockDistribution:
    """The length-L table of a cycle, one unit of weight per phase over
    the period."""
    counts: dict = {}
    for t in range(m.period):
        word = _phase_window(m, t, L)
        counts[word] = counts.get(word, 0) + 1
    return BlockDistribution(m.alphabet, L, counts, m.period)


def phase_pair_table(m: PeriodicProcess, L: int,
                     g: int) -> JointBlockDistribution:
    """The joint table of two length-L blocks g apart on a cycle: each
    phase fixes one (left, right) pair, of weight 1 over the period."""
    counts: dict = {}
    for t in range(m.period):
        key = (_phase_window(m, t, L), _phase_window(m, t + L + g, L))
        counts[key] = counts.get(key, 0) + 1
    return JointBlockDistribution(m.alphabet, L, g, L, counts, m.period)


def reversed_cycle(m: PeriodicProcess) -> PeriodicProcess:
    """The time reversal of a cycle, built as the cycle read backwards."""
    return PeriodicProcess(m.alphabet, m.cycle[::-1])


# ── closed forms of a Markov chain read from its block tables ─────────


class ChainWithLaw(MarkovProcess):
    """A chain whose stationary law is given, not solved: the route of
    the Ising chain's closed-form law (``_solve_stationary``), which no
    public keyword reaches.  The law is taken as it is, unchecked."""

    __slots__ = ("_law",)

    def __init__(self, alphabet, order, kernel, law):
        object.__setattr__(self, "_law", tuple(law))
        super().__init__(alphabet, order, kernel)

    def _solve_stationary(self, T, d):
        return self._law


def block_table_reversed(m):
    """Time reversal of an order-R chain from its block tables, as a
    second chain: the kernel P(a | d) = P(a·reversed(d)) / P(reversed(d)),
    with a uniform placeholder row where P(reversed(d)) = 0, and the
    law P(reversed(d)) given, since those rows would make the solve
    ambiguous."""
    R, s = m.order, len(m.alphabet)
    if R == 0:
        return m
    blocks_R = m.block_distribution(R)
    blocks_R1 = m.block_distribution(R + 1)
    uniform = tuple(Fraction(1, s) if m.exact else 1.0 / s for _ in range(s))
    kernel, pi_rev = {}, []
    for d in product(range(s), repeat=R):
        fwd = tuple(reversed(d))
        pd = blocks_R.probs.get(fwd, 0)
        pi_rev.append(pd)
        kernel[d] = uniform if pd == 0 else tuple(
            blocks_R1.probs.get((a,) + fwd, 0) / pd for a in range(s))
    return ChainWithLaw(m.alphabet, R, kernel, pi_rev)


def block_table_closed_forms(m) -> dict:
    """h = H(R+1) − H(R) and E = H(R) − R·h from the chain's block
    tables, and C± from the causal-state masses of the chain and of
    its block-table reversal."""
    R = m.order
    HR = shannon_entropy(m.block_distribution(R)) if R else Fraction(0)
    h = shannon_entropy(m.block_distribution(R + 1)) - HR
    back = block_table_reversed(m)
    return {"entropy_rate": h, "excess_entropy": HR - h * R,
            "complexity_plus": entropy_of_probs(
                _causal_state_masses(m.kernel, m.stationary)),
            "complexity_minus": entropy_of_probs(
                _causal_state_masses(back.kernel, back.stationary))}


# ── closed forms of the Ising chain from two-point entropies ──────────


def two_point_entropy(pair) -> float:
    """Entropy in nats of a law on two points, from its smaller
    probability p as −p·ln p − (1 − p)·log1p(−p)."""
    p = min(pair)
    return -(p * math.log(p) + (1 - p) * math.log1p(-p)) if p > 0 else 0.0


def two_point_ising_closed_forms(J: float, h: float, beta: float):
    """h = Σ_s π_s H(P(· | s)), H(1) and C± = H(1) of the Ising chain,
    each a two-point entropy of its rows or stationary law."""
    rows, pi = _ising_chain(J, h, beta)
    rate = sum(w * two_point_entropy(row)
               for w, row in zip(pi, rows)) / math.log(2)
    H1 = two_point_entropy(pi) / math.log(2)
    return ClosedForms(entropy_rate=rate, excess_entropy=H1 - rate,
                       complexity_plus=H1, complexity_minus=H1,
                       pmi=Fraction(0),
                       efficiency=1.0 - rate / H1 if H1 > 0 else Fraction(0))


# ── reachability and period by boolean matrix products ───────────────


def reachability(B: np.ndarray) -> np.ndarray:
    """Transitive closure of the digraph with edge j -> i when B[i, j]."""
    R = B | np.eye(B.shape[0], dtype=bool)
    while True:  # each step doubles the path length covered
        longer = R | (R @ R)
        if (longer == R).all():
            return R
        R = longer


def graph_period(B: np.ndarray) -> int:
    """gcd of cycle lengths of a strongly connected digraph (edge j -> i
    when B[i, j]), 0 if it has none: the gcd of the lengths k <= s of
    its closed walks, since a closed walk splits into simple cycles and
    no simple cycle is longer than s."""
    period, walks = 0, np.eye(B.shape[0], dtype=bool)
    for k in range(1, B.shape[0] + 1):
        walks = walks @ B
        if walks.diagonal().any():
            period = math.gcd(period, k)
    return period


def closed_classes(T: np.ndarray) -> list:
    """The closed classes of the zero pattern of a square matrix (move
    i -> j when T[i, j] != 0), each a frozenset of states: a state is
    in one when every state it reaches reaches it back."""
    reach = reachability((T != 0).T)  # reach[i, j]: i is reached from j
    closed = {frozenset(np.flatnonzero(reach[:, j]).tolist())
              for j in range(len(T))
              if (reach[:, j] <= reach[j, :]).all()}
    return sorted(closed, key=min)


def stationary_from_transitions(T: Sequence[Sequence]) -> tuple:
    """Stationary row vector of a rational stochastic matrix T (rows
    sum to 1) by one Gauss–Jordan over every state: solves π·T = π,
    Σπ = 1, exactly, refused unless the fixed space is one-dimensional."""
    n = len(T)
    A = [[Fraction(T[i][j]) - (1 if i == j else 0) for i in range(n)]
         for j in range(n)]  # (T^t - I) π = 0
    basis = rational_nullspace(A)
    candidates = [v for v in basis if sum(v) != 0]
    if len(basis) != 1 or not candidates:
        raise ValueError("stationary distribution is not unique")
    v = candidates[0]
    total = sum(v)
    pi = tuple(x / total for x in v)
    if any(x < 0 for x in pi):
        raise ValueError("stationary solve produced negative entries")
    return pi


def eig_float_stationary(T: np.ndarray) -> np.ndarray:
    """Stationary law of a float stochastic matrix by the whole
    eigendecomposition of T^t: the eigenvector for the eigenvalue
    nearest 1, 0 off its closed class, refused unless the zero pattern
    of T has one."""
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


# ── window codes grown in int64 ───────────────────────────────────────


def int64_grow_codes(arr: np.ndarray, s: int, codes: np.ndarray, size: int,
                     steps) -> tuple:
    """``sequence._grow_codes`` with every block widened to int64,
    multiplied, added to and narrowed back into the codes."""
    ranked = False
    for step in steps:
        if _passes_63_bits(size, s if step == "append" else size):
            uniq, ranks = _ranks(codes, size)
            codes[:] = ranks
            size, ranked = uniq.size, True
        if step == "pair":
            continue
        k = arr.size - codes.size + 1
        factor, tail = (s, arr[k:]) if step == "append" else (size, codes[k:])
        for lo in range(0, tail.size, _BLOCK):
            hi = min(lo + _BLOCK, tail.size)
            block = codes[lo:hi].astype(np.int64)
            block *= factor
            block += tail[lo:hi]
            codes[lo:hi] = block
        codes, size = codes[:tail.size], size * factor
    return codes, size, ranked


# ── plug-in entropy of counts in two float arrays ───────────────────


def two_array_entropy_of_counts(counts: np.ndarray) -> float:
    """``infocore._entropy_of_counts`` as it was written with int64
    counts: p = counts[counts > 0] / counts.sum(), then an array of
    log₂ p times p, summed by one ``np.sum``."""
    p = counts[counts > 0] / counts.sum()
    if p.size == 1:
        return 0.0
    terms = np.log2(p)
    terms *= p
    return float(0.0 - terms.sum())


# ── the sampler's walk, one step at a time ───────────────────────────


def walk_maps_oracle(steps, maps, start: int) -> np.ndarray:
    """``processes._walk_maps`` as one Python loop: x_0 = start and
    x_{t+1} = maps[steps[t]][x_t], with no map composed."""
    rows = np.asarray(maps).tolist()
    states, state = [], start
    for step in np.asarray(steps).tolist():
        states.append(state)
        state = rows[step][state]
    return np.array(states, dtype=np.int64)


# ── characters ranked through a lookup table ─────────────────────────


def rank_table_char_codes(points: np.ndarray, alphabet):
    """``sequence._char_codes`` of an array of code points, ASCII ones
    too: the code points ranked by ``_ranks`` (a bincount and a lookup
    table taken one block at a time, or a sort past the line's length),
    then mapped through a table to a given alphabet's indices."""
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


# ── the command line parsed by one tree of every command's parser ─────


def full_tree_main(argv) -> int:
    """``cli.main`` with every command's parser built under one
    top-level parser, from the same command table, and argv parsed by
    that tree."""
    from persistinfo import cli
    parser = argparse.ArgumentParser(
        prog="persistinfo",
        description="Complexity measures of stationary symbolic processes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add, func) in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        add(sp)
        sp.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

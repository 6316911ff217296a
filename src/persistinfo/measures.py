"""Complexity measures over block statistics.

This layer turns block entropies and gap informations into the derived
quantities: block entropy curves with entropy-rate and excess-entropy
estimates, the grid of block mutual informations at growing time gaps,
a convergence verdict for the persistent mutual information, and
prediction efficiency.  A source answers ``block_entropies(Ls)`` and
``gap_mutual_information(L, g)``: a model of ``processes`` or an
:class:`EmpiricalSource`; anything else is read as a sequence.

The gap grid takes the double limit in the iterated order: inner in
the gap g, outer in the block length L.  A verdict of "converged"
means the inner tail stabilized for the two largest L and the per-L
limits agree; "diverging" means the per-L limits keep growing at a
material rate; anything else is "inconclusive".
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .infocore import (
    Alphabet,
    BlockDistribution,
    JointBlockDistribution,
    Scalar,
    WindowCapError,
    _code_counts,
    _code_dtype,
    _code_words,
    _coerce_sequence,
    _count_dtype,
    _distinct_counts,
    _doubling_steps,
    _entropy_of_counts,
    _exact_str,
    _fmt,
    _grow_codes,
    _pair_codes,
    empirical_block_distribution,
    window_codes,
)

__all__ = [
    "UndersampledError",
    "EmpiricalSource",
    "EntropyCurve",
    "GapMIGrid",
    "PmiVerdict",
    "PmiReport",
    "EfficiencyReport",
    "entropy_curve",
    "excess_entropy_finite",
    "gap_mi_grid",
    "pmi_verdict",
    "efficiency",
]


class UndersampledError(ValueError):
    """The sequence is too short to estimate the requested statistic."""


# ── empirical source adapter ────────────────────────────────────────


class EmpiricalSource:
    """Plug-in block and joint-block statistics of one observed sequence.

    ``arr`` holds the symbols' alphabet indices in the narrowest
    unsigned type of the alphabet: one byte per symbol up to 256
    symbols.  Every length-L window is packed into one base-s integer
    code (:func:`window_codes`), held in the narrowest unsigned type of
    its range.  The measures count the sequence once at the longest
    *dense* length, where the s**L possible codes number no more than
    the windows, and reach every shorter length by marginal sums of
    those integer counts:

    * :meth:`block_entropies` counts the longest dense length; the
      counts one shorter sum out the last symbol and add the one window
      at the end of the sequence that has no longer extension;
    * :meth:`gap_mutual_informations` counts, per gap g, the
      s**L × s**L pair codes ``left * s**L + right`` of the longest
      dense grid length, one block of pair codes at a time, in the
      narrowest unsigned type of their range; one
      shorter sums out the first symbol of the left block and the last
      of the right, and adds the two windows, one at each end, that the
      longer blocks do not cover.  The MI is H(left) + H(right) −
      H(pair) over the row sums, the column sums and the nonzero pairs.

    Both give the same integer counts, in the same ascending code
    order, as counting each length on its own, so the same floats.
    :meth:`block_entropies` grows the codes of each longer length in
    place from those of the length before.  Other cells are counted
    one at a time by :meth:`gap_mutual_information`, which also serves
    the tests as the oracle of the marginal route.  Past 63 bits the
    codes are ranks, which keep their order (:func:`window_codes`); no
    length builds a word table.

    :meth:`block_distribution` and :meth:`joint_gap_distribution` build
    those tables, reading each distinct code's word off a window where
    it occurs (``infocore._code_words``).  Cells whose distinct pair
    count exceeds one tenth of the available windows are refused as
    undersampled on every path, before any word is built.
    """

    __slots__ = ("arr", "alphabet", "n")

    def __init__(self, seq, alphabet: Optional[Alphabet] = None):
        arr, alphabet = _coerce_sequence(seq, alphabet)
        self.arr = arr
        self.alphabet = alphabet
        self.n = int(arr.size)

    def _check_block(self, L: int) -> None:
        if L < 1:
            raise ValueError("block length must be >= 1")
        if L > self.n:
            raise UndersampledError(
                f"no length-{L} window in a sequence of {self.n} symbols")

    def _gap_windows(self, L: int, g: int) -> int:
        """Number of length-(2L + g) windows; refuses when there is none."""
        if L < 1 or g < 0:
            raise ValueError("need L >= 1 and g >= 0")
        win = 2 * L + g
        m = self.n - win + 1
        if m < 1:
            raise UndersampledError(
                f"no length-{win} window in a sequence of {self.n} symbols")
        return m

    def _code(self, start: int, L: int) -> int:
        """Base-s code of the length-L window at ``start``."""
        code, s = 0, len(self.alphabet)
        for a in self.arr[start:start + L].tolist():
            code = code * s + a
        return code

    def block_entropies(self, Ls: Sequence[int]) -> list:
        """Plug-in H(L) in bits for each of the ascending lengths Ls,
        counted once at the longest dense one (see the class).  The
        codes of each longer length are grown in place from those of
        the length before, by appending symbols, unless coding it from
        length 1 takes fewer steps."""
        s, n = len(self.alphabet), self.n
        dense = [L for L in Ls if 1 <= L and s ** L <= n - L + 1]
        H = {}
        if dense:
            top = dense[-1]
            counts = _code_counts(window_codes(self.arr, top, s)[0], s ** top,
                                  dtype=_count_dtype(n))
            for L in range(top, dense[0] - 1, -1):
                if L in dense:
                    H[L] = _entropy_of_counts(counts)
                if L > dense[0]:
                    counts = _sum_last_digit(counts, s)
                    counts[self._code(n - L + 1, L - 1)] += 1
        longer = [L for L in Ls if L not in H]
        for L in longer:
            self._check_block(L)
        if longer:
            held = self.arr.astype(_code_dtype(s ** longer[-1]))
            codes, size, k = held, s, 1  # the codes of length k
            for L in longer:
                steps = ["append"] * (L - k)
                if len(steps) > len(_doubling_steps(L)):
                    held[:] = self.arr
                    codes, size, steps = held, s, _doubling_steps(L)
                codes, size = _grow_codes(self.arr, s, codes, size, steps)
                k = L
                H[L] = _entropy_of_counts(_distinct_counts(codes, size)[1])
        return [H[L] for L in Ls]

    def gap_mutual_informations(self, Ls: Sequence[int],
                                gs: Sequence[int]) -> tuple:
        """Plug-in MI of every cell of the ascending grids Ls × gs, and
        the refusal of each cell that has none, as two dicts keyed by
        (L, g).  Per gap, the pairs are counted once at the longest
        dense L (see the class); the window codes of that length are
        packed once for all gaps."""
        s, n = len(self.alphabet), self.n
        values: dict = {}
        missing: dict = {}
        packed, keys = 0, None  # the length of the codes held
        for g in gs:
            dense = [L for L in Ls if s ** (2 * L) <= n - 2 * L - g + 1]
            if not dense:
                continue
            top = dense[-1]
            if packed != top:
                packed, keys = top, window_codes(self.arr, top, s, 2 * top)
            codes, span = keys
            m = n - 2 * top - g + 1
            Q = _code_counts(codes, span * span, (span, top + g),
                             dtype=_count_dtype(n))
            Q = Q.reshape(span, span)
            for L in range(top, dense[0] - 1, -1):
                if L in dense:
                    try:
                        _refuse_undersampled(np.count_nonzero(Q), m)
                        values[(L, g)] = _pair_mi(Q)
                    except UndersampledError as e:
                        missing[(L, g)] = str(e)
                if L > dense[0]:
                    span //= s
                    Q = _sum_last_digit(Q.reshape(s, -1).sum(0, Q.dtype), s)
                    Q = Q.reshape(span, span)
                    m += 2
                    for i in (0, m - 1):
                        Q[self._code(i, L - 1),
                          self._code(i + L - 1 + g, L - 1)] += 1
        # the other cells one at a time, L-major so that each length's
        # codes are packed once
        for L in Ls:
            rest = [g for g in gs if (L, g) not in values
                    and (L, g) not in missing]
            if rest and packed != L and 2 * L + rest[0] <= n:
                packed, keys = L, window_codes(self.arr, L, s, 2 * L)
            for g in rest:
                try:
                    values[(L, g)] = self.gap_mutual_information(
                        L, g, keys if packed == L else None)
                except UndersampledError as e:
                    missing[(L, g)] = str(e)
        return values, missing

    def gap_mutual_information(self, L: int, g: int, keys=None) -> float:
        """Plug-in I(left; right) in bits of two length-L blocks g
        symbols apart, from the counts of the pair codes of this one
        cell; refuses undersampled cells.  ``keys`` are the length-L
        window codes and their range, as :func:`window_codes` gives them,
        when the caller has them."""
        uniq, pair_counts, (_, span) = self._pair_code_counts(L, g, keys)
        # marginal counts are integer sums of the pair counts, exact in
        # float64, over the (at most m / 10) distinct pairs
        h_left = _entropy_of_counts(
            _distinct_counts(uniq // span, span, pair_counts)[1])
        h_right = _entropy_of_counts(
            _distinct_counts(uniq % span, span, pair_counts)[1])
        return h_left + h_right - _entropy_of_counts(pair_counts)

    def block_distribution(self, L: int) -> BlockDistribution:
        self._check_block(L)
        return empirical_block_distribution(self.arr, L, self.alphabet)

    def joint_gap_distribution(self, L: int, g: int) -> JointBlockDistribution:
        uniq, counts, (codes, span) = self._pair_code_counts(L, g)
        pairs = zip(*(_code_words(self.arr, L, codes, half)
                      for half in (uniq // span, uniq % span)))
        # int64 / int64 rounds exactly as int / int below 2**53
        probs = dict(zip(pairs, (counts / counts.sum()).tolist()))
        return JointBlockDistribution(self.alphabet, L, g, L, probs)

    def _pair_code_counts(self, L: int, g: int, keys=None):
        """Distinct pair codes ``left * K + right`` of the gap-g windows,
        ascending, their counts, and the length-L window codes with their
        range K, ``keys`` when given (:func:`window_codes`); refuses
        cells with no window or too few."""
        m = self._gap_windows(L, g)
        keys = keys or window_codes(self.arr, L, len(self.alphabet), 2 * L)
        codes, span = keys
        pairs = _pair_codes(codes, span, L + g, 0, m)
        uniq, counts = _distinct_counts(pairs, span * span)
        _refuse_undersampled(uniq.size, m)
        return uniq, counts, keys


def _sum_last_digit(counts: np.ndarray, s: int) -> np.ndarray:
    """counts.reshape(-1, s).sum(1), as s adds of strided columns,
    which NumPy does several times faster than the small-axis sum."""
    digits = counts.reshape(-1, s)
    out = digits[:, 0].copy()
    for b in range(1, s):
        out += digits[:, b]
    return out


def _pair_mi(Q: np.ndarray) -> float:
    """H(rows) + H(columns) − H(pairs) of a dense matrix of pair counts."""
    return (_entropy_of_counts(Q.sum(1, Q.dtype))
            + _entropy_of_counts(Q.sum(0, Q.dtype))
            - _entropy_of_counts(Q.ravel()))


def _refuse_undersampled(distinct: int, m: int) -> None:
    if distinct > m / 10:
        raise UndersampledError(
            f"{distinct} distinct block pairs from {m} windows;"
            " refusing estimate beyond one pair per ten windows")


def _as_source(source):
    if hasattr(source, "gap_mutual_information"):
        return source
    return EmpiricalSource(source)


def _all_exact(values) -> bool:
    """Whether there are values and none of them is a float: the one
    rule for the ``exact`` flag of a curve or a grid."""
    return bool(values) and not any(isinstance(v, float) for v in values)


# ── entropy curves ──────────────────────────────────────────────────


class EntropyCurve(NamedTuple):
    """Block entropies H(1..L_max) with increments and the two
    entropy-rate estimators.

    h_hat is the last increment dH(L_max), which converges faster than
    the ratio and is exact from L_max = R + 1 on for an order-R chain;
    h_ratio = H(L_max)/L_max is exposed alongside.  E_hat is the
    excess-entropy estimate H(L_max) - L_max * h_hat.

    ``exact`` follows the rule of :class:`GapMIGrid`: no H(L) is a
    float.  An exact table whose probabilities are not smooth gives a
    float entropy, and then the curve is not exact.
    """

    L_max: int
    H: tuple
    dH: tuple
    h_hat: Scalar
    h_ratio: Scalar
    E_hat: Scalar
    exact: bool

    def to_rows(self) -> list:
        """The header and, for each L, the cells of H(L) and dH(L):
        exact (empty for a float) and in bits."""
        return [("L", "H_exact", "H_bits", "dH_exact", "dH_bits")] + [
            (str(L + 1), _exact_str(H), _fmt(H), _exact_str(dH), _fmt(dH))
            for L, (H, dH) in enumerate(zip(self.H, self.dH))]

    def to_csv(self) -> str:
        return "".join(",".join(row) + "\n" for row in self.to_rows())

    def to_json_dict(self) -> dict:
        return {
            "L_max": self.L_max,
            "H_bits": [float(x) for x in self.H],
            "dH_bits": [float(x) for x in self.dH],
            "h_hat_bits": float(self.h_hat),
            "h_ratio_bits": float(self.h_ratio),
            "E_hat_bits": float(self.E_hat),
            "exact": self.exact,
        }


def entropy_curve(source, L_max: int) -> EntropyCurve:
    """Block entropy curve of a model or an observed sequence."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    H = _as_source(source).block_entropies(range(1, L_max + 1))
    dH = [H[0]] + [H[i] - H[i - 1] for i in range(1, L_max)]
    h_hat = dH[-1]
    E_hat = H[-1] - h_hat * L_max
    h_ratio = H[-1] / L_max
    return EntropyCurve(L_max=L_max, H=tuple(H), dH=tuple(dH), h_hat=h_hat,
                        h_ratio=h_ratio, E_hat=E_hat, exact=_all_exact(H))


def excess_entropy_finite(source, L: int) -> Scalar:
    """Mutual information between two adjacent length-L blocks,
    computed as 2 H(L) - H(2L)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    hL, h2L = _as_source(source).block_entropies((L, 2 * L))
    return hL * 2 - h2L


# ── gap-MI grid ─────────────────────────────────────────────────────


class GapMIGrid(NamedTuple):
    """Mutual information between two length-L blocks with g symbols
    hidden between them, over a grid of (L, g).

    Cells that cannot be computed (window cap, undersampling) are
    absent from ``values`` and carry a reason string in ``missing``.
    ``exact`` is true when there are values and none is a float;
    ``empirical`` when they were estimated from an observed sequence.
    """

    L_grid: tuple
    g_grid: tuple
    values: dict
    missing: dict
    exact: bool
    empirical: bool

    def to_csv(self) -> str:
        lines = ["L,g,E_bits"]
        for L in self.L_grid:
            for g in self.g_grid:
                if (L, g) in self.values:
                    lines.append(f"{L},{g},{_fmt(self.values[(L, g)])}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "L_grid": list(self.L_grid),
            "g_grid": list(self.g_grid),
            "exact": self.exact,
            "empirical": self.empirical,
            "cells": [{"L": L, "g": g, "E_bits": float(v)}
                      for (L, g), v in sorted(self.values.items())],
            "missing": [{"L": L, "g": g, "reason": r}
                        for (L, g), r in sorted(self.missing.items())],
        }


def gap_mi_grid(source, L_grid: Sequence[int],
                g_grid: Sequence[int]) -> GapMIGrid:
    """Evaluate the block MI at every (L, g) on the grid; cells that
    exceed the window cap or the undersampling guard are marked
    missing rather than failing the grid."""
    Ls = tuple(sorted(set(int(L) for L in L_grid)))
    gs = tuple(sorted(set(int(g) for g in g_grid)))
    if not Ls or not gs:
        raise ValueError("grids must be nonempty")
    if Ls[0] < 1 or gs[0] < 0:
        raise ValueError("need L >= 1 and g >= 0 throughout the grid")
    src = _as_source(source)
    if isinstance(src, EmpiricalSource):
        values, missing = src.gap_mutual_informations(Ls, gs)
    else:
        # gap by gap: a chain keeps only the bridge of its last gap
        values, missing = {}, {}
        for g in gs:
            for L in Ls:
                try:
                    values[(L, g)] = src.gap_mutual_information(L, g)
                except (WindowCapError, UndersampledError) as e:
                    missing[(L, g)] = str(e)
    return GapMIGrid(L_grid=Ls, g_grid=gs, values=values, missing=missing,
                     exact=_all_exact(values.values()),
                     empirical=isinstance(src, EmpiricalSource))


# ── PMI verdict ─────────────────────────────────────────────────────


class PmiVerdict(NamedTuple):
    kind: str  # "converged" | "diverging" | "inconclusive"
    value: Optional[float] = None
    uncertainty: Optional[float] = None


class PmiReport(NamedTuple):
    grid: GapMIGrid
    verdict: PmiVerdict
    tail_values: dict
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "verdict": {"kind": self.verdict.kind,
                        "value": self.verdict.value,
                        "uncertainty": self.verdict.uncertainty},
            "tail_values": {str(L): v for L, v in self.tail_values.items()},
            "diagnostics": self.diagnostics,
            "grid": self.grid.to_json_dict(),
        }


def _check_verdict_grid(L_grid: Sequence[int], g_grid: Sequence[int]) -> None:
    """Refuse grids too small for a verdict, before anything is counted."""
    if len(set(L_grid)) < 3 or len(set(g_grid)) < 3:
        raise ValueError("need at least 3 distinct L and 3 distinct g values")


def _check_tolerances(**tolerances: Optional[float]) -> None:
    """Refuse a given verdict tolerance that is NaN, infinite or negative."""
    for name, value in tolerances.items():
        if value is not None and not 0 <= value < float("inf"):
            raise ValueError(f"{name} must be a finite number >= 0, "
                             f"not {value}")


def _slope(xs: Sequence[int], ys: Sequence[float]) -> float:
    """Least-squares slope Σ(x − x̄)(y − ȳ) / Σ(x − x̄)², taken exactly
    over the Fractions of the floats and rounded once: n·(x − x̄) are
    integers, and a flat tail gives 0.0."""
    c = [len(xs) * x - sum(xs) for x in xs]
    num = sum(ci * Fraction(y) for ci, y in zip(c, ys))
    return float(num / sum(ci * x for ci, x in zip(c, xs)))


def pmi_verdict(grid: GapMIGrid, eps_g: Optional[float] = None,
                eps_L: Optional[float] = None,
                delta: float = 0.05) -> PmiReport:
    """Classify the double limit of the gap-MI grid.

    The inner (gap) limit per L is taken as the value at the largest
    available g; it counts as stable when it differs from the value at
    the gap nearest half of g_max by at most eps_g.  Converged needs
    stability at the two largest L plus agreement of their limits
    within eps_L; diverging needs the per-L limits to grow
    monotonically at a least-squares rate of at least delta bits per
    unit L over the top half of the L grid.

    Default tolerances are 1e-6 for model grids and 1e-3 for grids
    estimated from a sequence.
    """
    _check_verdict_grid(grid.L_grid, grid.g_grid)
    _check_tolerances(eps_g=eps_g, eps_L=eps_L, delta=delta)
    noise = 1e-3 if grid.empirical else 1e-6
    eps_g = noise if eps_g is None else eps_g
    eps_L = noise if eps_L is None else eps_L

    gs = grid.g_grid
    g_last = gs[-1]
    g_half = min(gs[:-1], key=lambda g: abs(g - g_last / 2))

    tail_values = dict.fromkeys(grid.L_grid)
    tail_gaps = dict.fromkeys(grid.L_grid)
    tail_ok = dict.fromkeys(grid.L_grid, False)
    for L in grid.L_grid:
        avail = [g for g in gs if (L, g) in grid.values]
        if avail:
            tail_values[L] = float(grid.values[(L, avail[-1])])
        if g_last in avail and g_half in avail:
            gap = abs(float(grid.values[(L, g_last)])
                      - float(grid.values[(L, g_half)]))
            tail_gaps[L] = gap
            tail_ok[L] = gap <= eps_g

    usable = [L for L in grid.L_grid if tail_values[L] is not None]
    vs = [tail_values[L] for L in usable]
    monotone = all(b >= a - eps_g for a, b in zip(vs, vs[1:]))

    top = usable[len(usable) // 2:]
    slope = None
    if len(top) >= 2:
        slope = _slope(top, [tail_values[L] for L in top])
    top_monotone = all(
        tail_values[b] >= tail_values[a] - eps_g for a, b in zip(top, top[1:]))

    verdict = PmiVerdict("inconclusive")
    if len(usable) >= 2:
        L2, L1 = usable[-1], usable[-2]
        increment = abs(tail_values[L2] - tail_values[L1])
        if (L2, L1) == (grid.L_grid[-1], grid.L_grid[-2]) \
                and tail_ok[L2] and tail_ok[L1] and increment <= eps_L:
            verdict = PmiVerdict("converged", value=tail_values[L2],
                                 uncertainty=increment)
    if verdict.kind == "inconclusive" and slope is not None \
            and top_monotone and slope >= delta:
        verdict = PmiVerdict("diverging")

    diagnostics = {
        "eps_g": eps_g, "eps_L": eps_L, "delta": delta,
        "g_tail": g_last, "g_half": g_half,
        "tail_gaps": {int(L): tail_gaps[L] for L in grid.L_grid},
        "tail_ok": {int(L): tail_ok[L] for L in grid.L_grid},
        "monotone_in_L": monotone,
        "slope_top_half": slope,
    }
    return PmiReport(grid=grid, verdict=verdict, tail_values=tail_values,
                     diagnostics=diagnostics)


# ── efficiency and tail diagnostics ─────────────────────────────────


class EfficiencyReport(NamedTuple):
    """Prediction efficiency e+ = E / C+ with the convention e+ = 0
    when the complexity vanishes.  An estimate with E > C+ beyond
    1e-9 is reported with consistent=False, never clamped."""

    excess_entropy: float
    complexity_plus: float
    e_plus: float
    consistent: bool


def efficiency(E, machine) -> EfficiencyReport:
    E_f = float(E)
    C = float(machine.complexity)
    consistent = E_f <= C + 1e-9
    e_plus = 0.0 if C == 0 else E_f / C
    return EfficiencyReport(excess_entropy=E_f, complexity_plus=C,
                            e_plus=e_plus, consistent=consistent)


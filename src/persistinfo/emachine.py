"""Causal-state machines: minimal unifilar predictors of a process.

Two histories are causally equivalent when they predict the same
conditional law over futures.  Grouping the positive-probability
length-R histories by their length-F future conditionals yields the
causal states; for processes whose memory fits inside R symbols and
whose states are separated within F symbols this is the minimal
unifilar presentation.  The state entropy is the statistical
complexity C_P, and the mutual information between forward states and
the states of the time-reversed process is the excess entropy E,
giving the decomposition C_P = E + H(S+|S-).

Every model is read through its block tables alone, and through its
``order`` where it has one.  A history's future law is that of its
last k symbols, k the order of a chain of order at most R and R
otherwise: the future laws are the length-(k+F) table grouped by its
first k symbols, and the histories and their next symbols are the
length-(R+1) table, or the length-(R+F) table again when k = R.  The
joint state law is the table of length 2·max(order, 1) on such a
chain, of length Rf + Rr otherwise.  The window caps are those of the
tables read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .infocore import (
    Scalar,
    Word,
    _Frozen,
    _agrees,
    _entropy_of_table,
)
from .processes import reversed_model
from .sequence import Alphabet

__all__ = [
    "EpsilonMachine",
    "NonUnifilarError",
    "reconstruct",
    "machine_excess_entropy",
    "complexity_decomposition",
]

#: identities (row sums, stationarity, C_P = E + H(S+|S-)) must hold
#: within this where a float is involved, and exactly otherwise
IDENTITY_TOL = 1e-9

#: ``reconstruct``'s default merge radius on floats: two histories whose
#: future laws lie within this total variation are one state
MERGE_TOL = 1e-12


class NonUnifilarError(ValueError):
    """Histories grouped into one state emit a symbol into different
    states; the partition is not a valid machine at these horizons."""


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0)))
                     for k in keys)


# ── machine container ─────────────────────────────────────────────────────────


class EpsilonMachine(_Frozen):
    """Finite unifilar presentation recovered from history partitions.

    ``states[i]`` is the sorted tuple of length-``history_length``
    histories merged into state ``i``; ``transitions[(i, a)]`` is the
    unique ``(j, P(a | state i))`` edge, with zero-probability edges
    absent.  ``complexity`` is the Shannon entropy of ``state_probs``.
    Machines compare by identity.
    """

    __slots__ = ("alphabet", "history_length", "future_length", "tol",
                 "states", "state_probs", "transitions", "complexity",
                 "history_index")

    def __init__(self, alphabet: Alphabet, history_length: int,
                 future_length: int, tol: float,
                 states: Tuple[Tuple[Word, ...], ...], state_probs: Tuple,
                 transitions: Dict, complexity: Scalar, history_index: Dict):
        # the arguments in the order of __slots__
        for name, value in zip(self.__slots__, (
                alphabet, history_length, future_length, tol, states,
                state_probs, transitions, complexity, history_index)):
            object.__setattr__(self, name, value)


# ── reconstruction ────────────────────────────────────────────────────────────


def reconstruct(model, history_length: int, future_length: int,
                tol: Optional[float] = None) -> EpsilonMachine:
    """Partition length-R histories by their length-F future laws.

    ``tol`` is the total-variation radius within which two future
    conditionals count as equal; defaults to 0 on the exact backend and
    MERGE_TOL on floats.  Raises :class:`NonUnifilarError` when the
    partition admits no deterministic successor map, which signals that
    ``history_length`` or ``future_length`` is too small.
    """
    R, F = history_length, future_length
    if R < 1 or F < 1:
        raise ValueError("need history_length >= 1 and future_length >= 1")
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    blocks, hist, k, futures, sym = _laws(model, R, F)
    exact = blocks.exact
    if tol is None:
        tol = 0.0 if exact else MERGE_TOL
    alphabet = blocks.alphabet

    # a history's future law is that of its last k symbols
    histories = sorted(hist)
    if exact and tol == 0:
        keys = {c: _future_law_key(table) for c, table in futures.items()}
        groups: dict = {}
        for d in histories:
            groups.setdefault(keys[d[R - k:]], []).append(d)
        classes = list(groups.values())
    else:
        cond = {}
        for c, table in futures.items():
            total = sum(table.values())
            cond[c] = {f: p / total for f, p in table.items()}
        classes, reps = [], []
        for d in histories:
            law = cond[d[R - k:]]
            for i, rep in enumerate(reps):
                if _tv(law, rep) <= tol:
                    classes[i].append(d)
                    break
            else:
                classes.append([d])
                reps.append(law)
    classes.sort(key=lambda c: c[0])
    states = tuple(tuple(c) for c in classes)
    index = {d: i for i, c in enumerate(classes) for d in c}
    state_weights = [sum(hist[d] for d in c) for c in classes]

    transitions: dict = {}
    for i, cls in enumerate(states):
        for a in range(len(alphabet)):
            targets = set()
            num = 0
            for d in cls:
                pa = sym[d][a]
                if pa == 0:
                    continue
                j = index.get(d[1:] + (a,))
                if j is None:
                    raise ArithmeticError(
                        "successor history has zero probability; "
                        "window law is inconsistent")
                targets.add(j)
                num += pa
            if not targets:
                continue
            if len(targets) > 1:
                raise NonUnifilarError(
                    f"state {{{' '.join(alphabet.decode(d) for d in cls)}}} "
                    f"emits '{alphabet.symbols[a]}' into states "
                    f"{sorted(targets)}; increase history_length or "
                    f"future_length")
            mass = state_weights[i]
            transitions[(i, a)] = (targets.pop(), Fraction(num, mass)
                                   if exact else num / mass)

    if exact:
        state_probs = tuple(Fraction(w, blocks.denominator)
                            for w in state_weights)
    else:
        state_probs = tuple(state_weights)
    # the state law must be stationary under the edges; each state's
    # edges sum to 1 by construction, divided by the state's mass above
    flow = [0] * len(states)
    for (i, _a), (j, p) in transitions.items():
        flow[j] += state_probs[i] * p
    if not all(_agrees(f, q, IDENTITY_TOL) for f, q in zip(flow, state_probs)):
        raise ArithmeticError("state law is not stationary")
    return EpsilonMachine(
        alphabet=alphabet,
        history_length=R,
        future_length=F,
        tol=float(tol),
        states=states,
        state_probs=state_probs,
        transitions=transitions,
        complexity=_entropy_of_table(state_weights, blocks.denominator),
        history_index=index,
    )


def _laws(model, R: int, F: int) -> tuple:
    """What ``reconstruct`` reads: the length-(R+1) table, the weight
    of each length-R history and of each of its next symbols, both off
    that table and over its denominator; the
    k whose last k history symbols key a future table (the order of a
    chain of order at most R, else R); and those future tables, the
    length-(k+F) table grouped by its first k symbols.  Both groupings
    take one ``setdefault`` per word, in any table order (a reversed
    table has no runs of one prefix).  When k = R the
    length-(R+F) table serves for both, and when k + F = R + 1 it is
    the length-(R+1) table: either way it is built once."""
    k = min(getattr(model, "order", R), R)
    win = model.block_distribution(k + F)
    blocks = (win if k == R or k + F == R + 1
              else model.block_distribution(R + 1))
    futures: dict = {}
    for w, p in win.weights.items():
        if p != 0:
            futures.setdefault(w[:k], {})[w[k:]] = p
    sym: dict = {}
    s = len(blocks.alphabet)
    for w, p in blocks.weights.items():
        if p != 0:
            sym.setdefault(w[:R], [0] * s)[w[R]] += p
    hist = {d: sum(row) for d, row in sym.items()}
    return blocks, hist, k, futures, sym


def _future_law_key(table: dict) -> tuple:
    """A key equal for two histories exactly when their future laws
    are: the integer future weights divided by their gcd (proportional
    weight vectors are the same law)."""
    g = math.gcd(*table.values())
    return tuple(sorted((f, p // g) for f, p in table.items()))


# ── excess entropy from forward and reverse machines ─────────────────────────


def _state_joint(forward: EpsilonMachine, reverse: EpsilonMachine,
                 model) -> tuple:
    """Joint law of (forward state of the past, reverse state of the
    future) across one instant, as weights over their denominator (None
    on floats), off the table of length kf + kr: the forward state is
    that of its first kf symbols, the reverse state that of its last kr
    read backwards.  kf and kr are the two history lengths, except on a
    chain of order at most both, whose states are read from its edge
    contexts: kf = kr = max(order, 1)."""
    kf, kr = forward.history_length, reverse.history_length
    order = getattr(model, "order", None)
    if order is not None and order <= min(kf, kr):
        kf = kr = max(order, 1)
    fwd, rev = _context_states(forward, kf), _context_states(reverse, kr)
    win = model.block_distribution(kf + kr)
    joint: dict = {}
    for w, p in win.weights.items():
        if p == 0:
            continue
        key = (fwd[w[:kf]], rev[tuple(reversed(w[kf:]))])
        joint[key] = joint.get(key, 0) + p
    return joint, win.denominator


def _context_states(machine: EpsilonMachine, k: int) -> dict:
    """The state of each edge context, the last k symbols of the
    machine's histories; refuses a context split across two states."""
    states: dict = {}
    for h, i in machine.history_index.items():
        c = h[len(h) - k:]
        if states.setdefault(c, i) != i:
            raise ValueError(
                f"edge context '{machine.alphabet.decode(c)}' lies in "
                f"states {states[c]} and {i}; the machine does not "
                f"describe this order-{k} chain")
    return states


def _joint_entropies(joint: dict, denominator):
    left: dict = {}
    right: dict = {}
    for (i, j), p in joint.items():
        left[i] = left.get(i, 0) + p
        right[j] = right.get(j, 0) + p
    return tuple(_entropy_of_table(table.values(), denominator)
                 for table in (left, right, joint))


def machine_excess_entropy(m_forward: EpsilonMachine, model) -> Scalar:
    """E = I(forward state; reverse state), the mutual information
    between the causal states on either side of one instant.

    The reverse machine is reconstructed from the time-reversed model
    at the same horizons and tolerance.
    """
    m_rev = reconstruct(reversed_model(model), m_forward.history_length,
                        m_forward.future_length, tol=m_forward.tol)
    h_fwd, h_rev, h_joint = _joint_entropies(
        *_state_joint(m_forward, m_rev, model))
    return h_fwd + h_rev - h_joint


def complexity_decomposition(forward: EpsilonMachine,
                             reverse: EpsilonMachine, model):
    """Split C_P into (E, H(S+|S-), H(S-|S+)).

    Verifies C_P = E + H(S+|S-) for both reading directions against
    each machine's own state entropy, exactly when both sides are exact
    and within IDENTITY_TOL otherwise; a violation means the machines
    do not describe the model they were handed.
    """
    h_fwd, h_rev, h_joint = _joint_entropies(
        *_state_joint(forward, reverse, model))
    E = h_fwd + h_rev - h_joint
    h_fr = h_joint - h_rev   # H(S+|S-)
    h_rf = h_joint - h_fwd   # H(S-|S+)
    if not _agrees(forward.complexity, E + h_fr, IDENTITY_TOL):
        raise ArithmeticError("C_P != E + H(S+|S-) for the forward machine")
    if not _agrees(reverse.complexity, E + h_rf, IDENTITY_TOL):
        raise ArithmeticError("C_P != E + H(S-|S+) for the reverse machine")
    return E, h_fr, h_rf

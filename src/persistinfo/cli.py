"""Command-line front end: model loading, measure computation,
closed-form table reproduction, CSV/JSON emission.

Models come from a small built-in registry of model documents (tm,
fib, coin, goldenmean), from a JSON file, or from an inline JSON
string; observed sequences come from one-line text files.  All output
is deterministic for a fixed invocation, and every command exits
nonzero when a violated invariant is detected downstream.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import measures
from .emachine import reconstruct
from .infocore import _exact_str, _fmt
from .measures import (
    EmpiricalSource,
    efficiency,
    entropy_curve,
    excess_entropy_finite,
    gap_mi_grid,
    pmi_verdict,
)
from .processes import (
    IidProcess,
    IsingChainProcess,
    LogisticSymbolizer,
    MarkovProcess,
    PeriodicProcess,
    SubstitutionProcess,
    closed_forms,
    sample,
)
from .sequence import Alphabet, read_sequence, write_sequence
from .substitution import (
    Substitution,
    factor_frequencies,
    shortcut_matrix,
)

__all__ = [
    "main",
    "cmd_entropy",
    "cmd_pmi",
    "cmd_table1",
    "cmd_substitution",
    "cmd_ising",
    "cmd_sample",
]

#: finite cells of the closed-form table must match the recomputed
#: pipeline within this
TABLE1_TOL = 1e-6

#: ``ising`` fails when E at its high-temperature probe exceeds this
ISING_PROBE_TOL = 1e-3


def _render(x) -> str:
    """Exact value plus float rendering side by side when available."""
    if isinstance(x, float):
        return _fmt(x)
    return f"{x} ({_fmt(float(x))})"


def _table_row(cells, widths) -> str:
    """Cells left-justified to their column widths, with at least one
    space between a cell and the next however long it is."""
    head = "".join((c + " ").ljust(w) for c, w in zip(cells[:-1], widths))
    return head + cells[-1].ljust(widths[-1])


def _parse_grid(text: Optional[str], minimum: int,
                flag: str) -> Optional[Tuple[int, ...]]:
    """A comma list of integers >= minimum, strictly ascending, given
    to ``flag``; an entry that is not an integer is refused by name."""
    if text is None:
        return None
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(f"{flag} entry {part!r} is not an integer: "
                             f"{text}") from None
    if any(v < minimum for v in values):
        raise ValueError(f"{flag} entries must be >= {minimum}: {text}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{flag} must be strictly ascending: {text}")
    return tuple(values)


# ── model and sequence loading ────────────────────────────────────────────────


#: the built-in models, each a model document that --model reads by name
_REGISTRY = {
    "tm": {"kind": "substitution", "rules": {"0": "01", "1": "10"},
           "start": "0"},
    "fib": {"kind": "substitution", "rules": {"0": "01", "1": "0"},
            "start": "0"},
    "coin": {"kind": "iid", "probs": ["1/2", "1/2"]},
    "goldenmean": {"kind": "markov", "rows": {"0": ["1/2", "1/2"],
                                              "1": [1, 0]}},
}

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}
_OBJECT, _ARRAY = ("an object",), ("an array",)
_NUM, _LABELS = ("a number", "a string"), ("a string", "an array")


def _typed(doc: dict, where: str, v, types) -> None:
    """Refuses v, naming the model kind and ``where`` (the field, and
    the entry if any), when its JSON type is not in ``types`` (empty:
    any) or when it, or a number in its array, is NaN or infinite."""
    got = _JSON_TYPES[type(v)]
    if types and got not in types:
        raise ValueError(f"{doc.get('kind')} model field {where} must be "
                         f"{' or '.join(types)}, not {got}")
    for x in v if isinstance(v, list) else [v]:
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{doc.get('kind')} model field {where} "
                             f"must be finite, not {x}")


def _field(doc: dict, key: str, types=(), default=KeyError, entries=()):
    """doc[key] (``default``, if given, when absent), refused with the
    kind and the key when missing, and by ``_typed`` when it is not of
    ``types`` or an entry not of ``entries``, and, when it is required
    and of labels, an object or an array, when it is empty.  Numbers:
    ``_number``."""
    if key not in doc and default is KeyError:
        raise ValueError(f"{doc.get('kind')} model needs a {key!r} field")
    value = doc.get(key, default)
    if key in doc:
        _typed(doc, repr(key), value, types)
        if (default is KeyError and types in (_LABELS, _OBJECT, _ARRAY)
                and not value):
            raise ValueError(f"{doc.get('kind')} model field {key!r} "
                             "must not be empty")
    if entries and isinstance(value, dict):
        for k, v in value.items():
            _typed(doc, f"{key!r} entry {k!r}", v, entries)
    return value


def _number(doc: dict, key: str, exact: bool, types=_NUM, default=KeyError):
    """The numbers of doc[key] (``default`` when absent): one for a
    scalar (``types`` _NUM), a list for an array (_ARRAY), a dict of
    lists for an object of arrays (_OBJECT).  Each, a JSON number or a
    numeric string ("1/2", "1e3"), is a Fraction on the exact backend
    and a float otherwise.  Refused, naming kind, field and entry: a
    value of another JSON type or not finite (``_typed``), and a string
    that is not a number or lies beyond float range."""
    value = _field(doc, key, types, default, entries=_ARRAY)

    def read(where, v):
        _typed(doc, where, v, _NUM)
        try:
            x = Fraction(str(v))
            float(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{doc.get('kind')} model field {where} "
                             f"must be a number, not {v!r}") from None
        return x if exact else float(x)

    if isinstance(value, dict):
        return {k: [read(f"{key!r} entry {k!r}", v) for v in row]
                for k, row in value.items()}
    if isinstance(value, list):
        return [read(repr(key), v) for v in value]
    return read(repr(key), value)


def _build_model(doc: dict, exact: bool):
    """The model of a document (a registry name's too): every number
    read by ``_number``, as a Fraction on the exact backend and a float
    otherwise, and every other field by ``_field``."""
    kind = doc.get("kind")
    if kind == "periodic":
        return PeriodicProcess.from_string(_field(doc, "cycle", _LABELS))
    if kind in ("markov", "iid"):
        labels = _field(doc, "alphabet", _LABELS, None)
        alphabet = None if labels is None else Alphabet(labels)
    if kind == "markov":
        rows = _number(doc, "rows", exact, _OBJECT)
        if alphabet is None and not any(rows.values()):
            # the rows' length would be the size of the alphabet
            raise ValueError(f"markov model field 'rows' entry "
                             f"{next(iter(rows))!r} has length 0, but an "
                             "alphabet has size at least 1")
        return MarkovProcess.from_rows(rows, alphabet=alphabet)
    if kind == "iid":
        probs = _number(doc, "probs", exact, _ARRAY)
        if alphabet is not None and len(probs) != len(alphabet):
            raise ValueError(f"iid model field 'probs' has length "
                             f"{len(probs)}, but the alphabet has size "
                             f"{len(alphabet)}")
        return IidProcess.from_probs(probs, alphabet=alphabet)
    if kind == "ising":
        J, h, beta = (_number(doc, k, exact) for k in ("J", "h", "beta"))
        if exact:
            raise ValueError("the Ising chain has no rational structure; "
                             "use --backend float")
        return IsingChainProcess(J=J, h=h, beta=beta)
    if kind == "substitution":
        return SubstitutionProcess(Substitution.from_strings(
            _field(doc, "rules", _OBJECT, entries=_LABELS),
            start=_field(doc, "start")))
    if kind == "logistic":
        r = _number(doc, "r", exact)
        x0 = _number(doc, "x0", exact, default=0.4)
        # a count, read exactly on either backend
        burnin = _number(doc, "burnin", True, default=1000)
        if burnin.denominator != 1 or burnin < 0:
            raise ValueError("logistic model field 'burnin' must be a whole "
                             f"number >= 0, not {doc['burnin']}")
        return LogisticSymbolizer(r=r, x0=x0, burnin=int(burnin))
    raise ValueError(f"unknown model kind {kind!r}")


def _load_model(spec: str, backend: str):
    doc = _REGISTRY.get(spec)
    if doc is None:
        source = "inline model document"
        if not spec.lstrip().startswith(("{", "[")):
            path = Path(spec)
            if not path.exists():
                raise ValueError(f"model file not found: {spec}")
            source, spec = f"model file {spec}", path.read_text()
        doc = _json(spec, source)
    if not isinstance(doc, dict):
        raise ValueError("a model document is a JSON object, not "
                         f"{_JSON_TYPES[type(doc)]}")
    return _build_model(doc, backend == "exact")


def _json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{source} is not JSON: {err}") from None


def _source(cfg: argparse.Namespace):
    if (cfg.model is None) == (cfg.seq is None):
        raise ValueError("give exactly one of --model or --seq")
    if cfg.seq is not None:
        if cfg.backend is not None:
            raise ValueError("--backend applies to --model only; a --seq "
                             "sequence is counted as it is")
        return EmpiricalSource(*read_sequence(cfg.seq))
    model = _load_model(cfg.model, cfg.backend or "exact")
    if isinstance(model, LogisticSymbolizer):
        raise ValueError("the logistic map has no exact law; write a sample "
                         "with 'persistinfo sample' and read it with --seq")
    if cfg.backend == "float" and isinstance(
            model, (PeriodicProcess, SubstitutionProcess)):
        raise ValueError("--backend float does not apply to periodic and "
                         "substitution models, whose laws are exact")
    return model


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ── entropy ───────────────────────────────────────────────────────────────────


def cmd_entropy(cfg: argparse.Namespace) -> int:
    if cfg.L_max < 1:
        raise ValueError(f"--Lmax must be >= 1, not {cfg.L_max}")
    curve = entropy_curve(_source(cfg), cfg.L_max)
    if cfg.format == "csv":
        text = curve.to_csv()
    elif cfg.format == "json":
        text = json.dumps(curve.to_json_dict(), indent=2) + "\n"
    else:
        widths = (4, 24, 16, 24, 16)
        lines = [_table_row(row, widths) for row in curve.to_rows()]
        lines.append(f"h_hat = {_render(curve.h_hat)}")
        lines.append(f"E_hat = {_render(curve.E_hat)}")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


# ── pmi ───────────────────────────────────────────────────────────────────────


def cmd_pmi(cfg: argparse.Namespace) -> int:
    L_grid = _parse_grid(cfg.L_grid, 1, "--L-grid") or (1, 2, 3)
    g_grid = _parse_grid(cfg.g_grid, 0, "--g-grid") or (16, 24, 32)
    # the verdict's tolerances, given only to override its defaults
    tuning = {k: getattr(cfg, k) for k in ("eps_g", "eps_L", "delta")
              if getattr(cfg, k) is not None}
    flags = {"--" + k.replace("_", "-"): v for k, v in tuning.items()}
    if cfg.format != "csv":
        measures._check_verdict_grid(L_grid, g_grid)
        measures._check_tolerances(**flags)
    elif tuning:
        raise ValueError(f"--format csv prints no PMI verdict, so it takes "
                         f"no {', '.join(flags)}")
    grid = gap_mi_grid(_source(cfg), L_grid, g_grid)
    if cfg.format == "csv":
        # the rows leave refused cells out: name them apart
        for (L, g), reason in sorted(grid.missing.items()):
            print(f"note: ({L}, {g}) missing: {reason}", file=sys.stderr)
        _emit(grid.to_csv(), cfg.out)
        return 0
    report = pmi_verdict(grid, **tuning)
    if cfg.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        widths = (5, 5, 0)
        lines = [_table_row(("L", "g", "E_bits"), widths)]
        for (L, g), v in sorted(grid.values.items()):
            lines.append(_table_row((str(L), str(g), _fmt(float(v))), widths))
        for (L, g), reason in sorted(grid.missing.items()):
            lines.append(_table_row((str(L), str(g), f"missing: {reason}"),
                                    widths))
        v = report.verdict
        if v.kind == "converged":
            lines.append(f"verdict: converged  PMI = {_fmt(v.value)}"
                         f"  uncertainty = {_fmt(v.uncertainty)}")
        elif v.kind == "diverging":
            slope = report.diagnostics["slope_top_half"]
            lines.append(f"verdict: diverging"
                         f"  ({_fmt(slope)} bits per unit L)")
        else:
            lines.append("verdict: inconclusive")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


# ── table1 ────────────────────────────────────────────────────────────────────


def _canon_cell(x):
    if x is None:
        return "?"
    if isinstance(x, str):
        return x
    f = float(x)
    return "diverging" if math.isinf(f) else f


def _cell(closed, computed) -> dict:
    p, c = _canon_cell(closed), _canon_cell(computed)
    if isinstance(p, float) and isinstance(c, float):
        return {"closed": p, "computed": c, "diff": abs(p - c)}
    return {"closed": p, "computed": c,
            "diff": "ok" if p == c else "MISMATCH"}


def _pmi_cell(model, L_grid, g_grid):
    report = pmi_verdict(gap_mi_grid(model, L_grid, g_grid))
    v = report.verdict
    return v.value if v.kind == "converged" else v.kind


def _computed_small_memory(model, order: int) -> dict:
    """Pipeline values for models whose memory is a known small order
    (a period-p cycle's is p - 1): curve increments, the 2H(L) - H(2L)
    surrogate, reconstruction and the gap grid."""
    R = max(order, 1)
    curve = entropy_curve(model, R + 4)
    E = excess_entropy_finite(model, R + 2)
    machine = reconstruct(model, R, R + 1)
    gaps = (4, 8, 12) if order == 0 else (16, 24, 32)
    return {
        "h_P": curve.dH[-1],
        "E": E,
        "C_P": machine.complexity,
        "PMI": _pmi_cell(model, (R, R + 1, R + 2), gaps),
        "e": efficiency(E, machine).e_plus,
    }


def _computed_thue_morse(model: SubstitutionProcess) -> dict:
    # the model's increments H(2^k + 2) - H(2^k + 1), k = 2, 3, 4, each
    # exactly half the one before: the staircase falls to h_P = 0; and
    # the surrogates 2H(L) - H(2L), L = 2..9, of E.  Each H(L) is
    # enumerated once, over the 14 distinct lengths those read.
    Ls = [*range(2, 11), 12, 14, 16, 17, 18]
    H = dict(zip(Ls, model.block_entropies(Ls)))
    steps = [H[2 ** k + 2] - H[2 ** k + 1] for k in (2, 3, 4)]
    halving = all(a == b + b for a, b in zip(steps, steps[1:]))
    surrogates = [float(H[L] * 2 - H[2 * L]) for L in range(2, 10)]
    increments = [b - a for a, b in zip(surrogates, surrogates[1:])]
    E = "diverging" if all(inc >= 0.05 for inc in increments[-4:]) \
        else surrogates[-1]
    counts = [len(reconstruct(model, R, 5).states) for R in (3, 4, 5)]
    C = "diverging" if counts[0] < counts[1] < counts[2] else float(counts[-1])
    return {
        "h_P": 0.0 if halving else None,
        "E": E,
        "C_P": C,
        "PMI": _pmi_cell(model, (3, 5, 7, 9), (2, 4, 8)),
        "e": None,
    }


def _table1_rows():
    """Each row's closed forms against its pipeline values, cell by cell.
    A row is (label, model, order): a finite-memory model is recomputed
    at its memory order by ``_computed_small_memory``, and Thue-Morse
    (order None) by ``_computed_thue_morse``."""
    rows = [
        ("period-2", PeriodicProcess.from_string("01"), 1),
        ("period-3", PeriodicProcess.from_string("011"), 2),
        ("period-5", PeriodicProcess.from_string("00111"), 4),
        ("goldenmean", _load_model("goldenmean", "exact"), 1),
        ("markov-r2", _build_model({"kind": "markov", "rows": {
            "00": ["4/5", "1/5"], "01": ["3/10", "7/10"],
            "10": ["3/5", "2/5"], "11": ["1/4", "3/4"]}}, True), 2),
        ("iid-fair", _load_model("coin", "exact"), 0),
        ("iid-biased", _build_model(
            {"kind": "iid", "probs": ["3/10", "7/10"]}, True), 0),
        ("thue-morse", _load_model("tm", "exact"), None),
        ("ising", IsingChainProcess(J=1.0, h=0.0, beta=0.5), 1),
    ]
    out = []
    for label, model, order in rows:
        cf = closed_forms(model)
        c = (_computed_thue_morse(model) if order is None
             else _computed_small_memory(model, order))
        out.append((label, {
            "h_P": _cell(cf.entropy_rate, c["h_P"]),
            "E": _cell(cf.excess_entropy, c["E"]),
            "C_P": _cell(cf.complexity_plus, c["C_P"]),
            "PMI": _cell(cf.pmi, c["PMI"]),
            "e": _cell(cf.efficiency, c["e"]),
        }))
    return out


def cmd_table1(cfg: argparse.Namespace) -> int:
    rows = _table1_rows()
    bad = 0
    for _label, cells in rows:
        for cell in cells.values():
            d = cell["diff"]
            if (isinstance(d, float) and d > TABLE1_TOL) or d == "MISMATCH":
                bad += 1
    if cfg.format == "json":
        text = json.dumps({
            "rows": [{"model": label, "cells": cells}
                     for label, cells in rows],
            "violations": bad,
        }, indent=2) + "\n"
    else:
        widths = (12, 6, 18, 18, 12)
        header = ("model", "qty", "closed", "computed", "|diff|")
        lines = [_table_row(header, widths)]
        for label, cells in rows:
            for qty, cell in cells.items():
                vals = [_fmt(v) if isinstance(v, float) else v
                        for v in cell.values()]
                lines.append(_table_row((label, qty, *vals), widths))
        lines.append(f"finite-cell tolerance {TABLE1_TOL:g}; "
                     f"violations: {bad}")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 1 if bad else 0


# ── substitution ─────────────────────────────────────────────────────────────


def _load_substitution(cfg: argparse.Namespace) -> Substitution:
    if cfg.rules.lstrip().startswith("{"):
        if not cfg.start:
            raise ValueError("inline rules need --start")
        doc = {"kind": "substitution",
               "rules": _json(cfg.rules, "inline rules document"),
               "start": cfg.start}
    elif cfg.start is not None:
        raise ValueError("--start is read only with inline JSON rules")
    elif cfg.rules in ("tm", "fib"):
        doc = _REGISTRY[cfg.rules]
    else:
        raise ValueError(f"unknown rules {cfg.rules!r}; use tm, fib, or an "
                         "inline JSON object")
    return _build_model(doc, True).substitution


def cmd_substitution(cfg: argparse.Namespace) -> int:
    if cfg.l < 1:
        raise ValueError(f"--l must be >= 1, not {cfg.l}")
    if cfg.p is not None and cfg.format == "csv":
        raise ValueError("--p needs --format table or json")
    sub = _load_substitution(cfg)
    table = factor_frequencies(sub, cfg.l)
    names = [sub.alphabet.decode(w) for w in table.factors]
    items = list(zip(names, table.freq.values()))  # freq is in factor order
    shortcut = None if cfg.p is None else _shortcut_dict(sub, cfg)
    if cfg.format == "csv":
        lines = ["factor,freq_exact,freq_float"]
        lines += [f"{name},{_exact_str(p)},{_fmt(float(p))}"
                  for name, p in items]
        text = "\n".join(lines) + "\n"
    elif cfg.format == "json":
        doc = {"length": cfg.l,
               "factors": [{"factor": name, "freq": float(p),
                            "freq_exact": _exact_str(p)}
                           for name, p in items]}
        if shortcut:
            doc["shortcut"] = shortcut
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"factors of length {cfg.l} ({len(items)} total):"]
        lines += [f"  {name}  {_render(p)}" for name, p in items]
        if shortcut:
            lines += _shortcut_lines(shortcut, names, cfg.l)
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


def _shortcut_dict(sub: Substitution, cfg: argparse.Namespace) -> dict:
    data = shortcut_matrix(sub, cfg.l, cfg.p)
    dec = sub.alphabet.decode
    return {
        "power": data.power,
        "pairs": [dec(w) for w in data.factors_2],
        "pair_freqs": [str(p) for p in data.v2],
        "matrix": [[int(v) for v in row] for row in data.matrix],
        "freqs": [str(p) for p in data.v_l],
    }


def _shortcut_lines(doc: dict, names: list, l: int) -> list:
    """The text form of ``_shortcut_dict``'s document: its count matrix
    with a row per length-l factor (``names``, the factors' order) and
    a column per pair, then the pair and factor frequencies."""
    lines = [f"shortcut count matrix (length-{l} factors x pairs, "
             f"power {doc['power']}):",
             "  " + " " * (l + 2) + "  ".join(doc["pairs"])]
    lines += [f"  {name}  " + "  ".join(f"{v:>2}" for v in row)
              for name, row in zip(names, doc["matrix"])]
    lines.append("pair frequencies: " + "  ".join(
        f"{name}={p}" for name, p in zip(doc["pairs"], doc["pair_freqs"])))
    lines.append("shortcut frequencies: " + "  ".join(
        f"{name}={p}" for name, p in zip(names, doc["freqs"])))
    return lines


# ── ising sweep ───────────────────────────────────────────────────────────────


def cmd_ising(cfg: argparse.Namespace) -> int:
    for flag in ("J", "h", "Tmin", "Tmax"):
        value = getattr(cfg, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, not {value}")
    if cfg.Tmin <= 0 or cfg.Tmax <= cfg.Tmin:
        raise ValueError("need 0 < Tmin < Tmax")
    if not math.isfinite(1.0 / cfg.Tmin):
        raise ValueError(f"--Tmin {cfg.Tmin} is too small: 1/Tmin overflows")
    if not math.isfinite(1.0 / cfg.Tmin * (abs(cfg.J) + abs(cfg.h))):
        raise ValueError(f"--J {cfg.J}, --h {cfg.h} and --Tmin {cfg.Tmin}:"
                         " the energy (|J| + |h|)/Tmin overflows")
    if cfg.points < 3:
        raise ValueError("need at least 3 temperature points")
    temps = np.geomspace(cfg.Tmin, cfg.Tmax, cfg.points).tolist()
    rows = []
    for T in temps:
        cf = closed_forms(IsingChainProcess(J=cfg.J, h=cfg.h, beta=1.0 / T))
        rows.append((float(T), float(cf.entropy_rate),
                     float(cf.excess_entropy), float(cf.complexity_plus)))
    E = [r[2] for r in rows]
    peak = E.index(max(E))
    rising = all(a <= b + 1e-12 for a, b in zip(E[:peak], E[1:peak + 1]))
    falling = all(a >= b - 1e-12 for a, b in zip(E[peak:], E[peak + 1:]))
    probe_T = max(cfg.Tmax, 100.0)
    probe = closed_forms(IsingChainProcess(J=cfg.J, h=cfg.h,
                                           beta=1.0 / probe_T))
    violations = []
    if not (rising and falling):
        violations.append("E(T) is not unimodal")
    if float(probe.excess_entropy) > ISING_PROBE_TOL:
        violations.append(
            f"E({_fmt(probe_T)}) = {_fmt(float(probe.excess_entropy))} "
            "exceeds 1e-3 at high temperature")
    if cfg.format == "json":
        text = json.dumps({
            "J": cfg.J, "h": cfg.h,
            "rows": [{"T": t, "h_P": hp, "E": e, "C_P": c, "PMI": 0}
                     for t, hp, e, c in rows],
            "violations": violations,
        }, indent=2) + "\n"
    else:
        lines = ["T,h_P,E,C_P,PMI"]
        lines += [f"{_fmt(t)},{_fmt(hp)},{_fmt(e)},{_fmt(c)},0"
                  for t, hp, e, c in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    if violations:
        print("error: " + "; ".join(violations), file=sys.stderr)
        return 1
    return 0


# ── sample ────────────────────────────────────────────────────────────────────


def cmd_sample(cfg: argparse.Namespace) -> int:
    if cfg.n < 1:
        raise ValueError("need n >= 1")
    if cfg.seed < 0:
        raise ValueError(f"--seed must be >= 0, not {cfg.seed}")
    # sampling is a float operation whatever the analysis backend
    model = _load_model(cfg.model, "float")
    write_sequence(cfg.out, model.alphabet, cfg.n,
                   lambda: sample(model, cfg.n, seed=cfg.seed))
    return 0


# ── parser and entry point ────────────────────────────────────────────────────


def _add_common(sp: argparse.ArgumentParser, backend: bool = False,
                formats=("table", "csv", "json")) -> None:
    """--format (the first of ``formats`` is the default), --out, and
    --backend where the command reads it."""
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", help="write here instead of standard output")
    if backend:
        sp.add_argument("--backend", choices=("exact", "float"),
                        help="exact (the default) or float; read only "
                        "with --model")


def _entropy_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", help="registry name, JSON file, or inline "
                    "JSON")
    sp.add_argument("--seq", help="one-line symbol sequence file")
    sp.add_argument("--Lmax", dest="L_max", type=int, default=8)
    _add_common(sp, backend=True)


def _pmi_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model")
    sp.add_argument("--seq")
    sp.add_argument("--L-grid", dest="L_grid", help="comma list, e.g. 1,2,3")
    sp.add_argument("--g-grid", dest="g_grid",
                    help="comma list, e.g. 16,24,32")
    sp.add_argument("--eps-g", dest="eps_g", type=float)
    sp.add_argument("--eps-L", dest="eps_L", type=float)
    sp.add_argument("--delta", type=float)
    _add_common(sp, backend=True)


def _substitution_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rules", required=True,
                    help="tm, fib, or inline JSON rules")
    sp.add_argument("--start", help="start symbol for inline rules")
    sp.add_argument("--l", type=int, default=2, help="factor length")
    sp.add_argument("--p", type=int, help="also print the shortcut matrix "
                    "at this substitution power")
    _add_common(sp)


def _ising_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--J", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.0)
    sp.add_argument("--Tmin", type=float, default=0.1)
    sp.add_argument("--Tmax", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=40)
    _add_common(sp, formats=("csv", "json"))


def _sample_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write here instead of standard output")


#: each command's help line, the builder of its arguments, and its function
_COMMANDS = {
    "entropy": ("block entropy curve", _entropy_args, cmd_entropy),
    "pmi": ("gap mutual-information grid and double-limit verdict",
            _pmi_args, cmd_pmi),
    "table1": ("closed forms vs recomputed pipeline for the built-in model "
               "family", lambda sp: _add_common(sp, formats=("table", "json")),
               cmd_table1),
    "substitution": ("factor frequencies of a substitution fixed point",
                     _substitution_args, cmd_substitution),
    "ising": ("temperature sweep of the nearest-neighbour chain",
              _ising_args, cmd_ising),
    "sample": ("emit one sequence line from a model", _sample_args,
               cmd_sample),
}


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The top-level parser.  Each command's subparser carries its help
    line; only ``command``'s has its arguments and ``-h`` too."""
    parser = argparse.ArgumentParser(
        prog="persistinfo",
        description="Complexity measures of stationary symbolic processes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            add(sp)
    return parser


def main(argv=None) -> int:
    """Run ``persistinfo`` on argv (``sys.argv[1:]`` if None), building
    only the invoked command's parser: a command named first parses its
    own arguments, anything else goes to a top-level parser whose
    subparsers carry only their help lines.  What a command leaves
    unparsed is refused by the top-level parser, so every help, usage
    and error text is that of one tree of all the commands' parsers."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"persistinfo {name}")
        _COMMANDS[name][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        # no argument, -h or an unknown name exit here; a command found
        # after an unknown option is parsed again, with its arguments
        name = _parser().parse_known_args(argv)[0].command
        args = _parser(name).parse_args(argv)
    try:
        return _COMMANDS[name][2](args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

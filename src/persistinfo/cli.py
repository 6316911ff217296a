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
from .infocore import (
    Alphabet,
    _BLOCK,
    _char_codes,
    _concat_pieces,
    _distinct_rows,
    _exact_str,
    _fmt,
    _ranks,
)
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
from .substitution import (
    Substitution,
    factor_frequencies,
    shortcut_matrix,
    thue_morse_block_entropy_increment,
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


def _parse_grid(text: Optional[str], minimum: int) -> Optional[Tuple[int, ...]]:
    """A comma list of integers >= minimum, strictly ascending."""
    if text is None:
        return None
    values = tuple(int(part) for part in text.split(","))
    if any(v < minimum for v in values):
        raise ValueError(f"grid entries must be >= {minimum}: {text}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"grids must be strictly ascending: {text}")
    return values


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
    ``types`` or an entry not of ``entries``.  Numbers: ``_number``."""
    if key not in doc and default is KeyError:
        raise ValueError(f"{doc.get('kind')} model needs a {key!r} field")
    value = doc.get(key, default)
    if key in doc:
        _typed(doc, repr(key), value, types)
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
        return MarkovProcess.from_rows(_number(doc, "rows", exact, _OBJECT),
                                       alphabet=alphabet)
    if kind == "iid":
        return IidProcess.from_probs(_number(doc, "probs", exact, _ARRAY),
                                     alphabet=alphabet)
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
        if not spec.lstrip().startswith(("{", "[")):
            path = Path(spec)
            if not path.exists():
                raise ValueError(f"model file not found: {spec}")
            spec = path.read_text()
        doc = json.loads(spec)
    if not isinstance(doc, dict):
        raise ValueError("a model document is a JSON object, not "
                         f"{_JSON_TYPES[type(doc)]}")
    return _build_model(doc, backend == "exact")


def _load_sequence(path: str) -> EmpiricalSource:
    """The one line of a UTF-8 sequence file as a source.

    The file is read once, as bytes, and its surrounding whitespace is
    skipped by offsets (``_line_bounds``), so the line is held once.
    A comma line is parsed from those bytes (``_comma_codes``), and a
    line of ASCII characters is coded one byte per symbol; only a line
    with a non-ASCII character is decoded, to a string.
    """
    raw = Path(path).read_bytes()
    lo, hi = _line_bounds(raw)
    if lo == hi:
        raise ValueError(f"sequence file is empty: {path}")
    if raw.find(b"\n", lo, hi) >= 0 or raw.find(b"\r", lo, hi) >= 0:
        raise ValueError("sequence files hold one line of symbols")
    if raw.find(b",", lo, hi) >= 0:
        codes, labels = _comma_codes(raw, lo, hi, path)
        return EmpiricalSource(codes, Alphabet(labels))
    points = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
    if points.max() < 0x80:
        return EmpiricalSource(*_char_codes(points, None))
    text = str(memoryview(raw)[lo:hi], "utf-8")
    del points, raw  # the line is held once, as the string
    return EmpiricalSource(text)


def _line_bounds(raw: bytes) -> Tuple[int, int]:
    """Offsets of the first character of raw's UTF-8 text that is not
    whitespace and past the last one, whitespace as ``str.strip`` reads
    it; only the characters at the two ends are decoded."""
    lo, hi = 0, len(raw)
    while lo < hi:
        lead = raw[lo]
        width = 1 + (lead >= 0xC0) + (lead >= 0xE0) + (lead >= 0xF0)
        if not raw[lo:lo + width].decode(errors="replace").isspace():
            break
        lo += width
    while lo < hi:
        # back over at most three continuation bytes to a lead byte
        start = hi - 1
        while start > max(lo, hi - 4) and raw[start] & 0xC0 == 0x80:
            start -= 1
        if not raw[start:hi].decode(errors="replace").isspace():
            break
        hi = start
    return lo, hi


def _comma_codes(raw: bytes, lo: int, end: int, path: str):
    """Codes and sorted labels of a comma-separated line, given as the
    UTF-8 bytes raw[lo:end].

    When every label has the width w ≤ 2 bytes of the first (its
    commas sit at w, 2w + 1, ...: their count fixes the line length,
    and the stride-(w + 1) column from w holds only commas), each
    label is one uint16 key built from the w strided columns, and the
    keys are ranked (``_ranks``) in one pass: big-endian UTF-8 bytes
    sort in Python's string order.  Any other line goes through
    ``_comma_block_codes``, which gives the same codes and labels.
    """
    line = np.frombuffer(raw, dtype=np.uint8, count=end - lo, offset=lo)
    w = raw.find(b",", lo, end) - lo
    commas = raw.count(b",", lo, end)
    if (0 < w <= 2 and (commas + 1) * (w + 1) - 1 == line.size
            and (line[w::w + 1] == ord(",")).all()):
        keys = line[0::w + 1].astype(np.uint16)
        if w == 2:
            keys <<= 8
            keys |= line[1::3]
        uniq, codes = _ranks(keys, 1 << 8 * w)
        return codes, [key.to_bytes(w, "big").decode()
                       for key in uniq.tolist()]
    return _comma_block_codes(raw, lo, end, path)


def _comma_block_codes(raw: bytes, lo: int, end: int, path: str):
    """``_comma_codes`` of a line of labels of any widths.

    The line is read in blocks of about ``_BLOCK`` bytes, each ending
    just before a comma; a comma is never part of a multi-byte UTF-8
    character, so no label is split.  In a block, the tokens of each
    byte length are keyed by gathering their bytes: as base-256
    integers when they fit in 63 bits, looked up in the sorted keys of
    that length seen so far, to which only the keys not seen before are
    added; as rows sorted bytewise otherwise.  A label seen for the
    first time takes the next id, and the ids are renumbered once at
    the end, in Python's string order.  The codes are held in the
    narrowest unsigned type of the labels' number, widened as new
    labels come.
    """
    size = _BLOCK
    data = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(raw.count(b",", lo, end) + 1, dtype=np.uint8)
    ids: dict = {}
    seen: dict = {}  # byte length -> (sorted keys, their ids)
    done = 0
    while True:
        hi = raw.find(b",", lo + size, end)
        if hi < 0:
            hi = end
        block = data[lo:hi]
        ends = np.flatnonzero(block == ord(","))
        starts = np.zeros(ends.size + 1, dtype=np.int64)
        np.add(ends, 1, out=starts[1:])
        lengths = np.append(ends, block.size) - starts
        if not lengths.all():
            raise ValueError(f"empty symbol at position "
                             f"{done + int(np.argmin(lengths))} of the "
                             f"comma-separated sequence in {path}")
        counts = np.bincount(lengths)
        for width in np.flatnonzero(counts).tolist():
            where = (slice(None) if counts[width] == starts.size
                     else np.flatnonzero(lengths == width))
            first = starts[where]
            if width * 8 < 63:
                keys = np.zeros(first.size, dtype=np.int64)
                for j in range(width):
                    keys <<= 8
                    keys |= block[first + j]
                known, known_ids = seen.get(width, (keys[:0], keys[:0]))
                pos = np.searchsorted(known, keys)
                hit = pos < known.size
                hit[hit] = known[pos[hit]] == keys[hit]
                if not hit.all():
                    # the distinct new keys, by a sort: a bare
                    # np.unique imports numpy.ma
                    new = np.sort(keys[~hit])
                    new = new[np.diff(new, prepend=-1) > 0]
                    new_ids = [ids.setdefault(k.to_bytes(width, "big")
                                              .decode(), len(ids))
                               for k in new.tolist()]
                    at = np.searchsorted(known, new)
                    known = np.insert(known, at, new)
                    known_ids = np.insert(known_ids, at, new_ids)
                    seen[width] = known, known_ids
                    pos = np.searchsorted(known, keys)
                found = known_ids[pos]
            else:
                rows = block[first[:, None] + np.arange(width)]
                distinct, local = _distinct_rows(rows, 256)
                found = np.array([ids.setdefault(row.tobytes().decode(),
                                                 len(ids))
                                  for row in distinct])[local]
            if len(ids) - 1 > np.iinfo(codes.dtype).max:
                codes = codes.astype(np.min_scalar_type(len(ids) - 1))
            codes[done:done + starts.size][where] = found
        done += starts.size
        if hi == end:
            break
        lo = hi + 1
    labels = sorted(ids)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[[ids[label] for label in labels]] = np.arange(len(labels))
    if (rank != np.arange(rank.size)).any():
        for lo in range(0, codes.size, size):
            chunk = codes[lo:lo + size]
            chunk[:] = rank[chunk]
    return codes, labels


def _source(cfg: argparse.Namespace):
    if (cfg.model is None) == (cfg.seq is None):
        raise ValueError("give exactly one of --model or --seq")
    if cfg.seq is not None:
        if cfg.backend is not None:
            raise ValueError("--backend applies to --model only; a --seq "
                             "sequence is counted as it is")
        return _load_sequence(cfg.seq)
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
    L_grid = _parse_grid(cfg.L_grid, minimum=1) or (1, 2, 3)
    g_grid = _parse_grid(cfg.g_grid, minimum=0) or (16, 24, 32)
    # the verdict's tolerances, given only to override its defaults
    tuning = {k: getattr(cfg, k) for k in ("eps_g", "eps_L", "delta")
              if getattr(cfg, k) is not None}
    if cfg.format != "csv":
        measures._check_verdict_grid(L_grid, g_grid)
    elif tuning:
        flags = ", ".join("--" + k.replace("_", "-") for k in tuning)
        raise ValueError(f"--format csv prints no PMI verdict, so it takes "
                         f"no {flags}")
    grid = gap_mi_grid(_source(cfg), L_grid, g_grid)
    if cfg.format == "csv":
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


def _tm_rate_limit():
    """The exact increments on consecutive plateaus halve; their limit
    is 0.  Returns None when the halving pattern breaks."""
    vals = [float(thue_morse_block_entropy_increment(2 ** k + 2))
            for k in range(2, 9)]
    for a, b in zip(vals, vals[1:]):
        if abs(b / a - 0.5) > 1e-12:
            return None
    return 0.0


def _computed_thue_morse(model: SubstitutionProcess) -> dict:
    surrogates = [float(excess_entropy_finite(model, L))
                  for L in range(2, 10)]
    increments = [b - a for a, b in zip(surrogates, surrogates[1:])]
    E = "diverging" if all(inc >= 0.05 for inc in increments[-4:]) \
        else surrogates[-1]
    counts = [len(reconstruct(model, R, 5).states) for R in (3, 4, 5)]
    C = "diverging" if counts[0] < counts[1] < counts[2] else float(counts[-1])
    return {
        "h_P": _tm_rate_limit(),
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
        doc = {"kind": "substitution", "rules": json.loads(cfg.rules),
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
    if cfg.show_shortcut and cfg.p is None:
        raise ValueError("--p (the substitution power) is required "
                         "with --show-shortcut")
    if cfg.show_shortcut and cfg.format == "csv":
        raise ValueError("--show-shortcut needs --format table or json")
    if cfg.p is not None and not cfg.show_shortcut:
        raise ValueError("--p is read only with --show-shortcut")
    sub = _load_substitution(cfg)
    table = factor_frequencies(sub, cfg.l)
    dec = sub.alphabet.decode
    items = [(dec(w), table.freq[w]) for w in table.factors]
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
        if cfg.show_shortcut:
            doc["shortcut"] = _shortcut_dict(sub, cfg)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"factors of length {cfg.l} ({len(items)} total):"]
        lines += [f"  {name}  {_render(p)}" for name, p in items]
        if cfg.show_shortcut:
            lines += _shortcut_lines(sub, cfg)
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


def _shortcut_lines(sub: Substitution, cfg: argparse.Namespace) -> list:
    data = shortcut_matrix(sub, cfg.l, cfg.p)
    dec = sub.alphabet.decode
    lines = [f"shortcut count matrix (length-{cfg.l} factors x pairs, "
             f"power {data.power}):"]
    pair_names = [dec(w) for w in data.factors_2]
    lines.append("  " + " " * (cfg.l + 2) + "  ".join(pair_names))
    for i, w in enumerate(data.factors_l):
        row = "  ".join(f"{int(v):>2}" for v in data.matrix[i])
        lines.append(f"  {dec(w)}  {row}")
    lines.append("pair frequencies: " + "  ".join(
        f"{name}={p}" for name, p in zip(pair_names, data.v2)))
    lines.append("shortcut frequencies: " + "  ".join(
        f"{dec(w)}={p}" for w, p in zip(data.factors_l, data.v_l)))
    return lines


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


# ── ising sweep ───────────────────────────────────────────────────────────────


def cmd_ising(cfg: argparse.Namespace) -> int:
    if cfg.Tmin <= 0 or cfg.Tmax <= cfg.Tmin:
        raise ValueError("need 0 < Tmin < Tmax")
    if cfg.points < 3:
        raise ValueError("need at least 3 temperature points")
    temps = np.geomspace(cfg.Tmin, cfg.Tmax, cfg.points)
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
    if float(probe.excess_entropy) > 1e-3:
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
    # sampling is a float operation whatever the analysis backend
    model = _load_model(cfg.model, "float")
    for x in model.alphabet.symbols:  # as the loader splits and strips
        if {",", "\n", "\r"} & set(x) or x != x.strip():
            raise ValueError(
                f"label {x!r} cannot be written to a sequence file: labels"
                " hold no comma or line break and no surrounding whitespace")
    symbols = model.alphabet.symbols
    sep = "" if all(len(x) == 1 for x in symbols) else ","
    if sep and cfg.n == 1:
        raise ValueError(
            "--n 1 over multi-character labels writes one label with no"
            " comma, which a sequence file reads back one character per"
            " symbol; use --n 2 or more")
    arr = sample(model, cfg.n, seed=cfg.seed)
    pieces = [np.frombuffer((x + sep).encode(), dtype=np.uint8)
              for x in symbols]
    size = _BLOCK
    f = open(cfg.out, "w") if cfg.out else sys.stdout
    try:
        # the sampler's blocks of symbols, the last one ending in a
        # newline instead of a separator
        for lo in range(0, arr.size, size):
            text = _concat_pieces(arr[lo:lo + size], pieces).tobytes().decode()
            if lo + size >= arr.size:
                text = text.removesuffix(sep) + "\n"
            f.write(text)
    finally:
        if f is not sys.stdout:
            f.close()
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistinfo",
        description="Complexity measures of stationary symbolic processes")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="block entropy curve")
    sp.add_argument("--model", help="registry name, JSON file, or inline "
                    "JSON")
    sp.add_argument("--seq", help="one-line symbol sequence file")
    sp.add_argument("--Lmax", dest="L_max", type=int, default=8)
    _add_common(sp, backend=True)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("pmi", help="gap mutual-information grid and "
                        "double-limit verdict")
    sp.add_argument("--model")
    sp.add_argument("--seq")
    sp.add_argument("--L-grid", dest="L_grid",
                    help="comma list, e.g. 1,2,3")
    sp.add_argument("--g-grid", dest="g_grid",
                    help="comma list, e.g. 16,24,32")
    sp.add_argument("--eps-g", dest="eps_g", type=float)
    sp.add_argument("--eps-L", dest="eps_L", type=float)
    sp.add_argument("--delta", type=float)
    _add_common(sp, backend=True)
    sp.set_defaults(func=cmd_pmi)

    sp = sub.add_parser("table1", help="closed forms vs recomputed "
                        "pipeline for the built-in model family")
    _add_common(sp, formats=("table", "json"))
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("substitution", help="factor frequencies of a "
                        "substitution fixed point")
    sp.add_argument("--rules", required=True,
                    help="tm, fib, or inline JSON rules")
    sp.add_argument("--start", help="start symbol for inline rules")
    sp.add_argument("--l", type=int, default=2, help="factor length")
    sp.add_argument("--show-shortcut", action="store_true",
                    dest="show_shortcut")
    sp.add_argument("--p", type=int, help="substitution power for the "
                    "shortcut matrix")
    _add_common(sp)
    sp.set_defaults(func=cmd_substitution)

    sp = sub.add_parser("ising", help="temperature sweep of the "
                        "nearest-neighbour chain")
    sp.add_argument("--J", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.0)
    sp.add_argument("--Tmin", type=float, default=0.1)
    sp.add_argument("--Tmax", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=40)
    _add_common(sp, formats=("csv", "json"))
    sp.set_defaults(func=cmd_ising)

    sp = sub.add_parser("sample", help="emit one sequence line from a "
                        "model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write here instead of standard output")
    sp.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

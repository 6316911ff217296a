"""Sequences: symbols to codes and counts, and the sequence file.

The bottom layer of the package, which imports no other module of it.
It owns the sequence file format, read by :func:`read_sequence` and
written by :func:`write_sequence`: one line of UTF-8 text, its ends
stripped, of one character per symbol or of comma-separated labels.

Empirical statistics are integer counts.  A sequence is coded as an
index array of the narrowest unsigned type with no Python call per
symbol, and each length-L window as one integer code, by doubling in
place: base-s digits, ranked among their distinct values (which keeps
their order) before they would pass 63 bits (:func:`window_codes`).
Codes are counted over their range when it is no larger than their
number, otherwise by the runs of a sorted copy (``_distinct_counts``).
``measures.EmpiricalSource`` reads H(L) and the gap MIs off the counts,
with no word table; a table reads each distinct code's word off the
first window where it occurs (:func:`_code_words`).
"""

from __future__ import annotations

import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Alphabet", "window_codes", "read_sequence", "write_sequence"]

#: the block of each loop that walks a long array a part at a time, so
#: that no scratch array outgrows it: symbols sampled and written, bytes
#: of a comma line of mixed widths read, bytes of an ASCII line searched
#: for new symbols (``_BLOCK >> 4`` sampled at a time), windows coded and
#: counted (by bincount up to ``_BLOCK >> 4`` codes), sorted codes
#: searched for runs, counts turned into p·log₂ p, codes gathered through
#: a table and letters turned into words; outputs do not depend on it
_BLOCK = 1 << 16


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
        self._index = {s: i for i, s in enumerate(self.symbols)}
        for i, s in enumerate(self.symbols):
            if self._index[s] != i:
                raise ValueError(
                    f"alphabet labels must be distinct: {s!r} repeats")

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def encode(self, text: Union[str, Iterable[str]]) -> tuple:
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


# ── Codes and counts ──────────────────────────────────────────────────────────


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
            return _char_codes(seq.encode("ascii"), alphabet)
        return _char_codes(np.frombuffer(
            seq.encode("utf-32-le", "surrogatepass"), dtype=np.uint32),
            alphabet)
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


def _char_codes(line, alphabet: Alphabet | None, lo: int = 0,
                hi: int | None = None):
    """(index array, alphabet) of the characters line[lo:hi], one per
    symbol, given as ASCII bytes or as an array of their code points
    (the string branch of :func:`_coerce_sequence`, and the ASCII line
    of :func:`read_sequence`, read in place between its offsets).

    Bytes are coded by one ``bytes.translate`` of the whole of line
    through a 256-byte table of their codes, whose slice [lo:hi] is
    returned as a view (unless a given alphabet has more than 256
    symbols), so no other copy of the line is made.  Their distinct
    bytes are found ``_BLOCK`` bytes at a time by deletion passes
    (``bytes.translate`` with bytes to delete): the bytes found so far
    are deleted from the block, then, until nothing is left, every byte
    of a sample of about ``_BLOCK >> 4`` bytes spread evenly across
    what is left.  A block of a line sorted by symbol thus takes one
    sampled pass for its runs longer than the sample's stride, not one
    per symbol, and a pass holds at most two blocks.  Code points are
    ranked (:func:`_ranks`).
    """
    by_bytes = isinstance(line, bytes) and (alphabet is None
                                            or len(alphabet) <= 256)
    if by_bytes:
        hi = len(line) if hi is None else hi
        found = set()
        for start in range(lo, hi, _BLOCK):
            rest = line[start:min(start + _BLOCK, hi)]
            rest = rest.translate(None, bytes(found))
            while rest:
                sample = rest[::len(rest) // (_BLOCK >> 4) + 1]
                found.update(sample)
                rest = rest.translate(None, sample)
        uniq = sorted(found)
    else:
        if isinstance(line, bytes):
            line = np.frombuffer(line, dtype=np.uint8)
        line = line[lo:hi]
        # the distinct code points, ascending; sorted only when a high
        # code point would make a lookup table outgrow the line
        uniq, codes = _ranks(line, int(line.max(initial=0)) + 1)
        uniq = uniq.tolist()
    chars = list(map(chr, uniq))
    values = None
    if alphabet is None:
        alphabet = Alphabet(chars)
    else:
        index = {c: i for i, c in enumerate(alphabet.symbols)}
        bad = [u for u, c in zip(uniq, chars) if c not in index]
        if bad:
            if by_bytes:
                t, u = min((line.find(u, lo, hi) - lo, u) for u in bad)
            else:
                t = int(np.isin(line, bad).argmax())
                u = int(line[t])
            raise ValueError(f"symbol {chr(u)!r} at position {t} is not "
                             f"in the alphabet {alphabet.symbols}")
        values = [index[c] for c in chars]
    if by_bytes:
        table = bytearray(256)
        for u, v in zip(uniq, values or range(len(uniq))):
            table[u] = v
        codes = np.frombuffer(line.translate(table), dtype=np.uint8)
        return codes[lo:hi], alphabet
    if values is not None:
        codes = np.array(values, dtype=_code_dtype(len(alphabet)))[codes]
    return codes, alphabet


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
    the codes' own type: ``codes`` must hold every range the steps
    reach, so block·factor + tail never leaves it, even where ``arr``
    is held in a wider type.  A block reads only codes at or past its
    own start, which no earlier block has overwritten.  Before a step
    whose range would pass 63 bits, the codes are replaced by their
    ranks among their distinct values (:func:`_ranks`).  Returns
    (codes, size).
    """
    for step in steps:
        if _passes_63_bits(size, s if step == "append" else size):
            uniq, ranks = _ranks(codes, size)
            codes[:] = ranks
            size = uniq.size
        if step == "pair":
            continue
        k = arr.size - codes.size + 1  # the length of the windows coded
        factor, tail = (s, arr[k:]) if step == "append" else (size, codes[k:])
        for lo in range(0, tail.size, _BLOCK):
            hi = min(lo + _BLOCK, tail.size)
            block = codes[lo:hi] * factor
            np.add(block, tail[lo:hi], out=block, casting="unsafe")
            codes[lo:hi] = block
        codes, size = codes[:tail.size], size * factor
    return codes, size


def window_codes(arr: np.ndarray, L: int, s: int, width: int | None = None):
    """Codes of the length-L windows of arr that sort as their words,
    and their range: (codes, size).  A table reads the word of a code
    off a window where it occurs (:func:`_code_words`).

    The codes are held in the narrowest unsigned type of the s**L
    words (``_code_dtype``), int64 past 32 bits, and built by doubling
    in that one array and in that type (:func:`_grow_codes`): a
    length-2k code is the length-k code times its range plus the
    length-k code k places on, and a digit is appended wherever L's
    binary expansion has a one.
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
    return _grow_codes(
        arr, s, arr.astype(_code_dtype(s ** L)), s,
        _doubling_steps(L) + ["pair"] * ((width or L) > L))


def _code_words(arr: np.ndarray, L: int, codes: np.ndarray,
                wanted: np.ndarray) -> tuple:
    """The words of the ``wanted`` codes among the length-L window codes
    of arr (:func:`window_codes`), each read off the first window where
    it occurs (:func:`_words`): the same for digit and ranked codes."""
    distinct, first = np.unique(codes, return_index=True)
    starts = first[np.searchsorted(distinct, wanted)]
    return _words(sliding_window_view(arr, L)[starts])


def _words(rows: np.ndarray) -> tuple:
    """The rows of a 2-D array of letters as word tuples, converted
    about ``_BLOCK`` letters at a time, so that the nested lists
    ``tolist`` makes stay one block long."""
    step = max(1, _BLOCK // rows.shape[1])
    return tuple(chain.from_iterable(
        map(tuple, rows[lo:lo + step].tolist())
        for lo in range(0, len(rows), step)))


def _concat_pieces(codes: np.ndarray, pieces: Sequence[np.ndarray]):
    """pieces[codes[0]] + pieces[codes[1]] + ... as one array, built
    by one gather with no Python call per code.

    Pieces of one common length are rows of a table, gathered by one
    ``take``; otherwise output position t of the piece for code c,
    which starts at output offset o, reads the concatenated pieces at
    start(c) + (t − o).  The codes may be held in any integer type;
    callers pass a block of codes at a time, since ``take`` copies
    them to intp and the index arrays of unequal pieces are int64 per
    output letter.
    """
    lengths = np.array([len(piece) for piece in pieces], dtype=np.int64)
    flat = np.concatenate(pieces)
    if lengths.min() == lengths.max():
        rows = flat.reshape(len(pieces), int(lengths[0]))
        return rows.take(codes, axis=0).ravel()
    lens = lengths[codes]
    # start(c) − o per code, then per output position
    shift = (np.cumsum(lengths) - lengths)[codes]
    shift -= np.cumsum(lens)
    shift += lens
    index = np.repeat(shift, lens)
    index += np.arange(index.size)
    return flat[index]


def _pair_codes(codes: np.ndarray, span: int, shift: int, lo: int,
                hi: int) -> np.ndarray:
    """Pair codes codes[i]·span + codes[i + shift] of the codes, in
    range(span), for lo ≤ i < hi: computed in the narrowest unsigned
    type of their range span² (``_code_dtype``), int64 past 32 bits,
    which holds every pair code, whatever type the codes are in."""
    pairs = codes[lo:hi].astype(_code_dtype(span * span))
    pairs *= span
    np.add(pairs, codes[lo + shift:hi + shift], out=pairs, casting="unsafe")
    return pairs


def _count_dtype(n: int) -> np.dtype:
    """The type of the window counts of a sequence of n symbols: uint32
    below 2^32 symbols, int64 past that.  It is read from the sequence,
    not from one length's windows: marginal sums add the edge windows
    as L falls, but no count or total of any length passes n."""
    return np.dtype(np.uint32 if n < 1 << 32 else np.int64)


def _code_counts(codes: np.ndarray, size: int, pair=None,
                 dtype=None) -> np.ndarray:
    """Counts of codes drawn from range(size), as an array of that
    length in ``dtype``, by default ``_count_dtype(codes.size)``.  With
    ``pair = (span, shift)`` and size span², the codes counted are the
    pair codes codes[i]·span + codes[i + shift], for i below
    codes.size − shift (:func:`_pair_codes`).

    Counted ``_BLOCK`` codes at a time: by one ``np.bincount`` per
    block over at most ``_BLOCK >> 4`` (4096) codes, added in with
    ``casting="unsafe"`` (its int64 counts fit), by ``np.add.at`` past
    that, where a bincount's intp copy and whole-range array per block
    cost more.  ``np.add.at`` adds a one of the counts' own type: with
    the Python int 1 it leaves NumPy's fast path for a uint32 array
    (7.5 against 0.36 ms per 64 K codes over 531441 bins).  Per 10^6
    codes (numpy 2.4, 2-vCPU VM), bincount against add.at: 2.3 vs 3.2
    ms at 4096 bins, 2.1 vs 3.5 at ~50 bins, 3.9 vs 3.8 at 59049 and
    15.6 vs 7.3 at 531441.
    """
    span, shift = pair or (0, 0)
    m = codes.size - shift
    counts = np.zeros(size, dtype=dtype or _count_dtype(codes.size))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        block = _pair_codes(codes, span, shift, lo, hi) if pair \
            else codes[lo:hi]
        if size <= _BLOCK >> 4:
            counts += np.bincount(block, minlength=size).astype(counts.dtype)
        else:
            np.add.at(counts, block, counts.dtype.type(1))
    return counts


def _distinct_counts(codes: np.ndarray, size: int, weights=None):
    """Distinct values of codes drawn from range(size), ascending, and
    their counts in ``_count_dtype(codes.size)``; with positive
    ``weights``, the sum of each value's weights as a float64 array
    instead.

    Counted over the whole range (``_code_counts``, or a bincount of
    the weights) when it is no larger than the code array, so that
    buffer never outgrows the input; otherwise by the runs of a sorted
    copy (:func:`_sorted_runs`), or, with weights, by ``np.unique``.
    """
    if size <= codes.size:
        counts = (_code_counts(codes, size) if weights is None
                  else np.bincount(codes, weights, minlength=size))
        uniq = np.flatnonzero(counts)
        return uniq, counts[uniq]
    if weights is None:
        return _sorted_runs(codes)
    uniq, inverse = np.unique(codes, return_inverse=True)
    return uniq, np.bincount(inverse.ravel(), weights)


def _sorted_runs(codes: np.ndarray):
    """Distinct values of codes, ascending, in the codes' type, and the
    length of each one's run in a sorted copy, in
    ``_count_dtype(codes.size)``: what ``np.unique(codes,
    return_counts=True)`` gives, without its int64 index and ``diff``
    arrays of one entry per distinct value.

    The copy is sorted in the codes' own (narrowest) type, and its runs
    are found ``_BLOCK`` codes at a time, twice: once to count them,
    once to write each run's value and the length of the run before.
    """
    ordered = np.sort(codes)
    n = ordered.size

    def starts(lo):  # of the runs in [lo, lo + _BLOCK)
        block = ordered[lo - 1:lo + _BLOCK]
        return np.flatnonzero(block[1:] != block[:-1]) + lo
    k = 1 + sum(starts(lo).size for lo in range(1, n, _BLOCK))
    uniq, runs = np.empty(k, ordered.dtype), np.empty(k, _count_dtype(n))
    uniq[0], at, last = ordered[0], 1, 0
    for lo in range(1, n, _BLOCK):
        new = starts(lo)
        uniq[at:at + new.size] = ordered[new]
        runs[at - 1:at - 1 + new.size] = np.diff(new, prepend=last)
        at, last = at + new.size, new[-1] if new.size else last
    runs[k - 1] = n - last
    return uniq, runs


def _ranks(codes: np.ndarray, size: int):
    """Distinct values of codes drawn from range(size), ascending, and
    the index of each code among them, in the narrowest unsigned type
    of their number (``_code_dtype``): a lookup table when the range
    is no larger than the code array, a sort otherwise.  The table is
    read by one ``take`` per ``_BLOCK`` codes into the output, so the
    intp copy that ``take`` makes of a narrow index is one block long."""
    if size > codes.size:
        uniq, inverse = np.unique(codes, return_inverse=True)
        return uniq, inverse.ravel().astype(_code_dtype(uniq.size))
    uniq = np.flatnonzero(_code_counts(codes, size))
    table = np.empty(size, dtype=_code_dtype(uniq.size))
    table[uniq] = np.arange(uniq.size)
    out = np.empty(codes.size, dtype=table.dtype)
    for lo in range(0, codes.size, _BLOCK):
        table.take(codes[lo:lo + _BLOCK], out=out[lo:lo + _BLOCK])
    return uniq, out


def _distinct_rows(rows: np.ndarray, s: int):
    """Distinct rows of a 2-D array of letters in range(s), in lex
    order, and each row's index among them.  Rows of any length are
    sorted as byte strings of big-endian letters."""
    dtype = np.min_scalar_type(s - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    return uniq.view(dtype).reshape(uniq.size, -1), inverse


# ── The sequence file ─────────────────────────────────────────────────────────


def read_sequence(path: str):
    """(index array, :class:`Alphabet`) of the one line of a UTF-8
    sequence file, as :func:`_coerce_sequence` gives them.

    The file is read once, as bytes, and its surrounding whitespace and
    a leading byte-order mark are skipped by offsets (``_line_bounds``),
    so the line is held once.  A comma line is parsed from those bytes
    (``_comma_codes``), and a line of ASCII characters is coded one
    byte per symbol (``_char_codes``); only a line with a non-ASCII
    character is decoded, to a string.  A line that is not UTF-8 is
    refused, naming the file offset of its first bad byte.
    """
    raw = Path(path).read_bytes()
    lo, hi = _line_bounds(raw)
    if lo == hi:
        raise ValueError(f"sequence file is empty: {path}")
    if raw.find(b"\n", lo, hi) >= 0 or raw.find(b"\r", lo, hi) >= 0:
        raise ValueError("sequence files hold one line of symbols")
    try:
        if raw.find(b",", lo, hi) >= 0:
            codes, labels = _comma_codes(raw, lo, hi, path)
            return codes, Alphabet(labels)
        points = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
        if points.max() < 0x80:
            return _char_codes(raw, None, lo, hi)
        text = str(memoryview(raw)[lo:hi], "utf-8")
    except UnicodeDecodeError:
        try:  # the line fails too, at the first bad byte's offset
            raw[lo:hi].decode()
        except UnicodeDecodeError as err:
            raise ValueError(f"sequence file {path} is not UTF-8: byte "
                             f"0x{raw[lo + err.start]:02x} at offset "
                             f"{lo + err.start}") from None
    del points, raw  # the line is held once, as the string
    return _coerce_sequence(text, None)


def _line_bounds(raw: bytes) -> Tuple[int, int]:
    """Offsets of the first character of raw's UTF-8 text that is not
    whitespace and past the last one, whitespace as ``str.strip`` reads
    it, after a byte-order mark at offset 0, which is skipped as the
    ``utf-8-sig`` codec drops it; only the characters at the two ends
    are decoded."""
    lo, hi = (3 if raw.startswith(b"\xef\xbb\xbf") else 0), len(raw)
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
    sort in Python's string order.  Any other line takes the plain
    route, ``_comma_block_codes``, which gives the same codes and labels.
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
    just before a comma (never part of a multi-byte UTF-8 character).
    Each block is split at its commas; a label seen first takes the
    next id in one dict keyed by its bytes, and the codes, of the
    narrowest unsigned type of the labels' number, widen as labels
    come.  The ids are renumbered once at the end, in Python's string
    order, the order of UTF-8 bytes.
    """
    codes = np.empty(raw.count(b",", lo, end) + 1, dtype=np.uint8)
    ids: dict = {}
    done = 0
    while lo <= end:
        hi = raw.find(b",", lo + _BLOCK, end)
        if hi < 0:
            hi = end
        tokens = raw[lo:hi].split(b",")
        for label in dict.fromkeys(tokens):
            if not label:
                raise ValueError(f"empty symbol at position "
                                 f"{done + tokens.index(label)} of the "
                                 f"comma-separated sequence in {path}")
            ids.setdefault(label, len(ids))
        if len(ids) - 1 > np.iinfo(codes.dtype).max:
            codes = codes.astype(np.min_scalar_type(len(ids) - 1))
        codes[done:done + len(tokens)] = np.fromiter(
            map(ids.__getitem__, tokens), codes.dtype, len(tokens))
        done += len(tokens)
        lo = hi + 1
    labels = sorted(ids)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[[ids[label] for label in labels]] = np.arange(len(labels))
    if (rank != np.arange(rank.size)).any():
        for lo in range(0, codes.size, _BLOCK):
            codes[lo:lo + _BLOCK] = rank[codes[lo:lo + _BLOCK]]
    return codes, [label.decode() for label in labels]


def write_sequence(out: str | None, alphabet: Alphabet, n: int, draw):
    """Write the n codes ``draw()`` returns as a sequence file at ``out``
    (stdout if None).  Labels it could not read back are refused first,
    and ``out`` is opened before the draw, so a path that cannot be
    written is refused before any code is drawn.  If the draw or a write
    raises, the file opened is closed and, if it is a regular file,
    removed."""
    symbols = alphabet.symbols
    for x in symbols:  # as the reader splits, strips and skips a BOM
        if ({",", "\n", "\r"} & set(x) or x != x.strip()
                or x[:1] in ("", "\ufeff")):
            raise ValueError(
                f"label {x!r} cannot be written to a sequence file: labels"
                " are not empty, hold no comma or line break, and have no"
                " surrounding whitespace or leading byte-order mark")
    sep = "" if all(len(x) == 1 for x in symbols) else ","
    if sep and n == 1:
        raise ValueError(
            "--n 1 over multi-character labels writes one label with no"
            " comma, which a sequence file reads back one character per"
            " symbol; use --n 2 or more")
    pieces = [np.frombuffer((x + sep).encode(), dtype=np.uint8)
              for x in symbols]
    size = _BLOCK
    f = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        arr = draw()
        # the codes a block at a time, the last block ending in a
        # newline instead of a separator
        for lo in range(0, arr.size, size):
            text = _concat_pieces(arr[lo:lo + size], pieces).tobytes().decode()
            if lo + size >= arr.size:
                text = text.removesuffix(sep) + "\n"
            f.write(text)
    except BaseException:
        # a device such as /dev/null is left in place
        if f is not sys.stdout and Path(out).is_file():
            f.close()
            Path(out).unlink()
        raise
    finally:
        if f is not sys.stdout:
            f.close()

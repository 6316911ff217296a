"""The sequence file: what ``write_sequence`` writes, ``read_sequence``
reads back as the same labels in the same order."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import persistinfo
from persistinfo import sequence
from persistinfo.sequence import Alphabet, read_sequence, write_sequence


def _fits(c: str) -> bool:
    """Whether a character may stand anywhere in a label: no comma, and
    no whitespace, which a label may not start or end with."""
    return c != "," and not c.isspace()


_ASCII = st.characters(min_codepoint=0x21, max_codepoint=0x7E).filter(_fits)
_NON_ASCII = st.characters(min_codepoint=0x80,
                           blacklist_categories=("Cs",)).filter(_fits)
_TWO_BYTE = st.one_of(st.text(_ASCII, min_size=2, max_size=2),
                      st.characters(min_codepoint=0x80,
                                    max_codepoint=0x7FF).filter(_fits))
_ANY_WIDTH = st.text(st.one_of(_ASCII, _NON_ASCII), min_size=1, max_size=5)


def _comma_labels(first, rest):
    """Distinct labels, the first drawn from ``first``: two characters
    or more, so that the labels are written comma-separated."""
    return st.tuples(first, st.lists(rest, max_size=40)).map(
        lambda t: list(dict.fromkeys([t[0], *t[1]])))


KINDS = {
    # one character each: one byte per symbol, by bytes.translate
    "ascii": st.lists(_ASCII, min_size=1, max_size=40, unique=True),
    # one character each, decoded and ranked by code point
    "non-ascii": st.lists(_NON_ASCII, min_size=1, max_size=40, unique=True),
    # two UTF-8 bytes each, one label of two characters: the strided
    # comma route
    "two-byte": _comma_labels(st.text(_ASCII, min_size=2, max_size=2),
                              _TWO_BYTE),
    # widths of one to twenty bytes: the block route of the comma reader
    "mixed": _comma_labels(st.text(_ASCII, min_size=2, max_size=5),
                           _ANY_WIDTH),
}


@st.composite
def written_sequences(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    labels = draw(KINDS[kind])
    # the ASCII route samples _BLOCK >> 4 bytes at a time
    block = draw(st.sampled_from((16, 17, 64) if kind == "ascii"
                                 else (1, 3, 16, 17, 64)))
    codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=1,
                          max_size=4 * block + 3))
    return kind, labels, block, codes


def _refuse_block_route(*args):
    raise AssertionError("a line of two-byte labels took the block route")


@settings(max_examples=150, deadline=None)
@given(case=written_sequences())
def test_read_sequence_reads_back_what_write_sequence_writes(
        tmp_path_factory, case):
    kind, labels, block, codes = case
    path = tmp_path_factory.mktemp("seq") / "seq.txt"
    drawn = []

    def draw():
        drawn.append(True)
        return np.array(codes, dtype=np.min_scalar_type(len(labels) - 1))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequence, "_BLOCK", block)
        if any(x.startswith("\ufeff") for x in labels):
            with pytest.raises(ValueError, match="byte-order mark"):
                write_sequence(str(path), Alphabet(labels), len(codes), draw)
            assert drawn == [] and not path.exists()
            return
        if len(codes) == 1 and any(len(x) > 1 for x in labels):
            # one label and no comma would read back one symbol a
            # character
            with pytest.raises(ValueError, match="^--n 1 over multi-"):
                write_sequence(str(path), Alphabet(labels), 1, draw)
            assert drawn == [] and not path.exists()
            return
        write_sequence(str(path), Alphabet(labels), len(codes), draw)
        if kind == "two-byte":
            patch.setattr(sequence, "_comma_block_codes", _refuse_block_route)
        got, alphabet = read_sequence(str(path))
    written = [labels[c] for c in codes]
    used = sorted(set(written))
    assert alphabet.symbols == tuple(used)
    assert got.dtype == np.min_scalar_type(len(used) - 1)
    assert got.tolist() == [used.index(x) for x in written]


@pytest.mark.parametrize("labels", [("", "ab"), ("\ufeff", "a"),
                                    ("a", "\ufeffb")])
def test_write_sequence_refuses_labels_before_drawing(tmp_path, labels):
    # an empty label reads back as an empty symbol, and a byte-order
    # mark at the start of the line is skipped
    def draw():
        raise AssertionError("drew the codes of a refused alphabet")

    path = tmp_path / "seq.txt"
    with pytest.raises(ValueError, match="cannot be written"):
        write_sequence(str(path), Alphabet(labels), 10, draw)
    assert not path.exists()


def test_write_sequence_refuses_an_unwritable_path_before_drawing(tmp_path):
    def draw():
        raise AssertionError("drew the codes for a path it cannot write")

    path = tmp_path / "missing" / "seq.txt"
    with pytest.raises(FileNotFoundError):
        write_sequence(str(path), Alphabet("ab"), 10, draw)
    assert not path.parent.exists()


def _full_disk_open(*args, **kwargs):
    """``open``, with a file whose writes fail as on a full disk."""
    f = open(*args, **kwargs)

    def write(text):
        raise OSError(errno.ENOSPC, "No space left on device")

    f.write = write
    return f


@pytest.mark.parametrize("fails", ["draw", "write"])
def test_write_sequence_removes_its_file_when_the_draw_or_a_write_raises(
        tmp_path, monkeypatch, fails):
    path = tmp_path / "seq.txt"
    path.write_text("an older file\n")

    def draw():
        if fails == "draw":
            raise KeyboardInterrupt
        return np.array([0, 1, 0], dtype=np.uint8)

    if fails == "write":
        monkeypatch.setattr(sequence, "open", _full_disk_open, raising=False)
    with pytest.raises(KeyboardInterrupt if fails == "draw" else OSError):
        write_sequence(str(path), Alphabet("ab"), 3, draw)
    assert list(tmp_path.iterdir()) == []


def test_sequence_file_is_utf_8_in_an_ascii_locale(tmp_path):
    # the C locale, with neither its coercion to UTF-8 nor UTF-8 mode,
    # makes open()'s default encoding ASCII
    path = tmp_path / "seq.txt"
    script = ("import sys\n"
              "import numpy as np\n"
              "from persistinfo.sequence import Alphabet, write_sequence\n"
              "write_sequence(sys.argv[1], Alphabet(['\\u00e9', 'a']), 3,\n"
              "               lambda: np.array([0, 1, 0], dtype=np.uint8))\n")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    src = str(Path(persistinfo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script,
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == "\u00e9a\u00e9\n".encode()

"""Every golden output, in one table.

``GOLDENS`` maps the name of each output file to the command line that
writes it on stdout, exits 0 and writes nothing on stderr.  The name
is that of its golden: a file under ``tests/data/``, compared byte for
byte, or a file that a line of one of the ``tests/data/*.sha256`` pins
names, compared by its sha256.  An argument that names another
entry's output, or ``labels300.txt``, reads that file, made once per
session; an input under ``tests/data/`` is named by its path.  To add
a golden, add one entry.

Tier-1 runs this module with the rest of ``tests/``, which CI runs
from outside the checkout, against the installed package.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from persistinfo.cli import main

DATA = Path(__file__).parent / "data"

# the model documents that more than one test names
TERNARY_SPEC = json.dumps({
    "kind": "markov", "alphabet": ["a", "b", "c"],
    "rows": {a + b: ["1/2", "1/3", "1/6"] if a + b == "aa"
             else ["1/4", "1/4", "1/2"] for a in "abc" for b in "abc"}})
ISING_SPEC = json.dumps({"kind": "ising", "J": 1, "h": 0.3, "beta": 0.7})
#: table1's markov-r2 row
MARKOV_R2 = json.dumps({"kind": "markov", "rows": {
    "00": ["4/5", "1/5"], "01": ["3/10", "7/10"], "10": ["3/5", "2/5"],
    "11": ["1/4", "3/4"]}})
#: a -> b -> c -> a, and c -> c once in a thousand steps: the sampler's
#: composed maps do not coalesce
NEAR_CYCLE_SPEC = json.dumps({
    "kind": "markov", "alphabet": ["a", "b", "c"],
    "rows": {"a": [0, 1, 0], "b": [0, 0, 1], "c": [0.999, 0, 0.001]}})
CYCLE_00111 = '{"kind":"periodic","cycle":"00111"}'

#: 10^4 labels of two to four bytes, written by this module
LABELS300 = "labels300.txt"

TM_4097 = str(DATA / "sample_tm_4097_101.txt")
GREEK = str(DATA / "sample_ternary_4097_101_greek.txt")
SAMPLED = {"ternary": TERNARY_SPEC, "goldenmean": "goldenmean",
           "ising": ISING_SPEC, "tm": "tm"}
SEED_101 = ("ternary", "goldenmean", "ising")

GOLDENS = {
    # the paper's table and the closed forms behind it
    "table1.json": ("table1", "--format", "json"),
    "table1.txt": ("table1",),
    "pmi_goldenmean.json": ("pmi", "--model", "goldenmean", "--format",
                            "json"),
    "entropy_goldenmean_L12.txt": ("entropy", "--model", "goldenmean",
                                   "--Lmax", "12"),
    # exact strings over log2 of 3, 5, 7, 13 and 19: unit and negative
    # coefficients, and a zero rational part at L = 4
    "entropy_markov_r2_L13.csv": ("entropy", "--model", MARKOV_R2, "--Lmax",
                                  "13", "--format", "csv"),
    # exact and rough cells of one chain; it records the rounding of
    # exact values near 0 (ROADMAP, golden outputs that record defects),
    # and the float file below the same cells as sums of nonnegative terms
    "pmi_ternary.json": ("pmi", "--model", TERNARY_SPEC, "--L-grid",
                         "2,4,6,8", "--g-grid", "8,16,32,64", "--format",
                         "json"),
    # float cells, L < R among them
    "pmi_ternary_float.json": ("pmi", "--model", TERNARY_SPEC, "--backend",
                               "float", "--L-grid", "1,2,4", "--g-grid",
                               "1,8,16", "--format", "json"),
    "ising_J1_h0.3.json": ("ising", "--J", "1", "--h", "0.3", "--Tmin",
                           "0.1", "--Tmax", "24", "--points", "25",
                           "--format", "json"),
    # cells of the window route: substitution fixed points and a cycle,
    # exact (tm, the cycle) and float (fib), written before that route
    "pmi_tm.json": ("pmi", "--model", "tm", "--L-grid", "1,2,3,4,5",
                    "--g-grid", "2,4,8,16", "--format", "json"),
    "pmi_periodic_00111.json": ("pmi", "--model", CYCLE_00111, "--L-grid",
                                "5,6,7", "--g-grid",
                                "1000000,2000000,4000000", "--format",
                                "json"),
    "pmi_fib.json": ("pmi", "--model", "fib", "--L-grid", "1,2,3,5",
                     "--g-grid", "2,4,8,64", "--format", "json"),
    "entropy_fib_L24.csv": ("entropy", "--model", "fib", "--Lmax", "24",
                            "--format", "csv"),
    "entropy_periodic_00111_L8.csv": ("entropy", "--model", CYCLE_00111,
                                      "--Lmax", "8", "--format", "csv"),
    # the table forms of two grids above
    "pmi_ternary.txt": ("pmi", "--model", TERNARY_SPEC, "--L-grid", "2,4,6,8",
                        "--g-grid", "8,16,32,64"),
    "pmi_fib.txt": ("pmi", "--model", "fib", "--L-grid", "1,2,3,5",
                    "--g-grid", "2,4,8,64"),
    # long gaps and long curves of exact models; the 10007 chain's
    # weights are not smooth
    "pmi_tm_g1024_4088.txt": ("pmi", "--model", "tm", "--L-grid", "2,3,4",
                              "--g-grid", "1024,2048,4088"),
    "entropy_goldenmean_L26.txt": ("entropy", "--model", "goldenmean",
                                   "--Lmax", "26"),
    "entropy_goldenmean_L40.txt": ("entropy", "--model", "goldenmean",
                                   "--Lmax", "40"),
    "entropy_tm_L256.txt": ("entropy", "--model", "tm", "--Lmax", "256"),
    "entropy_markov_10007_L27.txt": (
        "entropy", "--model", '{"kind":"markov","rows":{"0":["1/10007",'
        '"10006/10007"],"1":["1/2","1/2"]}}', "--Lmax", "27"),
    # factor tables; fib's read through the pair-window count, within
    # an ulp of the closed forms
    "substitution_fib_l2.json": ("substitution", "--rules", "fib", "--l",
                                 "2", "--format", "json"),
    "substitution_fib_l24.json": ("substitution", "--rules", "fib", "--l",
                                  "24", "--format", "json"),
    "substitution_tm_l32.json": ("substitution", "--rules", "tm", "--l",
                                 "32", "--format", "json"),
    "substitution_tm_l1024.json": ("substitution", "--rules", "tm", "--l",
                                   "1024", "--format", "json"),
    # composition matrix and Perron data of the shortcut
    "substitution_tm_l5_shortcut_p3.json": ("substitution", "--rules", "tm",
                                            "--l", "5", "--p", "3",
                                            "--format", "json"),
    "substitution_tm_l5_shortcut_p3.txt": ("substitution", "--rules", "tm",
                                           "--l", "5", "--p", "3"),
    "substitution_tm_l1_shortcut_p2.txt": ("substitution", "--rules", "tm",
                                           "--l", "1", "--p", "2"),
    # samples written by an earlier, per-symbol version of the writer
    # and the samplers
    **{f"sample_{name}_4097_101.txt": ("sample", "--model", spec, "--n",
                                       "4097", "--seed", "101")
       for name, spec in SAMPLED.items()},
    # samplers of a cycle and of the logistic map, and a chain's bisect
    # route (3 bins x 2 contexts > 5 symbols)
    "sample_periodic_00111_23_4.txt": ("sample", "--model", CYCLE_00111,
                                       "--n", "23", "--seed", "4"),
    "sample_logistic_3.7_64.txt": ("sample", "--model",
                                   '{"kind":"logistic","r":3.7}', "--n",
                                   "64"),
    "sample_goldenmean_5_3.txt": ("sample", "--model", "goldenmean", "--n",
                                  "5", "--seed", "3"),
    # the benchmark's four sampled models at seed 1, written by the
    # one-uniform-per-step sampler before it read k steps per lookup
    **{f"sample_{name}_1000000_1.txt": ("sample", "--model", spec, "--n",
                                        "1000000", "--seed", "1")
       for name, spec in SAMPLED.items()},
    # a chain whose maps do not coalesce, written before the walk
    # stopped composing at constant maps
    "sample_nearcycle_1000000_101.txt": ("sample", "--model",
                                         NEAR_CYCLE_SPEC, "--n", "1000000",
                                         "--seed", "101"),
    # the files and estimates at seed 101, written before the window
    # codes were grown in the codes' own type
    **{f"sample_{name}_1000000_101.txt": ("sample", "--model", SAMPLED[name],
                                          "--n", "1000000", "--seed", "101")
       for name in SEED_101},
    **{f"entropy_seq_{name}_1000000_101.json": (
        "entropy", "--seq", f"sample_{name}_1000000_101.txt", "--Lmax",
        "12" if name == "ternary" else "16", "--format", "json")
       for name in SEED_101},
    **{f"pmi_seq_{name}_1000000_101.json": (
        "pmi", "--seq", f"sample_{name}_1000000_101.txt", "--L-grid",
        "1,2,3,4,5,6", "--g-grid", "4,8,16,32", "--format", "json")
       for name in SEED_101},
    # lengths past the dense top (3^13 words outnumber the windows) and
    # cells of 3^14 pair codes or more: counted by sorting, written
    # before the sparse counts were read off sorted runs
    "entropy_seq_ternary_1000000_101_L16.json": (
        "entropy", "--seq", "sample_ternary_1000000_101.txt", "--Lmax", "16",
        "--format", "json"),
    "pmi_seq_ternary_1000000_101_sparse.json": (
        "pmi", "--seq", "sample_ternary_1000000_101.txt", "--L-grid",
        "1,3,7,9,10", "--g-grid", "0,1,5,33", "--format", "json"),
    # binary codes pass 63 bits at L = 63, and pair codes at L = 32
    "entropy_seq_tm_L70.json": ("entropy", "--seq", TM_4097, "--Lmax", "70",
                                "--format", "json"),
    "pmi_seq_tm_L31_33.json": ("pmi", "--seq", TM_4097, "--L-grid",
                               "31,32,33", "--g-grid", "0,4,8", "--format",
                               "json"),
    # samples of 10^5 and 10^6 symbols and their tables, with binary
    # window codes past 63 bits (tm, L = 66) and pair codes (L = 32)
    "sample_ising_100000_101.txt": ("sample", "--model", ISING_SPEC, "--n",
                                    "100000", "--seed", "101"),
    "entropy_seq_ising_100000_101_L6.txt": (
        "entropy", "--seq", "sample_ising_100000_101.txt", "--Lmax", "6"),
    "pmi_seq_ising_100000_101.txt": (
        "pmi", "--seq", "sample_ising_100000_101.txt", "--L-grid", "1,2,3",
        "--g-grid", "0,4,8"),
    "sample_tm_100000.txt": ("sample", "--model", "tm", "--n", "100000"),
    **{f"entropy_seq_tm_100000_L{L}.txt": (
        "entropy", "--seq", "sample_tm_100000.txt", "--Lmax", str(L))
       for L in (6, 66)},
    "pmi_seq_tm_100000.txt": ("pmi", "--seq", "sample_tm_100000.txt",
                              "--L-grid", "1,2,3", "--g-grid", "0,4,8"),
    "pmi_seq_tm_100000_L1_2.csv": ("pmi", "--seq", "sample_tm_100000.txt",
                                   "--L-grid", "1,2", "--g-grid", "0,4",
                                   "--format", "csv"),
    "pmi_seq_tm_100000_L32_34.txt": ("pmi", "--seq", "sample_tm_100000.txt",
                                     "--L-grid", "32,33,34", "--g-grid",
                                     "0,4,8"),
    "sample_fib_1000000.txt": ("sample", "--model", "fib", "--n", "1000000"),
    "entropy_seq_fib_1000000_L12.txt": (
        "entropy", "--seq", "sample_fib_1000000.txt", "--Lmax", "12"),
    # 300 labels, coded past one byte
    "entropy_seq_labels300_L3.json": ("entropy", "--seq", LABELS300,
                                      "--Lmax", "3", "--format", "json"),
    "pmi_seq_labels300.json": ("pmi", "--seq", LABELS300, "--L-grid",
                               "1,2,3", "--g-grid", "0,1,2", "--format",
                               "json"),
    # symbols that are not ASCII: the line is decoded and coded by
    # code point; the L = 3 row is refused, so its tail is null
    "entropy_seq_greek_L6.json": ("entropy", "--seq", GREEK, "--Lmax", "6",
                                  "--format", "json"),
    "pmi_seq_greek.json": ("pmi", "--seq", GREEK, "--L-grid", "1,2,3",
                           "--g-grid", "0,4,8", "--format", "json"),
}

#: (pin file, sha256) of each output that a pin line names
PINS = {name: (pin.name, digest) for pin in sorted(DATA.glob("*.sha256"))
        for digest, name in map(str.split, pin.read_text().splitlines())}


@pytest.fixture(scope="session")
def output(tmp_path_factory):
    """The path of an entry's output, or of ``labels300.txt``, written
    on first use into one work directory for the session."""
    work = tmp_path_factory.mktemp("goldens")
    made = {}

    def make(name):
        if name in made:
            return made[name]
        path = work / name
        if name == LABELS300:
            path.write_text(",".join(f"s{i * 7 % 300}"
                                     for i in range(10 ** 4)) + "\n")
        else:
            argv = [str(make(a)) if a in GOLDENS or a == LABELS300 else a
                    for a in GOLDENS[name]]
            with (open(path, "w", encoding="utf-8") as f, redirect_stdout(f),
                  redirect_stderr(io.StringIO()) as err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), name
        made[name] = path
        return path

    return make


@pytest.mark.parametrize("name", GOLDENS)
def test_output_matches_its_golden(output, name):
    got = output(name).read_bytes()
    if name in PINS:
        pin, digest = PINS[name]
        assert hashlib.sha256(got).hexdigest() == digest, pin
    else:
        assert got == (DATA / name).read_bytes()


def test_every_golden_is_in_the_table():
    # each file under tests/data is a golden, an input or a pin file,
    # each pin line names one output, and no output has two goldens
    lines = [line for pin in DATA.glob("*.sha256")
             for line in pin.read_text().splitlines()]
    assert len(lines) == len(PINS) and set(PINS) <= set(GOLDENS)
    assert not set(PINS) & {p.name for p in DATA.iterdir()}
    inputs = {a for argv in GOLDENS.values() for a in argv}
    named = set(GOLDENS) - set(PINS) | {Path(a).name for a in inputs
                                        if Path(a).parent == DATA}
    assert {p.name for p in DATA.iterdir() if p.suffix != ".sha256"} == named

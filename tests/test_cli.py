"""End-to-end tests of the command-line front end.

Each test drives main(argv) and checks exit code plus captured output;
golden strings were fixed from the hand-derived model values before
the command layer was written.
"""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import persistinfo
from persistinfo import (
    cli,
    emachine,
    measures,
    processes,
    sequence,
    substitution,
)
from persistinfo.cli import ISING_PROBE_TOL, main
from persistinfo.infocore import ExactBits
from persistinfo.sequence import Alphabet
from persistinfo.processes import IidProcess, MarkovProcess
from persistinfo.substitution import fibonacci, thue_morse

from oracles import full_tree_main, rank_table_char_codes
from test_goldens import CYCLE_00111, DATA, ISING_SPEC, TERNARY_SPEC

LOG2_3 = math.log2(3)


def numbered(name, cases):
    """Each case ``(*values, message, n)`` as a param with the fixed id
    ``{name}{n}-{message}``, the id pytest gave the case at place n of
    the unnumbered list: a case put anywhere renames no other."""
    return [pytest.param(*case, id=f"{name}{n}-{case[-1]}")
            for *case, n in cases]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ── entropy ───────────────────────────────────────────────────────────────────


def test_entropy_coin_csv(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "coin",
                       "--Lmax", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,H_exact,H_bits,dH_exact,dH_bits"
    assert lines[1] == "1,1,1,1,1"
    assert lines[5].startswith("5,5,5,1,1")


def test_entropy_tm_exact_staircase(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "tm", "--Lmax", "5",
                       "--backend", "exact", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    dh = [float(r[4]) for r in rows]
    want = [1.0, LOG2_3 - 2 / 3, 2 / 3, 2 / 3, 1 / 3]
    assert dh == pytest.approx(want, abs=1e-12)


def test_entropy_table_shows_exact_and_summary(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "goldenmean",
                       "--Lmax", "4")
    assert code == 0
    assert "h_hat" in out and "E_hat" in out
    assert "2/3" in out  # exact increments rendered as rationals


def test_entropy_table_separates_overflowing_cells(capsys):
    model = ('{"kind":"markov","rows":{"0":["1/10007","10006/10007"],'
             '"1":["1/2","1/2"]}}')
    code, out, _ = run(capsys, "entropy", "--model", model, "--Lmax", "3")
    assert code == 0
    # the exact H(1) outgrows its column; its float follows after a space
    assert "*log2(10007) 0.918318040611  " in out.splitlines()[1]


def test_entropy_sequence_file(tmp_path, capsys):
    p = tmp_path / "seq.txt"
    p.write_text("01" * 400 + "\n")
    code, out, _ = run(capsys, "entropy", "--seq", str(p),
                       "--Lmax", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    # window counts at different L differ by one, so the plug-in rate
    # is O(1/n) rather than exactly zero
    assert blob["h_hat_bits"] == pytest.approx(0.0, abs=1e-5)
    assert blob["E_hat_bits"] == pytest.approx(1.0, abs=1e-4)
    assert blob["exact"] is False


def test_entropy_sequence_file_comma_alphabet(tmp_path, capsys):
    p = tmp_path / "seq.txt"
    p.write_text(",".join(["-1", "+1"] * 200) + "\n")
    code, out, _ = run(capsys, "entropy", "--seq", str(p),
                       "--Lmax", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["h_hat_bits"] == pytest.approx(0.0, abs=1e-5)
    assert blob["E_hat_bits"] == pytest.approx(1.0, abs=1e-4)


def test_comma_sequence_file_labels_and_codes(tmp_path):
    from persistinfo.sequence import read_sequence
    # 8 or more bytes do not fit one 63-bit code: sorted as byte rows
    labels = ["héllo", "-1", "↑", "+1", "-1", "↑", "héllo", "-1",
              "state_b_9", "state_a_9", "état_long", "state_b_9"]
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.tolist() == list(src.alphabet.encode(labels))


@pytest.mark.parametrize("text, position", [
    ("a,b,,a,b", 2), ("a,b,a,", 3), (",a,b", 0)])
def test_comma_sequence_file_rejects_empty_symbol(tmp_path, capsys, text,
                                                  position):
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    code, out, err = run(capsys, "entropy", "--seq", str(p), "--Lmax", "2")
    assert code == 1
    assert out == ""
    assert f"empty symbol at position {position} " in err


def test_entropy_model_file_markov(tmp_path, capsys):
    doc = {"kind": "markov", "order": 1,
           "rows": {"0": ["1/2", "1/2"], "1": ["1", 0]}}
    p = tmp_path / "gm.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "entropy", "--model", str(p),
                       "--Lmax", "6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is True
    assert blob["h_hat_bits"] == pytest.approx(2 / 3, abs=1e-12)


def test_entropy_inline_periodic_model(capsys):
    code, out, _ = run(capsys, "entropy", "--model",
                       '{"kind": "periodic", "cycle": "01"}',
                       "--Lmax", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["H_bits"] == [1.0, 1.0, 1.0]
    assert blob["E_hat_bits"] == 1.0


@pytest.mark.parametrize("cycle, text", [(["a", 1], "a1"),
                                         ([0, 1, 1], "011")])
def test_periodic_cycle_entries_are_read_as_labels(capsys, cycle, text):
    # each entry is a label, read by str as an iid alphabet's entries are
    got, want = (run(capsys, "entropy", "--model",
                     json.dumps({"kind": "periodic", "cycle": c}),
                     "--Lmax", "3") for c in (cycle, text))
    assert got[0] == 0
    assert got == want


def test_entropy_float_backend(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "goldenmean",
                       "--Lmax", "5", "--backend", "float",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is False
    assert blob["h_hat_bits"] == pytest.approx(2 / 3, abs=1e-9)


@pytest.mark.parametrize("doc, message", numbered("doc", [
    ({"kind": "markov"}, "markov model needs a 'rows' field", 0),
    ({"kind": "periodic"}, "periodic model needs a 'cycle' field", 1),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}},
     "substitution model needs a 'start' field", 2),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": "2"},
     "label '2' is not in the alphabet ['0', '1']", 3),
    ({"kind": "markov", "alphabet": "ab",
      "rows": {"0": ["1/2", "1/2"], "b": ["1/2", "1/2"]}},
     "label '0' is not in the alphabet ['a', 'b']", 4),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": ""},
     "start '' is not one letter", 5),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": "10"},
     "start '10' is not one letter", 6),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": 0},
     "start 0 is not one letter", 7),
    ({"kind": "periodic", "cycle": 5},
     "periodic model field 'cycle' must be a string or an array, not a"
     " number", 8),
    ({"kind": "substitution", "rules": {"0": 1, "1": "10"}, "start": "0"},
     "substitution model field 'rules' entry '0' must be a string or an"
     " array, not a number", 9),
    ({"kind": "iid", "alphabet": 5, "probs": ["1/2", "1/2"]},
     "iid model field 'alphabet' must be a string or an array, not a"
     " number", 10),
    ({"kind": "markov", "rows": [1]},
     "markov model field 'rows' must be an object, not an array", 11),
    ({"kind": "markov", "rows": {"0": [0.5, 0.5], "1": 0.5}},
     "markov model field 'rows' entry '1' must be an array, not a number", 12),
    ([1, 2], "a model document is a JSON object, not an array", 13),
    ({"kind": "ising", "J": math.nan, "h": 0, "beta": 1},
     "ising model field 'J' must be finite, not nan", 14),
    ({"kind": "ising", "J": 1, "h": math.inf, "beta": 1},
     "ising model field 'h' must be finite, not inf", 15),
    ({"kind": "markov", "rows": {"0": [math.nan, 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be finite, not nan", 16),
    ({"kind": "logistic", "r": 3.5, "burnin": 1.5},
     "logistic model field 'burnin' must be a whole number >= 0, not 1.5", 17),
    ({"kind": "markov", "rows": {"0": ["nan", 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number, not 'nan'", 18),
    ({"kind": "markov", "rows": {"0": [True, 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number or a string,"
     " not a boolean", 19),
    ({"kind": "markov", "rows": {"0": [[1], 0], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number or a string,"
     " not an array", 20),
    ({"kind": "iid", "probs": ["1/2", "x"]},
     "iid model field 'probs' must be a number, not 'x'", 21),
    ({"kind": "iid", "probs": [None, 1]},
     "iid model field 'probs' must be a number or a string, not null", 22),
    ({"kind": "iid", "probs": ["1/0", "1"]},
     "iid model field 'probs' must be a number, not '1/0'", 23),
    ({"kind": "ising", "J": "abc", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not 'abc'", 24),
    ({"kind": "ising", "J": "nan", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not 'nan'", 25),
    ({"kind": "ising", "J": "1e400", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not '1e400'", 26),
    ({"kind": "logistic", "r": 3.5, "burnin": "x"},
     "logistic model field 'burnin' must be a number, not 'x'", 27),
    ({"kind": "logistic", "r": 3.5},
     "the logistic map has no exact law; write a sample with"
     " 'persistinfo sample' and read it with --seq", 28),
    # an empty required field, named rather than read as an empty alphabet
    ({"kind": "periodic", "cycle": ""},
     "periodic model field 'cycle' must not be empty", 29),
    ({"kind": "iid", "probs": []},
     "iid model field 'probs' must not be empty", 30),
    ({"kind": "iid", "alphabet": ["a"], "probs": []},
     "iid model field 'probs' must not be empty", 31),
    ({"kind": "substitution", "rules": {}, "start": "0"},
     "substitution model field 'rules' must not be empty", 32),
    ({"kind": "markov", "rows": {}},
     "markov model field 'rows' must not be empty", 33),
    # chain contexts named by their labels
    ({"kind": "markov", "rows": {"0": ["1/2", "1/2"], "1": ["1/2", "1/3"]}},
     "row for context '1' sums to 5/6, not 1", 34),
    ({"kind": "markov", "alphabet": "abc",
      "rows": {a + b: ["1/3"] * 3 for a in "abc" for b in "abc"
               if a + b != "aa"}},
     "kernel is missing context 'aa'", 35),
    ({"kind": "markov", "alphabet": "ab", "rows": {"a": [1], "b": [1]}},
     "row for context 'a' has wrong length", 36),
    ({"kind": "markov", "rows": {"0": ["3/2", "-1/2"], "1": ["1/2", "1/2"]}},
     "row for context '0' has negative entries", 37),
]))
def test_model_document_errors_name_the_cause(capsys, tmp_path, doc, message):
    # inline, and from a file
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for spec in (json.dumps(doc), str(path)):
        code, out, err = run(capsys, "entropy", "--model", spec,
                             "--Lmax", "3")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, fractions, decimals", [
    (("entropy", "--backend", "float", "--Lmax", "4"),
     {"kind": "ising", "J": "1", "h": "3/10", "beta": "7/10"},
     {"kind": "ising", "J": 1, "h": 0.3, "beta": 0.7}),
    (("pmi", "--backend", "float", "--L-grid", "1,2,3", "--g-grid", "0,1,2"),
     {"kind": "ising", "J": "-1/2", "h": "0", "beta": "3/2"},
     {"kind": "ising", "J": -0.5, "h": 0, "beta": 1.5}),
    (("sample", "--n", "64"),
     {"kind": "logistic", "r": "7/2", "x0": "2/5", "burnin": "100"},
     {"kind": "logistic", "r": 3.5, "x0": 0.4, "burnin": 100}),
])
def test_ising_and_logistic_fields_read_fraction_strings(capsys, argv,
                                                          fractions,
                                                          decimals):
    outs = [run(capsys, *argv, "--model", json.dumps(doc))
            for doc in (fractions, decimals)]
    assert outs[0][0] == 0 and outs[0][2] == ""
    assert outs[0] == outs[1]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_registry_names_build_the_built_in_models(backend):
    num = F if backend == "exact" else float
    half, one, zero = num(F(1, 2)), num(1), num(0)
    chains = {"coin": IidProcess.from_probs([half, half]),
              "goldenmean": MarkovProcess.from_rows(
                  {"0": (half, half), "1": (one, zero)})}
    for name, want in chains.items():
        got = cli._load_model(name, backend)
        assert type(got) is type(want)
        assert (got.alphabet, got.order) == (want.alphabet, want.order)
        assert got.kernel == want.kernel
        assert list(got.stationary) == list(want.stationary)
        assert {type(x) for row in got.kernel.values() for x in row} == {num}
    for name, want in (("tm", thue_morse()), ("fib", fibonacci())):
        assert cli._load_model(name, backend).substitution == want
        rules = argparse.Namespace(rules=name, start=None)
        assert cli._load_substitution(rules) == want


def test_burnin_reads_numeric_strings(capsys):
    outs = [run(capsys, "sample", "--model",
                json.dumps({"kind": "logistic", "r": 3.7, "burnin": b}),
                "--n", "40")
            for b in ("1e3", 1000, 1000.0)]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("backend", [(), ("--backend", "float")])
@pytest.mark.parametrize("command", [("entropy", "--Lmax", "3"), ("pmi",)])
def test_logistic_model_is_refused_on_both_backends(capsys, backend,
                                                    command):
    code, out, err = run(capsys, *command, "--model",
                         '{"kind": "logistic", "r": 3.9, "x0": 0.4}',
                         *backend)
    assert code == 1 and out == ""
    assert err == ("error: the logistic map has no exact law; write a"
                   " sample with 'persistinfo sample' and read it with"
                   " --seq\n")


@pytest.mark.parametrize("backend", [(), ("--backend", "float")])
def test_chain_with_two_closed_classes_is_refused(capsys, backend):
    code, out, err = run(capsys, "entropy", "--model",
                         '{"kind":"markov","rows":{"0":[1,0],"1":[0,1]}}',
                         "--Lmax", "3", *backend)
    assert code == 1 and out == ""
    assert err == "error: stationary distribution is not unique\n"


def test_ising_without_coupling_has_no_statistical_complexity(capsys):
    code, out, err = run(capsys, "ising", "--J", "0", "--h", "0.3", "--Tmin",
                         "1", "--Tmax", "2", "--points", "3")
    assert (code, err) == (0, "")
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["0"] * 3


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in cli._COMMANDS),
    ["entropy", "--Lmax", "x"],
    ["sample"],
    ["substitution", "--l", "3"],
    ["entropy", "--model", "coin", "--format", "xml"],
    ["table1", "--format", "csv"],
    ["pmi", "--model", "coin", "--backend", "rational"],
    ["entropy", "--bogus"],
    ["pmi", "--Lmax", "3"],
    ["sample", "--model", "coin", "--n", "5", "extra"],
    ["entropy", "--mod", "coin", "--Lmax", "2"],
    ["-h"],
    [],
    ["frobnicate"],
    ["--", "entropy"],
    ["--bogus", "sample"],
    ["--bogus", "entropy", "-h"],
    ["--bogus", "entropy", "--model", "coin", "--Lmax", "2"],
], ids=lambda argv: " ".join(argv) or "no argument")
def test_dispatch_matches_the_full_parser_tree(capsys, argv):
    def outcome(entry):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
        cap = capsys.readouterr()
        return code, cap.out, cap.err
    got = outcome(main)
    assert got == outcome(full_tree_main)
    assert got[0] in (0, 2)


@pytest.mark.parametrize("argv", [
    ("table1",),
    ("substitution", "--rules", "tm", "--l", "3"),
    ("ising", "--points", "3"),
])
def test_backend_is_rejected_where_it_would_be_ignored(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--backend", "float"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("entropy", "--Lmax", "3"),
    ("pmi", "--L-grid", "1,2,3", "--g-grid", "0,1,2"),
])
def test_backend_is_rejected_with_a_sequence(tmp_path, capsys, argv):
    p = tmp_path / "seq.txt"
    p.write_text("0110100110010110" * 8 + "\n")
    assert run(capsys, *argv, "--seq", str(p))[0] == 0
    for backend in ("exact", "float"):
        code, out, err = run(capsys, *argv, "--seq", str(p),
                             "--backend", backend)
        assert code == 1 and out == ""
        assert "--backend" in err


@pytest.mark.parametrize("model", ["tm", "fib",
                                   '{"kind":"periodic","cycle":"011"}'])
@pytest.mark.parametrize("argv", [
    ("entropy", "--Lmax", "3"),
    ("pmi", "--L-grid", "1,2,3", "--g-grid", "1,2,4"),
])
def test_float_backend_is_rejected_with_an_exact_only_model(capsys, argv,
                                                            model):
    assert run(capsys, *argv, "--model", model, "--backend", "exact")[0] == 0
    code, out, err = run(capsys, *argv, "--model", model,
                         "--backend", "float")
    assert code == 1 and out == ""
    assert "--backend" in err


@pytest.mark.parametrize("argv", [
    ("table1", "--format", "csv"),
    ("ising", "--points", "3", "--format", "table"),
])
def test_format_is_rejected_where_it_would_be_ignored(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", numbered("argv", [
    (("entropy", "--Lmax", "2"), "give exactly one of --model or --seq", 0),
    (("entropy", "--model", "tm", "--seq", "x", "--Lmax", "2"),
     "give exactly one of --model or --seq", 1),
    (("substitution", "--rules", '{"0":"01","1":"10"}', "--l", "2"),
     "inline rules need --start", 2),
    (("substitution", "--rules", "fibo", "--l", "2"),
     "unknown rules 'fibo'; use tm, fib, or an inline JSON object", 3),
    (("ising", "--points", "2"), "need at least 3 temperature points", 4),
    (("sample", "--model", "tm", "--n", "0"), "need n >= 1", 5),
    (("pmi", "--model", "tm", "--L-grid", "1,,2", "--g-grid", "1,2,3"),
     "--L-grid entry '' is not an integer: 1,,2", 6),
    (("pmi", "--model", "tm", "--L-grid", "1,2,3", "--g-grid", "a"),
     "--g-grid entry 'a' is not an integer: a", 7),
    (("pmi", "--model", "tm", "--L-grid", "1.5", "--g-grid", "1,2,3"),
     "--L-grid entry '1.5' is not an integer: 1.5", 8),
    # a row or a law whose length does not fit the alphabet
    (("entropy", "--model", '{"kind":"markov","rows":{"0":[]}}',
      "--Lmax", "3"),
     "markov model field 'rows' entry '0' has length 0, but an alphabet "
     "has size at least 1", 9),
    (("entropy", "--model",
      '{"kind":"iid","alphabet":["a","b"],"probs":[1]}', "--Lmax", "3"),
     "iid model field 'probs' has length 1, but the alphabet has size 2", 10),
    # a model that its own fields contradict names the field at fault
    (("entropy", "--model",
      '{"kind":"markov","alphabet":["a","a"],"rows":{"a":[1,0]}}',
      "--Lmax", "2"), "alphabet labels must be distinct: 'a' repeats", 11),
    (("entropy", "--model",
      '{"kind":"iid","alphabet":["a","b","a"],"probs":[0.2,0.3,0.5]}',
      "--Lmax", "2"), "alphabet labels must be distinct: 'a' repeats", 12),
    (("entropy", "--model",
      '{"kind":"markov","rows":{"0":[0.5,0.5],"10":[0.5,0.5]}}',
      "--Lmax", "2"),
     "context strings must share one length: '0' has length 1, '10' has"
     " length 2", 13),
    (("entropy", "--model",
      '{"kind":"markov","rows":{"0":[0.5,0.5],"1":[0.2,0.3,0.5]}}',
      "--Lmax", "2"),
     "rows must share one length: row '0' has 2 entries, row '1' has 3"
     " entries", 14),
    (("entropy", "--model",
      '{"kind":"substitution","rules":{"0":"01","1":""},"start":"0"}',
      "--Lmax", "2"), "empty image word for letter '1'", 15),
    # a negative seed, which NumPy would refuse and tm would ignore
    (("sample", "--model", "tm", "--n", "5", "--seed", "-1"),
     "--seed must be >= 0, not -1", 16),
    (("sample", "--model", "goldenmean", "--n", "5", "--seed", "-1"),
     "--seed must be >= 0, not -1", 17),
    # a grid refusal names its flag
    (("pmi", "--model", "tm", "--L-grid", "0,1,2"),
     "--L-grid entries must be >= 1: 0,1,2", 18),
    (("pmi", "--model", "tm", "--L-grid", "1,2,3", "--g-grid", "3,2,1"),
     "--g-grid must be strictly ascending: 3,2,1", 19),
    # a tolerance that would change the verdict without a word, refused
    # before the grid is counted
    (("pmi", "--model", CYCLE_00111, "--L-grid", "5,6,7", "--g-grid",
      "10,20,40", "--eps-g", "nan"),
     "--eps-g must be a finite number >= 0, not nan", 20),
    (("pmi", "--model", CYCLE_00111, "--L-grid", "5,6,7", "--g-grid",
      "10,20,40", "--eps-L", "-1"),
     "--eps-L must be a finite number >= 0, not -1.0", 21),
    (("pmi", "--model", "tm", "--L-grid", "3,5,7,9", "--g-grid", "2,4,8",
      "--delta", "nan"), "--delta must be a finite number >= 0, not nan", 22),
    (("pmi", "--seq", "x", "--L-grid", "1,2,3", "--g-grid", "0,1,2",
      "--eps-g", "inf"), "--eps-g must be a finite number >= 0, not inf", 23),
    (("entropy", "--model", "coin", "--Lmax", "0"),
     "--Lmax must be >= 1, not 0", 24),
    # a sweep value that is not finite, refused before NumPy warns
    (("ising", "--Tmin", "nan"), "--Tmin must be finite, not nan", 25),
    (("ising", "--Tmax", "nan"), "--Tmax must be finite, not nan", 26),
    (("ising", "--J", "inf"), "--J must be finite, not inf", 27),
    (("ising", "--h", "nan"), "--h must be finite, not nan", 28),
    (("ising", "--Tmax", "inf"), "--Tmax must be finite, not inf", 29),
    (("ising", "--Tmin", "1e-320", "--Tmax", "1e-310"),
     "--Tmin 1e-320 is too small: 1/Tmin overflows", 30),
    # JSON that does not parse, named by where it was read
    (("entropy", "--model", "{bad", "--Lmax", "3"),
     "inline model document is not JSON: Expecting property name enclosed"
     " in double quotes: line 1 column 2 (char 1)", 31),
    (("substitution", "--rules", "{bad", "--start", "0"),
     "inline rules document is not JSON: Expecting property name enclosed"
     " in double quotes: line 1 column 2 (char 1)", 32),
    (("substitution", "--rules", "tm", "--l", "5", "--p", "3", "--format",
      "csv"), "--p needs --format table or json", 33),
    (("entropy", "--model", '{"kind":"ising","J":NaN,"h":0,"beta":1}',
      "--backend", "float", "--Lmax", "3"),
     "ising model field 'J' must be finite, not nan", 34),
    (("pmi", "--model", "coin", "--L-grid", "0,1,2", "--g-grid", "0,2,4"),
     "--L-grid entries must be >= 1: 0,1,2", 35),
    (("pmi", "--model", "coin", "--L-grid", "3,2,1", "--g-grid", "0,2,4"),
     "--L-grid must be strictly ascending: 3,2,1", 36),
    (("entropy", "--model", "no/such/file.json", "--Lmax", "3"),
     "model file not found: no/such/file.json", 37),
    (("entropy", "--model", '{"kind": "weather"}', "--Lmax", "3"),
     "unknown model kind 'weather'", 38),
    (("entropy", "--model", '{"kind": "ising", "J": 1, "h": 0, "beta": 0.5}',
      "--Lmax", "3", "--backend", "exact"),
     "the Ising chain has no rational structure; use --backend float", 39),
    (("substitution", "--rules", '{"0":"01","1":"10"}', "--start", "10",
      "--l", "2"), "start '10' is not one letter", 40),
    (("substitution", "--rules", '{"0":1,"1":"10"}', "--start", "0", "--l",
      "2"), "substitution model field 'rules' entry '0' must be a string or"
     " an array, not a number", 41),
    (("substitution", "--rules", "tm", "--l", "0"),
     "--l must be >= 1, not 0", 42),
    (("substitution", "--rules", "tm", "--l", "-3"),
     "--l must be >= 1, not -3", 43),
    (("substitution", "--rules", "tm", "--l", "5", "--p", "1"),
     "power 1 is too small: need every ζ^p image at least 4 letters long",
     44),
    (("ising", "--J", "1", "--h", "0", "--Tmin", "0", "--Tmax", "10",
      "--points", "5"), "need 0 < Tmin < Tmax", 45),
    # energies that overflow, refused by name before NumPy warns
    (("ising", "--h", "1e308", "--points", "3"),
     "--J 1.0, --h 1e+308 and --Tmin 0.1: the energy (|J| + |h|)/Tmin"
     " overflows", 46),
    (("ising", "--J", "1e300", "--Tmin", "1e-10", "--points", "3"),
     "--J 1e+300, --h 0.0 and --Tmin 1e-10: the energy (|J| + |h|)/Tmin"
     " overflows", 47),
    (("entropy", "--model", '{"kind":"ising","J":1,"h":1e308,"beta":2}',
      "--backend", "float", "--Lmax", "2"),
     "beta·(|J|+|h|) overflows: J=1.0, h=1e+308, beta=2.0", 48),
]))
def test_command_refusals_name_the_cause(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal prints no warning
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_model_file_that_is_not_json_names_the_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "iid", "probs": [1],}')
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(path.read_text())
    assert run(capsys, "entropy", "--model", str(path), "--Lmax", "3") == (
        1, "", f"error: model file {path} is not JSON: {exc.value}\n")


# ── pmi ───────────────────────────────────────────────────────────────────────


def test_pmi_period3_converges_to_log3(capsys):
    code, out, _ = run(capsys, "pmi", "--model",
                       '{"kind": "periodic", "cycle": "011"}',
                       "--L-grid", "3,4,5", "--g-grid", "3,6,9",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"]["kind"] == "converged"
    assert abs(blob["verdict"]["value"] - LOG2_3) <= 1e-9
    assert blob["verdict"]["uncertainty"] <= 1e-9


def test_pmi_goldenmean_converges_to_zero(capsys):
    code, out, _ = run(capsys, "pmi", "--model", "goldenmean",
                       "--L-grid", "1,2,3", "--g-grid", "16,24,32",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"]["kind"] == "converged"
    assert abs(blob["verdict"]["value"]) <= 1e-6


def test_pmi_tm_diverges(capsys):
    code, out, _ = run(capsys, "pmi", "--model", "tm",
                       "--L-grid", "3,5,7,9", "--g-grid", "2,4,8")
    assert code == 0
    assert "diverging" in out


def test_pmi_csv_grid(capsys):
    # CSV prints the grid alone, so it takes grids too small for a verdict
    for L_grid, g_grid, n_lines in (("1,2,3", "0,2,4", 10), ("1,2", "1,2", 5)):
        code, out, _ = run(capsys, "pmi", "--model",
                           '{"kind": "periodic", "cycle": "01"}',
                           "--L-grid", L_grid, "--g-grid", g_grid,
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,g,E_bits"
        assert len(lines) == n_lines


def gap_cells(capsys, model, *argv):
    code, out, err = run(capsys, "pmi", "--model", model, *argv,
                         "--format", "csv")
    assert (code, err) == (0, "")
    return [line.split(",")[2] for line in out.splitlines()[1:]]


@pytest.mark.parametrize("model, L_grid, g_grid", [
    (TERNARY_SPEC, "1,2,4,8", "1,8,16,32,64"),
    ('{"kind":"markov","rows":{"0":[0.3,0.7],"1":[0.6,0.4]}}', "1",
     "1000,100000,1000000"),
], ids=["ternary", "markov"])
def test_pmi_csv_float_cells_are_nonnegative(capsys, model, L_grid, g_grid):
    # each float cell is a sum of nonnegative terms
    cells = gap_cells(capsys, model, "--backend", "float", "--L-grid", L_grid,
                      "--g-grid", g_grid)
    assert len(cells) == len(L_grid.split(",")) * len(g_grid.split(","))
    assert all(float(v) >= 0 for v in cells)


@pytest.mark.parametrize("model, backend, g_grid", [
    ('{"kind":"iid","probs":[0.2,0.3,0.5]}', ("--backend", "float"),
     "0,4,1000"),
    ('{"kind":"iid","probs":["1/2","1/3","1/6"]}', (), "1000,100000,1000000"),
], ids=["float", "exact"])
def test_pmi_csv_iid_cells_are_zero(capsys, model, backend, g_grid):
    # no information crosses a gap of an i.i.d. law, on either backend
    assert gap_cells(capsys, model, *backend, "--L-grid", "1,2,3",
                     "--g-grid", g_grid) == ["0"] * 9


def test_pmi_csv_names_refused_cells_on_stderr(capsys):
    # the rows are the grid's own; the cells past the window cap are
    # named on standard error, one line each
    argv = ("pmi", "--model", "fib", "--L-grid", "2,3,4",
            "--g-grid", "1024,2048,4088")
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()] == [
        ["L", "g"], *([str(L), str(g)] for L in (2, 3, 4)
                      for g in (1024, 2048))]
    assert err.splitlines() == [
        f"note: ({L}, 4088) missing: window of length {2 * L + 4088} may "
        f"have up to 17711 factors, {letters} letters in all; cap is 2**26"
        for L, letters in ((2, 72473412), (3, 72508834), (4, 72544256))]


@pytest.mark.parametrize("flags", [
    ("--delta", "0.1"),
    ("--eps-g", "1e-3", "--eps-L", "1e-3"),
])
def test_pmi_csv_rejects_verdict_flags(capsys, flags):
    code, out, err = run(capsys, "pmi", "--model", "goldenmean",
                         "--L-grid", "1,2,3", "--g-grid", "1,2,4",
                         "--format", "csv", *flags)
    assert code == 1 and out == ""
    for flag in flags[::2]:
        assert flag in err


def test_pmi_table_separates_long_gaps(capsys):
    code, out, err = run(capsys, "pmi", "--model",
                         '{"kind":"periodic","cycle":"00111"}',
                         "--L-grid", "5,6,7",
                         "--g-grid", "1000000,2000000,4000000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "L    g    E_bits"
    # the gap outgrows its column; the value follows after a space
    assert "6    4000000 2.32192809489" in lines


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_pmi_refuses_a_small_grid_before_loading(capsys, monkeypatch, fmt):
    def no_source(cfg):
        raise AssertionError("loaded the source of a refused grid")

    monkeypatch.setattr(cli, "_source", no_source)
    code, out, err = run(capsys, "pmi", "--seq", "gm.txt", "--L-grid", "6,8",
                         "--g-grid", "8,16,32,64", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: need at least 3 distinct L and 3 distinct g values\n"


# ── table1 ────────────────────────────────────────────────────────────────────


def test_table1_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "table1")
    assert code1 == 0
    for label in ("period-3", "goldenmean", "iid-fair", "thue-morse",
                  "ising"):
        assert label in out1
    assert "diverging" in out1
    code2, out2, _ = run(capsys, "table1")
    assert code2 == 0
    assert out1 == out2


def test_table1_json_cells(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = {r["model"]: r for r in json.loads(out)["rows"]}
    assert len(rows) >= 9
    for row in rows.values():
        for cell in row["cells"].values():
            if isinstance(cell["diff"], float):
                assert cell["diff"] <= 1e-6
    tm = rows["thue-morse"]["cells"]
    for q in ("E", "C_P", "PMI"):
        assert tm[q]["computed"] == "diverging"
        assert tm[q]["diff"] == "ok"
    assert tm["e"]["computed"] == "?"
    # table rows required by the closed-form sweep
    for label in ("period-2", "period-5", "markov-r2", "iid-biased"):
        assert label in rows


def test_table1_reads_the_thue_morse_rate_off_the_model(capsys, monkeypatch):
    # h_P = 0 is read off the model's increments H(2^k + 2) - H(2^k + 1),
    # k = 2, 3, 4, each half the one before; one that stops halving
    # leaves the cell unknown, a violation
    whole = processes.SubstitutionProcess.block_entropies

    def skewed(self, Ls):
        return [H + ExactBits(F(1, 1000)) if L == 18 else H
                for L, H in zip(Ls, whole(self, Ls))]

    monkeypatch.setattr(processes.SubstitutionProcess, "block_entropies",
                        skewed)
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    tm = {r["model"]: r["cells"] for r in blob["rows"]}["thue-morse"]
    assert tm["h_P"] == {"closed": 0.0, "computed": "?", "diff": "MISMATCH"}
    assert blob["violations"] == 1
    code, out, _ = run(capsys, "table1")
    assert code == 1
    assert out.endswith("violations: 1\n")


# ── substitution ─────────────────────────────────────────────────────────────


def test_substitution_worked_example(capsys):
    code, out, _ = run(capsys, "substitution", "--rules", "tm",
                       "--l", "5", "--p", "3")
    assert code == 0
    assert out.count("1/12") >= 12
    assert "00110" in out
    # pair frequencies feeding the shortcut
    for v in ("1/6", "1/3"):
        assert v in out


def test_substitution_l2_csv(capsys):
    code, out, _ = run(capsys, "substitution", "--rules", "tm",
                       "--l", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "factor,freq_exact,freq_float"
    body = dict(line.split(",", 1) for line in lines[1:])
    assert body["00"].startswith("1/6,")
    assert body["01"].startswith("1/3,")
    assert body["10"].startswith("1/3,")
    assert body["11"].startswith("1/6,")


def test_substitution_fib_frequencies_sum_to_one(capsys):
    code, out, _ = run(capsys, "substitution", "--rules", "fib",
                       "--l", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 4  # Fibonacci complexity p(n) = n + 1
    # golden-ratio frequencies are irrational: float column only
    assert all(line.split(",")[1] == "" for line in lines)
    freqs = {line.split(",")[0]: float(line.split(",")[2])
             for line in lines}
    assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-9)
    # cross-check against plug-in counts on a long fixed-point prefix
    from persistinfo.substitution import fibonacci, fixed_point_prefix
    from persistinfo.infocore import empirical_block_distribution
    fib = fibonacci()
    prefix = fixed_point_prefix(fib, 1 << 16)
    emp = empirical_block_distribution(list(prefix), 3, fib.alphabet)
    for w, p in emp.probs.items():
        assert freqs[fib.alphabet.decode(w)] == pytest.approx(
            float(p), abs=2e-3)


@pytest.mark.parametrize("rules", ["tm", "fib"])
def test_substitution_start_needs_inline_rules(capsys, rules):
    code, out, err = run(capsys, "substitution", "--rules", rules,
                         "--start", "1", "--l", "2")
    assert (code, out) == (1, "")
    assert "--start" in err


@pytest.mark.parametrize("argv", [
    ("--l", "4097"),
    ("--l", "5", "--p", "40"),
])
def test_substitution_refuses_windows_past_the_cap(capsys, argv):
    code, out, err = run(capsys, "substitution", "--rules", "tm", *argv)
    assert code == 1
    assert out == ""
    assert "cap is 2**26" in err


# ── ising ─────────────────────────────────────────────────────────────────────


def test_ising_sweep_field_has_interior_maximum(capsys):
    # a nonzero field pins the ground state, so E -> 0 at both ends
    # and the curve rises to an interior maximum
    code, out, _ = run(capsys, "ising", "--J", "1", "--h", "0.3",
                       "--Tmin", "0.1", "--Tmax", "10", "--points", "25",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,h_P,E,C_P,PMI"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 25
    assert all(r[4] == "0" for r in rows)
    T = [float(r[0]) for r in rows]
    assert T == sorted(T)
    E = [float(r[2]) for r in rows]
    peak = E.index(max(E))
    assert 0 < peak < len(E) - 1  # interior maximum
    # 1e-12 absorbs float dust where E underflows toward zero
    assert all(x <= y + 1e-12 for x, y in zip(E[:peak], E[1:peak + 1]))
    assert all(x + 1e-12 >= y for x, y in zip(E[peak:], E[peak + 1:]))
    assert max(E) > 0.1
    assert abs(E[0]) <= 1e-3 and E[-1] <= 1e-2


def test_ising_sweep_zero_field_decreases_from_one_bit(capsys):
    # at h = 0 the two aligned ground states carry exactly one bit,
    # and E decays monotonically as temperature disorders the chain
    code, out, _ = run(capsys, "ising", "--J", "1", "--h", "0",
                       "--Tmin", "0.1", "--Tmax", "10", "--points", "25",
                       "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    E = [float(r[2]) for r in rows]
    assert E[0] > 0.95
    assert all(x >= y for x, y in zip(E, E[1:]))
    # zero field keeps the symbol marginal uniform
    assert all(abs(float(r[3]) - 1.0) <= 1e-12 for r in rows)
    # entropy rate increases with temperature
    h = [float(r[1]) for r in rows]
    assert all(x < y for x, y in zip(h, h[1:]))


def test_ising_sweep_reaches_low_temperature(capsys):
    # T = 0.02 is beta = 50, where an eigenvector-based kernel divides
    # by an underflowed entry
    code, out, err = run(capsys, "ising", "--Tmin", "0.02")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(math.isfinite(float(x)) for r in rows for x in r)


@pytest.mark.parametrize("args", [("--Tmin", "1e-3"),
                                  ("--Tmin", "0.004", "--Tmax", "1000",
                                   "--h", "0.3")])
def test_ising_sweep_down_to_a_thousandth(capsys, args):
    # h_P and E = H(1) - h_P stay finite and nonnegative where the
    # rate is far below 1e-40
    code, out, err = run(capsys, "ising", *args)
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(math.isfinite(float(x)) and float(x) >= 0
               for r in rows for x in r)


def test_ising_sweep_near_the_smallest_normal_temperature(capsys):
    # 1/T is finite, and the energy differences that overflow in Python
    # floats give exp(-inf) = 0 with no NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "ising", "--Tmin", "1e-308", "--Tmax", "1e-300",
                   "--points", "3") == (
            0, "T,h_P,E,C_P,PMI\n1e-308,0,1,1,0\n1e-304,0,1,1,0\n"
            "1e-300,0,1,1,0\n", "")


def test_ising_names_a_high_temperature_excess_entropy(capsys):
    # a strong coupling keeps E near 1 bit even at the T = 100 probe:
    # the rows are printed, and the run fails naming the probe
    code, out, err = run(capsys, "ising", "--J", "1000", "--Tmin", "1",
                         "--Tmax", "2", "--points", "3")
    assert code == 1
    assert len(out.splitlines()) == 4
    assert err == ("error: E(100) = 0.999999937554 exceeds 1e-3 at high"
                   " temperature\n")


def test_ising_probe_fails_just_above_ising_probe_tol(capsys):
    # at the T = 100 probe E is 1.8e-3 for J = 5, which fails, and
    # 6.5e-4 for J = 3, which passes
    assert 6.5e-4 < ISING_PROBE_TOL < 1.8e-3
    code, out, err = run(capsys, "ising", "--J", "5", "--points", "5")
    assert (code, len(out.splitlines())) == (1, 6)
    assert err == ("error: E(100) = 0.00180111709213 exceeds 1e-3 at high"
                   " temperature\n")
    code, out, err = run(capsys, "ising", "--J", "3", "--points", "5")
    assert (code, len(out.splitlines()), err) == (0, 6, "")


def test_ising_names_an_excess_entropy_that_is_not_unimodal(capsys,
                                                             monkeypatch):
    # no (J, h) tried gives E(T) two peaks, so the closed form is patched
    exact = cli.closed_forms

    def two_peaks(model):
        T = 1 / model.beta
        E = 2e-4 if T < 1.5 else 1e-4 if T < 2 else 3e-4 if T < 50 else 0.0
        return exact(model)._replace(excess_entropy=E)

    monkeypatch.setattr(cli, "closed_forms", two_peaks)
    code, out, err = run(capsys, "ising", "--Tmin", "1", "--Tmax", "3",
                         "--points", "3")
    assert code == 1
    assert [line.split(",")[2] for line in out.splitlines()] == [
        "E", "0.0002", "0.0001", "0.0003"]
    assert err == "error: E(T) is not unimodal\n"


# ── sample and plumbing ───────────────────────────────────────────────────────


def test_sample_logistic_alternates(capsys):
    code, out, _ = run(capsys, "sample", "--model",
                       '{"kind": "logistic", "r": 3.4, "x0": 0.3}',
                       "--n", "64")
    assert code == 0
    line = out.strip()
    assert len(line) == 64
    assert set(line) == {"0", "1"}
    assert "00" not in line and "11" not in line  # 2-cycle straddles 1/2


def test_sample_is_seed_deterministic(capsys):
    a = run(capsys, "sample", "--model", "coin", "--n", "50",
            "--seed", "7")
    b = run(capsys, "sample", "--model", "coin", "--n", "50",
            "--seed", "7")
    c = run(capsys, "sample", "--model", "coin", "--n", "50",
            "--seed", "8")
    assert a[0] == b[0] == c[0] == 0
    assert a[1] == b[1]
    assert a[1] != c[1]


def test_sample_roundtrip_through_entropy(tmp_path, capsys):
    code, out, _ = run(capsys, "sample", "--model",
                       '{"kind": "periodic", "cycle": "011"}',
                       "--n", "300", "--seed", "3")
    assert code == 0
    p = tmp_path / "seq.txt"
    p.write_text(out)
    code, out, _ = run(capsys, "entropy", "--seq", str(p),
                       "--Lmax", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["H_bits"][2] == pytest.approx(LOG2_3, abs=1e-2)


@pytest.mark.parametrize("name", ["ternary", "goldenmean", "ising", "tm"])
def test_sample_file_reads_back_in_written_order(name):
    # the committed samples, whose bytes test_goldens compares
    from persistinfo.sequence import read_sequence
    path = DATA / f"sample_{name}_4097_101.txt"
    src = measures.EmpiricalSource(*read_sequence(str(path)))
    text = path.read_text().strip()
    labels = text.split(",") if "," in text else list(text)
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels


@pytest.fixture(scope="module")
def ternary_sample(tmp_path_factory):
    """The 10^6-symbol ternary sample at seed 101, pinned by its hash
    in ``sample_1000000_101.sha256``."""
    seq = tmp_path_factory.mktemp("seq") / "sample_ternary_1000000_101.txt"
    assert main(["sample", "--model", TERNARY_SPEC, "--n", "1000000",
                 "--seed", "101", "--out", str(seq)]) == 0
    return seq


# lengths past the dense top (3^13 words outnumber the windows) and
# cells of 3^14 pair codes or more: counted by sorting
SPARSE_COMMANDS = {
    "entropy": ("entropy", "--Lmax", "16"),
    "pmi": ("pmi", "--L-grid", "1,3,7,9,10", "--g-grid", "0,1,5,33"),
}


@pytest.mark.parametrize("argv, bound", [
    # 1 MB of symbols, 2.1 MB of uint32 counts of the 3^12 words, and
    # the float array of p·log2 p: 7.4 MB; int64 counts with a second
    # float array took 10.6 MB
    (("entropy", "--Lmax", "12"), 8_500_000),
    # the uint32 codes of a sparse length, their sorted copy, and the
    # run values and uint32 lengths: 18.2 MB; np.unique took 28.8 MB
    (SPARSE_COMMANDS["entropy"], 20_000_000),
    # the same for the pair codes of its L >= 7 cells: 21.7 MB; 33.0 MB
    (SPARSE_COMMANDS["pmi"], 24_000_000)])
def test_window_counts_hold_flat_memory(capsys, ternary_sample, argv, bound):
    import tracemalloc
    name, *args = argv
    tracemalloc.start()
    try:
        code = main([name, "--seq", str(ternary_sample), *args])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < bound


def test_sample_roundtrip_variable_width_labels(tmp_path, capsys):
    from persistinfo.cli import _load_model
    from persistinfo.sequence import read_sequence
    from persistinfo.processes import sample
    # widths 1 to 10 bytes, "é" two bytes wide, listed out of order
    symbols = ["2", "10", "1", "é", "longlabel9"]
    doc = {"kind": "markov", "alphabet": symbols,
           "rows": {"": ["1/4", "1/4", "1/4", "1/8", "1/8"]}}
    dest = tmp_path / "seq.txt"
    code, _, err = run(capsys, "sample", "--model", json.dumps(doc),
                       "--n", "3000", "--seed", "5", "--out", str(dest))
    assert code == 0, err
    written = [symbols[c] for c in
               sample(_load_model(json.dumps(doc), "float"), 3000,
                      seed=5).tolist()]
    assert dest.read_text() == ",".join(written) + "\n"
    src = measures.EmpiricalSource(*read_sequence(str(dest)))
    # Python's string order: "1" < "10" < "2"
    assert src.alphabet.symbols == ("1", "10", "2", "longlabel9", "é")
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


@pytest.mark.parametrize("label", [",", "a,b", "a\nb", "a\rb", " a", "a\t",
                                   " ", "", "\ufeffa"])
def test_sample_refuses_labels_a_sequence_file_cannot_hold(tmp_path, capsys,
                                                           label):
    # a comma splits the line, a line break ends it, its ends are
    # stripped on load, an empty label is refused there, and a leading
    # byte-order mark is skipped
    doc = {"kind": "iid", "alphabet": [label, "b"], "probs": ["1/2", "1/2"]}
    dest = tmp_path / "seq.txt"
    code, out, err = run(capsys, "sample", "--model", json.dumps(doc),
                         "--n", "30", "--seed", "1", "--out", str(dest))
    assert code == 1 and out == ""
    assert err.startswith(f"error: label {label!r} cannot be written")
    assert not dest.exists()


@pytest.mark.parametrize("doc", [
    ISING_SPEC,
    json.dumps({"kind": "iid", "alphabet": [f"s{i}" for i in range(300)],
                "probs": ["1/300"] * 300}),
])
def test_sample_still_writes_signed_and_wide_alphabets(tmp_path, capsys, doc):
    from persistinfo.cli import _load_model
    from persistinfo.sequence import read_sequence
    from persistinfo.processes import sample
    dest = tmp_path / "seq.txt"
    code, _, err = run(capsys, "sample", "--model", doc, "--n", "5000",
                       "--seed", "2", "--out", str(dest))
    assert code == 0, err
    model = _load_model(doc, "float")
    written = [model.alphabet.symbols[c]
               for c in sample(model, 5000, seed=2).tolist()]
    src = measures.EmpiricalSource(*read_sequence(str(dest)))
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


@pytest.mark.parametrize("doc", [
    ISING_SPEC,
    json.dumps({"kind": "iid", "alphabet": ["ab", "c"],
                "probs": ["1/2", "1/2"]}),
])
def test_sample_of_multi_character_labels_needs_two_symbols(tmp_path, capsys,
                                                            doc):
    from persistinfo.cli import _load_model
    from persistinfo.sequence import read_sequence
    from persistinfo.processes import sample
    # one label has no comma to join, so "ab" or "-1" would read back
    # as two symbols
    dest = tmp_path / "seq.txt"
    code, out, err = run(capsys, "sample", "--model", doc, "--n", "1",
                         "--seed", "3", "--out", str(dest))
    assert code == 1 and out == ""
    assert err.startswith("error: --n 1 over multi-character labels")
    assert not dest.exists()
    code, _, err = run(capsys, "sample", "--model", doc, "--n", "2",
                       "--seed", "3", "--out", str(dest))
    assert code == 0, err
    model = _load_model(doc, "float")
    written = [model.alphabet.symbols[c]
               for c in sample(model, 2, seed=3).tolist()]
    src = measures.EmpiricalSource(*read_sequence(str(dest)))
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


def test_comma_sequence_file_orders_labels_as_python(tmp_path):
    from persistinfo.sequence import read_sequence
    labels = ["2", "10", "1", "1\x00", "10", "abcdefgh", "abcdefg", "2"]
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.tolist() == list(src.alphabet.encode(labels))


@pytest.mark.parametrize("text, block, position", [
    (",a,b", 2, 0),
    ("a,b,", 2, 2),
    ("ab,c,,d", 4, 2),        # the cut falls on the first comma of ",,"
    ("a,bb,c,dd,,e", 9, 4),   # ...and here after four labels
])
def test_comma_blocks_name_the_global_empty_position(tmp_path, monkeypatch,
                                                     text, block, position):
    from persistinfo.sequence import read_sequence
    monkeypatch.setattr(sequence, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=f"empty symbol at position "
                                         f"{position} "):
        read_sequence(str(p))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 11])
def test_comma_blocks_read_labels_across_cuts(tmp_path, monkeypatch, block):
    from persistinfo.sequence import read_sequence
    labels = ["é", "10", "longlabel9", "2", "é", "1", "10", "longlabel9",
              "é", "2", "longlabel8", "1", "é", "10", "2"] * 3
    monkeypatch.setattr(sequence, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == (
        "1", "10", "2", "longlabel8", "longlabel9", "é")
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels


@pytest.mark.parametrize("block", [4, 64, 1 << 16])
def test_comma_codes_widen_past_256_labels(tmp_path, monkeypatch, block):
    import numpy as np

    from persistinfo.sequence import read_sequence
    # 300 labels of one to four bytes, the first 200 before any other,
    # so that later blocks add keys to those seen and widen the codes
    rng = np.random.default_rng(8)
    names = [str(i) for i in range(299)] + ["é"]
    order = np.concatenate([rng.permutation(200),
                            rng.integers(0, 300, 2000)])
    labels = [names[i] for i in order.tolist()]
    monkeypatch.setattr(sequence, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.dtype == np.uint16
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels
    p.write_text(",".join(labels[:200]) + "\n")
    assert read_sequence(str(p))[0].dtype == np.uint8


@pytest.mark.parametrize("block", [1, 3, 7])
def test_sample_blocks_write_the_same_bytes(tmp_path, capsys, monkeypatch,
                                            block):
    # the sampler's blocks and the writer's
    monkeypatch.setattr(processes, "_BLOCK", block)
    monkeypatch.setattr(sequence, "_BLOCK", block)
    for name, spec in (("ising", ISING_SPEC), ("tm", "tm")):
        want = (DATA / f"sample_{name}_4097_101.txt").read_bytes()
        dest = tmp_path / f"{name}.txt"
        argv = ("sample", "--model", spec, "--n", "4097", "--seed", "101")
        code, _, err = run(capsys, *argv, "--out", str(dest))
        assert code == 0, err
        assert dest.read_bytes() == want
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode() == want


_ASCII_LETTER = st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                              blacklist_characters=",")
# two bytes: two ASCII characters, or one 2-byte UTF-8 character
_TWO_BYTE_LABEL = st.one_of(
    st.text(_ASCII_LETTER, min_size=2, max_size=2),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF))


@st.composite
def uniform_comma_lines(draw):
    width = draw(st.sampled_from((1, 2)))
    labels = draw(st.lists(_ASCII_LETTER if width == 1 else _TWO_BYTE_LABEL,
                           min_size=1, max_size=300, unique=True))
    tokens = draw(st.lists(st.sampled_from(labels), min_size=2,
                           max_size=1000))
    return ",".join(tokens).encode()


def _refuse_block_route(*args):
    raise AssertionError("a uniform-width line took the block route")


@settings(max_examples=60, deadline=None)
@given(raw=uniform_comma_lines(), block=st.sampled_from((3, 1 << 16)))
def test_strided_comma_route_matches_the_block_oracle(raw, block):
    import numpy as np
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequence, "_BLOCK", block)
        want = sequence._comma_block_codes(raw, 0, len(raw), "seq.txt")
        patch.setattr(sequence, "_comma_block_codes", _refuse_block_route)
        got = sequence._comma_codes(raw, 0, len(raw), "seq.txt")
    assert got[1] == want[1]
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])


def test_comma_line_with_surrounding_whitespace_takes_the_strided_route(
        tmp_path, monkeypatch):
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_text(" \t+1,-1,-1,+1,é \n\n")
    monkeypatch.setattr(sequence, "_comma_block_codes", _refuse_block_route)
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == ("+1", "-1", "é")
    assert src.arr.tolist() == [0, 1, 1, 0, 2]


@pytest.mark.parametrize("text, symbols, codes", [
    # the last label alone is wider
    ("+1,-1,+10", ("+1", "+10", "-1"), [0, 2, 1]),
    # as many commas as a width-2 line of this length, but not in its
    # stride
    ("ab,cde,f", ("ab", "cde", "f"), [0, 1, 2])])
def test_comma_line_of_mixed_widths_takes_the_block_route(
        tmp_path, monkeypatch, text, symbols, codes):
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    calls = []
    block_route = sequence._comma_block_codes
    monkeypatch.setattr(sequence, "_comma_block_codes",
                        lambda *a: calls.append(a) or block_route(*a))
    src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert len(calls) == 1
    assert src.alphabet.symbols == symbols
    assert src.arr.tolist() == codes


@pytest.mark.parametrize("text, position", [
    ("a,b,,c", 2), ("+1,-1,,+1", 2), ("ab,cd,ef,", 3), (",+1,-1", 0),
    ("a,b,c,,", 3),
    # the length and comma count of a uniform line, commas off its stride
    ("a,bc,,d", 2), ("ab,cdef,,gh", 2)])
def test_uniform_looking_comma_line_names_its_empty_symbol(tmp_path, text,
                                                           position):
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    with pytest.raises(ValueError) as info:
        read_sequence(str(p))
    assert str(info.value) == (f"empty symbol at position {position} of the "
                               f"comma-separated sequence in {p}")


# one to three UTF-8 bytes a letter; no comma and no whitespace
_WIDE_LABEL = st.text(st.sampled_from("ab19+-_xéαβ中"), min_size=1,
                      max_size=12).filter(lambda s: len(s.encode()) <= 12)


@st.composite
def mixed_comma_lines(draw):
    labels = draw(st.lists(_WIDE_LABEL, min_size=1, max_size=300,
                           unique=True))
    tokens = draw(st.lists(st.sampled_from(labels), min_size=2,
                           max_size=600))
    return ",".join(tokens)


@settings(max_examples=60, deadline=None)
@given(line=mixed_comma_lines(), block=st.sampled_from((1, 3, 64, 1 << 16)))
def test_comma_lines_of_any_widths_load_as_split_text(tmp_path_factory, line,
                                                      block):
    import numpy as np

    from persistinfo.sequence import read_sequence
    tokens = line.split(",")
    labels = sorted(set(tokens))
    p = tmp_path_factory.mktemp("seq") / "seq.txt"
    p.write_text(line + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequence, "_BLOCK", block)
        src = measures.EmpiricalSource(*read_sequence(str(p)))
    assert src.alphabet.symbols == tuple(labels)
    assert src.arr.dtype == np.min_scalar_type(len(labels) - 1)
    assert src.arr.tolist() == [labels.index(t) for t in tokens]


@pytest.mark.parametrize("body, offset", [
    pytest.param(b"ab,c\xff,ab,d", 4, id="mixed-widths"),
    pytest.param(b"+1,\xff1,+1", 3, id="strided"),
    pytest.param(b"ab\xffc", 2, id="characters"),
    pytest.param(b"\xef\xbb\xbf  ab\xffc", 7, id="characters-after-bom"),
])
def test_sequence_file_not_utf8_names_the_file_offset(tmp_path, capsys, body,
                                                      offset):
    p = tmp_path / "seq.txt"
    p.write_bytes(body + b"\n")
    assert body[offset] == 0xFF
    code, out, err = run(capsys, "entropy", "--seq", str(p), "--Lmax", "2")
    assert (code, out) == (1, "")
    assert err == (f"error: sequence file {p} is not UTF-8: byte 0xff at "
                   f"offset {offset}\n")


def test_sample_and_comma_entropy_import_no_masked_arrays(tmp_path):
    # a bare np.unique checks for masked arrays, importing numpy.ma
    src = str(Path(persistinfo.__file__).resolve().parent.parent)
    seq = tmp_path / "seq.txt"
    seq.write_text(",".join(["+1", "-1", "-1", "+1"] * 5000) + "\n")
    script = (
        "import sys\n"
        "from persistinfo.cli import main\n"
        f"assert main(['sample', '--model', 'goldenmean', '--n', '70000',"
        f" '--out', {str(tmp_path / 'golden.txt')!r}]) == 0\n"
        f"assert main(['entropy', '--seq', {str(seq)!r}, '--Lmax', '4',"
        f" '--out', {str(tmp_path / 'H.txt')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("model", ["tm", "fib",
                                   '{"kind": "logistic", "r": 3.9}'])
def test_deterministic_samples_build_no_generator(tmp_path, model):
    # a generator imports numpy.random; these samplers never read one
    src = str(Path(persistinfo.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "from persistinfo.cli import main\n"
        f"assert main(['sample', '--model', {model!r}, '--n', '70000',"
        f" '--seed', '3', '--out', {str(tmp_path / 'seq.txt')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pmi_notes_exact_gaps_past_the_bit_cap(capsys):
    argv = ("pmi", "--model", "goldenmean", "--L-grid", "1,2,3",
            "--g-grid", "4,8,1048576", "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    for L in (1, 2, 3):
        assert (f"note: ({L}, 1048576) missing: exact gap power (d·T)^1048577"
                " over 2 contexts needs up to 4194308 bits (use --backend"
                " float); cap is 2**22\n") in err
    assert ",1048576," not in out and out.count(",8,") == 3
    code, out, err = run(capsys, *argv, "--backend", "float")
    assert code == 0 and err == ""
    assert out.count(",1048576,") == 3


def test_import_generates_no_code():
    # a frozen dataclass writes its methods as source and execs each one
    # at import; the package defines NamedTuples and slotted classes
    src = str(Path(persistinfo.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "import persistinfo.cli\n"
        "bad = {'dataclasses', 'numpy.random'} & set(sys.modules)\n"
        "assert not bad, bad\n"
        "bad = [(m.__name__, k) for m in list(sys.modules.values())\n"
        "       if m and m.__name__.startswith('persistinfo')\n"
        "       for k, c in vars(m).items()\n"
        "       if hasattr(c, '__dataclass_fields__')]\n"
        "assert not bad, bad\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


RECORD_FIELDS = {
    measures.EntropyCurve: "L_max H dH h_hat h_ratio E_hat exact",
    measures.GapMIGrid: "L_grid g_grid values missing exact empirical",
    measures.PmiVerdict: "kind value uncertainty",
    measures.PmiReport: "grid verdict tail_values diagnostics",
    measures.EfficiencyReport:
        "excess_entropy complexity_plus e_plus consistent",
    processes.ClosedForms: "entropy_rate excess_entropy complexity_plus"
                           " complexity_minus pmi efficiency",
    processes.ReversedProcess: "process",
    processes.PeriodicProcess: "alphabet cycle",
    processes.LogisticSymbolizer: "r x0 burnin",
    processes.SubstitutionProcess: "substitution",
    substitution.PerronFrobeniusData:
        "theta eigenvector primitive period exact",
    substitution.FactorTable: "factors freq",
    substitution.ShortcutData: "matrix factors_l factors_2 v2 v_l power",
    emachine.EpsilonMachine:
        "alphabet history_length future_length tol states"
        " state_probs transitions complexity history_index",
}


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda c: c.__name__)
def test_records_keep_their_fields_in_order_by_keyword(cls):
    names = RECORD_FIELDS[cls].split()
    assert list(inspect.signature(cls).parameters) == names
    # the two classes that check their fields get valid ones
    values = {"alphabet": Alphabet("01"), "cycle": (0, 0, 1), "r": 3.9,
              "x0": 0.4, "burnin": 7}
    kwargs = {k: values.get(k, object()) for k in names}
    made = cls(**kwargs)
    assert [getattr(made, k) for k in names] == list(kwargs.values())


def test_record_defaults():
    v = measures.PmiVerdict("converged")
    assert (v.kind, v.value, v.uncertainty) == ("converged", None, None)
    assert processes.LogisticSymbolizer(r=3.9, x0=0.4).burnin == 1000


def test_comma_loader_memory_stays_in_blocks(tmp_path):
    import tracemalloc

    import numpy as np

    from persistinfo.sequence import read_sequence
    n = 10 ** 6
    signs = np.array([b"+1,", b"-1,"])[np.random.default_rng(0).integers(
        2, size=n)]
    p = tmp_path / "seq.txt"
    p.write_bytes(signs.tobytes()[:-1] + b"\n")
    del signs
    tracemalloc.start()
    try:
        src = measures.EmpiricalSource(*read_sequence(str(p)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.n == n
    # the 1 MB of uint8 codes, the 3 MB line, and blocks of scratch
    assert peak < 20 << 20


@pytest.mark.parametrize("shape", ["binary", "shuffled", "sorted",
                                   "period 5"])
def test_ascii_loader_holds_the_line_and_the_codes(tmp_path, shape):
    import tracemalloc

    import numpy as np

    from persistinfo.sequence import read_sequence
    n = 10 ** 6
    # no space, which the loader would strip off the ends
    symbols = np.frombuffer("".join(NO_COMMA[1:]).encode(), dtype=np.uint8)
    ranks = np.random.default_rng(0).integers(
        2 if shape == "binary" else symbols.size, size=n)
    if shape == "sorted":
        ranks.sort()
    elif shape == "period 5":
        ranks = np.arange(n) % 5
    p = tmp_path / "seq.txt"
    p.write_bytes(b"\xef\xbb\xbf" + symbols[ranks].tobytes() + b"\n")
    tracemalloc.start()
    try:
        src = measures.EmpiricalSource(*read_sequence(str(p)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.n == n and src.arr.dtype == np.uint8
    # the file's bytes, the 1 MB of codes and two 64 KB blocks of
    # scratch: no other copy of the line, and no index array
    assert peak < 2 * n + (1 << 18)


@pytest.mark.parametrize("line", [
    "0110", "naïve", "a,bb,a", "é,-1,é", "\u3000x y\u3000", "↑,\xa0,↑"])
@pytest.mark.parametrize("pad", [
    ("", "\n"), ("\r\n", "\r\n"), (" \t\x1c", "\x0c \n"),
    ("\xa0\u2003", "\u3000\x85\n")])
def test_sequence_file_is_stripped_as_python_strips_text(tmp_path, line,
                                                         pad):
    from persistinfo.measures import EmpiricalSource
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_bytes((pad[0] + line + pad[1]).encode())
    src = EmpiricalSource(*read_sequence(str(p)))
    text = (pad[0] + line + pad[1]).strip()
    want = (EmpiricalSource(text) if "," not in text else None)
    labels = text.split(",") if "," in text else list(text)
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels
    if want is not None:
        assert src.alphabet.symbols == want.alphabet.symbols
        assert src.arr.tolist() == want.arr.tolist()
        assert src.arr.dtype == want.arr.dtype


@pytest.mark.parametrize("body", [
    "\ufeffabab\n", "\ufeff \tab\r\n", "\ufeff\ufeffab", " \ufeffab",
    "ab\ufeffab", "\ufeffa,bb,a\n", "\ufeffnaïve\n"])
def test_sequence_file_skips_a_leading_byte_order_mark(tmp_path, body):
    # as the utf-8-sig codec drops it: at offset 0 only
    from persistinfo.measures import EmpiricalSource
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_bytes(body.encode())
    src = EmpiricalSource(*read_sequence(str(p)))
    text = body.encode().decode("utf-8-sig").strip()
    labels = text.split(",") if "," in text else list(text)
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels
    if "," not in text:
        want = EmpiricalSource(text)
        assert src.alphabet.symbols == want.alphabet.symbols
        assert src.arr.tolist() == want.arr.tolist()


def test_entropy_of_a_sequence_file_ignores_its_byte_order_mark(tmp_path,
                                                              capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"abab\n")
    marked.write_bytes(b"\xef\xbb\xbfabab\n")
    outs = [run(capsys, "entropy", "--seq", str(p), "--Lmax", "1",
                "--format", "csv") for p in (plain, marked)]
    assert outs[0] == outs[1]
    assert outs[0][1].splitlines()[1] == "1,,1,,1"  # H(1) = 1 bit


#: the 95 printable ASCII characters but the comma, which would make a
#: sequence file a comma line, and with DEL
NO_COMMA = [chr(c) for c in range(0x20, 0x80) if c != ord(",")]


@st.composite
def ascii_lines(draw):
    """A line of k of NO_COMMA's symbols, of a length across the
    4096-byte sample and the 65536-byte block of ``_char_codes``: drawn
    at random, sorted by symbol, or with its last symbol met only in
    its last byte."""
    import numpy as np
    k = draw(st.integers(1, len(NO_COMMA)))
    symbols = np.frombuffer("".join(draw(st.permutations(NO_COMMA))[:k])
                            .encode(), dtype=np.uint8)
    n = draw(st.one_of(st.integers(1, 300),
                       st.sampled_from([4095, 4096, 4097, 8191, 8192, 8193,
                                        65535, 65536, 65537, 200003]),
                       st.integers(4000, 20000)))
    shape = draw(st.sampled_from(["random", "sorted", "last"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = rng.integers(k - (shape == "last" and k > 1), size=n)
    if shape == "sorted":
        ranks.sort()
    elif shape == "last":
        ranks[-1] = k - 1
    return symbols[ranks].tobytes().decode()


def _codes_or_error(f, *args):
    try:
        codes, alphabet = f(*args)
    except ValueError as exc:
        return str(exc)
    return codes.dtype, codes.tolist(), alphabet.symbols


@given(ascii_lines(), st.sampled_from(["none", "sorted", "shuffled",
                                       "missing"]), st.randoms())
@settings(max_examples=150, deadline=None)
def test_ascii_lines_code_as_the_rank_table_does(tmp_path_factory, line,
                                                 given_alphabet, rnd):
    import numpy as np

    from persistinfo.measures import EmpiricalSource
    from persistinfo.sequence import Alphabet, read_sequence
    alphabet = None
    if given_alphabet != "none":
        labels = sorted(set(line) | set(rnd.sample(NO_COMMA, 3)))
        if given_alphabet == "shuffled":
            rnd.shuffle(labels)
        elif given_alphabet == "missing":  # the first one is named
            for c in rnd.sample(sorted(set(line)), min(2, len(set(line)))):
                labels.remove(c)
        alphabet = Alphabet(labels)

    def points(text):
        return np.frombuffer(text.encode(), dtype=np.uint8)

    def arrays(src):
        return src.arr, src.alphabet

    want = _codes_or_error(rank_table_char_codes, points(line), alphabet)
    got = _codes_or_error(lambda: arrays(EmpiricalSource(line, alphabet)))
    assert got == want
    assert isinstance(want, str) or want[0] == np.uint8
    # a sequence file is stripped of the whitespace around its line
    p = tmp_path_factory.mktemp("seq") / "seq.txt"
    p.write_bytes(b" " + line.encode() + b"\n")
    if line.strip():
        got = _codes_or_error(lambda: read_sequence(str(p)))
        assert got == _codes_or_error(rank_table_char_codes,
                                      points(line.strip()), None)


@pytest.mark.parametrize("body, message", [
    (b" \n\t\r\n", "sequence file is empty"),
    (b"01\r10\n", "one line of symbols"),
    (b"a,b\nb,a\n", "one line of symbols"),
])
def test_sequence_file_refuses_empty_and_multiline(tmp_path, body, message):
    from persistinfo.sequence import read_sequence
    p = tmp_path / "seq.txt"
    p.write_bytes(body)
    with pytest.raises(ValueError, match=message):
        read_sequence(str(p))


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "entropy", "--model", "coin",
                       "--Lmax", "3", "--format", "csv",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    text = dest.read_text()
    code, out, _ = run(capsys, "entropy", "--model", "coin",
                       "--Lmax", "3", "--format", "csv")
    assert text == out


def test_outputs_are_deterministic(capsys):
    a = run(capsys, "entropy", "--model", "tm", "--Lmax", "8",
            "--format", "csv")
    b = run(capsys, "entropy", "--model", "tm", "--Lmax", "8",
            "--format", "csv")
    assert a == b


@pytest.mark.parametrize("module", ["persistinfo", "persistinfo.cli"])
def test_module_entry_point(module):
    # python -m runs the same main as the console script
    src = str(Path(persistinfo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "substitution",
         "--rules", "tm", "--l", "5"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("factors of length 5 (12 total):")

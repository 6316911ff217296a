"""End-to-end tests of the command-line front end.

Each test drives main(argv) and checks exit code plus captured output;
golden strings were fixed from the hand-derived model values before
the command layer was written.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import persistinfo
from persistinfo import cli
from persistinfo.cli import main
from persistinfo.processes import IidProcess, MarkovProcess
from persistinfo.substitution import fibonacci, thue_morse

LOG2_3 = math.log2(3)


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
    from persistinfo.cli import _load_sequence
    # 8 or more bytes do not fit one 63-bit code: sorted as byte rows
    labels = ["héllo", "-1", "↑", "+1", "-1", "↑", "héllo", "-1",
              "state_b_9", "state_a_9", "état_long", "state_b_9"]
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = _load_sequence(str(p))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.tolist() == [src.alphabet.index(x) for x in labels]


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


def test_entropy_missing_model_file(capsys):
    code, _, err = run(capsys, "entropy", "--model", "no/such/file.json",
                       "--Lmax", "3")
    assert code == 1
    assert "error" in err


def test_entropy_rejects_exact_ising(capsys):
    code, _, err = run(capsys, "entropy", "--model",
                       '{"kind": "ising", "J": 1, "h": 0, "beta": 0.5}',
                       "--Lmax", "3", "--backend", "exact")
    assert code == 1
    assert "float" in err


def test_entropy_unknown_kind(capsys):
    code, _, err = run(capsys, "entropy", "--model",
                       '{"kind": "weather"}', "--Lmax", "3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("doc, message", [
    ({"kind": "markov"}, "markov model needs a 'rows' field"),
    ({"kind": "periodic"}, "periodic model needs a 'cycle' field"),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}},
     "substitution model needs a 'start' field"),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": "2"},
     "label '2' is not in the alphabet ['0', '1']"),
    ({"kind": "markov", "alphabet": "ab",
      "rows": {"0": ["1/2", "1/2"], "b": ["1/2", "1/2"]}},
     "label '0' is not in the alphabet ['a', 'b']"),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": ""},
     "start '' is not one letter"),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": "10"},
     "start '10' is not one letter"),
    ({"kind": "substitution", "rules": {"0": "01", "1": "10"}, "start": 0},
     "start 0 is not one letter"),
    ({"kind": "periodic", "cycle": 5},
     "periodic model field 'cycle' must be a string or an array, not a"
     " number"),
    ({"kind": "substitution", "rules": {"0": 1, "1": "10"}, "start": "0"},
     "substitution model field 'rules' entry '0' must be a string or an"
     " array, not a number"),
    ({"kind": "iid", "alphabet": 5, "probs": ["1/2", "1/2"]},
     "iid model field 'alphabet' must be a string or an array, not a"
     " number"),
    ({"kind": "markov", "rows": [1]},
     "markov model field 'rows' must be an object, not an array"),
    ({"kind": "markov", "rows": {"0": [0.5, 0.5], "1": 0.5}},
     "markov model field 'rows' entry '1' must be an array, not a number"),
    ([1, 2], "a model document is a JSON object, not an array"),
    ({"kind": "ising", "J": math.nan, "h": 0, "beta": 1},
     "ising model field 'J' must be finite, not nan"),
    ({"kind": "ising", "J": 1, "h": math.inf, "beta": 1},
     "ising model field 'h' must be finite, not inf"),
    ({"kind": "markov", "rows": {"0": [math.nan, 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be finite, not nan"),
    ({"kind": "logistic", "r": 3.5, "burnin": 1.5},
     "logistic model field 'burnin' must be a whole number >= 0, not 1.5"),
    ({"kind": "markov", "rows": {"0": ["nan", 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number, not 'nan'"),
    ({"kind": "markov", "rows": {"0": [True, 1], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number or a string,"
     " not a boolean"),
    ({"kind": "markov", "rows": {"0": [[1], 0], "1": [0.5, 0.5]}},
     "markov model field 'rows' entry '0' must be a number or a string,"
     " not an array"),
    ({"kind": "iid", "probs": ["1/2", "x"]},
     "iid model field 'probs' must be a number, not 'x'"),
    ({"kind": "iid", "probs": [None, 1]},
     "iid model field 'probs' must be a number or a string, not null"),
    ({"kind": "iid", "probs": ["1/0", "1"]},
     "iid model field 'probs' must be a number, not '1/0'"),
    ({"kind": "ising", "J": "abc", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not 'abc'"),
    ({"kind": "ising", "J": "nan", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not 'nan'"),
    ({"kind": "ising", "J": "1e400", "h": 0, "beta": 1},
     "ising model field 'J' must be a number, not '1e400'"),
    ({"kind": "logistic", "r": 3.5, "burnin": "x"},
     "logistic model field 'burnin' must be a number, not 'x'"),
    ({"kind": "logistic", "r": 3.5},
     "the logistic map has no exact law; write a sample with"
     " 'persistinfo sample' and read it with --seq"),
])
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
    code, out, _ = run(capsys, "ising", "--J", "0", "--h", "0.3", "--Tmin",
                       "1", "--Tmax", "2", "--points", "3")
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["0"] * 3


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


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


@pytest.mark.parametrize("argv, message", [
    (("entropy", "--Lmax", "2"), "give exactly one of --model or --seq"),
    (("entropy", "--model", "tm", "--seq", "x", "--Lmax", "2"),
     "give exactly one of --model or --seq"),
    (("substitution", "--rules", '{"0":"01","1":"10"}', "--l", "2"),
     "inline rules need --start"),
    (("substitution", "--rules", "fibo", "--l", "2"),
     "unknown rules 'fibo'; use tm, fib, or an inline JSON object"),
    (("ising", "--points", "2"), "need at least 3 temperature points"),
    (("sample", "--model", "tm", "--n", "0"), "need n >= 1"),
])
def test_command_refusals_name_the_cause(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


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
    code, out, _ = run(capsys, "pmi", "--model",
                       '{"kind":"periodic","cycle":"00111"}',
                       "--L-grid", "5,6,7",
                       "--g-grid", "1000000,2000000,4000000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L    g    E_bits"
    # the gap outgrows its column; the value follows after a space
    assert "6    4000000 2.32192809489" in lines


def test_pmi_rejects_descending_grid(capsys):
    code, _, err = run(capsys, "pmi", "--model", "coin",
                       "--L-grid", "3,2,1", "--g-grid", "0,2,4")
    assert code == 1
    assert "ascending" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_pmi_refuses_a_small_grid_before_loading(capsys, monkeypatch, fmt):
    def no_source(cfg):
        raise AssertionError("loaded the source of a refused grid")

    monkeypatch.setattr(cli, "_source", no_source)
    code, out, err = run(capsys, "pmi", "--seq", "gm.txt", "--L-grid", "6,8",
                         "--g-grid", "8,16,32,64", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: need at least 3 distinct L and 3 distinct g values\n"


def test_pmi_rejects_nonpositive_L(capsys):
    code, _, err = run(capsys, "pmi", "--model", "coin",
                       "--L-grid", "0,1,2", "--g-grid", "0,2,4")
    assert code == 1


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


# ── substitution ─────────────────────────────────────────────────────────────


def test_substitution_worked_example(capsys):
    code, out, _ = run(capsys, "substitution", "--rules", "tm",
                       "--l", "5", "--show-shortcut", "--p", "3")
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


def test_substitution_shortcut_requires_power(capsys):
    code, _, err = run(capsys, "substitution", "--rules", "tm",
                       "--l", "5", "--show-shortcut")
    assert code == 1
    assert "--p" in err


@pytest.mark.parametrize("argv, flag", [
    (("--show-shortcut", "--p", "3", "--format", "csv"), "--show-shortcut"),
    (("--p", "3"), "--p"),
])
def test_substitution_shortcut_flags_are_not_ignored(capsys, argv, flag):
    code, out, err = run(capsys, "substitution", "--rules", "tm",
                         "--l", "5", *argv)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("rules", ["tm", "fib"])
def test_substitution_start_needs_inline_rules(capsys, rules):
    code, out, err = run(capsys, "substitution", "--rules", rules,
                         "--start", "1", "--l", "2")
    assert (code, out) == (1, "")
    assert "--start" in err


def test_substitution_start_is_one_letter(capsys):
    code, out, err = run(capsys, "substitution", "--rules",
                         '{"0":"01","1":"10"}', "--start", "10", "--l", "2")
    assert (code, out) == (1, "")
    assert err == "error: start '10' is not one letter\n"


def test_inline_rules_of_the_wrong_json_type_name_the_entry(capsys):
    code, out, err = run(capsys, "substitution", "--rules",
                         '{"0":1,"1":"10"}', "--start", "0", "--l", "2")
    assert (code, out) == (1, "")
    assert err == ("error: substitution model field 'rules' entry '0' must"
                   " be a string or an array, not a number\n")


@pytest.mark.parametrize("l", ["0", "-3"])
def test_substitution_nonpositive_length_names_the_cause(capsys, l):
    code, _, err = run(capsys, "substitution", "--rules", "tm", "--l", l)
    assert code == 1
    assert "factor length must be positive" in err


def test_substitution_power_too_small(capsys):
    code, _, err = run(capsys, "substitution", "--rules", "tm",
                       "--l", "5", "--show-shortcut", "--p", "1")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("--l", "4097"),
    ("--l", "5", "--show-shortcut", "--p", "40"),
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


def test_ising_names_a_high_temperature_excess_entropy(capsys):
    # a strong coupling keeps E near 1 bit even at the T = 100 probe:
    # the rows are printed, and the run fails naming the probe
    code, out, err = run(capsys, "ising", "--J", "1000", "--Tmin", "1",
                         "--Tmax", "2", "--points", "3")
    assert code == 1
    assert len(out.splitlines()) == 4
    assert err == ("error: E(100) = 0.999999937554 exceeds 1e-3 at high"
                   " temperature\n")


def test_ising_rejects_nonpositive_temperature(capsys):
    code, _, err = run(capsys, "ising", "--J", "1", "--h", "0",
                       "--Tmin", "0", "--Tmax", "10", "--points", "5")
    assert code == 1


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


# Sample files written by an earlier, per-symbol version of the writer
# and the samplers (n = 4097, seed 101): the vectorized ones must match
# them byte for byte.
TERNARY_SPEC = json.dumps({
    "kind": "markov", "alphabet": ["a", "b", "c"],
    "rows": {a + b: ["1/2", "1/3", "1/6"] if a + b == "aa"
             else ["1/4", "1/4", "1/2"] for a in "abc" for b in "abc"}})
ISING_SPEC = json.dumps({"kind": "ising", "J": 1, "h": 0.3, "beta": 0.7})
GOLDEN_SAMPLES = {"ternary": TERNARY_SPEC, "goldenmean": "goldenmean",
                  "ising": ISING_SPEC, "tm": "tm"}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_sample_file_matches_golden_bytes(tmp_path, capsys, name):
    from persistinfo.cli import _load_sequence
    dest = tmp_path / f"{name}.txt"
    code, out, err = run(capsys, "sample", "--model", GOLDEN_SAMPLES[name],
                         "--n", "4097", "--seed", "101", "--out", str(dest))
    assert code == 0, err
    want = (DATA / f"sample_{name}_4097_101.txt").read_bytes()
    assert dest.read_bytes() == want
    # read back, the labels come out in the order they were written
    src = _load_sequence(str(dest))
    text = want.decode().strip()
    labels = text.split(",") if "," in text else list(text)
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels


def test_sample_roundtrip_variable_width_labels(tmp_path, capsys):
    from persistinfo.cli import _load_model, _load_sequence
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
    src = _load_sequence(str(dest))
    # Python's string order: "1" < "10" < "2"
    assert src.alphabet.symbols == ("1", "10", "2", "longlabel9", "é")
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


@pytest.mark.parametrize("label", [",", "a,b", "a\nb", "a\rb", " a", "a\t",
                                   " "])
def test_sample_refuses_labels_a_sequence_file_cannot_hold(tmp_path, capsys,
                                                           label):
    # a comma splits the line, a line break ends it, and its ends are
    # stripped on load
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
    from persistinfo.cli import _load_model, _load_sequence
    from persistinfo.processes import sample
    dest = tmp_path / "seq.txt"
    code, _, err = run(capsys, "sample", "--model", doc, "--n", "5000",
                       "--seed", "2", "--out", str(dest))
    assert code == 0, err
    model = _load_model(doc, "float")
    written = [model.alphabet.symbols[c]
               for c in sample(model, 5000, seed=2).tolist()]
    src = _load_sequence(str(dest))
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


@pytest.mark.parametrize("doc", [
    ISING_SPEC,
    json.dumps({"kind": "iid", "alphabet": ["ab", "c"],
                "probs": ["1/2", "1/2"]}),
])
def test_sample_of_multi_character_labels_needs_two_symbols(tmp_path, capsys,
                                                            doc):
    from persistinfo.cli import _load_model, _load_sequence
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
    src = _load_sequence(str(dest))
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == written


def test_comma_sequence_file_orders_labels_as_python(tmp_path):
    from persistinfo.cli import _load_sequence
    labels = ["2", "10", "1", "1\x00", "10", "abcdefgh", "abcdefg", "2"]
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = _load_sequence(str(p))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.tolist() == [src.alphabet.index(x) for x in labels]


@pytest.mark.parametrize("text, block, position", [
    (",a,b", 2, 0),
    ("a,b,", 2, 2),
    ("ab,c,,d", 4, 2),        # the cut falls on the first comma of ",,"
    ("a,bb,c,dd,,e", 9, 4),   # ...and here after four labels
])
def test_comma_blocks_name_the_global_empty_position(tmp_path, monkeypatch,
                                                     text, block, position):
    from persistinfo import cli
    from persistinfo.cli import _load_sequence
    monkeypatch.setattr(cli, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=f"empty symbol at position "
                                         f"{position} "):
        _load_sequence(str(p))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 11])
def test_comma_blocks_read_labels_across_cuts(tmp_path, monkeypatch, block):
    from persistinfo import cli
    from persistinfo.cli import _load_sequence
    labels = ["é", "10", "longlabel9", "2", "é", "1", "10", "longlabel9",
              "é", "2", "longlabel8", "1", "é", "10", "2"] * 3
    monkeypatch.setattr(cli, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = _load_sequence(str(p))
    assert src.alphabet.symbols == (
        "1", "10", "2", "longlabel8", "longlabel9", "é")
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels


@pytest.mark.parametrize("block", [4, 64, 1 << 16])
def test_comma_codes_widen_past_256_labels(tmp_path, monkeypatch, block):
    import numpy as np

    from persistinfo import cli
    from persistinfo.cli import _load_sequence
    # 300 labels of one to four bytes, the first 200 before any other,
    # so that later blocks add keys to those seen and widen the codes
    rng = np.random.default_rng(8)
    names = [str(i) for i in range(299)] + ["é"]
    order = np.concatenate([rng.permutation(200),
                            rng.integers(0, 300, 2000)])
    labels = [names[i] for i in order.tolist()]
    monkeypatch.setattr(cli, "_BLOCK", block)
    p = tmp_path / "seq.txt"
    p.write_text(",".join(labels) + "\n")
    src = _load_sequence(str(p))
    assert src.alphabet.symbols == tuple(sorted(set(labels)))
    assert src.arr.dtype == np.uint16
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels
    p.write_text(",".join(labels[:200]) + "\n")
    assert _load_sequence(str(p)).arr.dtype == np.uint8


@pytest.mark.parametrize("block", [1, 3, 7])
def test_sample_blocks_write_the_same_bytes(tmp_path, capsys, monkeypatch,
                                            block):
    from persistinfo import cli, processes
    # the sampler's blocks and the writer's
    monkeypatch.setattr(processes, "_BLOCK", block)
    monkeypatch.setattr(cli, "_BLOCK", block)
    for name in ("ising", "tm"):
        want = (DATA / f"sample_{name}_4097_101.txt").read_bytes()
        dest = tmp_path / f"{name}.txt"
        argv = ("sample", "--model", GOLDEN_SAMPLES[name], "--n", "4097",
                "--seed", "101")
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
        patch.setattr(cli, "_BLOCK", block)
        want = cli._comma_block_codes(raw, 0, len(raw), "seq.txt")
        patch.setattr(cli, "_comma_block_codes", _refuse_block_route)
        got = cli._comma_codes(raw, 0, len(raw), "seq.txt")
    assert got[1] == want[1]
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])


def test_comma_line_with_surrounding_whitespace_takes_the_strided_route(
        tmp_path, monkeypatch):
    from persistinfo.cli import _load_sequence
    p = tmp_path / "seq.txt"
    p.write_text(" \t+1,-1,-1,+1,é \n\n")
    monkeypatch.setattr(cli, "_comma_block_codes", _refuse_block_route)
    src = _load_sequence(str(p))
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
    from persistinfo.cli import _load_sequence
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    calls = []
    block_route = cli._comma_block_codes
    monkeypatch.setattr(cli, "_comma_block_codes",
                        lambda *a: calls.append(a) or block_route(*a))
    src = _load_sequence(str(p))
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
    from persistinfo.cli import _load_sequence
    p = tmp_path / "seq.txt"
    p.write_text(text + "\n")
    with pytest.raises(ValueError) as info:
        _load_sequence(str(p))
    assert str(info.value) == (f"empty symbol at position {position} of the "
                               f"comma-separated sequence in {p}")


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


def test_comma_loader_memory_stays_in_blocks(tmp_path):
    import tracemalloc

    import numpy as np

    from persistinfo.cli import _load_sequence
    n = 10 ** 6
    signs = np.array([b"+1,", b"-1,"])[np.random.default_rng(0).integers(
        2, size=n)]
    p = tmp_path / "seq.txt"
    p.write_bytes(signs.tobytes()[:-1] + b"\n")
    del signs
    tracemalloc.start()
    try:
        src = _load_sequence(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.n == n
    # the 1 MB of uint8 codes, the 3 MB line, and blocks of scratch
    assert peak < 20 << 20


@pytest.mark.parametrize("line", [
    "0110", "naïve", "a,bb,a", "é,-1,é", "\u3000x y\u3000", "↑,\xa0,↑"])
@pytest.mark.parametrize("pad", [
    ("", "\n"), ("\r\n", "\r\n"), (" \t\x1c", "\x0c \n"),
    ("\xa0\u2003", "\u3000\x85\n")])
def test_sequence_file_is_stripped_as_python_strips_text(tmp_path, line,
                                                         pad):
    from persistinfo.cli import _load_sequence
    from persistinfo.measures import EmpiricalSource
    p = tmp_path / "seq.txt"
    p.write_bytes((pad[0] + line + pad[1]).encode())
    src = _load_sequence(str(p))
    text = (pad[0] + line + pad[1]).strip()
    want = (EmpiricalSource(text) if "," not in text else None)
    labels = text.split(",") if "," in text else list(text)
    assert [src.alphabet.symbols[c] for c in src.arr.tolist()] == labels
    if want is not None:
        assert src.alphabet.symbols == want.alphabet.symbols
        assert src.arr.tolist() == want.arr.tolist()
        assert src.arr.dtype == want.arr.dtype


@pytest.mark.parametrize("body, message", [
    (b" \n\t\r\n", "sequence file is empty"),
    (b"01\r10\n", "one line of symbols"),
    (b"a,b\nb,a\n", "one line of symbols"),
])
def test_sequence_file_refuses_empty_and_multiline(tmp_path, body, message):
    from persistinfo.cli import _load_sequence
    p = tmp_path / "seq.txt"
    p.write_bytes(body)
    with pytest.raises(ValueError, match=message):
        _load_sequence(str(p))


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
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("factors of length 5 (12 total):")


# ── golden outputs ────────────────────────────────────────────────────────────

DATA = Path(__file__).parent / "data"


def _same_except_ising_floats(got: str, want: str) -> None:
    """JSON equal byte for byte, except that the floats of the Ising
    chain, a float model, may move within 1e-12: those of table1's
    Ising row, and every row of an ising sweep."""
    got_doc, want_doc = json.loads(got), json.loads(want)
    for row_got, row_want in zip(got_doc["rows"], want_doc["rows"]):
        if "cells" not in row_want:
            cells = [("", row_got, row_want)]
        elif row_want["model"] == "ising":
            cells = [(qty, row_got["cells"][qty], cell)
                     for qty, cell in row_want["cells"].items()]
        else:
            continue
        for qty, cell_got, cell_want in cells:
            for key, value in cell_want.items():
                other = cell_got[key]
                if isinstance(value, float):
                    assert abs(other - value) <= 1e-12, (qty, key)
                else:
                    assert other == value, (qty, key)
            cell_got.update(cell_want)
    assert json.dumps(got_doc, indent=2) + "\n" == want


@pytest.mark.parametrize("argv,name", [
    (("table1", "--format", "json"), "table1.json"),
    (("pmi", "--model", "goldenmean", "--format", "json"),
     "pmi_goldenmean.json"),
    (("entropy", "--model", "goldenmean", "--Lmax", "12"),
     "entropy_goldenmean_L12.txt"),
    # binary codes pass 63 bits at L = 63, and pair codes at L = 32
    (("entropy", "--seq", str(DATA / "sample_tm_4097_101.txt"),
      "--Lmax", "70", "--format", "json"), "entropy_seq_tm_L70.json"),
    (("pmi", "--seq", str(DATA / "sample_tm_4097_101.txt"),
      "--L-grid", "31,32,33", "--g-grid", "0,4,8", "--format", "json"),
     "pmi_seq_tm_L31_33.json"),
    # read through the pair-window count, within an ulp of the closed forms
    (("substitution", "--rules", "fib", "--l", "2", "--format", "json"),
     "substitution_fib_l2.json"),
    # composition matrix and Perron data of the shortcut
    (("substitution", "--rules", "tm", "--l", "5", "--show-shortcut",
      "--p", "3", "--format", "json"), "substitution_tm_l5_shortcut_p3.json"),
    (("ising", "--J", "1", "--h", "0.3", "--Tmin", "0.1", "--Tmax", "24",
      "--points", "25", "--format", "json"), "ising_J1_h0.3.json"),
])
def test_outputs_match_golden_files(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    want = (DATA / name).read_text()
    if name in ("table1.json", "ising_J1_h0.3.json") and out != want:
        _same_except_ising_floats(out, want)
    else:
        assert out == want

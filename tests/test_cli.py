"""CLI behavior: CSV schemas, exit codes, determinism, stream separation."""

import argparse
import contextlib
import csv
import importlib
import io
import itertools
import os
import pathlib
import re
import runpy
import stat
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise import analysis, cli
from decoynoise.channels import FAMILIES, parameter_range
from decoynoise.analysis import SWEEP_HEADER
from decoynoise.cli import MAX_SWEEP_VALUES, MAX_TABLE_GRID, MAX_TRIALS, REGRESSION_TOL, run
from decoynoise.fidelity import grid_report

fidelity_mod = importlib.import_module("decoynoise.fidelity")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"


def _child_env(*paths):
    """The environment of a child process that imports this checkout's src/, then paths, then PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), *paths, os.environ.get("PYTHONPATH")])))


def run_module(args, **kwargs):
    """`python -m decoynoise *args` in a child process that imports this checkout's src/."""
    return subprocess.run([sys.executable, "-m", "decoynoise", *args], env=_child_env(), **kwargs)


def test_verify_table_passes_and_reports_every_cell(capsys):
    code = run(["verify-table", "--grid", "5"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,noise,max_abs_deviation"
    assert len(lines) == 1 + 24
    for line in lines[1:]:
        assert float(line.split(",")[2]) < REGRESSION_TOL

    # the worst cell is named: scheme, noise and the parameter at the arg-max
    named = re.fullmatch(r"24 cells checked, worst deviation (\S+) at (\S+) (\w+) (\w+)=(\S+)\n", err)
    assert named is not None, err
    worst, label, noise, flag, param = named.groups()
    deviations = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    assert deviations[label, noise] == max(deviations.values())
    assert worst == f"{deviations[label, noise]:.3e}"
    assert flag == {"ad": "eta", "pd": "eta", "cd": "phi", "cr": "theta"}[noise]
    grid = np.linspace(*parameter_range(noise), 5)
    [(simulated, closed_form)] = grid_report((label,), noise, grid)
    assert float(param) == grid[np.argmax(np.abs(simulated - closed_form))]


def test_verify_table_flags_perturbed_closed_form(monkeypatch, capsys):
    true_form = fidelity_mod.closed_form

    def skewed(scheme, family, x):
        value = true_form(scheme, family, x)
        if scheme == "cluster" and family == "ad":
            value += 1e-6
        return value

    monkeypatch.setattr("decoynoise.fidelity.closed_form", skewed)
    code = run(["verify-table", "--grid", "5"])
    capsys.readouterr()
    assert code == 2


def test_sweep_header_is_pinned(capsys):
    code = run(["sweep", "--noise", "ad", "--schemes", "bb84,psi+,phi+,cluster", "--grid", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + 4 * 5
    first = lines[1].split(",")
    assert first[0] == "bb84" and first[1] == "ad" and first[2] == "0.0"


def test_sweep_is_byte_identical_across_runs(tmp_path):
    args = ["sweep", "--noise", "cr", "--schemes", "psi-,cluster", "--grid", "17"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(path_a)]) == 0
    assert run(args + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes().startswith(b"scheme,noise,parameter")


def _reference_sweep_csv(grid, family, results):
    """A sweep's CSV formatted value by value, with no block and no dedupe."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for scheme, simulated, closed_form in results:
        columns, tail = [grid, simulated], [itertools.repeat("")] * 2
        if closed_form is not None:
            columns, tail = columns + [closed_form, abs(simulated - closed_form)], []
        lead = [itertools.repeat(scheme), itertools.repeat(family)]
        writer.writerows(zip(*lead, *(map(repr, column.tolist()) for column in columns), *tail))
    return out.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    noise=st.sampled_from(sorted(FAMILIES)),
    labels=st.lists(st.sampled_from(["bb84", "psi+", "psi-", "phi+", "phi-", "cluster", "w"]), min_size=1, max_size=7),
    grid=st.integers(2, 9),
)
def test_sweep_rows_do_not_depend_on_the_write_block(noise, labels, grid):
    # a repeated label, like schemes of equal polynomial, shares its simulated array
    points, results = analysis.sweep(tuple(labels), noise, *parameter_range(noise), grid)
    expected = _reference_sweep_csv(points, noise, results)
    assert len(expected.splitlines()) == 1 + len(labels) * grid
    # 1 and 2 rows cut every report, w's too, into one- and two-row pieces,
    # 3 split a report of more than 3 points, 7 hold one whole report of up to
    # 7, 14 two, and the default all of them
    for block in (1, 2, 3, 7, 14, analysis.CSV_ROWS):
        out = io.StringIO()
        with mock.patch.object(analysis, "CSV_ROWS", block), contextlib.redirect_stdout(out):
            assert run(["sweep", "--noise", noise, "--schemes", ",".join(labels), "--grid", str(grid)]) == 0
        assert out.getvalue() == expected, block


def test_sweep_formats_each_float_by_its_bits():
    # value-equal but distinct floats must each print their own repr
    above = float(np.nextafter(0.5, 1.0))
    grid = np.array([0.0, -0.0, 0.5, above])
    results = [
        ("psi+", np.array([-0.0, 0.0, above, 0.5]), np.array([0.0, -0.0, 0.5, 0.5])),
        ("w", np.array([0.0, -0.0, 0.5, above]), None),
    ]
    text = "".join(analysis.sweep_csv(grid, "ad", results))
    assert [line.split(",") for line in text.splitlines()[1:]] == [
        ["psi+", "ad", "0.0", "-0.0", "0.0", "0.0"],
        ["psi+", "ad", "-0.0", "0.0", "-0.0", "0.0"],
        ["psi+", "ad", "0.5", repr(above), "0.5", repr(above - 0.5)],
        ["psi+", "ad", repr(above), "0.5", "0.5", "0.0"],
        ["w", "ad", "0.0", "0.0", "", ""],
        ["w", "ad", "-0.0", "-0.0", "", ""],
        ["w", "ad", "0.5", "0.5", "", ""],
        ["w", "ad", repr(above), repr(above), "", ""],
    ]
    assert text == _reference_sweep_csv(grid, "ad", results)


def test_schemes_sharing_a_simulated_array_print_their_own_closed_forms():
    # the closed forms differ by one ulp at one point, so the two pieces share no row body
    grid = np.linspace(0.0, 1.0, 5)
    simulated = np.array([1.0, 0.75, 0.5, 0.25, 0.0])
    closed_form = simulated.copy()
    nudged = closed_form.copy()
    above = float(np.nextafter(0.5, 1.0))
    nudged[2] = above
    results = [("psi+", simulated, closed_form), ("psi-", simulated, nudged), ("phi+", simulated, closed_form)]
    text = "".join(analysis.sweep_csv(grid, "ad", results))
    lines = text.splitlines()[1:]
    assert lines[2] == "psi+,ad,0.5,0.5,0.5,0.0"
    assert lines[7] == f"psi-,ad,0.5,0.5,{above!r},{above - 0.5!r}"
    assert lines[12] == "phi+,ad,0.5,0.5,0.5,0.0"
    assert [line.split(",", 1)[1] for line in lines[:5]] == [line.split(",", 1)[1] for line in lines[10:]]
    assert text == _reference_sweep_csv(grid, "ad", results)


def test_w_shares_phi_simulation_under_cd_but_keeps_empty_closed_forms():
    grid, results = analysis.sweep(("phi+", "w", "phi-"), "cd", 0.0, 2.0, 7)
    (_, phi_plus, phi_closed), (_, w, w_closed), (_, phi_minus, _) = results
    assert phi_plus is w is phi_minus and w_closed is None and phi_closed is not None
    text = "".join(analysis.sweep_csv(grid, "cd", results))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [row[4:] for row in rows if row[0] == "w"] == [["", ""]] * 7
    assert all(row[4] == "1.0" and row[5] == "0.0" for row in rows if row[0] != "w")
    assert text == _reference_sweep_csv(grid, "cd", results)


def test_sweep_w_state_has_empty_closed_form_fields(capsys):
    code = run(["sweep", "--noise", "cd", "--schemes", "w", "--grid", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        assert fields[0] == "w"
        assert fields[4] == "" and fields[5] == ""


def test_sweep_respects_explicit_range(capsys):
    code = run(["sweep", "--noise", "pd", "--schemes", "cluster", "--grid", "3",
                "--from", "0.25", "--to", "0.75"])
    out, _ = capsys.readouterr()
    assert code == 0
    params = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert params == ["0.25", "0.5", "0.75"]


def test_sweep_outside_the_rate_range_writes_no_header(capsys):
    code = run(["sweep", "--noise", "ad", "--from=-0.5", "--to", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: decoherence rate must lie in [0, 1], got -0.5\n"


def test_sweep_rejects_degenerate_grid(capsys):
    code = run(["sweep", "--noise", "ad", "--grid", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "grid must be >= 2" in err


def test_unknown_flags_are_rejected(capsys):
    code = run(["sweep", "--noise", "ad", "--turbo"])
    _, err = capsys.readouterr()
    assert code == 1 and "turbo" in err


def test_unknown_scheme_is_rejected(capsys):
    code = run(["sweep", "--noise", "ad", "--schemes", "ghz"])
    _, err = capsys.readouterr()
    assert code == 1 and "ghz" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recommend", "--noise", "ad", "--eta", "-1e-3"],
        ["recommend", "--noise", "cd", "--phi", "-1e-3"],
        ["recommend", "--noise", "cr", "--theta", "-1e-5"],
        ["recommend", "--noise", "cd", "--phi", "-٣"],  # Arabic-Indic three, which \d matches
        ["sweep", "--noise", "cd", "--from", "-1e-3", "--grid", "3"],
        ["sweep", "--noise", "cr", "--from", "-2.5e-1", "--to", "-.5e-2", "--grid", "3"],
        ["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "-2.5e-1", "--hi", "1.2"],
        ["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "-1.2E0", "--hi", "-5e-1"],
    ],
)
def test_a_negative_number_in_exponent_form_is_a_value(argv, capsys):
    # the same as writing it after "=", which every Python version reads as a value
    code = run(argv)
    spaced = capsys.readouterr()
    joined = []
    for arg in argv:
        if re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    assert (code, spaced) == (run(joined), capsys.readouterr())
    assert "expected one argument" not in spaced.err


def test_a_negative_rate_in_exponent_form_is_out_of_range(capsys):
    assert run(["recommend", "--noise", "ad", "--eta", "-1e-3"]) == 1
    assert capsys.readouterr() == ("", "error: decoherence rate must lie in [0, 1], got -0.001\n")
    # a flag is still a flag
    assert run(["recommend", "--noise", "ad", "--eta", "--include-w"]) == 1
    assert capsys.readouterr().err == "error: argument --eta: expected one argument\n"


@pytest.mark.parametrize("noise,wrong", [("ad", "phi"), ("pd", "theta"), ("cd", "eta"), ("cr", "eta")])
def test_recommend_needs_the_right_parameter_flag(capsys, noise, wrong):
    flag = {"ad": "eta", "pd": "eta", "cd": "phi", "cr": "theta"}[noise]
    assert flag == FAMILIES[noise]
    assert run(["recommend", "--noise", noise]) == 1
    assert capsys.readouterr().err == f"error: --{flag} is required for noise {noise}\n"
    assert run(["recommend", "--noise", noise, f"--{wrong}", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: --{wrong} does not apply to noise {noise}\n"
    assert run(["recommend", "--noise", noise, f"--{flag}", "0.5"]) == 0


def test_recommend_output(capsys):
    code = run(["recommend", "--noise", "cr", "--theta", "0.7"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,scheme,fidelity"
    top = [line for line in lines[1:] if line.startswith("1,")]
    assert {line.split(",")[1] for line in top} == {"psi+", "phi-"}


@pytest.mark.parametrize(
    "args,top",
    [
        # bb84 and cluster both have fidelity cos^8 theta under cr
        (["--noise", "cr", "--theta", "2.0"], ["bb84", "cluster"]),
        (["--noise", "cd", "--phi", "1.1", "--include-w"], ["phi+", "phi-", "w"]),
    ],
)
def test_recommend_lists_tied_rows_by_label(args, top, capsys):
    assert run(["recommend", *args]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    by_rank = {}
    for rank, label, _ in rows:
        by_rank.setdefault(rank, []).append(label)
    assert top in by_rank.values()
    assert all(labels == sorted(labels) for labels in by_rank.values())


def test_crossover_output_and_errors(capsys):
    code = run(["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad",
                "--lo", "0.3", "--hi", "0.9"])
    out, _ = capsys.readouterr()
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "scheme_a,scheme_b,noise,crossover"
    assert 0.5 <= float(row.split(",")[3]) <= 0.65

    code = run(["crossover", "--a", "phi-", "--b", "phi-", "--noise", "cr",
                "--lo", "0.0", "--hi", "3.0"])
    _, err = capsys.readouterr()
    assert code == 1 and "no crossover" in err


def test_crossover_from_zero_noise_says_the_ends_tie():
    # every scheme is exactly 1.0 at zero noise, so [0, 1] has no sign change
    # although bb84 and psi+ cross at 0.58045...
    proc = run_module(["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0", "--hi", "1"],
                      capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: no crossover in interval [0.0, 1.0]: bb84 and psi+ are equal at 0.0\n"


def test_eve_sim_exact(capsys):
    code = run(["eve-sim", "--attack", "intercept"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,label,value"
    assert lines[1] == "summary,detection_probability,0.25"


def test_eve_sim_wrong_pair(capsys):
    code = run(["eve-sim", "--attack", "wrong-pair", "--bell", "phi+", "--eve-pair", "23"])
    out, _ = capsys.readouterr()
    assert code == 0
    summary = out.strip().splitlines()[1].split(",")
    assert float(summary[2]) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("attack", ["intercept", "wrong-pair"])
def test_eve_sim_rejects_unknown_bell_label(attack, capsys):
    assert run(["eve-sim", "--attack", attack, "--bell", "nonsense"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "--bell" in err


def test_eve_sim_mc_requires_seed(capsys):
    code = run(["eve-sim", "--attack", "intercept", "--method", "mc"])
    _, err = capsys.readouterr()
    assert code == 1 and "--seed" in err


@pytest.mark.parametrize("attack", ["intercept", "wrong-pair"])
def test_eve_sim_mc_rejects_a_negative_seed(attack, capsys):
    assert run(["eve-sim", "--attack", attack, "--method", "mc", "--trials", "10", "--seed=-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: monte-carlo seed must be non-negative, got -1\n"


def test_eve_sim_mc_deterministic(capsys):
    args = ["eve-sim", "--attack", "wrong-pair", "--method", "mc",
            "--trials", "20000", "--seed", "123"]
    assert run(args) == 0
    first, _ = capsys.readouterr()
    assert run(args) == 0
    second, _ = capsys.readouterr()
    assert first == second


@pytest.mark.parametrize(
    "args,message",
    [
        (["--attack", "intercept", "--bell", "psi+"], "--bell does not apply to attack intercept"),
        (["--attack", "intercept", "--eve-pair", "23"], "--eve-pair does not apply to attack intercept"),
        (["--attack", "intercept", "--method", "mc", "--seed", "1", "--bell", "phi-"],
         "--bell does not apply to attack intercept"),
        (["--attack", "intercept", "--seed", "1"], "--seed does not apply to method exact"),
        (["--attack", "intercept", "--trials", "10"], "--trials does not apply to method exact"),
        (["--attack", "wrong-pair", "--method", "exact", "--seed", "1"], "--seed does not apply to method exact"),
        (["--attack", "wrong-pair", "--bell", "psi-", "--trials", "10"], "--trials does not apply to method exact"),
    ],
)
def test_eve_sim_rejects_flags_that_do_not_apply(args, message, capsys):
    assert run(["eve-sim", *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_eve_sim_defaults_stand_in_for_omitted_flags(capsys):
    for short, full in [
        (["--attack", "wrong-pair"], ["--attack", "wrong-pair", "--bell", "psi+", "--eve-pair", "23"]),
        (["--attack", "intercept", "--method", "mc", "--seed", "5"],
         ["--attack", "intercept", "--method", "mc", "--seed", "5", "--trials", "1000000"]),
    ]:
        assert run(["eve-sim", *short]) == 0
        omitted, _ = capsys.readouterr()
        assert run(["eve-sim", *full]) == 0
        assert capsys.readouterr().out == omitted


@pytest.mark.parametrize(
    "args",
    [
        ["recommend", "--noise", "pd", "--eta", "0.25", "--include-w"],
        ["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "0.8", "--hi", "1.1"],
    ],
)
def test_a_repeated_query_compiles_nothing(args, capsys):
    assert run(args) == 0
    first = capsys.readouterr().out
    misses = fidelity_mod._compile.cache_info().misses
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert fidelity_mod._compile.cache_info().misses == misses


def test_repeated_queries_in_one_process_print_what_a_fresh_process_prints(capsys):
    queries = [
        ["recommend", "--noise", "ad", "--eta", "0.55", "--include-w"],
        ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.3", "--hi", "0.9"],
        ["eve-sim", "--attack", "wrong-pair", "--bell", "phi-"],
        ["eve-sim", "--attack", "intercept"],
        ["eve-sim", "--attack", "wrong-pair", "--method", "mc", "--trials", "5000", "--seed", "11"],
    ]
    for args in queries:
        fresh = run_module(args, capture_output=True, text=True, check=True).stdout
        for _ in range(2):
            assert run(args) == 0
            assert capsys.readouterr().out == fresh


def test_failed_command_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run(["sweep", "--noise", "ad", "--from", "-0.5", "--to", "1", "--out", str(out)]) == 1
    assert "decoherence rate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_command_leaves_existing_out_file_untouched(tmp_path, capsys):
    out = tmp_path / "f.csv"
    out.write_bytes(b"earlier output\n")
    assert run(["sweep", "--noise", "ad", "--from", "-0.5", "--to", "1", "--out", str(out)]) == 1
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"earlier output\n"


def test_verify_table_regression_still_writes_out_file(monkeypatch, tmp_path, capsys):
    true_form = fidelity_mod.closed_form
    monkeypatch.setattr("decoynoise.fidelity.closed_form", lambda s, f, x: true_form(s, f, x) + 1e-6)
    out = tmp_path / "table.csv"
    assert run(["verify-table", "--grid", "3", "--out", str(out)]) == 2
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == [out]
    assert len(out.read_text().splitlines()) == 1 + 24


def test_unwritable_out_path_is_a_one_line_error(tmp_path, capsys):
    code = run(["eve-sim", "--attack", "intercept", "--out", str(tmp_path / "missing" / "f.csv")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_empty_out_path_is_a_one_line_error(capsys):
    # an empty path, such as an unset "$OUT", must not fall back to stdout
    assert run(["eve-sim", "--attack", "intercept", "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("earlier output\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run(["eve-sim", "--attack", "intercept", "--out", str(link)]) == 0
    assert capsys.readouterr().out == ""
    assert link.is_symlink()
    assert target.read_text().startswith("kind,label,value\n")


def test_out_rewrites_an_existing_file_in_place(tmp_path, capsys):
    out = tmp_path / "f.csv"
    out.write_text("earlier output\n")
    out.chmod(0o640)
    (tmp_path / "hard-link.csv").hardlink_to(out)
    before = out.stat()
    assert run(["eve-sim", "--attack", "intercept", "--out", str(out)]) == 0
    capsys.readouterr()
    after = out.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    assert (tmp_path / "hard-link.csv").read_text().startswith("kind,label,value\n")


def test_out_to_the_null_device(capsys):
    mode = os.stat(os.devnull).st_mode
    assert run(["eve-sim", "--attack", "intercept", "--out", os.devnull]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""
    assert os.stat(os.devnull).st_mode == mode and stat.S_ISCHR(mode)


def test_a_write_that_fails_partway_leaves_no_partial_rows(tmp_path):
    resource = pytest.importorskip("resource")

    def limit_file_size():
        # limits only the child; Python ignores SIGXFSZ, so the write fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (2**16, 2**16))

    out = tmp_path / "f.csv"
    out.write_text("earlier output\n")
    proc = run_module(["sweep", "--noise", "pd", "--grid", "2000", "--out", str(out)],
                      capture_output=True, text=True, preexec_fn=limit_file_size)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert out.read_bytes() == b""
    # the same sweep without the limit is far longer than the limit
    assert run_module(["sweep", "--noise", "pd", "--grid", "2000", "--out", str(out)]).returncode == 0
    assert out.stat().st_size > 2**17


@pytest.mark.parametrize("device", [False, True])
def test_a_failed_write_empties_a_regular_file_and_leaves_a_device(device, tmp_path, monkeypatch, capsys):
    def write_then_fail(stream, chunks):
        stream.write("kind,label,value\nsummary,detection")
        stream.flush()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_rows", write_then_fail)
    out = pathlib.Path(os.devnull) if device else tmp_path / "f.csv"
    assert run(["eve-sim", "--attack", "intercept", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    # the write's own error, not one from emptying the target
    assert captured.out == "" and captured.err == "error: [Errno 28] No space left on device\n"
    if device:
        assert stat.S_ISCHR(out.stat().st_mode)
    else:
        assert out.read_bytes() == b""


SWEEP_LIMIT = f"grid times number of schemes must be <= {MAX_SWEEP_VALUES}"


@pytest.mark.parametrize(
    "args,message",
    [
        (["sweep", "--noise", "ad", "--grid", str(10**12)], SWEEP_LIMIT),
        (["sweep", "--noise", "ad", "--schemes", "w", "--grid", str(MAX_SWEEP_VALUES + 1)], SWEEP_LIMIT),
        (["sweep", "--noise", "ad", "--schemes", "bb84,psi+,psi-,phi+,phi-,cluster,w",
          "--grid", str(MAX_SWEEP_VALUES // 7 + 1)], SWEEP_LIMIT),
        (["verify-table", "--grid", str(10**12)], f"grid must be <= {MAX_TABLE_GRID}"),
        (["verify-table", "--grid", str(MAX_TABLE_GRID + 1)], f"grid must be <= {MAX_TABLE_GRID}"),
        (["eve-sim", "--attack", "intercept", "--method", "mc", "--seed", "1", "--trials", str(10**12)],
         f"trials must be <= {MAX_TRIALS}"),
        (["eve-sim", "--attack", "wrong-pair", "--method", "mc", "--seed", "1", "--trials", str(MAX_TRIALS + 1)],
         f"trials must be <= {MAX_TRIALS}"),
    ],
)
def test_oversized_grid_and_trials_are_rejected_before_any_work(args, message, capsys):
    assert run(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


# Each command at its size cap, and the peak RSS in MB that it must stay under:
# 45 above either Monte Carlo attack, which reads its trials in blocks (35 MB each),
# 60 above verify-table's one family at a time (44 MB; 89 MB holding all 24 cells),
# and the "about 100 MB" of cli's size comment for the two largest sweep shapes (90
# and 49 MB).
_CAP_PEAKS = [
    (["eve-sim", "--attack", "intercept", "--method", "mc", "--trials", str(MAX_TRIALS), "--seed", "3"], 45),
    (["eve-sim", "--attack", "wrong-pair", "--method", "mc", "--trials", str(MAX_TRIALS), "--seed", "3"], 45),
    (["verify-table", "--grid", str(MAX_TABLE_GRID)], 60),
    (["sweep", "--noise", "pd", "--schemes", "cluster", "--grid", str(MAX_SWEEP_VALUES)], 100),
    (["sweep", "--noise", "pd", "--schemes", "bb84,psi+,psi-,phi+,phi-,cluster,w", "--grid", str(MAX_SWEEP_VALUES // 7)], 100),
]

# Runs `python <args>` as the one child of a fresh parent, then prints the child's
# peak RSS: RUSAGE_CHILDREN's ru_maxrss is the largest among the parent's ended
# children.
_REPORT_PEAK = (
    "import resource, subprocess, sys\n"
    "subprocess.run([sys.executable, *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)

# `python -m decoynoise` in a process that reports 64 usable CPUs, on which a
# Monte Carlo count would run in as many parts as it may
_ON_64_CPUS = (
    "import os, runpy\n"
    "os.sched_getaffinity = lambda pid: set(range(64))\n"
    "runpy.run_module('decoynoise', run_name='__main__', alter_sys=True)\n"
)


def _peak_mb(*args):
    """The peak RSS in MB of `python *args` in a child process that imports this checkout's src/."""
    proc = subprocess.run([sys.executable, "-c", _REPORT_PEAK, *args], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("argv,limit_mb", _CAP_PEAKS)
def test_a_command_at_its_size_cap_peaks_under_its_memory_limit(argv, limit_mb):
    peak_mb = _peak_mb("-m", "decoynoise", *argv)
    assert peak_mb <= limit_mb, f"{' '.join(argv)} peaked at {peak_mb:.1f} MB, above {limit_mb} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_monte_carlo_at_its_size_cap_on_64_cpus_peaks_under_its_memory_limit():
    # each part holds its own block of temporaries, so the parts at once are capped whatever the CPUs; on a
    # host with few real CPUs the parts' blocks are seldom all live at once, and the cap itself is checked
    # by test_eavesdrop's test_the_parts_at_once_are_capped_whatever_the_cpus
    argv, limit_mb = _CAP_PEAKS[0]
    peak_mb = _peak_mb("-c", _ON_64_CPUS, *argv)
    assert peak_mb <= limit_mb, f"{' '.join(argv)} on 64 CPUs peaked at {peak_mb:.1f} MB, above {limit_mb} MB"


def test_reused_parser_keeps_no_state_between_commands(tmp_path, capsys):
    def with_w(path):
        return ["recommend", "--noise", "cd", "--phi", "1.1", "--include-w", "--out", str(path)]

    plain = ["recommend", "--noise", "cd", "--phi", "1.1"]
    # each command's output when it runs alone, in a fresh process
    alone = tmp_path / "alone.csv"
    run_module(with_w(alone), check=True)
    expected_plain = run_module(plain, capture_output=True, text=True, check=True).stdout
    assert b"w," in alone.read_bytes() and "w," not in expected_plain

    out = tmp_path / "ranked.csv"
    assert run(with_w(out)) == 0
    assert out.read_bytes() == alone.read_bytes()
    out.unlink()
    capsys.readouterr()
    assert run(plain) == 0
    assert capsys.readouterr().out == expected_plain
    assert not out.exists()
    assert run(with_w(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == alone.read_bytes()


def test_missing_command_is_bad_usage(capsys):
    assert run([]) == 1
    _, err = capsys.readouterr()
    assert "error" in err


_ALL_SCHEMES = "bb84,psi+,psi-,phi+,phi-,cluster,w"
_SWEEP_GOLDENS = [
    ("ad_sweep_golden.csv", ["--noise", "ad", "--schemes", "bb84,psi+,phi+,cluster"]),
    ("cr_sweep_golden.csv", ["--noise", "cr", "--schemes", "psi-,cluster,w"]),
    ("pd_sweep_golden.csv", ["--noise", "pd", "--schemes", _ALL_SCHEMES]),
    ("cd_sweep_golden.csv", ["--noise", "cd", "--schemes", _ALL_SCHEMES]),
    ("ad_rest_sweep_golden.csv", ["--noise", "ad", "--schemes", "psi-,phi-,w"]),
    ("cr_rest_sweep_golden.csv", ["--noise", "cr", "--schemes", "bb84,psi+,phi+,phi-"]),
]


_TWO_PI = "6.283185307179586"
_MC_FLAGS = ["--method", "mc", "--trials", "1000", "--seed", "7"]
_COMMAND_GOLDENS = [
    *(
        (f"recommend_{noise}_{value}_golden.csv", ["recommend", "--noise", noise, f"--{flag}", value, "--include-w"])
        for noise, flag, values in (
            ("ad", "eta", ("0.0", "0.35", "1.0")),
            ("pd", "eta", ("0.0", "0.35", "1.0")),
            ("cd", "phi", ("0.0", "1.1", _TWO_PI)),
            ("cr", "theta", ("0.0", "1.1", _TWO_PI)),
        )
        for value in values
    ),
    # acceptance criterion 6, and psi- against bb84 at cos^2 t = 1/3
    ("crossover_ad_golden.csv", ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.3", "--hi", "0.9"]),
    ("crossover_cr_golden.csv", ["crossover", "--a", "psi-", "--b", "bb84", "--noise", "cr", "--lo", "0.1", "--hi", "1.4"]),
    ("verify_table_golden.csv", ["verify-table", "--grid", "21"]),
    ("eve_intercept_golden.csv", ["eve-sim", "--attack", "intercept"]),
    *(
        (f"eve_wrong_pair_{bell}_{pair}_golden.csv", ["eve-sim", "--attack", "wrong-pair", "--bell", bell, "--eve-pair", pair])
        for bell in ("psi+", "psi-", "phi+", "phi-")
        for pair in ("12", "23")
    ),
    *(
        (f"eve_{attack.replace('-', '_')}_mc_golden.csv", ["eve-sim", "--attack", attack, *_MC_FLAGS])
        for attack in ("intercept", "wrong-pair")
    ),
    # "--flag=value", read by argparse, and the wrong-pair defaults, psi+ and 23
    ("recommend_ad_0.35_golden.csv", ["recommend", "--noise=ad", "--eta=0.35", "--include-w"]),
    ("eve_wrong_pair_psi+_23_golden.csv", ["eve-sim", "--attack", "wrong-pair"]),
    ("eve_wrong_pair_psi+_12_golden.csv", ["eve-sim", "--attack", "wrong-pair", "--eve-pair", "12"]),
]


# When a change to the arithmetic moves the last float digits, rewrite every
# golden file named in _SWEEP_GOLDENS and _COMMAND_GOLDENS from its command line
# with `PYTHONPATH=src python tests/test_cli.py`, and list each moved value in
# CHANGES.md. The closed forms take powers as repeated products, so numpy's SIMD
# dispatch on another CPU moves none of them:
# test_output_is_the_same_with_numpys_avx512_targets_disabled checks it
@pytest.mark.parametrize("golden,args", _SWEEP_GOLDENS)
def test_sweep_matches_golden_file(tmp_path, golden, args):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *args, "--grid", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("golden,argv", _COMMAND_GOLDENS)
def test_command_matches_golden_file(capsys, golden, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_a_vanishing_fidelity_prints_its_closed_form(capsys):
    # at eta = 1 - 2^-52, phi+ under ad is (1 - eta)^2 = 2^-104 and W is 1 - eta = 2^-52
    argv = ["sweep", "--noise", "ad", "--schemes", "phi+,w", "--from", "0.999999999999999", "--to", "1", "--grid", "5"]
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "phi+,ad,0.9999999999999998,4.930380657631324e-32,4.930380657631324e-32,0.0" in rows
    assert "w,ad,0.9999999999999998,2.220446049250313e-16,," in rows


# Prints numpy's AVX-512 dispatch targets that this CPU has and that are not
# disabled, as the "found" list of numpy.show_runtime()'s SIMD report names them
# (X86_V4, AVX512_ICL and AVX512_SPR on numpy 2.4), on one line; then runs each
# command line given as one argument, each output after a "$ <line>" line.
_RUN_UNDER_NUMPYS_DISPATCH = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from decoynoise.cli import run
print(*[t for t in __cpu_dispatch__ if __cpu_features__[t] and (t == "X86_V4" or t.startswith("AVX512"))])
for line in sys.argv[1:]:
    print("$", line)
    if run(line.split()) != 0:
        sys.exit(1)
"""

# Each golden command line whose output holds a closed form, and a 2001-point
# sweep of all seven schemes per family.
_DISPATCH_LINES = [
    *(" ".join(["sweep", *args, "--grid", "5"]) for _, args in _SWEEP_GOLDENS),
    "verify-table --grid 21",
    *(f"sweep --noise {family} --schemes {_ALL_SCHEMES} --grid 2001" for family in FAMILIES),
]


def _run_under_dispatch(disabled):
    env = _child_env()
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_UNDER_NUMPYS_DISPATCH, *_DISPATCH_LINES], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    targets, _, out = proc.stdout.partition("\n")
    return targets.split(), out


def test_output_is_the_same_with_numpys_avx512_targets_disabled():
    targets, undisturbed = _run_under_dispatch(())
    if not targets:
        pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
    left, disabled = _run_under_dispatch(targets)
    assert left == []
    # each "$ " starts one command line's output; CSV holds no "$"
    outputs = zip(undisturbed.split("$ ")[1:], disabled.split("$ ")[1:], strict=True)
    moved = [mine.partition("\n")[0] for mine, theirs in outputs if mine != theirs]
    assert not moved, f"NPY_DISABLE_CPU_FEATURES={' '.join(targets)} moves the output of {moved}"


# each command line with its one-line error; every angle lies below 2**1023 in magnitude
_ANGLE_DOMAIN = "noise angle must be finite and below 2**1023 in magnitude, got"
_LARGEST_ANGLE = "8.988465674311579e+307"  # the float just below 2**1023


@pytest.mark.parametrize(
    "args",
    [
        (["recommend", "--noise", "cd", "--phi", "inf"], f"{_ANGLE_DOMAIN} inf"),
        (["recommend", "--noise", "cr", "--theta", "nan"], f"{_ANGLE_DOMAIN} nan"),
        (["sweep", "--noise", "cd", "--from=-inf", "--to", "1"], f"{_ANGLE_DOMAIN} -inf"),
        (["sweep", "--noise", "cd", "--from=-1e308", "--to=1e308"], f"{_ANGLE_DOMAIN} -1e+308"),
        (["recommend", "--noise", "cr", "--theta", "1e308"], f"{_ANGLE_DOMAIN} 1e+308"),
        (["recommend", "--noise", "cd", "--phi", "-1e308"], f"{_ANGLE_DOMAIN} -1e+308"),
        (["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "0.5", "--hi", "1.02e308"],
         f"{_ANGLE_DOMAIN} 1.02e+308"),
    ],
)
def test_non_finite_parameters_fail_cleanly(args):
    argv, message = args
    proc = run_module(argv, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        *(["recommend", "--noise", noise, f"--{flag}", _LARGEST_ANGLE] for noise, flag in (("cd", "phi"), ("cr", "theta"))),
        *(["sweep", "--noise", noise, f"--from=-{_LARGEST_ANGLE}", f"--to={_LARGEST_ANGLE}"] for noise in ("cd", "cr")),
        ["crossover", "--a", "bb84", "--b", "psi-", "--noise", "cd", "--lo", "3.0", "--hi", _LARGEST_ANGLE],
        ["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "0.5", "--hi", _LARGEST_ANGLE],
    ],
)
def test_the_largest_angle_gives_a_result_with_no_warning(argv):
    proc = run_module(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "nan" not in proc.stdout and "inf" not in proc.stdout


_WITHOUT_NUMPY = [
    *(["recommend", "--noise", noise, f"--{flag}", "0.3", *w] for noise, flag in FAMILIES.items() for w in ([], ["--include-w"])),
    ["crossover", "--a", "psi-", "--b", "cluster", "--noise", "cr", "--lo", "0.8", "--hi", "1.1"],
    ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.3", "--hi", "0.9"],
    ["eve-sim", "--attack", "intercept"],
    ["eve-sim", "--attack", "wrong-pair", "--bell", "phi-", "--eve-pair", "12"],
    ["--help"],
    ["sweep", "--help"],
    # usage errors
    [],
    ["teleport"],
    ["sweep", "--noise", "ad", "--turbo"],
    ["sweep", "--noise", "ad", "--grid", "1"],
    ["sweep", "--noise", "ad", "--schemes", "ghz"],
    ["verify-table", "--grid", "100001"],
    ["recommend", "--noise", "xx", "--eta", "0.5"],
    ["recommend", "--noise", "ad"],
    ["recommend", "--noise", "ad", "--phi", "0.5"],
    ["recommend", "--noise", "ad", "--eta", "-1e-3"],
    ["recommend", "--noise", "cr", "--theta", "nan"],
    ["crossover", "--a", "phi-", "--b", "phi-", "--noise", "cr", "--lo", "0", "--hi", "3"],
    ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.9", "--hi", "0.3"],
    ["eve-sim", "--attack", "wrong-pair", "--bell", "ghz"],
    ["eve-sim", "--attack", "intercept", "--bell", "psi+"],
    ["eve-sim", "--attack", "intercept", "--method", "mc", "--trials", "100"],
    ["eve-sim", "--attack", "intercept", "--method", "mc", "--seed", "1", "--trials", "100000000"],
]
_WITH_NUMPY = [
    ["sweep", "--noise", "ad", "--grid", "3"],
    ["verify-table", "--grid", "3"],
    ["eve-sim", "--attack", "intercept", "--method", "mc", "--trials", "100", "--seed", "1"],
    ["eve-sim", "--attack", "wrong-pair", "--method", "mc", "--trials", "100", "--seed", "1"],
]


@pytest.mark.parametrize("argv,imports", [(argv, False) for argv in _WITHOUT_NUMPY] + [(argv, True) for argv in _WITH_NUMPY])
def test_only_a_grid_or_a_random_stream_imports_numpy(argv, imports):
    code, out, err, modules = _fresh_imports(argv)
    assert ("numpy" in modules) == imports
    # nor the density-matrix oracle, dataclasses or fractions, ever
    assert not modules & {"decoynoise.linalg", "dataclasses", "fractions"}
    assert "Traceback" not in err
    # --help describes the commands, not how rows are written or how a command line is read
    for note in ("csv.writer", "argparse", "option table"):
        assert note not in " ".join(out.split())
    assert code == (1 if err.startswith("error: ") else 0)


def test_importing_the_package_imports_no_numpy_cli_or_oracle():
    report = ("import sys, decoynoise\n"
              "print(*(name in sys.modules for name in ('numpy', 'decoynoise.cli', 'decoynoise.linalg')))\n"
              "print(*sorted(name for name in sys.modules if name.startswith('decoynoise')))\n"
              "print(decoynoise.cli.__name__, decoynoise.linalg.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", report], env=_child_env(), capture_output=True, text=True)
    # no submodule at all until one is used
    assert proc.stdout.splitlines() == ["False False False", "decoynoise", "decoynoise.cli decoynoise.linalg"], proc.stderr


def test_module_entrypoint_keeps_streams_separate():
    proc = run_module(["verify-table", "--grid", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("scheme,noise,max_abs_deviation")
    assert "worst deviation" in proc.stderr
    assert "worst deviation" not in proc.stdout


_HEADERS = {
    "verify-table": ["scheme", "noise", "max_abs_deviation"],
    "sweep": SWEEP_HEADER,
    "recommend": ["rank", "scheme", "fidelity"],
    "crossover": ["scheme_a", "scheme_b", "noise", "crossover"],
    "eve-sim": ["kind", "label", "value"],
}
# one bad value in each pool, so that most commands get past argument checking
_SCHEMES = st.sampled_from(["bb84", "psi+", "psi-", "phi+", "phi-", "cluster", "w", "ghz"])
_NOISES = st.sampled_from(["ad", "pd", "cd", "cr", "xx"])
_FLOATS = st.one_of(st.floats(0.0, 1.0), st.floats(-1.0, 7.0), st.floats(allow_nan=True, allow_infinity=True))
_PARAM_FLAG = {"ad": "--eta", "pd": "--eta", "cd": "--phi", "cr": "--theta", "xx": "--eta"}


def _sizes(cap):
    """Small sizes, and sizes over the cap, which must be refused before any work."""
    return st.sampled_from([-1, 1, 2, 3, 4, 5, 8, cap + 1, 10**12])


def _maybe(flag, values):
    """[] or [(flag, value)]: an optional flag, written out later in either form."""
    return st.one_of(st.just([]), values.map(lambda v: [(flag, str(v))]))


def _noise_setting(noise, value, flag):
    # flag None stands for the flag the noise family takes
    return [("--noise", noise), (flag or _PARAM_FLAG[noise], str(value))]


def _bracket(lo, hi, ordered):
    lo, hi = sorted((lo, hi)) if ordered else (lo, hi)
    return [("--lo", str(lo)), ("--hi", str(hi))]


# At most one form argparse alone reads, or None: a flag given again, often
# with another value; the first flag left out, which is a required one in
# every command that has one; an abbreviated flag, such as --no; a value that
# starts with "-", which is a value only when it is a negative number; a flag
# at the end with no value; a stray token; and -h, which prints help.
_ODD = [None] * 4 + ["repeat", "drop", "drop", "abbreviate", "value", "value", "value", "no value", "stray", "-h"]
# "-٣" (Arabic-Indic three, Unicode Nd) is a negative number to argparse; "-²" (a digit, but not Nd) is not
_ODD_VALUES = ["-0.5", "-inf", "-nan", "-", "--", "--out", "-²", "-٣"]


@st.composite
def _command(draw, name, *parts, odd=False):
    """name and its drawn options, each written "--flag value" or "--flag=value"; odd adds at most one odd form."""
    def options():
        return [option for part in draw(st.tuples(*parts)) for option in part]

    drawn = options()
    valued = [i for i, (_, value) in enumerate(drawn) if value is not None]
    odd = draw(st.sampled_from(_ODD)) if odd else None
    if odd == "repeat":  # an option of a second draw whose flag the first has
        again = [option for option in options() if option[0] in dict(drawn)]
        drawn += [draw(st.sampled_from(again))] if again else []
    elif odd == "drop" and drawn:
        del drawn[0]
    elif odd == "abbreviate" and drawn:
        i = draw(st.integers(0, len(drawn) - 1))
        flag, value = drawn[i]
        drawn[i] = (flag[: draw(st.integers(3, max(3, len(flag) - 1)))], value)
    elif odd == "value" and valued:
        i = draw(st.sampled_from(valued))
        drawn[i] = (drawn[i][0], draw(st.sampled_from(_ODD_VALUES)))
    # most often all "--flag value", which a command's parser reads directly
    spaced = draw(st.sampled_from([True, True, False, None]))
    argv = [name]
    for flag, value in drawn:
        if value is None:
            argv.append(flag)
        # after a space "-inf" reads as a flag, so it is written after "=" unless odd forms are drawn
        elif (spaced or spaced is None and draw(st.booleans())) and (value != "-inf" or odd is not None):
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    if odd == "no value":
        argv.append(draw(st.sampled_from([drawn[i][0] for i in valued] + ["--out"])))
    elif odd in ("stray", "-h"):
        argv.insert(draw(st.integers(1, len(argv))), odd)
    return argv


_PARTS = {
    "verify-table": [_maybe("--grid", _sizes(MAX_TABLE_GRID))],
    "sweep": [
        _NOISES.map(lambda noise: [("--noise", noise)]),
        _maybe("--schemes", st.lists(_SCHEMES, max_size=8).map(",".join)),
        _maybe("--grid", _sizes(MAX_SWEEP_VALUES)),
        _maybe("--from", _FLOATS),
        _maybe("--to", _FLOATS),
    ],
    "recommend": [
        st.builds(_noise_setting, _NOISES, _FLOATS, st.sampled_from([None, None, "--eta", "--phi", "--theta"])),
        st.sampled_from([[], [("--include-w", None)]]),
    ],
    "crossover": [
        _SCHEMES.map(lambda a: [("--a", a)]),
        _SCHEMES.map(lambda b: [("--b", b)]),
        _NOISES.map(lambda noise: [("--noise", noise)]),
        st.builds(_bracket, _FLOATS, _FLOATS, st.sampled_from([True, True, True, False])),
    ],
    "eve-sim": [
        st.sampled_from(["intercept", "wrong-pair", "intercept", "wrong-pair", "swap"]).map(
            lambda attack: [("--attack", attack)]
        ),
        _maybe("--bell", _SCHEMES),
        _maybe("--eve-pair", st.sampled_from(["12", "23", "13"])),
        _maybe("--method", st.sampled_from(["exact", "mc"])),
        _maybe("--trials", _sizes(MAX_TRIALS)),
        _maybe("--seed", st.integers(-1, 2**64)),
    ],
}
# Commands that argparse reads as written, in either spacing; and those with an odd form as well
_ARGV = {command: _command(command, *parts) for command, parts in _PARTS.items()}
_ODD_ARGV = {command: _command(command, *parts, odd=True) for command, parts in _PARTS.items()}
# The columns of every command whose fields are floats
_FLOAT_COLUMNS = {"fidelity", "crossover", "value", "max_abs_deviation", "parameter", "fidelity_sim",
                  "fidelity_closed", "abs_err"}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_csv_or_a_one_line_error(command, data):
    argv = data.draw(_ARGV[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # printed, so that a warning shows up on stderr like outside the tests
        warnings.simplefilter("always")
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _HEADERS[command]
        assert all(len(row) == len(rows[0]) for row in rows)
        # a float field is the repr of a Python float, which a numpy scalar's repr is not: np.float64(0.5)
        for n, name in enumerate(rows[0]):
            if name in _FLOAT_COLUMNS:
                assert all(row[n] == repr(float(row[n])) for row in rows[1:] if row[n]), name
        # the hand-joined lines are what csv.writer writes for the parsed rows
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        assert text.getvalue() == out


def _nested_parse(argv):
    """The reference: the whole parser reads argv and runs the command's parser inside its own scan."""
    return cli.build_parser().parse_args(argv)


def _parse_outcome(parse, argv):
    """What one parse of argv ends in: its Namespace, its usage error, or its exit code and stdout.

    The Namespace is its sorted (name, repr) pairs: a repr counts NaN as equal
    to NaN and -0.0 as different from 0.0.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return sorted((name, repr(value)) for name, value in vars(parse(argv)).items())
    except cli.CliError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


@pytest.mark.parametrize("command", sorted(_ODD_ARGV))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_command_parses_as_the_nested_parse_does(command, data):
    argv = data.draw(_ODD_ARGV[command], label="argv")
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(_nested_parse, argv)


# One argv of each form the benchmark's workloads send, as they write it
_CANONICAL = [
    ["verify-table", "--grid", "11"],
    ["sweep", "--noise", "pd"],  # no workload sends it: every other flag at its default
    ["sweep", "--noise", "ad", "--schemes", "bb84,psi+,psi-,phi+,phi-,cluster", "--grid", "16",
     "--from", "0.125", "--to", "0.75"],
    ["sweep", "--noise", "cr", "--schemes", "psi+,psi-,phi+,phi-,cluster,w", "--grid", "560",
     "--from", "0.5", "--to", "2.25", "--out", "sweep-cr.csv"],
    *(["recommend", "--noise", noise, f"--{flag}", "0.3", *w] for noise, flag in FAMILIES.items()
      for w in ([], ["--include-w"])),
    ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.5", "--hi", "0.625"],
    ["eve-sim", "--attack", "intercept"],
    ["eve-sim", "--attack", "wrong-pair", "--bell", "phi-", "--eve-pair", "23"],
    ["eve-sim", "--attack", "intercept", "--method", "mc", "--trials", "1000", "--seed", "7"],
    ["eve-sim", "--attack", "wrong-pair", "--bell", "psi-", "--eve-pair", "23", "--method", "mc",
     "--trials", "1000", "--seed", "7"],
]


def _argparse_calls(argv):
    """The parsers whose argparse parse_known_args reads argv, as cli._parse reads it, and the parse's outcome."""
    parse_known_args = argparse.ArgumentParser.parse_known_args
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", autospec=True,
                           side_effect=parse_known_args) as spy:
        outcome = _parse_outcome(cli._parse, argv)
    return [call.args[0].prog for call in spy.call_args_list], outcome


@pytest.mark.parametrize("argv", _CANONICAL)
def test_a_plain_command_line_is_read_without_argparse(argv):
    flag = next(i for i, arg in enumerate(argv) if len(arg) > 4 and arg.startswith("--"))
    assert _argparse_calls(argv) == ([], _parse_outcome(_nested_parse, argv))
    for form in [
        [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]],  # --flag=value
        [*argv, *argv[1:3]],  # a repeated flag
        [*argv[:flag], argv[flag][:-1], *argv[flag + 1:]],  # an abbreviation
        [*argv[:2], "-inf", *argv[3:]],  # a value that starts with "-" and is no number
        [*argv[:2], "-²", *argv[3:]],  # nor is "-" and a digit that \d does not match
        [*argv, "--out"],  # a missing last value
        [*argv, "-h"],
        [*argv, "stray"],
        [argv[0], "--", *argv[1:]],
    ]:
        # the whole parser parses it first; the subparser calls that follow are argparse's own
        calls, outcome = _argparse_calls(form)
        assert (calls[:1], outcome) == (["decoynoise"], _parse_outcome(_nested_parse, form)), form


@pytest.mark.parametrize("command", sorted(_PARTS))
def test_each_command_parser_has_only_what_the_direct_read_handles(command):
    # build_parser adds each table entry to argparse as it stands, and _read knows
    # only these kinds: a flag that stores one value, converted by int, float or
    # str, and a store_true flag. An entry of any other kind must fail here first.
    summary, options = cli._OPTIONS[command]
    assert summary and options
    for flag, option in options.items():
        # a flag such as -1 would make argparse read negative numbers as flags
        assert flag.startswith("--") and len(flag) > 2, flag
        if "action" in option:
            assert option["action"] == "store_true" and set(option) <= {"action", "dest", "help"}, flag
            continue
        assert set(option) <= {"type", "choices", "default", "required", "dest", "help"}, flag
        assert option.get("type", str) in (int, float, str), flag
        # a typed str default is converted by argparse when its flag is absent
        assert not ("type" in option and isinstance(option.get("default"), str)), flag
        assert "choices" not in option or all(isinstance(choice, str) for choice in option["choices"]), flag


@pytest.mark.parametrize(
    "argv,error",
    [
        (["verify-table", "--grid=--"], "argument --grid: invalid int value: '--'"),
        (["recommend", "--noise=--", "--eta", "0.3"], "argument --noise: invalid choice: '--' (choose from 'ad', 'cd', 'cr', 'pd')"),
        (["recommend", "--noise", "ad", "--eta=--"], "argument --eta: invalid float value: '--'"),
        (["eve-sim", "--attack", "intercept", "--out=--"], None),
    ],
)
def test_a_double_dash_after_equals_is_a_value(argv, error):
    # Python 3.13's reading, which _Parser gives the earlier versions too
    outcome = _parse_outcome(cli._parse, argv)
    assert outcome == _parse_outcome(_nested_parse, argv)
    assert outcome == f"error: {error}" if error else ("out", "'--'") in outcome


@pytest.mark.parametrize("argv", _WITHOUT_NUMPY)
def test_usage_errors_and_help_are_those_of_the_nested_parse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(_nested_parse, argv)


@pytest.mark.parametrize("argv", [["--help"], ["recommend", "--help"]])
def test_help_is_byte_identical_on_both_routes(argv):
    code, out = _parse_outcome(cli._parse, argv)
    assert (code, out) == _parse_outcome(_nested_parse, argv)
    assert code == 0 and out.startswith(" ".join(["usage: decoynoise", *argv[:-1]]) + " [-h]")


@pytest.mark.parametrize(
    "argv,progs",
    [
        (["recommend", "--noise", "ad", "--eta", "0.3"], []),
        (["eve-sim", "--attack", "teleport"], ["decoynoise"]),
        (["teleport"], ["decoynoise"]),
        ([], ["decoynoise"]),
    ],
)
def test_a_command_is_parsed_by_its_own_parser_alone(argv, progs):
    parse_args = argparse.ArgumentParser.parse_args
    with mock.patch.object(argparse.ArgumentParser, "parse_args", autospec=True, side_effect=parse_args) as spy:
        _parse_outcome(cli._parse, argv)
    assert [call.args[0].prog for call in spy.call_args_list] == progs


# A plain command line of each short command
_PLAIN_COMMANDS = [
    ["recommend", "--noise", "ad", "--eta", "0.3"],
    ["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.3", "--hi", "0.9"],
    ["eve-sim", "--attack", "wrong-pair", "--bell", "phi-"],
    ["recommend", "--noise", "cr", "--theta", "0.7", "--include-w"],
    ["eve-sim", "--attack", "wrong-pair"],
]


@pytest.mark.parametrize("argv", _PLAIN_COMMANDS)
def test_a_warm_command_imports_its_module_without_a_python_frame(argv):
    # "from . import name" calls importlib's _handle_fromlist, a Python function, even when the
    # module is loaded; "import decoynoise.name as name" then stays in C and calls it never
    handle_fromlist = importlib._bootstrap._handle_fromlist
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0  # loads the module that the command runs
        with mock.patch.object(importlib._bootstrap, "_handle_fromlist", side_effect=handle_fromlist) as spy:
            assert run(argv) == 0
    assert spy.call_count == 0


# Runs `python -m decoynoise` and then writes, as the last line of stderr, every module that
# the process imported: each one in sys.modules at exit that was not there at start.
_REPORT_IMPORTS = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import runpy\n"
    "try:\n"
    "    runpy.run_module('decoynoise', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('imported:', *sorted(set(sys.modules) - before), file=sys.stderr)\n"
)


def _fresh_imports(argv):
    """Exit code, stdout, stderr without the import list, and the modules a fresh `python -S -m decoynoise` imports.

    -S leaves out the site module, whose .pth files may import modules of
    their own; numpy's directory is on the path, so that a grid command runs.
    The list is read from sys.modules, since -X importtime leaves out a
    submodule imported by "from . import name" or importlib.import_module.
    """
    env = dict(_child_env(str(pathlib.Path(np.__file__).parents[1])), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-S", "-c", _REPORT_IMPORTS, *argv], env=env, capture_output=True, text=True)
    err, marker, listed = proc.stderr.rpartition("imported:")
    assert marker, proc.stderr
    return proc.returncode, proc.stdout, err, set(listed.split())


@pytest.mark.parametrize("argv", _PLAIN_COMMANDS)
def test_a_plain_command_imports_no_argparse_or_typing(argv):
    code, out, err, imports = _fresh_imports(argv)
    assert (code, err) == (0, "")
    assert out.startswith(",".join(_HEADERS[argv[0]]) + "\n")
    assert "decoynoise.cli" in imports
    assert not imports & {"argparse", "fractions", "gettext", "numpy", "re", "typing"}


# A command line of each command, and the package modules that running it imports
_RUN_MODULES = [
    (["verify-table", "--grid", "3"], {"fidelity"}),
    (["sweep", "--noise", "cd", "--grid", "3", "--schemes", "psi-,w"], {"analysis", "fidelity"}),
    (["recommend", "--noise", "cr", "--theta", "0.7", "--include-w"], {"analysis", "fidelity"}),
    (["crossover", "--a", "bb84", "--b", "psi+", "--noise", "ad", "--lo", "0.3", "--hi", "0.9"], {"analysis", "fidelity"}),
    (["eve-sim", "--attack", "intercept"], {"eavesdrop"}),
    (["eve-sim", "--attack", "wrong-pair", "--bell", "phi-", "--eve-pair", "12"], {"eavesdrop"}),
    (["eve-sim", "--attack", "wrong-pair", "--method", "mc", "--trials", "100", "--seed", "1"], {"eavesdrop"}),
]


@pytest.mark.parametrize("argv,runs", _RUN_MODULES)
def test_a_command_imports_only_the_modules_it_runs(argv, runs):
    code, out, err, imports = _fresh_imports(argv)
    assert code == 0, err
    assert out.startswith(",".join(_HEADERS[argv[0]]) + "\n")
    package = {name for name in imports if name.startswith("decoynoise.")}
    assert package == {f"decoynoise.{name}" for name in {"channels", "cli", "states", *runs}}


# Monte Carlo at 10**6 trials, which counts in parts at once on up to 2 usable CPUs
_PARALLEL_MC = [["eve-sim", "--attack", attack, "--method", "mc", "--trials", "1000000", "--seed", "5"]
                for attack in ("wrong-pair", "intercept")]


@pytest.mark.parametrize("argv", _PARALLEL_MC)
def test_monte_carlo_in_parts_imports_no_executor_or_logging(argv):
    code, out, err, imports = _fresh_imports(argv)
    assert (code, err) == (0, "")
    assert out.startswith(",".join(_HEADERS[argv[0]]) + "\n")
    assert not imports & {"concurrent.futures", "logging"}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity (Linux)")
@pytest.mark.parametrize("argv", _PARALLEL_MC)
def test_monte_carlo_prints_the_same_bytes_on_one_cpu(argv):
    # the child alone is pinned to one of the CPUs this process may use
    every = run_module(argv, capture_output=True)
    one = run_module(argv, capture_output=True, preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert (every.returncode, every.stderr, one.returncode, one.stderr) == (0, b"", 0, b"")
    assert one.stdout == every.stdout


# Each name the package exports, by the submodule that defines it
_EXPORTED = {
    "analysis": ["find_crossover", "recommend", "sweep"],
    "channels": ["FAMILIES"],
    "eavesdrop": ["AttackOutcome", "intercept_resend_bb84", "wrong_pair_bell_attack"],
    "fidelity": ["scheme_fidelity", "verify_table"],
    "states": ["SCHEMES"],
}

# Run in a process that has imported decoynoise.cli alone; an assertion that fails exits non-zero.
_RESOLVE_NAMESPACE = f"""
import importlib, sys
import decoynoise.cli
import decoynoise as pkg
assert {{name for name in sys.modules if name.startswith("decoynoise.")}} == {{
    "decoynoise.channels", "decoynoise.cli", "decoynoise.states"}}
# the submodules that benchmarks/tracing.py reads from the package, imported or not
for name in ("analysis", "channels", "cli", "eavesdrop", "fidelity", "linalg", "states"):
    assert getattr(pkg, name) is importlib.import_module("decoynoise." + name), name
exported = {_EXPORTED!r}
assert sorted(pkg.__all__) == sorted(name for names in exported.values() for name in names)
star = {{}}
exec("from decoynoise import *", star)
del star["__builtins__"]
assert sorted(star) == sorted(pkg.__all__)
for module, names in exported.items():
    for name in names:
        home = getattr(sys.modules["decoynoise." + module], name)
        assert getattr(pkg, name) is home and star[name] is home, name
try:
    pkg.PureState
except AttributeError as exc:
    assert str(exc) == "module 'decoynoise' has no attribute 'PureState'", exc
else:
    raise AssertionError("decoynoise.PureState resolved")
print("resolved")
"""


def test_the_package_namespace_resolves_after_importing_the_cli_alone():
    proc = subprocess.run([sys.executable, "-c", _RESOLVE_NAMESPACE], env=_child_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "resolved\n"), proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["recommend", "--help"], ["recommend", "--noise", "xx", "--eta", "0.3"], ["teleport"]])
def test_help_and_usage_errors_in_a_fresh_process_are_argparses(argv):
    code, out, err, imports = _fresh_imports(argv)
    assert "argparse" in imports
    with mock.patch.dict(os.environ, COLUMNS="80"):
        expected = _parse_outcome(_nested_parse, argv)
    if isinstance(expected, str):  # a usage error
        assert (code, out, err) == (1, "", expected + "\n")
    else:
        assert (code, out, err) == (*expected, "")


def test_the_readme_quickstart_runs():
    # the python block under "## Library quickstart", run as it stands; each
    # print(...) line's output is the comment line after it
    _, heading, section = (ROOT / "README.md").read_text().partition("## Library quickstart")
    _, fence, block = section.partition("```python\n")
    code = block.split("```", 1)[0]
    assert heading and fence and code.strip(), "no python code under ## Library quickstart"
    lines = code.splitlines()
    said = [after for line, after in zip(lines, [*lines[1:], ""]) if line.startswith("print(")]
    assert said and all(after.startswith("# ") for after in said), said
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [after[2:] for after in said]


def test_the_figure_script_writes_one_sweep_per_curve_file(tmp_path):
    script = ROOT / "scripts" / "make_figure_data.py"
    proc = subprocess.run([sys.executable, str(script), "--outdir", str(tmp_path), "--grid", "21"],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    curves = runpy.run_path(str(script))["CURVES"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(curves)
    for name, flags in curves.items():
        lines = (tmp_path / name).read_text().splitlines()
        schemes = flags[flags.index("--schemes") + 1].split(",")
        assert lines[0] == ",".join(SWEEP_HEADER), name
        assert len(lines) == 1 + 21 * len(schemes), name


if __name__ == "__main__":
    sweeps = [(golden, ["sweep", *args, "--grid", "5"]) for golden, args in _SWEEP_GOLDENS]
    for golden, argv in sweeps + _COMMAND_GOLDENS:
        if run([*argv, "--out", str(DATA / golden)]) != 0:
            sys.exit(f"cannot rewrite {golden}")

"""CLI behavior: CSV schemas, exit codes, determinism, stream separation."""

import contextlib
import csv
import importlib
import io
import itertools
import os
import pathlib
import re
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
from decoynoise.cli import MAX_SWEEP_VALUES, MAX_TABLE_GRID, MAX_TRIALS, REGRESSION_TOL, SWEEP_HEADER, run
from decoynoise.fidelity import FidelityReport, grid_report

fidelity_mod = importlib.import_module("decoynoise.fidelity")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_module(args, **kwargs):
    """`python -m decoynoise *args` in a child process that imports this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "decoynoise", *args], env=env, **kwargs)


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
    report = grid_report(label, noise, np.linspace(*parameter_range(noise), 5))
    assert float(param) == report.grid[np.argmax(np.abs(report.simulated - report.closed_form))]


def test_verify_table_flags_perturbed_closed_form(monkeypatch, capsys):
    true_form = fidelity_mod.closed_form_grid

    def skewed(scheme, family, grid):
        value = true_form(scheme, family, grid)
        if scheme == "cluster" and family == "ad":
            value += 1e-6
        return value

    monkeypatch.setattr("decoynoise.fidelity.closed_form_grid", skewed)
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


def _reference_sweep_csv(reports):
    """A sweep's CSV formatted value by value, with no block and no dedupe."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for report in reports:
        columns, tail = [report.grid, report.simulated], [itertools.repeat("")] * 2
        if report.closed_form is not None:
            columns, tail = columns + [report.closed_form, abs(report.simulated - report.closed_form)], []
        lead = [itertools.repeat(report.scheme), itertools.repeat(report.noise)]
        writer.writerows(zip(*lead, *(map(repr, column.tolist()) for column in columns), *tail))
    return out.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    noise=st.sampled_from(sorted(FAMILIES)),
    labels=st.lists(st.sampled_from(["bb84", "psi+", "psi-", "phi+", "phi-", "cluster", "w"]),
                    min_size=1, max_size=7, unique=True),
    grid=st.integers(2, 9),
)
def test_sweep_rows_do_not_depend_on_the_write_block(noise, labels, grid):
    expected = _reference_sweep_csv(analysis.sweep(analysis.SweepSpec(tuple(labels), noise, *parameter_range(noise), grid)))
    assert len(expected.splitlines()) == 1 + len(labels) * grid
    # 3 rows split a report of more than 3 points, 7 hold one whole report of
    # up to 7, 14 two, and the default all of them
    for block in (3, 7, 14, cli.CSV_ROWS):
        out = io.StringIO()
        with mock.patch.object(cli, "CSV_ROWS", block), contextlib.redirect_stdout(out):
            assert run(["sweep", "--noise", noise, "--schemes", ",".join(labels), "--grid", str(grid)]) == 0
        assert out.getvalue() == expected, block


def test_sweep_formats_each_float_by_its_bits():
    # value-equal but distinct floats must each print their own repr
    above = float(np.nextafter(0.5, 1.0))
    grid = [0.0, -0.0, 0.5, above]
    reports = [
        FidelityReport("psi+", "ad", grid, [-0.0, 0.0, above, 0.5], [0.0, -0.0, 0.5, 0.5]),
        FidelityReport("w", "ad", grid, [0.0, -0.0, 0.5, above], None),
    ]
    rows = [list(row) for row in itertools.chain.from_iterable(cli._sweep_blocks(reports))]
    assert rows[1:] == [
        ["psi+", "ad", "0.0", "-0.0", "0.0", "0.0"],
        ["psi+", "ad", "-0.0", "0.0", "-0.0", "0.0"],
        ["psi+", "ad", "0.5", repr(above), "0.5", repr(above - 0.5)],
        ["psi+", "ad", repr(above), "0.5", "0.5", "0.0"],
        ["w", "ad", "0.0", "0.0", "", ""],
        ["w", "ad", "-0.0", "-0.0", "", ""],
        ["w", "ad", "0.5", "0.5", "", ""],
        ["w", "ad", repr(above), repr(above), "", ""],
    ]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    assert text.getvalue() == _reference_sweep_csv(reports)


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
    true_form = fidelity_mod.closed_form_grid
    monkeypatch.setattr("decoynoise.fidelity.closed_form_grid", lambda s, f, g: true_form(s, f, g) + 1e-6)
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
    def write_then_fail(stream, rows):
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


@pytest.mark.parametrize(
    "golden,args",
    [
        ("ad_sweep_golden.csv", ["--noise", "ad", "--schemes", "bb84,psi+,phi+,cluster"]),
        ("cr_sweep_golden.csv", ["--noise", "cr", "--schemes", "psi-,cluster,w"]),
        ("pd_sweep_golden.csv", ["--noise", "pd", "--schemes", "bb84,psi+,psi-,phi+,phi-,cluster,w"]),
        ("cd_sweep_golden.csv", ["--noise", "cd", "--schemes", "bb84,psi+,psi-,phi+,phi-,cluster,w"]),
        ("ad_rest_sweep_golden.csv", ["--noise", "ad", "--schemes", "psi-,phi-,w"]),
        ("cr_rest_sweep_golden.csv", ["--noise", "cr", "--schemes", "bb84,psi+,phi+,phi-"]),
    ],
)
def test_sweep_matches_golden_file(tmp_path, golden, args):
    # regenerate with `decoynoise sweep ... --grid 5 --out tests/data/<name>`
    # if the numeric stack ever changes the last float digits
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *args, "--grid", "5", "--out", str(out)]) == 0
    expected = pathlib.Path(__file__).parent / "data" / golden
    assert out.read_bytes() == expected.read_bytes()


_TWO_PI = "6.283185307179586"


@pytest.mark.parametrize(
    "golden,argv",
    [
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
    ],
)
def test_command_matches_golden_file(capsys, golden, argv):
    # regenerate with `decoynoise <argv> --out tests/data/<name>`, as for the sweeps
    assert run(argv) == 0
    expected = pathlib.Path(__file__).parent / "data" / golden
    assert capsys.readouterr().out == expected.read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["recommend", "--noise", "cd", "--phi", "inf"],
        ["recommend", "--noise", "cr", "--theta", "nan"],
        ["sweep", "--noise", "cd", "--from=-inf", "--to", "1"],
        # finite ends whose difference is not: linspace would warn and give NaN
        ["sweep", "--noise", "cd", "--from=-1e308", "--to=1e308"],
    ],
)
def test_non_finite_parameters_fail_cleanly(args):
    proc = run_module(args, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "Warning" not in proc.stderr


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
    """[] or ["--flag=value"]; the = form lets negative numbers parse."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name] + [arg for part in drawn for arg in part])


def _noise_setting(noise, value, flag):
    # flag None stands for the flag the noise family takes
    return [f"--noise={noise}", f"{flag or _PARAM_FLAG[noise]}={value}"]


def _bracket(lo, hi, ordered):
    lo, hi = sorted((lo, hi)) if ordered else (lo, hi)
    return [f"--lo={lo}", f"--hi={hi}"]


_ARGV = {
    "verify-table": _command("verify-table", _maybe("--grid", _sizes(MAX_TABLE_GRID))),
    "sweep": _command(
        "sweep",
        _NOISES.map(lambda noise: [f"--noise={noise}"]),
        _maybe("--schemes", st.lists(_SCHEMES, max_size=8).map(",".join)),
        _maybe("--grid", _sizes(MAX_SWEEP_VALUES)),
        _maybe("--from", _FLOATS),
        _maybe("--to", _FLOATS),
    ),
    "recommend": _command(
        "recommend",
        st.builds(_noise_setting, _NOISES, _FLOATS, st.sampled_from([None, None, "--eta", "--phi", "--theta"])),
        st.sampled_from([[], ["--include-w"]]),
    ),
    "crossover": _command(
        "crossover",
        _SCHEMES.map(lambda a: [f"--a={a}"]),
        _SCHEMES.map(lambda b: [f"--b={b}"]),
        _NOISES.map(lambda noise: [f"--noise={noise}"]),
        st.builds(_bracket, _FLOATS, _FLOATS, st.sampled_from([True, True, True, False])),
    ),
    "eve-sim": _command(
        "eve-sim",
        st.sampled_from(["intercept", "wrong-pair", "intercept", "wrong-pair", "swap"]).map(
            lambda attack: [f"--attack={attack}"]
        ),
        _maybe("--bell", _SCHEMES),
        _maybe("--eve-pair", st.sampled_from(["12", "23", "13"])),
        _maybe("--method", st.sampled_from(["exact", "mc"])),
        _maybe("--trials", _sizes(MAX_TRIALS)),
        _maybe("--seed", st.integers(-1, 2**64)),
    ),
}


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
        # the hand-joined lines are what csv.writer writes for the parsed rows
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        assert text.getvalue() == out

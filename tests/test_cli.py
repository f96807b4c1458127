"""CLI behavior: CSV schemas, exit codes, determinism, stream separation."""

import importlib
import subprocess
import sys

import pytest

from decoynoise.channels import AmplitudeDamping
from decoynoise.cli import REGRESSION_TOL, SWEEP_HEADER, run
from decoynoise.states import Cluster

fidelity_mod = importlib.import_module("decoynoise.fidelity")


def test_verify_table_passes_and_reports_every_cell(capsys):
    code = run(["verify-table", "--grid", "5"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,noise,max_abs_deviation"
    assert len(lines) == 1 + 24
    assert "worst deviation" in err
    for line in lines[1:]:
        assert float(line.split(",")[2]) < REGRESSION_TOL


def test_verify_table_flags_perturbed_closed_form(monkeypatch, capsys):
    true_form = fidelity_mod.closed_form

    def skewed(scheme, noise):
        value = true_form(scheme, noise)
        if isinstance(scheme, Cluster) and isinstance(noise, AmplitudeDamping):
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


def test_recommend_needs_the_right_parameter_flag(capsys):
    assert run(["recommend", "--noise", "cr"]) == 1
    _, err = capsys.readouterr()
    assert "--theta" in err
    assert run(["recommend", "--noise", "cr", "--eta", "0.5"]) == 1
    _, err = capsys.readouterr()
    assert "--eta" in err


def test_recommend_output(capsys):
    code = run(["recommend", "--noise", "cr", "--theta", "0.7"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,scheme,fidelity"
    top = [line for line in lines[1:] if line.startswith("1,")]
    assert {line.split(",")[1] for line in top} == {"psi+", "phi-"}


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


def test_eve_sim_mc_requires_seed(capsys):
    code = run(["eve-sim", "--attack", "intercept", "--method", "mc"])
    _, err = capsys.readouterr()
    assert code == 1 and "--seed" in err


def test_eve_sim_mc_deterministic(capsys):
    args = ["eve-sim", "--attack", "wrong-pair", "--method", "mc",
            "--trials", "20000", "--seed", "123"]
    assert run(args) == 0
    first, _ = capsys.readouterr()
    assert run(args) == 0
    second, _ = capsys.readouterr()
    assert first == second


def test_missing_command_is_bad_usage(capsys):
    assert run([]) == 1
    _, err = capsys.readouterr()
    assert "error" in err


@pytest.mark.parametrize(
    "golden,args",
    [
        ("ad_sweep_golden.csv", ["--noise", "ad", "--schemes", "bb84,psi+,phi+,cluster"]),
        ("cr_sweep_golden.csv", ["--noise", "cr", "--schemes", "psi-,cluster,w"]),
    ],
)
def test_sweep_matches_golden_file(tmp_path, golden, args):
    # regenerate with `decoynoise sweep ... --grid 5 --out tests/data/<name>`
    # if the numeric stack ever changes the last float digits
    import pathlib

    out = tmp_path / "sweep.csv"
    assert run(["sweep", *args, "--grid", "5", "--out", str(out)]) == 0
    expected = pathlib.Path(__file__).parent / "data" / golden
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["recommend", "--noise", "cd", "--phi", "inf"],
        ["recommend", "--noise", "cr", "--theta", "nan"],
        ["sweep", "--noise", "cd", "--from=-inf", "--to", "1"],
    ],
)
def test_non_finite_parameters_fail_cleanly(args):
    proc = subprocess.run([sys.executable, "-m", "decoynoise", *args], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "Warning" not in proc.stderr


def test_module_entrypoint_keeps_streams_separate():
    proc = subprocess.run(
        [sys.executable, "-m", "decoynoise", "verify-table", "--grid", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("scheme,noise,max_abs_deviation")
    assert "worst deviation" in proc.stderr
    assert "worst deviation" not in proc.stdout

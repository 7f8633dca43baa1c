"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from csspair import BitMatrix, load_css, repeater, save_css
from csspair.cli import main
from csspair.sampling import scramble_encoding

import numpy as np


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_cnot_pair7(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "check-cnot",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_station_b.code"),
                           "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["oracle"]["ok"] is True
    assert payload["oracle"]["max_amplitude_deviation"] < 1e-12
    assert payload["checker_oracle_agree"] is True
    assert payload["codes"]["a"]["logical_x"] == ["0011011", "1011100"]


def test_check_cnot_strict_mode_flag(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "check-cnot",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_station_b.code"),
                           "--mode", "strict")
    assert code == 0
    assert json.loads(out)["conditions"]["A_eq_B"] is True


def test_check_cnot_counterexample_exits_1(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "check-cnot",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_counterexample_b.code"))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["conditions"]["k_match"] is False
    assert payload["details"] == {"k_a": 2, "k_b": 1, "n": 7}


def test_check_cz_with_sufficient(capsys, fixtures_dir, tmp_path):
    code, out, _ = run_cli(capsys, "mirror",
                           str(fixtures_dir / "mirror7_z_checks.mat"),
                           str(fixtures_dir / "mirror7_x_checks.mat"),
                           "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing_ABt"] == ["10", "01"]
    assert payload["cz_check"]["verdict"] is True
    code, out, _ = run_cli(capsys, "check-cz",
                           str(tmp_path / "mirrored_a.code"),
                           str(tmp_path / "mirrored_b.code"),
                           "--oracle", "--sufficient")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["oracle"]["ok"] is True
    assert payload["sufficient"]["verdict"] is True


def test_mirror_rejects_bad_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("# format=1\n1 3\n110\n")
    other = tmp_path / "other.mat"
    other.write_text("# format=1\n1 3\n100\n")
    code, _, err = run_cli(capsys, "mirror", str(bad), str(other),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "orthogonal" in err


def test_malformed_matrix_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("[C1]\n2 3\n10\n")
    good = tmp_path / "good.code"
    good.write_text("[C1]\n1 3\n111\n[C2]\n3 3\n100\n010\n001\n")
    code, _, err = run_cli(capsys, "check-cnot", str(bad), str(good))
    assert code == 2
    assert "line" in err


def test_capacity_error_exits_3(capsys, tmp_path):
    big = tmp_path / "big.mat"
    rows = ["".join("1" if i == j else "0" for j in range(21)) for i in range(21)]
    big.write_text("21 21\n" + "\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "distance", str(big))
    assert code == 3
    assert "capacity" in err


def test_distance_classical(capsys, tmp_path):
    mat = tmp_path / "ham.mat"
    mat.write_text("4 7\n1000011\n0100101\n0010110\n0001111\n")
    code, out, _ = run_cli(capsys, "distance", str(mat))
    assert code == 0
    assert json.loads(out) == {"format": 1, "n": 7, "k": 4, "d": 3}


def test_distance_css(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "distance", str(fixtures_dir / "steane.code"), "--css")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (7, 1, 3)


def test_verify_agreement(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "verify",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_station_b.code"))
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["cnot"]["checker_oracle_agree"] is True
    assert payload["cz"]["checker_oracle_agree"] is True


def test_simulate_zero_noise(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "simulate", str(fixtures_dir / "sim_zero_noise.cfg"))
    assert code == 0
    payload = json.loads(out)
    assert payload["logical_fidelity"] == 1.0
    assert payload["raw_pairs_N"] == 16
    assert payload["mode"] == "exact"


def test_simulate_sweep_csv_monotone(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "simulate", str(fixtures_dir / "sim_zero_noise.cfg"),
                           "--sweep", "f1=0:0.02:0.005")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("f1,f2,f3,mode")
    fids = [float(line.split(",")[6]) for line in lines[1:]]
    assert len(fids) == 5
    assert all(a >= b for a, b in zip(fids, fids[1:]))


def test_simulate_montecarlo_echoes_seed(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "simulate", str(fixtures_dir / "sim_pair7_mc.cfg"))
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 20240817
    assert payload["samples"] == 100_000
    assert payload["standard_error"] > 0


def test_simulate_montecarlo_draws_seed_without_one(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(
        f"codeA={fixtures_dir / 'steane.code'}\n"
        f"codeB={fixtures_dir / 'steane.code'}\n"
        "f2=0.01\nmode=montecarlo\nsamples=1000\n"
    )
    code, out, _ = run_cli(capsys, "simulate", str(cfg))
    assert code == 0
    assert isinstance(json.loads(out)["seed"], int)


def test_find_encoding_roundtrip(capsys, fixtures_dir, tmp_path):
    rng = np.random.default_rng(3)
    qa = scramble_encoding(rng, load_css(fixtures_dir / "pair7_station_a.code"))
    qb = scramble_encoding(rng, load_css(fixtures_dir / "pair7_station_b.code"))
    pa, pb = tmp_path / "a.code", tmp_path / "b.code"
    save_css(qa, pa)
    save_css(qb, pb)
    code, out, _ = run_cli(capsys, "find-encoding", str(pa), str(pb), "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["oracle"]["ok"] is True


def test_find_encoding_reports_absence(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "find-encoding",
                           str(fixtures_dir / "pair7_station_b.code"),
                           str(fixtures_dir / "pair7_station_a.code"))
    assert code == 1
    assert json.loads(out)["found"] is False


def test_pretty_rendering(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "--pretty", "check-cnot",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_station_b.code"))
    assert code == 0
    assert "verdict: True" in out


def test_out_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "check-cnot",
                           str(fixtures_dir / "pair7_station_a.code"),
                           str(fixtures_dir / "pair7_station_b.code"))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] is True


def test_reports_byte_identical_across_runs(capsys, fixtures_dir):
    commands = [
        ("check-cnot", str(fixtures_dir / "pair7_station_a.code"),
         str(fixtures_dir / "pair7_station_b.code"), "--oracle"),
        ("simulate", str(fixtures_dir / "sim_pair7.cfg")),
        ("simulate", str(fixtures_dir / "sim_pair7_mc.cfg")),
    ]
    for argv in commands:
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1.encode() == out2.encode(), argv[0]


def test_module_entry_point(fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "csspair", "check-cnot",
         str(fixtures_dir / "pair7_station_a.code"),
         str(fixtures_dir / "pair7_station_b.code")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


def test_simulate_nan_noise_exits_2(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        f"codeA={fixtures_dir / 'steane.code'}\n"
        f"codeB={fixtures_dir / 'steane.code'}\n"
        "f1=nan\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_reports_never_emit_nan(capsys, fixtures_dir, monkeypatch):
    real = repeater.run_local_swapping

    def nan_fidelity(cfg):
        return replace(real(cfg), logical_fidelity=float("nan"))

    monkeypatch.setattr(repeater, "run_local_swapping", nan_fidelity)
    code, out, _ = run_cli(capsys, "simulate", str(fixtures_dir / "sim_zero_noise.cfg"))
    assert code == 2
    assert "NaN" not in out

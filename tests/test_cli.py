"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import resource
import subprocess
import sys
from dataclasses import replace

import pytest

from csspair import BitMatrix, cli, load_css, repeater, save_css
from csspair.cli import main
from csspair.sampling import random_cnot_pair, scramble_encoding

from conftest import x_checked_code

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


def test_check_cz_oracle_pass_reports_exact_basis_pairs(capsys, fixtures_dir):
    # Steane with itself, k = 1: a pass reads 4^k basis pairs and no deviation.
    steane = str(fixtures_dir / "steane.code")
    code, out, _ = run_cli(capsys, "check-cz", "--oracle", steane, steane)
    assert code == 0
    assert json.loads(out)["oracle"] == {"max_amplitude_deviation": 0.0, "ok": True,
                                         "pairs_checked": 4, "witness": None}


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


def test_distance_rejects_content_after_the_matrix(capsys, tmp_path):
    mat = tmp_path / "rep.mat"
    mat.write_text("1 3\n111\njunk\n")
    code, out, err = run_cli(capsys, "distance", str(mat))
    assert code == 2
    assert out == ""
    assert "line 3" in err


@pytest.mark.parametrize("command", [["verify"], ["check-cnot", "--oracle"],
                                     ["find-encoding", "--check"]])
@pytest.mark.parametrize("body, where", [
    ("[C1]\n1 3\n111\njunk\n", " line 4: unexpected content 'junk'"),
    ("[C1]\n1 3\n100\n[C2]\n1 3\n100\n", ": not a CSS pair"),
])
def test_bad_second_code_file_is_named(capsys, fixtures_dir, tmp_path, command, body, where):
    bad = tmp_path / "bad.code"
    bad.write_text(body)
    code, out, err = run_cli(capsys, command[0], str(fixtures_dir / "steane.code"), str(bad),
                             *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}{where}")


def test_mirror_names_bad_second_matrix(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("# format=1\n2 7\n1100100\n11x0010\n")
    code, out, err = run_cli(capsys, "mirror", str(fixtures_dir / "mirror7_z_checks.mat"),
                             str(bad), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} line 4: bad matrix row '11x0010'")
    assert not (tmp_path / "out").exists()


def test_capacity_error_exits_3(capsys, tmp_path):
    big = tmp_path / "big.mat"
    rows = ["".join("1" if i == j else "0" for j in range(21)) for i in range(21)]
    big.write_text("21 21\n" + "\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "distance", str(big))
    assert code == 3
    assert "capacity" in err


def test_oracle_capacity_exits_3(capsys, tmp_path):
    qa, qb = random_cnot_pair(np.random.default_rng(4), 13)  # 2^25 joint entries
    save_css(qa, tmp_path / "a.code")
    save_css(qb, tmp_path / "b.code")
    for argv in (["check-cnot", "--oracle"], ["check-cz", "--oracle"], ["verify"]):
        code, out, err = run_cli(capsys, argv[0], str(tmp_path / "a.code"),
                                 str(tmp_path / "b.code"), *argv[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("capacity error: the oracle needs")


def test_decoder_capacity_exits_3(capsys, tmp_path):
    # 28 X checks on 29 qubits: the Z-error decoder would span 2^28 syndromes.
    save_css(x_checked_code(29, 28), tmp_path / "a.code")
    cfg = tmp_path / "big.cfg"
    cfg.write_text("codeA=a.code\ncodeB=a.code\nf1=0.01\nmode=montecarlo\nsamples=1000\nseed=1\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 3
    assert out == ""
    assert err.startswith("capacity error: the coset-leader search needs")


def test_distance_classical(capsys, tmp_path):
    mat = tmp_path / "ham.mat"
    mat.write_text("4 7\n1000011\n0100101\n0010110\n0001111\n")
    code, out, _ = run_cli(capsys, "distance", str(mat))
    assert code == 0
    assert json.loads(out) == {"format": 1, "n": 7, "k": 4, "d": 3}


def test_distance_of_matrix_without_rows_names_the_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.mat").write_text("0 4\n")
    code, out, err = run_cli(capsys, "distance", "zero.mat")
    assert code == 2
    assert out == ""
    assert err == "error: zero.mat: a classical code needs at least one generator row\n"


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


def test_simulate_sweep_refuses_pretty_before_any_point(capsys, fixtures_dir, monkeypatch):
    def no_point(cfg):
        raise AssertionError("a point ran")

    monkeypatch.setattr(repeater, "run_local_swapping", no_point)
    code, out, err = run_cli(capsys, "--pretty", "simulate",
                             str(fixtures_dir / "sim_zero_noise.cfg"), "--sweep", "f1=0:0.02:0.005")
    assert code == 2
    assert out == ""
    assert err == "error: --pretty does not apply to --sweep, which prints CSV\n"


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


@pytest.mark.parametrize("body, line", [
    (["jobs=0"], 2),
    (["mode=montecarlo", "", "samples=0"], 4),
    (["mode=montecarlo"], 2),
    (["mode=fast"], 2),
    (["f1=x"], 2),
    (["f1=0.6", "# B's share", "f2=0.6", "f3=0"], 4),
    (["seed=-1"], 2),
    (["mode=montecarlo", "samples=10", "seed=-1"], 4),
    (["override=ture"], 2),
    (["override="], 2),
    (["N=-3"], 2),
    (["f1=0.01", "samples=-7"], 3),
])
def test_simulate_bad_config_value_names_its_line(capsys, fixtures_dir, tmp_path, body, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(["# a link", *body,
                              f"codeA={fixtures_dir / 'steane.code'}",
                              f"codeB={fixtures_dir / 'steane.code'}"]) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 2
    assert out == ""
    assert f"line {line}: bad config value" in err


@pytest.mark.parametrize("body, key, line", [
    (["f1=0.01", "f1=0.5", "f1=0.02"], "f1", 4),
    (["f1=0.01", "codea=steane.code"], "codea", 4),
])
def test_simulate_duplicate_config_key_names_its_line(capsys, fixtures_dir, tmp_path,
                                                      body, key, line):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("\n".join(["# a link", f"codeA={fixtures_dir / 'steane.code'}", *body,
                              f"codeB={fixtures_dir / 'steane.code'}"]) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: line {line}: duplicate config key {key!r}\n"


def _sweep_in_capped_child(fixtures_dir, spec):
    # A child process with a timeout and a 1 GiB address space: a sweep that never
    # ends fails its test instead of hanging the suite or filling memory.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "csspair", "simulate", str(fixtures_dir / "sim_zero_noise.cfg"),
         f"--sweep={spec}"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )


@pytest.mark.parametrize("spec, why", [
    ("f1=-inf:0:1", "must be finite"),
    ("f1=-1e300:0:1", "must lie in [0, 1]"),
    ("f1=0.5:0.6:1e-17", "vanishes in rounding"),
    ("f1=nan:1:0.5", "must be finite"),
    ("f1=0:0.02:nan", "must be finite"),
    # stop + step != stop here, but 0.5 + step rounds back to 0.5 (a tie, to even).
    ("f1=0.5:0.6:5.551115123125783e-17", "vanishes in rounding"),
    ("f1=0:1.5:0.5", "must lie in [0, 1]"),
    ("f1=0.5:0.1:0.1", "start must not exceed stop"),
])
def test_simulate_sweep_that_cannot_end_exits_2(fixtures_dir, spec, why):
    proc = _sweep_in_capped_child(fixtures_dir, spec)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: bad sweep argument {spec!r}: ")
    assert why in proc.stderr


def test_simulate_huge_sweep_exits_3_before_listing_points(fixtures_dir):
    proc = _sweep_in_capped_child(fixtures_dir, "f1=0:1:1e-12")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("capacity error: sweep 'f1=0:1:1e-12' has ")


@pytest.mark.parametrize("spec, points", [("f1=0:0.3:0.1", 4), ("f1=0:0.4:0.1", 5)])
def test_simulate_sweep_point_limit(capsys, fixtures_dir, monkeypatch, spec, points):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 4)
    code, out, err = run_cli(capsys, "simulate", str(fixtures_dir / "sim_zero_noise.cfg"),
                             "--sweep", spec)
    if points <= 4:
        assert code == 0 and len(out.splitlines()) == 1 + points
    else:
        assert code == 3 and out == ""
        assert err == f"capacity error: sweep {spec!r} has {points} points; the limit is 4\n"


def test_simulate_sweep_leaving_the_simplex_runs_no_point(capsys, fixtures_dir, monkeypatch):
    ran = []
    monkeypatch.setattr(repeater, "run_local_swapping", lambda cfg: ran.append(cfg))
    code, out, err = run_cli(capsys, "simulate", str(fixtures_dir / "sim_steane.cfg"),
                             "--sweep", "f1=0:1:0.05")
    assert (code, out, ran) == (2, "", [])
    assert err == ("error: bad sweep argument 'f1=0:1:0.05': at f1 = 1.0, "
                   "f1 + f2 + f3 must not exceed 1\n")


def test_simulate_jobs_zero_exits_2(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "simulate", str(fixtures_dir / "sim_pair7_mc.cfg"),
                             "--jobs", "0")
    assert (code, out, err) == (2, "", "error: jobs must be >= 1\n")


def test_reports_never_emit_nan(capsys, fixtures_dir, monkeypatch):
    real = repeater.run_local_swapping

    def nan_fidelity(cfg):
        return replace(real(cfg), logical_fidelity=float("nan"))

    monkeypatch.setattr(repeater, "run_local_swapping", nan_fidelity)
    code, out, _ = run_cli(capsys, "simulate", str(fixtures_dir / "sim_zero_noise.cfg"))
    assert code == 2
    assert "NaN" not in out


@pytest.mark.parametrize("body, where", [
    ("[C1]\n1 3\n111\njunk\n", "bad.code line 4: unexpected content 'junk'"),
    ("[C1]\n1 3\n100\n[C2]\n1 3\n100\n", "bad.code: not a CSS pair"),
    ("", "bad.code: missing required section [C1]"),
    ("# nothing here\n", "bad.code line 1: missing required section [C1]"),
])
def test_simulate_bad_code_file_names_file_and_config_line(capsys, fixtures_dir, tmp_path,
                                                           body, where):
    (tmp_path / "bad.code").write_text(body)
    cfg = tmp_path / "link.cfg"
    cfg.write_text("\n".join(["# a link", "f1=0.01", "", f"codeA={fixtures_dir / 'steane.code'}",
                              "", "codeB=bad.code"]) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line 6: codeB=bad.code: {where}")


@pytest.mark.parametrize("body", [[], ["codeA=steane.code"], ["f1=0.01", "codeB=steane.code"]])
def test_simulate_missing_code_key_gives_no_line(capsys, fixtures_dir, tmp_path, body):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("\n".join(body) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: missing config key code")



@pytest.mark.parametrize("command", ["distance", "verify", "mirror", "simulate", "simulate-code"])
def test_non_utf8_file_is_named_at_its_line(capsys, fixtures_dir, tmp_path, command):
    """The undecodable file is named with the line of its first bad byte; a code file
    a config names also gets the config key's line."""
    mat = tmp_path / "bin.mat"
    mat.write_bytes(b"\xff\xfe1 3\n111\n")
    code_file = tmp_path / "bin.code"
    code_file.write_bytes(b"[C1]\n1 3\n111\n\xe9\n")
    steane = fixtures_dir / "steane.code"
    bad_cfg = tmp_path / "bin.cfg"
    bad_cfg.write_bytes(f"codeA={steane}\n# \x80\n".encode("latin-1"))
    cfg = tmp_path / "link.cfg"
    cfg.write_text(f"codeA={steane}\n\ncodeB=bin.code\n")
    argv, message = {
        "distance": (["distance", mat], f"{mat} line 1: not UTF-8 text (byte 0xff)"),
        "verify": (["verify", steane, code_file], f"{code_file} line 4: not UTF-8 text (byte 0xe9)"),
        "mirror": (["mirror", fixtures_dir / "mirror7_z_checks.mat", mat, "--out-dir",
                    tmp_path / "out"], f"{mat} line 1: not UTF-8 text (byte 0xff)"),
        "simulate": (["simulate", bad_cfg], f"{bad_cfg} line 2: not UTF-8 text (byte 0x80)"),
        "simulate-code": (["simulate", cfg],
                          "line 3: codeB=bin.code: bin.code line 4: not UTF-8 text (byte 0xe9)"),
    }[command]
    code, out, err = run_cli(capsys, *map(str, argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, key, line", [
    (["samples=5"], "samples", 2),
    (["seed=3"], "seed", 2),
    (["jobs=4"], "jobs", 2),
    (["mode=exact", "f1=0.01", "jobs=4"], "jobs", 4),
    (["samples=5", "seed=3", "jobs=4", "mode=exact"], "samples", 5),
])
def test_simulate_exact_config_refuses_montecarlo_settings(capsys, fixtures_dir, tmp_path,
                                                           body, key, line):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("\n".join(["# a link", *body,
                              f"codeA={fixtures_dir / 'steane.code'}",
                              f"codeB={fixtures_dir / 'steane.code'}"]) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: line {line}: bad config value: {key} applies to montecarlo mode only\n"


def test_simulate_jobs_on_exact_config_runs_no_point(capsys, fixtures_dir, monkeypatch):
    ran = []
    monkeypatch.setattr(repeater, "run_local_swapping", lambda cfg: ran.append(cfg))
    code, out, err = run_cli(capsys, "simulate", str(fixtures_dir / "sim_pair7.cfg"),
                             "--jobs", "2")
    assert (code, out, err, ran) == (2, "", "error: jobs applies to montecarlo mode only\n", [])


def test_simulate_has_no_allow_nontransversal_flag(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fixtures_dir / "sim_pair7.cfg"), "--allow-nontransversal"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-nontransversal" in capsys.readouterr().err


def test_simulate_override_is_the_way_past_the_cnot_check(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "mismatch.cfg"
    link = (f"codeA={fixtures_dir / 'pair7_station_b.code'}\n"
            f"codeB={fixtures_dir / 'pair7_station_a.code'}\nf1=0.01\n")
    cfg.write_text(link)
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: codes are not pairwise CNOT-transversal; set override=1 to simulate anyway\n"
    cfg.write_text(link + "override=1\n")
    code, out, _ = run_cli(capsys, "simulate", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["transversality_verdict"] is False
    assert payload["notes"] == ["pair is not CNOT-transversal; simulated under override"]

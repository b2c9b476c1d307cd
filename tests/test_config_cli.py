"""Scenario-file parsing and the command-line front end."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from detuned_tls import (
    ConfigError,
    audit_point,
    build_system_spec,
    parse_config,
)
from detuned_tls import cli, thermo
from detuned_tls import gain as gain_mod
from detuned_tls.cli import FLUX_COLUMNS, main
from detuned_tls.config import config_from_system_spec, format_number, resolve_parameter_key
from detuned_tls.model import SCENARIO_KEYS

CLASSICAL_CFG = """\
# resonant scenario
e_upper = 1.0
e_lower = 0.0
drive.omega = 1.0          # matches the gap
drive.epsilon = 0.1
reservoir_u.gamma = 0.3
reservoir_u.mu = 1.2
reservoir_u.temperature = 0.2
reservoir_u.occupation = effective
reservoir_l.gamma = 0.2
reservoir_l.mu = 0.0
reservoir_l.temperature = 0.2
reservoir_l.occupation = effective
"""

QUANTUM_CFG = """\
e_upper = 1.0
e_lower = 0.0
cavity.omega_cav = 1.2
cavity.g = 0.04
cavity.fock_cutoff = 10
reservoir_u.gamma = 0.3
reservoir_u.mu = 0.9
reservoir_u.temperature = 0.2
reservoir_u.occupation = fixed:0.7
reservoir_l.gamma = 0.2
reservoir_l.mu = 0.1
reservoir_l.temperature = 0.2
reservoir_l.occupation = fixed:0.2
bath.gamma = 0.25
bath.temperature = 0.3
bath.occupation = fixed:0.1
"""

LASER_CFG = """\
e_upper = 1.0
e_lower = 0.0
cavity.omega_cav = 1.2
cavity.g = 0.35
reservoir_u.gamma = 0.4
reservoir_u.mu = 1.2
reservoir_u.temperature = 0.2
reservoir_u.occupation = fixed:0.95
reservoir_l.gamma = 0.4
reservoir_l.mu = 0.0
reservoir_l.temperature = 0.2
reservoir_l.occupation = fixed:0.05
bath.gamma = 0.25
bath.temperature = 0.2
bath.occupation = fixed:0.0
"""


def test_parse_keeps_value_text_in_canonical_key_order():
    cfg = parse_config(CLASSICAL_CFG)
    assert list(cfg) == [key for key in SCENARIO_KEYS if key in cfg]
    assert cfg["drive.omega"] == "1.0"  # the comment and the spaces are gone
    reordered = parse_config("".join(f"{key} = {value}\n" for key, value in reversed(cfg.items())))
    assert list(reordered.items()) == list(cfg.items())


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("e_upper = 1.0\nmystery = 2\n")
    assert err.value.line == 2
    assert "mystery" in str(err.value)


def test_parse_rejects_duplicates_and_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_config("e_upper = 1.0\ne_upper = 2.0\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("e_upper =\n")


def test_build_spec_requires_complete_sections():
    with pytest.raises(ConfigError) as err:
        build_system_spec(parse_config("e_upper = 1.0\ne_lower = 0.0\ndrive.omega = 1.0\n"))
    assert "reservoir_u" in str(err.value)

    incomplete_drive = CLASSICAL_CFG.replace("drive.epsilon = 0.1\n", "")
    with pytest.raises(ConfigError) as err:
        build_system_spec(parse_config(incomplete_drive))
    assert "drive.epsilon" in str(err.value)


def test_build_spec_reports_semantic_errors_as_config_errors():
    swapped = CLASSICAL_CFG.replace("e_upper = 1.0", "e_upper = -2.0")
    with pytest.raises(ConfigError):
        build_system_spec(parse_config(swapped))
    bad_occ = CLASSICAL_CFG.replace("reservoir_u.occupation = effective",
                                    "reservoir_u.occupation = sometimes")
    with pytest.raises(ConfigError):
        build_system_spec(parse_config(bad_occ))


def test_spec_config_round_trip():
    spec = build_system_spec(parse_config(QUANTUM_CFG))
    cfg = config_from_system_spec(spec)
    assert build_system_spec(cfg) == spec


def test_resolve_parameter_key_suffix_match():
    assert resolve_parameter_key("omega_cav") == "cavity.omega_cav"
    assert resolve_parameter_key("drive.omega") == "drive.omega"
    with pytest.raises(ConfigError):
        resolve_parameter_key("gamma")  # ambiguous
    with pytest.raises(ConfigError):
        resolve_parameter_key("nope")


@pytest.fixture()
def classical_cfg_file(tmp_path):
    path = tmp_path / "classical.cfg"
    path.write_text(CLASSICAL_CFG)
    return path


@pytest.fixture()
def quantum_cfg_file(tmp_path):
    path = tmp_path / "quantum.cfg"
    path.write_text(QUANTUM_CFG)
    return path


@pytest.fixture()
def laser_cfg_file(tmp_path):
    path = tmp_path / "laser.cfg"
    path.write_text(LASER_CFG)
    return path


EVOLVE_CONFIGS = {"classical-evolve": CLASSICAL_CFG, "quantum-evolve": QUANTUM_CFG}


def _evolve_cfg_file(tmp_path, command):
    path = tmp_path / f"{command}.cfg"
    path.write_text(EVOLVE_CONFIGS[command])
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_classical_ss_resonant_effective_energy_is_bare(classical_cfg_file, tmp_path):
    out = tmp_path / "out.csv"
    code = main(["classical-ss", "--config", str(classical_cfg_file), "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header[0] == "sample_id"
    assert header[-1] == "flags"
    assert len(rows) == 1
    assert float(rows[0]["Eeff_u"]) == 1.0
    assert float(rows[0]["Eeff_l"]) == 0.0
    assert abs(float(rows[0]["law1_residual"])) < 1e-12


def test_cli_output_is_deterministic(classical_cfg_file, tmp_path):
    out1, out2, out3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    sweeps = ["--config", str(classical_cfg_file),
              "--sweep", "drive.omega=0.9:1.3:3", "--sweep", "reservoir_u.mu=0.5:1.5:2"]
    assert main(["classical-ss"] + sweeps + ["--out", str(out1)]) == 0
    assert main(["classical-ss"] + sweeps + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # audit walks the same grid in the same order, last key fastest
    assert main(["audit"] + sweeps + ["--out", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()
    _, rows = _read_csv(out3)
    assert [(r["drive.omega"], r["reservoir_u.mu"]) for r in rows] == [
        (format_number(omega), format_number(mu)) for omega in (0.9, 1.1, 1.3) for mu in (0.5, 1.5)
    ]


def test_laser_sweep_rows_match_pulled_frequency_formula(laser_cfg_file, tmp_path):
    out = tmp_path / "laser.csv"
    code = main([
        "laser", "--config", str(laser_cfg_file),
        "--sweep", "omega_cav=1.0:1.4:41", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert len(rows) == 41
    for row in rows:
        omega_cav = float(row["cavity.omega_cav"])
        gamma_u = float(row["reservoir_u.gamma"])
        gamma_l = float(row["reservoir_l.gamma"])
        gamma_b = float(row["bath.gamma"])
        gap = float(row["e_upper"]) - float(row["e_lower"])
        expected = ((gamma_u + gamma_l) * omega_cav + gamma_b * gap) / (
            gamma_u + gamma_l + gamma_b
        )
        assert float(row["omega"]) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("sweep", ["cavity.g=1e200:1e200:1", "cavity.g=0.35:1e200:2"])
def test_laser_with_a_non_finite_intensity_exits_3(laser_cfg_file, capsys, sweep):
    # |g|^2 overflows above threshold: a solver failure, as classical-ss at an
    # overflowing drive
    assert main(["laser", "--config", str(laser_cfg_file), "--sweep", sweep]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver error: lasing intensity is not finite (nan)\n"


def test_a_plain_runtime_error_is_not_a_solver_error(laser_cfg_file, monkeypatch):
    # exit 3 is for SteadyStateError and EvolutionError; any other RuntimeError
    # is a fault of the program and propagates
    def solve_lasing(spec):
        raise RuntimeError("not a solver failure")

    monkeypatch.setattr(cli, "solve_lasing", solve_lasing)
    with pytest.raises(RuntimeError, match="not a solver failure"):
        main(["laser", "--config", str(laser_cfg_file)])


def test_bloch_gain_spectrum_csv(tmp_path):
    out = tmp_path / "gain.csv"
    code = main([
        "bloch-gain", "--equal-occupations", "fermi:T=0.1,mu=0.2",
        "--e-k0", "0.3", "--gamma-u", "0.05", "--gamma-l", "0.05",
        "--grid=-1:1:201", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["sample_id", "delta", "rate"]
    assert len(rows) == 201
    mid = rows[100]
    assert float(mid["delta"]) == 0.0
    assert float(mid["rate"]) == 0.0
    for row in rows:
        assert float(row["delta"]) * float(row["rate"]) <= 1e-15


def test_bloch_gain_rejects_an_empty_grid(capsys):
    code = main([
        "bloch-gain", "--equal-occupations", "fermi:T=0.1,mu=0.2",
        "--e-k0", "0.3", "--gamma-u", "0.05", "--gamma-l", "0.05", "--grid=-1:1:0",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be at least 1" in captured.err


def test_bloch_gain_rejects_an_unknown_occupation_parameter(capsys):
    code = main([
        "bloch-gain", "--equal-occupations", "fermi:T=0.1,mu=0,bogus=3",
        "--e-k0", "0.3", "--gamma-u", "0.05", "--gamma-l", "0.05", "--grid=-1:1:5",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bogus" in captured.err


GAIN_GRID = ["--e-k0", "0.3", "--gamma-u", "0.05", "--gamma-l", "0.05", "--grid=-1:1:5"]
FERMI = gain_mod.FermiOccupation(temperature=0.1, mu=0.2)
LINEAR = gain_mod.LinearOccupation(f0=0.8, slope=-0.5)


@pytest.mark.parametrize(
    ("flags", "f_upper", "f_lower"),
    [
        (["--equal-occupations", "linear:f0=0.8,slope=-0.5"], LINEAR, LINEAR),
        (["--f-upper", "linear:f0=0.8,slope=-0.5", "--f-lower", "fermi:T=0.1,mu=0.2"],
         LINEAR, FERMI),
    ],
    ids=("equal-linear", "separate"),
)
def test_bloch_gain_takes_linear_and_separate_occupations(capsys, flags, f_upper, f_lower):
    assert main(["bloch-gain"] + flags + GAIN_GRID) == 0
    grid = np.linspace(-1.0, 1.0, 5)
    rates = gain_mod.bloch_rate(0.3, grid, 0.05, 0.05, f_upper, f_lower)
    expected = [f"{i},{format_number(float(d))},{format_number(float(r))}"
                for i, (d, r) in enumerate(zip(grid, rates))]
    assert capsys.readouterr().out.splitlines() == ["sample_id,delta,rate"] + expected


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--f-upper", "linear:f0=0.8,slope=-0.5"],
         "provide --equal-occupations or both --f-upper and --f-lower"),
        (["--equal-occupations", "step:E=1"],
         "unknown occupation form 'step' (use fermi:... or linear:...)"),
        (["--equal-occupations", "linear:f0=0.8"],
         "occupation 'linear:f0=0.8' is missing parameter 'slope'"),
        (["--equal-occupations", "fermi:T"], "bad occupation parameter 'T'"),
        (["--equal-occupations", "fermi:T=warm,mu=0"], "could not convert string to float: 'warm'"),
    ],
    ids=("upper-only", "unknown-form", "missing-parameter", "no-value", "not-a-number"),
)
def test_bloch_gain_occupation_errors_exit_2(capsys, flags, message):
    assert main(["bloch-gain"] + flags + GAIN_GRID) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--e-k0", "nan", "e_k0 and the detuning must be finite"),
        ("--gamma-u", "inf", "gamma_u and gamma_l must be finite and non-negative"),
        ("--gamma-u", "-0.05", "gamma_u and gamma_l must be finite and non-negative"),
        ("--grid", "nan:1:3", "bad grid spec 'nan:1:3': bounds must be finite"),
        ("--equal-occupations", "fermi:T=0.1,mu=nan", "occupation temperature and mu must be finite"),
        ("--equal-occupations", "fermi:T=inf,mu=0", "occupation temperature and mu must be finite"),
        ("--equal-occupations", "linear:f0=nan,slope=1", "occupation f0 and slope must be finite"),
    ],
)
def test_bloch_gain_rejects_non_finite_and_negative_inputs(capsys, flag, value, message):
    flags = {"--equal-occupations": "fermi:T=0.1,mu=0.2", "--e-k0": "0.3", "--gamma-u": "0.05",
             "--gamma-l": "0.1", "--grid": "-1:1:5", flag: value}
    assert main(["bloch-gain"] + [f"{f}={v}" for f, v in flags.items()]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


GAIN_FERMI_PAIR = ["--f-upper", "fermi:T=0.1,mu=0.5", "--f-lower", "fermi:T=0.1,mu=-0.5"]


def test_bloch_gain_prints_a_rate_whose_square_overflows(capsys):
    # (gamma_u + gamma_l)^2 overflows; the rate does not, and no warning is raised
    flags = ["--e-k0", "0", "--gamma-u", "1e200", "--gamma-l", "0.1", "--grid=-1:1:3"]
    assert main(["bloch-gain"] + flags + GAIN_FERMI_PAIR) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "sample_id,delta,rate"
    assert float(rows[0].split(",")[2]) == pytest.approx(3.97e-200, rel=1e-3)


def test_bloch_gain_with_a_rate_beyond_the_largest_float_exits_2(capsys):
    flags = ["--e-k0", "0", "--gamma-u", "5e-324", "--gamma-l", "0", "--grid=-1:1:3"]
    assert main(["bloch-gain"] + flags + GAIN_FERMI_PAIR) == 2
    assert capsys.readouterr() == ("", "config error: the net rate is not a finite float\n")


def test_bloch_gain_lays_out_a_grid_wider_than_the_largest_float(capsys):
    # hi - lo overflows; the grid is laid out at half scale, with no warning
    flags = ["--e-k0", "0", "--gamma-u", "1", "--gamma-l", "1", "--grid=-1e308:1e308:3"]
    assert main(["bloch-gain"] + flags + ["--equal-occupations", "fermi:T=0.1,mu=0.5"]) == 0
    assert capsys.readouterr() == ("sample_id,delta,rate\n0,-1e+308,0\n1,0,0\n2,1e+308,-0\n", "")


@pytest.mark.parametrize(
    ("value", "cell"),
    [("0.04+0.02j", "0.040000000000000001+0.02j"), ("-0.1-0.25j", "-0.10000000000000001-0.25j")],
)
def test_a_complex_coupling_prints_as_its_cell_and_reads_back(tmp_path, value, cell):
    text = QUANTUM_CFG.replace("cavity.g = 0.04", f"cavity.g = {value}")
    path, out = tmp_path / "complex.cfg", tmp_path / "q.csv"
    path.write_text(text)
    assert main(["quantum-ss", "--config", str(path), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert rows[0]["cavity.g"] == cell
    spec = build_system_spec(parse_config(text))
    assert spec.cavity.g == complex(value)
    assert config_from_system_spec(spec)["cavity.g"] == cell
    cells = "".join(f"{k} = {rows[0][k]}\n" for k in header[1 : -len(FLUX_COLUMNS)])
    assert build_system_spec(parse_config(cells)) == spec


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["classical-ss", "--config", "{missing}"],
         "cannot read config {missing!r}: [Errno 2] No such file or directory: {missing!r}"),
        (["classical-ss", "--config", "{cfg}", "--sweep", "drive.omega=0.9:1.1"],
         "bad sweep spec 'drive.omega=0.9:1.1' (expected key=lo:hi:n)"),
        (["audit", "--config", "{cfg}", "--random", "3", "--range", "drive.omega=0.9"],
         "bad range spec 'drive.omega=0.9' (expected key=lo:hi)"),
        (["audit", "--config", "{cfg}", "--random", "3"],
         "--random requires at least one --range key=lo:hi"),
    ],
    ids=("unreadable-config", "malformed-sweep", "malformed-range", "random-without-range"),
)
def test_config_errors_exit_2_with_one_line(classical_cfg_file, tmp_path, capsys, argv, message):
    paths = {"cfg": str(classical_cfg_file), "missing": str(tmp_path / "missing.cfg")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"config error: {message.format(**paths)}\n")


def test_a_bad_fixed_occupation_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(CLASSICAL_CFG.replace("reservoir_u.occupation = effective",
                                          "reservoir_u.occupation = fixed:high"))
    assert main(["classical-ss", "--config", str(path)]) == 2
    message = "key 'reservoir_u.occupation': bad fixed occupation 'fixed:high'"
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_quantum_ss_row(quantum_cfg_file, tmp_path):
    out = tmp_path / "q.csv"
    code = main(["quantum-ss", "--config", str(quantum_cfg_file), "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1
    rate = float(rows[0]["R_ss"])
    assert rate > 0
    assert abs(float(rows[0]["law1_residual"])) < 1e-9


def test_quantum_ss_exhausted_cutoff_exits_3(tmp_path, capsys):
    cfg = QUANTUM_CFG.replace("bath.occupation = fixed:0.1", "bath.occupation = fixed:3.0")
    path = tmp_path / "hot.cfg"
    path.write_text(cfg)
    code = main(["quantum-ss", "--config", str(path), "--fock-cutoff", "1"])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_extreme_drive_fails_alike_in_one_point_and_in_a_sweep(tmp_path, capsys):
    # |epsilon|^2 overflows, so the closed form is NaN: a solver failure, not bad input
    path = tmp_path / "extreme.cfg"
    for epsilon in ("1.5e308+1.5e308j", "1e200"):  # finite parts, modulus overflows or not
        path.write_text(CLASSICAL_CFG.replace("drive.epsilon = 0.1", f"drive.epsilon = {epsilon}"))
        assert main(["classical-ss", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver error: state is not stationary (residual nan)\n"
    out = tmp_path / "sweep.csv"
    argv = ["audit", "--treatment", "classical", "--config", str(path),
            "--sweep", "drive.epsilon=0.1:1e200:2", "--out", str(out)]
    assert main(argv) == 0
    _, rows = _read_csv(out)
    assert rows[0]["flags"].startswith("regime=")
    assert rows[1]["flags"] == "error=SteadyStateError: state is not stationary (residual nan)"


def test_overflowing_drive_amplitude_fails_evolution_as_a_solver_error(tmp_path, capsys):
    path = tmp_path / "extreme.cfg"
    path.write_text(
        CLASSICAL_CFG.replace("drive.epsilon = 0.1", "drive.epsilon = 1.5e308+1.5e308j")
    )
    argv = ["classical-evolve", "--config", str(path), "--t-final", "1", "--n-store", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "solver error: population left [0, 1] at t = 1\n"


def test_an_overflowing_propagator_fails_evolution_without_a_warning(tmp_path, capsys):
    # |epsilon| seg overflows in the generator times seg = 5, not only in expm
    path = tmp_path / "extreme.cfg"
    path.write_text(
        CLASSICAL_CFG.replace("drive.epsilon = 0.1", "drive.epsilon = 1.5e308+1.5e308j")
    )
    argv = ["classical-evolve", "--config", str(path), "--t-final", "10", "--n-store", "3"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "solver error: population left [0, 1] at t = 5\n"


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("e_upper = 1.0\nwhatever = 3\n")
    code = main(["classical-ss", "--config", str(path)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("12.5", "1e3", "twelve"))
def test_a_non_integer_cutoff_names_its_key(tmp_path, capsys, value):
    path = tmp_path / "scenario.cfg"
    path.write_text(QUANTUM_CFG.replace("cavity.fock_cutoff = 10", f"cavity.fock_cutoff = {value}"))
    assert main(["quantum-ss", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: key 'cavity.fock_cutoff': not an integer: {value!r}\n"


_CUTOFF_ERROR = "fock_cutoff must be at most 4844"


@pytest.mark.parametrize("cutoff", ("4845", "100000000000000000000"))
@pytest.mark.parametrize("command", (["quantum-ss"], ["quantum-evolve", "--t-final", "1"]),
                         ids=("quantum-ss", "quantum-evolve"))
def test_a_fock_cutoff_beyond_one_batch_exits_2_naming_it(quantum_cfg_file, capsys, command,
                                                          cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command + ["--config", str(quantum_cfg_file), "--fock-cutoff", cutoff]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {_CUTOFF_ERROR}\n"


def test_a_scenario_file_with_a_fock_cutoff_beyond_one_batch_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(QUANTUM_CFG.replace("cavity.fock_cutoff = 10", "cavity.fock_cutoff = 4845"))
    assert main(["quantum-ss", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {_CUTOFF_ERROR}\n"


def test_an_audit_row_beyond_the_largest_fock_cutoff_reads_its_error(quantum_cfg_file, tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["audit", "--config", str(quantum_cfg_file), "--treatment", "quantum",
            "--sweep", "cavity.fock_cutoff=4845:1e20:2", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    _, rows = _read_csv(out)
    assert [row["cavity.fock_cutoff"] for row in rows] == ["4845", "100000000000000000000"]
    assert [row["flags"] for row in rows] == [f"error=ValueError: {_CUTOFF_ERROR}"] * 2


def test_classical_evolve_trajectory(classical_cfg_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "classical-evolve", "--config", str(classical_cfg_file),
        "--t-final", "20", "--n-store", "5", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "sigma_uu", "sigma_ll", "re_sigma_ul", "im_sigma_ul"]
    assert len(rows) == 5
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(20.0, abs=1e-12)


def test_quantum_evolve_trajectory(quantum_cfg_file, tmp_path):
    out = tmp_path / "qtraj.csv"
    code = main([
        "quantum-evolve", "--config", str(quantum_cfg_file), "--fock-cutoff", "4",
        "--t-final", "2.0", "--n-store", "5", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "sigma_uu", "sigma_ll", "n_ph", "rate"]
    assert len(rows) == 5
    assert float(rows[0]["sigma_uu"]) == 0.0
    assert float(rows[-1]["sigma_uu"]) > 0.0


@pytest.mark.parametrize("command", tuple(EVOLVE_CONFIGS))
def test_evolve_times_are_a_running_sum_of_segments(tmp_path, command):
    # 2/6 is inexact: the running sum ends at 1.9999999999999998, where 6 * seg is 2.
    out = tmp_path / "traj.csv"
    path = _evolve_cfg_file(tmp_path, command)
    code = main([command, "--config", str(path), "--t-final", "2.0", "--n-store", "7",
                 "--out", str(out)])
    assert code == 0
    times, t = [], 0.0
    for i in range(7):
        t += 2.0 / 6 if i else 0.0
        times.append(format_number(t))
    assert [row["t"] for row in _read_csv(out)[1]] == times


# the dense propagator at cutoffs 6 and 77, the sparse Taylor loop at 121
@pytest.mark.parametrize("cutoff", ("6", "77", "121"))
def test_quantum_evolve_over_zero_time_stays_in_the_vacuum(quantum_cfg_file, capsys, cutoff):
    argv = ["quantum-evolve", "--config", str(quantum_cfg_file), "--fock-cutoff", cutoff,
            "--t-final", "0", "--n-store", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["t,sigma_uu,sigma_ll,n_ph,rate"] + ["0,0,0,0,0"] * 3


@pytest.mark.parametrize("t_final", ("1e300", "1.7e308"))
# the dense propagator at cutoffs 6 and 77, the sparse Taylor loop at 121
@pytest.mark.parametrize("cutoff", ("6", "77", "121"))
def test_quantum_evolve_over_an_overflowing_time_is_a_solver_error(
    quantum_cfg_file, capsys, cutoff, t_final
):
    argv = ["quantum-evolve", "--config", str(quantum_cfg_file), "--fock-cutoff", cutoff,
            "--t-final", t_final, "--n-store", "2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    (
        ["quantum-ss"],
        ["audit", "--treatment", "quantum", "--random", "2", "--range", "cavity.g=0.03:0.05"],
    ),
    ids=("quantum-ss", "audit"),
)
def test_fock_cutoff_override_is_the_cutoff_column(quantum_cfg_file, tmp_path, command):
    out = tmp_path / "rows.csv"
    code = main(command + ["--config", str(quantum_cfg_file), "--fock-cutoff", "14",
                           "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert rows and all(row["cavity.fock_cutoff"] == "14" for row in rows)
    assert not any(row["flags"].startswith("error=") for row in rows)


@pytest.mark.parametrize(
    "text, flags",
    [(CLASSICAL_CFG, []),
     (QUANTUM_CFG + "drive.omega = 1.0\ndrive.epsilon = 0.1\n", ["--treatment", "classical"])],
    ids=["classical-by-default", "classical-treatment"],
)
def test_a_classical_audit_refuses_the_fock_cutoff(tmp_path, capsys, text, flags):
    # no classical solve reads the cutoff, so the flag would only relabel a column
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    argv = ["audit", "--config", str(path), *flags, "--random", "3", "--range", "e_upper=1:2",
            "--fock-cutoff", "14"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --fock-cutoff applies to the quantum treatment only\n"


@pytest.mark.parametrize("n_store", ("-1", "0", "1"))
@pytest.mark.parametrize("command", tuple(EVOLVE_CONFIGS))
def test_evolve_needs_two_stored_rows(tmp_path, capsys, command, n_store):
    code = main([
        command, "--config", str(_evolve_cfg_file(tmp_path, command)), "--t-final", "2.0",
        "--n-store", n_store,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-store" in captured.err


@pytest.mark.parametrize("command", tuple(EVOLVE_CONFIGS))
def test_evolve_has_no_step_size_flag(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--config", str(_evolve_cfg_file(tmp_path, command)), "--t-final", "2.0",
            "--dt", "0.01",
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    (["--t-final", "-5"], ["--t-final", "inf"], ["--t-final", "5", "--sigma-uu0", "5"]),
    ids=("negative-time", "infinite-time", "population-above-1"),
)
def test_classical_evolve_bad_input_exits_2(classical_cfg_file, capsys, flags):
    code = main(["classical-evolve", "--config", str(classical_cfg_file)] + flags)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("quantum-evolve", "cavity.g", "nan"),
        ("laser", "cavity.g", "nan"),
        ("laser", "cavity.omega_cav", "inf"),
        ("quantum-ss", "bath.temperature", "inf"),
        ("laser", "bath.temperature", "inf"),
        ("quantum-evolve", "bath.temperature", "inf"),
        ("quantum-ss", "bath.occupation", "fixed:nan"),
        ("laser", "bath.occupation", "fixed:inf"),
        ("classical-ss", "e_upper", "inf"),
        ("classical-ss", "drive.omega", "inf"),
        ("classical-ss", "reservoir_u.mu", "nan"),
    ],
)
def test_non_finite_scenario_value_exits_2(tmp_path, capsys, command, key, value):
    text = CLASSICAL_CFG if command.startswith("classical") else LASER_CFG
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    extra = ["--t-final", "1"] if command.endswith("evolve") else []
    assert main([command, "--config", str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: " in captured.err
    assert "must be finite" in captured.err


def test_audit_integer_cells_show_the_value_solved(quantum_cfg_file, tmp_path):
    # with_parameter solves cavity.fock_cutoff = 11.5 at int(11.5) = 11
    sweep = ["--sweep", "cavity.fock_cutoff=10:13:3"]
    audit, ss = tmp_path / "audit.csv", tmp_path / "ss.csv"
    assert main(["audit", "--treatment", "quantum", "--config", str(quantum_cfg_file),
                 "--out", str(audit)] + sweep) == 0
    assert main(["quantum-ss", "--config", str(quantum_cfg_file), "--out", str(ss)] + sweep) == 0
    cutoffs = [[row["cavity.fock_cutoff"] for row in _read_csv(path)[1]] for path in (audit, ss)]
    assert cutoffs[0] == cutoffs[1] == ["10", "11", "13"]

    # a value no integer holds fails its sample and is shown as drawn
    assert main(["audit", "--treatment", "quantum", "--config", str(quantum_cfg_file),
                 "--sweep", "cavity.fock_cutoff=nan:nan:1", "--out", str(audit)]) == 0
    row = _read_csv(audit)[1][0]
    assert row["cavity.fock_cutoff"] == "nan"
    assert row["flags"].startswith("error=")


def test_audit_random_deterministic_and_flags(classical_cfg_file, tmp_path):
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    args = [
        "audit", "--config", str(classical_cfg_file),
        "--random", "25", "--seed", "7",
        "--range", "drive.omega=0.6:1.8",
        "--range", "reservoir_u.mu=-0.5:1.5",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, rows = _read_csv(out1)
    assert len(rows) == 25
    assert all(row["flags"].startswith("regime=") for row in rows)
    assert not any("violation" in row["flags"] for row in rows)


FLUX_FIELDS = {
    "R_ss": "rate",
    "Ndot_u": "ndot_u",
    "Ndot_l": "ndot_l",
    "Edot_u": "edot_u",
    "Edot_l": "edot_l",
    "Edot_b_or_P_S": "edot_opt",
    "Eeff_u": "e_eff_u",
    "Eeff_l": "e_eff_l",
    "Eeff_ph": "e_eff_ph",
    "law1_residual": "first_law_residual",
}


def _sweep_cells(table: thermo.SweepColumns) -> list[dict[str, str]]:
    """``format_number`` of each sampled value and flow of a sweep, one sample at a time."""
    rows = []
    for item in table:
        cells = {k: format_number(SCENARIO_KEYS[k](v)) for k, v in item.params.items()}
        cells.update({c: format_number(float(getattr(item.flux, f))) for c, f in FLUX_FIELDS.items()})
        cells["Sdot_total"] = format_number(float(item.entropy_total))
        rows.append(cells)
    return rows


def _assert_rows_show(path, table) -> None:
    _, rows = _read_csv(path)
    expected = _sweep_cells(table)
    assert [{k: row[k] for k in cells} for row, cells in zip(rows, expected)] == expected
    assert len(rows) == len(expected)


def test_audit_above_the_kernel_cutoff_prints_each_sampled_value(classical_cfg_file, tmp_path):
    # Columns this long take the array kernel of format_column; drive.epsilon
    # is complex-typed and its real draws read as floats.
    n = 2 * cli._KERNEL_SIZE
    ranges = {"drive.epsilon": (0.05, 0.3), "drive.omega": (0.6, 1.8)}
    out = tmp_path / "random.csv"
    argv = ["audit", "--treatment", "classical", "--config", str(classical_cfg_file),
            "--random", str(n), "--seed", "5", "--out", str(out)]
    argv += [a for k, (lo, hi) in ranges.items() for a in ("--range", f"{k}={lo}:{hi}")]
    assert main(argv) == 0
    base = build_system_spec(parse_config(CLASSICAL_CFG))
    _assert_rows_show(out, thermo.sweep(base, ranges, "classical", n, 5))


def test_a_value_every_row_shares_prints_as_in_one_row(classical_cfg_file, tmp_path):
    # The effective energies do not depend on reservoir_u.mu, so a sweep of it
    # shares them between rows, and each is formatted once.
    base = build_system_spec(parse_config(CLASSICAL_CFG))
    table = thermo.sweep(base, {"reservoir_u.mu": (0.0, 1.0, 5)}, "classical")
    assert [np.ndim(getattr(table.flux, f)) for f in ("e_eff_u", "e_eff_l", "e_eff_ph")] == [0] * 3
    out = tmp_path / "mu.csv"
    assert main(["audit", "--config", str(classical_cfg_file),
                 "--sweep", "reservoir_u.mu=0:1:5", "--out", str(out)]) == 0
    _assert_rows_show(out, table)


GAIN_ARGV = ["bloch-gain", "--equal-occupations", "fermi:T=0.1,mu=0.2"] + GAIN_GRID


def _table_argv(command, tmp_path):
    """A run of each command that writes a table; ``audit`` has failed samples."""
    paths = {}
    configs = (("classical", CLASSICAL_CFG), ("quantum", QUANTUM_CFG), ("laser", LASER_CFG))
    for name, text in configs:
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    classical, quantum = ["--config", str(paths["classical"])], ["--config", str(paths["quantum"])]
    return {
        "classical-ss": ["classical-ss", *classical, "--sweep", "drive.omega=0.9:1.1:3"],
        "audit": ["audit", *classical, "--random", "300", "--range", "e_upper=-0.5:1.5"],
        "find-violation": ["find-violation", "--seed", "3"],
        "classical-evolve": ["classical-evolve", *classical, "--t-final", "2", "--n-store", "3"],
        "quantum-ss": ["quantum-ss", *quantum],
        "quantum-evolve": ["quantum-evolve", *quantum, "--fock-cutoff", "4", "--t-final", "1",
                           "--n-store", "3"],
        "laser": ["laser", "--config", str(paths["laser"]), "--sweep", "cavity.g=0.3:0.4:3"],
        "bloch-gain": GAIN_ARGV,
    }[command]


TABLE_COMMANDS = ("classical-ss", "audit", "find-violation", "classical-evolve", "quantum-ss",
                  "quantum-evolve", "laser", "bloch-gain")


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_out_bytes_equal_stdout_bytes(tmp_path, capsysbinary, command):
    argv = _table_argv(command, tmp_path)
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    assert printed.count(b"\n") > 1 and b"\0" not in printed


def test_tables_shorter_than_the_kernel_size_never_build_its_tables(tmp_path, capsys):
    # The kernel's tables take longer to build than a one-row call takes in all.
    cli._kernel_tables.cache_clear()
    for command in TABLE_COMMANDS:
        argv = _table_argv(command, tmp_path)
        if command == "audit":
            argv[argv.index("--random") + 1] = "1"
        assert main(argv) == 0
    assert cli._kernel_tables.cache_info().currsize == 0


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_an_unwritable_out_exits_2(tmp_path, capsys, command):
    argv = _table_argv(command, tmp_path)
    out = str(tmp_path / "missing" / "out.csv")
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output {out!r}: ")


def test_the_parser_is_built_once_and_keeps_no_option_values(classical_cfg_file, tmp_path):
    # The argparse tree is cached; an `append` option given in one call must
    # not reach the next, so `audit` without --range prints what a fresh
    # process prints.
    assert cli._build_parser() is cli._build_parser()
    drawn, swept, fresh = tmp_path / "drawn.csv", tmp_path / "swept.csv", tmp_path / "fresh.csv"
    config = ["--config", str(classical_cfg_file)]
    assert main(["audit", *config, "--random", "3", "--range", "drive.omega=0.6:1.8",
                 "--out", str(drawn)]) == 0
    second = ["audit", *config, "--sweep", "reservoir_u.mu=0.0:1.0:3"]
    assert main(second + ["--out", str(swept)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "detuned_tls.cli", *second, "--out", str(fresh)],
                   env=env, check=True)
    assert swept.read_bytes() == fresh.read_bytes()
    assert len(_read_csv(swept)[1]) == 3


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(classical_cfg_file):
    # The table is far larger than a pipe holds, so the writer meets the
    # closed pipe, as under ``| head -c 300``.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "detuned_tls.cli", "audit", "--config", str(classical_cfg_file),
            "--treatment", "classical", "--random", "20000", "--range", "drive.omega=0.6:1.6"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(300).startswith(b"sample_id,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err
    assert err == b""


def test_audit_grid_handles_failed_samples(classical_cfg_file, tmp_path):
    out = tmp_path / "g.csv"
    code = main([
        "audit", "--config", str(classical_cfg_file),
        "--sweep", "e_upper=-0.5:1.5:5", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    assert any("error=" in row["flags"] for row in rows)
    assert any("regime=" in row["flags"] for row in rows)


def test_audit_has_no_tolerance_flag(classical_cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--config", str(classical_cfg_file), "--sweep", "drive.omega=0.9:1.1:3",
              "--tolerance", "1e-9"])
    assert exc.value.code == 2


# the flags that only audit and find-violation (--seed) and the quantum solves
# (--fock-cutoff) read; find-violation has no --fock-cutoff
@pytest.mark.parametrize(
    "command, flag",
    [("quantum-ss", "--seed"), ("laser", "--fock-cutoff"), ("classical-ss", "--seed"),
     ("classical-evolve", "--seed"), ("quantum-evolve", "--seed"), ("laser", "--seed"),
     ("classical-ss", "--fock-cutoff"), ("classical-evolve", "--fock-cutoff"),
     ("find-violation", "--fock-cutoff")],
)
def test_a_command_refuses_a_flag_it_does_not_read(classical_cfg_file, capsys, command, flag):
    times = ["--t-final", "1"] if command.endswith("evolve") else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(classical_cfg_file), *times, flag, "14"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 14" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--sweep", "drive.omega=0.9:1.1:3", "--sweep", "omega=1.0:1.2:2"],
        ["audit", "--random", "5", "--range", "drive.omega=0.9:1.1",
         "--range", "drive.omega=1.0:1.2"],
        ["classical-ss", "--sweep", "drive.omega=0.9:1.1:3", "--sweep", "drive.omega=1:2:2"],
        ["find-violation", "--range", "drive.omega=0.5:1.5", "--range", "drive.omega=1:2"],
        ["audit", "--range", "drive.omega=0.9:1.1"],
        ["audit", "--random", "5", "--range", "drive.omega=0.9:1.1",
         "--sweep", "reservoir_u.mu=0:1:3"],
        ["audit", "--random", "0", "--range", "drive.omega=0.9:1.1"],
        ["classical-ss", "--sweep", "drive.omega=0.9:1.1:0"],
    ],
    ids=["audit-repeated-sweep", "audit-repeated-range", "ss-repeated-sweep",
         "search-repeated-range", "range-without-random", "random-with-sweep",
         "random-zero", "sweep-zero-points"],
)
def test_ambiguous_sampling_flags_exit_2(classical_cfg_file, argv, capsys):
    assert main([argv[0], "--config", str(classical_cfg_file)] + argv[1:]) == 2
    assert "config error" in capsys.readouterr().err


RANGE_COMMANDS = {"audit": ["audit", "--random", "5"],
                  "find-violation": ["find-violation", "--max-samples", "5"]}


@pytest.mark.parametrize("bounds", ("-inf:0", "nan:1", "0:inf"))
@pytest.mark.parametrize("command", RANGE_COMMANDS)
def test_a_range_with_a_non_finite_bound_exits_2(classical_cfg_file, capsys, command, bounds):
    arg = f"reservoir_u.mu={bounds}"
    argv = RANGE_COMMANDS[command] + ["--config", str(classical_cfg_file), "--range", arg]
    assert main(argv) == 2
    message = f"config error: bad range spec {arg!r}: bounds must be finite\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", RANGE_COMMANDS)
def test_a_reversed_range_exits_2_naming_the_flag(classical_cfg_file, capsys, command):
    argv = RANGE_COMMANDS[command] + ["--config", str(classical_cfg_file), "--range"]
    assert main(argv + ["drive.omega=2:1"]) == 2
    message = "config error: bad range spec 'drive.omega=2:1': lo must not exceed hi\n"
    assert capsys.readouterr() == ("", message)
    # lo = hi draws that one value; the scenario's bare energies stay effective ones
    assert main(argv + ["drive.omega=1.2:1.2"]) == {"audit": 0, "find-violation": 4}[command]
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ("0:inf:3", "-inf:0:3"))
def test_a_sweep_with_a_non_finite_bound_gives_error_rows(classical_cfg_file, capsys, bounds):
    # pytest turns every warning into an error: laying out the grid warns of nothing.
    argv = ["audit", "--config", str(classical_cfg_file), "--sweep", f"drive.omega={bounds}"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert err == "" and len(rows) == 3
    assert all(row.split(",")[-1].startswith("error=ValueError: drive frequency") for row in rows)


def test_a_sweep_may_descend(classical_cfg_file, capsys):
    assert main(["audit", "--config", str(classical_cfg_file), "--sweep", "drive.omega=2:1:3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["2", "1.5", "1"]


@pytest.mark.parametrize("command", RANGE_COMMANDS)
def test_a_range_wider_than_the_largest_float_draws_finite_points(
    classical_cfg_file, tmp_path, capsys, command
):
    out = tmp_path / "out.csv"
    argv = RANGE_COMMANDS[command] + ["--config", str(classical_cfg_file),
                                      "--range", "reservoir_l.mu=-1e308:1e308", "--out", str(out)]
    if command == "audit":
        assert main(argv) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 5
        assert all(abs(float(row["reservoir_l.mu"])) <= 1e308 for row in rows)
    else:  # the scenario file's drive is resonant: bare energies are effective ones
        assert main(argv) == 4
        assert capsys.readouterr().err == "no second-law violation found within the sample budget\n"


def test_a_sweep_wider_than_the_largest_float_reaches_both_bounds(classical_cfg_file, tmp_path):
    out = tmp_path / "out.csv"
    argv = ["classical-ss", "--config", str(classical_cfg_file),
            "--sweep", "reservoir_u.mu=-1e308:1e308:3", "--out", str(out)]
    assert main(argv) == 0
    _, rows = _read_csv(out)
    assert [float(row["reservoir_u.mu"]) for row in rows] == [-1e308, 0.0, 1e308]


@pytest.mark.parametrize("n", ("0", "-1"))
def test_find_violation_rejects_an_empty_sample_budget(n, capsys):
    assert main(["find-violation", "--max-samples", n]) == 2
    assert capsys.readouterr().err == "config error: --max-samples N requires N >= 1\n"


def test_find_violation_row_reports_the_bare_spec_it_solved(classical_cfg_file, tmp_path):
    # the scenario file asks for effective occupations; the search solves at bare ones
    out = tmp_path / "v.csv"
    code = main(["find-violation", "--config", str(classical_cfg_file), "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    row = rows[0]
    assert row["reservoir_u.occupation"] == row["reservoir_l.occupation"] == "bare"

    param_keys = header[1:-len(FLUX_COLUMNS)]
    spec = build_system_spec(parse_config("".join(f"{k} = {row[k]}\n" for k in param_keys)))
    flux, entropy, regime = audit_point(spec, "classical")
    expected = {
        "R_ss": flux.rate,
        "Ndot_u": flux.ndot_u,
        "Ndot_l": flux.ndot_l,
        "Edot_u": flux.edot_u,
        "Edot_l": flux.edot_l,
        "Edot_b_or_P_S": flux.edot_opt,
        "Eeff_u": flux.e_eff_u,
        "Eeff_l": flux.e_eff_l,
        "Eeff_ph": flux.e_eff_ph,
        "Sdot_total": entropy.total,
        "law1_residual": flux.first_law_residual,
    }
    assert {k: row[k] for k in expected} == {k: format_number(v) for k, v in expected.items()}
    assert regime.sign_law_ok is None
    assert row["flags"] == f"regime={regime.regime};violation"


def test_find_violation_exit_codes(tmp_path):
    out = tmp_path / "v.csv"
    code = main(["find-violation", "--seed", "3", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1
    assert "violation" in rows[0]["flags"]
    assert float(rows[0]["Sdot_total"]) < -1e-10

    # resonant-only search space: bare equals effective, nothing to find
    code = main([
        "find-violation", "--seed", "3", "--max-samples", "50",
        "--range", "drive.omega=1.0:1.0",
    ])
    assert code == 4


def test_audit_sweep_checks_levels_on_their_final_values(classical_cfg_file, tmp_path):
    # 3 of these 20 points have e_upper above e_lower only once both keys are
    # set; they must solve in either key order, and the two orders must agree.
    ranges = {"e_upper": "e_upper=-0.5:1.5:5", "e_lower": "e_lower=-1:1.2:4"}
    rows_by_order = []
    for order in (("e_upper", "e_lower"), ("e_lower", "e_upper")):
        out = tmp_path / f"{order[0]}.csv"
        argv = ["audit", "--config", str(classical_cfg_file), "--out", str(out)]
        for key in order:
            argv += ["--sweep", ranges[key]]
        assert main(argv) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 20
        for row in rows:
            valid = float(row["e_upper"]) > float(row["e_lower"])
            assert ("error=" not in row["flags"]) == valid, row
        rows_by_order.append(
            sorted((r["e_upper"], r["e_lower"], r["Sdot_total"], r["flags"]) for r in rows)
        )
    assert sum(float(u) > float(l) for u, l, _, _ in rows_by_order[0]) == 13
    assert rows_by_order[0] == rows_by_order[1]


QUANTUM_WITHOUT_BATH_CFG = "".join(
    line for line in QUANTUM_CFG.splitlines(keepends=True) if not line.startswith("bath.")
)


@pytest.mark.parametrize(
    "text, treatment",
    [(CLASSICAL_CFG, "quantum"), (QUANTUM_WITHOUT_BATH_CFG, "quantum"),
     (QUANTUM_WITHOUT_BATH_CFG, None), (QUANTUM_CFG, "classical")],
    ids=["no-cavity", "no-bath", "no-bath-by-default", "no-drive"],
)
def test_audit_refuses_a_scenario_its_treatment_cannot_solve(
    tmp_path, capsys, monkeypatch, text, treatment
):
    # audit refuses what the treatment's steady-state command refuses, with
    # the same message, before it samples or solves anything
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main([f"{treatment or 'quantum'}-ss", "--config", str(path)]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith(f"config error: {treatment or 'quantum'} commands require ")

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled a scenario its treatment cannot solve")

    monkeypatch.setattr(thermo, "sweep", unreachable)
    flags = ["--treatment", treatment] if treatment else []
    argv = ["audit", "--config", str(path), *flags, "--random", "3", "--range", "e_upper=1:2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == expected


def test_a_sampled_key_whose_section_the_scenario_lacks_fails_its_rows(classical_cfg_file,
                                                                        tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["audit", "--config", str(classical_cfg_file), "--treatment", "classical",
            "--random", "2", "--range", "cavity.g=0:1", "--out", str(out)]
    assert main(argv) == 0
    _, rows = _read_csv(out)
    expected = "error=ValueError: scenario has no cavity section to update"
    assert [row["flags"] for row in rows] == [expected] * 2


# Runs in a fresh interpreter: imports the CLI, then runs each (name, argv) in
# turn and prints, as JSON, the exit code and the modules of package
# ``sys.argv[2]`` loaded after each.
_MODULE_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == sys.argv[2] or m.startswith(sys.argv[2] + "."))
from detuned_tls import cli
report = {"import": [0, loaded()]}
for name, argv in json.loads(sys.argv[1]):
    report[name] = [cli.main(argv), loaded()]
print(json.dumps(report))
"""


def _probe(commands, package):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(commands), package],
                           env=env, check=True, capture_output=True, text=True)
    return json.loads(probe.stdout)


def test_only_quantum_evolve_above_the_dense_size_loads_scipy(tmp_path):
    # Importing SciPy's sparse and linear-algebra stacks costs more than the
    # rest of a steady-state command: the package import, the steady-state
    # commands and both trajectories with a dense propagator load none of it;
    # the sparse Taylor loop (above 700 sector entries) needs scipy.sparse for
    # its CSR product, and no longer scipy.sparse.linalg.
    paths = {}
    for name, text in (("classical", CLASSICAL_CFG), ("laser", LASER_CFG),
                       ("quantum", QUANTUM_CFG)):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    out = ["--out", str(tmp_path / "out.csv")]
    classical, quantum = ["--config", str(paths["classical"])], ["--config", str(paths["quantum"])]
    commands = [
        ("classical-ss", ["classical-ss", *classical, *out]),
        ("classical audit", ["audit", *classical, "--treatment", "classical", "--random", "20",
                             "--range", "drive.omega=0.6:1.8", *out]),
        ("classical-evolve", ["classical-evolve", *classical, "--t-final", "2", "--n-store", "3",
                              *out]),
        ("find-violation", ["find-violation", "--seed", "3", *out]),
        ("bloch-gain", GAIN_ARGV + out),
        ("laser", ["laser", "--config", str(paths["laser"]), "--sweep", "cavity.g=0.3:0.4:3",
                   *out]),
        ("quantum-ss", ["quantum-ss", *quantum, *out]),
        ("quantum audit", ["audit", *quantum, "--treatment", "quantum", "--random", "3",
                           "--range", "cavity.g=0.03:0.05", *out]),
        ("quantum-evolve", ["quantum-evolve", *quantum, "--fock-cutoff", "12", "--t-final", "2",
                            "--n-store", "3", *out]),
        ("quantum-evolve 121", ["quantum-evolve", *quantum, "--fock-cutoff", "121",
                                "--t-final", "2", "--n-store", "3", *out]),
    ]
    report = _probe(commands, "scipy")
    for name in ["import"] + [name for name, _ in commands[:-1]]:
        assert report[name] == [0, []], name
    code, modules = report["quantum-evolve 121"]
    assert code == 0
    assert "scipy.sparse" in modules and "scipy.sparse.linalg" not in modules


def test_the_classical_commands_never_load_the_quantum_module(tmp_path):
    # The quantum module's body alone costs more than a classical audit's set-up.
    commands = [(command, _table_argv(command, tmp_path) + ["--out", str(tmp_path / "out.csv")])
                for command in ("classical-ss", "audit", "find-violation", "classical-evolve",
                                "laser", "bloch-gain", "quantum-ss")]
    report = _probe(commands, "detuned_tls.quantum")
    for name in ["import"] + [name for name, _ in commands[:-1]]:
        assert report[name] == [0, []], name
    assert report["quantum-ss"] == [0, ["detuned_tls.quantum"]]

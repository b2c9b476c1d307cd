"""The four benchmark workloads: scenario files, CLI commands and gate.

A workload turns the benchmark seed into scenario files and, for each pass of
a run, a list of CLI commands with the check of their output.  Passes draw
fresh samples, so one run covers many; pass 0 is also run in a fresh process,
whose output must match byte for byte.  See README.md for why each workload
was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate
from detuned_tls.config import build_system_spec, parse_config

_LEVELS = "e_upper = 1.0\ne_lower = 0.0\n"


def _reservoirs(gamma_u, gamma_l, occ_u, occ_l) -> str:
    return (
        f"reservoir_u.gamma = {gamma_u!r}\nreservoir_u.mu = 0.9\n"
        f"reservoir_u.temperature = 0.2\nreservoir_u.occupation = {occ_u}\n"
        f"reservoir_l.gamma = {gamma_l!r}\nreservoir_l.mu = 0.1\n"
        f"reservoir_l.temperature = 0.2\nreservoir_l.occupation = {occ_l}\n"
    )


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    samples: int  # samples this command contributes; 0 for a reference run


@dataclass(frozen=True)
class Pass:
    commands: tuple[Command, ...]
    check: Callable[[list[str]], list[gate.Verdict]]  # outputs -> one verdict per command


@dataclass(frozen=True)
class Workload:
    """Pass ``i`` of a run depends only on the seed and ``i``."""

    name: str
    make_pass: Callable[[int], Pass]
    cold: tuple[str, ...]  # the first call of a fresh process
    sim_time: float = 0.0  # simulated time per sample (quantum-evolve)


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


# classical-audit ------------------------------------------------------------

CLASSICAL_SAMPLES = 20000
CLASSICAL_RANGES = (
    "drive.omega=0.6:1.6",
    "reservoir_u.mu=0.0:1.5",
    "reservoir_l.gamma=0.05:0.5",
    "reservoir_u.temperature=0.1:0.4",
)
VIOLATION_SEEDS = tuple(range(1, 9))


def classical_audit(seed: int, workdir: Path) -> Workload:
    config = workdir / "classical.cfg"
    config.write_text(
        _LEVELS
        + "drive.omega = 1.1\ndrive.epsilon = 0.1\n"
        + _reservoirs(0.3, 0.2, "effective", "effective"),
        encoding="utf-8",
    )
    ranges = tuple(arg for r in CLASSICAL_RANGES for arg in ("--range", r))

    def audit(index: int, samples: int) -> tuple[str, ...]:
        program_seed = str(_rng("classical-audit", seed, index).randrange(2**31))
        return ("audit", "--config", str(config), "--treatment", "classical",
                "--random", str(samples), "--seed", program_seed) + ranges

    def check(outputs):
        verdicts = [gate.check_flux_rows(outputs[0], CLASSICAL_SAMPLES, "classical")[0]]
        return verdicts + [gate.check_violation_row(text) for text in outputs[1:]]

    def make_pass(index: int) -> Pass:
        commands = [Command(audit(index, CLASSICAL_SAMPLES), CLASSICAL_SAMPLES)]
        commands += [Command(("find-violation", "--seed", str(s)), 1) for s in VIOLATION_SEEDS]
        return Pass(tuple(commands), check)

    return Workload("classical-audit", make_pass, audit(0, 1))


# quantum-audit --------------------------------------------------------------

QUANTUM_SAMPLES = 100
QUANTUM_RANGES = ("cavity.g=0.05:0.3", "bath.gamma=0.02:0.15")


def quantum_audit(seed: int, workdir: Path) -> Workload:
    config = workdir / "quantum.cfg"
    config.write_text(
        _LEVELS
        + "cavity.omega_cav = 1.05\ncavity.g = 0.1\ncavity.fock_cutoff = 12\n"
        + _reservoirs(0.3, 0.3, "fixed:0.95", "fixed:0.02")
        + "bath.gamma = 0.1\nbath.temperature = 0.3\nbath.occupation = effective\n",
        encoding="utf-8",
    )
    ranges = tuple(arg for r in QUANTUM_RANGES for arg in ("--range", r))

    def audit(index: int, samples: int) -> tuple[str, ...]:
        program_seed = str(_rng("quantum-audit", seed, index).randrange(2**31))
        return ("audit", "--config", str(config), "--treatment", "quantum",
                "--random", str(samples), "--seed", program_seed) + ranges

    def check(outputs):
        return [gate.check_flux_rows(outputs[0], QUANTUM_SAMPLES, "quantum")[0]]

    def make_pass(index: int) -> Pass:
        return Pass((Command(audit(index, QUANTUM_SAMPLES), QUANTUM_SAMPLES),), check)

    return Workload("quantum-audit", make_pass, audit(0, 1))


# quantum-lasing -------------------------------------------------------------

LASING_CUTOFF = "60"
LASING_POINTS = 8


def quantum_lasing(seed: int, workdir: Path) -> Workload:
    config = workdir / "lasing.cfg"
    config.write_text(
        _LEVELS
        + "cavity.omega_cav = 1.05\ncavity.g = 0.3\ncavity.fock_cutoff = 12\n"
        + _reservoirs(0.3, 0.3, "fixed:0.95", "fixed:0.02")
        + "bath.gamma = 0.01\nbath.temperature = 0.05\nbath.occupation = effective\n",
        encoding="utf-8",
    )
    exact = ("quantum-ss", "--config", str(config), "--fock-cutoff", LASING_CUTOFF)

    def check(outputs):
        return [gate.check_lasing(outputs[0], outputs[1], LASING_POINTS), gate.Verdict(0)]

    def make_pass(index: int) -> Pass:
        rng = _rng("quantum-lasing", seed, index)
        g_lo = 0.02 + 0.01 * rng.random()
        g_hi = 0.28 + 0.02 * rng.random()
        sweep = ("--sweep", f"cavity.g={g_lo!r}:{g_hi!r}:{LASING_POINTS}")
        return Pass(
            (
                Command(exact + sweep, LASING_POINTS),
                Command(("laser", "--config", str(config)) + sweep, 0),
            ),
            check,
        )

    return Workload("quantum-lasing", make_pass, exact)


# quantum-evolve -------------------------------------------------------------

EVOLVE_T = 30.0
EVOLVE_STORE = 41


def quantum_evolve(seed: int, workdir: Path) -> Workload:
    def scenario(index: int) -> tuple[Path, str]:
        rng = _rng("quantum-evolve", seed, index)
        text = (
            _LEVELS
            + f"cavity.omega_cav = 1.05\ncavity.g = {rng.uniform(0.15, 0.25)!r}\n"
            + "cavity.fock_cutoff = 12\n"
            + _reservoirs(
                rng.uniform(0.45, 0.5), rng.uniform(0.45, 0.5), "fixed:0.95", "fixed:0.02"
            )
            + f"bath.gamma = {rng.uniform(0.45, 0.5)!r}\nbath.temperature = 0.3\n"
            + "bath.occupation = effective\n"
        )
        path = workdir / f"evolve-{index}.cfg"
        path.write_text(text, encoding="utf-8")
        return path, text

    def make_pass(index: int) -> Pass:
        path, text = scenario(index)
        spec = build_system_spec(parse_config(text))
        argv = ("quantum-evolve", "--config", str(path),
                "--t-final", repr(EVOLVE_T), "--n-store", str(EVOLVE_STORE))

        def check(outputs):
            return [gate.check_evolution(outputs[0], spec, EVOLVE_STORE, EVOLVE_T)]

        return Pass((Command(argv, 1),), check)

    cold = ("quantum-evolve", "--config", str(scenario(0)[0]),
            "--t-final", repr(EVOLVE_T / 100), "--n-store", "2")
    return Workload("quantum-evolve", make_pass, cold, sim_time=EVOLVE_T)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "classical-audit": classical_audit,
    "quantum-audit": quantum_audit,
    "quantum-lasing": quantum_lasing,
    "quantum-evolve": quantum_evolve,
}

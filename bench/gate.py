"""Correctness gate: checks on the CSV the CLI printed.

Each check returns a ``Verdict`` for one command: its samples, the error rows
the program reported (by exception type), and the samples the gate found
wrong.  Error rows are the program's own typed refusals; wrong samples are
outputs that break one of the identities below.  Tolerances are fixed here,
before any run, from the solvers' own accuracy.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field

from scipy.sparse.linalg import expm_multiply

from detuned_tls import thermo
from detuned_tls.quantum import (
    HilbertLayout,
    build_liouvillian,
    build_operators,
    observables,
    quantum_steady_state,
    thermal_product_state,
)

# Flux identities hold to rtol relative plus atol in energy-flow units.  The
# classical flows are closed forms (rounding only); the quantum ones inherit
# the linear solve's residual bound of 1e-10.
FLUX_TOL = {"classical": (1e-9, 1e-13), "quantum": (1e-9, 1e-10)}
RATE_DEADBAND = 1e-12  # the program's own dead band for the rate sign
SDOT_TOL = 1e-10  # the CLI's default entropy-violation tolerance
LASING_MIN_PHOTONS = 5.0
# RK4 at the program's step bound h ||L|| <= 0.05 against the exact propagator;
# measured 1.5e-14 on the quantum-evolve scenarios.
EVOLVE_STEP_TOL = 1e-8

_FLOWS = (("Edot_u", 1.0, "Eeff_u"), ("Edot_l", -1.0, "Eeff_l"), ("Edot_b_or_P_S", -1.0, "Eeff_ph"))
_OCCUPATION_KEYS = ("reservoir_u.occupation", "reservoir_l.occupation", "bath.occupation")


@dataclass
class Verdict:
    samples: int
    errors: Counter = field(default_factory=Counter)
    wrong: dict[int, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.samples - sum(self.errors.values()) - len(self.wrong)

    def fail_all(self, reason: str) -> None:
        self.errors.clear()
        self.wrong = {i: reason for i in range(self.samples)}


def rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_flux_rows(text: str, samples: int, treatment: str) -> tuple[Verdict, list[dict]]:
    """Flux-ratio, first-law and second-law checks on steady-state rows.

    For |R_ss| above the dead band, Edot_u/R, -Edot_l/R and -Edot_b/R must
    equal the effective energies.  The first-law residual must vanish.  Where
    every occupation is thermal at the effective energies, total entropy
    production must not be negative.
    """
    verdict = Verdict(samples)
    table = rows(text)
    if len(table) != samples:
        verdict.fail_all(f"expected {samples} rows, got {len(table)}")
        return verdict, table
    rtol, atol = FLUX_TOL[treatment]
    for index, row in enumerate(table):
        flags = row["flags"]
        if flags.startswith("error="):
            verdict.errors[flags[len("error="):].split(":", 1)[0]] += 1
            continue
        rate = float(row["R_ss"])
        problems = []
        for flow, sign, eff in _FLOWS:
            expected = float(row[eff]) * rate
            if abs(rate) > RATE_DEADBAND and not (
                abs(sign * float(row[flow]) - expected) <= rtol * abs(expected) + atol
            ):
                problems.append(f"{flow}/R_ss != {eff}")
        scale = max(abs(float(row[flow])) for flow, _, _ in _FLOWS)
        if not abs(float(row["law1_residual"])) <= rtol * scale + atol:
            problems.append("first-law residual")
        effective = all(row.get(k, "effective") == "effective" for k in _OCCUPATION_KEYS)
        if effective and not float(row["Sdot_total"]) >= -SDOT_TOL:
            problems.append("negative entropy production under effective occupations")
        if problems:
            verdict.wrong[index] = ", ".join(problems)
    return verdict, table


def check_violation_row(text: str) -> Verdict:
    """A find-violation row: Sdot < 0 at bare energies, >= 0 at effective ones."""
    verdict, table = check_flux_rows(text, 1, "classical")
    if verdict.errors or verdict.wrong:
        return verdict
    row = table[0]
    if not float(row["Sdot_total"]) < -SDOT_TOL:
        verdict.wrong[0] = "reported violation has non-negative entropy production"
        return verdict
    params = {key: float(row[key]) for key in thermo.DEFAULT_VIOLATION_RANGES}
    result = thermo.SweepResult(int(row["sample_id"]), params, None, None, True, None)
    if not thermo.recheck_with_effective_energies(result) >= -SDOT_TOL:
        verdict.wrong[0] = "violation persists under effective occupations"
    return verdict


def check_lasing(quantum_text: str, laser_text: str, samples: int) -> Verdict:
    """Exact photon number against mean field where the latter is >= 5.

    In steady state R_ss = gamma_b (<n> - n_b); with a cold bath R_ss/gamma_b
    is the exact <n>.  Its relative distance from the mean-field intensity
    I_MF must stay within 1/I_MF.
    """
    verdict, table = check_flux_rows(quantum_text, samples, "quantum")
    reference = rows(laser_text)
    if len(reference) != samples:
        verdict.fail_all(f"expected {samples} mean-field rows, got {len(reference)}")
        return verdict
    for index, (row, ref) in enumerate(zip(table, reference)):
        intensity = float(ref["intensity"])
        skip = index in verdict.wrong or row["flags"].startswith("error=")
        if skip or intensity < LASING_MIN_PHOTONS:
            continue
        photons = float(row["R_ss"]) / float(row["bath.gamma"])
        if not abs(photons - intensity) <= 1.0:
            verdict.wrong[index] = f"<n> = {photons:.6g} vs mean field {intensity:.6g}"
    return verdict


def check_evolution(text: str, spec, n_store: int, t_final: float) -> Verdict:
    """Trajectory from vacuum: bounds, the first stored step and the final state.

    The first stored step must match exp(L t) applied to the vacuum, and the
    final row the direct steady-state solve to within 10 exp(-gamma_min T),
    the decay of the slowest bare relaxation rate.
    """
    verdict = Verdict(1)
    table = rows(text)
    if len(table) != n_store:
        verdict.fail_all(f"expected {n_store} rows, got {len(table)}")
        return verdict
    cutoff = spec.cavity.fock_cutoff
    values = [{k: float(v) for k, v in row.items()} for row in table]
    problems = []
    if any(values[0][k] != 0.0 for k in ("t", "sigma_uu", "sigma_ll", "n_ph")):
        problems.append("first row is not the vacuum")
    for row in values:
        if not (0.0 <= row["sigma_uu"] <= 1.0 and 0.0 <= row["sigma_ll"] <= 1.0):
            problems.append(f"population outside [0, 1] at t = {row['t']}")
            break
        if not 0.0 <= row["n_ph"] <= cutoff:
            problems.append(f"photon number outside [0, {cutoff}] at t = {row['t']}")
            break
    if not math.isclose(values[-1]["t"], t_final, rel_tol=1e-12):
        problems.append(f"last row at t = {values[-1]['t']}, not {t_final}")

    layout = HilbertLayout(cutoff)
    ops = build_operators(layout, spec)
    vacuum = thermal_product_state(layout, 0.0, 0.0, 0.0)
    step = values[1]
    rho = expm_multiply(build_liouvillian(ops, spec).matrix * step["t"], vacuum.ravel())
    propagated = observables(rho.reshape(vacuum.shape), ops, spec)
    problems += _compare("exact propagator", step, propagated, EVOLVE_STEP_TOL)

    solution = quantum_steady_state(spec)
    gamma_min = min(spec.reservoir_u.gamma, spec.reservoir_l.gamma, spec.bath.gamma)
    problems += _compare("steady state", values[-1],
                         observables(solution.state.rho, solution.ops, spec),
                         10.0 * math.exp(-gamma_min * t_final))
    if problems:
        verdict.wrong[0] = ", ".join(problems)
    return verdict


def _compare(label: str, row: dict[str, float], expected, tol: float) -> list[str]:
    return [
        f"{key} {row[key]:.6g} at t = {row['t']} vs {label} {value:.6g}"
        for key, value in (
            ("sigma_uu", expected.sigma_uu),
            ("sigma_ll", expected.sigma_ll),
            ("n_ph", expected.n_ph),
            ("rate", expected.rate),
        )
        if not abs(row[key] - value) <= tol
    ]

"""Plain-text scenario files: ``key = value`` lines mapped to SystemSpec.

Format: UTF-8, one assignment per line, ``#`` starts a comment, blank lines
ignored, nesting through dotted keys (``reservoir_u.gamma``).  Unknown and
duplicate keys are rejected with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EnergyLevels,
    FermionicReservoir,
    OccupationSpec,
    SCENARIO_KEYS,
    SystemSpec,
)

class ConfigError(ValueError):
    """Malformed scenario file; carries the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated key-value view of a scenario file.

    Values are kept as their parsed text so that parse -> serialize -> parse
    is the identity.
    """

    values: dict[str, str]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self.values


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario document, rejecting unknown or duplicate keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        values[key] = value
    return ScenarioConfig(values={k: values[k] for k in SCENARIO_KEYS if k in values})


def serialize_config(config: ScenarioConfig) -> str:
    """Canonically ordered text form of a scenario."""
    lines = [f"{key} = {config.values[key]}" for key in SCENARIO_KEYS if key in config.values]
    return "\n".join(lines) + "\n"


def format_number(value) -> str:
    """Canonical text for config values and CSV cells (17 significant digits)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.17g}"
        return f"{value.real:.17g}{value.imag:+.17g}j"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_float(config: ScenarioConfig, key: str) -> float:
    try:
        return float(config.values[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {config.values[key]!r}") from exc


def _parse_complex(config: ScenarioConfig, key: str) -> complex:
    try:
        return complex(config.values[key].replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a complex number: {config.values[key]!r}") from exc


def _parse_occupation(config: ScenarioConfig, key: str) -> OccupationSpec:
    raw = config.values[key]
    if raw == "bare":
        return OccupationSpec.thermal_bare()
    if raw == "effective":
        return OccupationSpec.thermal_effective()
    if raw.startswith("fixed:"):
        try:
            return OccupationSpec.fixed(float(raw.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: bad fixed occupation {raw!r}") from exc
    raise ConfigError(
        f"key {key!r}: occupation must be 'bare', 'effective', or 'fixed:<value>'"
    )


def _require(config: ScenarioConfig, keys: tuple[str, ...], section: str) -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise ConfigError(f"{section} section incomplete: missing {', '.join(missing)}")


def build_system_spec(config: ScenarioConfig) -> SystemSpec:
    """Build a SystemSpec from the keys present in the scenario.

    The drive, cavity, and bath sections are optional as a whole but must be
    complete when any of their keys appears.  Semantic range errors from the
    parameter types are re-raised as ConfigError.
    """
    _require(config, ("e_upper", "e_lower"), "levels")
    for side in ("reservoir_u", "reservoir_l"):
        _require(
            config,
            (f"{side}.gamma", f"{side}.mu", f"{side}.temperature", f"{side}.occupation"),
            side,
        )

    try:
        levels = EnergyLevels(_parse_float(config, "e_upper"), _parse_float(config, "e_lower"))

        def reservoir(side: str) -> FermionicReservoir:
            return FermionicReservoir(
                gamma=_parse_float(config, f"{side}.gamma"),
                occupation=_parse_occupation(config, f"{side}.occupation"),
                mu=_parse_float(config, f"{side}.mu"),
                temperature=_parse_float(config, f"{side}.temperature"),
            )

        drive = None
        if any(k.startswith("drive.") for k in config.values):
            _require(config, ("drive.omega", "drive.epsilon"), "drive")
            drive = ClassicalDrive(
                omega=_parse_float(config, "drive.omega"),
                epsilon=_parse_complex(config, "drive.epsilon"),
            )

        cavity = None
        if any(k.startswith("cavity.") for k in config.values):
            _require(config, ("cavity.omega_cav", "cavity.g"), "cavity")
            cavity = CavitySpec(
                omega_cav=_parse_float(config, "cavity.omega_cav"),
                g=_parse_complex(config, "cavity.g"),
                fock_cutoff=(
                    int(config.values["cavity.fock_cutoff"])
                    if "cavity.fock_cutoff" in config
                    else 12
                ),
            )

        bath = None
        if any(k.startswith("bath.") for k in config.values):
            _require(config, ("bath.gamma", "bath.temperature", "bath.occupation"), "bath")
            bath = BosonicBath(
                gamma=_parse_float(config, "bath.gamma"),
                occupation=_parse_occupation(config, "bath.occupation"),
                temperature=_parse_float(config, "bath.temperature"),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return SystemSpec(
        levels=levels,
        reservoir_u=reservoir("reservoir_u"),
        reservoir_l=reservoir("reservoir_l"),
        drive=drive,
        cavity=cavity,
        bath=bath,
    )


def _occupation_text(occ: OccupationSpec) -> str:
    if occ.kind == "fixed":
        return f"fixed:{format_number(occ.value)}"
    return occ.kind


def config_from_system_spec(spec: SystemSpec) -> ScenarioConfig:
    """Canonical scenario text for a SystemSpec (inverse of build)."""
    values: dict[str, str] = {
        "e_upper": format_number(spec.levels.e_upper),
        "e_lower": format_number(spec.levels.e_lower),
    }
    if spec.drive is not None:
        values["drive.omega"] = format_number(spec.drive.omega)
        values["drive.epsilon"] = format_number(complex(spec.drive.epsilon))
    if spec.cavity is not None:
        values["cavity.omega_cav"] = format_number(spec.cavity.omega_cav)
        values["cavity.g"] = format_number(complex(spec.cavity.g))
        values["cavity.fock_cutoff"] = str(spec.cavity.fock_cutoff)
    for side, res in (("reservoir_u", spec.reservoir_u), ("reservoir_l", spec.reservoir_l)):
        values[f"{side}.gamma"] = format_number(res.gamma)
        values[f"{side}.mu"] = format_number(res.mu)
        values[f"{side}.temperature"] = format_number(res.temperature)
        values[f"{side}.occupation"] = _occupation_text(res.occupation)
    if spec.bath is not None:
        values["bath.gamma"] = format_number(spec.bath.gamma)
        values["bath.temperature"] = format_number(spec.bath.temperature)
        values["bath.occupation"] = _occupation_text(spec.bath.occupation)
    return ScenarioConfig(values={k: values[k] for k in SCENARIO_KEYS if k in values})


def resolve_parameter_key(name: str) -> str:
    """Resolve a possibly-unqualified sweep key to its canonical dotted form.

    A bare leaf name is accepted when it identifies exactly one numeric
    parameter (``omega_cav`` -> ``cavity.omega_cav``).
    """
    numeric = [k for k, kind in SCENARIO_KEYS.items() if kind is not OccupationSpec]
    if name in numeric:
        return name
    matches = [k for k in numeric if k.split(".")[-1] == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ConfigError(f"unknown parameter {name!r}")
    raise ConfigError(f"parameter {name!r} is ambiguous: {', '.join(matches)}")

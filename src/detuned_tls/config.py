"""Plain-text scenario files: ``key = value`` lines mapped to SystemSpec.

Format: UTF-8, one assignment per line, ``#`` starts a comment, blank lines
ignored, nesting through dotted keys (``reservoir_u.gamma``).  Unknown and
duplicate keys are rejected with the offending line number.
"""

from __future__ import annotations

from .model import (
    OCC_BARE,
    OCC_EFFECTIVE,
    OCC_FIXED,
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


def parse_config(text: str) -> dict[str, str]:
    """Parse a scenario document, rejecting unknown or duplicate keys.

    Values are kept as their stripped text, in the canonical key order of
    ``SCENARIO_KEYS``.
    """
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
    return {k: values[k] for k in SCENARIO_KEYS if k in values}


# Canonical number text: 17 significant digits read back as the same float.
_DIGITS = ".17g"


def format_number(value) -> str:
    """Canonical text for config values and CSV cells."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return format(value.real, _DIGITS)
        return format(value.real, _DIGITS) + format(value.imag, "+" + _DIGITS) + "j"
    if isinstance(value, float):
        return format(value, _DIGITS)
    return str(value)


def _parse(config: dict[str, str], key: str):
    """The value of ``key``, parsed as its type in SCENARIO_KEYS."""
    raw = config[key]
    kind = SCENARIO_KEYS[key]
    if kind is OccupationSpec:
        if raw in (OCC_BARE, OCC_EFFECTIVE):
            return OccupationSpec(raw)
        if raw.startswith("fixed:"):
            try:
                return OccupationSpec.fixed(float(raw.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: bad fixed occupation {raw!r}") from exc
        raise ConfigError(
            f"key {key!r}: occupation must be 'bare', 'effective', or 'fixed:<value>'"
        )
    try:
        return kind(raw.replace(" ", "")) if kind is complex else kind(raw)
    except ValueError as exc:
        noun = {int: "an integer", complex: "a complex number"}.get(kind, "a number")
        raise ConfigError(f"key {key!r}: not {noun}: {raw!r}") from exc


# Scenario sections in the order they are read; drive, cavity and bath may be
# left out as a whole.  Keys with a default may be left out of a section.
_SECTIONS = {
    "levels": EnergyLevels,
    "reservoir_u": FermionicReservoir,
    "reservoir_l": FermionicReservoir,
    "drive": ClassicalDrive,
    "cavity": CavitySpec,
    "bath": BosonicBath,
}
_OPTIONAL_SECTIONS = ("drive", "cavity", "bath")
_DEFAULTED = ("cavity.fock_cutoff",)


def build_system_spec(config: dict[str, str]) -> SystemSpec:
    """Build a SystemSpec from the keys present in the scenario.

    The drive, cavity, and bath sections are optional as a whole but must be
    complete when any of their keys appears.  Semantic range errors from the
    parameter types are re-raised as ConfigError.
    """
    sections = {}
    for group, section in _SECTIONS.items():
        keys = [k for k in SCENARIO_KEYS if (k.rpartition(".")[0] or "levels") == group]
        if group in _OPTIONAL_SECTIONS and not any(k in config for k in keys):
            continue
        missing = [k for k in keys if k not in config and k not in _DEFAULTED]
        if missing:
            raise ConfigError(f"{group} section incomplete: missing {', '.join(missing)}")
        try:
            sections[group] = section(
                **{k.rpartition(".")[2]: _parse(config, k) for k in keys if k in config}
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return SystemSpec(**sections)


def config_from_system_spec(spec: SystemSpec) -> dict[str, str]:
    """Canonical scenario text for a SystemSpec (inverse of build)."""
    values: dict[str, str] = {}
    for key, kind in SCENARIO_KEYS.items():
        group, _, name = key.rpartition(".")
        section = getattr(spec, group or "levels")
        if section is None:
            continue
        value = getattr(section, name)
        if kind is not OccupationSpec:
            values[key] = format_number(kind(value))
        elif value.kind == OCC_FIXED:
            values[key] = f"fixed:{format_number(value.value)}"
        else:
            values[key] = value.kind
    return values


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

"""Declarative key-value configuration with unit-annotated keys.

Config files are plain ``key = value`` lines (``#`` comments, blank lines
ignored); values parse as int, float, bool, or string.  Dimensioned
quantities annotate their unit in the key suffix — ``lambda_so_ghz = 850``,
``pulse_spacing_ns = 100`` — and the typed getters below locate whichever
annotated spelling is present and convert to base units (Hz, s, T, W).
Insertion order is preserved, which ordered consumers (efficiency budgets,
loss chains) rely on.

Command-line overrides use the same ``key=value`` syntax.
"""

from __future__ import annotations

import math
from pathlib import Path

from .photon_budget import EfficiencyBudget, LossChain, LossCorrection

FREQUENCY_SUFFIXES = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
TIME_SUFFIXES = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
FIELD_SUFFIXES = {"t": 1.0, "mt": 1e-3, "ut": 1e-6}
POWER_SUFFIXES = {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9, "pw": 1e-12}


def parse_value(text: str):
    """Parse one config value: int, float, true/false, or bare string."""
    token = text.strip()
    lowered = token.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines into an insertion-ordered dict."""
    config: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{source}:{lineno}: empty key")
        if key in config:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        config[key] = parse_value(value)
    return config


def load_config(path) -> dict:
    """Load a config file into an insertion-ordered dict."""
    p = Path(path)
    return parse_config_text(p.read_text(), source=str(p))


def parse_overrides(pairs) -> dict:
    """Parse command-line ``key=value`` override tokens."""
    overrides: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} must have the form key=value")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = parse_value(value)
    return overrides


def merged(base: dict, overrides: dict) -> dict:
    """Base config with overrides applied (override keys win)."""
    out = dict(base)
    out.update(overrides)
    return out


def _dimensioned(config: dict, base_key: str, suffixes: dict, default, unit: str):
    matches = [
        (suffix, factor)
        for suffix, factor in suffixes.items()
        if f"{base_key}_{suffix}" in config
    ]
    if not matches:
        if default is not None:
            return default
        spellings = ", ".join(f"{base_key}_{s}" for s in suffixes)
        raise KeyError(f"missing {unit} key {base_key!r} (looked for {spellings})")
    if len(matches) > 1:
        keys = ", ".join(f"{base_key}_{s}" for s, _ in matches)
        raise ValueError(f"ambiguous {unit} key {base_key!r}: {keys} all present")
    suffix, factor = matches[0]
    return number(config, f"{base_key}_{suffix}") * factor


def frequency_hz(config: dict, base_key: str, default: float | None = None) -> float:
    """Frequency named ``<base_key>_<hz|khz|mhz|ghz|thz>``, converted to Hz."""
    return _dimensioned(config, base_key, FREQUENCY_SUFFIXES, default, "frequency")


def time_s(config: dict, base_key: str, default: float | None = None) -> float:
    """Duration named ``<base_key>_<s|ms|us|ns|ps>``, converted to seconds."""
    return _dimensioned(config, base_key, TIME_SUFFIXES, default, "time")


def field_t(config: dict, base_key: str, default: float | None = None) -> float:
    """Magnetic field named ``<base_key>_<t|mt|ut>``, converted to tesla."""
    return _dimensioned(config, base_key, FIELD_SUFFIXES, default, "field")


def power_w(config: dict, base_key: str, default: float | None = None) -> float:
    """Power named ``<base_key>_<w|mw|uw|nw|pw>``, converted to watts."""
    return _dimensioned(config, base_key, POWER_SUFFIXES, default, "power")


def number(config: dict, key: str, default: float | None = None) -> float:
    """Finite numeric value; booleans, strings, NaN and infinities are rejected."""
    if key not in config:
        if default is not None:
            return default
        raise KeyError(f"missing config key {key!r}")
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be finite and numeric, got {value!r}")
    return float(value)


def integer(config: dict, key: str, default: int | None = None) -> int:
    """Integer value (counts, seeds)."""
    if key not in config:
        if default is not None:
            return default
        raise KeyError(f"missing config key {key!r}")
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def fraction(config: dict, key: str, default: float | None = None) -> float:
    """Numeric value validated to lie in [0, 1]."""
    value = number(config, key, default)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"config key {key!r} must be in [0, 1], got {value}")
    return value


#: Prefix marking ordered efficiency stages in a budget config.
STAGE_PREFIX = "stage_"

#: Prefix marking ordered corrections in a loss-chain config.
CORRECTION_PREFIX = "correction_"


def budget_from_config(config: dict) -> EfficiencyBudget:
    """Build an efficiency budget from ``stage_<name> = fraction`` keys, in file order."""
    stages = [
        (key[len(STAGE_PREFIX):], float(value))
        for key, value in config.items()
        if key.startswith(STAGE_PREFIX)
    ]
    if not stages:
        raise ValueError(f"no {STAGE_PREFIX}* keys found in budget config")
    return EfficiencyBudget.from_pairs(stages)


def loss_chain_from_config(config: dict) -> LossChain:
    """Build a loss chain from a roundtrip value plus ordered correction keys.

    Expected keys: ``measured_roundtrip = 0.27`` and, per correction,
    ``correction_<name> = <kind> <value> [length_m]`` with kind one of
    fraction / db / db_per_km.
    """
    roundtrip = number(config, "measured_roundtrip")
    corrections = []
    for key, value in config.items():
        if not key.startswith(CORRECTION_PREFIX):
            continue
        name = key[len(CORRECTION_PREFIX):]
        parts = str(value).split()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"correction {name!r} must be '<kind> <value> [length_m]', got {value!r}"
            )
        kind = parts[0]
        magnitude = float(parts[1])
        length_m = float(parts[2]) if len(parts) == 3 else 0.0
        corrections.append(LossCorrection(name=name, kind=kind, value=magnitude, length_m=length_m))
    return LossChain(measured_roundtrip=roundtrip, corrections=tuple(corrections))

"""Key-value configuration and the domains its values are checked against.

Config files are plain ``key = value`` lines (``#`` comments, blank lines
ignored); values parse as int, float, bool, or string.  Insertion order is
preserved, which ordered consumers (efficiency budgets, loss chains) rely
on.  Command-line overrides use the same ``key=value`` syntax.

Each scenario key has one spelling and a :class:`Domain`; a dimensioned
key carries its unit in the suffix (``linewidth_mhz``, ``step_ns``), and
:func:`in_base_units` strips the suffix and converts the value to base
units (Hz, s, T, W, 1/s).  A value outside its domain is a ``ValueError``
that names the key.

This module imports only the standard library.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple


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
    """Parse command-line ``key=value`` override tokens; a key may appear once."""
    overrides: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} must have the form key=value")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in overrides:
            raise ValueError(f"override {pair!r}: duplicate key {key!r}")
        overrides[key] = parse_value(value)
    return overrides


def merged(base: dict, overrides: dict) -> dict:
    """Base config with overrides applied (override keys win)."""
    out = dict(base)
    out.update(overrides)
    return out


class Domain(NamedTuple):
    """What one config key may hold: a Python type, a range test and its wording."""

    kind: type  # int, float or str; a float key also takes an int
    test: Callable[[object], bool]
    text: str

    def check(self, key: str, value):
        """``value`` converted to ``kind``, or a ``ValueError`` naming ``key``."""
        types = (int, float) if self.kind is float else self.kind
        try:
            ok = isinstance(value, types) and not isinstance(value, bool) and self.test(value)
        except OverflowError:  # an integer too large for a float
            ok = False
        if not ok:
            raise ValueError(f"config key {key!r} must be {self.text}, got {value!r}")
        return self.kind(value)


SEED = Domain(int, lambda v: v >= 0, "an integer >= 0")
REAL = Domain(float, math.isfinite, "a finite number")
POSITIVE = Domain(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = Domain(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
FRACTION = Domain(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
OPEN_FRACTION = Domain(float, lambda v: 0 < v <= 1, "a number in (0, 1]")


def count(minimum: int, maximum: int) -> Domain:
    """Integers from ``minimum`` up to ``maximum``."""
    text = f"an integer >= {minimum} and <= {maximum}"
    return Domain(int, lambda v: minimum <= v <= maximum, text)


def choice(*options: str) -> Domain:
    """One of the given strings."""
    return Domain(str, lambda v: v in options, "one of " + ", ".join(options))


def _is_finite_number(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


#: A loss-chain correction; :class:`~snvsim.efficiency.LossCorrection`
#: judges the kind and the range.
CORRECTION = Domain(
    str,
    lambda v: len(v.split()) in (2, 3) and all(map(_is_finite_number, v.split()[1:])),
    "'<kind> <value> [length_m]' with finite numbers",
)

#: Factor from each unit suffix a scenario key carries to base units.
UNIT_FACTORS = {
    "ghz": 1e9, "mhz": 1e6, "ghz_per_t": 1e9, "mcps": 1e6,
    "s": 1.0, "us": 1e-6, "ns": 1e-9, "mt": 1e-3, "pw": 1e-12,
}


#: Most points a sampled axis may have; a larger one is refused before it is allocated.
MAX_GRID_POINTS = 10**6


def in_base_units(key: str, value) -> tuple[str, object]:
    """``(name, value)``: a unit suffix stripped from ``key`` and applied to ``value``."""
    for suffix, factor in UNIT_FACTORS.items():
        if key.endswith("_" + suffix):
            return key[: -len(suffix) - 1], value * factor
    return key, value

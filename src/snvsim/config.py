"""Key-value configuration and the domains its values are checked against.

Config files are plain ``key = value`` lines (``#`` comments, blank lines
ignored); values parse as int, float, or string.  There is no boolean
form: ``true`` stays the string ``'true'``, which every numeric domain
refuses.  Insertion order is preserved, which ordered consumers (efficiency
budgets, loss chains) rely on; the grammar of their values is theirs
(:mod:`snvsim.efficiency`).  Command-line overrides use the same
``key=value`` syntax.

Each scenario key has one spelling and a :class:`Domain`; a dimensioned
key carries its unit in the suffix (``linewidth_mhz``, ``step_ns``), and
:func:`in_base_units` strips the suffix and converts the value to base
units (Hz, s, T, W, 1/s).  A domain is stated in the key's own unit, as
data: its check, its text and the edge values a probe runs all derive from
the one description.  A value outside its domain is a ``ValueError`` that
names the key.

This module imports only the standard library.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import NamedTuple


def parse_value(text: str):
    """Parse one config value: int, float, or bare string."""
    token = text.strip()
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


class Domain(NamedTuple):
    """What one config key may hold: a type and a range, or a string's options.

    Its check, its text and its edges all derive from these fields.  An end
    at infinity is no end; a float key refuses inf and NaN whatever its range.
    """

    kind: type  # int, float or str; a float key also takes an int
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False  # no domain has an open upper end
    excluded: tuple = ()  # points of the range that are refused
    options: tuple = ()  # a str key's allowed values

    def __contains__(self, value) -> bool:
        if self.kind is str:
            return value in self.options
        if isinstance(value, bool) or not isinstance(value, (int, self.kind)):
            return False
        try:
            if self.kind is float and not math.isfinite(value):
                return False
        except OverflowError:  # an integer too large for a float
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and value <= self.hi and value not in self.excluded

    @property
    def text(self) -> str:
        if self.kind is str:
            return "one of " + ", ".join(self.options)
        if self.kind is int:
            return f"an integer >= {self.lo}" + (f" and <= {self.hi}" if self.hi < math.inf else "")
        if (self.lo, self.hi) == (-math.inf, math.inf):
            text = "a finite number"
        elif self.hi == math.inf:
            text = f"a finite number {'>' if self.lo_open else '>='} {self.lo!r}"
        else:
            text = f"a number in {'[('[self.lo_open]}{self.lo!r}, {self.hi!r}]"
        return text + "".join(f" other than {point!r}" for point in self.excluded)

    def edges(self) -> list:
        """Values at and just past each end and each excluded point: lo - 1, lo, hi
        and hi + 1 of an integer range; a closed float end and the next float outside
        it, an open one and the next float inside (at 0 also the smallest normal
        float), and for an end at infinity 1e300 and the largest float."""
        if self.kind is str:
            return list(self.options)
        if self.kind is int:
            return [self.lo - 1, self.lo] + ([self.hi, self.hi + 1] if self.hi < math.inf else [])
        values = [self.lo, math.nextafter(self.lo, math.inf if self.lo_open else -math.inf)]
        values += [sys.float_info.min] if self.lo_open and self.lo == 0 else []
        if self.hi == math.inf:
            values += [1e300, sys.float_info.max]
        else:
            values += [self.hi, math.nextafter(self.hi, math.inf)]
        for point in self.excluded:
            values += [math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)]
        return values

    def check(self, key: str, value, what: str = "config key"):
        """``value`` converted to ``kind``, or a ``ValueError`` naming ``key`` as a ``what``."""
        if value not in self:
            raise ValueError(f"{what} {key!r} must be {self.text}, got {value!r}")
        return self.kind(value)


SEED = Domain(int, 0)
POSITIVE = Domain(float, 0, lo_open=True)
NON_NEGATIVE = Domain(float, 0)
FRACTION = Domain(float, 0, 1)
OPEN_FRACTION = Domain(float, 0, 1, lo_open=True)
#: Input-coupling ratios of fig4b, fig4c and a ``reflection_dip`` fit: at f_in = 0.5
#: the far-detuned reference intensity that normalizes the reflection is zero.
INPUT_COUPLING = Domain(float, 0, 1, lo_open=True, excluded=(0.5,))


#: Factor from each unit suffix a scenario key carries to base units.
UNIT_FACTORS = {
    "ghz": 1e9, "mhz": 1e6, "ghz_per_t": 1e9, "mcps": 1e6,
    "s": 1.0, "us": 1e-6, "ns": 1e-9, "mt": 1e-3, "pw": 1e-12,
}


#: Most points a sampled axis may have; a larger one is refused before it is allocated.
MAX_GRID_POINTS = 10**6


def grid_points(start: float, stop: float, step: float) -> float:
    """Points of the ascending grid from ``start`` to ``stop``, inclusive within half
    a step; a count above MAX_GRID_POINTS unrounded, inf if the ratio overflows."""
    n = (stop - start) / step
    return n + 1 if n + 1 > MAX_GRID_POINTS else round(n) + 1


def in_base_units(key: str, value) -> tuple[str, object]:
    """``(name, value)``: a unit suffix stripped from ``key`` and applied to ``value``."""
    for suffix, factor in UNIT_FACTORS.items():
        if key.endswith("_" + suffix):
            return key[: -len(suffix) - 1], value * factor
    return key, value

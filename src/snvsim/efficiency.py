"""Detection-efficiency accounting: budgets, loss chains and the fibre taper.

Scalar bookkeeping around detected photons:

* multiplicative efficiency budgets (ordered ``(name, fraction)`` stages
  whose product is the end-to-end detection efficiency), and
* loss-chain extraction of a single coupling efficiency from a measured
  roundtrip transmission with documented corrections, next to the
  half-angle of the etched fibre taper,

together with their config builders and the ``table_s1`` and
``loss_chain`` scenario runners.  All efficiencies are linear power
fractions in (0, 1]; dB values convert via 10^(-dB/10).  One table,
:data:`CORRECTION_KINDS`, states the loss-correction grammar: the config
domain :data:`CORRECTION` and :meth:`LossCorrection.transmission` both
read it.

This module imports only the standard library, so ``snvsim budget`` and
these two scenarios run without numpy.  It does not import ``dataclasses``
either: its records are plain ``typing.NamedTuple`` classes, and a value is
checked where it is read (a budget's stages by :func:`budget_report`, a
roundtrip by :func:`single_pass_from_roundtrip`, a correction's numbers by
its ``transmission``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .artifacts import summary_row
from .config import NON_NEGATIVE, OPEN_FRACTION, Domain
from .units import db_to_fraction, fraction_to_db


def budget_report(stages) -> dict:
    """Per-stage and cumulative values, in fraction and dB, of a budget.

    ``stages`` are ``(name, fraction)`` pairs in chain order: at least one,
    each fraction in (0, 1].
    """
    if not stages:
        raise ValueError("budget must contain at least one stage")
    rows = []
    cumulative = 1.0
    for name, value in stages:
        if not 0.0 < value <= 1.0:
            raise ValueError(f"stage {name!r} must be in (0, 1], got {value}")
        cumulative *= value
        rows.append(
            {
                "stage": name,
                "fraction": value,
                "loss_db": fraction_to_db(value),
                "cumulative_fraction": cumulative,
                "cumulative_loss_db": fraction_to_db(cumulative),
            }
        )
    return {"stages": rows, "total_fraction": cumulative, "total_loss_db": fraction_to_db(cumulative)}


#: Each loss-correction kind: its numbers as ``(name, domain)`` pairs, and the
#: transmitted fraction they give.
CORRECTION_KINDS = {
    "fraction": ((("fraction", OPEN_FRACTION),), lambda fraction: fraction),
    "db": ((("dB loss", NON_NEGATIVE),), db_to_fraction),
    "db_per_km": (
        (("dB/km", NON_NEGATIVE), ("length_m", NON_NEGATIVE)),
        lambda db_per_km, length_m: db_to_fraction(db_per_km * length_m / 1000.0),
    ),
}


class _Correction(Domain):
    """A loss-chain correction's config value: a kind, then its numbers in their domains."""

    __slots__ = ()
    text = ("'<kind> <value>' with kind fraction (a value in (0, 1]) or db (a value >= 0), "
            "or 'db_per_km <value> <length_m>' (both >= 0), with finite numbers")

    def __contains__(self, value) -> bool:
        kind, *tokens = (value.split() if isinstance(value, str) else []) or [""]
        numbers = CORRECTION_KINDS.get(kind, ((), None))[0]
        try:
            return len(tokens) == len(numbers) > 0 and all(
                float(token) in domain for token, (_, domain) in zip(tokens, numbers)
            )
        except ValueError:  # a token that is not a number
            return False

    def edges(self) -> list:
        """Each number of each kind at each of its edges, the other numbers at 1."""
        return [
            " ".join([kind, *(repr(edge) if i == j else "1" for j in range(len(numbers)))])
            for kind, (numbers, _) in CORRECTION_KINDS.items()
            for i, (_, domain) in enumerate(numbers)
            for edge in domain.edges()
        ]


#: The config domain of a ``correction_<name>`` key.
CORRECTION = _Correction(str)


class LossCorrection(NamedTuple):
    """One documented correction applied to a measured transmission.

    ``kind`` is a key of :data:`CORRECTION_KINDS`: ``"fraction"`` (a
    transmission ``value``), ``"db"`` (an attenuation ``value`` in dB) or
    ``"db_per_km"`` (``value`` in dB/km over ``length_m``).
    """

    name: str
    kind: str
    value: float
    length_m: float = 0.0

    def transmission(self) -> float:
        """Transmitted fraction this correction accounts for."""
        if self.kind not in CORRECTION_KINDS:
            raise ValueError(f"correction {self.name!r}: unknown kind {self.kind!r}")
        numbers, transmission = CORRECTION_KINDS[self.kind]
        values = (self.value, self.length_m)[: len(numbers)]
        for (label, domain), value in zip(numbers, values):
            if value not in domain:
                raise ValueError(
                    f"correction {self.name!r}: {label} must be {domain.text}, got {value!r}"
                )
        return transmission(*values)


class LossChain(NamedTuple):
    """A measured roundtrip transmission plus its per-pass corrections, in order."""

    measured_roundtrip: float
    corrections: tuple = ()


def single_pass_from_roundtrip(roundtrip: float) -> float:
    """Single forward-pass transmission sqrt(roundtrip)."""
    if not 0.0 < roundtrip <= 1.0:
        raise ValueError(f"roundtrip must be in (0, 1], got {roundtrip}")
    return math.sqrt(roundtrip)


def apply_loss_chain(chain: LossChain) -> float:
    """Extract the single-pass coupling efficiency from a roundtrip measurement.

    The measured single pass sqrt(roundtrip) bundles the coupling of
    interest with every other per-pass loss; dividing the documented
    corrections back out isolates the coupling.  A result above 1 means the
    corrections overexplain the measurement and raises an error.
    """
    efficiency = implied_coupling(chain)
    if efficiency > 1.0:
        # A dB loss so large that 10^(-dB/10) underflows transmits 0.
        blocked = [c.name for c in chain.corrections if c.transmission() == 0.0]
        raise ValueError(
            f"loss chain inconsistent: correction {blocked[0]!r} transmits 0" if blocked else
            f"loss chain inconsistent: corrections imply coupling efficiency {efficiency:.4g} > 1"
        )
    return efficiency


def implied_coupling(chain: LossChain) -> float:
    """sqrt(roundtrip) divided by each correction's transmission in turn; inf if one is 0."""
    efficiency = single_pass_from_roundtrip(chain.measured_roundtrip)
    for correction in chain.corrections:
        transmission = correction.transmission()
        efficiency = efficiency / transmission if transmission else math.inf
    return efficiency


def taper_half_angle_deg(etch_rate_um_min: float, pull_rate_um_min: float) -> float:
    """Half-angle (degrees) of a fibre taper from its etch and pull rates.

    While pulled at ``pull_rate`` during etching at ``etch_rate``, the
    radius shrinks by etch_rate over an axial length pull_rate, giving a
    cone of half-angle arctan(etch/pull).
    """
    if pull_rate_um_min <= 0.0:
        raise ValueError(f"pull rate must be positive, got {pull_rate_um_min}")
    if etch_rate_um_min < 0.0:
        raise ValueError(f"etch rate must be >= 0, got {etch_rate_um_min}")
    return math.degrees(math.atan(etch_rate_um_min / pull_rate_um_min))


#: Prefix marking ordered efficiency stages in a budget config.
STAGE_PREFIX = "stage_"

#: Prefix marking ordered corrections in a loss-chain config.
CORRECTION_PREFIX = "correction_"


def budget_from_config(config: dict) -> tuple:
    """A budget's ``(name, fraction)`` stages from ``stage_<name> = fraction`` keys, in file order.

    A stage at which the cumulative fraction underflows to 0, whose loss in
    dB would be infinite, is a ``ValueError`` naming its key.
    """
    stages = []
    cumulative = 1.0
    for key, value in config.items():
        if key.startswith(STAGE_PREFIX):
            fraction = OPEN_FRACTION.check(key, value)
            cumulative *= fraction
            if cumulative == 0.0:
                raise ValueError(
                    f"config key {key!r}: the product of the stages up to it underflows to 0"
                )
            stages.append((key[len(STAGE_PREFIX):], fraction))
    if not stages:
        raise ValueError(f"no {STAGE_PREFIX}* keys found in budget config")
    return tuple(stages)


def loss_chain_from_config(config: dict) -> LossChain:
    """Build a loss chain from a roundtrip value plus ordered correction keys.

    Expected keys: ``measured_roundtrip = 0.27`` and, per correction,
    ``correction_<name> = <kind> <value> [length_m]`` in :data:`CORRECTION`.
    """
    roundtrip = OPEN_FRACTION.check("measured_roundtrip", config.get("measured_roundtrip"))
    corrections = []
    for key, value in config.items():
        if key.startswith(CORRECTION_PREFIX):
            kind, *numbers = CORRECTION.check(key, value).split()
            name = key[len(CORRECTION_PREFIX):]
            corrections.append(LossCorrection(name, kind, *map(float, numbers)))
    return LossChain(measured_roundtrip=roundtrip, corrections=tuple(corrections))


# --------------------------------------------------------------------------
# table_s1 — detection-efficiency budget


def _run_table_s1(cfg: dict):
    """Deterministic (no random streams)."""
    measured = cfg["measured_efficiency"]
    report = budget_report(budget_from_config(cfg))
    total = report["total_fraction"]

    columns = ["stage", "fraction", "loss_db", "cumulative_fraction", "cumulative_loss_db"]
    table = [[r[column] for r in report["stages"]] for column in columns]

    ratio = total / measured
    rows = [
        summary_row("total_efficiency_pct", total * 100.0, 1.7, 0.1),
        summary_row(
            "predicted_over_measured",
            ratio,
            None,
            None,
            passed=0.5 <= ratio <= 2.0,
            note="measured end-to-end efficiency 1.40(5)%; agreement expected within a factor ~2",
        ),
    ]
    artifacts = {
        "budget": ("budget.json", report),
        "budget_table": ("budget.csv", (columns, table)),
    }
    notes = [
        f"Stage product {total * 100.0:.3f}% vs measured {measured * 100.0:.2f}% "
        f"(ratio {ratio:.2f}).",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# loss_chain — fibre-coupling loss accounting


def _run_loss_chain(cfg: dict):
    """Deterministic (no random streams)."""
    chain = loss_chain_from_config(cfg)
    single_pass = single_pass_from_roundtrip(chain.measured_roundtrip)
    corrected = apply_loss_chain(chain)
    taper = taper_half_angle_deg(cfg["taper_etch_rate_um_min"], cfg["taper_pull_rate_um_min"])

    accounting = {
        "measured_roundtrip": chain.measured_roundtrip,
        "single_pass": single_pass,
        "corrections": [
            {
                "name": c.name,
                "kind": c.kind,
                "value": c.value,
                "length_m": c.length_m,
                "transmission": c.transmission(),
            }
            for c in chain.corrections
        ],
        "corrected_coupling": corrected,
        "taper_half_angle_deg": taper,
    }

    rows = [
        summary_row("single_pass_pct", single_pass * 100.0, 52.0, 2.0),
        summary_row("corrected_coupling_pct", corrected * 100.0, 57.0, 6.0),
        summary_row("taper_half_angle_deg", taper, 1.5, 0.5),
    ]
    artifacts = {"loss_chain": ("loss_chain.json", accounting)}
    notes = [
        "The corrected value divides documented per-pass losses (splice, facet "
        "scattering, fibre attenuation) out of the square-rooted roundtrip "
        "transmission.",
    ]
    return rows, artifacts, notes

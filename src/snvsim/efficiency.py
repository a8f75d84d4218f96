"""Detection-efficiency accounting: budgets, loss chains and the fibre taper.

Scalar bookkeeping around detected photons:

* multiplicative efficiency budgets (ordered named stages whose product is
  the end-to-end detection efficiency), and
* loss-chain extraction of a single coupling efficiency from a measured
  roundtrip transmission with documented corrections, next to the
  half-angle of the etched fibre taper,

together with their config builders and the ``table_s1`` and
``loss_chain`` scenario runners.  All efficiencies are linear power
fractions in (0, 1]; dB values convert via 10^(-dB/10).

This module imports only the standard library, so ``snvsim budget`` and
these two scenarios run without numpy.  It does not import ``dataclasses``
either: its records are ``typing.NamedTuple`` classes, and the two that
check their input do so in ``__new__`` over a functional ``NamedTuple``
base (a ``NamedTuple`` class body may not define ``__new__``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .artifacts import summary_row
from .config import CORRECTION, OPEN_FRACTION
from .units import db_to_fraction, fraction_to_db


class EfficiencyBudget(NamedTuple("EfficiencyBudget", [("stages", tuple)])):
    """Ordered multiplicative budget of named efficiency stages.

    ``stages`` is a tuple of ``(name, fraction)`` pairs.
    """

    __slots__ = ()

    def __new__(cls, stages: tuple[tuple[str, float], ...]) -> "EfficiencyBudget":
        if not stages:
            raise ValueError("budget must contain at least one stage")
        for name, value in stages:
            if not 0.0 < value <= 1.0:
                raise ValueError(f"stage {name!r} must be in (0, 1], got {value}")
        return super().__new__(cls, stages)

    @classmethod
    def from_pairs(cls, pairs) -> "EfficiencyBudget":
        return cls(stages=tuple((str(name), float(value)) for name, value in pairs))


def budget_report(budget: EfficiencyBudget) -> dict:
    """Per-stage and cumulative budget values in fraction and dB."""
    rows = []
    cumulative = 1.0
    for name, value in budget.stages:
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


class LossCorrection(NamedTuple):
    """One documented correction applied to a measured transmission.

    ``kind`` selects the interpretation of ``value``:
      * ``"fraction"``  — multiplicative transmission in (0, 1]
      * ``"db"``        — attenuation in dB (>= 0)
      * ``"db_per_km"`` — distributed attenuation; requires ``length_m``
    """

    name: str
    kind: str
    value: float
    length_m: float = 0.0

    def transmission(self) -> float:
        """Transmitted fraction this correction accounts for."""
        if self.kind == "fraction":
            if not 0.0 < self.value <= 1.0:
                raise ValueError(f"correction {self.name!r}: fraction must be in (0, 1]")
            return self.value
        if self.kind == "db":
            if self.value < 0.0:
                raise ValueError(f"correction {self.name!r}: dB loss must be >= 0")
            return db_to_fraction(self.value)
        if self.kind == "db_per_km":
            if self.value < 0.0 or self.length_m < 0.0:
                raise ValueError(f"correction {self.name!r}: dB/km and length must be >= 0")
            return db_to_fraction(self.value * self.length_m / 1000.0)
        raise ValueError(f"correction {self.name!r}: unknown kind {self.kind!r}")


class LossChain(
    NamedTuple("LossChain", [("measured_roundtrip", float), ("corrections", tuple)])
):
    """A measured roundtrip transmission plus its per-pass corrections."""

    __slots__ = ()

    def __new__(
        cls, measured_roundtrip: float, corrections: tuple[LossCorrection, ...] = ()
    ) -> "LossChain":
        if not 0.0 < measured_roundtrip <= 1.0:
            raise ValueError(f"measured roundtrip must be in (0, 1], got {measured_roundtrip}")
        return super().__new__(cls, measured_roundtrip, corrections)


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


def budget_from_config(config: dict) -> EfficiencyBudget:
    """Build an efficiency budget from ``stage_<name> = fraction`` keys, in file order.

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
    return EfficiencyBudget.from_pairs(stages)


def loss_chain_from_config(config: dict) -> LossChain:
    """Build a loss chain from a roundtrip value plus ordered correction keys.

    Expected keys: ``measured_roundtrip = 0.27`` and, per correction,
    ``correction_<name> = <kind> <value> [length_m]`` with kind one of
    fraction / db / db_per_km.
    """
    roundtrip = OPEN_FRACTION.check("measured_roundtrip", config.get("measured_roundtrip"))
    corrections = []
    for key, value in config.items():
        if key.startswith(CORRECTION_PREFIX):
            kind, *numbers = CORRECTION.check(key, value).split()
            corrections.append(
                LossCorrection(
                    name=key[len(CORRECTION_PREFIX):],
                    kind=kind,
                    value=float(numbers[0]),
                    length_m=float(numbers[1]) if len(numbers) == 2 else 0.0,
                )
            )
    return LossChain(measured_roundtrip=roundtrip, corrections=tuple(corrections))


# --------------------------------------------------------------------------
# table_s1 — detection-efficiency budget


def _run_table_s1(cfg: dict):
    """Deterministic (no random streams)."""
    budget = budget_from_config(cfg)
    measured = cfg["measured_efficiency"]
    report = budget_report(budget)
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

"""Simulator and parameter-estimation toolkit for an electron-nuclear spin
register coupled to a nanophotonic waveguide.

Layers (each imports only the ones above it):

* :mod:`snvsim.units` — unit conventions and conversions, the isotope table.
* :mod:`snvsim.config` — key-value configs and the domains their values are
  checked against.
* :mod:`snvsim.artifacts` — CSV, spectrum and strict-JSON writers, summary rows.
* :mod:`snvsim.efficiency` — efficiency budgets, loss chains, the fibre
  taper, and the ``table_s1`` and ``loss_chain`` runners.
* :mod:`snvsim.registry` — scenario names, descriptions and key tables, and
  ``run_scenario``; it imports a scenario's runner module only when the
  scenario runs.
* :mod:`snvsim.spin_hamiltonian` — static spin Hamiltonians, eigenstructure,
  optical-line detunings, isotope scaling.
* :mod:`snvsim.optical_dynamics` — lifetimes, damped Rabi dynamics,
  autocorrelation, saturation, pumping.
* :mod:`snvsim.waveguide_qed` — single-mode reflection model, cooperativity
  inversion, efficiency bounds.
* :mod:`snvsim.photon_budget` — photon-counting readout statistics,
  coincidence expectations.
* :mod:`snvsim.fitting` — damped least-squares engine and the named model
  registry.
* :mod:`snvsim.spectra` — spectrum synthesis, drift, averaging, CSV reading.
* :mod:`snvsim.scenarios` — the runners of the other fifteen scenarios.
* :mod:`snvsim.cli` — the ``snvsim`` command line (``import snvsim`` leaves it out).

The first five import only the standard library, and none of them imports
``dataclasses`` (their records are ``typing.NamedTuple`` classes), so the
commands that compute no array load neither numpy nor ``dataclasses`` and
the ``inspect`` chain it brings.  ``import snvsim`` loads
no submodule: each loads on first attribute access (PEP 562), so a caller
that never touches the numpy layers never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "artifacts",
    "config",
    "efficiency",
    "fitting",
    "optical_dynamics",
    "photon_budget",
    "registry",
    "scenarios",
    "spectra",
    "spin_hamiltonian",
    "units",
    "waveguide_qed",
)
_FROM_REGISTRY = ("available_scenarios", "run_scenario")

__all__ = [*_SUBMODULES, *_FROM_REGISTRY, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _FROM_REGISTRY:
        return getattr(importlib.import_module(f"{__name__}.registry"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)

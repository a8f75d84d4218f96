"""Simulator and parameter-estimation toolkit for an electron-nuclear spin
register coupled to a nanophotonic waveguide.

Layers (each imports only the ones above it):

* :mod:`snvsim.units` — unit conventions and conversions.
* :mod:`snvsim.spin_hamiltonian` — static spin Hamiltonians, eigenstructure,
  optical-line detunings, isotope scaling.
* :mod:`snvsim.optical_dynamics` — lifetimes, damped Rabi dynamics,
  autocorrelation, saturation, pumping.
* :mod:`snvsim.waveguide_qed` — single-mode reflection model, cooperativity
  inversion, efficiency bounds.
* :mod:`snvsim.photon_budget` — efficiency budgets, loss chains,
  photon-counting readout statistics.
* :mod:`snvsim.fitting` — damped least-squares engine and the named model
  registry.
* :mod:`snvsim.spectra` — spectrum synthesis, drift, averaging, CSV io.
* :mod:`snvsim.config` — key-value configs and the domains their values are
  checked against.
* :mod:`snvsim.scenarios` — named desk-scale experiment reproductions.
* :mod:`snvsim.cli` — the ``snvsim`` command line (``import snvsim`` leaves it out).
"""

from . import (
    config,
    fitting,
    optical_dynamics,
    photon_budget,
    scenarios,
    spectra,
    spin_hamiltonian,
    units,
    waveguide_qed,
)
from .scenarios import available_scenarios, run_scenario

__version__ = "0.1.0"

__all__ = [
    "config",
    "fitting",
    "optical_dynamics",
    "photon_budget",
    "scenarios",
    "spectra",
    "spin_hamiltonian",
    "units",
    "waveguide_qed",
    "available_scenarios",
    "run_scenario",
    "__version__",
]

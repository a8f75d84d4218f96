"""In-memory span recorder attached to snvsim from outside the package.

A :class:`Tracer` records spans ``[name, start, end, parent, op]`` and exact
counters.  :meth:`Tracer.installed` wraps the public function each layer
exposes wherever a loaded ``snvsim`` module binds it (``snvsim.scenarios.fit``,
``snvsim.cli.fit``, ``snvsim.photon_budget.simulate_readout`` ...) and puts
the original bindings back on exit, so untraced code in the same process
runs unwrapped.

Span names are the per-layer metric prefixes.  Calls made while a ``fit``
is running are not wrapped: model evaluators call into the physics modules,
and that time belongs to ``fitting``.  A call into a layer from the same
layer is not a new span either (``spin_hamiltonian`` helpers call each
other).  ``fit`` counts model evaluations by running on
``dataclasses.replace(model, evaluator=counting_wrapper)``.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager

FIT = "fitting.fit"
SYNTHESIZE = "spectra.synthesize"
WRITE = "io.write_spectrum_csv"
READOUT = "photon_budget.readout"
CALIBRATE = "photon_budget.calibrate"
SPIN = "spin_hamiltonian"
IMPORT = "import.snvsim"
#: Prefix of the spans the benchmark opens around one scenario run.
SCENARIO_PREFIX = "scenarios."
#: Prefix of the spans the benchmark opens around one ``snvsim.cli.main`` call.
CLI_PREFIX = "cli."

CLI_COMMANDS = ("list", "budget", "run", "fit")
NAMED_SCENARIOS = ("fig2a", "fig2b", "fig3b")


class Tracer:
    """Spans and counters of one traced unit of work."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = 0
        self._stack: list[int] = []
        self._fit_depth = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _recording(self, name: str) -> bool:
        if self._fit_depth:
            return False
        return not self._stack or self.spans[self._stack[-1]][0] != name

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, func, after=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._recording(name):
                return func(*args, **kwargs)
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fit(self, fit):
        @functools.wraps(fit)
        def traced_fit(model, data, options=None):
            if self._fit_depth:
                return fit(model, data, options)
            evaluations = 0
            evaluator = model.evaluator

            def counting_evaluator(params, x):
                nonlocal evaluations
                evaluations += 1
                return evaluator(params, x)

            counted = dataclasses.replace(model, evaluator=counting_evaluator)
            index = self.begin(FIT)
            self._fit_depth += 1
            try:
                result = fit(counted, data, options)
            finally:
                self._fit_depth -= 1
                self.end(index)
            self.counts["fitting.fit_calls"] += 1
            self.counts["fitting.model_evals"] += evaluations
            self.counts["fitting.iterations"] += result.iterations
            self.counts["fitting.not_converged"] += result.status != "converged"
            return result

        return traced_fit

    def _count_synthesize(self, args, kwargs, result) -> None:
        self.counts["spectra.synthesize_calls"] += 1

    def _count_readout(self, args, kwargs, result) -> None:
        trials = kwargs["trials"] if "trials" in kwargs else args[1]
        # simulate_readout runs ``trials`` shots for each of its two ensembles.
        self.counts["photon_budget.readout_trials"] += 2 * int(trials)

    @contextmanager
    def installed(self):
        """Wrap snvsim's layer entry points for the duration of the block."""
        from snvsim import fitting, photon_budget, spectra, spin_hamiltonian

        replacements = {
            fitting.fit: self._wrap_fit(fitting.fit),
            spectra.synthesize_spectrum: self._wrap(
                SYNTHESIZE, spectra.synthesize_spectrum, self._count_synthesize
            ),
            spectra.write_spectrum_csv: self._wrap(WRITE, spectra.write_spectrum_csv),
            photon_budget.simulate_readout: self._wrap(
                READOUT, photon_budget.simulate_readout, self._count_readout
            ),
            photon_budget.calibrate_readout_model: self._wrap(
                CALIBRATE, photon_budget.calibrate_readout_model
            ),
        }
        for name, value in vars(spin_hamiltonian).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == spin_hamiltonian.__name__
            ):
                replacements[value] = self._wrap(SPIN, value)

        by_id = {id(original): wrapper for original, wrapper in replacements.items()}
        undo = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "snvsim" or module_name.startswith("snvsim.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    # ------------------------------------------------------------------
    # reduction

    def extend(self, spans: list, counts: dict, op: int) -> None:
        """Merge spans and counts recorded by another process as operation ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.counts.update(counts)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_summary(self, unit_wall_s: float) -> dict[str, float]:
        """Per-layer busy times and counts of this unit of work."""
        own = self.self_times()
        busy: dict[str, float] = collections.defaultdict(float)
        inclusive: dict[str, list[float]] = collections.defaultdict(list)
        for (name, start, end, _, _), self_s in zip(self.spans, own):
            busy[name] += self_s
            inclusive[name].append(end - start)

        def median_of(name: str) -> float:
            values = inclusive.get(name)
            return statistics.median(values) if values else 0.0

        scenario_inclusive = {
            name[len(SCENARIO_PREFIX):]: sum(values)
            for name, values in inclusive.items()
            if name.startswith(SCENARIO_PREFIX)
        }
        counts = self.counts
        fit_calls = counts["fitting.fit_calls"]
        readout_s = busy[READOUT]
        return {
            "import.snvsim_s": median_of(IMPORT),
            **{f"cli.{cmd}_s": median_of(CLI_PREFIX + cmd) for cmd in CLI_COMMANDS},
            "fitting.fit_calls": fit_calls,
            "fitting.fit_busy_s": busy[FIT],
            "fitting.iterations": counts["fitting.iterations"],
            "fitting.model_evals": counts["fitting.model_evals"],
            "fitting.evals_per_fit": counts["fitting.model_evals"] / fit_calls if fit_calls else 0.0,
            "fitting.not_converged": counts["fitting.not_converged"],
            "spectra.synthesize_calls": counts["spectra.synthesize_calls"],
            "spectra.synthesize_busy_s": busy[SYNTHESIZE],
            "spin_hamiltonian.busy_s": busy[SPIN],
            "photon_budget.readout_busy_s": readout_s,
            "photon_budget.readout_trials_per_s": (
                counts["photon_budget.readout_trials"] / readout_s if readout_s > 0 else 0.0
            ),
            "photon_budget.calibrate_busy_s": busy[CALIBRATE],
            "io.write_busy_s": busy[WRITE],
            **{f"scenarios.{name}_s": scenario_inclusive.get(name, 0.0) for name in NAMED_SCENARIOS},
            "scenarios.rest_s": sum(
                (s for name, s in scenario_inclusive.items() if name not in NAMED_SCENARIOS), 0.0
            ),
            "scenarios.self_busy_s": sum(
                (s for name, s in busy.items() if name.startswith(SCENARIO_PREFIX)), 0.0
            ),
            "trace.accounted_pct": 100.0 * sum(own) / unit_wall_s,
        }


def files_and_bytes(root) -> tuple[int, int]:
    """Number of regular files under ``root`` and their total size."""
    n_files = n_bytes = 0
    for directory, _, names in os.walk(root):
        for name in names:
            n_files += 1
            n_bytes += os.path.getsize(os.path.join(directory, name))
    return n_files, n_bytes

"""Every scenario key and fit-request key at the edges of its domain.

The values come from each key's ``Domain.edges()``: just inside and just
outside each end of its range and each refused point.  A run goes through
``snvsim.cli.main`` in process, with warnings as errors, and must end in

* exit 0 or 1: strict JSON on stdout and in every JSON artifact, a finite
  number in every numeric CSV cell, no passing summary row whose value is
  ``null`` (for an ensemble: no row that passed at every seed with ``null``
  statistics), and nothing on stderr; or
* exit 2: nothing on stdout and no tree written, and one ``{"error": ...}``
  on stderr that names a config key.

A ``snvsim fit`` request is probed the same way, one key at a time, on a
trace of each registry model: each of the model's ``model_args`` and each
option at the edges of its domain (``fitting.model_registry()``,
``FitOptions.DOMAINS``), and ``init[0]`` and either end of ``bounds[0]`` at
those of a finite number.  It must exit 0 or 1 with strict JSON on stdout
(and for exit 1 one ``{"error": ...}`` on stderr), or exit 2 with nothing on
stdout and one ``{"error": ...}`` that names a request key; a value outside
its domain must be refused naming its own key.

One refusal names no key yet: fig3b's calibration refuses a target below
every F(k=1) that a flip probability gives, and its walk in steps can miss
one it could reach; it reports both as "not reachable by any flip
probability" (ROADMAP item 16).

Tier-1 runs every single-key edge but the few at a count's cap, which take
seconds each, a few runs the edges do not reach, and a seeded sample of the
pairs of float keys, and every fit-request edge.  It runs the same single-key edges of every scenario
with a seed through ``snvsim ensemble ... --seeds 2`` as well, held to the
same contract.  The full sweep, every pair and every ensemble included,
prints a table of outcomes per scenario and exits 1 if any run breaks the
contract (CI runs it):

    PYTHONPATH=src python tests/test_edge_probe.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from snvsim.cli import main
from snvsim.config import Domain, parse_overrides, parse_value
from snvsim.fitting import FitOptions, model_registry
from snvsim.registry import SCENARIOS, available_scenarios, configured

OUTCOMES = ("exit 0", "exit 1", "exit 2 naming a key", "exit 2 naming none", "non-finite")
#: fig3b's calibration refusing a target, naming no key (ROADMAP item 16): counted apart.
UNREACHABLE = "not reachable by any flip probability"


def arg(key: str, value) -> str:
    """The ``key=value`` override that parses back to ``value``."""
    return f"{key}={value if isinstance(value, str) else repr(value)}"


SINGLES = [
    (name, (arg(key, value),))
    for name in available_scenarios()
    for key, (_, domain) in SCENARIOS[name].keys.items()
    for value in domain.edges()
]
# Runs the edges do not reach, each of which once broke the contract above.
SINGLES += [
    ("rabi", ("max_time_ns=1e-9",)),  # a trace far shorter than one Rabi period
    ("fig1e", ("linewidth_mhz=1e-9",)),  # a fit with values written as null
    ("rabi", ("rabi_frequency_mhz=2.2250738585072014e-308",)),  # a NaN pi-pulse fidelity
    ("fig2a", ("field_step_mt=1e-300",)),  # np.polyfit on fields whose squares underflow
    ("fig2a", ("field_step_mt=1e300",)),  # the detunings overflowed
    ("fig2a", ("field_start_mt=1e300",)),
    # Lorentzian line sums whose u = 2 (x - center) / fwhm overflowed.
    ("fig1e", ("linewidth_mhz=2.2250738585072014e-308",)),
    ("fig2a", ("linewidth_mhz=2.2250738585072014e-308",)),
    ("fig2b", ("linewidth_mhz=2.2250738585072014e-308",)),
    ("fig2c", ("max_time_us=1.7976931348623157e308",)),  # pumping.csv's time axis in ns
    ("fig2d", ("max_time_s=1e300",)),  # depolarization.csv's time axis in ns
    ("fig3a", ("noise_rel=1.7976931348623157e308",)),  # the noisy rates overflowed
    ("fig1d", ("inhomogeneous_fwhm_ghz=1e-300",)),  # a histogram of one bin
    ("isotopes", ("reference_splitting_mhz=1e300",)),  # the predictions overflowed
    ("lifetime", ("peak_counts=1e19",)),  # beyond numpy's Poisson limit
]

#: Runs at a count's cap that fit and write 10^6 points or 1000 spectra, 2 to 4.5 s
#: each on a 2-vCPU host: the script runs them, tier-1 does not.
AT_THE_CAP = [run for run in SINGLES if run[1][0] in ("n_points=1000000", "n_emitters=1000")]
#: The single-key edges that tier-1 runs through ``snvsim ensemble``: those of the
#: scenarios with a seed, as the others refuse an ensemble.
ENSEMBLE_SINGLES = [
    run for run in SINGLES if run not in AT_THE_CAP and "seed" in SCENARIOS[run[0]].keys
]

#: Pairs of in-domain edges that once leaked a warning or exited 2 naming no key.
PAIRS_SEEN = [
    ("fig2c", ("max_time_us=1e300", "calibration_time_us=1e-300")),
    ("rabi", ("rabi_frequency_mhz=1e-300", "optical_t1_ns=1e-30")),
    ("lifetime", ("lifetime_ns=1e-30", "max_time_ns=1.7976931348623157e308")),
    ("fig3a", ("saturation_power_pw=1.7976931348623157e308", "power_min_pw=1e-30")),
    ("fig3a", ("power_min_pw=1.7976931348623157e308", "power_max_pw=1.7976931348623157e308")),
    ("fig2a", ("slope_ghz_per_t=2.2250738585072014e-308", "n_scans=3")),
    ("table_s1", ("stage_pi_pulse_fidelity=1e-200", "stage_quantum_efficiency=1e-200")),
    ("table_s1", ("stage_pi_pulse_fidelity=5e-324", "stage_detector_efficiency=1")),
]


def pairs() -> list:
    """Every pair of edges of every pair of float keys of a scenario."""
    runs = []
    for name in available_scenarios():
        floats = [(key, domain) for key, (_, domain) in SCENARIOS[name].keys.items()
                  if domain.kind is float]
        for (a, da), (b, db) in itertools.combinations(floats, 2):
            runs += [(name, (arg(a, x), arg(b, y)))
                     for x, y in itertools.product(da.edges(), db.edges())]
    return runs


class NonFinite(ValueError):
    """A JSON number or CSV cell that is not finite."""


def _reject(token):
    raise NonFinite(f"JSON {token}")


def _check_csv(path: Path) -> None:
    with path.open(newline="") as handle:
        for cell in itertools.chain.from_iterable(itertools.islice(csv.reader(handle), 1, None)):
            try:
                number = float(cell)
            except ValueError:  # a word: a fit status or an isotope
                continue
            if not math.isfinite(number):
                raise NonFinite(f"{path.name}: {cell}")


def outcome(name: str, overrides: tuple, command: str = "run") -> tuple[str, str]:
    """``(outcome, detail)`` of one ``run``, or one ``ensemble`` of two seeds; an
    outcome outside ``OUTCOMES`` is a fault."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        tree = Path(root) / name
        option = ("--output-dir", root) if command == "run" else ("--seeds", "2")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([command, name, *overrides, *option])
            if code == 2:
                error = json.loads(err.getvalue(), parse_constant=_reject)
                if out.getvalue() or tree.exists() or set(error) != {"error"}:
                    return "broke the exit-2 contract", err.getvalue()
                if re.search(r"config keys? '\w+'", error["error"]):
                    return "exit 2 naming a key", error["error"]
                unreachable = name == "fig3b" and UNREACHABLE in error["error"]
                return UNREACHABLE if unreachable else "exit 2 naming none", error["error"]
            summary = json.loads(out.getvalue(), parse_constant=_reject)
            for path in tree.rglob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject)
            for path in tree.rglob("*.csv"):
                _check_csv(path)
        except NonFinite as exc:
            return "non-finite", str(exc)
        except Exception as exc:  # a warning, too
            return "raised", f"{type(exc).__name__}: {exc}"
    if command == "run":
        null_passed = any(row["simulated"] is None and row["pass"] for row in summary["entries"])
    else:
        null_passed = any(row["mean"] is None and row["pass_rate"] == 1 for row in summary["entries"])
    if err.getvalue() or null_passed:
        return "wrote to stderr or passed a null row", err.getvalue() + out.getvalue()
    return f"exit {code}", ""


def allowed(name: str, overrides: tuple, kind: str, detail: str) -> bool:
    """Whether a run's outcome keeps the contract; a refused single value must be named."""
    key, _, value = overrides[0].partition("=")
    if len(overrides) == 1 and parse_value(value) not in SCENARIOS[name].keys[key][1]:
        return kind == "exit 2 naming a key" and f"'{key}'" in detail
    return kind in {*OUTCOMES[:3], UNREACHABLE}


def _faults(runs, command: str = "run") -> list[str]:
    """One line per run that breaks the contract."""
    faults = []
    for name, overrides in runs:
        kind, detail = outcome(name, overrides, command)
        if not allowed(name, overrides, kind, detail):
            faults.append(f"{name} {' '.join(overrides)}: {kind}: {detail}")
    return faults


def test_every_string_edge_in_its_domain_gets_past_the_domain_check():
    """Its override parses back to it, and ``configured`` accepts it or refuses a
    constraint on it."""
    for name in available_scenarios():
        scenario = SCENARIOS[name]
        for key, (_, domain) in scenario.keys.items():
            for value in [v for v in domain.edges() if domain.kind is str and v in domain]:
                assert parse_overrides([arg(key, value)]) == {key: value}
                try:
                    configured(name, {key: value})
                except ValueError as exc:
                    texts = [c.describe() for c in scenario.constraints if key in c.keys]
                    assert str(exc).startswith(tuple(texts)), (name, key, value, str(exc))


@pytest.mark.parametrize("name", available_scenarios())
def test_every_single_key_edge_keeps_the_contract(name):
    assert _faults(run for run in SINGLES if run[0] == name and run not in AT_THE_CAP) == []


@pytest.mark.parametrize("name", sorted({name for name, _ in ENSEMBLE_SINGLES}))
def test_every_single_key_edge_keeps_the_contract_through_an_ensemble(name):
    assert _faults((run for run in ENSEMBLE_SINGLES if run[0] == name), "ensemble") == []


PAIR_SAMPLE = PAIRS_SEEN + random.Random(2026).sample(pairs(), 250)


@pytest.mark.parametrize("name", sorted({name for name, _ in pairs()}))
def test_a_sample_of_edge_pairs_keeps_the_contract(name):
    assert _faults(run for run in PAIR_SAMPLE if run[0] == name) == []


#: Per registry model: the x axis of its trace and the model arguments it is drawn and
#: fitted with.  The trace is the model at its default start plus a ripple of 1 %.
FIT_TRACES = {
    "lorentzian_multi": (np.linspace(-800e6, 800e6, 161), {}),
    "gaussian": (np.linspace(-300e9, 300e9, 161), {}),
    "exponential": (np.linspace(0.0, 50.0, 161), {}),
    "damped_rabi": (np.linspace(0.1, 20.0, 161), {}),
    "saturation": (np.geomspace(1.0, 2000.0, 161), {}),
    "reflection_dip": (np.linspace(-500e6, 500e6, 161), {"fix_f_in": 0.95}),
    "contrast_saturation": (np.geomspace(0.01, 10.0, 161), {}),
}
#: What a fit request's ``init`` entry or bound end may hold.
FINITE = Domain(float)
#: A fit-request key quoted in an error: ``'model_args.fix_f_in'``, ``'init[0]'``, ...
REQUEST_KEY = re.compile(r"'((?:model_args|options)\.\w+|(?:init|bounds)(?:\[\d+\])?)'")


def fit_requests(model: str, data_file: str) -> list[tuple[str, bool, dict]]:
    """``(key, in its domain, request)`` for every edge of every key of a fit of ``model``."""
    factory, arguments = model_registry()[model]
    base = {"model": model, "data_file": data_file, "model_args": FIT_TRACES[model][1]}
    spec = factory(**base["model_args"])
    bounds = [[None if math.isinf(end) else end for end in pair] for pair in spec.bounds]
    tables = [("model_args", {name: domain for name, (_, domain) in arguments.items()}),
              ("options", FitOptions.DOMAINS)]
    runs = []
    for group, domains in tables:
        for name, domain in domains.items():
            runs += [(f"{group}.{name}", value in domain,
                      {**base, group: {**base.get(group, {}), name: value}})
                     for value in domain.edges()]
    for value in dict.fromkeys(FINITE.edges()):
        changes = [("init[0]", "init", [value, *spec.init[1:]]),
                   ("bounds[0]", "bounds", [[value, bounds[0][1]], *bounds[1:]]),
                   ("bounds[0]", "bounds", [[bounds[0][0], value], *bounds[1:]])]
        runs += [(key, value in FINITE, {**base, part: entries}) for key, part, entries in changes]
    return runs


def write_fit_trace(model: str, root: Path) -> str:
    """The path of a CSV holding ``model``'s trace (FIT_TRACES)."""
    x, arguments = FIT_TRACES[model]
    factory, _ = model_registry()[model]
    spec = factory(**arguments)
    y = spec.evaluator(np.array(spec.init), x)[0]
    y = y + 0.01 * np.abs(y).max() * np.cos(np.arange(x.size))
    path = root / f"{model}.csv"
    path.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    return str(path)


def fit_outcome(request: dict, root: Path) -> tuple[str, str]:
    """``(outcome, detail)`` of one ``snvsim fit``; an outcome outside ``OUTCOMES`` is a fault."""
    path = root / "request.json"
    path.write_text(json.dumps(request))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["fit", str(path)])
        error = json.loads(err.getvalue(), parse_constant=_reject) if code else {"error": ""}
        if code == 2:
            if out.getvalue() or set(error) != {"error"}:
                return "broke the exit-2 contract", err.getvalue()
            named = REQUEST_KEY.search(error["error"])
            return "exit 2 naming a key" if named else "exit 2 naming none", error["error"]
        json.loads(out.getvalue(), parse_constant=_reject)
    except NonFinite as exc:
        return "non-finite", str(exc)
    except Exception as exc:  # a warning, too
        return "raised", f"{type(exc).__name__}: {exc}"
    # Exit 1, a singular fit, adds one {"error": ...} on stderr; exit 0 writes nothing there.
    if (err.getvalue() != "") != (code == 1) or set(error) != {"error"}:
        return "wrote to stderr", err.getvalue()
    return f"exit {code}", ""


def fit_allowed(key: str, in_domain: bool, kind: str, detail: str) -> bool:
    """Whether a fit request's outcome keeps the contract; a refused value must be named."""
    if in_domain:
        return kind in OUTCOMES[:3]
    return kind == "exit 2 naming a key" and f"'{key}'" in detail


def _fit_faults(model: str, root: Path) -> list[str]:
    """One line per fit request that breaks the contract."""
    faults = []
    for key, in_domain, request in fit_requests(model, write_fit_trace(model, root)):
        kind, detail = fit_outcome(request, root)
        if not fit_allowed(key, in_domain, kind, detail):
            faults.append(f"{model} {key}: {json.dumps(request)}: {kind}: {detail}")
    return faults


@pytest.mark.parametrize("model", sorted(model_registry()))
def test_every_fit_request_edge_keeps_the_contract(model, tmp_path):
    assert _fit_faults(model, tmp_path) == []


def table(runs, command: str = "run") -> tuple[str, int]:
    """A Markdown table of the outcomes per scenario, then one line per other outcome
    or fault, and the number of runs that broke the contract."""
    columns = [*OUTCOMES, UNREACHABLE, "other"]
    counts = {name: Counter() for name, _ in runs}
    lines, faults = [], 0
    for name, overrides in runs:
        kind, detail = outcome(name, overrides, command)
        counts[name][kind if kind in columns else "other"] += 1
        fault = not allowed(name, overrides, kind, detail)
        faults += fault
        if kind not in OUTCOMES[:3] or fault:
            lines.append(f"- {name} {' '.join(overrides)}: {kind}{' (a fault)' * fault}: {detail}")
    rows = [f"| {name} | " + " | ".join(str(count[c]) for c in columns) + " |"
            for name, count in counts.items()]
    header = ["| scenario | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    return "\n".join([*header, *rows, *lines]), faults


if __name__ == "__main__":
    faults = 0
    every_pair = PAIRS_SEEN + pairs()
    for title, runs, command in [("single keys", SINGLES, "run"),
                                 ("single keys through an ensemble of 2 seeds",
                                  ENSEMBLE_SINGLES, "ensemble"),
                                 ("pairs of float keys", every_pair, "run")]:
        text, broken = table(runs, command)
        faults += broken
        print(f"{title}, {len(runs)} runs:\n{text}\n")
    with tempfile.TemporaryDirectory() as scratch:
        counts = Counter()
        for model in model_registry():
            data_file = write_fit_trace(model, Path(scratch))
            for key, in_domain, request in fit_requests(model, data_file):
                kind, detail = fit_outcome(request, Path(scratch))
                counts[kind] += 1
                fault = not fit_allowed(key, in_domain, kind, detail)
                faults += fault
                if kind not in OUTCOMES[:3] or fault:
                    print(f"- {model} {key}: {json.dumps(request)}: {kind}"
                          f"{' (a fault)' * fault}: {detail}")
        print(f"fit requests, {sum(counts.values())} runs: {dict(counts)}")
    if faults:
        print(f"{faults} runs broke the contract")
    raise SystemExit(1 if faults else 0)

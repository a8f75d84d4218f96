"""Measuring process of the snvsim benchmark; ``run.py`` starts it.

Usage: ``python3 workloads.py --workload <name> --seed <n> --seconds <s>
--trace <0|1> --work-root <dir> [--setup-only]``

The process imports snvsim from this checkout's ``src/``, builds its inputs
from the workload seed, runs a warm-up, prints ``ready <monotonic time>``
and then measures, closed-loop with one client: one operation at a time,
from this process, with no worker pool.  Every output is checked.  The last
line is ``result <json>``.

Each workload has a fixed *unit* of work (a CLI cycle, a round of sweeps,
a scenario pass).  The traced run alternates an untraced and a traced unit
until the time is up; per-layer figures are per unit, and the difference
between the two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from benchtrace import SCENARIO_PREFIX, Tracer, files_and_bytes  # noqa: E402

#: Per-layer counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "fitting.fit_calls",
    "fitting.iterations",
    "fitting.model_evals",
    "fitting.not_converged",
    "spectra.synthesize_calls",
    "io.files_written",
    "io.bytes_written",
    "import.scipy_modules",
)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def now() -> float:
    """Monotonic clock shared by all processes, so run.py can time set-up."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Outcome:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"failure: {problem}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# cli_cold


class CliCold:
    """Fresh interpreter per ``snvsim`` call over a fixed command mix.

    Users pay ``import snvsim`` on every call, so this workload loads the
    import and CLI layers; its compute is near zero.
    """

    name = "cli_cold"
    #: The fit input follows the fig1e defaults; its noise stream is
    #: SeedSequence(12 + seed, spawn_key=(0,)), fig1e's own at seed 0.
    DOUBLET_SEED = 12
    ENTRY = "import sys; from snvsim.cli import main; sys.exit(main())"

    def __init__(self, seed: int, work: Path, outcome: Outcome) -> None:
        self.seed, self.work, self.outcome = seed, work, outcome
        self.cli_out = work / "cli_out"
        self.request = work / "fit_request.json"
        self.commands = [
            ["list"],
            ["budget", str(ROOT / "configs" / "table_s1.cfg")],
            ["run", "table_s1", "--output-dir", str(self.cli_out)],
            ["run", str(ROOT / "configs" / "loss_chain.cfg"), "--output-dir", str(self.cli_out)],
            ["fit", str(self.request)],
        ]
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + pythonpath if pythonpath else "")}
        self.stdout_path = work / "stdout.txt"
        self.stderr_path = work / "stderr.txt"
        self.trace_path = work / "child_trace.json"
        self.latencies: list[float] = []
        self.cycle_times: list[float] = []
        self.rss: list[float] = []
        self.by_command: dict[str, list[float]] = {}
        self.scipy_modules = 0

    def _write_fit_input(self) -> None:
        import numpy as np
        from snvsim import spin_hamiltonian
        from snvsim.spectra import SpectralLine, frequency_grid, synthesize_spectrum, write_spectrum_csv

        transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(452e6, 5.41e9)
        detunings = spin_hamiltonian.optical_transition_detunings(transition, 0.0)
        lines = [SpectralLine(center_hz=c, fwhm_hz=70e6, amplitude=0.5) for c in detunings]
        x = frequency_grid(-800e6, 800e6, 2e6)
        noise = np.random.SeedSequence(self.DOUBLET_SEED + self.seed, spawn_key=(0,))
        spectrum = synthesize_spectrum(lines, x, noise_sigma=1.0 / 20.0, seed=noise)
        data_file = self.work / "doublet.csv"
        write_spectrum_csv(spectrum, data_file)
        request = {
            "model": "lorentzian_multi",
            "model_args": {"n_lines": 2, "shared_fwhm": True},
            "data_file": str(data_file),
            "init": [70e6, -226e6, 1.0, 226e6, 1.0],
            "bounds": [[1e3, None], [None, None], [0, None], [None, None], [0, None]],
            "options": {"max_iter": 200, "tol": 1e-10},
        }
        self.request.write_text(json.dumps(request, indent=2))

    def setup(self) -> None:
        from snvsim.cli import main as cli_main
        from snvsim.scenarios import available_scenarios

        self.scenario_names = available_scenarios()
        self._write_fit_input()
        # The in-process output of each command is the reference for every
        # fresh-interpreter call.
        self.expected = []
        for command in self.commands:
            argv = [self.work / "expected" if arg == str(self.cli_out) else arg for arg in command]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli_main([str(arg) for arg in argv])
            problem = self._check(command[0], code, captured.getvalue())
            if problem is not None:
                raise RuntimeError(f"in-process reference for {command[0]}: {problem}")
            self.expected.append(captured.getvalue())
        self._invoke(0, tracer=None)  # warm-up

    def _check(self, command: str, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"{command}: exit status {code}"
        try:
            if command == "list":
                names = [line.split()[0] for line in stdout.splitlines() if line.strip()]
                if names != self.scenario_names:
                    return f"list: scenarios {names}"
                return None
            payload = strict_json(stdout)
        except ValueError as exc:
            return f"{command}: bad stdout ({exc})"
        if command == "run" and payload.get("all_pass") is not True:
            return f"run {payload.get('scenario')}: all_pass is {payload.get('all_pass')}"
        if command == "fit":
            if payload["status"] == "singular":
                return f"fit: status {payload['status']}"
            fwhm, c1, _, c2, _ = payload["params"]
            # fig1e's tolerances on the same doublet.
            if abs((c2 - c1) - 452e6) > 7e6 or abs(fwhm - 70e6) > 3.5e6:
                return f"fit: splitting {(c2 - c1) / 1e6} MHz, fwhm {fwhm / 1e6} MHz"
        if command == "budget" and "total_fraction" not in payload:
            return "budget: no total_fraction"
        return None

    def _invoke(self, k: int, tracer: Tracer | None) -> float:
        """Run command ``k`` in a fresh interpreter; return its wall time."""
        command = self.commands[k]
        if tracer is None:
            argv = [sys.executable, "-c", self.ENTRY, *command]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(self.trace_path), *command]
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            start = now()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(child.pid, 0)
            wall = now() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        stdout = self.stdout_path.read_text()
        problem = self._check(command[0], child.returncode, stdout)
        if problem is None and stdout != self.expected[k]:
            problem = f"{command[0]}: stdout differs from the in-process reference"
        if problem is not None:
            problem += f"; stderr: {self.stderr_path.read_text()[-400:]!r}"
        self.outcome.record(problem)
        if tracer is not None and problem is None:
            child_trace = json.loads(self.trace_path.read_text())
            tracer.extend(child_trace["spans"], child_trace["counts"], op=k)
            self.scipy_modules = child_trace["scipy_modules"]
        self.rss.append(usage.ru_maxrss * 1024 / 1e6)
        return wall

    def unit(self, tracer: Tracer | None) -> float:
        """One cycle over the command mix."""
        shutil.rmtree(self.cli_out, ignore_errors=True)
        wall = 0.0
        for k, command in enumerate(self.commands):
            latency = self._invoke(k, tracer)
            wall += latency
            if tracer is None:
                self.latencies.append(latency)
                self.by_command.setdefault(command[0], []).append(latency)
        self.files_written = files_and_bytes(self.cli_out)
        return wall

    def layer_extras(self) -> dict:
        n_files, n_bytes = self.files_written
        return {
            "import.scipy_modules": self.scipy_modules,
            "io.files_written": n_files,
            "io.bytes_written": n_bytes,
        }

    def timed(self, seconds: float) -> tuple[dict, dict]:
        self.latencies.clear()
        self.cycle_times.clear()
        self.rss.clear()
        self.by_command.clear()
        start = now()
        while now() - start < seconds:  # whole cycles only, so the mix is fixed
            self.cycle_times.append(self.unit(None))
        latency = statistics.median(self.latencies)
        # Calls per second over whole cycles, so every command in the mix
        # moves it; the median call alone tracks the middle-ranked command.
        calls_per_s = len(self.commands) / statistics.median(self.cycle_times)
        metrics = {
            "latency_s": metric(latency, "s"),
            "work_per_s": metric(calls_per_s, "1/s"),
            "peak_rss_mb": metric(statistics.median(self.rss), "MB"),
        }
        detail = {
            "cli_latency_s": metric(latency, "s"),
            "cycles": metric(len(self.cycle_times), "count"),
            **{
                f"cli_latency_{name}_s": metric(statistics.median(values), "s")
                for name, values in self.by_command.items()
            },
            "invocations": metric(len(self.latencies), "count"),
        }
        return metrics, detail


# --------------------------------------------------------------------------
# field_sweep


class FieldSweep:
    """The field-sweep study pipeline of scripts/field_sweep_study.py.

    Per scan: detunings -> synthesize_spectrum -> shared-width 4-line fit;
    per sweep: a linear fit of the outer-line span against field.  No
    readout, no files: ``fit`` carries nearly all of the time.
    """

    name = "field_sweep"
    # scripts/field_sweep_study.py defaults; its --seed 2026 is used at seed 0.
    SNRS = (3.0, 5.0, 10.0, 15.0, 30.0)
    BASE_SEED = 2026
    N_SCANS = 35
    FIELD_STEP_T = 4.3e-3
    SPLITTING_HZ = 452e6
    SLOPE_HZ_PER_T = 5.41e9
    LINEWIDTH_HZ = 70e6
    GRID_SPAN_HZ = 2.4e9
    GRID_STEP_HZ = 5e6
    #: Sweeps whose mean slope error is reported; every run completes them.
    ACCURACY_SWEEPS = 20
    #: A recovered slope further off than this is a failed sweep.
    MAX_SLOPE_ERROR = 0.2

    def __init__(self, seed: int, work: Path, outcome: Outcome) -> None:
        self.seed, self.outcome = seed, outcome
        self.scan_times: list[float] = []

    def setup(self) -> None:
        import numpy as np
        from snvsim import spin_hamiltonian
        from snvsim.spectra import frequency_grid

        self.np = np
        self.transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(
            self.SPLITTING_HZ, self.SLOPE_HZ_PER_T
        )
        self.x = frequency_grid(-self.GRID_SPAN_HZ / 2.0, self.GRID_SPAN_HZ / 2.0, self.GRID_STEP_HZ)
        self.fields = np.arange(self.N_SCANS) * self.FIELD_STEP_T
        self.reference = self.sweep(0)

    def sweep(self, index: int) -> float:
        """Sweep ``index``; returns the fitted slope (Hz/T), NaN if it failed."""
        from snvsim import fitting, spectra, spin_hamiltonian

        np = self.np
        snr = self.SNRS[index % len(self.SNRS)]
        repeat = index // len(self.SNRS)
        spans = np.empty(self.N_SCANS)
        for k, bz in enumerate(self.fields):
            start = now()
            problem = None
            try:
                detunings = spin_hamiltonian.optical_transition_detunings(self.transition, bz)
                lines = [
                    spectra.SpectralLine(center_hz=c, fwhm_hz=self.LINEWIDTH_HZ, amplitude=1.0)
                    for c in detunings
                ]
                scan = spectra.synthesize_spectrum(
                    lines,
                    self.x,
                    noise_sigma=1.0 / snr,
                    seed=np.random.SeedSequence([self.BASE_SEED + self.seed, int(snr * 1000), repeat, k]),
                )
                init = [self.LINEWIDTH_HZ]
                for c in detunings:
                    init += [c, 1.0]
                result = fitting.fit(fitting.make_lorentzian_multi(n_lines=4).with_init(init), scan)
                if result.status == "singular":
                    problem = f"sweep {index} scan {k}: singular fit ({result.message})"
            except (ValueError, np.linalg.LinAlgError) as exc:
                problem = f"sweep {index} scan {k}: {type(exc).__name__}: {exc}"
            self.scan_times.append(now() - start)
            self.outcome.record(problem)
            if problem is None:
                centers = sorted(result.params[1 + 2 * j] for j in range(4))
                spans[k] = centers[-1] - centers[0]
            else:
                spans[k] = math.nan
        slope = float(np.polyfit(self.fields, spans, 1)[0]) if np.all(np.isfinite(spans)) else math.nan
        error = abs(slope - self.SLOPE_HZ_PER_T) / self.SLOPE_HZ_PER_T
        self.outcome.record(
            None
            if error <= self.MAX_SLOPE_ERROR
            else f"sweep {index} (snr {snr}): slope {slope / 1e9} GHz/T"
        )
        return slope

    def unit(self, tracer: Tracer | None) -> float:
        """One round: a sweep at each SNR."""
        start = now()
        for index in range(len(self.SNRS)):
            self.sweep(index)
        return now() - start

    def layer_extras(self) -> dict:
        return {"io.files_written": 0, "io.bytes_written": 0}

    def timed(self, seconds: float) -> tuple[dict, dict]:
        self.scan_times.clear()
        slopes, sweep_times = [], []
        start = now()
        while now() - start < seconds or len(slopes) < self.ACCURACY_SWEEPS:
            sweep_start = now()
            slopes.append(self.sweep(len(slopes)))
            sweep_times.append(now() - sweep_start)
        if not slopes[0] == self.reference:
            self.outcome.fail(f"sweep 0 gave slope {slopes[0]!r}, warm-up gave {self.reference!r}")
        errors = [
            abs(s - self.SLOPE_HZ_PER_T) / self.SLOPE_HZ_PER_T for s in slopes[: self.ACCURACY_SWEEPS]
        ]
        latency = statistics.median(self.scan_times)
        p95 = statistics.quantiles(self.scan_times, n=20)[18]
        sweeps_per_s = 1.0 / statistics.median(sweep_times)
        metrics = {
            "latency_s": metric(latency, "s"),
            "work_per_s": metric(sweeps_per_s, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        detail = {
            "sweeps_per_s": metric(sweeps_per_s, "1/s"),
            "scan_latency_s": metric(latency, "s"),
            "scan_latency_p95_s": metric(p95, "s"),
            "sweep_slope_err_pct": metric(100.0 * statistics.fmean(errors), "%"),
            "sweeps": metric(len(slopes), "count"),
            "scans": metric(len(self.scan_times), "count"),
        }
        return metrics, detail


# --------------------------------------------------------------------------
# scenario_suite


class ScenarioSuite:
    """Passes over all registered scenarios through ``run_scenario``.

    A pass writes every artifact tree under a temp root; the workload seed
    is added to each scenario's ``seed`` key.  Loads fitting together with
    the readout Monte Carlo and artifact writing.
    """

    name = "scenario_suite"

    def __init__(self, seed: int, work: Path, outcome: Outcome) -> None:
        self.seed, self.outcome = seed, outcome
        self.root = work / "suite"
        self.pass_times: list[float] = []
        self.tolerance_misses: set[str] = set()

    def setup(self) -> None:
        from snvsim.scenarios import SCENARIOS, available_scenarios

        self.names = available_scenarios()
        self.overrides = {
            name: {"seed": SCENARIOS[name].defaults["seed"] + self.seed}
            if "seed" in SCENARIOS[name].defaults
            else {}
            for name in self.names
        }
        self.reference: dict[str, str] = {}
        self.unit(None)  # warm-up; its artifact trees are the rerun reference

    def unit(self, tracer: Tracer | None) -> float:
        """One pass over every scenario; returns the pass time."""
        from snvsim import scenarios

        shutil.rmtree(self.root, ignore_errors=True)
        raised: dict[str, str] = {}
        start = now()
        for index, name in enumerate(self.names):
            if tracer is not None:
                tracer.op = index
                span = tracer.begin(SCENARIO_PREFIX + name)
            try:
                scenarios.run_scenario(name, self.overrides[name], output_root=self.root)
            except Exception as exc:  # a failed run is counted, the pass goes on
                raised[name] = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.end(span)
        wall = now() - start
        for name in self.names:
            self.outcome.record(raised.get(name) or self._check(name))
        self.files_written = files_and_bytes(self.root)
        return wall

    def _check(self, name: str) -> str | None:
        out_dir = self.root / name
        try:
            summary = strict_json((out_dir / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return f"{name}: summary.json: {exc}"
        if summary.get("all_pass") is not True:
            if self.seed == 0:
                return f"{name}: all_pass is {summary.get('all_pass')} at the documented seeds"
            self.tolerance_misses.add(name)
        digest = tree_digest(out_dir)
        if self.reference.setdefault(name, digest) != digest:
            return f"{name}: artifact tree differs from the first pass at the same seed"
        return None

    def layer_extras(self) -> dict:
        n_files, n_bytes = self.files_written
        return {"io.files_written": n_files, "io.bytes_written": n_bytes}

    def timed(self, seconds: float) -> tuple[dict, dict]:
        self.pass_times.clear()
        start = now()
        while now() - start < seconds:
            self.pass_times.append(self.unit(None))
        latency = statistics.median(self.pass_times)
        metrics = {
            "latency_s": metric(latency, "s"),
            "work_per_s": metric(len(self.names) / latency, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        detail = {
            "suite_s": metric(latency, "s"),
            "passes": metric(len(self.pass_times), "count"),
            "tolerance_misses": metric(len(self.tolerance_misses), "count"),
        }
        return metrics, detail


WORKLOADS = {w.name: w for w in (CliCold, FieldSweep, ScenarioSuite)}


# --------------------------------------------------------------------------
# traced run


#: Names and units of the per-layer metrics, as BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    entry["name"]: entry["unit"]
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def run_traced(workload, seconds: float, base: dict, trace_file: Path) -> dict:
    """Alternate untraced and traced units; per-layer figures per unit."""
    plain, traced, summaries = [], [], []
    spans = []
    start = now()
    while not traced or now() - start < seconds:
        plain.append(workload.unit(None))
        tracer = Tracer()
        with tracer.installed():
            wall = workload.unit(tracer)
        traced.append(wall)
        summaries.append({**tracer.layer_summary(wall), **base, **workload.layer_extras()})
        spans.append(tracer.spans)
    trace_file.write_text(json.dumps({"units": spans}))

    values = {}
    for name in summaries[0]:
        if name in EXACT_COUNTS:
            distinct = {summary[name] for summary in summaries}
            if len(distinct) != 1:
                workload.outcome.fail(f"{name} differs between traced units: {sorted(distinct)}")
            values[name] = summaries[0][name]
        else:
            values[name] = statistics.median(summary[name] for summary in summaries)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    values["trace.unit_s"] = statistics.median(traced)
    if values.keys() != PER_LAYER_UNITS.keys():
        raise RuntimeError(
            f"the traced run measured {sorted(values.keys() - PER_LAYER_UNITS.keys())} beyond "
            f"BENCHMARK.json's per_layer and missed {sorted(PER_LAYER_UNITS.keys() - values.keys())}"
        )
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


# --------------------------------------------------------------------------
# provenance and entry point


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = completed.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_root))
    try:
        start = now()
        import snvsim  # noqa: F401

        import_s = now() - start
        scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        outcome = Outcome()
        workload = WORKLOADS[args.workload](args.seed, work, outcome)
        workload.setup()
        print(f"ready {now()!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            base = {"import.snvsim_s": import_s, "import.scipy_modules": scipy_modules}
            if args.workload == CliCold.name:
                base = {}
            trace_file = args.work_root / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = run_traced(workload, args.seconds, base, trace_file)
            detail = {}
        else:
            metrics, detail = workload.timed(args.seconds)
        detail["error_rate"] = metric(outcome.failed / max(outcome.attempted, 1), "ratio")
        print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
        print("detail " + json.dumps({"workload": args.workload, **detail}, sort_keys=True))
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs: the default artifact trees and the documented commands' stdout.

``tests/golden/outputs.json`` records, for every file of the 17 default
scenario trees and for the stdout of ``snvsim list``, ``budget
configs/table_s1.cfg``, ``run`` (no target), ``fit configs/fit_doublet.json``
and ``ensemble fig2a snr=<3|5|10|15|30> seed=2026 --seeds 5``:

* the sha256 of its bytes, and
* a fingerprint that survives last-bit drift: the sha256 of the text with
  every number masked, the count of numbers, and two sums of their
  magnitudes (plain, and weighted by position).

It also records every summary row's ``simulated`` value and the numpy
version and CPU dispatch that produced them.  On that numpy and dispatch
every sha256 must match.  Elsewhere numpy may pick other SIMD kernels, so
the masked text and the counts must match exactly, and every sum and every
``simulated`` value to a relative 1e-9.  The test names each output that
differs and never skips.

Regenerate the file, after a change that moves an output on purpose, with

    PYTHONPATH=src python tests/test_golden.py

which first prints one line for each output that moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from snvsim.cli import main
from snvsim.registry import OUTPUT_DIR_ENV

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "outputs.json"
CONFIGS = REPO / "configs"
REL_TOL = 1e-9

# In order: ``fit`` reads the ``snvsim_output/fig1e/spectrum.csv`` that ``run`` writes.
COMMANDS = {
    "list": ["list"],
    "budget configs/table_s1.cfg": ["budget", str(CONFIGS / "table_s1.cfg")],
    "run": ["run"],
    "fit configs/fit_doublet.json": ["fit", str(CONFIGS / "fit_doublet.json")],
    **{
        f"ensemble fig2a snr={snr} seed=2026 --seeds 5":
            ["ensemble", "fig2a", f"snr={snr}", "seed=2026", "--seeds", "5"]
        for snr in (3, 5, 10, 15, 30)
    },
}

# A number standing alone: not part of a name such as fig2a or scan_00.csv.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def cpu_dispatch() -> list[str]:
    """numpy's baseline CPU features and the dispatch targets this process uses."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return [*umath.__cpu_baseline__, *enabled]


def fingerprint(data: bytes) -> dict:
    """sha256 of ``data``, and of its text with numbers masked; the numbers' count and sums."""
    text = data.decode()
    numbers = [abs(float(token)) for token in _NUMBER.findall(text)]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "masked_sha256": hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
        "numbers": len(numbers),
        "sum_abs": math.fsum(numbers),
        "sum_abs_weighted": math.fsum(v * (1 + i % 10) for i, v in enumerate(numbers)),
    }


@contextlib.contextmanager
def _fresh_cwd():
    """Run in an empty temporary directory, with the default output root."""
    old_cwd, old_root = os.getcwd(), os.environ.pop(OUTPUT_DIR_ENV, None)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            yield Path(work)
        finally:
            os.chdir(old_cwd)
            if old_root is not None:
                os.environ[OUTPUT_DIR_ENV] = old_root


def collect() -> dict:
    """Run every golden command and fingerprint what it printed and wrote."""
    commands = {}
    with _fresh_cwd() as work:
        for name, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            commands[name] = {"exit": code, **fingerprint(out.getvalue().encode())}
        root = work / "snvsim_output"
        files = {
            path.relative_to(root).as_posix(): fingerprint(path.read_bytes())
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }
        simulated = {
            summary.parent.name: {
                row["quantity"]: row["simulated"]
                for row in json.loads(summary.read_text())["entries"]
            }
            for summary in sorted(root.glob("*/summary.json"))
        }
    return {
        "numpy": np.__version__,
        "cpu_dispatch": cpu_dispatch(),
        "commands": commands,
        "files": files,
        "simulated": simulated,
    }


def _differences(kind: str, expected: dict, actual: dict, exact: bool) -> list[str]:
    """One line per output of ``kind`` that is missing, new or different."""
    problems = [f"{kind} {name}: missing" for name in expected.keys() - actual.keys()]
    problems += [f"{kind} {name}: not in the golden file" for name in actual.keys() - expected.keys()]
    for name in sorted(expected.keys() & actual.keys()):
        want, got = expected[name], actual[name]
        if exact:
            fields = [key for key in want if want[key] != got[key]]
        else:
            fields = [
                key for key in want
                if key != "sha256" and not (
                    math.isclose(want[key], got[key], rel_tol=REL_TOL)
                    if key.startswith("sum_") else want[key] == got[key]
                )
            ]
        if fields:
            problems.append(f"{kind} {name}: {', '.join(fields)} differ")
    return problems


def compare(expected: dict, actual: dict) -> list[str]:
    """Every difference between two :func:`collect` results, one line each."""
    exact = (expected["numpy"], expected["cpu_dispatch"]) == (actual["numpy"], actual["cpu_dispatch"])
    problems = _differences("command", expected["commands"], actual["commands"], exact)
    problems += _differences("file", expected["files"], actual["files"], exact)
    want, got = expected["simulated"], actual["simulated"]
    for scenario in sorted(want.keys() | got.keys()):
        rows, new_rows = want.get(scenario, {}), got.get(scenario, {})
        for quantity in sorted(rows.keys() | new_rows.keys()):
            a, b = rows.get(quantity), new_rows.get(quantity)
            if a is None or b is None or not math.isclose(a, b, rel_tol=0.0 if exact else REL_TOL):
                problems.append(f"simulated {scenario}/{quantity}: {a!r} -> {b!r}")
    return problems


def test_outputs_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    problems = compare(expected, collect())
    assert not problems, (
        f"{len(problems)} outputs differ from {GOLDEN.relative_to(REPO)}:\n" + "\n".join(problems)
    )


def test_a_moved_number_or_word_is_named_on_any_dispatch():
    base = {"numpy": "1", "cpu_dispatch": [], "simulated": {},
            "commands": {}, "files": {"a.csv": fingerprint(b"x,y\n1.0,2.5\n")}}
    elsewhere = dict(base, numpy="2")
    for changed, exact in ((b"x,y\n1.0,2.5000001\n", True), (b"x,y\n1.0,2.5000001\n", False),
                           (b"x,z\n1.0,2.5\n", False), (b"x,y\n2.5,1.0\n", False)):
        actual = dict(base, files={"a.csv": fingerprint(changed)})
        assert compare(base if exact else elsewhere, actual), changed
    drifted = dict(base, files={"a.csv": fingerprint(b"x,y\n1.0,2.5000000000001\n")})
    assert compare(elsewhere, drifted) == []
    assert compare(base, drifted) == ["file a.csv: sha256, sum_abs, sum_abs_weighted differ"]


if __name__ == "__main__":
    new = collect()
    if GOLDEN.is_file():
        for line in compare(json.loads(GOLDEN.read_text()), new):
            print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(REPO)}")

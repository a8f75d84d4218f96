"""Scenario registry: green runs, artifact contracts, byte-level reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from oracles import ground_branch_energies
from snvsim.config import FRACTION, NON_NEGATIVE, OPEN_FRACTION, POSITIVE, in_base_units
from snvsim import photon_budget, registry, scenarios, spin_hamiltonian
from snvsim.artifacts import summary_row, write_artifact
from snvsim.efficiency import (
    CORRECTION, LossChain, LossCorrection, apply_loss_chain, budget_from_config, budget_report,
)
from snvsim.registry import SCENARIOS, available_scenarios, run_scenario
from snvsim.units import fourier_limited_fwhm_hz

ALL_NAMES = [
    "fig1d",
    "fig1e",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4b",
    "fig4c",
    "table_s1",
    "loss_chain",
    "rabi",
    "lifetime",
    "g2",
    "isotopes",
]

ENTRY_KEYS = {"quantity", "simulated", "paper_value", "tolerance", "pass"}


def _tree_digest(root: Path) -> dict:
    """Relative path -> sha256 of every file under root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_registry_is_complete_and_ordered():
    assert available_scenarios() == ALL_NAMES
    for name in ALL_NAMES:
        assert SCENARIOS[name].description
        assert SCENARIOS[name].defaults


def test_readme_scenario_table_lists_the_registry_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Scenarios (`snvsim list`):", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE) == available_scenarios()


def test_readme_gives_each_bounded_domain_the_text_of_the_table():
    """A bullet "`key` of `name`, ... is <text>:" states the domain's own text, and
    every float domain other than the four common ones has one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {
        (name, key): text
        for key, names, text in re.findall(
            r"^- `(\w+)` of ((?:`\w+`(?:, | and )?)+) is (.+?):\s", readme, flags=re.MULTILINE
        )
        for name in re.findall(r"`(\w+)`", names)
    }
    assert {pair: SCENARIOS[pair[0]].keys[pair[1]][1].text for pair in listed} == listed
    common = (POSITIVE, NON_NEGATIVE, FRACTION, OPEN_FRACTION)
    bounded = {
        (name, key) for name in ALL_NAMES for key, (_, domain) in SCENARIOS[name].keys.items()
        if domain.kind is float and domain not in common
    }
    assert bounded <= set(listed)


def test_readme_lists_the_constraints_of_the_table_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Some conditions read several keys.", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^- .*$", section, flags=re.MULTILINE) == [
        f"- `{name}`: " + constraint.describe().replace("'", "`")
        for name in ALL_NAMES for constraint in SCENARIOS[name].constraints
    ]


def _artifact_digest(out_dir: Path) -> dict:
    """``_tree_digest`` of a run, with the config echoed in summary.json left out."""
    digest = _tree_digest(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    del summary["config"]
    digest["summary.json"] = json.dumps(summary, sort_keys=True)
    return digest


def _nearby(default, domain) -> list:
    """Small changes of ``default``, nearest first; not all need lie in ``domain``."""
    if domain is CORRECTION:
        kind, value, *rest = default.split()
        return [" ".join([kind, repr(float(value) * f), *rest]) for f in (1.01, 0.99)]
    if isinstance(default, str):  # the only other string keys choose an isotope
        return [name for name in spin_hamiltonian.NUCLEAR_GYROMAGNETIC_HZ_PER_T if name != default]
    if domain.kind is int:
        return [default + 1, default - 1]
    return [default * 1.01, default * 0.99] if default else [0.01, -0.01]


@pytest.fixture(scope="module")
def default_digests(scenario_output_root):
    root = scenario_output_root / "key_probe_defaults"
    return {name: _artifact_digest(run_scenario(name, output_root=root).out_dir) for name in ALL_NAMES}


ALL_KEYS = [(name, key) for name in ALL_NAMES for key in SCENARIOS[name].keys]


@pytest.mark.parametrize("name, key", ALL_KEYS)
def test_every_key_changes_some_artifact(name, key, default_digests, scenario_output_root):
    """A key whose value reaches no artifact is a setting that does nothing."""
    default, domain = SCENARIOS[name].keys[key]
    root = scenario_output_root / "key_probe" / key
    for value in _nearby(default, domain):
        try:
            domain.check(key, value)
            result = run_scenario(name, {key: value}, output_root=root)
        except ValueError:  # outside the key's domain, or not allowed with the other defaults
            continue
        assert _artifact_digest(result.out_dir) != default_digests[name], f"{key}={value!r}"
        return
    pytest.fail(f"no small change of {key} runs")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_defaults_lie_in_their_domains_and_base_names_are_unique(name):
    keys = SCENARIOS[name].keys
    assert SCENARIOS[name].defaults == {key: default for key, (default, _) in keys.items()}
    for key, (default, domain) in keys.items():
        assert domain.check(key, default) == default
    names = [in_base_units(key, 1.0)[0] for key in keys]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_runs_green_with_contract_artifacts(name, scenario_output_root):
    result = run_scenario(name, output_root=scenario_output_root / "all" / name)
    assert result.all_pass, [row for row in result.rows if not row["pass"]]
    assert result.rows, "every scenario reports at least one summary entry"

    summary_path = result.out_dir / "summary.json"
    report_path = result.out_dir / "report.txt"
    assert summary_path.is_file() and report_path.is_file()

    summary = json.loads(summary_path.read_text())
    assert summary["scenario"] == name
    assert summary["all_pass"] is True
    for entry in summary["entries"]:
        assert ENTRY_KEYS <= set(entry)
        assert set(entry) - ENTRY_KEYS <= {"note"}
        assert isinstance(entry["pass"], bool)
        assert isinstance(entry["simulated"], (int, float))

    # The tree holds exactly the indexed artifacts; a directory artifact
    # (per-scan spectra) holds files only.
    assert summary["artifacts"] == result.artifacts
    top = {p.name for p in result.out_dir.iterdir()}
    assert top == {"summary.json", "report.txt", *result.artifacts.values()}
    for path in result.out_dir.rglob("*"):
        assert path.is_file() or (path.parent == result.out_dir and any(path.iterdir()))

    # The human-readable report carries a pass column for every entry.
    report = report_path.read_text()
    for entry in summary["entries"]:
        assert entry["quantity"] in report
    assert " yes" in report and " NO" not in report


@pytest.mark.parametrize("name", ["fig1e", "fig2a", "fig3b", "g2"])
def test_rerun_is_byte_identical(name, scenario_output_root):
    first = run_scenario(name, output_root=scenario_output_root / "rerun_a" / name)
    second = run_scenario(name, output_root=scenario_output_root / "rerun_b" / name)
    digest_a = _tree_digest(first.out_dir)
    digest_b = _tree_digest(second.out_dir)
    assert digest_a and digest_a == digest_b


def test_seed_change_alters_random_artifacts(scenario_output_root):
    base = run_scenario("g2", output_root=scenario_output_root / "seed_a")
    moved = run_scenario("g2", {"seed": 54}, output_root=scenario_output_root / "seed_b")
    assert (base.out_dir / "g2.csv").read_bytes() != (moved.out_dir / "g2.csv").read_bytes()


def test_unknown_scenario_names_available_ones():
    with pytest.raises(ValueError, match="fig2a"):
        run_scenario("not_a_scenario")


def test_unknown_override_key_names_allowed_ones(scenario_output_root):
    with pytest.raises(ValueError, match="unknown config keys"):
        run_scenario("g2", {"not_a_key": 1}, output_root=scenario_output_root / "bad")


def test_config_file_selects_scenario(scenario_output_root, tmp_path):
    cfg = tmp_path / "custom_g2.cfg"
    cfg.write_text("scenario = g2\nbackground = 0.10\n")
    result = run_scenario(str(cfg), output_root=scenario_output_root / "from_file")
    assert result.name == "g2"
    g2_zero = next(r for r in result.rows if r["quantity"] == "g2_zero")
    assert math.isclose(g2_zero["simulated"], 0.10, rel_tol=1e-12)

    headless = tmp_path / "no_selector.cfg"
    headless.write_text("background = 0.1\n")
    with pytest.raises(ValueError, match="does not select a scenario"):
        run_scenario(str(headless), output_root=scenario_output_root / "from_file")


def test_fig4b_fit_artifact_contract(scenario_output_root):
    result = run_scenario("fig4b", output_root=scenario_output_root / "fig4b_keys")
    payload = json.loads((result.out_dir / "reflection_fit.json").read_text())
    assert set(payload) == {"c", "f", "gamma_h_mhz", "contrast", "residual_norm"}
    assert payload["f"] == 0.95
    assert abs(payload["c"] - 0.027) < 0.004
    assert abs(payload["gamma_h_mhz"] - 70.0) < 7.0
    # beta_tot = C gamma_h / gamma0, gamma0 the Fourier limit of 5.56 ns.
    rows = {row["quantity"]: row["simulated"] for row in result.rows}
    gamma0_mhz = fourier_limited_fwhm_hz(5.56e-9) / 1e6
    beta_pct = 100.0 * payload["c"] * payload["gamma_h_mhz"] / gamma0_mhz
    assert math.isclose(rows["beta_tot_pct"], beta_pct, rel_tol=1e-12)
    assert math.isclose(rows["qe_bound_pct"], beta_pct / (0.32 * 0.57 * 0.65), rel_tol=1e-12)


def test_fig3b_thresholds_carry_the_poisson_reference(scenario_output_root):
    result = run_scenario("fig3b", output_root=scenario_output_root / "fig3b_thresholds")
    with open(result.out_dir / "thresholds.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    defaults = SCENARIOS["fig3b"].defaults
    bright = photon_budget.poisson_reference_histogram(defaults["mean_bright"])
    dark = photon_budget.poisson_reference_histogram(defaults["mean_dark"])
    assert [int(row["k"]) for row in rows] == list(range(len(rows)))
    poisson = [float(row["fidelity_poisson"]) for row in rows]
    assert poisson == [photon_budget.threshold_fidelity(bright, dark, k) for k in range(len(rows))]
    assert poisson.index(max(poisson)) == 1


def test_fig1e_levels_land_on_their_closed_forms(scenario_output_root):
    """The levels are computed in Hz, the unit they are written in: the aligned
    doublet is -lambda_so/2 + a_par/4 exactly, the antialigned one within an ulp."""
    result = run_scenario("fig1e", output_root=scenario_output_root / "fig1e_levels")
    with open(result.out_dir / "levels.csv", newline="") as handle:
        levels = [float(row["energy_hz"]) for row in csv.DictReader(handle)]
    closed = ground_branch_energies(spin_hamiltonian.sn117_ground())
    assert closed.aligned == -424774000000.0
    assert levels[2] == levels[3] == closed.aligned
    assert abs(levels[0] - closed.antialigned) <= math.ulp(closed.antialigned)


def test_fig2a_manifest_lists_every_scan(scenario_output_root):
    result = run_scenario("fig2a", output_root=scenario_output_root / "fig2a_manifest")
    with open(result.out_dir / "manifest.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 35
    for row in rows:
        assert (result.out_dir / row["file"]).is_file()
    fields = [float(row["field_mt"]) for row in rows]
    assert fields == sorted(fields)


def test_table_s1_and_loss_chain_frozen_values(scenario_output_root):
    budget = run_scenario("table_s1", output_root=scenario_output_root / "frozen")
    by_name = {row["quantity"]: row["simulated"] for row in budget.rows}
    assert math.isclose(by_name["total_efficiency_pct"], 1.7459139672, rel_tol=1e-12)
    assert math.isclose(by_name["predicted_over_measured"], 1.7459139672 / 1.40, rel_tol=1e-12)

    chain = run_scenario("loss_chain", output_root=scenario_output_root / "frozen")
    by_name = {row["quantity"]: row["simulated"] for row in chain.rows}
    assert math.isclose(by_name["single_pass_pct"], 51.96152422706632, rel_tol=1e-12)
    assert math.isclose(by_name["corrected_coupling_pct"], 56.93910665897446, rel_tol=1e-12)
    assert math.isclose(by_name["taper_half_angle_deg"], 1.562224916842398, rel_tol=1e-12)


def test_the_record_types_are_frozen_keyword_built_and_validated(tmp_path):
    records = [
        registry.Scenario(name="s", description="d", runner="efficiency:_run_table_s1", keys={}),
        registry.ScenarioResult(name="s", out_dir=tmp_path, rows=[], artifacts={}, notes=[]),
        LossCorrection(name="splice", kind="db", value=0.04),
        LossChain(measured_roundtrip=0.27, corrections=()),
    ]
    fields = ["runner", "out_dir", "kind", "measured_roundtrip"]
    for record, field in zip(records, fields, strict=True):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
    assert records[0].defaults == {} and records[1].all_pass
    assert records[2].length_m == 0.0 and records[2].transmission() == pytest.approx(0.99083, rel=1e-5)
    assert LossChain(0.27) == records[3]
    # A budget is its (name, fraction) stages; a value is refused where it is read.
    assert budget_from_config({"stage_detector": 0.68}) == (("detector", 0.68),)
    with pytest.raises(ValueError, match="at least one stage"):
        budget_report(())
    with pytest.raises(ValueError, match=r"roundtrip must be in \(0, 1\], got 1.5"):
        apply_loss_chain(LossChain(1.5))


def test_summary_row_pass_logic():
    row = summary_row("x", 1.05, 1.0, 0.1)
    assert row["pass"] is True and "note" not in row
    assert summary_row("x", 1.2, 1.0, 0.1)["pass"] is False
    noted = summary_row("x", 1.0, None, None, passed=True, note="window check")
    assert noted["note"] == "window check"
    with pytest.raises(ValueError, match="explicit pass"):
        summary_row("x", 1.0, None, None)


def test_json_artifacts_refuse_nan_and_name_the_file(tmp_path):
    with pytest.raises(ValueError, match="fit.json"):
        write_artifact(tmp_path / "fit.json", {"x": math.nan})
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_runners_compute_without_writing(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = SCENARIOS[name]
    _, _, values = registry.configured(name)
    rows, artifacts, notes = scenario.run(values)
    assert list(tmp_path.iterdir()) == []
    assert rows and isinstance(notes, list)
    for key, (relative, payload) in artifacts.items():
        assert isinstance(key, str) and isinstance(relative, str) and payload is not None


def test_rerun_replaces_the_tree_and_leaves_no_stale_files(tmp_path):
    run_scenario("fig2b", output_root=tmp_path)
    assert len(list((tmp_path / "fig2b" / "spectra").iterdir())) == 12
    result = run_scenario("fig2b", {"n_emitters": 3}, output_root=tmp_path)
    spectra = sorted(p.name for p in (result.out_dir / "spectra").iterdir())
    assert spectra == ["emitter_00.csv", "emitter_01.csv", "emitter_02.csv"]
    with open(result.out_dir / "emitters.csv", newline="") as handle:
        assert len(list(csv.reader(handle))) == 1 + 3


def test_a_failed_write_leaves_no_tree(tmp_path, monkeypatch):
    run_g2 = scenarios._run_g2

    def runner(values):
        rows, artifacts, notes = run_g2(values)
        return rows, {**artifacts, "bad": ("bad.json", {"x": math.nan})}, notes

    run_scenario("g2", output_root=tmp_path)
    monkeypatch.setattr(scenarios, "_run_g2", runner)
    with pytest.raises(ValueError, match="bad.json"):
        run_scenario("g2", output_root=tmp_path)
    assert not (tmp_path / "g2").exists()

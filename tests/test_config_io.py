"""Key-value config parsing, value domains, unit suffixes, and ordered builders."""

from __future__ import annotations

import math
import sys

import pytest

from snvsim.config import (
    FRACTION, NON_NEGATIVE, OPEN_FRACTION, POSITIVE, SEED, UNIT_FACTORS, Domain,
    in_base_units, load_config, parse_config_text, parse_overrides, parse_value,
)
from snvsim.efficiency import (
    CORRECTION, apply_loss_chain, budget_from_config, budget_report, loss_chain_from_config,
)
from snvsim.registry import SCENARIOS, configured


# --------------------------------------------------------------------------
# Scalar parsing
# --------------------------------------------------------------------------

def test_parse_value_types():
    assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
    assert parse_value("-3") == -3
    assert parse_value("2.5") == 2.5 and isinstance(parse_value("2.5"), float)
    assert parse_value("1e-3") == 1e-3
    # No boolean form: a word stays a string, which every numeric domain refuses.
    assert parse_value("true") == "true"
    assert parse_value("YES") == "YES"
    assert parse_value("off") == "off"
    assert parse_value("db 0.04") == "db 0.04"
    assert parse_value("  fig2a  ") == "fig2a"


def test_parse_config_text_comments_blanks_and_order():
    text = """
    # leading comment
    alpha = 1            # trailing comment
    beta_mhz = 452

    gamma = two words
    """
    cfg = parse_config_text(text)
    assert list(cfg) == ["alpha", "beta_mhz", "gamma"]
    assert cfg == {"alpha": 1, "beta_mhz": 452, "gamma": "two words"}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just a bare line")
    with pytest.raises(ValueError, match="empty key"):
        parse_config_text("= 3")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config_text("a = 1\na = 2")


def test_load_config_reports_the_file_in_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        load_config(path)
    path.write_text("a = 1\nb_ghz = 0.85\n")
    assert load_config(path) == {"a": 1, "b_ghz": 0.85}


def test_parse_overrides_and_precedence(tmp_path):
    overrides = parse_overrides(["seed=7", "noise_sigma=0.02", "label=fast run"])
    assert overrides == {"seed": 7, "noise_sigma": 0.02, "label": "fast run"}
    path = tmp_path / "run.cfg"
    path.write_text("scenario = fig2c\nn_points = 10\nseed = 1\n")
    file_overrides = {"seed": 7}
    _, cfg, _ = configured(str(path), file_overrides)
    # Overrides win over the file, the file over the defaults; the defaults' order stays.
    assert cfg == {**SCENARIOS["fig2c"].defaults, "n_points": 10, "seed": 7}
    assert list(cfg) == list(SCENARIOS["fig2c"].defaults)
    assert file_overrides == {"seed": 7}
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["seed:7"])


# --------------------------------------------------------------------------
# Domains and unit suffixes
# --------------------------------------------------------------------------

def test_frequency_getter_converts_each_suffix():
    assert in_base_units("linewidth_mhz", 70.0) == ("linewidth", 70e6)
    assert in_base_units("inhomogeneous_fwhm_ghz", 90.0) == ("inhomogeneous_fwhm", 90e9)
    assert in_base_units("slope_ghz_per_t", 5.41) == ("slope", 5.41 * 1e9)
    assert in_base_units("max_rate_mcps", 1.34) == ("max_rate", 1.34 * 1e6)


def test_time_field_power_getters():
    assert in_base_units("duration_s", 86400.0) == ("duration", 86400.0)
    assert in_base_units("calibration_time_us", 30.0) == ("calibration_time", 30.0 * 1e-6)
    assert in_base_units("optical_t1_ns", 4.7) == ("optical_t1", 4.7 * 1e-9)
    assert in_base_units("field_step_mt", 4.3) == ("field_step", 4.3 * 1e-3)
    assert in_base_units("saturation_power_pw", 120.0) == ("saturation_power", 120.0 * 1e-12)


def test_unit_suffix_is_stripped_and_applied_as_float_times_factor():
    # Keys without a unit suffix pass through untouched.
    for key in ("n_points", "s_max", "snr", "taper_etch_rate_um_min", "correction_splice"):
        assert in_base_units(key, 1.5) == (key, 1.5)
    # No suffix is the underscore-suffix of another, so one key has one reading.
    for suffix in UNIT_FACTORS:
        matches = [s for s in UNIT_FACTORS if f"x_{suffix}".endswith("_" + s)]
        assert matches == [suffix]


def test_numeric_domains_reject_booleans_strings_and_non_finite_values():
    for domain in (Domain(float, -1.0, 1.0), POSITIVE, NON_NEGATIVE, FRACTION, OPEN_FRACTION):
        for bad in (True, False, "70", math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="'linewidth_mhz'"):
                domain.check("linewidth_mhz", bad)
    # An integer too large for a float is rejected, not an OverflowError.
    with pytest.raises(ValueError, match="'x'"):
        POSITIVE.check("x", 10**400)
    for domain in (SEED, Domain(int, 1, 10)):
        for bad in (2.5, True, "3", math.nan):
            with pytest.raises(ValueError, match="integer"):
                domain.check("n", bad)


def test_domains_check_ranges_and_convert():
    assert POSITIVE.check("x", 3) == 3.0 and isinstance(POSITIVE.check("x", 3), float)
    assert Domain(float, -3.0, 3.0).check("x", -2.5) == -2.5
    assert POSITIVE.check("x", 1e-300) == 1e-300
    with pytest.raises(ValueError, match=r"> 0"):
        POSITIVE.check("x", 0)
    assert NON_NEGATIVE.check("x", 0) == 0.0
    with pytest.raises(ValueError, match=r">= 0"):
        NON_NEGATIVE.check("x", -0.5)
    assert FRACTION.check("f", 0) == 0.0 and FRACTION.check("f", 1) == 1.0
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FRACTION.check("f", 1.5)
    assert OPEN_FRACTION.check("f", 1) == 1.0
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        OPEN_FRACTION.check("f", 0)
    assert SEED.check("seed", 0) == 0
    with pytest.raises(ValueError, match=">= 0"):
        SEED.check("seed", -1)
    assert Domain(int, 3, 1000).check("n_scans", 3) == 3
    with pytest.raises(ValueError, match="'n_scans' must be an integer >= 3 and <= 1000, got 2"):
        Domain(int, 3, 1000).check("n_scans", 2)
    assert Domain(int, 3, 1000).check("n_scans", 1000) == 1000
    with pytest.raises(ValueError, match="'n_scans' must be an integer >= 3 and <= 1000, got 1001"):
        Domain(int, 3, 1000).check("n_scans", 1001)
    isotope = Domain(str, options=("sn115", "sn117"))
    assert isotope.check("reference_isotope", "sn115") == "sn115"
    for bad in ("sn116", 117, True):
        with pytest.raises(ValueError, match="one of sn115, sn117"):
            isotope.check("reference_isotope", bad)
    for good in ("fraction 0.96", "db 0.04", "db_per_km 12 15"):
        assert CORRECTION.check("correction_a", good) == good
    for bad in ("db", "db 1 2 3", "db nan", "db inf", "db_per_km 12 -inf", "db x", 0.5,
                "", "db_per_km 12", "db 0.04 7", "fraction 0.5 1", "dB 0.04", "nepers 1"):
        with pytest.raises(ValueError, match="'correction_a'"):
            CORRECTION.check("correction_a", bad)


def test_edges_lie_at_and_just_past_each_end_of_a_domain():
    assert Domain(int, 3, 1000).edges() == [2, 3, 1000, 1001] and SEED.edges() == [-1, 0]
    assert FRACTION.edges() == [0, -5e-324, 1, 1.0000000000000002]
    assert POSITIVE.edges() == [0, 5e-324, 2.2250738585072014e-308, 1e300, sys.float_info.max]
    coupling = Domain(float, 0, 1, lo_open=True, excluded=(0.5,))
    assert [value in coupling for value in coupling.edges()] == [False, True, True, True, False,
                                                                 True, False, True]
    assert "fraction 0" in CORRECTION.edges() and "db -5e-324" in CORRECTION.edges()


# --------------------------------------------------------------------------
# Ordered builders
# --------------------------------------------------------------------------

def test_budget_from_config_preserves_file_order(tmp_path):
    path = tmp_path / "budget.cfg"
    path.write_text(
        "stage_first = 0.5\nother = 3\nstage_second = 0.25\nstage_third = 0.8\n"
    )
    budget = budget_from_config(load_config(path))
    assert [name for name, _ in budget] == ["first", "second", "third"]
    assert math.isclose(
        budget_report(budget)["total_fraction"], 0.5 * 0.25 * 0.8, rel_tol=1e-15
    )
    with pytest.raises(ValueError, match="stage_"):
        budget_from_config({"other": 1})


def test_budget_from_shipped_config():
    budget = budget_from_config(load_config("configs/table_s1.cfg"))
    assert len(budget) == 7
    assert abs(budget_report(budget)["total_fraction"] - 0.017459139672) < 1e-12


def test_loss_chain_from_shipped_config():
    chain = loss_chain_from_config(load_config("configs/loss_chain.cfg"))
    assert chain.measured_roundtrip == 0.27
    assert [c.name for c in chain.corrections] == [
        "splice",
        "facet_scattering",
        "fibre_attenuation",
    ]
    assert chain.corrections[0].kind == "db" and chain.corrections[0].value == 0.04
    assert chain.corrections[2].length_m == 15.0
    assert math.isclose(apply_loss_chain(chain), 0.5693910665897446, rel_tol=1e-12)


def test_loss_chain_rejects_malformed_correction():
    for correction in ("db", "db nan", "db inf"):
        cfg = {"measured_roundtrip": 0.27, "correction_bad": correction}
        with pytest.raises(ValueError, match="'correction_bad'.*kind.*finite numbers"):
            loss_chain_from_config(cfg)


def test_loss_chain_rejects_a_correction_that_transmits_nothing():
    # 10^(-5000/10) underflows to 0; dividing by it must not end in ZeroDivisionError.
    chain = loss_chain_from_config({"measured_roundtrip": 0.27, "correction_big": "db 5000"})
    with pytest.raises(ValueError, match="'big' transmits 0"):
        apply_loss_chain(chain)


def test_budget_stage_values_go_through_the_numeric_check():
    for bad in (True, "high", math.nan, 0, 1.5):
        with pytest.raises(ValueError, match="'stage_detector'"):
            budget_from_config({"stage_detector": bad})

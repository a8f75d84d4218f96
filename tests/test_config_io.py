"""Key-value config parsing, unit-suffixed getters, and ordered builders."""

from __future__ import annotations

import math

import pytest

from snvsim.config import (
    budget_from_config,
    field_t,
    fraction,
    frequency_hz,
    integer,
    load_config,
    loss_chain_from_config,
    merged,
    number,
    parse_config_text,
    parse_overrides,
    parse_value,
    power_w,
    time_s,
)
from snvsim.photon_budget import apply_loss_chain, total_detection_efficiency


# --------------------------------------------------------------------------
# Scalar parsing
# --------------------------------------------------------------------------

def test_parse_value_types():
    assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
    assert parse_value("-3") == -3
    assert parse_value("2.5") == 2.5 and isinstance(parse_value("2.5"), float)
    assert parse_value("1e-3") == 1e-3
    assert parse_value("true") is True
    assert parse_value("YES") is True
    assert parse_value("off") is False
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


def test_parse_overrides_and_precedence():
    overrides = parse_overrides(["seed=7", "noise_sigma=0.02", "label=fast run"])
    assert overrides == {"seed": 7, "noise_sigma": 0.02, "label": "fast run"}
    base = {"seed": 1, "keep": True}
    out = merged(base, overrides)
    assert out["seed"] == 7 and out["keep"] is True
    assert base["seed"] == 1  # merged never mutates its inputs
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["seed:7"])


# --------------------------------------------------------------------------
# Dimensioned getters
# --------------------------------------------------------------------------

def test_frequency_getter_converts_each_suffix():
    assert frequency_hz({"lambda_so_ghz": 850}, "lambda_so") == 850e9
    assert frequency_hz({"split_mhz": 452}, "split") == 452e6
    assert frequency_hz({"rate_khz": 3}, "rate") == 3e3
    assert frequency_hz({"f_hz": 28.6e6}, "f") == 28.6e6
    assert frequency_hz({"comb_thz": 0.4}, "comb") == 0.4e12


def test_time_field_power_getters():
    assert time_s({"t1_ns": 4.7}, "t1") == pytest.approx(4.7e-9, rel=1e-15)
    assert time_s({"window_us": 13.9}, "window") == pytest.approx(13.9e-6, rel=1e-15)
    assert time_s({"duration_s": 86400}, "duration") == 86400.0
    assert field_t({"bias_mt": 83.5}, "bias") == pytest.approx(0.0835, rel=1e-15)
    assert field_t({"bias_t": 0.1}, "bias") == 0.1
    assert power_w({"p_sat_pw": 120}, "p_sat") == pytest.approx(120e-12, rel=1e-15)
    assert power_w({"drive_nw": 2.5}, "drive") == pytest.approx(2.5e-9, rel=1e-15)


def test_dimensioned_getter_defaults_ambiguity_and_missing():
    assert frequency_hz({}, "linewidth", default=70e6) == 70e6
    with pytest.raises(KeyError, match="missing frequency key"):
        frequency_hz({}, "linewidth")
    with pytest.raises(ValueError, match="ambiguous"):
        frequency_hz({"linewidth_mhz": 70, "linewidth_ghz": 0.07}, "linewidth")
    for bad in (True, "70", math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="linewidth_mhz"):
            frequency_hz({"linewidth_mhz": bad}, "linewidth")


def test_plain_numeric_getters():
    assert number({"x": 3}, "x") == 3.0
    assert number({}, "x", default=1.5) == 1.5
    with pytest.raises(KeyError):
        number({}, "x")
    with pytest.raises(ValueError, match="numeric"):
        number({"x": "word"}, "x")
    with pytest.raises(ValueError, match="numeric"):
        number({"x": True}, "x")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            number({"x": bad}, "x")
    assert integer({"n": 10}, "n") == 10
    with pytest.raises(ValueError, match="integer"):
        integer({"n": 2.5}, "n")
    with pytest.raises(ValueError, match="integer"):
        integer({"n": True}, "n")
    assert fraction({"f": 0.95}, "f") == 0.95
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fraction({"f": 1.5}, "f")


# --------------------------------------------------------------------------
# Ordered builders
# --------------------------------------------------------------------------

def test_budget_from_config_preserves_file_order(tmp_path):
    path = tmp_path / "budget.cfg"
    path.write_text(
        "stage_first = 0.5\nother = 3\nstage_second = 0.25\nstage_third = 0.8\n"
    )
    budget = budget_from_config(load_config(path))
    assert [name for name, _ in budget.stages] == ["first", "second", "third"]
    assert math.isclose(
        total_detection_efficiency(budget), 0.5 * 0.25 * 0.8, rel_tol=1e-15
    )
    with pytest.raises(ValueError, match="stage_"):
        budget_from_config({"other": 1})


def test_budget_from_shipped_config():
    budget = budget_from_config(load_config("configs/table_s1.cfg"))
    assert len(budget.stages) == 7
    assert abs(total_detection_efficiency(budget) - 0.017459139672) < 1e-12


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
    cfg = {"measured_roundtrip": 0.27, "correction_bad": "db"}
    with pytest.raises(ValueError, match="kind"):
        loss_chain_from_config(cfg)

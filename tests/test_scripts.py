"""`snvsim run` as the whole-stack regression check: exit codes and refused input."""

from __future__ import annotations

import json

import pytest

from snvsim.cli import main


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Keep default-path writes out of the working tree."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 0),  # no target: every scenario at its defaults
        (["no_such_scenario"], 2),
        (["g2", "background=0.6"], 1),
        (["g2", "background=2"], 2),
        (["fig4b", "cooperativity=1"], 1),  # C * gamma_h / gamma0 > 1 fails two rows
    ],
)
def test_run_all_scenarios_exit_codes(tmp_path, capsys, argv, code):
    assert main(["run", *argv, "--output-dir", str(tmp_path)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and set(json.loads(captured.err)) >= {"error"}
        assert list(tmp_path.iterdir()) == []
    else:
        assert captured.err == "" and json.loads(captured.out)


def test_run_all_scenarios_refuses_a_repeated_override_key(tmp_path, capsys):
    argv = ["run", "g2", "seed=1", "seed=60", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate key 'seed'" in json.loads(captured.err)["error"]
    assert list(tmp_path.iterdir()) == []

import json
import re

import pytest

from facetcx import VerifyConfig, cli, replay_bundle, run_verify
from facetcx import verify as verify_mod


def small_cfg(**kw):
    base = dict(seed=3, trials=12)
    base.update(kw)
    return VerifyConfig(**base)


def test_quick_run_passes():
    report = run_verify(small_cfg())
    assert report.ok
    assert not report.failures
    assert report.passed["fixtures"] == 2


def test_reports_are_deterministic():
    a = run_verify(small_cfg()).text()
    b = run_verify(small_cfg()).text()
    assert a == b


def test_different_seeds_differ_in_instances():
    # same pass/fail outcome, but the text includes observation tallies
    # that shift with the seed on most runs; at minimum both must pass
    a = run_verify(small_cfg(seed=3))
    b = run_verify(small_cfg(seed=4))
    assert a.ok and b.ok


def test_suite_selection():
    report = run_verify(small_cfg(suites=("coloring",)))
    assert set(report.passed) == {"coloring"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suites"):
        run_verify(small_cfg(suites=("nope",)))


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_rejected(capsys, trials):
    with pytest.raises(ValueError, match="trials"):
        small_cfg(trials=trials)
    assert cli.run(["verify", "--trials", str(trials)]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_report_text_shape():
    text = run_verify(small_cfg()).text()
    assert text.splitlines()[0] == "property verification report"
    assert "observations (not asserted):" in text
    assert text.rstrip().endswith("RESULT: PASS")


def test_failure_produces_replayable_bundle(monkeypatch):
    def check_always_fails(ctx, inst):
        verify_mod._need(False, "deliberate test failure")

    monkeypatch.setitem(
        verify_mod.CHECKS, "check_always_fails", check_always_fails
    )
    monkeypatch.setitem(
        verify_mod.SUITES, "doomed", (check_always_fails,)
    )
    report = run_verify(small_cfg(trials=2, suites=("doomed",)))
    assert not report.ok
    assert report.failures
    bundle = report.failures[0].bundle
    data = json.loads(bundle)
    assert data["check"] == "check_always_fails"
    assert "instances" in data
    ok, detail = replay_bundle(bundle)
    assert not ok
    assert "deliberate test failure" in detail


def test_replay_good_bundle_passes():
    # build a bundle for a real check on real instances and replay it
    cfg = small_cfg(trials=1)
    inst = verify_mod._instances(cfg, 0)
    bundle = verify_mod._bundle(cfg, "check_structure", 0, inst)
    ok, detail = replay_bundle(bundle)
    assert ok, detail


MALFORMED_BUNDLES = [
    ('{}', "no known check: None"),
    ('[1, 2]', "must be a JSON object"),
    ('{"check": "check_structure"}', "'instances' must be an object"),
    ('{"check": "check_structure", "instances": {}}', "lack L, H, K"),
    ('{"check": "check_structure", "instances": {"L": 5}}', "instance L is not .scx text"),
    ('{"check": ["x"], "instances": {}}', "no known check: ['x']"),
    ('{check', "bundle is not JSON"),
]


@pytest.mark.parametrize("text,message", MALFORMED_BUNDLES)
def test_malformed_bundle_is_input_error(capsys, tmp_path, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        replay_bundle(text)
    path = tmp_path / "b.json"
    path.write_text(text)
    assert cli.run(["verify", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert message in captured.err


def test_crashing_check_is_reported_not_raised(monkeypatch):
    def check_crashes(ctx, inst):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify_mod.CHECKS, "check_crashes", check_crashes)
    monkeypatch.setitem(verify_mod.SUITES, "crashy", (check_crashes,))
    report = run_verify(small_cfg(trials=1, suites=("crashy",)))
    assert not report.ok
    assert any("crash" in f.detail for f in report.failures)

import pytest

from ultracon import Check, VerificationReport, sweep_thm2, sweep_thm3
from ultracon import sweeps


@pytest.mark.parametrize("verifier, sweep", [("verify_thm2", sweep_thm2), ("verify_thm3", sweep_thm3)])
def test_failing_families_are_counted_and_capped(verifier, sweep, s2, c3, monkeypatch):
    corpus = [s2, c3]
    total = sweep(corpus).families
    failing = VerificationReport("forced", {}, (Check("forced-failure", False),))
    monkeypatch.setattr(sweeps, verifier, lambda *args, **kwargs: failing)
    result = sweep(corpus)
    assert not result.passed
    assert len(result.failures) == 32  # the cap on kept failure reports
    assert result.failures[0] == failing.to_dict()
    assert all(d["failures"] == d["families"] for d in result.details)
    assert result.families == total > 32

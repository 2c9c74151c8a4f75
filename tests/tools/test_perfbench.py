"""The perf gate's same-host denominator (``seed_wall_s``)."""

from repro.tools import perfbench
from repro.tools.perfbench import BASELINES, POINTS, seed_wall_s


def test_without_the_seed_commit_falls_back_to_calibration(monkeypatch):
    # As in a shallow clone: the seed commit is not in the history.
    monkeypatch.setattr(perfbench, "SEED_COMMIT", "0" * 40)
    monkeypatch.setattr(perfbench, "calibration_s", lambda: 0.5)
    wall, source = seed_wall_s(POINTS["lanai91_16"], trials=1)
    assert source == "calibration loop"
    assert wall == BASELINES["lanai91_16"].calibration_ratio * 0.5

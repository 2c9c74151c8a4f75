"""The README's import surface must exist and work."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro


def test_version():
    assert repro.__version__


def test_lazy_reexports():
    assert repro.build_myrinet_cluster is not None
    assert repro.build_quadrics_cluster is not None
    assert repro.run_barrier_experiment is not None
    assert repro.HardwareProfile is not None
    assert repro.PROFILES
    assert repro.BarrierModel is not None
    assert repro.fit_barrier_model is not None


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        repro.flux_capacitor


def test_readme_quickstart_snippet():
    """The exact code from the README front page."""
    from repro import build_myrinet_cluster, run_barrier_experiment

    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=8)
    result = run_barrier_experiment(
        cluster,
        barrier="nic-collective",
        algorithm="dissemination",
        iterations=30,
        warmup=5,
    )
    assert 12.0 < result.mean_latency_us < 17.0  # ~14.2us per Fig. 6


def test_subpackages_importable():
    import repro.collectives
    import repro.experiments
    import repro.host
    import repro.model
    import repro.mpi
    import repro.myrinet
    import repro.network
    import repro.pci
    import repro.quadrics
    import repro.sim
    import repro.tools
    import repro.topology


def test_tools_perfbench_exports_resolve_lazily():
    import repro.tools
    from repro.tools import perfbench

    assert repro.tools.bench_point is perfbench.bench_point
    assert repro.tools.run_benchmarks is perfbench.run_benchmarks
    with pytest.raises(AttributeError):
        repro.tools.flux_capacitor


def test_perfbench_module_entry_is_warning_free():
    """``python -m repro.tools.perfbench`` must not find the module
    already imported by its own package (runpy's RuntimeWarning)."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.tools.perfbench", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr

"""Pinned observables of the three fault drivers.

Each entry is the sha256 of ``repr()`` of a driver's observable:

- every chaos catalogue scenario x scheme, ``comparable()`` at N=16,
  4 iterations, seed 0;
- ``run_fuzz_case`` seeds 0-3 on each network, ``comparable()`` at N=16;
- the full ``run_workload`` dict of the kill-mode trace in
  ``tests/workload/test_driver.py``, on each network.

The digests were recorded before the drivers shared one detector,
controller, audit and replay loop, so any drift here is a change of
behaviour, not of structure.  The tie-break tests elsewhere only check
each driver against itself under permutation; these pin it against a
recorded run.
"""

import hashlib
import warnings

import pytest

from repro.tools.chaos import (
    ALL_SCENARIOS,
    make_fuzz_plan,
    run_chaos_scenario,
    run_fuzz_case,
)
from repro.workload import KillSpec, run_workload
from tests.workload.test_driver import KILL_JOBS

CAMPAIGN = {
    "myrinet/drop/host": "68fbfbdfb8dc6bdd49eeb430e19eb6013b358bfba24ce0d75dfead558682a652",
    "myrinet/drop/nic-direct": "4225f8ed62ddaff25bb883eb2b528e3cb2b65d7717e9d2e9c0f4292e9326b7bc",
    "myrinet/drop/nic-collective": "7b26e6ce2fc903b2b1959fc028bc8f4985cd8363c701ad25adfe5d04829be8f1",
    "myrinet/corrupt/host": "0ef8c2573b54e059cccae7f4a3b4f296187c06d8d2041809a2a1012c94104915",
    "myrinet/corrupt/nic-direct": "68b06ababc94ffbf70a665f7699a25e25d5bb0f13e47946397bc265a46bf0081",
    "myrinet/corrupt/nic-collective": "7484da76fcd9b348d521afc44f365e5400aca39299708ee890ee1a6ab7336a05",
    "myrinet/duplicate/host": "2a74e4287c15938cc75a465314348093bcae886bd1a7bbf28d13e104196a4510",
    "myrinet/duplicate/nic-direct": "b5639a7347b7134fac67e88502f7181a87380a1c322536d3567869933dcfcbaf",
    "myrinet/duplicate/nic-collective": "e2f91201e952f220ef12c8ffc2adf8622ed98bf4fba77e5da23852352b729f44",
    "myrinet/delay/host": "cc8961498695f0ec4cac362f8847ebc4182bd571715fe38d8841370c2e443397",
    "myrinet/delay/nic-direct": "0039ecfb8b339b56e97065bc8d1376b7e7aa4ed8b134ade23e290faee9df7198",
    "myrinet/delay/nic-collective": "ef50fbf5930e7294dba8bd161812ae2c2b9e0d61f4a7ad652470848e9241f490",
    "myrinet/flap/host": "7fd6483565efe5a2e4e864421b269b64ae148d1154d819902155db23d2911bc4",
    "myrinet/flap/nic-direct": "8e5b526e0e5871005898fdf6e9d1fc0eeef9fa70edb8d644838520664e6e6d19",
    "myrinet/flap/nic-collective": "6ed6a43cc7150a71a50a300cae53544fc9ee2199ffdff461b782deba9f88d2a2",
    "myrinet/crash/nic-direct": "bc4417ea76d47e54a3479a8c6c003a99c067a3118b4626a6b56837228287831e",
    "myrinet/crash/nic-collective": "17fadae1398a13975c6806cad986a907337e530b4a6cecb2974eb3444a28c146",
    "myrinet/link-death/nic-direct": "432edf2e8e339c91084d7e3dfb260d0f16b99932a427d7ad76f868e63d7f9a16",
    "myrinet/link-death/nic-collective": "194ee6cf0904c1903179bbd5e0081cbfe6f5653ca78739a2630e0bcff4bb357c",
    "myrinet/slow-host/host": "28eba430c635d1280581fdb088fa473495c3f1b86282ecf1da03de95d6e42698",
    "myrinet/slow-host/nic-direct": "6df56ba3cac7c33ba6554bd80a60fc464f093c4b0d7c9bd29902126ce8ad8a26",
    "myrinet/slow-host/nic-collective": "4adb7c9b4b6abb9ab5948d62cc3481b5b6d444796eaed868299ac4f56e2c4c4b",
    "myrinet/allreduce-flap/nic-collective": "45f666958c7b145ce64d7e2218b8fb42273db3012b98dff7019ef80b9f6624b7",
    "myrinet/allreduce-link-death/nic-collective": "89f0e684679be38a05295980991acfd7bba5be82347c61a988fd0784c7845bc3",
    "myrinet/bcast-flap/nic-collective": "3c067776fd40564d657f8f4049616484009fc5fbe46cde916a2c0277dda2dcde",
    "myrinet/bcast-link-death/nic-collective": "a41c3228929ed22d6a3b9baa8f05c6d3a87a82c6fbd1c93ca5e2933dbabcbc96",
    "myrinet/ibarrier-flap/nic-collective": "6ed6a43cc7150a71a50a300cae53544fc9ee2199ffdff461b782deba9f88d2a2",
    "myrinet/ibarrier-crash/nic-collective": "17fadae1398a13975c6806cad986a907337e530b4a6cecb2974eb3444a28c146",
    "quadrics/delay/gsync": "1da5d565511fa1defcab2f22106e35cd239658b00003603ae9268aff8f2b2fde",
    "quadrics/delay/nic-chained": "cfb0173117f4f6df77666f3512f8403c293115941e11614fe3d0135750d93f77",
    "quadrics/slow-host/gsync": "e018e552d34ccb9f6920e3b9103d2fbe865a3f7a93549c621c0f2f102067db16",
    "quadrics/slow-host/hgsync": "51c333f5f7d13dd88aee26f4b49fca5b0b7d8e5085d27535fc9e626f7599e5bf",
    "quadrics/slow-host/nic-chained": "26085d776eceae4f46168384a260da0036e05e06dcf0143829c6c1df740b91a9",
    "quadrics/hw-degrade/hgsync": "1f22f68e113226fb19d6543d7d034c6d88553ed17f89c88e24124e1268279068",
    "quadrics/hw-fail/hgsync": "64698f29f6366ac7f8f1d8efb1ee8f015e43d6feec5ce3747f2c740e829c9de8",
}

FUZZ = {
    "myrinet/0": "8307e99ec0fa1fefa6dd41ef0339c8b60ae9d3868bb53436702430704f6e6712",
    "myrinet/1": "9f3ea59143dc43b57dd4911504cc2dbc7c35539b3cd55f4f13cd530416b6963a",
    "myrinet/2": "f2c57d3c80bef13da9d4db4b7aaada0216a79fc2487634dab47c177433e6b3ab",
    "myrinet/3": "477bd0cb19a60ab9ebf209227fc69c0ff88482906a7b7301d43582726f5dc917",
    "quadrics/0": "5112b4833bf1b201cfb74f07f675a4db3055d5819081dd4d2d2811ec7dcc5b8b",
    "quadrics/1": "375198be23b3fb322900433d1875974789ffd9f18991d77abd0c093a44f063fb",
    "quadrics/2": "a3539eab9980e4a297b0bc8d817e6995c3a149c45726c8f88f621791302f71dd",
    "quadrics/3": "6e44d0a5c8172d4179e15cfcf42b821b71b4e56198bdb1c0cf64975f6e49fb62",
}

WORKLOAD_KILL = {
    "myrinet": "cd0ac5e7dc9bf74ed13fd9cf1cd9c46732f7c1cd2587cb28428f5cb51120190a",
    "quadrics": "1c453c0b1d700b4fe1c812cf434415062567563a89f1d45cf87ac36d5e44af26",
}

SCENARIOS = {
    f"{s.network}/{s.name}/{barrier}": (s, barrier)
    for s in ALL_SCENARIOS
    for barrier in s.applicable_schemes
}


def digest(observable) -> str:
    return hashlib.sha256(repr(observable).encode()).hexdigest()


def test_every_catalogue_run_is_pinned():
    assert sorted(SCENARIOS) == sorted(CAMPAIGN)


@pytest.mark.parametrize("key", sorted(CAMPAIGN))
def test_campaign_run_matches_pinned_digest(key):
    scenario, barrier = SCENARIOS[key]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_chaos_scenario(
            scenario, barrier, nodes=16, iterations=4, seed=0
        )
    assert digest(result.comparable()) == CAMPAIGN[key]


@pytest.mark.parametrize("key", sorted(FUZZ))
def test_fuzz_case_matches_pinned_digest(key):
    network, seed = key.split("/")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_fuzz_case(make_fuzz_plan(network, int(seed), nodes=16))
    assert digest(result.comparable()) == FUZZ[key]


@pytest.mark.parametrize("network", sorted(WORKLOAD_KILL))
def test_workload_kill_mode_matches_pinned_digest(network):
    result = run_workload(
        network, 16, KILL_JOBS, seed=2, kill=KillSpec(node=2, at_us=60.0),
        baseline=False,
    )
    assert digest(result) == WORKLOAD_KILL[network]

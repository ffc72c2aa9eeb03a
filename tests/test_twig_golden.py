"""Twig is pinned bit-identical to its recorded golden trajectories.

``tests/data/twig_golden.json`` was recorded from the scalar Twig control
loop that preceded the single fleet-backed loop; every configuration in
:data:`tests.twig_golden.CONFIGS` must still reproduce it exactly: each
interval's assignments, the final agent parameters, Adam moments, RNG
state and counters, and the traced run's event bytes.
"""

import json

import pytest

from tests import twig_golden

GOLDEN = json.loads(twig_golden.FIXTURE.read_text())


@pytest.fixture(scope="module", autouse=True)
def same_rounding():
    if twig_golden.probe() != GOLDEN["probe"]:
        pytest.skip(
            "this host's BLAS rounds the network GEMMs differently from the "
            "recording host; the golden pins bit-identity for that rounding only"
        )


@pytest.mark.parametrize("name", sorted(twig_golden.CONFIGS))
def test_twig_matches_golden(name):
    expected = GOLDEN["configs"][name]
    got = twig_golden.CONFIGS[name]()
    want_steps = expected["assignments"].split()
    got_steps = got["assignments"].split()
    first_diff = next(
        (t for t, (a, b) in enumerate(zip(got_steps, want_steps)) if a != b), None
    )
    assert first_diff is None and len(got_steps) == len(want_steps), (
        f"{name}: assignments diverge at interval {first_diff}"
    )
    assert got["final"] == expected["final"]
    for key in ("events", "event_bytes"):
        assert got.get(key) == expected.get(key)


def test_golden_covers_every_config():
    assert sorted(GOLDEN["configs"]) == sorted(twig_golden.CONFIGS)

"""The byte-identity sweep of ``sweep.py`` as a Tier-1 test, one item per
run: every stored digest of the run over its cases matches.  Regenerate
the digests, after a deliberate output change only, with
``python tests/sweep.py --write``."""

import json

import pytest

import sweep

# the digests hold under every hash seed
pytestmark = pytest.mark.hashseed


def test_the_four_vertex_classes_are_the_218_isomorphism_classes():
    assert len(sweep.digraph_classes(4)) == 218


def test_the_stored_digests_are_of_the_sweep_runs():
    assert sorted(json.loads(sweep.DIGESTS.read_text(encoding="utf-8"))) == sorted(sweep.RUNS)


# a short name, so that each item's full name, its argv included, stays
# under 100 characters and no two items share a cut-off prefix
@pytest.mark.parametrize("run", sweep.RUNS)
def test_run(run):
    """Every stored digest of the run over its cases matches."""
    bad = sweep.mismatches([run])
    assert not bad, f"{len(bad)} sweep mismatches; first: {bad[0]}"

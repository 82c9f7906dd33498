"""The byte-identity sweep of ``sweep.py`` as a Tier-1 test: every stored
digest over the four-vertex digraph classes and the named group cases
matches.  Regenerate the digests, after a deliberate output change only,
with ``python tests/sweep.py --write``."""

import pytest

import sweep

# the digests hold under every hash seed
pytestmark = pytest.mark.hashseed


def test_the_four_vertex_classes_are_the_218_isomorphism_classes():
    assert len(sweep.digraph_classes(4)) == 218


def test_sweep_outputs_match_the_stored_digests():
    bad = sweep.mismatches()
    assert not bad, f"{len(bad)} sweep mismatches; first: {bad[0]}"

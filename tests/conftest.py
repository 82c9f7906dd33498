import re

import pytest

from references import standard_corpus
from stablelift.corpus import digraph


def pytest_runtest_logreport(report):
    """Emit the promised one-line verdict for failed acceptance criteria
    (passing criteria print their own line with timing and a summary)."""
    if report.when == "call" and report.failed:
        m = re.search(r"test_criterion_(\d+)", report.nodeid)
        if m:
            print(f"\n[criterion {m.group(1)}] FAIL ({report.duration:.1f}s)")


@pytest.fixture
def m_edge():
    """Two points with a single directed edge; rigid."""
    return digraph(2, [(0, 1)])


@pytest.fixture
def m_pair():
    """Two bare points; automorphism group of order 2."""
    return digraph(2, [])


@pytest.fixture
def m_triple():
    """Three bare points; full symmetric group."""
    return digraph(3, [])


@pytest.fixture(scope="session")
def corpus():
    """Every repetition-free digraph on up to 3 vertices (69 structures)."""
    return standard_corpus(3)


def _random_structure(rng):
    """A structure with a unary function, a constant and a ternary relation
    beside a binary and a unary one; tuples may repeat entries."""
    from stablelift.structures import Signature, Structure

    n = rng.randint(1, 6)
    sig = Signature(relations=(("T", 3), ("E", 2), ("U", 1)), functions=("f",), constants=("c",))
    return Structure(
        sig=sig,
        size=n,
        relations={
            "T": [tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 5))],
            "E": [tuple(rng.randrange(n) for _ in range(2)) for _ in range(rng.randint(0, 5))],
            "U": [(rng.randrange(n),) for _ in range(rng.randint(0, 2))],
        },
        functions={"f": [rng.randrange(n) for _ in range(n)]},
        constants={"c": rng.randrange(n)},
        repetition_free=False,
    )


@pytest.fixture(scope="session")
def type_structures(corpus):
    """Inputs for the column-wise type computations: the corpus, its lifts
    at k = 1 and 2, and seeded random structures with a function, a constant
    and a ternary relation."""
    import random

    from stablelift.lifting import LiftConfig, build_lift

    rng = random.Random(31)
    sources = [M for _, M in corpus]
    lifts = [build_lift(M, LiftConfig(k=k)).structure for M in sources for k in (1, 2)]
    return sources + lifts + [_random_structure(rng) for _ in range(120)]


@pytest.fixture(scope="session")
def random_structures():
    """200 more seeded random structures of the kind type_structures draws,
    from another seed."""
    import random

    rng = random.Random(47)
    return [_random_structure(rng) for _ in range(200)]

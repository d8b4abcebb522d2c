import random

import pytest

from cubicmatch import connectivity
from cubicmatch.harness import bridgeless_cubic_catalog
from cubicmatch.connectivity import bridges
from cubicmatch.multigraph import MultiGraph


@pytest.fixture(scope="session")
def catalogs():
    """Session-cached exhaustive catalogs keyed by order."""

    def get(n):
        return bridgeless_cubic_catalog(n)

    return get


def random_bridgeless_cubic(n: int, rnd: random.Random) -> MultiGraph:
    """Random connected bridgeless cubic multigraph via stub pairing."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rnd.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        g = MultiGraph(n, tuple(pairs))
        if g.is_connected() and not bridges(g):
            return g


def walk_forbidden(g):
    raise AssertionError("the connected-side walk must not run")


def count_cut_spaces(monkeypatch):
    """Records every graph a cut space is built for."""
    built = []
    space = connectivity._CutSpace

    def counting_space(g):
        built.append(g)
        return space(g)

    monkeypatch.setattr(connectivity, "_CutSpace", counting_space)
    return built

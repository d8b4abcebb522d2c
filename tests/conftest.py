import random

import pytest

from cubicmatch import connectivity, matching
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


def count_kernels(monkeypatch):
    """Records the graph of every matching kernel built."""
    built = []
    init = matching._Kernel.__init__

    def counting_init(self, g, *args, **kwargs):
        built.append(g)
        init(self, g, *args, **kwargs)

    monkeypatch.setattr(matching._Kernel, "__init__", counting_init)
    return built


def check_kernels_per_piece(built, g, dec):
    """One kernel on g and at most one on each further piece of the
    decomposition dec (two new pieces per split)."""
    assert sum(h is g for h in built) == 1
    others = [h for h in built if h is not g]
    assert len({id(h) for h in others}) == len(others)
    assert len(others) <= 2 * len(dec.cut_trace)

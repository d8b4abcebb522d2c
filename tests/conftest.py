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
            # a fresh instance: bridges leaves its cut space cached on g
            return MultiGraph(n, tuple(pairs))


def analyze16_draws(seed=1):
    """The order-16 graphs the analyze16 benchmark workload draws for a seed."""
    rnd = random.Random(seed)
    return [random_bridgeless_cubic(16, rnd) for _ in range(100)]


def sparse_multigraphs(seed=211, per_order=12):
    """Seeded loopless multigraphs of every order 0-20 with 0 to 3n/2
    random edges: many are disconnected or have isolated vertices, and
    about half repeat one edge (a digon)."""
    rnd = random.Random(seed)
    graphs = []
    for n in range(21):
        for _ in range(per_order):
            pairs = []
            if n >= 2:
                pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(0, 3 * n // 2))]
            if pairs and rnd.random() < 0.5:
                pairs.append(rnd.choice(pairs))
            graphs.append(MultiGraph(n, tuple(pairs)))
    return graphs


def mask_reference_graphs(catalogs):
    """Inputs on which the mask-based decomposition, klee recognition and
    cut match are compared with the former graph-building ones: the
    catalogs n <= 12, the analyze16 draws of seeds 1-3, the klee classes of
    order 14 and 20 seeded graphs at each of n = 14, 16, 18, 20."""
    from cubicmatch.klee import enumerate_klee

    graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
    for seed in (1, 2, 3):
        graphs += analyze16_draws(seed)
    graphs += enumerate_klee(14)
    for n in (14, 16, 18, 20):
        rnd = random.Random(n)
        graphs += [random_bridgeless_cubic(n, rnd) for _ in range(20)]
    return graphs


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


def record_zero_set_sizes(monkeypatch):
    """Records the size k of every zero-XOR edge-set search a cut space runs."""
    sizes = []
    zero_sets = connectivity._CutSpace.zero_sets

    def recording_zero_sets(self, k, levels):
        sizes.append(k)
        return zero_sets(self, k, levels)

    monkeypatch.setattr(connectivity._CutSpace, "zero_sets", recording_zero_sets)
    return sizes


def count_multigraphs(monkeypatch):
    """Records every MultiGraph constructed."""
    built = []
    post_init = MultiGraph.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MultiGraph, "__post_init__", counting_post_init)
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


def check_one_kernel_on_input(built, g):
    """Exactly one kernel was built, and on g itself."""
    assert len(built) == 1 and built[0] is g

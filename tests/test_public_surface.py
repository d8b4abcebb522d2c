"""The public surface and its preconditions, pinned in one table.

Every function cubicmatch exports whose first parameter is a MultiGraph
has one entry: an invalid call and the ValueError message it must raise,
or None for a function that answers every MultiGraph. The key set must
equal the exported set, so a new export brings its precondition case with
it and a deleted one takes its case away. Classes are result types built
by these functions, not entry points, and are left out. The former
exports that now live in tests/oracles.py keep their cases in a second
table.

Every exported function also has a caller in the package, outside its
own definition and __init__.py, or a stated reason to stay exported in
UNCALLED_EXPORTS.
"""

import ast
import inspect
import pathlib

import pytest

import cubicmatch as cm
import oracles
from cubicmatch import matching
from cubicmatch.multigraph import Cut, MultiGraph
from cubicmatch.named_graphs import k4, petersen

TWO_K4 = MultiGraph(8, list(k4().edges) + [(u + 4, v + 4) for u, v in k4().edges])
# two digon-ended blocks joined by the bridge (2, 3)
BRIDGED = MultiGraph(
    6, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5))
)
TRIANGLE = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
PATH = MultiGraph(3, ((0, 1), (1, 2)))
# K4's vertex 0 on side_a, but the cut edges left empty
BAD_CUT = Cut(frozenset({0}), frozenset({1, 2, 3}), ())
K4_STAR = cm.make_cut(k4(), [0])
# the order-18 Moebius ladder: cubic, and past the labeller's bound
LADDER_18 = MultiGraph(
    18, tuple((i, (i + 1) % 18) for i in range(18)) + tuple((i, i + 9) for i in range(9))
)


PRECONDITIONS = {
    "bipartite_companion_check": (
        lambda: cm.bipartite_companion_check(k4(), 6), "edge index 6 out of range"
    ),
    "boundary_profile": (
        lambda: cm.boundary_profile(k4(), BAD_CUT),
        "the cut's edges are not the edges crossing its sides",
    ),
    "bridges": None,
    "canonical_form": (lambda: cm.canonical_form(LADDER_18), "limited to 16 vertices, got 18"),
    "contract": (lambda: cm.contract(k4(), [[]]), "contraction part out of range or empty"),
    "count_perfect_matchings": (
        lambda: cm.count_perfect_matchings(k4(), forced=(99,)), "edge index 99 out of range"
    ),
    "count_perfect_matchings_oracle": (
        lambda: cm.count_perfect_matchings_oracle(k4(), forbidden=(1.5,)),
        "edge index must be an int",
    ),
    "cyclic_edge_connectivity": (
        lambda: cm.cyclic_edge_connectivity(TWO_K4), "requires a connected graph"
    ),
    "cyclically_edge_connected_at_least": (
        lambda: cm.cyclically_edge_connected_at_least(PATH, 3), "requires minimum degree 3"
    ),
    "decompose": (lambda: cm.decompose(BRIDGED), "decompose requires a bridgeless graph"),
    "edge_connectivity": None,
    "enumerate_cuts": (lambda: cm.enumerate_cuts(k4(), 1.5), "max_size must be an int"),
    "enumerate_perfect_matchings": (
        lambda: list(cm.enumerate_perfect_matchings(k4(), forced=(0,), forbidden=(0,))),
        "forced and forbidden edges overlap",
    ),
    "expand_and_check": (
        lambda: cm.expand_and_check(k4(), 4), "4 is not a vertex of a graph of order 4"
    ),
    "four_cut_completion_edges": (
        lambda: cm.four_cut_completion_edges(k4(), K4_STAR, (0, 1)),
        "cut has size 3, need 4",
    ),
    "four_cut_completion_vertices": (
        lambda: cm.four_cut_completion_vertices(k4(), K4_STAR, (0, 1)),
        "cut has size 3, need 4",
    ),
    "is_cyclic_cut": (
        lambda: cm.is_cyclic_cut(k4(), BAD_CUT),
        "the cut's edges are not the edges crossing its sides",
    ),
    "is_klee": (lambda: cm.is_klee(PATH), "is_klee requires a cubic graph"),
    "is_matching_covered": None,
    "klee_stats": (lambda: cm.klee_stats(petersen()), "klee_stats requires a klee-graph"),
    "make_cut": (lambda: cm.make_cut(k4(), [9]), "9 is not a vertex of a graph of order 4"),
    "matching_profile": (
        lambda: cm.matching_profile(k4(), forced=(True,)), "edge index must be an int"
    ),
    "pm_affine_dimension": (
        lambda: cm.pm_affine_dimension(MultiGraph(2, ())),
        "requires at least one perfect matching",
    ),
    "replace_vertex_with_triangle": (
        lambda: cm.replace_vertex_with_triangle(PATH, 0), "vertex 0 has degree 1, need 3"
    ),
    "verify_graph": (
        lambda: cm.verify_graph(MultiGraph(0, ())),
        "verify_graph requires a graph with at least one vertex",
    ),
    "vertex_type": (lambda: cm.vertex_type(BRIDGED, 0), "vertex 0 has repeated neighbors"),
}


# the former exports that only tests use, now in tests/oracles.py
ORACLE_PRECONDITIONS = {
    "core": (lambda: oracles.core(k4()), "overlapping triangles"),
    "is_bicritical": (
        lambda: oracles.is_bicritical(TRIANGLE), "requires an even number of vertices"
    ),
    "is_brick": None,
    "is_nice_cut": (
        lambda: oracles.is_nice_cut(petersen(), cm.make_cut(petersen(), range(5))),
        "nice cuts must have size 3, got 5",
    ),
    "is_tight": (
        lambda: oracles.is_tight(BRIDGED, cm.make_cut(BRIDGED, [2])),
        "is_tight requires a matching covered graph",
    ),
    "vertex_connectivity_at_most": (
        lambda: oracles.vertex_connectivity_at_most(petersen(), -1), "an int k"
    ),
}
CASES = {**PRECONDITIONS, **ORACLE_PRECONDITIONS}

TRACED = "perfbench/run.py traces it"
STREAM = "the planned lemma stream reads it (ROADMAP item 7)"
# exported functions that no code in the package calls, each with its reason
UNCALLED_EXPORTS = {
    "boundary_profile": TRACED,
    "contract": TRACED,
    "count_perfect_matchings": TRACED,
    "enumerate_cuts": TRACED,
    "enumerate_perfect_matchings": TRACED,
    "is_matching_covered": TRACED,
    "pm_affine_dimension": TRACED,
    "is_cyclic_cut": "the one caller of _has_cycle, which perfbench/run.py traces",
    "bipartite_companion_check": STREAM,
    "bound_table": STREAM,
    "expand_and_check": STREAM,
    "four_cut_completion_edges": STREAM,
    "four_cut_completion_vertices": STREAM,
    "klee_stats": STREAM,
    "make_cut": STREAM,
    "vertex_type": STREAM,
}


def _exported_functions():
    return {
        name for name in dir(cm)
        if not name.startswith("_") and inspect.isfunction(getattr(cm, name))
    }


def _graph_taking_functions():
    names = set()
    for name in _exported_functions():
        params = list(inspect.signature(getattr(cm, name)).parameters.values())
        if params and params[0].annotation in ("MultiGraph", MultiGraph):
            names.add(name)
    return names


def _names_used_in_package():
    """Every name read in the package's modules but __init__.py, as a
    variable or an attribute, outside a function of that name."""
    used = set()

    def walk(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for path in pathlib.Path(cm.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def test_table_covers_every_graph_taking_export():
    assert set(PRECONDITIONS) == _graph_taking_functions()


def test_every_export_has_a_caller_or_a_reason():
    exported = _exported_functions()
    used = _names_used_in_package()
    assert sorted(exported - used - set(UNCALLED_EXPORTS)) == []
    # a reason goes once its export is called or gone
    assert sorted(set(UNCALLED_EXPORTS) - (exported - used)) == []


def test_removed_names_are_gone():
    # four were one call of another function; the oracles moved;
    # scarce_matching_graphs counted again what catalog verify's reports hold
    removed = {"count_avoiding", "find_nontrivial_tight_cut", "from_edge_list",
               "polytope_dimension", "scarce_matching_graphs", *ORACLE_PRECONDITIONS}
    assert len(removed) == 11
    assert sorted(removed & set(dir(cm))) == []
    assert not hasattr(cm.harness, "scarce_matching_graphs")


@pytest.mark.parametrize("name", sorted(k for k, v in CASES.items() if v))
def test_invalid_call_raises_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("name", sorted(k for k, v in CASES.items() if v is None))
@pytest.mark.parametrize(
    "g", [TWO_K4, BRIDGED, TRIANGLE, PATH, MultiGraph(0, ())],
    ids=["two_k4", "bridged", "triangle", "path", "empty"],
)
def test_total_functions_answer_every_graph(name, g):
    (getattr(cm, name, None) or getattr(oracles, name))(g)


def perfect_matching_graph(n):
    """n vertices joined in pairs by n/2 disjoint edges: sparse at any order."""
    return MultiGraph(n, tuple((2 * i, 2 * i + 1) for i in range(n // 2)))


def test_counting_refuses_an_order_past_the_kernel_limit():
    # the kernel recurses once per matched edge; past the limit it is
    # refused before any table is built, naming the function called
    limit = matching._ORDER_LIMIT
    past = perfect_matching_graph(limit + 2)
    message = f"counts perfect matchings of at most {limit} vertices, got {limit + 2}"
    for name, call in [
        ("count_perfect_matchings", lambda: cm.count_perfect_matchings(past)),
        ("matching_profile", lambda: cm.matching_profile(past)),
        ("enumerate_perfect_matchings", lambda: list(cm.enumerate_perfect_matchings(past))),
        ("boundary_profile", lambda: cm.boundary_profile(past, cm.make_cut(past, [0]))),
    ]:
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            call()


def test_counting_at_the_kernel_limit():
    at = perfect_matching_graph(matching._ORDER_LIMIT)
    assert cm.count_perfect_matchings(at) == 1
    assert list(cm.enumerate_perfect_matchings(at)) == [tuple(range(len(at.edges)))]

import pytest

from vortexlab.modgraph import (
    CylChainDecomposition,
    GraphError,
    ModularGraph,
    canonical_form,
    contract_edge,
    cyl_chains,
    graph_from_json,
    is_stable,
    stabilize,
    total_genus,
)
from graphgen import connected_multigraphs


def G(genus, edges=(), legs=()):
    return ModularGraph(dict(genus), tuple(edges), tuple(legs))


class TestTotalGenus:
    def test_single_vertex_genus_two(self):
        assert total_genus(G({0: 2})) == 2

    def test_two_vertices_two_parallel_edges_is_genus_one(self):
        # two genus-0 components meeting in two nodes: the banana curve
        g = G({0: 0, 1: 0}, [(0, 1), (0, 1)])
        assert total_genus(g) == 1

    def test_loop_adds_one(self):
        assert total_genus(G({0: 0}, [(0, 0)])) == 1


class TestContractEdge:
    def test_nonloop_merges_and_sums_genus(self):
        g = G({0: 0, 1: 0}, [(0, 1)])
        out = contract_edge(g, 0)
        assert len(out.genus) == 1
        assert sum(out.genus.values()) == 0
        assert out.edges == ()

    def test_loop_contraction_increments_genus(self):
        g = G({0: 0}, [(0, 0)])
        out = contract_edge(g, 0)
        assert out.genus[0] == 1
        assert out.edges == ()

    def test_unknown_edge_id(self):
        with pytest.raises(GraphError):
            contract_edge(G({0: 0}), 0)

    def test_parallel_edge_becomes_loop(self):
        g = G({0: 0, 1: 0}, [(0, 1), (0, 1)])
        out = contract_edge(g, 0)
        assert out.edges == ((0, 0),)
        assert total_genus(out) == 1

    def test_legs_reattach(self):
        g = G({0: 0, 1: 1}, [(0, 1)], [(1, 1), (2, 0)])
        out = contract_edge(g, 0)
        assert sorted(idx for idx, _ in out.legs) == [1, 2]
        (v,) = out.genus
        assert all(w == v for _, w in out.legs)

    def test_total_genus_invariant_exhaustive_small(self):
        checked = 0
        for g in connected_multigraphs(max_vertices=3, max_edges=4):
            for e in range(len(g.edges)):
                assert total_genus(contract_edge(g, e)) == total_genus(g)
                checked += 1
        assert checked > 100


class TestIsStable:
    def test_three_legs_stable(self):
        assert is_stable(G({0: 0}, [], [(1, 0), (2, 0), (3, 0)]))

    def test_two_legs_unstable(self):
        assert not is_stable(G({0: 0}, [], [(1, 0), (2, 0)]))

    def test_genus_one_one_leg(self):
        assert is_stable(G({0: 1}, [], [(1, 0)]))

    def test_genus_one_bare_unstable(self):
        assert not is_stable(G({0: 1}))

    def test_loop_counts_twice(self):
        # genus 0 with a loop and one leg: 3 special points
        assert is_stable(G({0: 0}, [(0, 0)], [(1, 0)]))


class TestStabilize:
    def test_identity_on_stable(self):
        g = G({0: 0}, [], [(1, 0), (2, 0), (3, 0)])
        assert stabilize(g) == g

    def test_two_point_sphere_in_edge_contracts(self):
        # stable core 0 -- middle -- 1, middle has two special points only
        core = G({0: 1, 1: 1}, [(0, 1)], [(1, 0)])
        fat = G({0: 1, "m": 0, 1: 1}, [(0, "m"), ("m", 1)], [(1, 0)])
        assert stabilize(fat) == core

    def test_leg_chain_contracts_onto_core(self):
        g = G({0: 1, "m": 0}, [(0, "m")], [(1, "m")])
        out = stabilize(g)
        assert len(out.genus) == 1
        assert out.n_markings == 1
        assert total_genus(out) == 1

    def test_no_stable_model(self):
        with pytest.raises(GraphError):
            stabilize(G({0: 0}, [], [(1, 0), (2, 0)]))
        with pytest.raises(GraphError):
            stabilize(G({0: 0}, [(0, 0)]))  # n = 0

    def test_idempotent_on_enumerated_graphs(self):
        count = 0
        for g in connected_multigraphs(max_vertices=3, max_edges=3, max_legs=2):
            if g.n_markings < 1 or g.n_markings + 2 * total_genus(g) - 3 < 0:
                continue
            try:
                st = stabilize(g)
            except GraphError:
                continue
            assert stabilize(st) == st
            assert total_genus(st) == total_genus(g)
            assert sorted(i for i, _ in st.legs) == sorted(i for i, _ in g.legs)
            count += 1
        assert count > 50

    def test_commutes_with_relabeling(self):
        g = G({"a": 1, "b": 0, "c": 1}, [("a", "b"), ("b", "c")], [(1, "a")])
        relabeled = G({"x": 1, "y": 0, "z": 1}, [("x", "y"), ("y", "z")], [(1, "x")])
        assert stabilize(g) == stabilize(relabeled)


class TestCylChains:
    def test_stable_graph_gives_no_chains(self):
        g = G({0: 1}, [], [(1, 0)])
        dec = cyl_chains(g)
        assert isinstance(dec, CylChainDecomposition)
        assert dec.chains == ()
        assert dec.stable_core == g

    def test_single_vertex_marking_chain(self):
        g = G({0: 1, "m": 0}, [(0, "m")], [(1, "m"), (2, 0)])
        dec = cyl_chains(g)
        assert len(dec.chains) == 1
        (chain,) = dec.chains
        assert chain.kind == "marking"
        assert chain.vertices == ("m",)
        assert chain.anchor == (1,)

    def test_three_vertex_node_chain_ordering(self):
        # path a - m1 - m2 - m3 - b between stable vertices a, b
        g = G(
            {"a": 1, "b": 1, "m1": 0, "m2": 0, "m3": 0},
            [("a", "m1"), ("m1", "m2"), ("m2", "m3"), ("m3", "b")],
            [(1, "a")],
        )
        dec = cyl_chains(g)
        (chain,) = dec.chains
        assert chain.kind == "node"
        # brute-force path traversal oracle: the chain must be the unique
        # simple path through the unstable vertices, attached at both ends
        assert set(chain.vertices) == {"m1", "m2", "m3"}
        assert chain.vertices in (("m1", "m2", "m3"), ("m3", "m2", "m1"))
        first, last = chain.vertices[0], chain.vertices[-1]
        assert chain.anchor[0] in g.neighbors(first)
        assert chain.anchor[1] in g.neighbors(last)

    def test_marking_chain_orientation(self):
        # a - m1 - m2, leg on m2: alpha_1 = m1 attaches to the core
        g = G({"a": 1, "m1": 0, "m2": 0}, [("a", "m1"), ("m1", "m2")], [(1, "m2")])
        (chain,) = cyl_chains(g).chains
        assert chain.kind == "marking"
        assert chain.vertices == ("m1", "m2")

    def test_not_prestable(self):
        # genus-0 vertex with a single special point
        g = G({0: 1, "bad": 0}, [(0, "bad")], [(1, 0)])
        with pytest.raises(GraphError):
            cyl_chains(g)

    def test_contracting_chains_reproduces_stabilization(self):
        for g in connected_multigraphs(max_vertices=3, max_edges=3, max_legs=2):
            if g.n_markings < 1 or g.n_markings + 2 * total_genus(g) - 3 < 0:
                continue
            try:
                dec = cyl_chains(g)
            except GraphError:
                continue
            cur = g
            mapping = {v: v for v in g.genus}
            for chain in dec.chains:
                # contract one non-loop edge per chain vertex, tracking merges
                for v in chain.vertices:
                    cv = mapping[v]
                    for i in cur.incident_edges(cv):
                        a, b = cur.edges[i]
                        if a != b:
                            keep = a if str(a) <= str(b) else b
                            drop = b if keep == a else a
                            cur = contract_edge(cur, i)
                            mapping = {
                                k: (keep if w == drop else w) for k, w in mapping.items()
                            }
                            break
            assert cur == dec.stable_core


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        g1 = G({"a": 0, "b": 1}, [("a", "b"), ("a", "b")], [(1, "a")])
        g2 = G({5: 1, 7: 0}, [(7, 5), (5, 7)], [(1, 7)])
        assert canonical_form(g1) == canonical_form(g2)
        assert g1 == g2

    def test_distinguishes_genus_placement(self):
        g1 = G({"a": 0, "b": 1}, [("a", "b")], [(1, "a")])
        g2 = G({"a": 1, "b": 0}, [("a", "b")], [(1, "a")])
        assert g1 != g2


class TestJson:
    def test_round_trip(self):
        g = G({"a": 0, "b": 2}, [("a", "b"), ("b", "b")], [(1, "a"), (2, "b")])
        data = {
            "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 2}],
            "edges": [["a", "b"], ["b", "b"]],
            "legs": [{"index": 1, "vertex": "a"}, {"index": 2, "vertex": "b"}],
        }
        assert graph_from_json(data) == g

    def test_figure_banana_curve_literal(self):
        text = """{"vertices":[{"id":"v1","genus":0},{"id":"v2","genus":0}],
                   "edges":[["v1","v2"],["v1","v2"]],
                   "legs":[{"index":1,"vertex":"v1"}]}"""
        assert total_genus(graph_from_json(text)) == 1

    def test_malformed(self):
        with pytest.raises(GraphError):
            graph_from_json('{"vertices": [{"id": "a"}]}')


class TestInvariants:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            G({0: 0, 1: 0})

    def test_bad_marking_indices(self):
        with pytest.raises(GraphError):
            G({0: 0}, [], [(2, 0)])

    def test_negative_genus(self):
        with pytest.raises(GraphError):
            G({0: -1})

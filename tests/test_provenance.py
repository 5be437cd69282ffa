"""Fragment canonicalization and DAG handling."""

import json

import pytest
from hypothesis import given, strategies as st

from pbcap.errors import ValidationError
from pbcap.provenance import (
    ProvenanceEdge,
    ProvenanceFragment,
    ProvenanceGraph,
    ProvenanceNode,
    extract_fragments,
    parse_fragment,
    parse_graph,
    parse_graph_text,
)

token = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
fragments = st.builds(
    ProvenanceFragment,
    relation=token,
    args=st.lists(token, min_size=1, max_size=4).map(tuple),
)


class TestCanonicalize:
    def test_worked_example_keyword_shape(self):
        frag = ProvenanceFragment("RecordedBy", ("Test", "Nurse"))
        assert frag.canonical_bytes() == b"RecordedBy(Test,Nurse)"

    def test_whitespace_stripped(self):
        frag = ProvenanceFragment("DiagnosedBy", (" Report ", "Doctor"))
        assert frag.canonical_bytes() == b"DiagnosedBy(Report,Doctor)"

    def test_case_sensitive(self):
        a = ProvenanceFragment("RecordedBy", ("Test", "Nurse"))
        b = ProvenanceFragment("recordedby", ("Test", "Nurse"))
        assert a.canonical_bytes() != b.canonical_bytes()

    @given(fragments)
    def test_parse_render_round_trip(self, frag):
        assert parse_fragment(frag.canonical()).canonical_bytes() == frag.canonical_bytes()

    @given(fragments, fragments)
    def test_injective_up_to_normalization(self, a, b):
        if a.canonical_bytes() == b.canonical_bytes():
            assert a == b
        else:
            assert a != b

    def test_empty_relation_rejected(self):
        with pytest.raises(ValidationError):
            ProvenanceFragment("", ("x",))
        with pytest.raises(ValidationError):
            ProvenanceFragment("   ", ("x",))

    def test_empty_args_rejected(self):
        with pytest.raises(ValidationError):
            ProvenanceFragment("Rel", ())

    @pytest.mark.parametrize("bad", ["Rel(a", "Rel a,b)", "", "(a,b)", "Rel(a))"])
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_fragment(bad)

    @pytest.mark.parametrize("char", ["(", ")", ","])
    def test_forbidden_characters_in_tokens(self, char):
        with pytest.raises(ValidationError):
            ProvenanceFragment(f"Re{char}l", ("x",))
        with pytest.raises(ValidationError):
            ProvenanceFragment("Rel", (f"a{char}b",))


def _graph(edges, extra_nodes=()):
    ids = {e[1] for e in edges} | {e[2] for e in edges} | set(extra_nodes)
    nodes = tuple(ProvenanceNode(id=i, kind="Artifact", label=i.capitalize()) for i in sorted(ids))
    return ProvenanceGraph(
        nodes=nodes,
        edges=tuple(ProvenanceEdge(relation=r, source=s, target=t) for r, s, t in edges),
    )


class TestGraph:
    def test_empty_graph_yields_no_fragments(self):
        assert extract_fragments(ProvenanceGraph(nodes=(), edges=())) == []

    def test_single_edge_fragment(self):
        g = ProvenanceGraph(
            nodes=(
                ProvenanceNode("t", "Artifact", "Test"),
                ProvenanceNode("n", "Agent", "Nurse"),
            ),
            edges=(ProvenanceEdge("RecordedBy", "t", "n"),),
        )
        assert [f.canonical() for f in extract_fragments(g)] == ["RecordedBy(Test,Nurse)"]

    def test_duplicate_edges_deduplicated(self):
        g = _graph([("R", "a", "b"), ("R", "a", "b")])
        assert len(extract_fragments(g)) == 1

    def test_edge_order_irrelevant(self):
        edges = [("R", "a", "b"), ("S", "b", "c"), ("T", "a", "c")]
        g1 = _graph(edges)
        g2 = _graph(list(reversed(edges)))
        assert extract_fragments(g1) == extract_fragments(g2)

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            _graph([("R", "a", "b"), ("S", "b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            _graph([("R", "a", "a")])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValidationError, match="unknown node"):
            ProvenanceGraph(
                nodes=(ProvenanceNode("a", "Agent", "A"),),
                edges=(ProvenanceEdge("R", "a", "ghost"),),
            )

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ProvenanceGraph(
                nodes=(
                    ProvenanceNode("a", "Agent", "A"),
                    ProvenanceNode("a", "Artifact", "B"),
                ),
            )

    def test_bad_node_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            ProvenanceNode("a", "Widget", "A")


class TestGraphFormats:
    LINES = """\
# demo
node t Artifact Test
node n Agent Nurse
edge RecordedBy t n
"""

    def test_line_format_parses(self):
        g = parse_graph_text(self.LINES)
        assert len(g.nodes) == 2 and len(g.edges) == 1

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_graph_text("node a Artifact A\nnode broken\n")

    def test_json_mirror(self):
        g1 = parse_graph_text(self.LINES)
        doc = (
            '{"nodes": [{"id": "t", "kind": "Artifact", "label": "Test"},'
            ' {"id": "n", "kind": "Agent", "label": "Nurse"}],'
            ' "edges": [{"relation": "RecordedBy", "source": "t", "target": "n"}]}'
        )
        assert parse_graph(doc) == g1

    @pytest.mark.parametrize("doc, message", [
        ({"edges": []}, "JSON graph has no 'nodes' field"),
        ({"nodes": []}, "JSON graph has no 'edges' field"),
        ({"nodes": [], "edges": 7}, "JSON graph field 'edges' is not a list"),
        ({"nodes": {"t": {}}, "edges": []}, "JSON graph field 'nodes' is not a list"),
        ({"nodes": "t", "edges": []}, "JSON graph field 'nodes' is not a list"),
        ({"nodes": ["t"], "edges": []}, r"JSON graph nodes\[0\] is not an object"),
        ({"nodes": [], "edges": [None]}, r"JSON graph edges\[0\] is not an object"),
        ({"nodes": [{"id": "t", "kind": "Artifact"}], "edges": []},
         r"JSON graph nodes\[0\] has no 'label' field"),
        ({"nodes": [{"id": "t", "kind": "Artifact", "label": "T"}], "edges": [{"source": "t", "target": "t"}]},
         r"JSON graph edges\[0\] has no 'relation' field"),
    ], ids=["no-nodes", "no-edges", "int-edges", "object-nodes", "string-nodes",
            "string-node", "null-edge", "node-without-label", "edge-without-relation"])
    def test_json_shape_refused_by_field(self, doc, message):
        """Both keys are required lists of objects; each refusal names the field."""
        with pytest.raises(ValidationError, match=f"^{message}$"):
            parse_graph(json.dumps(doc))

    def test_sniffing(self):
        assert parse_graph(self.LINES).edges
        assert parse_graph('{"nodes": [], "edges": []}').nodes == ()

"""Fragment canonicalization and DAG handling."""

import json

import pytest
from hypothesis import given, strategies as st

from pbcap.errors import ValidationError
from pbcap.provenance import (
    extract_fragments,
    fragment,
    parse_fragment,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
)

token = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
space = st.text(alphabet=" \t", max_size=2)
# two letters, so that equal fragments are drawn often
narrow_token = st.text(alphabet="ab", min_size=1, max_size=2)
# any token a graph line can hold: no whitespace, no "#", nothing UTF-8 cannot encode
graph_token = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cc", "Z"), exclude_characters="(),#"),
    min_size=1,
    max_size=12,
)


def _padded(tokens):
    """``tokens`` with whitespace drawn around each one."""
    return st.tuples(space, tokens, space).map("".join)


def _fragments(tokens, max_args):
    """(relation, args) pairs, as ``fragment`` takes them, of padded ``tokens``."""
    return st.tuples(_padded(tokens), st.lists(_padded(tokens), min_size=1, max_size=max_args).map(tuple))


def _stripped(frag):
    relation, args = frag
    return relation.strip(), tuple(a.strip() for a in args)


class TestCanonicalize:
    def test_worked_example_keyword_shape(self):
        assert fragment("RecordedBy", ("Test", "Nurse")) == b"RecordedBy(Test,Nurse)"

    def test_whitespace_stripped(self):
        assert fragment("DiagnosedBy", (" Report ", "Doctor")) == b"DiagnosedBy(Report,Doctor)"

    def test_case_sensitive(self):
        assert fragment("RecordedBy", ("Test", "Nurse")) != fragment("recordedby", ("Test", "Nurse"))

    @given(_fragments(token, 4))
    def test_parse_render_round_trip(self, frag):
        assert parse_fragment(fragment(*frag).decode("utf-8")) == fragment(*frag)

    @given(_fragments(narrow_token, 2), _fragments(narrow_token, 2))
    def test_injective_up_to_normalization(self, a, b):
        """Two fragments have the same bytes exactly when their stripped
        tokens are equal."""
        assert (fragment(*a) == fragment(*b)) == (_stripped(a) == _stripped(b))

    def test_empty_relation_rejected(self):
        with pytest.raises(ValidationError):
            fragment("", ("x",))
        with pytest.raises(ValidationError):
            fragment("   ", ("x",))

    def test_empty_args_rejected(self):
        with pytest.raises(ValidationError):
            fragment("Rel", ())

    @pytest.mark.parametrize("bad", ["Rel(a", "Rel a,b)", "", "(a,b)", "Rel(a))"])
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_fragment(bad)

    @pytest.mark.parametrize("char", ["(", ")", ","])
    def test_forbidden_characters_in_tokens(self, char):
        with pytest.raises(ValidationError):
            fragment(f"Re{char}l", ("x",))
        with pytest.raises(ValidationError):
            fragment("Rel", (f"a{char}b",))

    def test_token_utf8_cannot_encode_rejected(self):
        """A lone surrogate, which a JSON \\ud800 escape decodes to, is refused by name."""
        with pytest.raises(ValidationError, match=r"^argument 'Te\\ud800st' is not encodable in UTF-8$"):
            parse_fragment("RecordedBy(Te\ud800st,Nurse)")
        with pytest.raises(ValidationError, match=r"^relation 'R\\udfffel' is not encodable in UTF-8$"):
            fragment("R\udfffel", ("x",))


def _graph(edges, extra_nodes=()):
    ids = {e[1] for e in edges} | {e[2] for e in edges} | set(extra_nodes)
    nodes = "".join(f"node {i} Artifact {i.capitalize()}\n" for i in sorted(ids))
    return parse_graph_text(nodes + "".join(f"edge {r} {s} {t}\n" for r, s, t in edges))


class TestGraph:
    def test_empty_graph_yields_no_fragments(self):
        assert extract_fragments(parse_graph_text("")) == []

    def test_single_edge_fragment(self):
        g = parse_graph_text("node t Artifact Test\nnode n Agent Nurse\nedge RecordedBy t n\n")
        assert extract_fragments(g) == [b"RecordedBy(Test,Nurse)"]

    def test_fragments_sorted_by_canonical_bytes(self):
        g = _graph([("S", "a", "b"), ("R", "b", "c"), ("R", "a", "c")])
        assert extract_fragments(g) == [b"R(A,C)", b"R(B,C)", b"S(A,B)"]

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
            parse_graph_text("node a Agent A\nedge R a ghost\n")

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_graph_text("node a Agent A\nnode a Artifact B\n")

    def test_bad_node_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            parse_graph_text("node a Widget A\n")

    @given(st.lists(graph_token, min_size=3, max_size=3), st.data())
    def test_both_sides_hash_the_same_bytes(self, tokens, data):
        """A one-edge graph, as lines and as JSON, yields exactly the bytes
        its keyword text parses to, whatever whitespace surrounds the tokens."""
        def pad(text):
            return data.draw(space) + text + data.draw(space)

        relation, source, target = tokens
        lines = f"node s Artifact {pad(source)}\nnode t Agent {pad(target)}\nedge {relation} s t\n"
        doc = json.dumps({
            "nodes": [{"id": "s", "kind": "Artifact", "label": pad(source)},
                      {"id": "t", "kind": "Agent", "label": pad(target)}],
            "edges": [{"relation": pad(relation), "source": "s", "target": "t"}],
        })
        keyword = parse_fragment(f"{pad(relation)}({pad(source)},{pad(target)})")
        assert keyword == f"{relation}({source},{target})".encode("utf-8")
        assert extract_fragments(parse_graph_text(lines)) == [keyword]
        assert extract_fragments(parse_graph(doc)) == [keyword]


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

    def test_json_document_that_is_not_an_object_refused(self):
        """``parse_graph`` sends only text opening with ``{`` here, so this is
        a direct call."""
        with pytest.raises(ValidationError, match="^JSON graph is not an object$"):
            parse_graph_json('[{"nodes": [], "edges": []}]')

    def test_sniffing(self):
        assert parse_graph(self.LINES).edges
        assert parse_graph('{"nodes": [], "edges": []}').nodes == ()

"""Provenance graphs and the fragments extracted from them.

A provenance graph is a DAG of Artifact / Agent / Process nodes with
typed edges.  Each typed edge yields one fragment of the form
``Relation(SourceLabel,TargetLabel)``; the canonical byte form of that
string is exactly what the keyword hash consumes, on both the tagging
side and the trapdoor side.  The grammar is deliberately rigid: tokens
are opaque, case-sensitive, stripped of surrounding whitespace, and may
not contain commas or parentheses, so there is no escaping and no
ambiguity.
"""

from __future__ import annotations

import graphlib
import json
import re
from dataclasses import dataclass, field

from .errors import ValidationError

NODE_KINDS = ("Artifact", "Agent", "Process")

_FORBIDDEN = re.compile(r"[(),]")


def _clean_token(token: str, what: str) -> str:
    token = token.strip()
    if not token:
        raise ValidationError(f"{what} must be non-empty")
    if _FORBIDDEN.search(token):
        raise ValidationError(f"{what} {token!r} contains a forbidden character ( ) or ,")
    return token


@dataclass(frozen=True, order=True)
class ProvenanceFragment:
    """A single typed relation, e.g. RecordedBy(Test,Nurse)."""

    relation: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "relation", _clean_token(self.relation, "relation"))
        if not self.args:
            raise ValidationError("fragment needs at least one argument")
        object.__setattr__(
            self, "args", tuple(_clean_token(a, "argument") for a in self.args)
        )

    def canonical(self) -> str:
        return f"{self.relation}({','.join(self.args)})"

    def canonical_bytes(self) -> bytes:
        return self.canonical().encode("utf-8")


_FRAGMENT_RE = re.compile(r"^\s*([^(),]+)\(([^()]*)\)\s*$")


def parse_fragment(text: str) -> ProvenanceFragment:
    """Parse ``Relation(arg1, arg2, ...)`` back into a fragment."""
    m = _FRAGMENT_RE.match(text)
    if not m:
        raise ValidationError(f"malformed fragment {text!r}")
    relation, arg_text = m.group(1), m.group(2)
    args = arg_text.split(",")
    return ProvenanceFragment(relation, tuple(args))


@dataclass(frozen=True)
class ProvenanceNode:
    id: str
    kind: str
    label: str

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValidationError(
                f"node kind {self.kind!r} not one of {', '.join(NODE_KINDS)}"
            )


@dataclass(frozen=True)
class ProvenanceEdge:
    relation: str
    source: str
    target: str


@dataclass(frozen=True)
class ProvenanceGraph:
    """Validated DAG; construction rejects cycles and dangling edges."""

    nodes: tuple[ProvenanceNode, ...]
    edges: tuple[ProvenanceEdge, ...] = field(default=())

    def __post_init__(self):
        by_id = {}
        for node in self.nodes:
            if node.id in by_id:
                raise ValidationError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        adjacency: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in by_id:
                    raise ValidationError(f"edge references unknown node {endpoint!r}")
            adjacency[edge.target].add(edge.source)
        try:
            tuple(graphlib.TopologicalSorter(adjacency).static_order())
        except graphlib.CycleError as exc:
            raise ValidationError(f"provenance graph contains a cycle: {exc.args[1]}") from exc
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: str) -> ProvenanceNode:
        return self._by_id[node_id]


def extract_fragments(graph: ProvenanceGraph) -> list[ProvenanceFragment]:
    """One fragment per typed edge, deduplicated, sorted by canonical form."""
    seen = {
        ProvenanceFragment(
            edge.relation,
            (graph.node(edge.source).label, graph.node(edge.target).label),
        )
        for edge in graph.edges
    }
    return sorted(seen, key=lambda f: f.canonical())


# --- graph file formats --------------------------------------------------
#
# Line format, one declaration per line ("#" starts a comment):
#   node <id> <kind> <label>
#   edge <relation> <source-id> <target-id>
# JSON mirror:
#   {"nodes": [{"id","kind","label"}], "edges": [{"relation","source","target"}]}


def parse_graph_text(text: str) -> ProvenanceGraph:
    nodes: list[ProvenanceNode] = []
    edges: list[ProvenanceEdge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3)
        try:
            if parts[0] == "node":
                if len(parts) != 4:
                    raise ValidationError("expected: node <id> <kind> <label>")
                nodes.append(ProvenanceNode(id=parts[1], kind=parts[2], label=parts[3]))
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise ValidationError("expected: edge <relation> <source> <target>")
                edges.append(ProvenanceEdge(relation=parts[1], source=parts[2], target=parts[3]))
            else:
                raise ValidationError(f"unknown declaration {parts[0]!r}")
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    return ProvenanceGraph(nodes=tuple(nodes), edges=tuple(edges))


def parse_graph_json(text: str) -> ProvenanceGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON graph: {exc}") from exc
    try:
        nodes = tuple(
            ProvenanceNode(id=n["id"], kind=n["kind"], label=n["label"])
            for n in doc["nodes"]
        )
        edges = tuple(
            ProvenanceEdge(relation=e["relation"], source=e["source"], target=e["target"])
            for e in doc.get("edges", [])
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed JSON graph: missing {exc}") from exc
    return ProvenanceGraph(nodes=nodes, edges=edges)


def parse_graph(text: str) -> ProvenanceGraph:
    """Sniff JSON vs line format and parse accordingly."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)

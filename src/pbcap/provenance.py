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
from dataclasses import dataclass, field, fields

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


def _require_strings(declaration, what: str) -> None:
    for f in fields(declaration):
        if not isinstance(getattr(declaration, f.name), str):
            raise ValidationError(f"{what} field {f.name!r} is not a string")


@dataclass(frozen=True)
class ProvenanceNode:
    """A node; its label is checked as a fragment argument, since edges use it as one."""

    id: str
    kind: str
    label: str

    def __post_init__(self):
        _require_strings(self, "node")
        if self.kind not in NODE_KINDS:
            raise ValidationError(
                f"node kind {self.kind!r} not one of {', '.join(NODE_KINDS)}"
            )
        _clean_token(self.label, "node label")


@dataclass(frozen=True)
class ProvenanceEdge:
    relation: str
    source: str
    target: str

    def __post_init__(self):
        _require_strings(self, "edge")
        _clean_token(self.relation, "relation")


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


def _json_entries(doc: dict, key: str, names: tuple[str, ...]) -> list[dict]:
    """The fields ``names`` of each entry of ``doc[key]``, which must be a
    list of objects; any other shape is refused with a message naming it."""
    if key not in doc:
        raise ValidationError(f"JSON graph has no {key!r} field")
    if type(doc[key]) is not list:
        raise ValidationError(f"JSON graph field {key!r} is not a list")
    entries = []
    for i, entry in enumerate(doc[key]):
        if type(entry) is not dict:
            raise ValidationError(f"JSON graph {key}[{i}] is not an object")
        for name in names:
            if name not in entry:
                raise ValidationError(f"JSON graph {key}[{i}] has no {name!r} field")
        entries.append({name: entry[name] for name in names})
    return entries


def parse_graph_json(text: str) -> ProvenanceGraph:
    """The JSON mirror: an object whose ``nodes`` and ``edges`` are both
    required lists of objects."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON graph: {exc}") from exc
    if type(doc) is not dict:
        raise ValidationError("JSON graph is not an object")
    nodes = tuple(ProvenanceNode(**n) for n in _json_entries(doc, "nodes", ("id", "kind", "label")))
    edges = tuple(ProvenanceEdge(**e) for e in _json_entries(doc, "edges", ("relation", "source", "target")))
    return ProvenanceGraph(nodes=nodes, edges=edges)


def parse_graph(text: str) -> ProvenanceGraph:
    """Sniff JSON vs line format and parse accordingly."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)

"""Provenance graphs and the fragments extracted from them.

A provenance graph is a DAG of Artifact / Agent / Process nodes with
typed edges.  Each typed edge yields one fragment of the form
``Relation(SourceLabel,TargetLabel)``, held as its canonical UTF-8
bytes: exactly what the keyword hash consumes, on both the tagging side
and the trapdoor side.  The grammar is deliberately rigid: tokens are
opaque, case-sensitive, stripped of surrounding whitespace, encodable in
UTF-8, and may not contain commas or parentheses, so there is no
escaping and no ambiguity.
"""

from __future__ import annotations

import graphlib
import json
import re
from dataclasses import dataclass

from .errors import ValidationError

NODE_KINDS = ("Artifact", "Agent", "Process")
_NODE_FIELDS = ("id", "kind", "label")
_EDGE_FIELDS = ("relation", "source", "target")

_FORBIDDEN = re.compile(r"[(),]")


def _clean_token(token: str, what: str) -> bytes:
    """``token`` stripped, in UTF-8; refused if empty, if it holds ( ) or ,
    or if UTF-8 cannot encode it (a lone surrogate)."""
    token = token.strip()
    if not token:
        raise ValidationError(f"{what} must be non-empty")
    if _FORBIDDEN.search(token):
        raise ValidationError(f"{what} {token!r} contains a forbidden character ( ) or ,")
    try:
        return token.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {token!r} is not encodable in UTF-8") from None


def fragment(relation: str, args) -> bytes:
    """The canonical bytes of one typed relation, e.g. b"RecordedBy(Test,Nurse)"."""
    relation = _clean_token(relation, "relation")
    if not args:
        raise ValidationError("fragment needs at least one argument")
    return b"%s(%s)" % (relation, b",".join(_clean_token(a, "argument") for a in args))


_FRAGMENT_RE = re.compile(r"^\s*([^(),]+)\(([^()]*)\)\s*$")


def parse_fragment(text: str) -> bytes:
    """Parse ``Relation(arg1, arg2, ...)`` into its canonical bytes."""
    m = _FRAGMENT_RE.match(text)
    if not m:
        raise ValidationError(f"malformed fragment {text!r}")
    return fragment(m.group(1), m.group(2).split(","))


def _strings(what: str, names: tuple[str, ...], values: tuple) -> tuple:
    """``values`` once each of them, named in turn by ``names``, is a string."""
    for name, value in zip(names, values):
        if not isinstance(value, str):
            raise ValidationError(f"{what} field {name!r} is not a string")
    return values


def _node(*declaration) -> tuple[str, str, str]:
    """An (id, kind, label) node; its label is checked as a fragment
    argument, since edges use it as one."""
    _, kind, label = _strings("node", _NODE_FIELDS, declaration)
    if kind not in NODE_KINDS:
        raise ValidationError(f"node kind {kind!r} not one of {', '.join(NODE_KINDS)}")
    _clean_token(label, "node label")
    return declaration


def _edge(*declaration) -> tuple[str, str, str]:
    """A (relation, source id, target id) edge."""
    relation, _, _ = _strings("edge", _EDGE_FIELDS, declaration)
    _clean_token(relation, "relation")
    return declaration


@dataclass(frozen=True)
class ProvenanceGraph:
    """Validated DAG; construction rejects cycles and dangling edges."""

    nodes: tuple[tuple[str, str, str], ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        adjacency: dict[str, set[str]] = {}
        for node_id, _, _ in self.nodes:
            if node_id in adjacency:
                raise ValidationError(f"duplicate node id {node_id!r}")
            adjacency[node_id] = set()
        for _, source, target in self.edges:
            for endpoint in (source, target):
                if endpoint not in adjacency:
                    raise ValidationError(f"edge references unknown node {endpoint!r}")
            adjacency[target].add(source)
        try:
            tuple(graphlib.TopologicalSorter(adjacency).static_order())
        except graphlib.CycleError as exc:
            raise ValidationError(f"provenance graph contains a cycle: {exc.args[1]}") from exc


def extract_fragments(graph: ProvenanceGraph) -> list[bytes]:
    """One fragment per typed edge, deduplicated and sorted; UTF-8 keeps
    code-point order, so byte order is the order of the text."""
    labels = {node_id: label for node_id, _, label in graph.nodes}
    return sorted({
        fragment(relation, (labels[source], labels[target]))
        for relation, source, target in graph.edges
    })


# --- graph file formats --------------------------------------------------
#
# Line format, one declaration per line ("#" starts a comment):
#   node <id> <kind> <label>
#   edge <relation> <source-id> <target-id>
# JSON mirror:
#   {"nodes": [{"id","kind","label"}], "edges": [{"relation","source","target"}]}


def parse_graph_text(text: str) -> ProvenanceGraph:
    nodes: list[tuple[str, str, str]] = []
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3)
        try:
            if parts[0] == "node":
                if len(parts) != 4:
                    raise ValidationError("expected: node <id> <kind> <label>")
                nodes.append(_node(*parts[1:]))
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise ValidationError("expected: edge <relation> <source> <target>")
                edges.append(_edge(*parts[1:]))
            else:
                raise ValidationError(f"unknown declaration {parts[0]!r}")
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    return ProvenanceGraph(nodes=tuple(nodes), edges=tuple(edges))


def _json_entries(doc: dict, key: str, names: tuple[str, ...]) -> list[tuple]:
    """The fields ``names``, in that order, of each entry of ``doc[key]``, which
    must be a list of objects; any other shape is refused with a message naming it."""
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
        entries.append(tuple(entry[name] for name in names))
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
    nodes = tuple(_node(*n) for n in _json_entries(doc, "nodes", _NODE_FIELDS))
    edges = tuple(_edge(*e) for e in _json_entries(doc, "edges", _EDGE_FIELDS))
    return ProvenanceGraph(nodes=nodes, edges=edges)


def parse_graph(text: str) -> ProvenanceGraph:
    """Sniff JSON vs line format and parse accordingly."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)

"""Rooted concept taxonomies and Wu-Palmer similarity.

One taxonomy per context dimension (location, time, social). Concepts are
identified by opaque string ids; depth counts nodes on the path from the
root to the concept inclusive, so depth(root) == 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .errors import ParseError, UnknownConcept


class Dimension(str, Enum):
    LOCATION = "location"
    TIME = "time"
    SOCIAL = "social"


DIMENSIONS = (Dimension.LOCATION, Dimension.TIME, Dimension.SOCIAL)


@dataclass
class Taxonomy:
    """Immutable rooted tree of concepts for one context dimension.

    Every concept but the root has a parent, and parent links lead to the
    root without a loop, as `taxonomy_from_dict` builds them."""

    dimension: Dimension
    root: str
    parent: dict  # concept id -> parent id (root absent)
    labels: dict  # concept id -> human label
    _depth: dict = field(default_factory=dict, repr=False)
    _children: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._children = {cid: [] for cid in self.labels}
        for cid, pid in self.parent.items():
            self._children[pid].append(cid)
        for kids in self._children.values():
            kids.sort()
        self._depth = {}
        for cid in self.labels:
            self._depth[cid] = len(self._root_path(cid))

    def _root_path(self, c: str) -> list:
        """Path from the root down to c, inclusive."""
        path = [c]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

    @property
    def nodes(self) -> Iterable[str]:
        return self.labels.keys()

    def check(self, concept_id: str) -> None:
        if concept_id not in self.labels:
            raise UnknownConcept(
                f"{concept_id!r} not in {self.dimension.value} taxonomy"
            )

    def children(self, concept_id: str) -> list:
        self.check(concept_id)
        return list(self._children[concept_id])

    def siblings(self, concept_id: str) -> list:
        self.check(concept_id)
        if concept_id == self.root:
            return []
        sibs = self.children(self.parent[concept_id])
        return [s for s in sibs if s != concept_id]

    def leaves(self) -> list:
        return sorted(c for c in self.labels if not self._children[c])


def depth(t: Taxonomy, c: str) -> int:
    """Number of nodes on the root-to-c path; depth(root) == 1."""
    t.check(c)
    return t._depth[c]


def lcs(t: Taxonomy, a: str, b: str) -> str:
    """Least common subsumer: the deepest ancestor shared by a and b."""
    t.check(a)
    t.check(b)
    ancestors = set()
    node = a
    while True:
        ancestors.add(node)
        if node == t.root:
            break
        node = t.parent[node]
    node = b
    while node not in ancestors:
        node = t.parent[node]
    return node


def wu_palmer(t: Taxonomy, a: str, b: str) -> float:
    """2 * depth(lcs) / (depth(a) + depth(b)), in (0, 1]."""
    return 2.0 * depth(t, lcs(t, a, b)) / (depth(t, a) + depth(t, b))


def _walk(node: Mapping, parent_id: Optional[str], parent: dict,
          labels: dict) -> None:
    if not isinstance(node, Mapping) or "id" not in node:
        raise ParseError(f"taxonomy node must be a mapping with an 'id': {node!r}")
    cid = node["id"]
    if not isinstance(cid, str) or not cid:
        raise ParseError(f"concept id must be a non-empty string: {cid!r}")
    if cid in labels:
        raise ParseError(f"concept {cid!r} appears under two parents")
    labels[cid] = node.get("label", cid)
    if parent_id is not None:
        parent[cid] = parent_id
    for child in node.get("children", []):
        _walk(child, cid, parent, labels)


def taxonomy_from_dict(doc: Mapping, dimension: Union[Dimension, str]) -> Taxonomy:
    """Build a Taxonomy from a nested {id, label, children} tree."""
    dimension = Dimension(dimension)
    parent: dict = {}
    labels: dict = {}
    _walk(doc, None, parent, labels)
    return Taxonomy(dimension=dimension, root=doc["id"], parent=parent,
                    labels=labels)


def taxonomy_to_dict(t: Taxonomy) -> dict:
    def build(cid: str) -> dict:
        node = {"id": cid, "label": t.labels[cid]}
        kids = t._children[cid]
        if kids:
            node["children"] = [build(k) for k in kids]
        return node

    return build(t.root)

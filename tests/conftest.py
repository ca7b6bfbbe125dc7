import numpy as np
import pytest

from situbandit.ontology import Dimension, Taxonomy, taxonomy_from_dict
from situbandit.simindex import SituationIndex
from situbandit.situation import Situation, Taxonomies


def make_taxonomy(dimension, tree):
    return taxonomy_from_dict(tree, dimension)


def chain(dimension, *ids):
    """Taxonomy that is a single root-to-leaf chain."""
    node = {"id": ids[-1]}
    for cid in reversed(ids[:-1]):
        node = {"id": cid, "children": [node]}
    return make_taxonomy(dimension, node)


@pytest.fixture
def france_tax():
    """Any -> France -> {Paris, Roubaix}, location dimension."""
    return make_taxonomy(Dimension.LOCATION, {
        "id": "Any",
        "children": [
            {"id": "France",
             "children": [{"id": "Paris"}, {"id": "Roubaix"}]},
        ],
    })


def two_level(dimension, prefix):
    """Root with two depth-2 children, each with two depth-3 leaves."""
    return make_taxonomy(dimension, {
        "id": f"{prefix}root",
        "children": [
            {"id": f"{prefix}a",
             "children": [{"id": f"{prefix}a1"}, {"id": f"{prefix}a2"}]},
            {"id": f"{prefix}b",
             "children": [{"id": f"{prefix}b1"}, {"id": f"{prefix}b2"}]},
        ],
    })


@pytest.fixture
def tiny_taxonomies():
    return Taxonomies(two_level(Dimension.LOCATION, "L"),
                      two_level(Dimension.TIME, "T"),
                      two_level(Dimension.SOCIAL, "S"))


@pytest.fixture
def tiny_index(tiny_taxonomies):
    return SituationIndex(tiny_taxonomies)


@pytest.fixture
def base_situation():
    return Situation("La1", "Ta1", "Sa1")


def random_tree(rng: np.random.Generator, n_nodes: int, dimension=Dimension.LOCATION):
    """Random rooted tree: node i attaches to a uniformly random earlier node."""
    parent = {}
    labels = {"n0": "n0"}
    for i in range(1, n_nodes):
        labels[f"n{i}"] = f"n{i}"
        parent[f"n{i}"] = f"n{int(rng.integers(i))}"
    return Taxonomy(dimension=dimension, root="n0", parent=parent,
                    labels=labels)


def brute_force_wu_palmer(t: Taxonomy, a: str, b: str) -> float:
    """Independent oracle: build both root paths explicitly and apply the
    formula to their common prefix length."""
    def path(c):
        p = [c]
        while p[-1] != t.root:
            p.append(t.parent[p[-1]])
        return list(reversed(p))

    pa, pb = path(a), path(b)
    common = 0
    for x, y in zip(pa, pb):
        if x != y:
            break
        common += 1
    return 2.0 * common / (len(pa) + len(pb))

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit.errors import MultiRootError, ParseError, UnknownConcept
from situbandit.ontology import (Dimension, depth, lcs, taxonomy_from_dict,
                                 taxonomy_to_dict, wu_palmer)
from situbandit.simindex import concept_similarity_matrix

from conftest import brute_force_wu_palmer, chain, random_tree


def test_single_node_taxonomy():
    t = taxonomy_from_dict({"id": "Any"}, Dimension.LOCATION)
    assert t.root == "Any"
    assert depth(t, "Any") == 1


def test_chain_depths():
    t = chain(Dimension.LOCATION, "Any", "France", "Paris")
    assert depth(t, "Any") == 1
    assert depth(t, "France") == 2
    assert depth(t, "Paris") == 3


def test_node_under_two_parents_rejected():
    doc = {"id": "Any", "children": [
        {"id": "France", "children": [{"id": "Paris"}]},
        {"id": "Belgium", "children": [{"id": "Paris"}]},
    ]}
    with pytest.raises(MultiRootError):
        taxonomy_from_dict(doc, Dimension.LOCATION)


def test_malformed_document():
    with pytest.raises(ParseError):
        taxonomy_from_dict({"nodes": ["not-a-mapping"]}, Dimension.TIME)
    with pytest.raises(ParseError):
        taxonomy_from_dict({"label": "no id here"}, Dimension.TIME)


@pytest.mark.parametrize("doc", [
    {"id": ""},
    {"id": 3},
    {"id": "Any", "children": [{"id": None}]},
    {"id": "Any", "children": [{"id": "France", "children": [{"id": ""}]}]},
])
def test_concept_id_must_be_a_nonempty_string(doc):
    with pytest.raises(ParseError, match="non-empty string"):
        taxonomy_from_dict(doc, Dimension.LOCATION)


def test_taxonomy_json_roundtrip(france_tax):
    text = json.dumps(taxonomy_to_dict(france_tax))
    loaded = taxonomy_from_dict(json.loads(text), Dimension.LOCATION)
    assert loaded.root == france_tax.root
    assert loaded.parent == france_tax.parent
    assert loaded.labels == france_tax.labels


def test_depth_unknown_concept(france_tax):
    with pytest.raises(UnknownConcept):
        depth(france_tax, "Tokyo")


def test_lcs_identity_and_root(france_tax):
    assert lcs(france_tax, "Paris", "Paris") == "Paris"
    for node in france_tax.nodes:
        assert lcs(france_tax, "Any", node) == "Any"


def test_lcs_siblings(france_tax):
    assert lcs(france_tax, "Paris", "Roubaix") == "France"


def test_wu_palmer_identity(france_tax):
    for node in france_tax.nodes:
        assert wu_palmer(france_tax, node, node) == 1.0


def test_wu_palmer_chain():
    t = chain(Dimension.LOCATION, "Any", "A", "B")
    assert wu_palmer(t, "A", "B") == pytest.approx(0.8)


def test_wu_palmer_siblings(france_tax):
    # siblings at depth 3 under France: lcs depth 2
    assert wu_palmer(france_tax, "Paris", "Roubaix") == pytest.approx(
        2 * 2 / (3 + 3))
    # siblings at depth 2 under the root score 0.5
    t = taxonomy_from_dict(
        {"id": "r", "children": [{"id": "x"}, {"id": "y"}]},
        Dimension.LOCATION)
    assert wu_palmer(t, "x", "y") == pytest.approx(0.5)


def test_wu_palmer_unknown(france_tax):
    with pytest.raises(UnknownConcept):
        wu_palmer(france_tax, "Paris", "Tokyo")


class TestProperties:
    def test_symmetry_range_identity_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = random_tree(rng, int(rng.integers(2, 31)))
            nodes = sorted(t.nodes)
            for a in nodes:
                for b in nodes:
                    s = wu_palmer(t, a, b)
                    assert s == wu_palmer(t, b, a)
                    assert 0.0 < s <= 1.0
                    assert (s == 1.0) == (a == b)
                    assert s == pytest.approx(
                        brute_force_wu_palmer(t, a, b), abs=1e-12)

    def test_ancestor_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_tree(rng, 20)
            nodes = sorted(t.nodes)
            for a in nodes:
                for b in nodes:
                    # move b one edge deeper, away from lcs(a, b)
                    for child in t.children(b):
                        if lcs(t, a, child) == lcs(t, a, b):
                            assert wu_palmer(t, a, child) < wu_palmer(t, a, b)


@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.randoms())
def test_concept_matrix_equals_wu_palmer(n_nodes, seed, shuffle):
    t = random_tree(np.random.default_rng(seed), n_nodes)
    order = sorted(t.nodes)
    shuffle.shuffle(order)
    mat = concept_similarity_matrix(t, order)
    assert mat.shape == (n_nodes, n_nodes)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            assert mat[i, j] == wu_palmer(t, a, b)

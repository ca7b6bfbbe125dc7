import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit.errors import ConfigError, UnknownConcept
from situbandit.ontology import Dimension
from situbandit.situation import (DimensionWeights, Situation, Taxonomies,
                                  is_exact_match)

from conftest import chain, two_level
from oracles import (sim_per_dimension, unweighted_similarity,
                     weighted_similarity)


def fixed_weights(alpha):
    """Weights whose alpha is exactly `alpha`: one observation of it."""
    return DimensionWeights(sums=tuple(alpha), count=1)


@pytest.fixture
def taxonomies():
    # location is a chain so that a parent/child pair scores exactly 0.8
    return Taxonomies(chain(Dimension.LOCATION, "Any", "A", "B"),
                      two_level(Dimension.TIME, "T"),
                      two_level(Dimension.SOCIAL, "S"))


def test_taxonomy_in_the_wrong_slot_is_refused():
    with pytest.raises(ConfigError, match="slot time has dimension social"):
        Taxonomies(two_level(Dimension.LOCATION, "L"),
                   two_level(Dimension.SOCIAL, "S"),
                   two_level(Dimension.SOCIAL, "S"))


def test_identical_situations(taxonomies):
    s = Situation("B", "Ta1", "Sb2")
    assert sim_per_dimension(s, s, taxonomies) == (1.0, 1.0, 1.0)
    assert unweighted_similarity(s, s, taxonomies) == pytest.approx(3.0)


def test_roots_triple(taxonomies):
    s = Situation("Any", "Troot", "Sroot")
    assert sim_per_dimension(s, s, taxonomies) == (1.0, 1.0, 1.0)


def test_sibling_locations(tiny_taxonomies):
    # locations are depth-2 siblings (La vs Lb under the root): 0.5
    s1 = Situation("La", "Ta1", "Sa1")
    s2 = Situation("Lb", "Ta1", "Sa1")
    assert sim_per_dimension(s1, s2, tiny_taxonomies) == \
        pytest.approx((0.5, 1.0, 1.0))


def test_unknown_concept_propagates(taxonomies):
    with pytest.raises(UnknownConcept):
        sim_per_dimension(Situation("Nope", "Ta1", "Sa1"),
                          Situation("A", "Ta1", "Sa1"), taxonomies)


def test_weighted_similarity_examples(taxonomies):
    s1 = Situation("A", "Ta1", "Sa1")
    s2 = Situation("B", "Ta1", "Sa1")  # per-dim sims (0.8, 1, 1)
    assert weighted_similarity(
        s1, s1, fixed_weights((1, 1, 1)), taxonomies) == \
        pytest.approx(3.0)
    assert weighted_similarity(
        s1, s2, fixed_weights((0, 0, 0)), taxonomies) == 0.0
    assert weighted_similarity(
        s1, s2, fixed_weights((0.5, 0.5, 0.5)), taxonomies) == \
        pytest.approx(1.4)


def test_unweighted_similarity_examples(taxonomies):
    s1 = Situation("A", "Ta1", "Sa1")
    s2 = Situation("B", "Ta1", "Sa1")
    assert unweighted_similarity(s1, s2, taxonomies) == pytest.approx(2.8)
    # a (0.5, 0.5, 0.5) pair sums to 1.5, below the default gate B = 2.4
    s3 = Situation("Any", "Troot", "Sroot")
    s4 = Situation("B", "Ta1", "Sa1")
    sims = sim_per_dimension(s3, s4, taxonomies)
    assert sum(sims) < 2.4


def test_exact_match_tolerance():
    assert is_exact_match(3.0)
    assert is_exact_match(3.0 - 1e-12)
    assert not is_exact_match(2.9)


def test_record_gamma_single_observation():
    w = DimensionWeights()
    assert w.alpha == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    w.record((1.0, 1.0, 1.0))
    assert w.alpha == pytest.approx((1.0, 1.0, 1.0))


def test_record_gamma_running_mean():
    w = DimensionWeights()
    w.record((0.8, 0.9, 1.0))
    assert w.alpha == pytest.approx((0.8, 0.9, 1.0))
    w.record((1.0, 0.5, 0.5))
    assert w.alpha[0] == pytest.approx(0.9)
    w.record((0.5, 0.5, 0.5))
    # dimension 0 saw {0.8, 1.0, 0.5}
    assert w.alpha[0] == pytest.approx((0.8 + 1.0 + 0.5) / 3)


def test_record_gamma_pair_mean():
    w = DimensionWeights()
    w.record((1.0, 1.0, 1.0))
    w.record((0.5, 1.0, 1.0))
    assert w.alpha[0] == pytest.approx(0.75)


def test_alpha_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    w = DimensionWeights()
    for _ in range(200):
        w.record(tuple(rng.uniform(0, 1, 3)))
        assert all(0.0 <= a <= 1.0 for a in w.alpha)


def test_self_similarity_equals_alpha_sum(tiny_taxonomies):
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha = tuple(rng.uniform(0, 1, 3))
        w = fixed_weights(alpha)
        s = Situation("La2", "Tb1", "Sa2")
        assert weighted_similarity(s, s, w, tiny_taxonomies) == \
            pytest.approx(sum(alpha))


def test_unweighted_three_iff_equal(tiny_taxonomies):
    locs = ["La1", "La2", "Lb1"]
    sits = [Situation(l, "Ta1", "Sa1") for l in locs]
    for s1 in sits:
        for s2 in sits:
            sim = unweighted_similarity(s1, s2, tiny_taxonomies)
            assert (abs(sim - 3.0) < 1e-12) == (s1 == s2)


def test_argmax_invariance_under_alpha_scaling(tiny_taxonomies):
    query = Situation("La1", "Ta1", "Sa1")
    pool = [Situation("La2", "Ta1", "Sa1"),
            Situation("Lb1", "Tb1", "Sa1"),
            Situation("La1", "Ta2", "Sb1")]
    base = fixed_weights((0.2, 0.5, 0.9))
    scaled = fixed_weights((0.4, 1.0, 1.8))

    def argmax(w):
        sims = [weighted_similarity(query, p, w, tiny_taxonomies)
                for p in pool]
        return sims.index(max(sims))

    assert argmax(base) == argmax(scaled)


gamma = st.floats(min_value=0.0, max_value=1.0)
observations = st.lists(st.tuples(gamma, gamma, gamma), max_size=60)


def mean_by_loop(values):
    """Left-to-right float sum divided by the count. An explicit loop,
    because the built-in sum switched to compensated summation in 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


@given(observations)
def test_alpha_is_exact_running_mean(obs):
    w = DimensionWeights()
    for sims in obs:
        w.record(sims)
    if not obs:
        assert w.alpha == (1 / 3, 1 / 3, 1 / 3)
    else:
        assert w.alpha == tuple(mean_by_loop([o[j] for o in obs])
                                for j in range(3))
    snap = w.to_snapshot()
    assert snap == {"sums": list(w.sums), "count": len(obs)}
    assert len(snap["sums"]) == 3  # no per-trial state


# Wu-Palmer similarities are > 0, and a snapshot whose sums are not is
# refused on load.
positive_observations = st.lists(
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0, exclude_min=True)] * 3),
    max_size=60)


@given(positive_observations, st.data())
def test_snapshot_resume_matches_uninterrupted(obs, data):
    k = data.draw(st.integers(0, len(obs)))
    straight = DimensionWeights()
    for sims in obs:
        straight.record(sims)
    first = DimensionWeights()
    for sims in obs[:k]:
        first.record(sims)
    resumed = DimensionWeights.from_snapshot(
        json.loads(json.dumps(first.to_snapshot())))
    for sims in obs[k:]:
        resumed.record(sims)
    assert resumed.alpha == straight.alpha
    assert json.dumps(resumed.to_snapshot()) == \
        json.dumps(straight.to_snapshot())

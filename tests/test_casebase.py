import itertools

import pytest
from hypothesis import given, strategies as st

from situbandit.casebase import CaseBase, DocumentStats, UserPreferences
from situbandit.errors import ParseError
from situbandit.ontology import Dimension
from situbandit.simindex import SituationIndex
from situbandit.situation import Situation, Taxonomies, sim_per_dimension

from conftest import two_level


def prefs(**clicks):
    return UserPreferences({d: DocumentStats(d, clicks=c, impressions=c)
                            for d, c in clicks.items()})


def test_document_stats_merge_semantics():
    a = DocumentStats("d1", clicks=2, impressions=5, reading_time=1.5,
                      rating=3)
    a.merge(DocumentStats("d1", clicks=3, impressions=4, reading_time=0.5,
                          rating=5))
    assert (a.clicks, a.impressions, a.reading_time) == (5, 9, 2.0)
    assert a.rating == 5  # newest rating wins, counters add


def test_preferences_merge_disjoint_and_overlap():
    p = prefs(d1=2)
    p.merge(prefs(d1=3, d2=1))
    assert p.docs["d1"].clicks == 5
    assert p.docs["d2"].clicks == 1
    assert len(p) == 2 and bool(p)
    assert not UserPreferences()


def test_retrieve_empty_returns_none(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    assert cb.retrieve(Situation("La1", "Ta1", "Sa1")) is None


def test_retrieve_exact_copy(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, prefs(d1=1))
    got = cb.retrieve(Situation("La1", "Ta1", "Sa1"))
    assert got.case_index == 0
    assert got.per_dim_sims == (1.0, 1.0, 1.0)
    assert got.unweighted_sim == pytest.approx(3.0)


def test_update_merges_on_exact_match(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, prefs(d1=2))
    cb.update_preferences(base_situation, prefs(d1=3))
    assert len(cb) == 1
    assert cb.cases[0].prefs.docs["d1"].clicks == 5


def test_update_inserts_on_inexact_match(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, prefs(d1=1))
    near = Situation("La2", "Ta1", "Sa1")  # sibling location, sim < 3
    cb.update_preferences(near, prefs(d2=1))
    assert len(cb) == 2
    assert cb.cases[0].prefs.docs["d1"].clicks == 1
    assert "d1" not in cb.cases[1].prefs.docs


def test_feedback_is_copied_on_insert(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    fb = prefs(d1=1)
    cb.update_preferences(base_situation, fb)
    fb.docs["d1"].clicks = 99
    assert cb.cases[0].prefs.docs["d1"].clicks == 1


@pytest.fixture
def corner_cb(tiny_taxonomies):
    """Six cases, three in the 'a' corner and three in the 'b' corner of
    each taxonomy."""
    cb = CaseBase(tiny_taxonomies)
    sits = [
        Situation("La1", "Ta1", "Sa1"),
        Situation("La2", "Ta1", "Sa1"),
        Situation("La1", "Ta2", "Sa2"),
        Situation("Lb1", "Tb1", "Sb1"),
        Situation("Lb2", "Tb1", "Sb1"),
        Situation("Lb1", "Tb2", "Sb2"),
    ]
    for i, s in enumerate(sits):
        cb.update_preferences(s, prefs(**{f"d{i}": 1}))
    return cb


def test_retrieval_picks_right_corner(corner_cb):
    got = corner_cb.retrieve(Situation("La2", "Ta2", "Sa1"))
    assert got.case_index in (0, 1, 2)
    got = corner_cb.retrieve(Situation("Lb2", "Tb2", "Sb1"))
    assert got.case_index in (3, 4, 5)


def test_tie_breaks_to_lowest_case_index(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    # each is one sibling step from the query in another dimension, so
    # both score exactly alike under uniform weights
    cb.update_preferences(Situation("La1", "Ta2", "Sa1"), prefs(d1=1))
    cb.update_preferences(Situation("La2", "Ta1", "Sa1"), prefs(d2=1))
    assert cb.retrieve(Situation("La1", "Ta1", "Sa1")).case_index == 0


def test_retrieval_is_deterministic(corner_cb):
    q = Situation("La2", "Tb1", "Sa2")
    first = corner_cb.retrieve(q).case_index
    for _ in range(5):
        assert corner_cb.retrieve(q).case_index == first


def test_hlcs_membership(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    assert not cb.is_hlcs(base_situation)
    cb.mark_hlcs(base_situation)
    cb.mark_hlcs(base_situation)  # idempotent
    assert cb.is_hlcs(base_situation)
    assert cb.is_hlcs(Situation("La1", "Ta1", "Sa1"))  # value equality
    assert len(cb.hlcs) == 1


def test_snapshot_roundtrip(corner_cb, tmp_path, tiny_taxonomies):
    corner_cb.mark_hlcs(Situation("La1", "Ta1", "Sa1"))
    corner_cb.weights.record((0.5, 1.0, 0.25))
    path = tmp_path / "cases.json"
    corner_cb.save(path)
    back = CaseBase.load(path, tiny_taxonomies)
    assert len(back) == len(corner_cb)
    assert back.case_of == corner_cb.case_of
    assert back.hlcs == corner_cb.hlcs
    assert back.weights.alpha == corner_cb.weights.alpha
    for mine, theirs in zip(corner_cb.cases, back.cases):
        assert mine.situation == theirs.situation
        assert {d: s.clicks for d, s in mine.prefs.docs.items()} == \
            {d: s.clicks for d, s in theirs.prefs.docs.items()}
    # and the reloaded base retrieves identically
    q = Situation("Lb2", "Ta1", "Sb1")
    assert back.retrieve(q).case_index == corner_cb.retrieve(q).case_index


def test_snapshot_listing_a_situation_twice_is_refused(corner_cb,
                                                      tiny_taxonomies):
    doc = corner_cb.to_snapshot()
    doc["cases"].append(doc["cases"][2])
    with pytest.raises(ParseError):
        CaseBase.from_snapshot(doc, tiny_taxonomies)


@pytest.mark.parametrize("labels, medoids", [
    ([0, 0, 0, 1, 1, 2], [0, 3]),     # a label without a medoid
    ([0, 0, 0, 1, 1, -1], [0, 3]),    # a negative label
    ([0, 0, 0, 1, 1, 1], [0, 6]),     # a medoid past the last case
    ([0, 0, 0, 1, 1, 1], [0, -1]),    # a negative medoid
    ([0, 0, 0, 1, 1, 1], [0, 1]),     # a medoid outside its own cluster
    ([0, 0, 0, 1, 1, 1], [0, 3]),     # a well-formed partition
])
def test_legacy_partition_keys_are_ignored_on_load(corner_cb,
                                                   tiny_taxonomies, labels,
                                                   medoids):
    # snapshots written while the case base kept a partition carry it as
    # `cluster_of` and `medoids`; whatever they hold, the cases load
    doc = corner_cb.to_snapshot()
    doc.update(cluster_of=labels, medoids=medoids)
    back = CaseBase.from_snapshot(doc, tiny_taxonomies)
    assert back.to_snapshot() == corner_cb.to_snapshot()


TAXONOMIES = Taxonomies(two_level(Dimension.LOCATION, "L"),
                        two_level(Dimension.TIME, "T"),
                        two_level(Dimension.SOCIAL, "S"))
INDEX = SituationIndex(TAXONOMIES)
SITUATIONS = [Situation(*c) for c in itertools.product(
    *(sorted(t.nodes) for t in TAXONOMIES.as_tuple()))]
# leaf triples alone score equal far more often, so ties occur often
LEAF_SITUATIONS = [Situation(*c) for c in itertools.product(
    *(t.leaves() for t in TAXONOMIES.as_tuple()))]
# The engine records only per-dimension Wu-Palmer similarities, all > 0.
# Retrieval's exact-hit answer relies on every alpha being > 0.
GAMMAS = sorted({float(v) for m in INDEX.matrices for v in m.ravel()})


def oracle_nearest(query, cases, weights):
    """Index of the first case with the highest scalar weighted similarity.
    The sum runs left to right, as numpy's does: the built-in sum switched
    to compensated summation in 3.12."""
    best, best_score = None, None
    for i, case in enumerate(cases):
        score = 0.0
        for a, sim in zip(weights.alpha,
                          sim_per_dimension(query, case.situation,
                                            TAXONOMIES)):
            score += a * sim
        if best is None or score > best_score:
            best, best_score = i, score
    return best


index_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["retrieve", "update"]),
              st.sampled_from(LEAF_SITUATIONS) | st.sampled_from(SITUATIONS)),
    st.tuples(st.just("record"),
              st.tuples(*[st.sampled_from(GAMMAS)] * 3))),
    min_size=20, max_size=80)


@given(index_ops)
def test_case_index_matches_scalar_oracle(ops):
    cb = CaseBase(TAXONOMIES, index=INDEX)
    for kind, arg in ops:
        if kind == "record":
            cb.weights.record(arg)
        elif kind == "retrieve":
            got = cb.retrieve(arg)
            want = oracle_nearest(arg, cb.cases, cb.weights)
            if want is None:
                assert got is None
            else:
                assert got.case_index == want
                assert got.case is cb.cases[want]
                assert got.per_dim_sims == sim_per_dimension(
                    arg, cb.cases[want].situation, TAXONOMIES)
        else:
            cb.update_preferences(arg, prefs(d1=1))
        assert cb.case_of == {c.situation: i
                              for i, c in enumerate(cb.cases)}
        assert len({c.situation for c in cb.cases}) == len(cb.cases)
        assert cb.encoded.size == len(cb.cases)

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit.casebase import (CaseBase, DocumentStats, RetrievalResult,
                                 UserPreferences)
from situbandit.errors import ParseError, UnknownConcept
from situbandit.ontology import Dimension
from situbandit.simdata import balanced_taxonomy
from situbandit.simindex import EncodedSituations, SituationIndex
from situbandit.situation import Situation, Taxonomies

from conftest import two_level
from oracles import sim_per_dimension, weighted_to_many_reference


def prefs(**clicks):
    return UserPreferences({d: DocumentStats(clicks=c, impressions=c)
                            for d, c in clicks.items()})


def test_document_stats_merge_semantics():
    p = UserPreferences({"d1": DocumentStats(clicks=2, impressions=5)})
    p.merge(UserPreferences({"d1": DocumentStats(clicks=3, impressions=4)}))
    a = p.docs["d1"]
    assert (a.clicks, a.impressions) == (5, 9)


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
    # the caller's later edits to its map stay out of the case
    fb.merge(prefs(d1=2))
    fb.docs["d2"] = DocumentStats(3, 3)
    assert cb.cases[0].prefs.docs == {"d1": DocumentStats(1, 1)}
    # and the counts the case shares with it cannot change in place
    with pytest.raises(AttributeError):
        fb.docs["d1"].clicks = 99


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


def test_snapshot_roundtrip(corner_cb, tiny_taxonomies):
    corner_cb.weights.record((0.5, 1.0, 0.25))
    text = json.dumps(corner_cb.to_snapshot())
    back = CaseBase.from_snapshot(json.loads(text), tiny_taxonomies)
    assert len(back) == len(corner_cb)
    assert back.case_of == corner_cb.case_of
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


DROP = object()

#: Edits that make a snapshot malformed: the path to an entry and its new
#: value, or DROP to delete it.
MALFORMED = {
    "doc-id-twice": (("cases", 0, "docs"), [
        {"doc_id": "d0", "clicks": 0, "impressions": 1},
        {"doc_id": "d0", "clicks": 9, "impressions": 9}]),
    "negative-clicks": (("cases", 0, "docs", 0, "clicks"), -5),
    "string-clicks": (("cases", 0, "docs", 0, "clicks"), "3"),
    "float-clicks": (("cases", 0, "docs", 0, "clicks"), 1.0),
    "bool-clicks": (("cases", 0, "docs", 0, "clicks"), True),
    "null-impressions": (("cases", 0, "docs", 0, "impressions"), None),
    "int-doc-id": (("cases", 0, "docs", 0, "doc_id"), 7),
    "doc-not-a-mapping": (("cases", 0, "docs", 0), "d0"),
    "docs-not-a-list": (("cases", 0, "docs"), {"d0": 1}),
    "two-element-situation": (("cases", 0, "situation"), ["La1", "Ta1"]),
    "unhashable-concept": (("cases", 0, "situation"), ["La1", "Ta1", ["Sa1"]]),
    "situation-not-a-list": (("cases", 0, "situation"), "La1"),
    "case-not-a-mapping": (("cases", 0), ["La1", "Ta1", "Sa1"]),
    "cases-not-a-list": (("cases",), {}),
    "no-clicks": (("cases", 0, "docs", 0, "clicks"), DROP),
    "no-impressions": (("cases", 0, "docs", 0, "impressions"), DROP),
    "no-doc-id": (("cases", 0, "docs", 0, "doc_id"), DROP),
    "no-docs": (("cases", 0, "docs"), DROP),
    "no-situation": (("cases", 0, "situation"), DROP),
    "no-cases": (("cases",), DROP),
    "no-weights": (("weights",), DROP),
    "no-weights-count": (("weights", "count"), DROP),
    "weights-not-a-mapping": (("weights",), [0.5, 1.0, 0.25]),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_snapshot_is_refused(corner_cb, tiny_taxonomies, name):
    corner_cb.weights.record((0.5, 1.0, 0.25))
    doc = corner_cb.to_snapshot()
    (*parents, last), value = MALFORMED[name]
    entry = doc
    for key in parents:
        entry = entry[key]
    if value is DROP:
        del entry[last]
    else:
        entry[last] = value
    with pytest.raises(ParseError):
        CaseBase.from_snapshot(doc, tiny_taxonomies)


@pytest.mark.parametrize("path", [("cases", 1, "situation")])
def test_snapshot_with_unknown_concept_is_refused(corner_cb, tiny_taxonomies,
                                                  path):
    doc = corner_cb.to_snapshot()
    entry = doc
    for key in path:
        entry = entry[key]
    entry[2] = "Sx"
    with pytest.raises(UnknownConcept):
        CaseBase.from_snapshot(doc, tiny_taxonomies)


#: A snapshot in an earlier format, whose docs also carry `reading_time`
#: and `rating`, next to the former `hlcs` list of critical situations.
READING_TIME_SNAPSHOT = """{"cases": [
 {"docs": [{"clicks": 2, "doc_id": "d1", "impressions": 3, "rating": 3,
            "reading_time": 5.25},
           {"clicks": 0, "doc_id": "d2", "impressions": 1, "rating": 0,
            "reading_time": 0.0}],
  "situation": ["La1", "Ta1", "Sa1"]},
 {"docs": [{"clicks": 1, "doc_id": "d3", "impressions": 0, "rating": 5,
            "reading_time": 2.25}],
  "situation": ["Lb1", "Tb2", "Sb2"]}],
 "hlcs": [["La1", "Ta1", "Sa1"]],
 "weights": {"count": 1, "sums": [0.5, 1.0, 0.25]}}"""


def test_snapshot_with_reading_time_and_rating_loads(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    first = Situation("La1", "Ta1", "Sa1")
    cb.update_preferences(first, UserPreferences({
        "d1": DocumentStats(1, 1), "d2": DocumentStats(0, 1)}))
    cb.update_preferences(Situation("Lb1", "Tb2", "Sb2"), UserPreferences(
        {"d3": DocumentStats(1, 0)}))
    cb.update_preferences(first, UserPreferences(
        {"d1": DocumentStats(1, 2)}))
    cb.weights.record((0.5, 1.0, 0.25))
    back = CaseBase.from_snapshot(json.loads(READING_TIME_SNAPSHOT),
                                  tiny_taxonomies)
    assert back.to_snapshot() == cb.to_snapshot()
    assert back.case_of == cb.case_of
    for mine, theirs in zip(cb.cases, back.cases):
        assert mine.prefs.docs == theirs.prefs.docs


@pytest.mark.parametrize("weights", [
    # a zero alpha: the exact hit (La1,Ta1,Sa1) would no longer be the
    # weighted scan's argmax, which is (La2,Ta1,Sa1)
    {"sums": [0, 1, 1], "count": 1},
    {"sums": [float("nan"), 1, 1], "count": 1},
    {"sums": [1, float("inf"), 1], "count": 1},
    {"sums": [1, 1, -0.5], "count": 2},
    {"sums": [1, 1, 1], "count": -1},
    {"sums": [1, 1, 1], "count": 1.0},
    {"sums": [1, 1], "count": 1},
    {"sums": [1, 1, 1, 1], "count": 1},
    {"sums": ["1", 1, 1], "count": 1},
    {"sums": [float("nan"), 0, 0], "count": 0},
])
def test_snapshot_with_bad_weights_is_refused(tiny_taxonomies, weights):
    cb = CaseBase(tiny_taxonomies)
    for s in (Situation("La2", "Ta1", "Sa1"), Situation("La1", "Ta1", "Sa1")):
        cb.update_preferences(s, prefs(d1=1))
    doc = cb.to_snapshot()
    doc["weights"] = weights
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


def test_case_base_grows_past_its_initial_arrays():
    # 274 distinct situations: the encoded arrays double from 64 columns
    # to 128, 256 and 512. The other 69 are not stored, so retrieving them
    # scans every row.
    absent = SITUATIONS[::5]
    stored = [s for s in SITUATIONS if s not in absent]
    cb = CaseBase(TAXONOMIES, index=INDEX)
    cb.weights.record((0.5, 1.0, 0.25))
    for s in stored:
        cb.update_preferences(s, prefs(d1=1))
    assert [c.situation for c in cb.cases] == stored
    assert [cb.encoded.row(i) for i in range(len(cb))] == \
        [INDEX.encode(s) for s in stored]
    for query in absent:
        got = cb.retrieve(query)
        assert got.case_index == oracle_nearest(query, cb.cases, cb.weights)


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


# Three vocabulary sizes (40, 21 and 31 concepts), so a dimension read
# from the wrong matrix or code array shows.
WIDE_INDEX = SituationIndex(Taxonomies(
    balanced_taxonomy(Dimension.LOCATION, 4, 3),
    balanced_taxonomy(Dimension.TIME, 3, 4),
    balanced_taxonomy(Dimension.SOCIAL, 5, 2)))
wide_codes = st.tuples(*(st.integers(0, len(m) - 1)
                         for m in WIDE_INDEX.matrices))
positive_alpha = st.tuples(*[st.floats(min_value=1e-6, max_value=1e6)] * 3)


@given(st.lists(wide_codes, min_size=1, max_size=200), wide_codes,
       positive_alpha, st.data())
def test_scan_equals_gather_then_scale(cases, query, alpha, data):
    enc = EncodedSituations()
    for c in cases:
        enc.append(c)
    got = WIDE_INDEX.weighted_to_many(query, enc.loc, enc.tim, enc.soc,
                                      alpha)
    want = weighted_to_many_reference(WIDE_INDEX, query, enc.loc, enc.tim,
                                      enc.soc, alpha)
    assert np.array_equal(got, want)
    i = data.draw(st.integers(0, len(cases) - 1))
    row = enc.row(i)
    assert row == cases[i] and all(type(x) is int for x in row)
    sims = WIDE_INDEX.per_dim_sims(query, row)
    assert all(type(x) is float for x in sims)
    assert sims == tuple(float(m[a, b])
                         for m, a, b in zip(WIDE_INDEX.matrices, query, row))


def test_unweighted_sim_adds_left_to_right():
    # math.fsum rounds the exact sum once, and `sum` compensates its
    # rounding from Python 3.12 on; the threshold test must see the plain
    # left-to-right sum on every version.
    a, b, c = 0.1, 0.2, 0.3
    assert math.fsum((a, b, c)) != (a + b) + c
    res = RetrievalResult(0, None, (a, b, c))
    assert res.unweighted_sim == (a + b) + c

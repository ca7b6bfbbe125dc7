import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from situbandit.bandit import BanditConfig
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.errors import (ConfigError, ExhaustedPool, LabelMismatch,
                               UnknownDoc, UnknownPolicy)
from situbandit.ontology import Dimension
from situbandit.simdata import (OraclePolicy, RandomPolicy, WorldConfig,
                                balanced_taxonomy, build_policy,
                                clustering_precision, export_diary,
                                generate_world, load_world, replay_evaluate,
                                save_world)
from situbandit.situation import Situation

from oracles import unweighted_similarity


SMALL = WorldConfig(groups=4, situations_per_group=10, docs=30,
                    preferred_docs_per_group=3,
                    occurrences_per_situation=20, max_prototype_sim=2.2)


SMALL_WORLD = generate_world(SMALL, seed=1)


@pytest.fixture(scope="module")
def world():
    return SMALL_WORLD


def test_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(groups=0)
    with pytest.raises(ConfigError):
        WorldConfig(taxonomy_depth=1)
    with pytest.raises(ConfigError):
        WorldConfig(groups=5, preferred_docs_per_group=10, docs=40)


def test_balanced_taxonomy_shape():
    t = balanced_taxonomy(Dimension.LOCATION, depth=3, branching=2)
    assert t.root == "L"
    assert t.labels["L"] == "Anywhere"
    assert len(t.nodes) == 1 + 2 + 4
    assert len(t.leaves()) == 4


def test_world_shapes(world):
    cfg = world.config
    assert len(world.situations) == cfg.groups * cfg.situations_per_group
    assert len(world.doc_ids) == cfg.docs
    assert world.affinity.shape == (cfg.groups, cfg.docs)
    assert len(set(world.situations)) == len(world.situations)
    assert sorted(world.doc_ids) == world.doc_ids
    # disjoint preferred sets
    all_pref = [d for p in world.preferred for d in p]
    assert len(set(all_pref)) == len(all_pref)


def test_affinity_bands(world):
    cfg = world.config
    for g, mine in enumerate(world.preferred):
        assert all(cfg.high_affinity[0] <= world.affinity[g, d]
                   <= cfg.high_affinity[1] for d in mine)
        for other in range(cfg.groups):
            if other == g:
                continue
            # foreign groups dislike these documents below background
            assert all(world.affinity[other, d] < cfg.background_affinity[0]
                       for d in mine)


def test_groups_are_semantically_coherent(world):
    # a member sits closer to its own prototype than to other prototypes
    protos = [world.situations[g * world.config.situations_per_group]
              for g in range(world.config.groups)]
    tx = world.taxonomies
    hits = 0
    for i, s in enumerate(world.situations):
        sims = [unweighted_similarity(s, p, tx) for p in protos]
        hits += int(np.argmax(sims)) == int(world.group_of[i])
    assert hits / len(world.situations) >= 0.9


def test_group_lookup_and_errors(world):
    assert world.group_of_situation(world.situations[0]) == 0
    with pytest.raises(LabelMismatch):
        world.group_of_situation(Situation("L", "T", "S"))
    source = world.feedback_source(np.random.default_rng(0))
    with pytest.raises(UnknownDoc):
        source(world.situations[0], [world.doc_ids[0], "nope"])


def test_generation_is_deterministic():
    a = generate_world(SMALL, seed=5)
    b = generate_world(SMALL, seed=5)
    assert a.situations == b.situations
    assert np.array_equal(a.affinity, b.affinity)
    c = generate_world(SMALL, seed=6)
    assert a.situations != c.situations


def test_feedback_source_semantics(world):
    rng = np.random.default_rng(0)
    source = world.feedback_source(rng)
    s = world.situations[0]
    slate = world.doc_ids[:5]
    fb, slate_clicks = source(s, slate)
    for d in slate:
        assert fb.docs[d].impressions == 1
    for d, c in slate_clicks.items():
        assert d in slate and c == 1 and fb.docs[d].clicks == 1
    organic = [d for d in fb.docs if d not in slate]
    for d in organic:
        assert fb.docs[d].impressions == 0 and fb.docs[d].clicks == 1


def oracle_feedback_source(world, rng):
    """The scalar feedback closure, one RNG call per draw: the reference
    whose draws `SyntheticWorld.feedback_source` must reproduce. The
    unused doubles were reading times, `rng.uniform(0.5, 5.0)`."""
    cfg = world.config
    n_docs = len(world.doc_ids)

    def source(s, slate):
        group = world.group_of_situation(s)
        row = world.affinity[group]
        docs = {}
        slate_clicks = {}
        for doc_id in slate:
            p = row[world._doc_idx[doc_id]]
            click = int(rng.random() < p)
            rng.uniform(0.5, 5.0)  # drawn, with or without a click; unused
            docs[doc_id] = DocumentStats(doc_id, clicks=click, impressions=1)
            if click:
                slate_clicks[doc_id] = click
        for _ in range(cfg.organic_browse):
            if rng.random() < cfg.organic_good_bias:
                di = world.preferred[group][
                    int(rng.integers(len(world.preferred[group])))]
            else:
                di = int(rng.integers(n_docs))
            doc_id = world.doc_ids[di]
            if doc_id in docs:
                continue
            if rng.random() < row[di]:
                rng.uniform(0.5, 5.0)  # drawn after a click; unused
                docs[doc_id] = DocumentStats(doc_id, clicks=1, impressions=0)
        return UserPreferences(docs), slate_clicks

    return source


SMALL_DOCS = SMALL_WORLD.doc_ids
slates = st.one_of(
    st.just([]),
    st.sampled_from(SMALL_DOCS).map(lambda d: [d]),
    st.just(SMALL_DOCS),
    st.permutations(SMALL_DOCS),
    st.lists(st.sampled_from(SMALL_DOCS), unique=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, len(SMALL_WORLD.situations) - 1),
                          slates),
                min_size=1, max_size=20))
def test_feedback_matches_scalar_oracle(world, browse, bias, seed, calls):
    world = dataclasses.replace(world, config=dataclasses.replace(
        world.config, organic_browse=browse, organic_good_bias=bias))
    rng_want = np.random.default_rng(seed)
    rng_got = np.random.default_rng(seed)
    want_source = oracle_feedback_source(world, rng_want)
    got_source = world.feedback_source(rng_got)
    for si, slate in calls:
        s = world.situations[si]
        want, want_clicks = want_source(s, slate)
        got, got_clicks = got_source(s, slate)
        assert list(got.docs) == list(want.docs)
        for d, w in want.docs.items():
            g = got.docs[d]
            assert (g.doc_id, g.clicks, g.impressions) == \
                (w.doc_id, w.clicks, w.impressions)
        assert got_clicks == want_clicks
        # also pins the unused doubles: a call that skips one ends elsewhere
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_replay_basic_accounting(world):
    report = replay_evaluate(RandomPolicy(world.doc_ids, slate_size=5),
                             world, iterations=200, report_period=50, seed=3)
    assert [it for it, _, _ in report.series] == [50, 100, 150, 200]
    assert report.total_displays == 200 * 5
    assert report.final_avctr == report.series[-1][1]
    assert sum(report.branch_counts.values()) == 200
    assert len(report.trials) == 200
    # recount from the trial log matches exactly
    clicks = sum(sum(t.clicks.values()) for t in report.trials)
    displays = sum(len(t.shown) for t in report.trials)
    assert clicks / displays == report.final_avctr


def test_replay_is_deterministic(world):
    def run():
        return replay_evaluate(
            build_policy("clustering-eps-greedy", world,
                         BanditConfig(slate_size=5, seed=2)),
            world, iterations=150, report_period=50, seed=4)

    a, b = run(), run()
    assert a.total_clicks == b.total_clicks
    assert [t.shown for t in a.trials] == [t.shown for t in b.trials]


def test_replay_guards(world):
    pol = RandomPolicy(world.doc_ids)
    with pytest.raises(ConfigError):
        replay_evaluate(pol, world, iterations=10, report_period=50)
    budget = int(world.occurrences.sum())
    with pytest.raises(ExhaustedPool):
        replay_evaluate(pol, world, iterations=budget + 1, report_period=1)


def test_oracle_beats_random(world):
    rand = replay_evaluate(RandomPolicy(world.doc_ids, slate_size=5),
                           world, iterations=300, report_period=100, seed=0)
    oracle = replay_evaluate(OraclePolicy(world, slate_size=5),
                             world, iterations=300, report_period=100, seed=0)
    assert oracle.final_avctr > 3 * rand.final_avctr


def test_report_tsv(world, tmp_path):
    report = replay_evaluate(RandomPolicy(world.doc_ids), world,
                             iterations=100, report_period=50, seed=1)
    out = tmp_path / "report.tsv"
    report.to_tsv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("iteration\tavg_ctr\t")
    assert len(lines) == 3
    it, avctr = lines[-1].split("\t")[:2]
    assert int(it) == 100
    assert float(avctr) == pytest.approx(report.final_avctr, abs=1e-6)


def test_build_policy_names(world):
    for name in ("clustering-eps-greedy", "eps-greedy", "random", "oracle"):
        pol = build_policy(name, world, seed=7)
        assert len(pol.recommend(world.situations[0]).slate) == 10
    for name in ("ucb", "context-eps-greedy"):
        with pytest.raises(UnknownPolicy):
            build_policy(name, world)


def test_clustering_precision_cases():
    assert clustering_precision([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert clustering_precision([0, 0, 0, 0], [0, 0, 1, 1]) == \
        pytest.approx(2 / 6)
    assert clustering_precision([0, 1, 2, 3], [0, 0, 1, 1]) == 1.0  # no pairs
    # label names do not matter, only the grouping
    assert clustering_precision([5, 5, 9, 9], [1, 1, 0, 0]) == 1.0
    with pytest.raises(LabelMismatch):
        clustering_precision([0, 1], [0, 1, 2])


def test_world_roundtrip(world, tmp_path):
    path = tmp_path / "world.json"
    save_world(world, path)
    back = load_world(path)
    assert back.situations == world.situations
    assert back.doc_ids == world.doc_ids
    assert np.array_equal(back.group_of, world.group_of)
    assert np.allclose(back.affinity, world.affinity)
    assert back.config == world.config
    # byte-identical re-save
    save_world(back, tmp_path / "world2.json")
    assert (tmp_path / "world2.json").read_bytes() == path.read_bytes()


def test_export_diary(world, tmp_path):
    sit_path = tmp_path / "situations.tsv"
    nav_path = tmp_path / "navigation.tsv"
    export_diary(world, sit_path, nav_path)
    sit_lines = sit_path.read_text().splitlines()
    assert sit_lines[0] == "IDS\tTime\tPlace\tSocial"
    assert len(sit_lines) == 1 + len(world.situations)
    nav_lines = nav_path.read_text().splitlines()
    assert nav_lines[0] == "IdDoc\tIDS\tClick\tTime\tInterest"
    assert len(nav_lines) == 1 + len(world.situations) * \
        world.config.nav_entries_per_situation
    doc, ids, click, minutes, stars = nav_lines[1].split("\t")
    assert doc in world.doc_ids
    assert 1 <= int(ids) <= len(world.situations)
    assert 0 <= int(click) <= 3
    assert 0 <= int(stars) <= 5
    float(minutes)

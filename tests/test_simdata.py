import dataclasses
import hashlib
import json

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
    for bad in ({"preferred_docs_per_group": 0}, {"organic_browse": -1},
                {"groups": "3"}, {"situations_per_group": 30.0},
                {"situations_per_group": True},
                {"organic_good_bias": "high"}, {"high_affinity": (0.5,)},
                {"foreign_affinity": [0.001, 0.01]},
                # negative counts, probabilities outside [0, 1], and
                # affinity ranges that are not 0 <= lo <= hi <= 1
                {"occurrences_per_situation": -1},
                {"nav_entries_per_situation": -1},
                {"organic_good_bias": 1.5}, {"parent_perturb_prob": -0.2},
                {"second_perturb_prob": 1.1},
                {"high_affinity": (0.9, 0.5)}, {"high_affinity": (0.5, 1.7)},
                {"background_affinity": (-0.01, 0.05)}):
        with pytest.raises(ConfigError):
            WorldConfig(**bad)
    # a mapping from a config file or world.json: lists stand for pairs,
    # and a key that is not a field is refused
    assert WorldConfig.from_dict({"high_affinity": [0.6, 0.8]}) == \
        WorldConfig(high_affinity=(0.6, 0.8))
    for bad in ({"colour": "red"}, ["groups"]):
        with pytest.raises(ConfigError):
            WorldConfig.from_dict(bad)


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
    fb = source(s, slate)
    for d in slate:
        assert fb.docs[d].impressions == 1 and fb.docs[d].clicks in (0, 1)
    organic = [d for d in fb.docs if d not in slate]
    for d in organic:
        assert fb.docs[d].impressions == 0 and fb.docs[d].clicks == 1


def oracle_feedback_source(world, rng):
    """The feedback closure with the visit rules in plain Python: it draws
    the same four arrays with the same calls, then reads them one slate
    document and one visit at a time."""
    cfg = world.config
    b = cfg.organic_browse
    n_docs = len(world.doc_ids)

    def source(s, slate):
        group = world.group_of_situation(s)
        row = world.affinity[group]
        mine = world.preferred[group]
        u_slate = rng.random(len(slate))
        good = rng.random(b) < cfg.organic_good_bias
        picks = rng.integers(np.where(good, len(mine), n_docs))
        u_visit = rng.random(b)
        docs = {}
        for doc_id, u in zip(slate, u_slate):
            click = int(u < row[world._doc_idx[doc_id]])
            docs[doc_id] = DocumentStats(doc_id, clicks=click, impressions=1)
        for v in range(b):
            di = mine[int(picks[v])] if good[v] else int(picks[v])
            doc_id = world.doc_ids[di]
            # every visit has its click test; one for a document already
            # in the feedback is drawn but changes nothing
            if doc_id not in docs and u_visit[v] < row[di]:
                docs[doc_id] = DocumentStats(doc_id, clicks=1, impressions=0)
        return UserPreferences(docs)

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
        want = want_source(s, slate)
        got = got_source(s, slate)
        assert list(got.docs) == list(want.docs)
        for d, w in want.docs.items():
            g = got.docs[d]
            assert (g.doc_id, g.clicks, g.impressions) == \
                (w.doc_id, w.clicks, w.impressions)
        # also pins the draw count: a call that skips a draw ends elsewhere
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


# The replay streams these runs produce: SHA-256 of the (situation, slate,
# clicks, branch) stream and the final average CTR.
GOLDEN_STREAMS = {
    "clustering-eps-greedy": (
        "58c8b525090e28779dacad4fc9ac5f1f6e5eb9b90467f52e4428d9b51d09b0c3",
        0.2115),
    "eps-greedy": (
        "b7c33ad4eaea000d1f2c04ec101ae921335459cabebc2ab1802fe43b1d418192",
        0.172375),
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_STREAMS))
def test_golden_stream(world, policy):
    """Pins every draw of a whole replay: feedback, slate selection and the
    situation order. A change meant to keep the streams bit-identical must
    pass it unchanged; a change that moves them on purpose updates both
    constants and says so in CHANGES.md."""
    report = replay_evaluate(build_policy(policy, world, seed=3), world,
                             iterations=800, report_period=100, seed=4)
    digest = hashlib.sha256()
    for t in report.trials:
        digest.update(json.dumps([t.situation.as_tuple(), t.shown,
                                  sorted(t.clicks.items()),
                                  t.branch.value]).encode() + b"\n")
    assert (digest.hexdigest(), report.final_avctr) == GOLDEN_STREAMS[policy]


def test_replay_guards(world):
    pol = RandomPolicy(world.doc_ids)
    with pytest.raises(ConfigError):
        replay_evaluate(pol, world, iterations=10, report_period=50)
    with pytest.raises(ConfigError):
        replay_evaluate(pol, world, iterations=10, report_period=0)
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

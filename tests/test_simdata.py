import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from situbandit.bandit import BanditConfig
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.errors import (ConfigError, ExhaustedPool, LabelMismatch,
                               UnknownDoc, UnknownPolicy)
from situbandit.ontology import Dimension
from situbandit.simdata import (OraclePolicy, RandomPolicy, WorldConfig,
                                _check_separation, balanced_taxonomy,
                                build_policy, clustering_precision,
                                export_diary, generate_world, load_world,
                                replay_evaluate, save_world)
from situbandit.situation import Situation

from oracles import separation_means, unweighted_similarity


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
                {"organic_good_bias": 1.5},
                {"high_affinity": (0.9, 0.5)}, {"high_affinity": (0.5, 1.7)},
                {"background_affinity": (-0.01, 0.05)}):
        with pytest.raises(ConfigError):
            WorldConfig(**bad)
    # a mapping from a config file or world.json: lists stand for pairs,
    # and a key that is not a field is refused, the retired perturbation
    # knobs included
    assert WorldConfig.from_dict({"high_affinity": [0.6, 0.8]}) == \
        WorldConfig(high_affinity=(0.6, 0.8))
    for bad in ({"colour": "red"}, ["groups"], {"parent_perturb_prob": 0.3},
                {"second_perturb_prob": 0.0}):
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
    rng = np.random.default_rng(0)
    source = world.feedback_source(rng)
    before = rng.bit_generator.state
    # both are refused before anything is drawn
    with pytest.raises(UnknownDoc):
        source(world.situations[0], [world.doc_ids[0], "nope"])
    assert rng.bit_generator.state == before
    with pytest.raises(LabelMismatch):
        source(Situation("L", "T", "S"), [world.doc_ids[0]])
    assert rng.bit_generator.state == before


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(2, 3),
       st.integers(2, 3), st.floats(1.0, 3.0), st.integers(0, 2**16))
def test_world_is_distinct_or_refused(groups, per_group, depth, branching,
                                      max_sim, seed):
    cfg = WorldConfig(groups=groups, situations_per_group=per_group,
                      docs=groups, preferred_docs_per_group=1,
                      taxonomy_depth=depth, branching=branching,
                      max_prototype_sim=max_sim)
    try:
        world = generate_world(cfg, seed)
    except ConfigError:
        return
    assert len(set(world.situations)) == len(world.situations) == \
        groups * per_group
    assert world.group_of.tolist() == \
        [g for g in range(groups) for _ in range(per_group)]
    roots = tuple(t.root for t in world.taxonomies.as_tuple())
    assert not any(c in roots for s in world.situations
                   for c in s.as_tuple())


def test_world_larger_than_its_taxonomies_is_refused():
    # depth 2, branching 2: 2 x 2 x 2 = 8 triples without a root concept
    cfg = WorldConfig(groups=1, situations_per_group=9, docs=10,
                      taxonomy_depth=2, branching=2)
    with pytest.raises(ConfigError):
        generate_world(cfg, seed=0)
    cfg = dataclasses.replace(cfg, situations_per_group=8)
    assert len(set(generate_world(cfg, seed=0).situations)) == 8


GROWING_SHAPE = WorldConfig(groups=100, situations_per_group=40, docs=2000,
                            taxonomy_depth=5, branching=4,
                            occurrences_per_situation=5)


def test_generation_memory_is_not_quadratic():
    # 4000 situations: an n x n similarity matrix alone is 128 MB
    tracemalloc.start()
    try:
        generate_world(GROWING_SHAPE, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_separation_check_matches_pairwise_means():
    for cfg, seed in ((SMALL, 1), (SMALL, 5), (WorldConfig(
            groups=10, situations_per_group=30, docs=400,
            occurrences_per_situation=40), 1)):
        world = generate_world(cfg, seed)
        intra, inter = separation_means(world)
        assert intra > inter
        # the same situations with interleaved labels are not separable
        mixed = dataclasses.replace(
            world, group_of=np.arange(len(world.situations)) % cfg.groups)
        intra, inter = separation_means(mixed)
        assert intra <= inter
        with pytest.raises(ConfigError, match=f"similarity {intra:.3f} <= "
                           f"inter-group {inter:.3f}"):
            _check_separation(mixed)


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
    the slate's click tests, the preferred-set tests, the picks and the
    visits' click tests in four separate calls, then reads them one slate
    document and one visit at a time. The closure merges the first two
    into one draw; the oracle keeps them apart because it is the reference
    that merged draw must equal, in values and in the RNG state after."""
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
            docs[doc_id] = DocumentStats(clicks=click, impressions=1)
        for v in range(b):
            di = mine[int(picks[v])] if good[v] else int(picks[v])
            doc_id = world.doc_ids[di]
            # every visit has its click test; one for a document already
            # in the feedback is drawn but changes nothing
            if doc_id not in docs and u_visit[v] < row[di]:
                docs[doc_id] = DocumentStats(clicks=1, impressions=0)
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
            assert (g.clicks, g.impressions) == (w.clicks, w.impressions)
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
        "fd236672e4e167a86d29a50949d057c33bfd7f5b90d8ccfe22d9605973d0c540",
        0.230875),
    "eps-greedy": (
        "e820e8692dfc5f54ddd815e13ca1b91ce423b685cd900039eacbd6723abe61b9",
        0.17275),
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

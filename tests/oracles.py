"""Scalar reference implementations that tests compare the package to.

The package scores situations only through `SituationIndex`; these
functions compute the same Wu-Palmer similarities one pair at a time, and
`weighted_to_many_reference` is its scan as first written, gathering the
similarities before scaling them.
The package picks slates only from a map's maintained CTR ranking;
`oracle_greedy_top_n` and `oracle_epsilon_greedy` re-score and re-sort
every candidate instead. `oracle_feedback_source` is the replay's feedback
closure with the visit rules in plain Python.
The package checks a world's group separation from per-group concept
counts; `separation_means` averages the full n x n similarity matrix.
`casebase_state` lists everything a case base holds, so tests can check
that an operation left it as it was.
The replay keeps no trial log: `TrialLog` records each trial at the policy
boundary, and `reference_replay` composes the slow references above into
the trial stream a whole replay must produce.
"""

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from situbandit.bandit import BanditConfig, Branch
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.ontology import wu_palmer
from situbandit.situation import DimensionWeights, Situation, Taxonomies


def sim_per_dimension(s1: Situation, s2: Situation,
                      taxonomies: Taxonomies) -> Tuple[float, float, float]:
    """Per-dimension Wu-Palmer similarities (location, time, social)."""
    return tuple(
        wu_palmer(tax, a, b)
        for tax, a, b in zip(taxonomies.as_tuple(), s1.as_tuple(), s2.as_tuple())
    )


def weighted_similarity(s1: Situation, s2: Situation, w: DimensionWeights,
                        taxonomies: Taxonomies) -> float:
    """Sum of alpha_j * sim_j over the three dimensions."""
    sims = sim_per_dimension(s1, s2, taxonomies)
    return sum(a * s for a, s in zip(w.alpha, sims))


def unweighted_similarity(s1: Situation, s2: Situation,
                          taxonomies: Taxonomies) -> float:
    """Plain sum of per-dimension similarities, in (0, 3]."""
    return sum(sim_per_dimension(s1, s2, taxonomies))


def weighted_to_many_reference(index, query, loc, tim, soc,
                               alpha) -> np.ndarray:
    """`SituationIndex.weighted_to_many` gathering each dimension's
    similarities first, then scaling and adding them."""
    m0, m1, m2 = index.matrices
    return (alpha[0] * m0[query[0], loc] + alpha[1] * m1[query[1], tim]
            + alpha[2] * m2[query[2], soc])


def oracle_ctr(ds) -> float:
    """Click-through rate of one `DocumentStats`, clicks capped at
    impressions; 0 for a document never shown."""
    if ds.impressions <= 0:
        return 0.0
    return min(ds.clicks, ds.impressions) / ds.impressions


def oracle_greedy_top_n(candidates, n: int) -> List[str]:
    """Top-n documents of a `UserPreferences` by CTR, ties broken by lowest
    doc id."""
    return sorted(candidates.docs,
                  key=lambda d: (-oracle_ctr(candidates.docs[d]), d))[:n]


def separation_means(world) -> Tuple[float, float]:
    """Mean unweighted similarity over ordered pairs of distinct situations
    in one group of a `SyntheticWorld`, and over pairs in two groups."""
    enc = np.array([world.index.encode(s) for s in world.situations]).T
    sim = world.index.pairwise_weighted(enc[0], enc[1], enc[2],
                                        (1.0, 1.0, 1.0))
    same = world.group_of[:, None] == world.group_of[None, :]
    off_diag = ~np.eye(len(world.situations), dtype=bool)
    return float(sim[same & off_diag].mean()), float(sim[~same].mean())


def casebase_state(cb) -> tuple:
    """A `CaseBase`'s contents as plain values: each case's situation and
    per-document (clicks, impressions), the weights' sums and count, and
    the encoded situation arrays."""
    cases = [(c.situation, {d: (s.clicks, s.impressions)
                            for d, s in c.prefs.docs.items()})
             for c in cb.cases]
    enc = cb.encoded
    encoded = [a.tolist() for a in (enc.loc, enc.tim, enc.soc)]
    return cases, cb.weights.sums, cb.weights.count, encoded


def oracle_epsilon_greedy(candidates, n, epsilon, rng):
    """`bandit.epsilon_greedy` re-scoring and re-sorting every candidate on
    each call, reading nothing but `docs`."""
    remaining = oracle_greedy_top_n(candidates, len(candidates.docs))
    slate = []
    for _ in range(min(n, len(remaining))):
        q = rng.random()
        if q > epsilon:
            pick = 0
        else:
            pick = int(rng.integers(len(remaining)))
        slate.append(remaining.pop(pick))
    return slate


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


class Trial(NamedTuple):
    """One replay trial as the policy boundary sees it; `clicks` holds the
    clicked slate documents with their click counts."""

    situation: Situation
    shown: List[str]
    clicks: Dict[str, int]
    branch: Branch


def slate_clicks(slate: List[str], feedback) -> Dict[str, int]:
    """The documents of `slate` clicked in `feedback`, with their clicks."""
    docs = feedback.docs
    return {d: docs[d].clicks for d in slate if docs[d].clicks}


class TrialLog:
    """Policy proxy that records every trial a replay runs through it."""

    def __init__(self, policy):
        self.policy = policy
        self.trials: List[Trial] = []

    def recommend(self, situation):
        return self.policy.recommend(situation)

    def observe(self, situation, rec, feedback):
        self.trials.append(Trial(situation, rec.slate,
                                 slate_clicks(rec.slate, feedback),
                                 rec.branch))
        self.policy.observe(situation, rec, feedback)


def _mean(values: List[float]) -> float:
    """The mean of `values`, added left to right from 0.0 (not `sum`,
    which compensates rounding from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _merge(prefs: UserPreferences, feedback: UserPreferences) -> None:
    for d, add in feedback.docs.items():
        clicks, impressions = prefs.docs.get(d, (0, 0))
        prefs.docs[d] = DocumentStats(clicks + add.clicks,
                                      impressions + add.impressions)


def reference_replay(world, policy_name: str, bandit_cfg: BanditConfig,
                     iterations: int, seed: int):
    """The trials that `replay_evaluate(build_policy(policy_name, world,
    bandit_cfg), world, iterations, seed=seed)` must run, and the final
    `bit_generator.state` of the policy's and of the replay's generator.

    Built from the references alone, slowly and obviously: a brute-force
    scan of every case by scalar Wu-Palmer similarity, the lowest index
    among ties, with no exact-hit lookup; alpha as the mean of every
    recorded gamma, recomputed each trial; the B test on a left-to-right
    sum; the slate and feedback oracles; and numpy's own `choice` and
    `integers` for every draw. `policy_name` is one of the learning
    policies, "clustering-eps-greedy" or "eps-greedy".
    """
    cfg = bandit_cfg
    doc_pool = sorted(world.doc_ids)
    policy_rng = np.random.default_rng(cfg.seed)
    rng = np.random.default_rng(seed)
    order = np.array([i for i, n in enumerate(world.occurrences.tolist())
                      for _ in range(n)], dtype=np.int64)
    rng.shuffle(order)
    feedback_source = oracle_feedback_source(world, rng)
    cases: List[Tuple[Situation, UserPreferences]] = []
    pooled = UserPreferences()  # the context-free policy's one map
    gammas: List[Tuple[float, float, float]] = []
    trials: List[Trial] = []
    for i in range(iterations):
        situation = world.situations[int(order[i])]
        best = None  # (weighted similarity, per-dimension sims, prefs)
        if policy_name == "eps-greedy":
            prefs = pooled
            cold = not prefs.docs
        else:
            alpha = (tuple(_mean([g[j] for g in gammas]) for j in range(3))
                     if gammas else (1.0 / 3, 1.0 / 3, 1.0 / 3))
            for stored, stored_prefs in cases:
                sims = sim_per_dimension(situation, stored, world.taxonomies)
                score = (alpha[0] * sims[0] + alpha[1] * sims[1]
                         + alpha[2] * sims[2])
                if best is None or score > best[0]:
                    best = (score, sims, stored_prefs)
            prefs = best[2] if best else None
            cold = (best is None
                    or best[1][0] + best[1][1] + best[1][2] < cfg.threshold_b
                    or not prefs.docs)
        if cold:
            picks = policy_rng.choice(
                len(doc_pool), size=min(cfg.slate_size, len(doc_pool)),
                replace=False)
            slate = [doc_pool[k] for k in picks]
            branch = Branch.COLD_START
        else:
            slate = oracle_epsilon_greedy(prefs, cfg.slate_size, cfg.epsilon,
                                          policy_rng)
            branch = Branch.EPS_GREEDY
        feedback = feedback_source(situation, slate)
        trials.append(Trial(situation, slate,
                            slate_clicks(slate, feedback), branch))
        if policy_name == "eps-greedy":
            _merge(pooled, feedback)
            continue
        stored = [p for s, p in cases if s == situation]
        if stored:
            _merge(stored[0], feedback)
        else:
            cases.append((situation, UserPreferences(dict(feedback.docs))))
        if best is not None:
            gammas.append(best[1])
    return trials, policy_rng.bit_generator.state, rng.bit_generator.state

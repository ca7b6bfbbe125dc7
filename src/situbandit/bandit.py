"""Document-selection policies and the main recommendation engine.

The engine runs one trial per incoming situation: retrieve the nearest
case, pick a slate (greedy in high-level critical situations, epsilon-
greedy otherwise, uniform-random fallback below the similarity threshold),
absorb the click feedback and refresh the dimension weights. The engine
does not cluster situations; k-medoid clustering is the separate
precision experiment of `situbandit cluster-eval`. A context-free variant
keeps one global preference pool and ignores situations entirely; it is
the comparison baseline for the engine.

Slate selection reads the CTR ranking each preference map keeps current
(`UserPreferences.ranking`), so a pick never re-scores or re-sorts the
candidates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .casebase import CaseBase, RetrievalResult, UserPreferences
# perfbench patches `bandit.cluster_situations` by name
from .clustering import ClusteringConfig, cluster_situations  # noqa: F401
from .errors import EmptyCandidates
from .simindex import SituationIndex
from .situation import Situation, Taxonomies


@dataclass
class BanditConfig:
    epsilon: float = 0.1
    slate_size: int = 10
    threshold_b: float = 2.4
    seed: int = 0
    cold_start_fallback: bool = True

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.slate_size < 1:
            raise ValueError("slate_size must be >= 1")
        if not 0.0 <= self.threshold_b <= 3.0:
            raise ValueError(f"threshold_b must be in [0, 3], got "
                             f"{self.threshold_b}")


class Branch(str, Enum):
    HLCS_GREEDY = "hlcs-greedy"
    EPS_GREEDY = "eps-greedy"
    COLD_START = "cold-start"
    NO_RECOMMEND = "no-recommend"


@dataclass
class TrialRecord:
    situation: Situation
    shown: List[str]
    clicks: Dict[str, int]
    branch: Branch


@dataclass
class Recommendation:
    slate: List[str]
    branch: Branch
    retrieval: Optional[RetrievalResult]


#: Feedback for a shown slate: (preferences to absorb, clicks per slate doc).
FeedbackSource = Callable[[Situation, List[str]],
                          Tuple[UserPreferences, Dict[str, int]]]


def random_slate(pool: Sequence[str], n: int,
                 rng: np.random.Generator) -> List[str]:
    """Up to n distinct documents drawn uniformly from `pool`."""
    picks = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
    return [pool[i] for i in picks]


def greedy_top_n(candidates: UserPreferences, n: int) -> List[str]:
    """Top-n documents by CTR, ties broken by lowest doc id."""
    _, keys = candidates.ranking()
    return [d for _, d in keys[:n]]


def epsilon_greedy(candidates: UserPreferences, n: int, epsilon: float,
                   rng: np.random.Generator) -> List[str]:
    """Slate of up to n distinct documents: each pick exploits the argmax-CTR
    document (lowest doc id among ties) with probability 1 - epsilon,
    otherwise explores uniformly among the documents not yet selected.

    Both kinds of pick read the map's maintained ranking, so a pick costs
    O(n log m) for a slate of n from m candidates instead of O(m).
    """
    if not candidates:
        raise EmptyCandidates("epsilon_greedy needs a non-empty candidate set")
    ids, keys = candidates.ranking()
    slate: List[str] = []
    taken = set()
    top = 0  # every key before `top` is taken
    for picked in range(min(n, len(ids))):
        if rng.random() > epsilon:
            while keys[top][1] in taken:
                top += 1
            pick = keys[top][1]
        else:
            # the k-th untaken id: shift k past every taken position <= it
            pos = int(rng.integers(len(ids) - picked))
            for p in sorted(bisect_left(ids, d) for d in slate):
                if p > pos:
                    break
                pos += 1
            pick = ids[pos]
        taken.add(pick)
        slate.append(pick)
    return slate


class RecommendationEngine:
    """Situation-aware engine: case retrieval + epsilon-greedy selection."""

    def __init__(self, taxonomies: Taxonomies, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None,
                 hlcs: Sequence[Situation] = (),
                 index: Optional[SituationIndex] = None):
        self.config = config if config is not None else BanditConfig()
        # read by perfbench, which clusters the final case base with it
        self.clustering_cfg = ClusteringConfig()
        self.casebase = CaseBase(taxonomies, hlcs=hlcs, index=index)
        self.doc_pool = sorted(doc_pool)
        self.rng = np.random.default_rng(self.config.seed)
        self.tt = 0

    def recommend(self, situation: Situation) -> Recommendation:
        cb = self.casebase
        retrieval = cb.retrieve(situation)
        gate_ok = (retrieval is not None
                   and retrieval.unweighted_sim >= self.config.threshold_b
                   and retrieval.case.prefs)
        if not gate_ok:
            if self.config.cold_start_fallback:
                return Recommendation(
                    random_slate(self.doc_pool, self.config.slate_size,
                                 self.rng),
                    Branch.COLD_START, retrieval)
            return Recommendation([], Branch.NO_RECOMMEND, retrieval)
        if cb.is_hlcs(retrieval.case.situation):
            slate = greedy_top_n(retrieval.case.prefs, self.config.slate_size)
            cb.mark_hlcs(situation)
            return Recommendation(slate, Branch.HLCS_GREEDY, retrieval)
        slate = epsilon_greedy(retrieval.case.prefs, self.config.slate_size,
                               self.config.epsilon, self.rng)
        return Recommendation(slate, Branch.EPS_GREEDY, retrieval)

    def observe(self, situation: Situation, rec: Recommendation,
                feedback: UserPreferences) -> None:
        cb = self.casebase
        cb.update_preferences(situation, feedback)
        if rec.retrieval is not None:
            cb.weights.record(rec.retrieval.per_dim_sims)
        self.tt += 1


class GlobalEpsilonGreedy:
    """Context-free baseline: one global preference pool, no situations."""

    def __init__(self, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None):
        self.config = config if config is not None else BanditConfig()
        self.doc_pool = sorted(doc_pool)
        self.prefs = UserPreferences()
        self.rng = np.random.default_rng(self.config.seed)

    def recommend(self, situation: Situation) -> Recommendation:
        if not self.prefs:
            return Recommendation(
                random_slate(self.doc_pool, self.config.slate_size, self.rng),
                Branch.COLD_START, None)
        slate = epsilon_greedy(self.prefs, self.config.slate_size,
                               self.config.epsilon, self.rng)
        return Recommendation(slate, Branch.EPS_GREEDY, None)

    def observe(self, situation: Situation, rec: Recommendation,
                feedback: UserPreferences) -> None:
        self.prefs.merge(feedback)


def step(policy, situation: Situation,
         feedback_source: FeedbackSource) -> TrialRecord:
    """One trial: ask `policy` for a slate, collect its feedback and let
    the policy absorb it."""
    rec = policy.recommend(situation)
    feedback, slate_clicks = feedback_source(situation, rec.slate)
    policy.observe(situation, rec, feedback)
    return TrialRecord(situation, rec.slate, slate_clicks, rec.branch)


@dataclass
class EpsilonTunerState:
    """Weights over candidate epsilon values, reinforced by observed clicks."""

    candidates: List[float]
    weights: List[float] = field(default_factory=list)
    tried: Set[int] = field(default_factory=set)
    trial_index: int = 0

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("need at least one epsilon candidate")
        if not self.weights:
            self.weights = [1.0] * len(self.candidates)
        if len(self.weights) != len(self.candidates):
            raise ValueError("one weight per candidate")

    @property
    def best(self) -> float:
        return self.candidates[self.best_index]

    @property
    def best_index(self) -> int:
        return max(range(len(self.weights)),
                   key=lambda i: (self.weights[i], -i))


def tune_epsilon(state: EpsilonTunerState,
                 run_episode: Callable[[float], float],
                 rng: np.random.Generator) -> Tuple[float, EpsilonTunerState]:
    """One tuning round: pick a candidate epsilon (argmax-weight with
    probability tau = min(1, 0.01 t), otherwise uniformly among untried
    candidates, falling back to all once every candidate was tried), run
    one episode with it, and add the observed clicks to its weight."""
    t = state.trial_index + 1
    tau = min(1.0, 0.01 * t)
    q = rng.random()
    if q <= tau:
        i = state.best_index
    else:
        pool = [j for j in range(len(state.candidates))
                if j not in state.tried]
        if not pool:
            pool = list(range(len(state.candidates)))
        i = pool[int(rng.integers(len(pool)))]
    clicks = run_episode(state.candidates[i])
    state.weights[i] += clicks
    state.tried.add(i)
    state.trial_index = t
    return state.candidates[i], state

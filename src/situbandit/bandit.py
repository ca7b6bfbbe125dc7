"""Document-selection policies and the main recommendation engine.

The engine runs one trial per incoming situation: retrieve the nearest
case, pick a slate (epsilon-greedy over the case, or a uniform-random
slate below the similarity threshold), absorb the click feedback and
refresh the dimension weights. The engine does not cluster situations;
k-medoid clustering is the separate precision experiment of `situbandit
cluster-eval`. A context-free variant keeps one global preference pool
and ignores situations entirely; it is the comparison baseline for the
engine.

Slate selection reads the CTR ranking each preference map keeps current
(`UserPreferences.ranking`), so a pick never re-scores or re-sorts the
candidates: an exploit pick takes the ranking's first untaken position in
O(1), and an explore pick walks only the explored positions past it.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .casebase import CaseBase, RetrievalResult, UserPreferences
# perfbench patches `bandit.cluster_situations` by name
from .clustering import ClusteringConfig, cluster_situations  # noqa: F401
from .errors import ConfigError, EmptyCandidates, check_fields
from .simindex import SituationIndex
from .situation import Situation, Taxonomies


@dataclass
class BanditConfig:
    epsilon: float = 0.1
    slate_size: int = 10
    threshold_b: float = 2.4
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "bandit config")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.slate_size < 1:
            raise ConfigError("slate_size must be >= 1")
        if not 0.0 <= self.threshold_b <= 3.0:
            raise ConfigError(f"threshold_b must be in [0, 3], got "
                              f"{self.threshold_b}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class Branch(str, Enum):
    EPS_GREEDY = "eps-greedy"
    COLD_START = "cold-start"


@dataclass(slots=True)
class TrialRecord:
    situation: Situation
    shown: List[str]
    clicks: Dict[str, int]
    branch: Branch


@dataclass(slots=True)
class Recommendation:
    slate: List[str]
    branch: Branch
    retrieval: Optional[RetrievalResult]


#: Feedback for a shown slate: the preferences to absorb, holding every
#: slate document with its clicks and one impression.
FeedbackSource = Callable[[Situation, List[str]], UserPreferences]


def random_slate(pool: Sequence[str], n: int,
                 rng: np.random.Generator) -> List[str]:
    """Up to n distinct documents drawn uniformly from `pool`."""
    picks = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
    return [pool[i] for i in picks]


def epsilon_greedy(candidates: UserPreferences, n: int, epsilon: float,
                   rng: np.random.Generator) -> List[str]:
    """Slate of up to n distinct documents: each pick exploits the argmax-CTR
    document (lowest doc id among ties) with probability 1 - epsilon,
    otherwise explores uniformly among the documents not yet selected.

    Both kinds of pick read a position in the map's maintained ranking:
    exploit takes the first untaken position, explore the k-th untaken one
    with k uniform. Every position below a cursor `first` is taken, and
    `above` holds the explored positions past it, so an exploit pick costs
    O(1) and an explore pick O(len(above)); a position drained from `above`
    once `first` reaches it was paid for by the explore pick that put it
    there. No pick costs O(m) for m candidates.

    Draws: each pick reads one raw 64-bit word x of the bit generator and
    explores when q = (x >> 11) * 2**-53 <= epsilon; an explore pick then
    draws k = rng.integers(m - picked). For PCG64, q is exactly the double
    `rng.random()` makes of the same word, and `random_raw`, like `random`,
    leaves alone the buffered 32-bit half-word that `integers` reads. So
    the draws, every slate and the final RNG state are those of one
    `rng.random()` per pick. Other bit generators' raw words differ
    (MT19937's are 32 bits wide), so `rng` must be PCG64-backed, as
    `np.random.default_rng` is.
    """
    if not candidates.docs:
        raise EmptyCandidates("epsilon_greedy needs a non-empty candidate set")
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(f"epsilon_greedy needs a PCG64 generator, got "
                        f"{type(bit_generator).__name__}")
    raw = bit_generator.random_raw
    integers = rng.integers
    ranking = candidates.ranking()
    m = len(ranking)
    slate: List[str] = []
    first = 0  # every position below it is taken
    above: List[int] = []  # explored positions above `first`, ascending
    # q <= epsilon as one int compare: x >> 11 <= floor(epsilon * 2**53),
    # exact since scaling by a power of two is
    cut = (math.floor(epsilon * 2**53) + 1) << 11
    for picked in range(min(n, m)):
        if raw() < cut:  # explore
            # the k-th untaken position: shift past every taken one <= it
            pos = first + int(integers(m - picked))
            if pos != first:
                for p in above:
                    if p > pos:
                        break
                    pos += 1
                slate.append(ranking[pos][1])
                insort(above, pos)
                continue
        slate.append(ranking[first][1])
        first += 1
        while above and above[0] == first:
            del above[0]
            first += 1
    return slate


class RecommendationEngine:
    """Situation-aware engine: case retrieval + epsilon-greedy selection."""

    def __init__(self, taxonomies: Taxonomies, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None,
                 index: Optional[SituationIndex] = None):
        self.config = config if config is not None else BanditConfig()
        # read by perfbench, which clusters the final case base with it
        self.clustering_cfg = ClusteringConfig()
        self.casebase = CaseBase(taxonomies, index=index)
        self.doc_pool = sorted(doc_pool)
        self.rng = np.random.default_rng(self.config.seed)

    def recommend(self, situation: Situation) -> Recommendation:
        cfg = self.config
        retrieval = self.casebase.retrieve(situation)
        if (retrieval is None
                or retrieval.unweighted_sim < cfg.threshold_b
                or not retrieval.case.prefs.docs):
            return Recommendation(
                random_slate(self.doc_pool, cfg.slate_size, self.rng),
                Branch.COLD_START, retrieval)
        slate = epsilon_greedy(retrieval.case.prefs, cfg.slate_size,
                               cfg.epsilon, self.rng)
        return Recommendation(slate, Branch.EPS_GREEDY, retrieval)

    def observe(self, situation: Situation, rec: Recommendation,
                feedback: UserPreferences) -> None:
        cb = self.casebase
        cb.update_preferences(situation, feedback)
        if rec.retrieval is not None:
            cb.weights.record(rec.retrieval.per_dim_sims)


class GlobalEpsilonGreedy:
    """Context-free baseline: one global preference pool, no situations."""

    def __init__(self, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None):
        self.config = config if config is not None else BanditConfig()
        self.doc_pool = sorted(doc_pool)
        self.prefs = UserPreferences()
        self.rng = np.random.default_rng(self.config.seed)

    def recommend(self, situation: Situation) -> Recommendation:
        if not self.prefs.docs:
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
    feedback = feedback_source(situation, rec.slate)
    docs = feedback.docs
    clicks = {d: c for d in rec.slate if (c := docs[d].clicks)}
    policy.observe(situation, rec, feedback)
    return TrialRecord(situation, rec.slate, clicks, rec.branch)


@dataclass
class EpsilonTunerState:
    """Weights over candidate epsilon values, reinforced by observed clicks."""

    candidates: List[float]
    weights: List[float] = field(default_factory=list)
    tried: Set[int] = field(default_factory=set)
    trial_index: int = 0

    def __post_init__(self):
        if not self.candidates:
            raise ConfigError("need at least one epsilon candidate")
        if len(set(self.candidates)) != len(self.candidates):
            raise ConfigError(f"epsilon candidates must be distinct, got "
                              f"{self.candidates}")
        if not self.weights:
            self.weights = [1.0] * len(self.candidates)
        if len(self.weights) != len(self.candidates):
            raise ConfigError("one weight per candidate")

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

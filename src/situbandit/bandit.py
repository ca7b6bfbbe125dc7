"""Document-selection policies and the main recommendation engine.

The engine runs one trial per incoming situation: retrieve the nearest
case, pick a slate (epsilon-greedy over the case, or a uniform-random
slate below the similarity threshold), absorb the click feedback and
refresh the dimension weights. The engine does not cluster situations;
k-medoid clustering is the separate precision experiment of `situbandit
cluster-eval`. The context-free comparison baseline, `GlobalEpsilonGreedy`,
is the same engine reading every situation as the taxonomies' root
triple: one case pools all feedback.

Slate selection reads the CTR ranking each preference map keeps current
(`UserPreferences.ranking`), so a pick never re-scores or re-sorts the
candidates: an exploit pick takes the ranking's first untaken position in
O(1), and an explore pick walks only the explored positions past it. Its
random draws come from a `SlateDraws`, which each policy binds once to
its generator and ε (see `slate_draws`) and binds again only when its
config's ε changes.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import (Callable, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from .casebase import CaseBase, RetrievalResult, UserPreferences
# perfbench patches `bandit.cluster_situations` by name
from .clustering import ClusteringConfig, cluster_situations  # noqa: F401
from .errors import ConfigError, EmptyCandidates, check_fields
from .simindex import SituationIndex
from .situation import Situation


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

    # the replay counts trials by member; `Enum.__hash__` would hash the
    # member's name in Python code, this hashes its value in C, as equal
    # strings hash
    __hash__ = str.__hash__


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


def bounded_integer(r: int, next_uint32, state,
                    rng: np.random.Generator) -> int:
    """`int(rng.integers(r))` for an int r, drawn as numpy draws it, where
    `next_uint32` and `state` are the fields of `rng.bit_generator.ctypes`,
    bound once by the caller.

    numpy answers a bound 1 < r <= 2**32 with Lemire's method ("Fast Random
    Integer Generation in an Interval", ACM TOMACS 2019) over the bit
    generator's `next_uint32`, and so does this: a 32-bit word x gives the
    pick (x * r) >> 32, unless the low half of x * r is below 2**32 mod r,
    when x is rejected and the next word drawn. The ctypes call is the
    generator's own, so a buffered half-word (PCG64's, say) is used and
    refilled in C and `rng.bit_generator.state` after each call is
    numpy's. r = 1 draws nothing, as in numpy; any other bound goes to
    `rng.integers` (its 64-bit path above 2**32, its error below 1).

    The ctypes call skips the lock `Generator` methods take, so `rng` must
    not be shared across threads while this runs.
    """
    if 1 < r <= 0x100000000:
        m = next_uint32(state) * r
        if m & 0xFFFFFFFF < r:  # the floor, 2**32 mod r, is below r
            floor = 0x100000000 % r
            while m & 0xFFFFFFFF < floor:
                m = next_uint32(state) * r
        return m >> 32
    return 0 if r == 1 else int(rng.integers(r))


class SlateDraws(NamedTuple):
    """The random source of `epsilon_greedy`, bound once by `slate_draws`.

    Each pick reads one raw 64-bit word x of the bit generator through
    `raw` and explores when q = (x >> 11) * 2**-53 <= epsilon, tested as
    the one int compare x < `cut`; an explore pick then draws
    k = `bounded_integer(m - picked, next_uint32, state, rng)`, the value
    and words of `rng.integers(m - picked)`. For PCG64, q is exactly the
    double `rng.random()` makes of the same word, and `random_raw`, like
    `random`, leaves alone the buffered 32-bit half-word that
    `next_uint32` reads. So the draws, every slate and the final RNG state
    are those of one `rng.random()` per pick and one `rng.integers` per
    explore pick.

    The fields hold the generator's own bound methods and ctypes state, so
    draws made through them advance `rng` itself: a policy keeps one
    `SlateDraws` next to its `rng`. It fixes ε, so a policy whose config's
    ε changes (as `tune-epsilon` swaps configs per episode) binds a new
    one. As for `bounded_integer`, `rng` must not be shared across threads
    while its draws are used.
    """

    epsilon: float
    cut: int
    raw: Callable[[], int]
    next_uint32: Callable
    state: object
    rng: np.random.Generator


def slate_draws(rng: np.random.Generator, epsilon: float) -> SlateDraws:
    """The `SlateDraws` of `rng` at explore probability `epsilon`.

    Other bit generators' raw words differ from PCG64's (MT19937's are 32
    bits wide, so every pick would explore), so `rng` must be PCG64-backed,
    as `np.random.default_rng` is; any other raises `TypeError`.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(f"epsilon_greedy needs a PCG64 generator, got "
                        f"{type(bit_generator).__name__}")
    ctypes = bit_generator.ctypes
    # q <= epsilon as one int compare: x >> 11 <= floor(epsilon * 2**53),
    # exact since scaling by a power of two is
    cut = (math.floor(epsilon * 2**53) + 1) << 11
    return SlateDraws(epsilon, cut, bit_generator.random_raw,
                      ctypes.next_uint32, ctypes.state, rng)


def epsilon_greedy(candidates: UserPreferences, n: int,
                   draws: SlateDraws) -> List[str]:
    """Slate of up to n distinct documents: each pick exploits the argmax-CTR
    document (lowest doc id among ties) with probability 1 - epsilon,
    otherwise explores uniformly among the documents not yet selected.
    `draws` gives epsilon and the random source (see `SlateDraws`).

    Both kinds of pick read a position in the map's maintained ranking:
    exploit takes the first untaken position, explore the k-th untaken one
    with k uniform. Every position below a cursor `first` is taken, and
    `above` holds the explored positions past it, so an exploit pick costs
    O(1) and an explore pick O(len(above)); a position drained from `above`
    once `first` reaches it was paid for by the explore pick that put it
    there. No pick costs O(m) for m candidates.
    """
    if not candidates.docs:
        raise EmptyCandidates("epsilon_greedy needs a non-empty candidate set")
    _, cut, raw, next_uint32, state, rng = draws
    ranking = candidates.ranking()
    m = len(ranking)
    slate: List[str] = []
    first = 0  # every position below it is taken
    above: List[int] = []  # explored positions above `first`, ascending
    for picked in range(min(n, m)):
        if raw() < cut:  # explore
            # the k-th untaken position: shift past every taken one <= it
            pos = first + bounded_integer(m - picked, next_uint32, state,
                                          rng)
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

    def __init__(self, index: SituationIndex, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None):
        self.config = config if config is not None else BanditConfig()
        # read by perfbench, which clusters the final case base with it
        self.clustering_cfg = ClusteringConfig()
        self.casebase = CaseBase(index)
        self.doc_pool = sorted(doc_pool)
        self.rng = np.random.default_rng(self.config.seed)
        self.draws = slate_draws(self.rng, self.config.epsilon)
        # when set, every trial is read as this situation
        self.anchor: Optional[Situation] = None

    def recommend(self, situation: Situation) -> Recommendation:
        cfg = self.config
        retrieval = self.casebase.retrieve(self.anchor or situation)
        if (retrieval is None
                or retrieval.unweighted_sim < cfg.threshold_b
                or not retrieval.case.prefs.docs):
            return Recommendation(
                random_slate(self.doc_pool, cfg.slate_size, self.rng),
                Branch.COLD_START, retrieval)
        draws = self.draws
        if draws.epsilon != cfg.epsilon:  # the config was swapped
            draws = self.draws = slate_draws(self.rng, cfg.epsilon)
        slate = epsilon_greedy(retrieval.case.prefs, cfg.slate_size, draws)
        return Recommendation(slate, Branch.EPS_GREEDY, retrieval)

    def observe(self, situation: Situation, rec: Recommendation,
                feedback: UserPreferences) -> None:
        cb = self.casebase
        cb.update_preferences(self.anchor or situation, feedback)
        if rec.retrieval is not None:
            cb.weights.record(rec.retrieval.per_dim_sims)


class GlobalEpsilonGreedy(RecommendationEngine):
    """Context-free baseline: the engine reading every situation as the
    taxonomies' root triple, so one case pools all feedback and each trial
    after the first retrieves it as an exact hit."""

    # perfbench patches each class's own methods by name; inherited, the
    # engine's would be wrapped twice and stay patched after the trace
    recommend = RecommendationEngine.recommend
    observe = RecommendationEngine.observe

    def __init__(self, index: SituationIndex, doc_pool: Sequence[str],
                 config: Optional[BanditConfig] = None):
        super().__init__(index, doc_pool, config)
        self.anchor = Situation(*(t.root for t in index.taxonomies.as_tuple()))


def step(policy, situation: Situation,
         feedback_source: FeedbackSource) -> Tuple[Recommendation, int]:
    """One trial: ask `policy` for a slate, collect its feedback and let
    the policy absorb it. Returns the recommendation and the clicks on its
    slate."""
    rec = policy.recommend(situation)
    feedback = feedback_source(situation, rec.slate)
    docs = feedback.docs
    clicks = sum([docs[d].clicks for d in rec.slate])
    policy.observe(situation, rec, feedback)
    return rec, clicks


@dataclass
class EpsilonTunerState:
    """Weights over candidate epsilon values, reinforced by observed clicks."""

    candidates: List[float]
    weights: List[float] = field(init=False)
    tried: Set[int] = field(init=False, default_factory=set)
    trial_index: int = field(init=False, default=0)

    def __post_init__(self):
        if not self.candidates:
            raise ConfigError("need at least one epsilon candidate")
        if len(set(self.candidates)) != len(self.candidates):
            raise ConfigError(f"epsilon candidates must be distinct, got "
                              f"{self.candidates}")
        self.weights = [1.0] * len(self.candidates)

    @property
    def best(self) -> float:
        return self.candidates[self.best_index]

    @property
    def best_index(self) -> int:
        return max(range(len(self.weights)),
                   key=lambda i: (self.weights[i], -i))


def tune_epsilon(state: EpsilonTunerState,
                 run_episode: Callable[[float], float],
                 rng: np.random.Generator) -> Tuple[float, float]:
    """One tuning round: pick a candidate epsilon (argmax-weight with
    probability tau = min(1, 0.01 t), otherwise uniformly among untried
    candidates, falling back to all once every candidate was tried), run
    one episode with it, and add the observed clicks to its weight.
    Returns the candidate and the episode's clicks."""
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
    return state.candidates[i], clicks

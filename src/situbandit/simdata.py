"""Synthetic diary world and offline replay evaluation.

The generator builds three balanced concept taxonomies, plants situation
groups around well-separated leaf-triple prototypes (a group takes its
prototype's one-step neighbours, then grows by one-step walks from its
members; every situation is distinct, or the config is refused), and
assigns each group a sparse set of high-affinity documents against a
low-affinity background. Documents preferred by one group are mildly
disliked by the others, so exploiting a mismatched case is worse than
showing a random slate. Replay draws situations from the occurrence
multiset, samples clicks from the ground-truth affinities, and reports
cumulative average CTR every report period.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bandit import (BanditConfig, Branch, FeedbackSource,
                     GlobalEpsilonGreedy, Recommendation,
                     RecommendationEngine, TrialRecord, random_slate, step)
from .casebase import DocumentStats, UserPreferences
from .errors import (ConfigError, ExhaustedPool, LabelMismatch, ParseError,
                     SitubanditError, UnknownConcept, UnknownDoc,
                     UnknownPolicy, check_fields, check_kind)
from .ontology import Dimension, Taxonomy, taxonomy_from_dict, taxonomy_to_dict
from .simindex import SituationIndex
from .situation import Situation, Taxonomies, unweighted_sum


#: Every count a feedback map holds: shown, shown and clicked, organic click.
SHOWN = DocumentStats(0, 1)
SHOWN_CLICKED = DocumentStats(1, 1)
ORGANIC_CLICK = DocumentStats(1, 0)


@dataclass
class WorldConfig:
    groups: int = 20
    situations_per_group: int = 150
    docs: int = 10000
    taxonomy_depth: int = 4
    branching: int = 3
    preferred_docs_per_group: int = 10
    high_affinity: Tuple[float, float] = (0.5, 0.9)
    background_affinity: Tuple[float, float] = (0.01, 0.05)
    foreign_affinity: Tuple[float, float] = (0.001, 0.01)
    occurrences_per_situation: int = 100
    organic_browse: int = 5
    organic_good_bias: float = 0.4
    max_prototype_sim: float = 1.9
    nav_entries_per_situation: int = 15

    def __post_init__(self):
        check_fields(self, "world config")
        if self.groups < 1 or self.situations_per_group < 1 or self.docs < 1:
            raise ConfigError("groups, situations_per_group and docs must be >= 1")
        if self.taxonomy_depth < 2 or self.branching < 2:
            raise ConfigError("need taxonomy_depth >= 2 and branching >= 2")
        if self.preferred_docs_per_group < 1:
            raise ConfigError("need preferred_docs_per_group >= 1")
        if self.preferred_docs_per_group * self.groups > self.docs:
            raise ConfigError("not enough documents for disjoint preferred sets")
        for name in ("occurrences_per_situation", "organic_browse",
                     "nav_entries_per_situation"):
            if getattr(self, name) < 0:
                raise ConfigError(f"world config {name} must be >= 0")
        if not 0.0 <= self.organic_good_bias <= 1.0:
            raise ConfigError(
                "world config organic_good_bias must be in [0, 1]")
        for name in ("high_affinity", "background_affinity",
                     "foreign_affinity"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigError(f"world config {name} must be a range "
                                  f"(lo, hi) with 0 <= lo <= hi <= 1")

    @classmethod
    def from_dict(cls, doc) -> "WorldConfig":
        """The config a mapping of field values describes, such as a config
        file's `world:` entry or a saved world's `config`; lists stand for
        pairs. A key that is not a field raises ConfigError, and so does a
        wrongly typed value."""
        if not isinstance(doc, dict):
            raise ConfigError(f"world config must be a mapping, got {doc!r}")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown world config keys: "
                              f"{', '.join(sorted(map(str, unknown)))}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in doc.items()})


_DIM_ROOTS = {
    Dimension.LOCATION: ("L", "Anywhere"),
    Dimension.TIME: ("T", "Anytime"),
    Dimension.SOCIAL: ("S", "Anyone"),
}


def balanced_taxonomy(dimension: Dimension, depth: int,
                      branching: int) -> Taxonomy:
    """Balanced tree with `depth` levels counting the root."""
    prefix, root_label = _DIM_ROOTS[dimension]

    def build(node_id: str, level: int) -> dict:
        node = {"id": node_id, "label": node_id}
        if level < depth:
            node["children"] = [build(f"{node_id}.{i}", level + 1)
                                for i in range(branching)]
        return node

    doc = build(prefix, 1)
    doc["label"] = root_label
    return taxonomy_from_dict(doc, dimension)


@dataclass
class SyntheticWorld:
    config: WorldConfig
    seed: int
    taxonomies: Taxonomies
    doc_ids: List[str]
    situations: List[Situation]
    group_of: np.ndarray          # situation index -> group id
    occurrences: np.ndarray       # situation index -> draw budget
    affinity: np.ndarray          # (groups, docs) click probabilities
    preferred: List[List[int]]    # group -> preferred doc indices
    index: SituationIndex = field(default=None, repr=False)
    _situation_idx: dict = field(default=None, repr=False)
    _doc_idx: dict = field(default=None, repr=False)

    def __post_init__(self):
        if self.index is None:
            self.index = SituationIndex(self.taxonomies)
        self._situation_idx = {s: i for i, s in enumerate(self.situations)}
        self._doc_idx = {d: i for i, d in enumerate(self.doc_ids)}

    def group_of_situation(self, s: Situation) -> int:
        try:
            return int(self.group_of[self._situation_idx[s]])
        except KeyError:
            raise LabelMismatch(f"situation {s} is not part of this world")

    def feedback_source(self, rng: np.random.Generator) -> FeedbackSource:
        """Click feedback for a slate plus organic (non-recommended) visits.

        Slate documents get one impression each and a Bernoulli click from
        the group affinity. The user additionally browses `organic_browse`
        documents on their own, each from the group's preferred set with
        probability `organic_good_bias`, else from all documents; a visited
        document not yet in the feedback enters it, with one click and zero
        impressions, if its click test passes.

        Each call makes three array draws: `rng.random(n + b)` for a slate
        of n documents and b visits, the slate's click tests and then the
        visits' preferred-set tests; one `rng.integers(bounds)` call whose
        b exclusive bounds are `len(mine)` for a visit that passed its
        preferred-set test and `n_docs` for the others; and the visits'
        click tests `rng.random(b)`. A situation that is not in the world
        raises `LabelMismatch`, and a slate document that is not in it
        `UnknownDoc`, before anything is drawn.
        """
        affinity = self.affinity
        doc_ids = self.doc_ids
        doc_idx = self._doc_idx
        situation_idx = self._situation_idx
        group_of = self.group_of.tolist()
        preferred = self.preferred
        n_docs = len(doc_ids)
        visits = self.config.organic_browse
        good_bias = self.config.organic_good_bias
        random = rng.random
        integers = rng.integers

        def source(s: Situation, slate: List[str]) -> UserPreferences:
            try:
                group = group_of[situation_idx[s]]
            except KeyError:
                group = self.group_of_situation(s)  # raises LabelMismatch
            row = affinity[group]
            try:
                idx = [doc_idx[doc_id] for doc_id in slate]
            except KeyError as e:
                raise UnknownDoc(e.args[0]) from None
            uniforms = random(len(slate) + visits).tolist()
            docs = {doc_id: SHOWN_CLICKED if u < row.item(i) else SHOWN
                    for doc_id, u, i in zip(slate, uniforms, idx)}
            mine = preferred[group]
            good = [u < good_bias for u in uniforms[len(slate):]]
            n_mine = len(mine)
            picks = integers([n_mine if g else n_docs for g in good]).tolist()
            for g, k, u in zip(good, picks, random(visits).tolist()):
                di = mine[k] if g else k
                doc_id = doc_ids[di]
                if doc_id not in docs and u < row.item(di):
                    docs[doc_id] = ORGANIC_CLICK
            return UserPreferences(docs)

        return source


#: Draws the generator takes before it refuses a config: candidates for one
#: prototype, or already-taken situations in a row while a group grows.
MAX_DRAWS = 2000


def _sample_prototypes(leaves: Tuple[list, list, list], cfg: WorldConfig,
                       index: SituationIndex,
                       rng: np.random.Generator) -> List[Situation]:
    protos: List[Situation] = []
    encoded: List[Tuple[int, int, int]] = []
    for _ in range(cfg.groups):
        placed = False
        for _attempt in range(MAX_DRAWS):
            cand = Situation(*(lv[int(rng.integers(len(lv)))] for lv in leaves))
            e = index.encode(cand)
            ok = cand not in protos and all(
                unweighted_sum(index.per_dim_sims(e, other))
                <= cfg.max_prototype_sim
                for other in encoded)
            if ok:
                protos.append(cand)
                encoded.append(e)
                placed = True
                break
        if not placed:
            raise ConfigError(
                "cannot place that many well-separated group prototypes; "
                "grow the taxonomies or lower max_prototype_sim")
    return protos


def _neighbours(tax: Taxonomy, concept: str) -> List[str]:
    """The non-root concepts one step from `concept`: its siblings, its
    children and its parent."""
    out = tax.siblings(concept) + tax.children(concept)
    parent = tax.parent[concept]
    if parent != tax.root:
        out.append(parent)
    return out


def _grow_group(proto: Situation, taxes: Tuple[Taxonomy, ...], size: int,
                seen: set, rng: np.random.Generator) -> List[Situation]:
    """`size` situations, starting with `proto`, that `seen` did not hold
    and now does: its one-step neighbours in one random order, then
    one-step walks from random members. Raises ConfigError after
    MAX_DRAWS taken walks in a row."""
    members = [proto]
    near = []
    for dim in range(3):
        for c in _neighbours(taxes[dim], proto.as_tuple()[dim]):
            parts = list(proto.as_tuple())
            parts[dim] = c
            near.append(Situation(*parts))
    for i in rng.permutation(len(near)):
        if len(members) == size:
            break
        if near[i] not in seen:
            seen.add(near[i])
            members.append(near[i])
    taken = 0
    while len(members) < size:
        parts = list(members[int(rng.integers(len(members)))].as_tuple())
        dim = int(rng.integers(3))
        options = _neighbours(taxes[dim], parts[dim])
        parts[dim] = options[int(rng.integers(len(options)))]
        cand = Situation(*parts)
        if cand in seen:
            taken += 1
            if taken == MAX_DRAWS:
                raise ConfigError(
                    f"cannot find {size} distinct situations per group; "
                    "grow the taxonomies or lower situations_per_group")
        else:
            taken = 0
            seen.add(cand)
            members.append(cand)
    return members


def _check_separation(world: SyntheticWorld) -> None:
    """Refuse a world whose mean unweighted similarity between two
    situations of one group is not above the mean between two groups.

    With h_g the counts of group g's concepts in one dimension and M that
    dimension's similarity matrix, the similarity summed over the pairs
    of a situation in g and one in k is h_g . M . h_k, so the sums need
    one groups x groups matrix per dimension and no situation pairs."""
    groups = world.config.groups
    codes = np.array([world.index.encode(s) for s in world.situations]).T
    sums = np.zeros((groups, groups))
    self_sum = 0.0
    for m, c in zip(world.index.matrices, codes):
        h = np.zeros((groups, len(m)))
        np.add.at(h, (world.group_of, c), 1.0)
        sums += h @ m @ h.T
        self_sum += m[c, c].sum()
    n = len(world.situations)
    sizes = np.bincount(world.group_of, minlength=groups)
    same_pairs = int((sizes ** 2).sum())
    intra_pairs, inter_pairs = same_pairs - n, n * n - same_pairs
    if not intra_pairs or not inter_pairs:
        return
    intra = (np.trace(sums) - self_sum) / intra_pairs
    inter = (sums.sum() - np.trace(sums)) / inter_pairs
    if intra <= inter:
        raise ConfigError(
            "generated world is not separable: mean intra-group similarity "
            f"{intra:.3f} <= inter-group {inter:.3f}")


def generate_world(cfg: WorldConfig, seed: int = 0) -> SyntheticWorld:
    check_kind("seed", seed, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    taxonomies = Taxonomies(
        balanced_taxonomy(Dimension.LOCATION, cfg.taxonomy_depth, cfg.branching),
        balanced_taxonomy(Dimension.TIME, cfg.taxonomy_depth, cfg.branching),
        balanced_taxonomy(Dimension.SOCIAL, cfg.taxonomy_depth, cfg.branching))
    index = SituationIndex(taxonomies)
    leaves = tuple(t.leaves() for t in taxonomies.as_tuple())
    prototypes = _sample_prototypes(leaves, cfg, index, rng)

    seen = set(prototypes)
    situations = [s for proto in prototypes
                  for s in _grow_group(proto, taxonomies.as_tuple(),
                                       cfg.situations_per_group, seen, rng)]

    width = len(str(cfg.docs - 1))
    doc_ids = [f"d{i:0{width}d}" for i in range(cfg.docs)]
    lo, hi = cfg.background_affinity
    affinity = rng.uniform(lo, hi, size=(cfg.groups, cfg.docs))
    doc_perm = rng.permutation(cfg.docs)
    preferred: List[List[int]] = []
    for g in range(cfg.groups):
        mine = sorted(int(d) for d in doc_perm[
            g * cfg.preferred_docs_per_group:
            (g + 1) * cfg.preferred_docs_per_group])
        preferred.append(mine)
        flo, fhi = cfg.foreign_affinity
        affinity[:, mine] = rng.uniform(flo, fhi,
                                        size=(cfg.groups, len(mine)))
        glo, ghi = cfg.high_affinity
        affinity[g, mine] = rng.uniform(glo, ghi, size=len(mine))

    world = SyntheticWorld(
        config=cfg, seed=seed, taxonomies=taxonomies, doc_ids=doc_ids,
        situations=situations,
        group_of=np.repeat(np.arange(cfg.groups), cfg.situations_per_group),
        occurrences=np.full(len(situations), cfg.occurrences_per_situation),
        affinity=affinity, preferred=preferred, index=index)
    _check_separation(world)
    return world


# -- replay evaluation -----------------------------------------------------


@dataclass
class EvalReport:
    #: (iteration, cumulative average CTR, cumulative branch counts)
    series: List[Tuple[int, float, Dict[str, int]]]
    branch_counts: Dict[str, int]
    total_clicks: int
    total_displays: int
    trials: List[TrialRecord] = field(default_factory=list, repr=False)

    @property
    def final_avctr(self) -> float:
        if not self.total_displays:
            return 0.0
        return self.total_clicks / self.total_displays

    def to_tsv(self, path: Union[str, Path]) -> None:
        branches = [b.value for b in Branch]
        lines = ["iteration\tavg_ctr\t" + "\t".join(branches)]
        for iteration, avctr, counts in self.series:
            cols = "\t".join(str(counts[b]) for b in branches)
            lines.append(f"{iteration}\t{avctr:.6f}\t{cols}")
        Path(path).write_text("\n".join(lines) + "\n")


def replay_evaluate(policy, world: SyntheticWorld, iterations: int = 10000,
                    report_period: int = 1000, seed: int = 0,
                    keep_trials: bool = True) -> EvalReport:
    """Offline replay: draw situations from the occurrence multiset, ask the
    policy for a slate, sample clicks, feed them back, and log cumulative
    average CTR every `report_period` iterations."""
    check_kind("iterations", iterations, int)
    check_kind("report_period", report_period, int)
    if report_period < 1:
        raise ConfigError("report_period must be >= 1")
    if iterations < report_period:
        raise ConfigError("iterations must be >= report_period")
    total_budget = int(world.occurrences.sum())
    if iterations > total_budget:
        raise ExhaustedPool(
            f"situation pool holds {total_budget} draws, "
            f"{iterations} requested")
    rng = np.random.default_rng(seed)
    flat = np.repeat(np.arange(len(world.situations)), world.occurrences)
    rng.shuffle(flat)
    source = world.feedback_source(rng)
    clicks = 0
    displays = 0
    series: List[Tuple[int, float, Dict[str, int]]] = []
    branch_counts: Dict[str, int] = {b.value: 0 for b in Branch}
    trials: List[TrialRecord] = []
    for i in range(iterations):
        trial = step(policy, world.situations[flat[i]], source)
        clicks += sum(trial.clicks.values())
        displays += len(trial.shown)
        branch_counts[trial.branch.value] += 1
        if keep_trials:
            trials.append(trial)
        if (i + 1) % report_period == 0:
            series.append((i + 1, clicks / displays if displays else 0.0,
                           dict(branch_counts)))
    return EvalReport(series=series, branch_counts=branch_counts,
                      total_clicks=clicks, total_displays=displays,
                      trials=trials)


class RandomPolicy:
    """Uniform random slates; the no-learning floor."""

    def __init__(self, doc_ids: Sequence[str], slate_size: int = 10,
                 seed: int = 0):
        self.doc_ids = list(doc_ids)
        self.slate_size = slate_size
        self.rng = np.random.default_rng(seed)

    def recommend(self, situation: Situation) -> Recommendation:
        return Recommendation(
            random_slate(self.doc_ids, self.slate_size, self.rng),
            Branch.COLD_START, None)

    def observe(self, situation, rec, feedback) -> None:
        pass


class OraclePolicy:
    """Knows the true affinities; recommends each group's best documents."""

    def __init__(self, world: SyntheticWorld, slate_size: int = 10):
        self.world = world
        self.slate_size = slate_size
        self._top = {}
        for g in range(world.config.groups):
            order = np.argsort(-world.affinity[g], kind="stable")
            self._top[g] = [world.doc_ids[i]
                            for i in order[:slate_size]]

    def recommend(self, situation: Situation) -> Recommendation:
        g = self.world.group_of_situation(situation)
        return Recommendation(list(self._top[g]), Branch.EPS_GREEDY, None)

    def observe(self, situation, rec, feedback) -> None:
        pass


POLICY_NAMES = ("clustering-eps-greedy", "eps-greedy", "random", "oracle")


def build_policy(name: str, world: SyntheticWorld, bandit_cfg=None,
                 seed: Optional[int] = None):
    """Construct a policy by CLI name.

    clustering-eps-greedy: the situation-aware engine, which does not
    cluster; the name stays because the benchmark workloads use it.
    eps-greedy: the context-free global bandit. random / oracle: floor and
    ceiling baselines.
    """
    cfg = bandit_cfg if bandit_cfg is not None else BanditConfig()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if name == "clustering-eps-greedy":
        return RecommendationEngine(world.taxonomies, world.doc_ids, cfg,
                                    index=world.index)
    if name == "eps-greedy":
        return GlobalEpsilonGreedy(world.doc_ids, cfg)
    if name == "random":
        return RandomPolicy(world.doc_ids, cfg.slate_size, cfg.seed)
    if name == "oracle":
        return OraclePolicy(world, cfg.slate_size)
    raise UnknownPolicy(f"unknown policy {name!r}; pick one of "
                        f"{', '.join(POLICY_NAMES)}")


def clustering_precision(predicted: Sequence[int],
                         truth: Sequence[int]) -> float:
    """Pairwise precision: of pairs co-clustered by `predicted`, the
    fraction sharing a ground-truth label. Defined as 1.0 when no pair is
    co-clustered."""
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise LabelMismatch(
            f"{len(predicted)} predictions for {len(truth)} labels")
    by_cluster: Dict[int, Dict[int, int]] = {}
    for p, t in zip(predicted, truth):
        by_cluster.setdefault(p, {})
        by_cluster[p][t] = by_cluster[p].get(t, 0) + 1
    co_pairs = 0
    good_pairs = 0
    for label_counts in by_cluster.values():
        m = sum(label_counts.values())
        co_pairs += m * (m - 1) // 2
        for c in label_counts.values():
            good_pairs += c * (c - 1) // 2
    if co_pairs == 0:
        return 1.0
    return good_pairs / co_pairs


# -- persistence and diary export ------------------------------------------


def world_to_dict(world: SyntheticWorld) -> dict:
    return {
        "config": asdict(world.config),
        "seed": world.seed,
        "taxonomies": {
            dim.value: taxonomy_to_dict(t)
            for dim, t in zip(Dimension, world.taxonomies.as_tuple())
        },
        "doc_ids": world.doc_ids,
        "situations": [list(s.as_tuple()) for s in world.situations],
        "group_of": [int(g) for g in world.group_of],
        "occurrences": [int(o) for o in world.occurrences],
        "affinity": [[float(a) for a in row] for row in world.affinity],
        "preferred": [list(map(int, p)) for p in world.preferred],
    }


def _are_indices(values, bound: int) -> bool:
    """Whether every value is an int, not a bool, in [0, bound)."""
    return all(isinstance(v, int) and not isinstance(v, bool)
               and 0 <= v < bound for v in values)


def world_from_dict(doc: dict) -> SyntheticWorld:
    """The world `world_to_dict` wrote; parts that do not fit together
    (a situation listed twice or naming a concept its taxonomy lacks, a
    doc id that is not a string or is listed twice, per-situation or
    per-group entries of the wrong length, a group or document index out
    of range, an occurrence budget outside [0, 2**63), an affinity that is
    not a probability, an empty preferred list, a seed that is not an
    integer >= 0) raise ParseError."""
    cfg = WorldConfig.from_dict(doc["config"])
    seed = doc["seed"]
    if type(seed) is not int or seed < 0:
        raise ParseError(f"seed {seed!r} is not an integer >= 0")
    taxonomies = Taxonomies(*(
        taxonomy_from_dict(doc["taxonomies"][dim.value], dim)
        for dim in Dimension))
    doc_ids = list(doc["doc_ids"])
    situations = [Situation(*t) for t in doc["situations"]]
    group_of = np.asarray(doc["group_of"])
    occurrences = np.asarray(doc["occurrences"])
    affinity = np.asarray(doc["affinity"])
    preferred = [list(p) for p in doc["preferred"]]
    n = len(situations)
    if len(set(situations)) != n:
        raise ParseError("a situation is listed twice")
    if not all(type(d) is str for d in doc_ids):
        raise ParseError("doc ids must be strings")
    if len(set(doc_ids)) != len(doc_ids):
        raise ParseError("a doc id is listed twice")
    if group_of.shape != (n,) or occurrences.shape != (n,):
        raise ParseError(f"group_of and occurrences must list one entry "
                         f"for each of the {n} situations")
    if affinity.shape != (cfg.groups, len(doc_ids)) or \
            len(preferred) != cfg.groups:
        raise ParseError(f"affinity must be {cfg.groups} x {len(doc_ids)} "
                         f"and preferred must hold {cfg.groups} lists")
    if not _are_indices(group_of.tolist(), cfg.groups):
        raise ParseError(f"group ids must be integers in [0, {cfg.groups})")
    if not _are_indices(occurrences.tolist(), 2**63):
        raise ParseError("occurrence budgets must be integers in "
                         "[0, 2**63)")
    if not _are_indices((d for p in preferred for d in p), len(doc_ids)):
        raise ParseError(f"preferred documents must be integers in "
                         f"[0, {len(doc_ids)})")
    if not all(preferred):
        raise ParseError("each group's preferred list must be non-empty")
    if affinity.dtype.kind not in "iuf" or \
            not np.all((affinity >= 0.0) & (affinity <= 1.0)):
        raise ParseError("affinities must be numbers in [0, 1]")
    index = SituationIndex(taxonomies)
    try:
        for s in situations:
            index.encode(s)
    except UnknownConcept as exc:
        raise ParseError(f"situation {s} names an unknown concept: "
                         f"{exc}") from exc
    return SyntheticWorld(
        config=cfg, seed=seed, taxonomies=taxonomies,
        doc_ids=doc_ids, situations=situations, group_of=group_of,
        occurrences=occurrences, affinity=affinity, preferred=preferred,
        index=index)


def save_world(world: SyntheticWorld, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(world_to_dict(world),
                                     separators=(",", ":"),
                                     sort_keys=True) + "\n")


def load_world(path: Union[str, Path]) -> SyntheticWorld:
    """The world `save_world` wrote to `path`; a file that is not such a
    world (not UTF-8 text, bad or too deeply nested JSON, a missing entry,
    a wrongly shaped or typed value) raises ParseError."""
    try:
        return world_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, IndexError, TypeError, ValueError, RecursionError,
            SitubanditError) as exc:
        raise ParseError(f"{path} is not a saved world: "
                         f"{type(exc).__name__}: {exc}") from exc


def export_diary(world: SyntheticWorld, situations_path: Union[str, Path],
                 navigation_path: Union[str, Path]) -> None:
    """Delimited diary mirroring the semantic-situation and navigation
    table shapes: one situation row per distinct situation and a handful
    of synthetic navigation rows per situation."""
    rng = np.random.default_rng(world.seed + 1)
    cfg = world.config
    sit_lines = ["IDS\tTime\tPlace\tSocial"]
    for i, s in enumerate(world.situations):
        sit_lines.append(f"{i + 1}\t{s.time}\t{s.location}\t{s.social}")
    Path(situations_path).write_text("\n".join(sit_lines) + "\n")

    nav_lines = ["IdDoc\tIDS\tClick\tTime\tInterest"]
    n_docs = len(world.doc_ids)
    for i, s in enumerate(world.situations):
        group = int(world.group_of[i])
        for _ in range(cfg.nav_entries_per_situation):
            if rng.random() < cfg.organic_good_bias:
                di = world.preferred[group][
                    int(rng.integers(len(world.preferred[group])))]
            else:
                di = int(rng.integers(n_docs))
            p = world.affinity[group, di]
            click = int(rng.binomial(3, p))
            minutes = round(float(rng.uniform(0.5, 8.0)), 1)
            stars = int(np.clip(round(5 * p + rng.normal(0, 0.4)), 0, 5))
            nav_lines.append(
                f"{world.doc_ids[di]}\t{i + 1}\t{click}\t{minutes}\t{stars}")
    Path(navigation_path).write_text("\n".join(nav_lines) + "\n")

"""Synthetic diary world and offline replay evaluation.

The generator builds three balanced concept taxonomies, plants situation
groups around distinct leaf-triple prototypes (intra-group situations
perturb one dimension to a sibling or parent concept), and assigns each
group a sparse set of high-affinity documents against a low-affinity
background. Documents preferred by one group are mildly disliked by the
others, so exploiting a mismatched case is worse than showing a random
slate. Replay draws situations from the occurrence multiset, samples
clicks from the ground-truth affinities, and reports cumulative average
CTR every report period.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bandit import (Branch, FeedbackSource, Recommendation, TrialRecord,
                     random_slate, step)
from .casebase import DocumentStats, UserPreferences
from .errors import (ConfigError, ExhaustedPool, LabelMismatch, UnknownDoc,
                     UnknownPolicy)
from .ontology import Dimension, Taxonomy, taxonomy_from_dict, taxonomy_to_dict
from .simindex import SituationIndex
from .situation import Situation, Taxonomies


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
    parent_perturb_prob: float = 0.3
    second_perturb_prob: float = 0.0
    nav_entries_per_situation: int = 15

    def __post_init__(self):
        if self.groups < 1 or self.situations_per_group < 1 or self.docs < 1:
            raise ConfigError("groups, situations_per_group and docs must be >= 1")
        if self.taxonomy_depth < 2 or self.branching < 2:
            raise ConfigError("need taxonomy_depth >= 2 and branching >= 2")
        if self.preferred_docs_per_group * self.groups > self.docs:
            raise ConfigError("not enough documents for disjoint preferred sets")


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

    def affinity_of(self, s: Situation, doc_id: str) -> float:
        if doc_id not in self._doc_idx:
            raise UnknownDoc(doc_id)
        return float(self.affinity[self.group_of_situation(s),
                                   self._doc_idx[doc_id]])

    def sample_click(self, s: Situation, doc_id: str,
                     rng: np.random.Generator) -> int:
        return int(rng.random() < self.affinity_of(s, doc_id))

    def feedback_source(self, rng: np.random.Generator) -> FeedbackSource:
        """Click feedback for a slate plus organic (non-recommended) visits.

        Slate documents get one impression each and a Bernoulli click from
        the group affinity. The user additionally browses a few documents
        on their own, biased toward the group's preferred set; organically
        clicked documents enter the feedback with zero impressions.
        """
        cfg = self.config
        n_docs = len(self.doc_ids)

        def source(s: Situation, slate: List[str]
                   ) -> Tuple[UserPreferences, Dict[str, int]]:
            group = self.group_of_situation(s)
            row = self.affinity[group]
            docs: Dict[str, DocumentStats] = {}
            slate_clicks: Dict[str, int] = {}
            for doc_id in slate:
                p = row[self._doc_idx[doc_id]]
                click = int(rng.random() < p)
                docs[doc_id] = DocumentStats(
                    doc_id, clicks=click, impressions=1,
                    reading_time=click * float(rng.uniform(0.5, 5.0)))
                if click:
                    slate_clicks[doc_id] = click
            for _ in range(cfg.organic_browse):
                if rng.random() < cfg.organic_good_bias:
                    di = self.preferred[group][
                        int(rng.integers(len(self.preferred[group])))]
                else:
                    di = int(rng.integers(n_docs))
                doc_id = self.doc_ids[di]
                if doc_id in docs:
                    continue
                if rng.random() < row[di]:
                    docs[doc_id] = DocumentStats(
                        doc_id, clicks=1, impressions=0,
                        reading_time=float(rng.uniform(0.5, 5.0)))
            return UserPreferences(docs), slate_clicks

        return source


def _sample_prototypes(leaves: Tuple[list, list, list], cfg: WorldConfig,
                       index: SituationIndex,
                       rng: np.random.Generator) -> List[Situation]:
    protos: List[Situation] = []
    encoded: List[Tuple[int, int, int]] = []
    for _ in range(cfg.groups):
        placed = False
        for _attempt in range(2000):
            cand = Situation(*(lv[int(rng.integers(len(lv)))] for lv in leaves))
            e = index.encode(cand)
            ok = all(sum(index.per_dim_sims(e, other)) <= cfg.max_prototype_sim
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


def _perturb_dim(parts: List[str], dim: int, taxonomies: Taxonomies,
                 cfg: WorldConfig, rng: np.random.Generator) -> None:
    tax = taxonomies.as_tuple()[dim]
    concept = parts[dim]
    sibs = tax.siblings(concept)
    if not sibs or rng.random() < cfg.parent_perturb_prob:
        parts[dim] = tax.parent.get(concept, concept)
    else:
        parts[dim] = sibs[int(rng.integers(len(sibs)))]


def _perturb(s: Situation, taxonomies: Taxonomies, cfg: WorldConfig,
             rng: np.random.Generator) -> Situation:
    parts = list(s.as_tuple())
    dim = int(rng.integers(3))
    _perturb_dim(parts, dim, taxonomies, cfg, rng)
    if cfg.second_perturb_prob and rng.random() < cfg.second_perturb_prob:
        other = int(rng.integers(3))
        if other != dim:
            _perturb_dim(parts, other, taxonomies, cfg, rng)
    return Situation(*parts)


def _check_separation(world: SyntheticWorld) -> None:
    enc = np.array([world.index.encode(s) for s in world.situations]).T
    sim = world.index.pairwise_weighted(enc[0], enc[1], enc[2],
                                        (1.0, 1.0, 1.0))
    same = world.group_of[:, None] == world.group_of[None, :]
    off_diag = ~np.eye(len(world.situations), dtype=bool)
    intra = sim[same & off_diag]
    inter = sim[~same]
    if len(intra) and len(inter) and intra.mean() <= inter.mean():
        raise ConfigError(
            "generated world is not separable: mean intra-group similarity "
            f"{intra.mean():.3f} <= inter-group {inter.mean():.3f}")


def generate_world(cfg: WorldConfig, seed: int = 0) -> SyntheticWorld:
    rng = np.random.default_rng(seed)
    taxonomies = Taxonomies(
        balanced_taxonomy(Dimension.LOCATION, cfg.taxonomy_depth, cfg.branching),
        balanced_taxonomy(Dimension.TIME, cfg.taxonomy_depth, cfg.branching),
        balanced_taxonomy(Dimension.SOCIAL, cfg.taxonomy_depth, cfg.branching))
    index = SituationIndex(taxonomies)
    leaves = tuple(t.leaves() for t in taxonomies.as_tuple())
    prototypes = _sample_prototypes(leaves, cfg, index, rng)

    situations: List[Situation] = []
    group_of: List[int] = []
    seen = set()
    for g, proto in enumerate(prototypes):
        members = [proto]
        seen.add(proto)
        while len(members) < cfg.situations_per_group:
            cand = None
            for _attempt in range(50):
                cand = _perturb(proto, taxonomies, cfg, rng)
                if cand not in seen:
                    break
            seen.add(cand)
            members.append(cand)
        situations.extend(members)
        group_of.extend([g] * len(members))

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
        situations=situations, group_of=np.asarray(group_of),
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
    config_echo: dict
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
                      config_echo={"iterations": iterations,
                                   "report_period": report_period,
                                   "seed": seed,
                                   "world_seed": world.seed},
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
    from .bandit import (BanditConfig, GlobalEpsilonGreedy,
                         RecommendationEngine)

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


def world_from_dict(doc: dict) -> SyntheticWorld:
    cfg_doc = dict(doc["config"])
    for key in ("high_affinity", "background_affinity", "foreign_affinity"):
        cfg_doc[key] = tuple(cfg_doc[key])
    cfg = WorldConfig(**cfg_doc)
    taxonomies = Taxonomies(*(
        taxonomy_from_dict(doc["taxonomies"][dim.value], dim)
        for dim in Dimension))
    return SyntheticWorld(
        config=cfg, seed=doc["seed"], taxonomies=taxonomies,
        doc_ids=list(doc["doc_ids"]),
        situations=[Situation(*t) for t in doc["situations"]],
        group_of=np.asarray(doc["group_of"]),
        occurrences=np.asarray(doc["occurrences"]),
        affinity=np.asarray(doc["affinity"]),
        preferred=[list(p) for p in doc["preferred"]])


def save_world(world: SyntheticWorld, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(world_to_dict(world),
                                     separators=(",", ":"),
                                     sort_keys=True) + "\n")


def load_world(path: Union[str, Path]) -> SyntheticWorld:
    return world_from_dict(json.loads(Path(path).read_text()))


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

"""Seeded synthetic worlds for the replay benchmark.

The worlds are built here from the package's public pieces
(`balanced_taxonomy`, `Taxonomies`, `SyntheticWorld`) rather than by
`generate_world`, whose output repeats situations once a group's one-step
neighbourhood is used up. Every situation listed here is distinct.

Each group holds a random leaf-triple prototype and distinct situations
near it: the prototype's one-step neighbours first (one dimension moved to
a sibling or the parent), then random walks from its members, as the
acceptance world has 10 per group but the wide world needs 40. Document
affinities follow the generator's scheme: a low background, a sparse
high-affinity set per group, and a very low affinity for documents that
another group prefers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

import numpy as np

from situbandit.ontology import Dimension, wu_palmer
from situbandit.simdata import SyntheticWorld, WorldConfig, balanced_taxonomy
from situbandit.situation import Situation, Taxonomies


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    iterations: int
    depth: int
    branching: int
    groups: int
    situations_per_group: int
    docs: int
    preferred_docs_per_group: int
    occurrences: int


# Policies run at their defaults: epsilon 0.1, B 2.4, nc 10, ct 40.
WORKLOADS = {
    w.name: w for w in (
        # Acceptance shape: 100 distinct situations, so the case base is
        # full after a few hundred trials and every later trial merges.
        Workload("saturated", "clustering-eps-greedy", 10000, depth=4,
                 branching=3, groups=10, situations_per_group=10, docs=400,
                 preferred_docs_per_group=10, occurrences=100),
        # 4000 distinct situations drawn 5 times each: about 1.6k of the
        # 2k trials insert a case, so re-clustering works on a growing set.
        Workload("growing", "clustering-eps-greedy", 2000, depth=5,
                 branching=4, groups=100, situations_per_group=40,
                 docs=2000, preferred_docs_per_group=10, occurrences=5),
        # The saturated world under the context-free global bandit.
        Workload("context-free", "eps-greedy", 10000, depth=4, branching=3,
                 groups=10, situations_per_group=10, docs=400,
                 preferred_docs_per_group=10, occurrences=100),
    )
}

HIGH_AFFINITY = (0.5, 0.9)
BACKGROUND_AFFINITY = (0.01, 0.05)
FOREIGN_AFFINITY = (0.001, 0.01)
MAX_PROTOTYPE_SIM = 1.9


def _neighbours(tax, concept: str) -> List[str]:
    out = tax.siblings(concept) + tax.children(concept)
    parent = tax.parent.get(concept)
    if parent is not None and parent != tax.root:
        out.append(parent)
    return out


def _one_step(taxes, s: Situation) -> List[Situation]:
    out = []
    for dim in range(3):
        for c in _neighbours(taxes[dim], s.as_tuple()[dim]):
            parts = list(s.as_tuple())
            parts[dim] = c
            out.append(Situation(*parts))
    return out


def _prototypes(taxes, n: int, rng: np.random.Generator) -> List[Situation]:
    """Distinct leaf triples; like the package's generator, each pair
    shares at most MAX_PROTOTYPE_SIM of unweighted similarity, as long as
    a few hundred draws find one that does."""
    leaves = tuple(t.leaves() for t in taxes)
    protos: List[Situation] = []
    for _ in range(n):
        for attempt in range(500):
            cand = Situation(*(lv[int(rng.integers(len(lv)))]
                               for lv in leaves))
            if cand in protos:
                continue
            if attempt == 499 or all(
                    sum(wu_palmer(t, a, b) for t, a, b in
                        zip(taxes, cand.as_tuple(), p.as_tuple()))
                    <= MAX_PROTOTYPE_SIM for p in protos):
                break
        protos.append(cand)
    return protos


def _grow_groups(taxonomies: Taxonomies, w: Workload,
                 rng: np.random.Generator) -> List[List[Situation]]:
    """Each group takes its prototype's one-step neighbours first, in a
    random order, then grows by random walks from its members."""
    taxes = taxonomies.as_tuple()
    protos = _prototypes(taxes, w.groups, rng)
    seen = set(protos)
    groups: List[List[Situation]] = []
    for proto in protos:
        members = [proto]
        near = _one_step(taxes, proto)
        for i in rng.permutation(len(near)):
            if len(members) == w.situations_per_group:
                break
            if near[i] not in seen:
                seen.add(near[i])
                members.append(near[i])
        while len(members) < w.situations_per_group:
            parts = list(members[int(rng.integers(len(members)))].as_tuple())
            dim = int(rng.integers(3))
            options = _neighbours(taxes[dim], parts[dim])
            parts[dim] = options[int(rng.integers(len(options)))]
            cand = Situation(*parts)
            if cand not in seen:
                seen.add(cand)
                members.append(cand)
        groups.append(members)
    return groups


def build_world(w: Workload, seed: int) -> SyntheticWorld:
    """The workload's world for `seed`; equal seeds give equal worlds."""
    rng = np.random.default_rng(seed)
    taxonomies = Taxonomies(*(balanced_taxonomy(d, w.depth, w.branching)
                              for d in (Dimension.LOCATION, Dimension.TIME,
                                        Dimension.SOCIAL)))
    groups = _grow_groups(taxonomies, w, rng)
    situations = [s for members in groups for s in members]
    group_of = np.repeat(np.arange(w.groups), w.situations_per_group)

    width = len(str(w.docs - 1))
    doc_ids = [f"d{i:0{width}d}" for i in range(w.docs)]
    affinity = rng.uniform(*BACKGROUND_AFFINITY, size=(w.groups, w.docs))
    doc_perm = rng.permutation(w.docs)
    k = w.preferred_docs_per_group
    preferred = []
    for g in range(w.groups):
        mine = sorted(int(d) for d in doc_perm[g * k:(g + 1) * k])
        preferred.append(mine)
        affinity[:, mine] = rng.uniform(*FOREIGN_AFFINITY,
                                        size=(w.groups, k))
        affinity[g, mine] = rng.uniform(*HIGH_AFFINITY, size=k)

    cfg = WorldConfig(groups=w.groups,
                      situations_per_group=w.situations_per_group,
                      docs=w.docs, taxonomy_depth=w.depth,
                      branching=w.branching, preferred_docs_per_group=k,
                      occurrences_per_situation=w.occurrences)
    return SyntheticWorld(
        config=cfg, seed=seed, taxonomies=taxonomies, doc_ids=doc_ids,
        situations=situations, group_of=group_of,
        occurrences=np.full(len(situations), w.occurrences),
        affinity=affinity, preferred=preferred)


def fingerprint(world: SyntheticWorld) -> str:
    """Digest of the generated inputs: situations, groups, occurrence
    budgets and affinity bytes. Results are comparable only when it
    matches."""
    h = hashlib.sha256()
    for s in world.situations:
        h.update("\x1f".join(s.as_tuple()).encode() + b"\x1e")
    for arr, dtype in ((world.group_of, "<i8"), (world.occurrences, "<i8"),
                       (world.affinity, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]

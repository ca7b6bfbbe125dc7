"""Situation-aware contextual-bandit recommendation engine and offline
replay simulation harness."""

from .bandit import (BanditConfig, Branch, EpsilonTunerState,
                     GlobalEpsilonGreedy, Recommendation,
                     RecommendationEngine, TrialRecord, epsilon_greedy,
                     random_slate, step, tune_epsilon)
from .casebase import (Case, CaseBase, DocumentStats, RetrievalResult,
                       UserPreferences)
from .clustering import (ClusteringConfig, ClusteringResult,
                         cluster_situations, kmedoids)
from .ontology import (Dimension, Taxonomy, depth, lcs, taxonomy_from_dict,
                       taxonomy_to_dict, wu_palmer)
from .simdata import (EvalReport, OraclePolicy, RandomPolicy, SyntheticWorld,
                      WorldConfig, build_policy, clustering_precision,
                      export_diary, generate_world, load_world,
                      replay_evaluate, save_world)
from .simindex import SituationIndex
from .situation import DimensionWeights, Situation, Taxonomies

__version__ = "0.1.0"

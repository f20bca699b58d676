"""Core package-recommendation model: the paper's primary contribution.

This subpackage contains the data model (items, aggregate feature profiles,
packages), the linear utility function with Bayesian uncertainty, the
preference store fed by implicit click feedback, the ranking semantics
(EXP / TKP / MPO), and the top-level :class:`PackageRecommender` that ties the
whole preference-elicitation loop together.
"""

from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile, Aggregation
from repro.core.packages import Package, PackageEvaluator
from repro.core.utility import LinearUtility, sample_random_utility
from repro.core.preferences import (
    HistoryTrie,
    Preference,
    PreferenceCycleError,
    PreferenceStore,
)
from repro.core.ranking import (
    RankingSemantics,
    rank_packages_exp,
    rank_packages_mpo,
    rank_packages_tkp,
    rank_from_samples,
)
from repro.core.noise import NoiseModel
from repro.core.predicates import (
    MaxCountPredicate,
    MinCountPredicate,
    PackagePredicate,
    PredicateSet,
)
from repro.core.elicitation import ElicitationConfig, PackageRecommender, RecommendationRound

__all__ = [
    "ItemCatalog",
    "AggregateProfile",
    "Aggregation",
    "Package",
    "PackageEvaluator",
    "LinearUtility",
    "sample_random_utility",
    "Preference",
    "PreferenceStore",
    "PreferenceCycleError",
    "HistoryTrie",
    "RankingSemantics",
    "rank_packages_exp",
    "rank_packages_tkp",
    "rank_packages_mpo",
    "rank_from_samples",
    "NoiseModel",
    "PackagePredicate",
    "MinCountPredicate",
    "MaxCountPredicate",
    "PredicateSet",
    "ElicitationConfig",
    "PackageRecommender",
    "RecommendationRound",
]

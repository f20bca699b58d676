"""repro — reproduction of "Generating Top-k Packages via Preference Elicitation".

Xie, Lakshmanan and Wood, PVLDB 7(14), 2014.

The public API re-exports the pieces most users need:

* data model: :class:`ItemCatalog`, :class:`AggregateProfile`, :class:`Package`,
  :class:`PackageEvaluator`;
* the preference-elicitation recommender: :class:`PackageRecommender`,
  :class:`ElicitationConfig`;
* constrained samplers: :class:`RejectionSampler`, :class:`ImportanceSampler`,
  :class:`MetropolisHastingsSampler`;
* top-k package search: :class:`TopKPackageSearcher` (one weight vector),
  :class:`BatchTopKPackageSearcher` (a whole pool, one shared walk);
* ranking semantics: :class:`RankingSemantics`;
* dataset generators: :func:`load_benchmark_dataset`, :func:`generate_nba_dataset`;
* columnar catalog storage: :func:`write_catalog_store` /
  :func:`open_catalog_store` (memory-mapped catalogs) and the pushdown
  predicates :class:`NumericRangePredicate`, :class:`CategoryPredicate`,
  :class:`CatalogPredicateSet`;
* the online serving engine: :class:`RecommendationEngine`,
  :class:`EngineConfig`, :class:`TrafficSimulator`, and its
  pool state layer :class:`PoolRepository` with :class:`WarmStartPlanner`,
  the key-seeded fill description :class:`FillSpec`, and the
  approximate pool-reuse subsystem :class:`PoolAdapter`
  (:class:`AdaptationConfig`);
* the async front-end: :class:`AsyncRecommendationServer`,
  :class:`MicroBatchDispatcher`, :class:`AsyncTrafficSimulator`;
* observability: :class:`Telemetry` (request tracing + alarms),
  :class:`MetricsRegistry` (counters / gauges / log-bucketed histograms
  with Prometheus text exposition), :class:`JsonLinesTraceSink`.

See README.md for a quickstart and DESIGN.md for the architecture.
"""

from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile, Aggregation
from repro.core.packages import Package, PackageEvaluator
from repro.core.utility import LinearUtility, sample_random_utility
from repro.core.preferences import Preference, PreferenceCycleError, PreferenceStore
from repro.core.ranking import RankingSemantics
from repro.core.noise import NoiseModel
from repro.core.predicates import (
    MaxCountPredicate,
    MinCountPredicate,
    PackagePredicate,
    PredicateSet,
    SizePredicate,
)
from repro.core.elicitation import (
    ElicitationConfig,
    PackageRecommender,
    RecommendationRound,
)
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.rejection import RejectionSampler
from repro.sampling.importance import ImportanceSampler
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.topk.package_search import PackageSearchResult, TopKPackageSearcher
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.topk.bruteforce import brute_force_top_k_packages
from repro.data.datasets import load_benchmark_dataset
from repro.data.nba import generate_nba_dataset
from repro.data.columnar import (
    CatalogPredicate,
    CatalogPredicateSet,
    CategoryPredicate,
    NumericRangePredicate,
    open_catalog_store,
    write_catalog_store,
)
from repro.simulation.user import SimulatedUser
from repro.simulation.session import ElicitationSession
from repro.simulation.traffic import (
    AsyncLoadReport,
    AsyncTrafficSimulator,
    AsyncWorkloadSpec,
    LoadReport,
    TrafficSimulator,
    WorkloadSpec,
)
from repro.obs import (
    InMemoryTraceSink,
    JsonLinesTraceSink,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.reweight import (
    ess_deficit,
    importance_reweight,
    residual_resample,
)
from repro.service import (
    AdaptationConfig,
    AdaptationStats,
    ConstraintSimilarityIndex,
    FillSpec,
    PoolAdapter,
    AsyncRecommendationServer,
    DispatcherClosedError,
    DispatcherOverloadedError,
    MicroBatchDispatcher,
    EngineConfig,
    EngineStats,
    EventLog,
    EventLogCorruptionError,
    EventLogStore,
    JsonSessionStore,
    MemorySessionStore,
    ReplayDivergenceError,
    RetentionReport,
    mine_click_prefixes,
    RecommendationEngine,
    SamplePoolCache,
    SessionExpiredError,
    SessionManager,
    SessionNotFoundError,
    PoolRepository,
    SqliteSessionStore,
    WarmStartPlanner,
)

__version__ = "1.1.0"

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
    "RankingSemantics",
    "NoiseModel",
    "PackagePredicate",
    "PredicateSet",
    "MinCountPredicate",
    "MaxCountPredicate",
    "SizePredicate",
    "ElicitationConfig",
    "PackageRecommender",
    "RecommendationRound",
    "ConstraintSet",
    "SamplePool",
    "GaussianMixture",
    "RejectionSampler",
    "ImportanceSampler",
    "MetropolisHastingsSampler",
    "TopKPackageSearcher",
    "BatchTopKPackageSearcher",
    "PackageSearchResult",
    "brute_force_top_k_packages",
    "load_benchmark_dataset",
    "generate_nba_dataset",
    "CatalogPredicate",
    "CatalogPredicateSet",
    "CategoryPredicate",
    "NumericRangePredicate",
    "open_catalog_store",
    "write_catalog_store",
    "SimulatedUser",
    "ElicitationSession",
    "TrafficSimulator",
    "WorkloadSpec",
    "LoadReport",
    "AsyncTrafficSimulator",
    "AsyncWorkloadSpec",
    "AsyncLoadReport",
    "AsyncRecommendationServer",
    "MicroBatchDispatcher",
    "DispatcherClosedError",
    "DispatcherOverloadedError",
    "Telemetry",
    "MetricsRegistry",
    "Tracer",
    "InMemoryTraceSink",
    "JsonLinesTraceSink",
    "BatchRejectionSampler",
    "ess_deficit",
    "importance_reweight",
    "residual_resample",
    "AdaptationConfig",
    "AdaptationStats",
    "ConstraintSimilarityIndex",
    "PoolAdapter",
    "RecommendationEngine",
    "EngineConfig",
    "EngineStats",
    "SessionManager",
    "SessionNotFoundError",
    "SessionExpiredError",
    "SamplePoolCache",
    "FillSpec",
    "PoolRepository",
    "WarmStartPlanner",
    "MemorySessionStore",
    "JsonSessionStore",
    "SqliteSessionStore",
    "EventLog",
    "EventLogCorruptionError",
    "EventLogStore",
    "ReplayDivergenceError",
    "RetentionReport",
    "mine_click_prefixes",
    "__version__",
]

"""Dataset substrates: synthetic benchmark generators and the NBA substitute.

The paper evaluates on one real dataset (NBA career statistics) and four
synthetic datasets (UNI, PWR, COR, ANT) produced with the benchmark generator
of Börzsönyi et al.  We re-implement the generator and synthesise an NBA-like
table (see DESIGN.md §4 for the substitution rationale).
"""

from repro.data.generators import (
    generate_anticorrelated,
    generate_correlated,
    generate_dataset,
    generate_powerlaw,
    generate_uniform,
    SyntheticDatasetSpec,
)
from repro.data.nba import NBA_FEATURES, generate_nba_dataset
from repro.data.datasets import DatasetCatalog, load_benchmark_dataset
from repro.data.columnar import (
    CatalogPredicate,
    CatalogPredicateSet,
    CategoryPredicate,
    MmapBacking,
    NumericRangePredicate,
    open_catalog_store,
    write_catalog_store,
)

__all__ = [
    "CatalogPredicate",
    "CatalogPredicateSet",
    "CategoryPredicate",
    "MmapBacking",
    "NumericRangePredicate",
    "open_catalog_store",
    "write_catalog_store",
    "generate_uniform",
    "generate_powerlaw",
    "generate_correlated",
    "generate_anticorrelated",
    "generate_dataset",
    "SyntheticDatasetSpec",
    "generate_nba_dataset",
    "NBA_FEATURES",
    "DatasetCatalog",
    "load_benchmark_dataset",
]

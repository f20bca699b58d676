"""Top-k query processing: items (classic TA) and packages (Top-k-Pkg, §4).

* :mod:`repro.topk.sorted_lists` — per-feature sorted item lists with
  round-robin access and the boundary value vector τ.
* :mod:`repro.topk.threshold` — the classical threshold algorithm for top-k
  *items*, a substrate the paper builds on (citing Ilyas et al.).
* :mod:`repro.topk.package_search` — the paper's ``Top-k-Pkg`` algorithm
  (Algorithms 2–4) for top-k *packages* under a fixed weight vector.
* :mod:`repro.topk.batch_search` — the vectorised batch variant: one shared
  sorted-list walk answering ``Top-k-Pkg`` for a whole matrix of weight
  vectors at once (the per-sample hot path of elicitation and serving).
* :mod:`repro.topk.bruteforce` — exhaustive package enumeration, used as a
  correctness oracle and for tiny instances such as the paper's Figure 1/2
  worked example.
"""

from repro.topk.sorted_lists import SortedItemLists
from repro.topk.threshold import top_k_items
from repro.topk.package_search import (
    PackageSearchResult,
    TopKPackageSearcher,
    canonical_package_utilities,
    canonical_package_vectors,
)
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.topk.bruteforce import brute_force_top_k_packages, enumerate_package_space

__all__ = [
    "SortedItemLists",
    "top_k_items",
    "TopKPackageSearcher",
    "BatchTopKPackageSearcher",
    "PackageSearchResult",
    "canonical_package_utilities",
    "canonical_package_vectors",
    "brute_force_top_k_packages",
    "enumerate_package_space",
]

"""Item model: the set ``T`` of items with ``m`` numeric features.

The paper's problem setting (§2) assumes a set ``T`` of ``n`` items, each
represented by an ``m``-dimensional non-negative feature vector; individual
feature values may be ``null`` (the item does not carry that feature).
:class:`ItemCatalog` wraps the item–feature matrix, tracks nulls with a mask,
and exposes the per-feature statistics the rest of the system needs (maximum
values for normalisation, per-feature sorted orderings for the top-k search).

Storage is pluggable: the catalog delegates all data access to a *backing*
object.  :class:`MaterializedBacking` (this module) holds the matrix in
memory — the construction path every caller has always used — and caches the
per-feature desirability sort orders in a shared :class:`SortedOrderCache`
so building many :class:`~repro.topk.sorted_lists.SortedItemLists` cursors
over one catalog argsorts each feature at most once.
``repro.data.columnar.MmapBacking`` implements the same interface over a
persistent columnar store opened with ``np.memmap``: the sort orders are
*read* rather than computed, and the per-column summaries come from the store
header, so a cold process attaches in milliseconds and only the rows a search
actually touches are ever paged in.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require_matrix


def compute_feature_order(column: np.ndarray, descending: bool = True) -> np.ndarray:
    """Stable desirability argsort of one feature column (nulls sort last).

    The single definition both backings share: the materialized backing runs
    it on demand, the columnar store writer runs it once at write time — so a
    stored order is bit-identical to the order a live argsort would produce,
    including the placement of ties (stable) and of nulls (always last,
    whichever direction is asked for).
    """
    column = np.asarray(column, dtype=float).copy()
    if descending:
        column[np.isnan(column)] = -np.inf
        return np.argsort(-column, kind="stable")
    column[np.isnan(column)] = np.inf
    return np.argsort(column, kind="stable")


def catalog_content_digest(features: np.ndarray, null_mask: np.ndarray) -> str:
    """Content digest of a catalog's data, independent of how it is stored.

    Hashes the raw float64 bytes column by column plus the null mask, so a
    materialized catalog and a columnar store written from it (or opened via
    mmap) report the same digest — the property that lets pool-fill contexts
    and worker processes reference a catalog by content instead of by object.
    """
    features = np.asarray(features)
    hasher = hashlib.blake2b(digest_size=16)
    n, m = features.shape
    hasher.update(f"repro-catalog:{n}:{m}:".encode())
    for j in range(m):
        hasher.update(
            np.ascontiguousarray(features[:, j], dtype=np.float64).tobytes()
        )
    hasher.update(
        np.ascontiguousarray(np.asarray(null_mask).T, dtype=np.uint8).tobytes()
    )
    return hasher.hexdigest()


class ColumnSummary(NamedTuple):
    """Per-column statistics used for normalisation and predicate pruning.

    ``vmin`` / ``vmax`` are over the *non-null* values (``nan`` when the
    column is entirely null); ``null_count`` is the number of null entries.
    """

    vmin: float
    vmax: float
    null_count: int


class SortedOrderCache:
    """Thread-safe cache of per-feature sort orders, shared across cursors.

    Every :class:`~repro.topk.sorted_lists.SortedItemLists` cursor needs one
    ordering per active feature; before this cache each cursor re-argsorted
    its columns — O(F·N log N) per cursor, paid once per weight vector per
    search.  The cache keys orders by ``(feature, descending)`` so every
    cursor over a catalog shares each order, computed at most once.

    Returned arrays are shared — callers must treat them as read-only.
    """

    def __init__(self) -> None:
        self._orders: Dict[Tuple[int, bool], np.ndarray] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._orders)

    def get(
        self, key: Tuple[int, bool], compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        order = self._orders.get(key)
        if order is None:
            with self._lock:
                order = self._orders.get(key)
                if order is None:
                    order = compute()
                    self._orders[key] = order
        return order

    def clear(self) -> None:
        with self._lock:
            self._orders.clear()


class MaterializedBacking:
    """In-memory catalog storage: the feature matrix held as one ndarray.

    Implements the backing interface the catalog delegates to (``features``,
    ``null_mask``, ``feature_column``, ``argsort_feature``,
    ``column_summary``, ``feature_top_values``, ``content_digest``).  Sort
    orders are cached in a :class:`SortedOrderCache`; column summaries and
    the content digest are computed lazily and cached.
    """

    kind = "materialized"

    def __init__(
        self, features: np.ndarray, null_mask: Optional[np.ndarray] = None
    ) -> None:
        self._features = features
        self._null_mask = (
            np.isnan(features) if null_mask is None else null_mask
        )
        self.order_cache = SortedOrderCache()
        self._summaries: Dict[int, ColumnSummary] = {}
        self._digest: Optional[str] = None

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def null_mask(self) -> np.ndarray:
        return self._null_mask

    @property
    def num_items(self) -> int:
        return self._features.shape[0]

    @property
    def num_features(self) -> int:
        return self._features.shape[1]

    def feature_column(self, feature_index: int, fill_null: float = 0.0) -> np.ndarray:
        column = self._features[:, feature_index].copy()
        column[np.isnan(column)] = fill_null
        return column

    def argsort_feature(self, feature_index: int, descending: bool = True) -> np.ndarray:
        return self.order_cache.get(
            (feature_index, bool(descending)),
            lambda: compute_feature_order(
                self._features[:, feature_index], descending
            ),
        )

    def column_summary(self, feature_index: int) -> ColumnSummary:
        summary = self._summaries.get(feature_index)
        if summary is None:
            column = self._features[:, feature_index]
            null = np.isnan(column)
            valid = column[~null]
            summary = ColumnSummary(
                vmin=float(valid.min()) if valid.size else float("nan"),
                vmax=float(valid.max()) if valid.size else float("nan"),
                null_count=int(null.sum()),
            )
            self._summaries[feature_index] = summary
        return summary

    def feature_top_values(self, feature_index: int, count: int) -> np.ndarray:
        order = self.argsort_feature(feature_index, descending=True)[:count]
        values = self._features[np.asarray(order, dtype=int), feature_index]
        return np.where(np.isnan(values), 0.0, values)

    def content_digest(self) -> str:
        if self._digest is None:
            self._digest = catalog_content_digest(self._features, self._null_mask)
        return self._digest


class ItemCatalog:
    """A collection of items described by a numeric feature matrix.

    Parameters
    ----------
    features:
        ``(n, m)`` matrix of feature values.  Values must be non-negative
        (the paper assumes non-negative feature values w.l.o.g.); ``NaN``
        entries are interpreted as ``null`` (feature absent for that item).
    feature_names:
        Optional human-readable feature names; defaults to ``f1..fm``.
    item_ids:
        Optional external identifiers; defaults to ``0..n-1``.
    """

    def __init__(
        self,
        features: np.ndarray,
        feature_names: Optional[Sequence[str]] = None,
        item_ids: Optional[Sequence] = None,
    ) -> None:
        matrix = require_matrix(features, "features")
        if matrix.shape[0] == 0:
            raise ValueError("an ItemCatalog requires at least one item")
        finite = matrix[~np.isnan(matrix)]
        if finite.size and (finite < 0).any():
            raise ValueError(
                "feature values must be non-negative (the paper assumes "
                "non-negative values w.l.o.g.); found negative entries"
            )
        self._backing = MaterializedBacking(matrix)
        self._init_labels(feature_names, item_ids)

    def _init_labels(
        self,
        feature_names: Optional[Sequence[str]],
        item_ids: Optional[Sequence],
    ) -> None:
        n, m = self._backing.num_items, self._backing.num_features
        if feature_names is None:
            feature_names = [f"f{i + 1}" for i in range(m)]
        if len(feature_names) != m:
            raise ValueError(
                f"expected {m} feature names, got {len(feature_names)}"
            )
        self.feature_names: List[str] = list(feature_names)
        if item_ids is None:
            item_ids = list(range(n))
        if len(item_ids) != n:
            raise ValueError(f"expected {n} item ids, got {len(item_ids)}")
        self.item_ids = list(item_ids)

    @classmethod
    def from_backing(
        cls,
        backing,
        feature_names: Optional[Sequence[str]] = None,
        item_ids: Optional[Sequence] = None,
    ) -> "ItemCatalog":
        """Wrap an already-validated storage backing (no data scan).

        Used by ``repro.data.columnar.open_catalog_store``: the non-negativity
        validation ran when the store was written, so opening skips it — the
        whole point of the mmap path is that attaching does not read the data.
        """
        catalog = cls.__new__(cls)
        catalog._backing = backing
        catalog._init_labels(feature_names, item_ids)
        return catalog

    # ----------------------------------------------------------------- backing
    @property
    def backing(self):
        """The storage backing (``MaterializedBacking`` or ``MmapBacking``)."""
        return self._backing

    @property
    def backing_kind(self) -> str:
        """``"materialized"`` or ``"mmap"``."""
        return self._backing.kind

    @property
    def store_path(self) -> Optional[str]:
        """Path of the columnar store backing this catalog, if any."""
        return getattr(self._backing, "path", None)

    def content_digest(self) -> str:
        """Digest of the catalog's data — equal across storage backings."""
        return self._backing.content_digest()

    # ------------------------------------------------------------------ shape
    @property
    def num_items(self) -> int:
        """Number of items ``n``."""
        return self._backing.num_items

    @property
    def num_features(self) -> int:
        """Number of features ``m``."""
        return self._backing.num_features

    def __len__(self) -> int:
        return self.num_items

    # ------------------------------------------------------------------ access
    @property
    def features(self) -> np.ndarray:
        """The raw ``(n, m)`` feature matrix (NaN marks null values).

        For an mmap-backed catalog this is a lazy transposed view of the
        column-major store: indexing it reads only the touched rows/columns
        from the page cache, never the whole table.
        """
        return self._backing.features

    @property
    def null_mask(self) -> np.ndarray:
        """Boolean ``(n, m)`` mask; ``True`` where the feature value is null."""
        return self._backing.null_mask

    def feature_values(self, item_index: int) -> np.ndarray:
        """Feature vector of one item (may contain NaN for null features)."""
        return self._backing.features[item_index]

    def feature_column(self, feature_index: int, fill_null: float = 0.0) -> np.ndarray:
        """Values of one feature across all items, with nulls filled."""
        return self._backing.feature_column(feature_index, fill_null)

    def filled(self, fill_null: float = 0.0) -> np.ndarray:
        """Copy of the feature matrix with null values replaced by ``fill_null``.

        Materialises the full table — avoid on large mmap-backed catalogs
        (the package-search path never calls it; only the item-level
        threshold/skyline baselines do).
        """
        matrix = np.array(self._backing.features, dtype=float)
        matrix[np.isnan(matrix)] = fill_null
        return matrix

    def has_nulls(self) -> bool:
        """Whether any item has a null feature value."""
        return any(
            self._backing.column_summary(j).null_count > 0
            for j in range(self.num_features)
        )

    # ------------------------------------------------------------------ stats
    def column_summary(self, feature_index: int) -> ColumnSummary:
        """Per-column min/max over non-null values plus the null count."""
        return self._backing.column_summary(feature_index)

    def feature_max(self) -> np.ndarray:
        """Per-feature maximum value over items (nulls ignored, 0 if all null)."""
        values = np.zeros(self.num_features)
        for j in range(self.num_features):
            summary = self._backing.column_summary(j)
            values[j] = 0.0 if np.isnan(summary.vmax) else summary.vmax
        return values

    def feature_min(self) -> np.ndarray:
        """Per-feature minimum value over non-null items (0 if all null)."""
        values = np.zeros(self.num_features)
        for j in range(self.num_features):
            summary = self._backing.column_summary(j)
            values[j] = 0.0 if np.isnan(summary.vmin) else summary.vmin
        return values

    def feature_top_values(self, feature_index: int, count: int) -> np.ndarray:
        """The ``count`` largest values of one feature, descending, nulls as 0.

        Read through the stored/cached descending sort order, so an
        mmap-backed catalog touches only ``count`` entries.  Bit-identical to
        ``np.sort(feature_column(j))[::-1][:count]`` (same multiset, same
        non-increasing order), which is what the normaliser computation used
        to re-sort the column for.
        """
        return self._backing.feature_top_values(feature_index, count)

    def argsort_feature(self, feature_index: int, descending: bool = True) -> np.ndarray:
        """Indices of items sorted by one feature (nulls sort last).

        Returns the cached (materialized backing) or stored (mmap backing)
        order — shared, so callers must not mutate the returned array.
        """
        return self._backing.argsort_feature(feature_index, descending)

    # ------------------------------------------------------------------ slicing
    def subset(self, indices: Iterable[int]) -> "ItemCatalog":
        """A new catalog restricted to ``indices`` (keeps ids and names).

        The subset is always materialized, whatever the source backing.
        """
        idx = np.asarray(list(indices), dtype=int)
        return ItemCatalog(
            np.array(self._backing.features[idx], dtype=float),
            feature_names=self.feature_names,
            item_ids=[self.item_ids[i] for i in idx],
        )

    def select_features(self, feature_indices: Iterable[int]) -> "ItemCatalog":
        """A new catalog restricted to the given feature columns."""
        idx = list(feature_indices)
        return ItemCatalog(
            np.array(self._backing.features[:, idx], dtype=float),
            feature_names=[self.feature_names[i] for i in idx],
            item_ids=self.item_ids,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ItemCatalog(num_items={self.num_items}, "
            f"num_features={self.num_features}, backing={self.backing_kind!r})"
        )

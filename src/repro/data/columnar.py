"""Persistent columnar catalog store, opened with ``np.memmap``.

A catalog store is a directory holding the item–feature table column-major,
its derived access structures precomputed, and a JSON header:

```
store/
├── catalog.json   header: format, version, shape, names, digest,
│                  per-column summaries (min/max over non-null, null count)
├── columns.f64    (m, n) float64, C-order — each feature column contiguous
├── orders.i64     (2, m, n) int64 — [0] descending, [1] ascending
│                  per-feature stable argsort orders, nulls last
└── nulls.u8       (m, n) uint8 — per-column null bitmap
```

``write_catalog_store`` runs the full construction cost (validation,
argsorts, digest) exactly once; ``open_catalog_store`` attaches the three
flat files read-only via ``np.memmap`` and wraps them in
:class:`MmapBacking`, so a cold engine process gets a working
:class:`~repro.core.items.ItemCatalog` in milliseconds — the sorted orders
the Top-k-Pkg walk consumes are *read*, never recomputed, and N processes
mapping one store share a single page cache instead of holding N copies.

The module also provides predicate pushdown (:class:`NumericRangePredicate`,
:class:`CategoryPredicate`, :class:`CatalogPredicateSet`): predicates are
answered against the per-column summaries and the stored ascending orders by
binary search — O(log n) value reads plus the matching index span — before
any item row is materialized, so a selective search touches O(k + pruned
frontier) rows of a disk-resident catalog rather than scanning the table.

Stores are content-addressed: the header records a digest of the raw column
bytes (equal to ``ItemCatalog.content_digest()`` of the materialized
equivalent).
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.items import (
    ColumnSummary,
    ItemCatalog,
    catalog_content_digest,
    compute_feature_order,
)

STORE_FORMAT = "repro-columnar"
STORE_VERSION = 1
HEADER_FILE = "catalog.json"
COLUMNS_FILE = "columns.f64"
ORDERS_FILE = "orders.i64"
NULLS_FILE = "nulls.u8"


# --------------------------------------------------------------------- writing
def write_catalog_store(catalog: ItemCatalog, path: str) -> str:
    """Write ``catalog`` as a columnar store directory; returns the digest.

    Pays the full construction cost once: transposes the table to
    column-major, argsorts every feature in both desirability directions
    through :func:`~repro.core.items.compute_feature_order` (the same
    routine the materialized backing uses, so stored orders are
    bit-identical to live ones), and digests the raw column bytes.
    """
    os.makedirs(path, exist_ok=True)
    features = np.ascontiguousarray(
        np.asarray(catalog.features, dtype=np.float64).T
    )  # (m, n): each feature column contiguous
    m, n = features.shape
    nulls = np.isnan(features)

    orders = np.empty((2, m, n), dtype=np.int64)
    for j in range(m):
        orders[0, j] = compute_feature_order(features[j], descending=True)
        orders[1, j] = compute_feature_order(features[j], descending=False)

    digest = catalog_content_digest(features.T, nulls.T)

    columns_meta = []
    for j in range(m):
        valid = features[j][~nulls[j]]
        columns_meta.append(
            {
                "name": catalog.feature_names[j],
                "min": float(valid.min()) if valid.size else None,
                "max": float(valid.max()) if valid.size else None,
                "null_count": int(nulls[j].sum()),
            }
        )

    default_ids = catalog.item_ids == list(range(n))
    header = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "digest": digest,
        "num_items": n,
        "num_features": m,
        "feature_names": list(catalog.feature_names),
        "item_ids": None if default_ids else list(catalog.item_ids),
        "columns": columns_meta,
    }

    features.tofile(os.path.join(path, COLUMNS_FILE))
    orders.tofile(os.path.join(path, ORDERS_FILE))
    nulls.astype(np.uint8).tofile(os.path.join(path, NULLS_FILE))
    with open(os.path.join(path, HEADER_FILE), "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=2)
        handle.write("\n")
    return digest


# --------------------------------------------------------------------- backing
class MmapBacking:
    """Catalog storage over a columnar store directory, mapped read-only.

    Attaching touches only the JSON header — the three data files are
    ``np.memmap``-ed, so rows are paged in lazily as a search reads them.
    ``argsort_feature`` returns a slice of the stored order file (no
    computation); column summaries come from the header; ``features`` is a
    lazy transposed view of the column-major table.
    """

    kind = "mmap"

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        header_path = os.path.join(self.path, HEADER_FILE)
        with open(header_path, encoding="utf-8") as handle:
            header = json.load(handle)
        if header.get("format") != STORE_FORMAT:
            raise ValueError(
                f"{header_path}: not a {STORE_FORMAT} store "
                f"(format={header.get('format')!r})"
            )
        if header.get("version") != STORE_VERSION:
            raise ValueError(
                f"{header_path}: unsupported store version "
                f"{header.get('version')!r} (this build reads {STORE_VERSION})"
            )
        self.header = header
        n = int(header["num_items"])
        m = int(header["num_features"])
        self._n, self._m = n, m

        expected = {
            COLUMNS_FILE: m * n * 8,
            ORDERS_FILE: 2 * m * n * 8,
            NULLS_FILE: m * n,
        }
        for name, size in expected.items():
            file_path = os.path.join(self.path, name)
            actual = os.path.getsize(file_path)
            if actual != size:
                raise ValueError(
                    f"{file_path}: expected {size} bytes for shape "
                    f"({n} items x {m} features), found {actual}"
                )

        self._columns = np.memmap(
            os.path.join(self.path, COLUMNS_FILE),
            dtype=np.float64, mode="r", shape=(m, n),
        )
        self._orders = np.memmap(
            os.path.join(self.path, ORDERS_FILE),
            dtype=np.int64, mode="r", shape=(2, m, n),
        )
        self._nulls = np.memmap(
            os.path.join(self.path, NULLS_FILE),
            dtype=np.uint8, mode="r", shape=(m, n),
        )
        self._summaries: List[ColumnSummary] = [
            ColumnSummary(
                vmin=float("nan") if meta["min"] is None else float(meta["min"]),
                vmax=float("nan") if meta["max"] is None else float(meta["max"]),
                null_count=int(meta["null_count"]),
            )
            for meta in header["columns"]
        ]

    @property
    def features(self) -> np.ndarray:
        """Lazy ``(n, m)`` view — row indexing reads only the touched pages."""
        return self._columns.T

    @property
    def null_mask(self) -> np.ndarray:
        return self._nulls.view(np.bool_).T

    @property
    def num_items(self) -> int:
        return self._n

    @property
    def num_features(self) -> int:
        return self._m

    def feature_column(self, feature_index: int, fill_null: float = 0.0) -> np.ndarray:
        column = np.array(self._columns[feature_index], dtype=float)
        column[np.isnan(column)] = fill_null
        return column

    def argsort_feature(self, feature_index: int, descending: bool = True) -> np.ndarray:
        return self._orders[0 if descending else 1, feature_index]

    def column_summary(self, feature_index: int) -> ColumnSummary:
        return self._summaries[feature_index]

    def feature_top_values(self, feature_index: int, count: int) -> np.ndarray:
        order = np.asarray(
            self._orders[0, feature_index, :count], dtype=np.int64
        )
        values = self._columns[feature_index][order]
        return np.where(np.isnan(values), 0.0, values)

    def content_digest(self) -> str:
        return self.header["digest"]

    def verify_digest(self) -> bool:
        """Recompute the content digest from the mapped data (reads it all)."""
        return (
            catalog_content_digest(self.features, self.null_mask)
            == self.header["digest"]
        )


def open_catalog_store(path: str) -> ItemCatalog:
    """Open a columnar store directory as an mmap-backed :class:`ItemCatalog`.

    Reads only the header eagerly; validation ran at write time, so this is
    a millisecond attach however large the catalog is.
    """
    backing = MmapBacking(path)
    return ItemCatalog.from_backing(
        backing,
        feature_names=backing.header["feature_names"],
        item_ids=backing.header["item_ids"],
    )


# ------------------------------------------------------------------- predicates
def _resolve_feature(catalog: ItemCatalog, feature) -> int:
    if isinstance(feature, str):
        try:
            return catalog.feature_names.index(feature)
        except ValueError:
            raise KeyError(
                f"unknown feature {feature!r}; catalog has "
                f"{catalog.feature_names}"
            ) from None
    index = int(feature)
    if not 0 <= index < catalog.num_features:
        raise IndexError(
            f"feature index {index} out of range for "
            f"{catalog.num_features} features"
        )
    return index


def _bisect_order(
    catalog: ItemCatalog,
    feature_index: int,
    order: np.ndarray,
    limit: int,
    value: float,
    side: str,
) -> int:
    """Binary search over the non-null prefix of an ascending sort order.

    Returns the first position whose value is ``>= value`` (``side='left'``)
    or ``> value`` (``side='right'``), reading O(log n) scattered feature
    values through the order — never the whole column.
    """
    lo, hi = 0, limit
    features = catalog.features
    while lo < hi:
        mid = (lo + hi) // 2
        item_value = float(features[int(order[mid]), feature_index])
        if item_value < value or (side == "right" and item_value == value):
            lo = mid + 1
        else:
            hi = mid
    return lo


class CatalogPredicate:
    """A row-eligibility predicate evaluated against catalog storage.

    Subclasses implement ``_compute_mask`` using per-column summaries and
    the stored/cached ascending sort orders, so eligibility is decided
    *before* item rows are materialized.  The computed mask is memoized per
    catalog (identity-keyed), so repeated searches under one engine pay the
    pushdown cost once.
    """

    def __init__(self) -> None:
        self._mask_cache: Optional[Tuple[ItemCatalog, np.ndarray]] = None

    def eligible_mask(self, catalog: ItemCatalog) -> np.ndarray:
        cached = self._mask_cache
        if cached is not None and cached[0] is catalog:
            return cached[1]
        mask = self._compute_mask(catalog)
        self._mask_cache = (catalog, mask)
        return mask

    def _compute_mask(self, catalog: ItemCatalog) -> np.ndarray:
        raise NotImplementedError

    def matches_column(self, column: np.ndarray) -> np.ndarray:
        """Scan oracle: eligibility from raw values (NaN = null).  Test-only
        reference — the pushdown path must agree with it exactly."""
        raise NotImplementedError


class NumericRangePredicate(CatalogPredicate):
    """``low <= value <= high`` on one feature; null values are ineligible.

    Either bound may be omitted.  Evaluation first prunes against the
    column summary (a disjoint range answers from the header alone), then
    binary-searches the ascending stored order for the matching span —
    O(log n) value reads plus O(span) index writes.
    """

    def __init__(self, feature, low: Optional[float] = None, high: Optional[float] = None) -> None:
        super().__init__()
        if low is None and high is None:
            raise ValueError("a NumericRangePredicate needs at least one bound")
        if low is not None and high is not None and low > high:
            raise ValueError(f"empty range: low={low} > high={high}")
        self.feature = feature
        self.low = None if low is None else float(low)
        self.high = None if high is None else float(high)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NumericRangePredicate({self.feature!r}, "
            f"low={self.low}, high={self.high})"
        )

    def _compute_mask(self, catalog: ItemCatalog) -> np.ndarray:
        j = _resolve_feature(catalog, self.feature)
        n = catalog.num_items
        mask = np.zeros(n, dtype=bool)
        summary = catalog.column_summary(j)
        limit = n - summary.null_count  # non-null prefix of the sorted order
        if limit == 0:
            return mask
        if self.low is not None and not math.isnan(summary.vmax) and summary.vmax < self.low:
            return mask
        if self.high is not None and not math.isnan(summary.vmin) and summary.vmin > self.high:
            return mask
        order = catalog.argsort_feature(j, descending=False)
        start = (
            0
            if self.low is None
            else _bisect_order(catalog, j, order, limit, self.low, "left")
        )
        stop = (
            limit
            if self.high is None
            else _bisect_order(catalog, j, order, limit, self.high, "right")
        )
        if start < stop:
            mask[np.asarray(order[start:stop], dtype=np.int64)] = True
        return mask

    def matches_column(self, column: np.ndarray) -> np.ndarray:
        column = np.asarray(column, dtype=float)
        mask = ~np.isnan(column)
        if self.low is not None:
            mask &= column >= self.low
        if self.high is not None:
            mask &= column <= self.high
        return mask


class CategoryPredicate(CatalogPredicate):
    """Membership of one feature's value in a finite set of numeric codes.

    Category features are stored as numeric codes like any other column;
    each requested value resolves to one equal-value span of the ascending
    order by binary search, so evaluation costs O(|values| log n) value
    reads.  Null values are ineligible.
    """

    def __init__(self, feature, values: Iterable[float]) -> None:
        super().__init__()
        codes = sorted({float(v) for v in values})
        if not codes:
            raise ValueError("a CategoryPredicate needs at least one value")
        if any(math.isnan(code) for code in codes):
            raise ValueError("NaN is not a category code (nulls are ineligible)")
        self.feature = feature
        self.values = tuple(codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CategoryPredicate({self.feature!r}, values={self.values})"

    def _compute_mask(self, catalog: ItemCatalog) -> np.ndarray:
        j = _resolve_feature(catalog, self.feature)
        n = catalog.num_items
        mask = np.zeros(n, dtype=bool)
        summary = catalog.column_summary(j)
        limit = n - summary.null_count
        if limit == 0:
            return mask
        order = catalog.argsort_feature(j, descending=False)
        for code in self.values:
            if not math.isnan(summary.vmin) and (
                code < summary.vmin or code > summary.vmax
            ):
                continue
            start = _bisect_order(catalog, j, order, limit, code, "left")
            stop = _bisect_order(catalog, j, order, limit, code, "right")
            if start < stop:
                mask[np.asarray(order[start:stop], dtype=np.int64)] = True
        return mask

    def matches_column(self, column: np.ndarray) -> np.ndarray:
        column = np.asarray(column, dtype=float)
        mask = np.zeros(column.shape, dtype=bool)
        for code in self.values:
            mask |= column == code
        return mask


class CatalogPredicateSet(CatalogPredicate):
    """Conjunction (AND) of catalog predicates."""

    def __init__(self, predicates: Sequence[CatalogPredicate]) -> None:
        super().__init__()
        predicates = list(predicates)
        if not predicates:
            raise ValueError("a CatalogPredicateSet needs at least one predicate")
        self.predicates = predicates

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CatalogPredicateSet({self.predicates!r})"

    def _compute_mask(self, catalog: ItemCatalog) -> np.ndarray:
        mask = self.predicates[0].eligible_mask(catalog).copy()
        for predicate in self.predicates[1:]:
            mask &= predicate.eligible_mask(catalog)
        return mask

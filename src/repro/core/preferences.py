"""Pairwise package preferences elicited from implicit user feedback.

A click on one of the presented packages yields pairwise preferences
``p_clicked ≻ p_other`` for every unclicked package in the same round (§3.3).
Every preference defines a half-space constraint on the weight vector:
``w`` satisfies ``p1 ≻ p2`` iff ``w · (p1 - p2) >= 0``.

:class:`PreferenceStore` keeps the preferences in a directed acyclic graph
(edge ``p1 → p2`` for ``p1 ≻ p2``), detects cycles, and applies *transitive
reduction* (Aho, Garey & Ullman) so that redundant constraints are never
checked during sampling — the optimisation of §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.packages import Package, PackageEvaluator
from repro.utils.validation import require_vector


class PreferenceCycleError(ValueError):
    """Raised when adding a preference would create a cycle in the DAG.

    The paper resolves cycles by re-presenting the cyclic packages to the user
    (§3.3); at the library level the caller decides how to react, so we raise
    and report the offending cycle.
    """

    def __init__(self, cycle: Sequence[Tuple[int, ...]]):
        self.cycle = list(cycle)
        super().__init__(
            "adding this preference would create a cycle through packages: "
            + " ≻ ".join(str(p) for p in self.cycle)
        )


_placeholder_counter = 0

#: PreferenceStore's vector source once its preferences are not all one
#: evaluator's interned vectors.
_MIXED_VECTORS = object()


def _next_placeholder_package() -> Package:
    """A unique synthetic package id for vector-only preferences.

    Placeholder packages use negative item indices so they can never collide
    with real catalog items.
    """
    global _placeholder_counter
    _placeholder_counter += 1
    return Package((-_placeholder_counter,))


@dataclass(frozen=True)
class Preference:
    """A single pairwise preference ``preferred ≻ other``.

    The normalised feature vectors of both packages are stored so the
    half-space direction ``preferred_vector - other_vector`` is available
    without re-aggregating.  Slotted: a session holds one per unclicked
    package of every click.  Built from an evaluator, both vectors are the
    evaluator's interned tuples, shared with every other preference (of any
    session) on the same packages.
    """

    __slots__ = ("preferred", "other", "preferred_vector", "other_vector")

    preferred: Package
    other: Package
    preferred_vector: Tuple[float, ...]
    other_vector: Tuple[float, ...]

    @classmethod
    def from_packages(
        cls, evaluator: PackageEvaluator, preferred: Package, other: Package
    ) -> "Preference":
        """Build a preference, computing both feature vectors via ``evaluator``."""
        if preferred == other:
            raise ValueError("a preference requires two distinct packages")
        return cls(
            preferred=preferred,
            other=other,
            preferred_vector=evaluator.interned_vector(preferred),
            other_vector=evaluator.interned_vector(other),
        )

    @classmethod
    def from_vectors(
        cls,
        preferred_vector: np.ndarray,
        other_vector: np.ndarray,
        preferred: Optional[Package] = None,
        other: Optional[Package] = None,
    ) -> "Preference":
        """Build a preference directly from two feature vectors.

        Used by experiments that generate random preference constraints without
        materialising actual packages; synthetic placeholder packages are
        created when none are supplied.
        """
        preferred_vector = require_vector(preferred_vector, "preferred_vector")
        other_vector = require_vector(
            other_vector, "other_vector", length=preferred_vector.shape[0]
        )
        if preferred is None:
            preferred = _next_placeholder_package()
        if other is None:
            other = _next_placeholder_package()
        return cls(
            preferred=preferred,
            other=other,
            preferred_vector=tuple(preferred_vector.tolist()),
            other_vector=tuple(other_vector.tolist()),
        )

    @property
    def direction(self) -> np.ndarray:
        """Half-space normal: ``w`` satisfies the preference iff ``w · direction >= 0``."""
        return np.asarray(self.preferred_vector) - np.asarray(self.other_vector)

    def is_satisfied_by(self, weights: np.ndarray) -> bool:
        """Whether the weight vector ``weights`` satisfies this preference."""
        return float(np.asarray(weights, dtype=float) @ self.direction) >= 0.0

    def __reduce__(self):
        # The default slot-state unpickling assigns fields one by one, which
        # a frozen dataclass refuses; rebuild through the constructor.
        return (
            Preference,
            (self.preferred, self.other, self.preferred_vector, self.other_vector),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Preference({self.preferred.items} ≻ {self.other.items})"


class PreferenceStore:
    """A growing set of pairwise preferences organised as a DAG.

    Parameters
    ----------
    num_features:
        Dimensionality of package feature vectors.
    on_cycle:
        ``"raise"`` (default) raises :class:`PreferenceCycleError` when a new
        preference closes a cycle; ``"drop"`` silently ignores the conflicting
        preference (modelling a user who is asked to re-confirm and declines).
    """

    def __init__(self, num_features: int, on_cycle: str = "raise") -> None:
        if num_features <= 0:
            raise ValueError(f"num_features must be > 0, got {num_features}")
        if on_cycle not in ("raise", "drop"):
            raise ValueError(f"on_cycle must be 'raise' or 'drop', got {on_cycle!r}")
        self.num_features = num_features
        self.on_cycle = on_cycle
        self._preferences: List[Preference] = []
        # DAG: node = package id tuple, edges preferred -> other.  Only nodes
        # with an out-edge have an entry; a sink appears as a successor only.
        self._successors: Dict[Tuple[int, ...], Set[Tuple[int, ...]]] = {}
        self._dropped = 0
        # The evaluator whose interned vectors every accepted preference
        # holds (None while none is accepted), or _MIXED_VECTORS.
        self._vector_source: object = None

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._preferences)

    @property
    def preferences(self) -> List[Preference]:
        """All accepted preferences, in insertion order."""
        return list(self._preferences)

    @property
    def num_packages(self) -> int:
        """Number of distinct packages mentioned in the feedback."""
        nodes = set(self._successors)
        for dsts in self._successors.values():
            nodes.update(dsts)
        return len(nodes)

    @property
    def num_dropped(self) -> int:
        """Number of preferences dropped due to cycles (``on_cycle='drop'``)."""
        return self._dropped

    # ------------------------------------------------------------------ adding
    def add(self, preference: Preference) -> bool:
        """Add a single preference; returns True if accepted, False if dropped."""
        if not self._accept(preference):
            return False
        # Its vectors may come from anywhere (Preference.from_vectors, a
        # snapshot blob): the store's edges no longer fix its cone.
        self._vector_source = _MIXED_VECTORS
        return True

    def _accept(self, preference: Preference) -> bool:
        width = len(preference.preferred_vector)
        if width != self.num_features or len(preference.other_vector) != width:
            raise ValueError(
                f"preference has {width} features, "
                f"store expects {self.num_features}"
            )
        src = preference.preferred.package_id
        dst = preference.other.package_id
        if src == dst:
            raise ValueError("a preference cannot relate a package to itself")
        cycle = self._find_path(dst, src)
        if cycle is not None:
            if self.on_cycle == "drop":
                self._dropped += 1
                return False
            raise PreferenceCycleError(cycle + [dst])
        self._preferences.append(preference)
        self._successors.setdefault(src, set()).add(dst)
        return True

    def add_click_feedback(
        self,
        evaluator: PackageEvaluator,
        clicked: Package,
        presented: Iterable[Package],
    ) -> List[Preference]:
        """Record a click: ``clicked ≻ p`` for every other presented package.

        Returns the list of preferences that were accepted (cycle-dropped
        preferences are omitted).  The vectors are the evaluator's interned
        tuples, so a package it has seen before is not aggregated again.
        """
        clicked_vector = evaluator.interned_vector(clicked)
        added: List[Preference] = []
        for package in presented:
            if package == clicked:
                continue
            preference = Preference(
                preferred=clicked,
                other=package,
                preferred_vector=clicked_vector,
                other_vector=evaluator.interned_vector(package),
            )
            if self._accept(preference):
                added.append(preference)
        if added and self._vector_source is not evaluator:
            self._vector_source = (
                evaluator if self._vector_source is None else _MIXED_VECTORS
            )
        return added

    # ---------------------------------------------------------------- querying
    def cone_key(self, evaluator: PackageEvaluator) -> Optional[tuple]:
        """The accepted edges in insertion order, if they fix the cone.

        The reduced cone is a function of the accepted edges, their order
        and their vectors.  When every accepted preference came from
        :meth:`add_click_feedback` with ``evaluator``, the vectors are that
        evaluator's, a function of the packages alone, so the edges
        ``(preferred.items, other.items)`` fix the cone bit for bit: the key
        of ``evaluator``'s cone memo.  ``None`` when some preference came
        another way (:meth:`add`, another evaluator).
        """
        preferences = self._preferences
        if preferences and self._vector_source is not evaluator:
            return None
        return tuple([(p.preferred.items, p.other.items) for p in preferences])

    def directions(self, reduced: bool = True) -> np.ndarray:
        """Matrix of half-space normals, one row per (optionally reduced) preference."""
        prefs = self.reduced_preferences() if reduced else self._preferences
        if not prefs:
            return np.zeros((0, self.num_features))
        return np.array([p.preferred_vector for p in prefs]) - np.array(
            [p.other_vector for p in prefs]
        )

    def satisfies(self, weights: np.ndarray, reduced: bool = True) -> bool:
        """Whether ``weights`` satisfies every stored preference."""
        directions = self.directions(reduced=reduced)
        if directions.shape[0] == 0:
            return True
        return bool(np.all(directions @ np.asarray(weights, dtype=float) >= 0.0))

    def count_violations(self, weights: np.ndarray, reduced: bool = False) -> int:
        """Number of stored preferences violated by ``weights``.

        Violation counts feed the noise model of §7, which needs the number of
        violated *raw* feedback items, so the default is the unreduced set.
        """
        directions = self.directions(reduced=reduced)
        if directions.shape[0] == 0:
            return 0
        return int(np.sum(directions @ np.asarray(weights, dtype=float) < 0.0))

    # ---------------------------------------------------- transitive reduction
    def reduced_preferences(self) -> List[Preference]:
        """Preferences remaining after transitive reduction of the DAG (§3.3).

        An edge ``p1 → p3`` is redundant when the DAG also contains a longer
        path ``p1 → ... → p3``; satisfaction of the intermediate constraints
        implies satisfaction of the redundant one (transitivity of ≻ for
        linear utilities), so it need not be checked during sampling.
        """
        redundant: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
        for src, dsts in self._successors.items():
            longer = self._reachable_in_two_or_more(src)
            redundant.update((src, dst) for dst in dsts if dst in longer)
        kept: List[Preference] = []
        seen_edges: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
        for pref in self._preferences:
            edge = (pref.preferred.package_id, pref.other.package_id)
            if edge in redundant or edge in seen_edges:
                continue
            seen_edges.add(edge)
            kept.append(pref)
        return kept

    def _reachable_in_two_or_more(self, src: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
        """Nodes reachable from ``src`` by a path of at least two edges.

        In a DAG, edge ``src → dst`` has a longer path beside it exactly
        when ``dst`` is in this set, so one search per source decides every
        edge out of it.
        """
        successors = self._successors
        stack = [
            grandchild
            for child in successors[src]
            for grandchild in successors.get(child, ())
        ]
        visited: Set[Tuple[int, ...]] = set(stack)
        while stack:
            for nxt in successors.get(stack.pop(), ()):
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append(nxt)
        return visited

    def _find_path(
        self, src: Tuple[int, ...], dst: Tuple[int, ...]
    ) -> Optional[List[Tuple[int, ...]]]:
        """A path from ``src`` to ``dst`` in the DAG, or None if unreachable."""
        if src not in self._successors:
            return None
        stack: List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]] = [(src, [src])]
        visited: Set[Tuple[int, ...]] = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in self._successors.get(node, ()):
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PreferenceStore(num_preferences={len(self)}, "
            f"num_packages={self.num_packages})"
        )

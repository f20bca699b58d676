"""Pairwise package preferences elicited from implicit user feedback.

A click on one of the presented packages yields pairwise preferences
``p_clicked ≻ p_other`` for every unclicked package in the same round (§3.3).
Every preference defines a half-space constraint on the weight vector:
``w`` satisfies ``p1 ≻ p2`` iff ``w · (p1 - p2) >= 0``.

:class:`PreferenceStore` keeps the preferences in a directed acyclic graph
(edge ``p1 → p2`` for ``p1 ≻ p2``), detects cycles, and applies *transitive
reduction* (Aho, Garey & Ullman) so that redundant constraints are never
checked during sampling — the optimisation of §3.3.

:class:`HistoryTrie` interns click histories: each distinct history is one
read-only store, the trie's node for it, holding the DAG, the accepted
preferences and the cone they define, so sessions that clicked alike share
one node instead of each keeping its own store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.packages import Package, PackageEvaluator
from repro.utils.validation import require_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.sampling.base import ConstraintSet


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

#: Most click edges one :class:`HistoryTrie` indexes; the index is cleared
#: when full.  Nodes that sessions hold outlive a clear.
HISTORY_INDEX_CAPACITY = 1024

#: Serial numbers of interned stores, unique across every trie, so one
#: trie's index never mistakes another trie's node for its own.
_node_serials = itertools.count()


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

    __slots__ = (
        "num_features",
        "on_cycle",
        "_preferences",
        "_successors",
        "_dropped",
        "_cone",
        "_serial",
    )

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
        # The reduced cone of the current preferences, built on first read.
        self._cone: Optional["ConstraintSet"] = None
        # Set once a HistoryTrie interns the store; it is read-only from then.
        self._serial: Optional[int] = None

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

    @property
    def interned(self) -> bool:
        """Whether a :class:`HistoryTrie` shares this store (it is read-only)."""
        return self._serial is not None

    @property
    def cone(self) -> "ConstraintSet":
        """The transitively reduced constraint set, built once per state.

        Every reader between two accepted preferences gets the same object
        (and so its memoized fingerprint); an interned store never changes,
        so every session on it shares one cone.
        """
        cone = self._cone
        if cone is None:
            # sampling.base imports this module: resolve at first build.
            from repro.sampling.base import ConstraintSet

            cone = self._cone = ConstraintSet.from_store(self)
        return cone

    # ------------------------------------------------------------------ adding
    def add(self, preference: Preference) -> bool:
        """Add a single preference; returns True if accepted, False if dropped."""
        if self._serial is not None:
            raise ValueError(
                "this store is a shared click history and is read-only; "
                "add preferences to a PreferenceStore of your own"
            )
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
        self._cone = None
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
            if self.add(preference):
                added.append(preference)
        return added

    # ---------------------------------------------------------------- querying
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

    def _extended(self, src: Tuple[int, ...]) -> "PreferenceStore":
        """A private copy to add edges out of ``src`` to.

        The copy shares every successor set but ``src``'s with this store,
        so the store must not change while the copy lives: an interned one
        never does.
        """
        copy = PreferenceStore(self.num_features, self.on_cycle)
        copy._preferences = list(self._preferences)
        successors = dict(self._successors)
        if src in successors:
            successors[src] = set(successors[src])
        copy._successors = successors
        copy._dropped = self._dropped
        return copy

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


class HistoryTrie:
    """Click histories interned once: a session is a pointer to its node.

    A node is a read-only :class:`PreferenceStore` for one sequence of
    clicks from :attr:`root`: the DAG, the accepted preferences in
    insertion order, the drop count and the cone.  :meth:`click` moves a
    session to the node its click leads to.  A click another session
    already made from the same node returns the existing child; a new one
    copies the node's DAG, sharing every successor set but the clicked
    package's (the only one a click extends), and adds the click's
    preferences to the copy.  A click's outcome, cycle drops included,
    depends only on the node and the click — every vector is the trie's
    evaluator's — so sessions can share it.

    The index from (node, click) to child holds at most
    :data:`HISTORY_INDEX_CAPACITY` entries and is cleared when full.  Nodes
    that sessions hold stay alive; a history clicked again after a clear
    gets a new node, equal to the old one bit for bit.  Only interned nodes
    are clicked here: a store no trie interned (a standalone recommender's,
    one restored from a snapshot blob) is private, takes its clicks through
    :meth:`PreferenceStore.add_click_feedback`, and never enters the index.
    """

    def __init__(self, evaluator: PackageEvaluator) -> None:
        self.evaluator = evaluator
        self.root = self._intern(
            PreferenceStore(evaluator.num_features, on_cycle="drop")
        )
        self._index: Dict[tuple, PreferenceStore] = {}
        self.nodes_created = 0
        self.index_hits = 0
        self.index_clears = 0
        self._clears_total = None

    @staticmethod
    def _intern(store: PreferenceStore) -> PreferenceStore:
        store._serial = next(_node_serials)
        return store

    def attach_telemetry(self, telemetry) -> None:
        """Count index clears in ``telemetry``'s registry."""
        self._clears_total = telemetry.registry.counter(
            "repro_history_index_clears_total",
            "Times the click-history index was cleared when full",
        )

    def click(
        self, node: PreferenceStore, clicked: Package, presented: Sequence[Package]
    ) -> Tuple[PreferenceStore, List[Preference]]:
        """The node after a click on ``clicked`` among ``presented``.

        Returns it with the preferences the click accepted (cycle-dropped
        ones omitted), as :meth:`PreferenceStore.add_click_feedback` does.
        """
        if node._serial is None:
            raise ValueError(
                "a private store takes clicks through add_click_feedback"
            )
        key = (node._serial, clicked.items, tuple([p.items for p in presented]))
        child = self._index.get(key)
        if child is not None:
            self.index_hits += 1
            return child, child._preferences[len(node._preferences):]
        child = node._extended(clicked.package_id)
        added = child.add_click_feedback(self.evaluator, clicked, presented)
        if not added:
            # Only drops: the node's preferences, so its DAG and its cone.
            child._preferences = node._preferences
            child._successors = node._successors
            child._cone = node._cone
        self._intern(child)
        if len(self._index) >= HISTORY_INDEX_CAPACITY:
            self._index.clear()
            self.index_clears += 1
            if self._clears_total is not None:
                self._clears_total.inc()
        self._index[key] = child
        self.nodes_created += 1
        return child, added

    def describe(self) -> dict:
        """Index size and counters: ``nodes`` is the nodes the index holds."""
        return {
            "nodes": len(self._index),
            "nodes_created": self.nodes_created,
            "index_hits": self.index_hits,
            "index_clears": self.index_clears,
        }

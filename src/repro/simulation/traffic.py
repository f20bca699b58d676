"""Traffic generation against the serving layer, closed- and open-loop.

Where :class:`~repro.simulation.session.ElicitationSession` drives one
recommender with one simulated user, the simulators here drive the *serving
layer* with a whole population:

* :class:`TrafficSimulator` — closed-loop rounds against a synchronous
  :class:`~repro.service.engine.RecommendationEngine`: every session advances
  in lockstep, one round per tick, serially or via ``recommend_many``.
* :class:`AsyncTrafficSimulator` — open-loop load against an
  :class:`~repro.service.async_server.AsyncRecommendationServer`: sessions
  arrive by a Poisson process, each runs its own request → click → think-time
  loop concurrently, and per-request latency is measured end to end —
  including the time spent queued in the micro-batch window.

Two canonical populations matter for the serving layer:

* **identical-prefix** — every user shares the same hidden utility and every
  session the same private seed, so all feedback prefixes coincide; this is
  the best case for the shared sample-pool and top-k caches (think: a burst
  of anonymous cold-start users being onboarded with the same script);
* **heterogeneous** — independent utilities and seeds per user, the worst
  case where caches only help on the empty-feedback first round and
  throughput comes from *batching* the per-session work instead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.noise import NoiseModel
from repro.core.packages import PackageEvaluator
from repro.core.utility import sample_random_utility
from repro.service.async_server import AsyncRecommendationServer
from repro.service.engine import RecommendationEngine
from repro.simulation.user import SimulatedUser
from repro.utils.rng import ensure_rng


def build_user_population(
    evaluator: PackageEvaluator,
    num_sessions: int,
    identical_prefix: bool,
    user_seed: int,
    noise_psi: Optional[float] = None,
) -> List[SimulatedUser]:
    """The simulated users of one workload (shared by both simulators).

    ``noise_psi`` attaches a §7 :class:`~repro.core.noise.NoiseModel` to every
    user: each click goes to the truly best presented package only with
    probability ψ.  On the identical-prefix population this is the *noisy-user
    workload*: sessions start on the shared prefix but a wrong click forks a
    session onto a one-click-apart constraint set — a pool-repository miss
    whose nearest donor is the popular sibling pool, exactly the traffic the
    approximate pool-reuse subsystem exists for.
    """
    noise = NoiseModel(noise_psi) if noise_psi is not None else None
    rng = ensure_rng(user_seed)
    if identical_prefix:
        utility = sample_random_utility(evaluator.num_features, rng)
        return [
            SimulatedUser(utility, evaluator, noise=noise, rng=user_seed + index)
            for index in range(num_sessions)
        ]
    return [
        SimulatedUser.random(evaluator, rng=child, noise=noise)
        for child in np.random.default_rng(user_seed).spawn(num_sessions)
    ]


def session_seed_for(session_seed: int, index: int, identical_prefix: bool) -> int:
    """The private seed of session ``index`` in a simulated workload.

    One definition shared by every simulator *and* the benchmark baselines:
    comparisons between serving modes are only fair while they drive
    identically-seeded sessions, so the stride lives here, not at call sites.
    """
    if identical_prefix:
        return session_seed
    return session_seed + 7919 * (index + 1)


@dataclass
class WorkloadSpec:
    """Shape of a simulated traffic run.

    Attributes
    ----------
    num_sessions:
        Number of concurrent sessions opened.
    rounds:
        Recommendation/feedback rounds every session goes through.
    identical_prefix:
        Same hidden utility and session seed for everyone (cache best case)
        versus fully independent users (cache worst case).
    user_seed:
        Seed for the population's hidden utilities.
    session_seed:
        Private seed shared by every session in identical-prefix mode;
        ignored (per-session derived seeds) otherwise.
    batched:
        Serve rounds via :meth:`RecommendationEngine.recommend_many` (pool
        filling batched across sessions) instead of per-session calls.
    noise_psi:
        Optional §7 click-noise parameter ψ for the simulated users: each
        click lands on the truly best presented package only with
        probability ψ.  With ``identical_prefix=True`` this turns the
        cache-best-case population into the *noisy-user workload* — most
        sessions ride the shared prefix, while noisy clicks fork sessions
        onto near-miss constraint sets (the approximate-pool-reuse traffic).
        ``None`` (default) keeps clicks noise-free.
    """

    num_sessions: int = 50
    rounds: int = 3
    identical_prefix: bool = True
    user_seed: int = 0
    session_seed: int = 0
    batched: bool = True
    noise_psi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_sessions <= 0:
            raise ValueError(f"num_sessions must be > 0, got {self.num_sessions}")
        if self.rounds <= 0:
            raise ValueError(f"rounds must be > 0, got {self.rounds}")
        if self.noise_psi is not None:
            NoiseModel(self.noise_psi)  # validates ψ ∈ [0, 1]


@dataclass
class LoadReport:
    """Measured outcome of one traffic run."""

    num_sessions: int
    rounds: int
    rounds_served: int
    feedback_events: int
    total_seconds: float
    sessions_per_sec: float
    rounds_per_sec: float
    p50_round_latency_ms: float
    p95_round_latency_ms: float
    engine_stats: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)

    def format(self, label: str = "workload") -> str:
        """A compact human-readable summary block."""
        pool = self.engine_stats.get("pool_cache", {})
        topk = self.engine_stats.get("topk_cache", {})
        lines = [
            f"[{label}]",
            f"  sessions={self.num_sessions} rounds={self.rounds} "
            f"rounds_served={self.rounds_served} feedback={self.feedback_events}",
            f"  total={self.total_seconds:.3f}s "
            f"sessions/sec={self.sessions_per_sec:.2f} "
            f"rounds/sec={self.rounds_per_sec:.2f}",
            f"  round latency p50={self.p50_round_latency_ms:.2f}ms "
            f"p95={self.p95_round_latency_ms:.2f}ms",
            f"  pool cache: hits={pool.get('hits', 0)} misses={pool.get('misses', 0)} "
            f"hit_rate={pool.get('hit_rate', 0.0):.2f} "
            f"samples_saved={pool.get('samples_saved', 0)}",
            f"  topk cache: hits={topk.get('hits', 0)} misses={topk.get('misses', 0)} "
            f"hit_rate={topk.get('hit_rate', 0.0):.2f}",
            f"  pools sampled={self.engine_stats.get('pools_sampled', 0)} "
            f"maintained={self.engine_stats.get('pools_maintained', 0)} "
            f"adapted={self.engine_stats.get('pools_adapted', 0)} "
            f"warmed={self.engine_stats.get('pools_warmed', 0)}",
        ]
        repository = self.engine_stats.get("pool_repository") or {}
        if repository:
            lines.append(
                f"  pool repository: fills={repository.get('fills', 0)} "
                f"fill_batches={repository.get('fill_batches', 0)} "
                f"pinned={repository.get('pinned', 0)}"
            )
        return "\n".join(lines)


class TrafficSimulator:
    """Drive an engine with a population of simulated users.

    Parameters
    ----------
    engine:
        The serving engine under load.
    spec:
        Workload shape (sessions, rounds, homogeneity, batching).
    """

    def __init__(self, engine: RecommendationEngine, spec: WorkloadSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.evaluator = engine.evaluator

    def _build_users(self) -> List[SimulatedUser]:
        spec = self.spec
        return build_user_population(
            self.evaluator,
            spec.num_sessions,
            spec.identical_prefix,
            spec.user_seed,
            noise_psi=spec.noise_psi,
        )

    def run(self) -> LoadReport:
        """Execute the workload and measure throughput and latency."""
        spec = self.spec
        engine = self.engine
        users = self._build_users()
        start = time.perf_counter()
        session_ids = [
            engine.create_session(
                seed=session_seed_for(
                    spec.session_seed, index, spec.identical_prefix
                )
            )
            for index in range(spec.num_sessions)
        ]

        latencies: List[float] = []
        feedback_events = 0
        rounds_served = 0
        for _round_index in range(spec.rounds):
            if spec.batched:
                tick = time.perf_counter()
                rounds = engine.recommend_many(session_ids)
                elapsed = time.perf_counter() - tick
                # recommend_many amortises pool filling across sessions; the
                # honest per-session figure is the amortised share.
                latencies.extend([elapsed / len(session_ids)] * len(session_ids))
            else:
                rounds = []
                for session_id in session_ids:
                    tick = time.perf_counter()
                    rounds.append(engine.recommend(session_id))
                    latencies.append(time.perf_counter() - tick)
            rounds_served += len(rounds)
            for session_id, user, round_ in zip(session_ids, users, rounds):
                clicked = user.click(round_.presented)
                engine.feedback(session_id, clicked)
                feedback_events += 1
        total_seconds = time.perf_counter() - start

        latency_array = np.asarray(latencies)
        return LoadReport(
            num_sessions=spec.num_sessions,
            rounds=spec.rounds,
            rounds_served=rounds_served,
            feedback_events=feedback_events,
            total_seconds=total_seconds,
            sessions_per_sec=spec.num_sessions / total_seconds,
            rounds_per_sec=rounds_served / total_seconds if total_seconds else 0.0,
            p50_round_latency_ms=float(np.percentile(latency_array, 50) * 1e3),
            p95_round_latency_ms=float(np.percentile(latency_array, 95) * 1e3),
            engine_stats=engine.stats().as_dict(),
            traces=(
                engine.telemetry.drain_traces()
                if engine.telemetry.enabled
                else []
            ),
        )


@dataclass
class AsyncWorkloadSpec:
    """Shape of an open-loop async traffic run.

    Attributes
    ----------
    num_sessions:
        Number of concurrent client coroutines (one session each).
    rounds:
        Recommendation/feedback rounds every session goes through.
    identical_prefix:
        Same hidden utility and session seed for everyone (cache best case)
        versus fully independent users (cache worst case; the default here —
        the async layer exists for the workload caches cannot absorb).
    arrival_rate:
        Mean session arrivals per second of the Poisson arrival process;
        ``None`` starts every session at t = 0 (a closed burst).
    think_time_mean:
        Mean of the exponential think time a user spends between receiving a
        round and clicking; ``0`` clicks immediately.
    user_seed / session_seed:
        Population seeds, matching :class:`WorkloadSpec` conventions.
    traffic_seed:
        Seed for the arrival offsets and think times, drawn up front so the
        workload is identical regardless of scheduling interleave.
    noise_psi:
        Optional §7 click-noise parameter ψ for the simulated users (see
        :class:`WorkloadSpec`); ``None`` keeps clicks noise-free.
    """

    num_sessions: int = 32
    rounds: int = 3
    identical_prefix: bool = False
    arrival_rate: Optional[float] = None
    think_time_mean: float = 0.0
    user_seed: int = 0
    session_seed: int = 0
    traffic_seed: int = 0
    noise_psi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_sessions <= 0:
            raise ValueError(f"num_sessions must be > 0, got {self.num_sessions}")
        if self.rounds <= 0:
            raise ValueError(f"rounds must be > 0, got {self.rounds}")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be > 0 or None, got {self.arrival_rate}"
            )
        if self.think_time_mean < 0:
            raise ValueError(
                f"think_time_mean must be >= 0, got {self.think_time_mean}"
            )
        if self.noise_psi is not None:
            NoiseModel(self.noise_psi)  # validates ψ ∈ [0, 1]


@dataclass
class AsyncLoadReport:
    """Measured outcome of one open-loop async run."""

    num_sessions: int
    rounds: int
    rounds_served: int
    feedback_events: int
    total_seconds: float
    rounds_per_sec: float
    sessions_per_sec: float
    p50_request_latency_ms: float
    p95_request_latency_ms: float
    engine_stats: dict = field(default_factory=dict)
    dispatcher_stats: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)

    def format(self, label: str = "async workload") -> str:
        """A compact human-readable summary block."""
        d = self.dispatcher_stats
        lines = [
            f"[{label}]",
            f"  sessions={self.num_sessions} rounds={self.rounds} "
            f"rounds_served={self.rounds_served} feedback={self.feedback_events}",
            f"  total={self.total_seconds:.3f}s "
            f"rounds/sec={self.rounds_per_sec:.2f} "
            f"sessions/sec={self.sessions_per_sec:.2f}",
            f"  request latency p50={self.p50_request_latency_ms:.2f}ms "
            f"p95={self.p95_request_latency_ms:.2f}ms",
            f"  dispatcher: batches={d.get('batches_dispatched', 0)} "
            f"mean_batch={d.get('mean_batch_size', 0.0):.1f} "
            f"largest={d.get('largest_batch', 0)} "
            f"size_flushes={d.get('size_flushes', 0)} "
            f"timer_flushes={d.get('timer_flushes', 0)}",
            f"  engine: topk_batched_pools="
            f"{self.engine_stats.get('topk_batched_pools', 0)} "
            f"pools sampled={self.engine_stats.get('pools_sampled', 0)} "
            f"maintained={self.engine_stats.get('pools_maintained', 0)}",
        ]
        return "\n".join(lines)


class AsyncTrafficSimulator:
    """Open-loop population against an :class:`AsyncRecommendationServer`.

    Every session is its own coroutine: arrive (Poisson offset), create a
    session, then ``rounds`` times — request a recommendation, click after an
    exponential think time, send feedback.  Requests from different sessions
    overlap freely, which is exactly what feeds the server's micro-batch
    window; latency is measured per request, *including* the time spent
    waiting in that window.

    Parameters
    ----------
    server:
        The async front-end under load.
    spec:
        Workload shape (sessions, rounds, arrivals, think times).
    """

    def __init__(
        self, server: AsyncRecommendationServer, spec: AsyncWorkloadSpec
    ) -> None:
        self.server = server
        self.spec = spec
        self.evaluator = server.engine.evaluator

    async def run(self) -> AsyncLoadReport:
        """Execute the workload; resolves to the measured report."""
        spec = self.spec
        users = build_user_population(
            self.evaluator,
            spec.num_sessions,
            spec.identical_prefix,
            spec.user_seed,
            noise_psi=spec.noise_psi,
        )
        rng = ensure_rng(spec.traffic_seed)
        if spec.arrival_rate is not None:
            offsets = np.cumsum(
                rng.exponential(1.0 / spec.arrival_rate, spec.num_sessions)
            )
        else:
            offsets = np.zeros(spec.num_sessions)
        thinks = (
            rng.exponential(spec.think_time_mean, (spec.num_sessions, spec.rounds))
            if spec.think_time_mean > 0
            else np.zeros((spec.num_sessions, spec.rounds))
        )

        latencies: List[float] = []
        rounds_served = 0
        feedback_events = 0

        async def drive(index: int, user: SimulatedUser) -> None:
            nonlocal rounds_served, feedback_events
            if offsets[index] > 0:
                await asyncio.sleep(float(offsets[index]))
            session_id = await self.server.create_session(
                seed=session_seed_for(
                    spec.session_seed, index, spec.identical_prefix
                )
            )
            for round_index in range(spec.rounds):
                tick = time.perf_counter()
                round_ = await self.server.recommend(session_id)
                latencies.append(time.perf_counter() - tick)
                rounds_served += 1
                if thinks[index, round_index] > 0:
                    await asyncio.sleep(float(thinks[index, round_index]))
                clicked = user.click(round_.presented)
                await self.server.feedback(session_id, clicked)
                feedback_events += 1

        start = time.perf_counter()
        await asyncio.gather(
            *(drive(index, user) for index, user in enumerate(users))
        )
        await self.server.dispatcher.drain()
        total_seconds = time.perf_counter() - start

        latency_array = np.asarray(latencies)
        return AsyncLoadReport(
            num_sessions=spec.num_sessions,
            rounds=spec.rounds,
            rounds_served=rounds_served,
            feedback_events=feedback_events,
            total_seconds=total_seconds,
            rounds_per_sec=rounds_served / total_seconds if total_seconds else 0.0,
            sessions_per_sec=(
                spec.num_sessions / total_seconds if total_seconds else 0.0
            ),
            p50_request_latency_ms=float(np.percentile(latency_array, 50) * 1e3),
            p95_request_latency_ms=float(np.percentile(latency_array, 95) * 1e3),
            engine_stats=self.server.engine.stats().as_dict(),
            dispatcher_stats=self.server.dispatcher.stats.as_dict(),
            traces=(
                self.server.engine.telemetry.drain_traces()
                if self.server.engine.telemetry.enabled
                else []
            ),
        )

    def run_sync(self) -> AsyncLoadReport:
        """Convenience wrapper: run the workload on a fresh event loop."""
        return asyncio.run(self.run())

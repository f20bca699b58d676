"""Benchmark: the telemetry overhead budget (tracing on vs off).

Not a paper figure — this holds the observability tentpole to its
acceptance axis: the unified telemetry layer (request spans, metrics
registry, slow-request sampling) must cost **at most 5% of round serve
latency** when enabled with production settings, and a disabled facade must
be indistinguishable from no instrumentation at all (one attribute check
per site).

Method: identically seeded engines serve the same click stream — one with
``Telemetry.disabled()`` (the default), one with tracing enabled at
production sampling settings (keep slow traces over 50 ms, sample every
10th) plus an in-memory sink.  Determinism makes the served rounds
bit-identical across modes, so the two engines do the same work round for
round and the latency delta is pure instrumentation cost.  Each trial
serves the two engines in lockstep, round by round, so every pair of
rounds meets the same host state; trials alternate which engine serves
first.  A trial's overhead is the median over its rounds of
``on / off - 1``.  The gate is the one-sided 95% upper confidence bound
(Student t over ``TRIALS`` trials) of the mean trial overhead, not a point
estimate: best-of-3 ratios of unpaired p50s read from 0% to 45% on one
tree, because the p50 of two dozen rounds jumps between latency clusters.

Headline metric asserted and recorded for the CI gate
(``tools/bench_gate.py``):

* ``telemetry_overhead_fraction`` — ``max(0, upper bound)``, ceiling 0.05.

The regenerated table lands in ``results/bench_obs.txt``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.experiments.harness import ExperimentScale, build_evaluator
from repro.obs import InMemoryTraceSink, Telemetry
from repro.service import EngineConfig, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

#: Acceptance ceiling (pinned in tools/bench_gate.py).
MAX_OVERHEAD_FRACTION = 0.05

NUM_ITEMS = 500
NUM_FEATURES = 4
NUM_SESSIONS = 6
NUM_ROUNDS = 4
NUM_SAMPLES = 1_500
#: Paired trials per run.  One outlier trial (+11.7% has been seen, one
#: slow round median on a ~50 ms round) moved a 10-trial bound past the
#: ceiling on a loaded host; over 20 trials it moves the mean half as far
#: and the t quantile is smaller.
TRIALS = 20
#: One-sided confidence level of the gated upper bound.
CONFIDENCE = 0.95
CLICK_NOISE_PSI = 0.9

#: Production sampling settings for the enabled mode: slow-request keep
#: threshold and every-Nth sampling, per DESIGN.md "Observability".
SLOW_MS = 50.0
SAMPLE_EVERY = 10


def _engine(telemetry=None) -> RecommendationEngine:
    scale = ExperimentScale(
        num_tuples=NUM_ITEMS, num_packages=500, num_samples=200,
        num_preferences=200, num_features=NUM_FEATURES, num_gaussians=1,
        max_package_size=4, seed=0,
    )
    evaluator = build_evaluator("UNI", scale, num_features=NUM_FEATURES)
    elicitation = ElicitationConfig(
        k=3,
        num_random=2,
        max_package_size=3,
        num_samples=NUM_SAMPLES,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=100,
        search_items_cap=40,
        seed=0,
    )
    config = EngineConfig(elicitation=elicitation, seed=1)
    return RecommendationEngine(
        evaluator.catalog, evaluator.profile, config, telemetry=telemetry
    )


def _traced() -> Telemetry:
    return Telemetry(
        sink=InMemoryTraceSink(), slow_ms=SLOW_MS, sample_every=SAMPLE_EVERY
    )


def _run_paired(on_first: bool):
    """Serve the click stream on an untraced and a traced engine in lockstep.

    Returns per-round latencies and presented lists for each mode, plus the
    traced engine's telemetry.
    """
    telemetry = _traced()
    engines = {"off": _engine(), "on": _engine(telemetry)}
    order = ("on", "off") if on_first else ("off", "on")
    users = {
        mode: build_user_population(
            engine.evaluator,
            NUM_SESSIONS,
            identical_prefix=True,
            user_seed=0,
            noise_psi=CLICK_NOISE_PSI,
        )
        for mode, engine in engines.items()
    }
    ids = {
        mode: [
            engine.create_session(
                seed=session_seed_for(0, index, identical_prefix=False)
            )
            for index in range(NUM_SESSIONS)
        ]
        for mode, engine in engines.items()
    }
    latencies = {mode: [] for mode in engines}
    presented = {mode: [] for mode in engines}
    rounds = {mode: {} for mode in engines}
    for round_index in range(NUM_ROUNDS):
        for index in range(NUM_SESSIONS):
            for mode in order:
                engine, sid = engines[mode], ids[mode][index]
                if round_index:
                    engine.feedback(
                        sid, users[mode][index].click(rounds[mode][sid].presented)
                    )
                tick = time.perf_counter()
                rounds[mode][sid] = engine.recommend(sid)
                latencies[mode].append(time.perf_counter() - tick)
                presented[mode].append([p.items for p in rounds[mode][sid].presented])
    return (
        {mode: np.asarray(values) for mode, values in latencies.items()},
        presented,
        telemetry,
    )


def upper_confidence_bound(samples) -> float:
    """One-sided Student-t ``CONFIDENCE`` upper bound of the mean of ``samples``."""
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    spread = samples.std(ddof=1) / np.sqrt(samples.size)
    return float(
        samples.mean() + stats.t.ppf(CONFIDENCE, samples.size - 1) * spread
    )


@pytest.fixture(scope="module")
def obs_report():
    from bench_utils import record_ci_metric, write_results

    overheads, p50s_off, p50s_on = [], [], []
    rounds_equal = True
    telemetry = None
    for trial in range(TRIALS):
        times, presented, telemetry = _run_paired(on_first=trial % 2 == 1)
        overheads.append(float(np.median(times["on"] / times["off"]) - 1.0))
        p50s_off.append(float(np.median(times["off"])))
        p50s_on.append(float(np.median(times["on"])))
        rounds_equal = rounds_equal and presented["off"] == presented["on"]
    mean = float(np.mean(overheads))
    upper = upper_confidence_bound(overheads)
    overhead = max(0.0, upper)
    tracer_stats = telemetry.tracer.describe()

    header = (
        "Telemetry overhead — request tracing + metrics on the serve path\n"
        f"per-round latency overhead with tracing enabled: upper "
        f"{CONFIDENCE * 100:.0f}% bound {upper * 100:.2f}% (ceiling "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}%, CI-gated)"
    )
    body = "\n".join(
        [
            "[per-round serve latency overhead (asserted)]",
            f"  {NUM_SESSIONS} sessions x {NUM_ROUNDS} rounds, "
            f"{NUM_SAMPLES}-sample pools, {TRIALS} paired lockstep trials "
            f"alternating which engine serves first",
            f"  trial overheads (median of on/off - 1 over rounds): "
            f"{', '.join(f'{o * 100:+.2f}%' for o in overheads)}",
            f"  mean {mean * 100:+.2f}%, one-sided {CONFIDENCE * 100:.0f}% "
            f"upper bound {upper * 100:+.2f}% "
            f"(slow_ms={SLOW_MS}, sample_every={SAMPLE_EVERY})",
            f"  p50 off per trial: "
            f"{', '.join(f'{p * 1e3:.2f}' for p in p50s_off)} ms",
            f"  p50 on per trial:  "
            f"{', '.join(f'{p * 1e3:.2f}' for p in p50s_on)} ms",
            "",
            "[tracer accounting, final trial]",
            f"  traces finished={tracer_stats['traces_finished']} "
            f"kept={tracer_stats['traces_kept']} "
            f"sampled_out={tracer_stats['traces_sampled_out']}",
        ]
    )
    print("\n" + header + "\n\n" + body)
    write_results("bench_obs.txt", header + "\n\n" + body)
    record_ci_metric(
        "telemetry_overhead_fraction",
        overhead,
        source="benchmarks/test_bench_obs.py",
        description=(
            f"max(0, one-sided {CONFIDENCE * 100:.0f}% upper confidence bound) "
            f"of the per-round serve latency overhead with request tracing "
            f"enabled (slow_ms={SLOW_MS}, sample_every={SAMPLE_EVERY}) vs the "
            f"disabled facade, {TRIALS} paired lockstep trials of "
            f"{NUM_SESSIONS} sessions x {NUM_ROUNDS} rounds"
        ),
        unit="frac",
        ceiling=MAX_OVERHEAD_FRACTION,
    )
    return {
        "overhead": overhead,
        "rounds_equal": rounds_equal,
        "tracer_stats": tracer_stats,
    }


def test_overhead_within_budget(obs_report):
    """The acceptance headline: tracing costs <= 5% of round latency.

    Gated on the upper confidence bound, so the test passes only when the
    trials show the overhead is under the ceiling.
    """
    assert obs_report["overhead"] <= MAX_OVERHEAD_FRACTION, (
        f"telemetry overhead upper bound {obs_report['overhead'] * 100:.1f}% "
        f"exceeds the {MAX_OVERHEAD_FRACTION * 100:.0f}% ceiling"
    )


def test_tracing_does_not_change_served_rounds(obs_report):
    """Determinism: the instrumented engine serves bit-identical rounds."""
    assert obs_report["rounds_equal"]


def test_sampling_actually_dropped_traces(obs_report):
    """The enabled mode ran with real sampling, not keep-everything."""
    stats = obs_report["tracer_stats"]
    assert stats["traces_finished"] > 0
    assert stats["traces_sampled_out"] > 0

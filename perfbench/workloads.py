"""The benchmark workloads: frames in -> sketch -> map -> answer out.

Each workload builds its inputs from the seed, sets the program up a few
times (timed as ``setup_s``), then runs its timed phases through the
public API of ``MonitoringPipeline``, ``SnapshotStore`` and
``QueryEngine`` on one thread.  A :class:`Run` collects the latency
samples, counts attempted and failed operations, and records the
correctness checks made after timing.
"""

from __future__ import annotations

import functools
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import (
    BeamProfileGenerator,
    CorruptionPlan,
    DiffractionConfig,
    DiffractionGenerator,
    StreamCorruptor,
)
from repro.pipeline.monitor import MonitoringPipeline
from repro.serve.query import QueryEngine
from repro.serve.snapshot import SnapshotStore


#: Query mix of every answer-out phase: kind -> share.  A run issues the
#: kinds in exactly these shares, in a seeded order.
QUERY_MIX = (("project", 0.4), ("residual", 0.3), ("outlier_score", 0.3))
#: Rows per query payload, drawn afresh per query from a seeded pool of
#: preprocessed rows.
PAYLOAD_ROWS = 4
POOL_ROWS = 192
#: Share of closed-loop queries that repeat an earlier payload of the same
#: kind and round, and so hit the result cache.  Kept small so that the
#: median query is a ``residual`` miss, well inside one kind's latencies:
#: with about half the queries hitting, the median sat on the edge between
#: hits and misses and jumped between them from run to run.
REPEAT_SHARE = 0.05
#: Closed-loop answer-out work of a whole run: queries issued and
#: score_new calls made, spread evenly over the batch slots of every round
#: but the first.  480 queries put the tail at p95, 24 samples deep.
ANSWER_QUERIES = 480
ANSWER_SCORES = 192
#: Frames per score_new call, and distinct frame groups cycled through.
SCORE_ROWS = 4
SCORE_GROUPS = 48
#: How many times live_serve's set-up is repeated (a closed loop sets up
#: once per round); ``setup_s`` is the median of all set-ups of a run.
SETUP_REPEATS = 3
#: ``analyze()`` refreshes of each closed-loop round's stream.  A refresh
#: is the longest single operation timed, so ``map_s`` has the fewest
#: samples; two per round double them.
MAP_REFRESHES = 2
#: ``project`` answers re-checked against ``payload @ basis`` after timing.
PROJECT_CHECKS = 24
#: Elementwise tolerance of that check, in units of eps * (|rows| @ |basis|).
PROJECT_ULPS = 16.0
#: Bound on the final sketch's relative covariance error
#: ``||A^T A - B^T B||_2 / ||A||_F^2`` against every accepted row.  FD
#: guarantees ``1/ell`` (1/32 at the default ell) for the rows it sketched;
#: priority sampling keeps 80 % of the rows, and the check allows the same
#: again for its error.  Measured values are 0.002-0.016.
COVARIANCE_BOUND = 2.0 / 32.0


@dataclass
class Run:
    """Samples, operation counts and check outcomes of one run."""

    workload: str
    setup_s: list[float] = field(default_factory=list)
    batch_ms: list[float] = field(default_factory=list)
    map_s: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    score_ms: list[float] = field(default_factory=list)
    consumed: int = 0  # frames accepted, and consume wall seconds, when timed
    consume_s: float = 0.0
    late_ms: list[float] = field(default_factory=list)
    overhead: float = 0.0
    peak_rss_mb: float = 0.0  # read as timing ends, before the checks
    queries_issued: int = 0
    queries_answered: int = 0
    queries_failed: int = 0
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    final: MonitoringPipeline | None = None  # the pipeline the checks inspect
    cache_hits: int = 0  # result-cache hits and lookups of retired engines
    cache_lookups: int = 0
    project_answers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )

    def count_cache(self, engine: QueryEngine) -> None:
        self.cache_hits += engine.n_hits
        self.cache_lookups += engine.n_hits + engine.n_misses

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))
        self.op(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ----------------------------------------------------------------------
# Inputs (seeded, excluded from every timing)
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    shape: tuple[int, int]
    batches: list[tuple[object, np.ndarray | None]]  # (frames, shot ids)
    warm: np.ndarray
    fresh: np.ndarray  # held-out frames for score_new
    pool: np.ndarray  # preprocessed rows query payloads are drawn from


def _pool(frames: np.ndarray, shape) -> np.ndarray:
    return MonitoringPipeline(image_shape=shape).preprocessor.apply_flat(frames)


def beam_inputs(seed: int, n: int, batch: int, n_fresh: int) -> Inputs:
    gen = BeamProfileGenerator(seed=seed)
    frames, _ = gen.sample(n)
    warm, _ = gen.sample(100)
    fresh, _ = gen.sample(n_fresh)
    extra, _ = gen.sample(POOL_ROWS)
    batches = [(frames[i : i + batch], None) for i in range(0, n, batch)]
    return Inputs((64, 64), batches, warm, fresh, _pool(extra, (64, 64)))


def diffraction_inputs(seed: int, n: int, batch: int, n_fresh: int,
                       corrupt: bool = True) -> Inputs:
    gen = DiffractionGenerator(DiffractionConfig(shape=(128, 128)), seed=seed)
    frames, _ = gen.sample(n)
    warm, _ = gen.sample(100)
    fresh, _ = gen.sample(n_fresh)
    extra, _ = gen.sample(POOL_ROWS)
    if not corrupt:
        batches = [(frames[i : i + batch], None) for i in range(0, n, batch)]
        return Inputs((128, 128), batches, warm, fresh, _pool(extra, (128, 128)))
    plan = (
        CorruptionPlan(seed=seed)
        .nan_burst(prob=0.02)
        .hot_pixel(prob=0.02)
        .duplicate(prob=0.02)
    )
    corruptor = StreamCorruptor(plan)
    batches = []
    for i in range(0, n, batch):
        out, ids, _ = corruptor.apply(frames[i : i + batch], np.arange(i, i + batch))
        batches.append((out, ids))
    return Inputs((128, 128), batches, warm, fresh, _pool(extra, (128, 128)))


# ----------------------------------------------------------------------
# Building blocks shared by the workloads
# ----------------------------------------------------------------------
def pipeline(inputs: Inputs, seed: int, publish: bool) -> MonitoringPipeline:
    """A production-default pipeline with the guard on."""
    pipe = MonitoringPipeline(image_shape=inputs.shape, seed=seed, guard=True)
    if publish:
        pipe.attach_snapshot_store(SnapshotStore(registry=pipe.registry))
    return pipe


def _analyze(run: Run, pipe: MonitoringPipeline) -> None:
    t0 = time.perf_counter()
    result = pipe.analyze()
    run.map_s.append(time.perf_counter() - t0)
    degraded = [name for name, s in result.stages.items() if s.status != "ok"]
    run.attempted += 1 + len(result.stages)
    run.failed += len(degraded)
    if degraded:
        run.checks.append(("analyze_not_degraded", False, f"degraded: {degraded}"))


def _query(run: Run, engine: QueryEngine, kind: str, payload: np.ndarray) -> None:
    """Issue one query pinned to the latest epoch; failures are counted."""
    run.queries_issued += 1
    try:
        snap = engine.store.latest()
        result = engine.query(kind, payload, epoch=snap.epoch)
    except (KeyError, ValueError, RuntimeError, FloatingPointError):
        run.queries_failed += 1
        run.op(False)
        return
    run.queries_answered += 1
    run.op()
    if kind == "project" and len(run.project_answers) < PROJECT_CHECKS:
        run.project_answers.append((payload, snap.basis[:, : result.k], result.value))


def _score(run: Run, pipe: MonitoringPipeline, frames: np.ndarray) -> None:
    t0 = time.perf_counter()
    pipe.score_new(frames)
    run.score_ms.append((time.perf_counter() - t0) * 1e3)
    run.op()


def _span(total: int, parts: int, i: int) -> range:
    """Part ``i``'s share of ``total`` items split evenly over ``parts``."""
    return range(total * i // parts, total * (i + 1) // parts)


def _query_plan(rng: np.random.Generator, n: int, rounds: int = 1) -> list[tuple[str, np.ndarray]]:
    """``n`` queries as ``(kind, pool row indices)``, split evenly over ``rounds``.

    Kinds come in :data:`QUERY_MIX`'s exact shares.  Each payload is a
    fresh draw of pool rows, except that about :data:`REPEAT_SHARE` of
    them repeat an earlier payload of the same kind and round.
    """
    counts = [round(n * p) for _, p in QUERY_MIX]
    counts[0] += n - sum(counts)
    kinds = rng.permutation(np.repeat([k for k, _ in QUERY_MIX], counts)).tolist()
    picks = [rng.choice(POOL_ROWS, PAYLOAD_ROWS, replace=False) for _ in range(n)]
    for r in range(rounds):
        queries = _span(n, rounds, r)
        for j in queries:
            earlier = [i for i in range(queries.start, j) if kinds[i] == kinds[j]]
            if rng.random() < REPEAT_SHARE and earlier:
                picks[j] = picks[earlier[rng.integers(len(earlier))]]
    return list(zip(kinds, picks))


def _warm_up(inputs: Inputs, seed: int, publish: bool) -> None:
    """Run a small batch through every stage once (first-call costs)."""
    warm = pipeline(inputs, seed, publish)
    warm.consume(inputs.warm)
    warm.analyze()
    warm.score_new(inputs.fresh[:4])


def _timed_setup(run: Run, build, repeats: int = 1) -> object:
    """Set up ``repeats`` times; keep the last; record each time."""
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = build()
        run.setup_s.append(time.perf_counter() - t0)
    return state


# ----------------------------------------------------------------------
# Closed-loop workloads: beam_map, diffraction_stream, diffraction_map
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClosedLoop:
    """Sizes of a closed-loop workload.

    A run is ``max(2, round(seconds / round_s))`` rounds, where
    ``round_s`` is a round's length on a 2-core box in its slower state
    (see ``perfbench/README.md``); fixing the round count fixes every
    sample count, and with it the tail percentile reported.
    """

    frames: int
    batch: int
    round_s: float
    publish_every_batch: bool
    make_inputs: object

    def rounds(self, seconds: float) -> int:
        return max(2, round(seconds / self.round_s))


BEAM_MAP = ClosedLoop(500, 50, 7.0, False, beam_inputs)
DIFFRACTION_STREAM = ClosedLoop(500, 25, 9.0, True, diffraction_inputs)
#: beam_map's loop on clean diffraction frames: no guard rejects and no
#: publish per batch.  It stands in for beam_map, whose small (d = 4096)
#: BLAS calls swing too much with the machine's load to hold a bound.
DIFFRACTION_MAP = ClosedLoop(
    500, 25, 9.0, False, functools.partial(diffraction_inputs, corrupt=False)
)
CLOSED_LOOPS = {
    "beam_map": BEAM_MAP,
    "diffraction_stream": DIFFRACTION_STREAM,
    "diffraction_map": DIFFRACTION_MAP,
}


def closed_loop_inputs(spec: ClosedLoop, seed: int) -> Inputs:
    return spec.make_inputs(seed, spec.frames, spec.batch, SCORE_GROUPS * SCORE_ROWS)


def _closed_loop_build(inputs: Inputs, seed: int, publish: bool) -> MonitoringPipeline:
    pipe = pipeline(inputs, seed, publish)
    _warm_up(inputs, seed, publish)
    return pipe


def closed_loop_run(run: Run, spec: ClosedLoop, inputs: Inputs, seed: int,
                    seconds: float, phase) -> None:
    """Rounds of: set-up, consume pass with answers between batches, map refreshes.

    Round ``r`` sets a fresh pipeline up and consumes the stream into it.
    Between its batches, the pipeline round ``r - 1`` mapped answers an
    even share of the queries and ``score_new`` calls.  Then round ``r``'s
    pipeline is mapped :data:`MAP_REFRESHES` times and published, and
    serves round ``r + 1``.  So every metric's samples are spread finely
    over the whole run: a slow spell of the host, which lasts seconds,
    touches a share of each metric's samples instead of all of one
    metric's.
    """
    rounds = spec.rounds(seconds)
    slots = (rounds - 1) * len(inputs.batches)
    plan = _query_plan(np.random.default_rng([seed, 7]), ANSWER_QUERIES, rounds - 1)
    build = functools.partial(_closed_loop_build, inputs, seed, spec.publish_every_batch)
    serving, slot = None, 0
    for _ in range(rounds):
        with phase("setup"):
            pipe = _timed_setup(run, build)
        busy = 0.0
        for frames, ids in inputs.batches:
            with phase("ingest"):
                t0 = time.perf_counter()
                pipe.consume(frames, shot_ids=ids)
                dt = time.perf_counter() - t0
            busy += dt
            run.batch_ms.append(dt * 1e3)
            run.op()
            if serving is not None:
                with phase("answer"):
                    _answer(run, serving, inputs, plan, slot, slots)
                slot += 1
        run.consumed += pipe.n_images
        run.consume_s += busy
        for _ in range(MAP_REFRESHES):
            with phase("map"):
                _analyze(run, pipe)
        with phase("answer"):
            store = pipe.attach_snapshot_store(SnapshotStore(registry=pipe.registry))
            pipe.publish_snapshot()
            engine = QueryEngine(store, registry=pipe.registry)
        if serving is not None:
            run.count_cache(serving[1])
        serving = (pipe, engine)
    run.count_cache(engine)
    run.final = pipe


def _answer(run: Run, serving, inputs: Inputs, plan, slot: int, slots: int) -> None:
    """Slot ``slot``'s even share of the queries and ``score_new`` calls."""
    pipe, engine = serving
    for q in _span(ANSWER_QUERIES, slots, slot):
        kind, rows = plan[q]
        t0 = time.perf_counter()
        _query(run, engine, kind, inputs.pool[rows])
        run.query_ms.append((time.perf_counter() - t0) * 1e3)
    for s in _span(ANSWER_SCORES, slots, slot):
        g = s % SCORE_GROUPS
        _score(run, pipe, inputs.fresh[g * SCORE_ROWS : (g + 1) * SCORE_ROWS])


# ----------------------------------------------------------------------
# Open-loop workload: live_serve
# ----------------------------------------------------------------------
LIVE_REFERENCE = 1000
LIVE_BATCH = 12
LIVE_BEAM_HZ = 120.0
LIVE_QUERY_HZ = 50.0
LIVE_SCORE_EVERY_S = 0.5


def live_inputs(seed: int, seconds: float) -> tuple[Inputs, np.ndarray]:
    n_live = int(round(seconds * LIVE_BEAM_HZ)) + LIVE_BATCH
    inputs = beam_inputs(seed, LIVE_REFERENCE, 100, LIVE_BATCH)
    live, _ = BeamProfileGenerator(seed=seed + 1_000_003).sample(n_live)
    return inputs, live


def live_setup(run: Run, inputs: Inputs, seed: int):
    def build():
        pipe = pipeline(inputs, seed, publish=False)
        store = pipe.attach_snapshot_store(SnapshotStore(registry=pipe.registry))
        for frames, ids in inputs.batches:
            pipe.consume(frames, shot_ids=ids)
        _analyze(run, pipe)
        pipe.score_new(inputs.fresh)
        return pipe, QueryEngine(store, registry=pipe.registry)

    return _timed_setup(run, build, SETUP_REPEATS)


def live_schedule(seed: int, seconds: float) -> list[tuple[float, str, int]]:
    """Seeded open-loop arrivals: ``(due seconds, kind, argument)``."""
    rng = np.random.default_rng([seed, 11])
    events = []
    n_batches = int(seconds * LIVE_BEAM_HZ / LIVE_BATCH)
    for i in range(n_batches):
        events.append((i * LIVE_BATCH / LIVE_BEAM_HZ, "batch", i))
    t = rng.exponential(1.0 / LIVE_QUERY_HZ)
    queries = []
    while t < seconds:
        queries.append(t)
        t += rng.exponential(1.0 / LIVE_QUERY_HZ)
    for due, (kind, rows) in zip(queries, _query_plan(rng, len(queries))):
        events.append((due, f"q:{kind}", rows))
    s = LIVE_SCORE_EVERY_S / 2
    while s < seconds:
        events.append((s, "score", 0))
        s += LIVE_SCORE_EVERY_S
    events.sort(key=lambda e: e[0])
    return events


def live_phase(run: Run, state, inputs: Inputs, live: np.ndarray, seed: int,
               seconds: float, phase, idle) -> None:
    """Open loop: frames at the beam rate, Poisson queries, periodic scoring.

    Every latency is measured from when the operation was due, so time
    spent queued behind earlier operations counts.
    """
    pipe, engine = state
    run.final = pipe
    events = live_schedule(seed, seconds)
    busy = 0.0
    n_before = pipe.n_images
    latest = live[:LIVE_BATCH]
    with phase("serve"):
        start = time.perf_counter()
        for due, kind, arg in events:
            wait = due - (time.perf_counter() - start)
            if wait > 0:
                with idle():
                    time.sleep(wait)
                run.late_ms.append(((time.perf_counter() - start) - due) * 1e3)
            t0 = time.perf_counter()
            if kind == "batch":
                latest = live[arg * LIVE_BATCH : (arg + 1) * LIVE_BATCH]
                pipe.consume(latest)
                busy += time.perf_counter() - t0
                run.op()
                run.batch_ms.append((time.perf_counter() - start - due) * 1e3)
            elif kind == "score":
                pipe.score_new(latest)
                run.op()
                run.score_ms.append((time.perf_counter() - start - due) * 1e3)
            else:
                _query(run, engine, kind[2:], inputs.pool[arg])
                run.query_ms.append((time.perf_counter() - start - due) * 1e3)
    run.consumed += pipe.n_images - n_before
    run.consume_s += busy
    run.count_cache(engine)


# ----------------------------------------------------------------------
# Correctness checks made after timing
# ----------------------------------------------------------------------
def _accepted_rows(pipe: MonitoringPipeline, offered: list[tuple[object, np.ndarray | None]]):
    """Preprocessed rows of the frames the guard accepted, in shot-id order."""
    by_id: dict[int, np.ndarray] = {}
    next_id = 0
    for frames, ids in offered:
        if ids is None:
            ids = np.arange(next_id, next_id + len(frames))
        for frame, sid in zip(frames, ids):
            by_id.setdefault(int(sid), frame)
        next_id = int(ids[-1]) + 1 if len(ids) else next_id
    stack = np.stack([by_id[s] for s in pipe.shot_ids])
    return pipe.preprocessor.apply_flat(stack)


def covariance_error(a: np.ndarray, b: np.ndarray) -> float:
    """``||A^T A - B^T B||_2 / ||A||_F^2`` without forming a d x d matrix."""
    import scipy.sparse.linalg as sla

    d = a.shape[1]
    op = sla.LinearOperator(
        (d, d), matvec=lambda v: a.T @ (a @ v) - b.T @ (b @ v), dtype=np.float64
    )
    top = sla.eigsh(op, k=1, which="LM", return_eigenvectors=False, tol=1e-6,
                    v0=np.ones(d))
    return float(abs(top[0]) / np.einsum("ij,ij->", a, a))


def check_pipeline(run: Run, pipe: MonitoringPipeline, offered) -> None:
    guard = pipe.guard
    quarantined = sum(guard.reject_counts.values())
    n_offered = sum(len(frames) for frames, _ in offered)
    run.check(
        "frames_conserved",
        guard.n_offered == n_offered == guard.n_accepted + quarantined
        and guard.n_accepted == pipe.n_images == len(pipe.shot_ids),
        f"offered {n_offered}, guard offered {guard.n_offered}, accepted "
        f"{guard.n_accepted}, quarantined {quarantined}, consumed {pipe.n_images}",
    )
    arams = pipe.sketcher
    fd = arams.sketcher
    run.check(
        "sketch_rows_conserved",
        arams.n_seen == pipe.n_images and 0 < fd.n_seen <= arams.n_seen,
        f"ARAMS offered {arams.n_seen}, consumed {pipe.n_images}, sketched {fd.n_seen}",
    )
    # Liberty's FD: each rotation frees ell buffer rows, so the count is
    # about floor(rows / ell); rank adaptation grows ell from 32.
    lo = fd.n_seen // (2 * fd.ell) - 1
    hi = fd.n_seen // pipe.sketch_config.ell
    run.check(
        "rotation_count",
        lo <= fd.n_rotations <= hi,
        f"{fd.n_rotations} rotations for {fd.n_seen} rows at ell {fd.ell} "
        f"(expected {lo}..{hi})",
    )
    a = _accepted_rows(pipe, offered)
    err = covariance_error(a, arams.compact_sketch())
    run.check(
        "covariance_error",
        err <= COVARIANCE_BOUND,
        f"||A^T A - B^T B||_2 / ||A||_F^2 = {err:.4f} (bound {COVARIANCE_BOUND:.4f})",
    )


def check_answers(run: Run) -> None:
    run.check(
        "queries_conserved",
        run.queries_issued == run.queries_answered + run.queries_failed
        and run.queries_issued > 0,
        f"issued {run.queries_issued}, answered {run.queries_answered}, "
        f"failed {run.queries_failed}",
    )
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for rows, basis, value in run.project_answers:
        scale = np.abs(rows) @ np.abs(basis)
        err = np.abs(value - rows @ basis)
        worst = max(worst, float(np.max(err / (eps * np.maximum(scale, 1e-300)))))
    run.check(
        "project_answers_match",
        bool(run.project_answers) and worst <= PROJECT_ULPS,
        f"{len(run.project_answers)} answers, worst {worst:.2f} ulps of "
        f"|rows| @ |basis| (bound {PROJECT_ULPS:g})",
    )
    if not any(name == "analyze_not_degraded" for name, _, _ in run.checks):
        run.check("analyze_not_degraded", bool(run.map_s), f"{len(run.map_s)} refreshes")


def live_offered(inputs: Inputs, live: np.ndarray, n_batches: int):
    """Every batch the live pipeline was offered, reference stream first."""
    stream = [(live[i * LIVE_BATCH : (i + 1) * LIVE_BATCH], None) for i in range(n_batches)]
    return inputs.batches + stream

"""Fused ingest sweep: equivalence, precision tiers, and plumbing.

The load-bearing contract of :meth:`repro.pipeline.ingest.FusedIngest.sweep`
is *bit-identity*: on the default float64 tier, one sweep must leave the
sketch in exactly the state the staged chain (``guard.screen`` →
``Preprocessor.apply_flat`` → ``ARAMS.partial_fit``) would, for any
preprocessor configuration, any batch split, and any mix of
clean/corrupt frames.  The staged chain lives on here as a test-only
oracle; the hypothesis suite locks the property for the engine and a
parametrized check locks it for ``MonitoringPipeline.consume``.  The
float32 tier is held to the FD covariance bound instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.arams import ARAMS, ARAMSConfig
from repro.core.errors import covariance_error
from repro.obs.registry import NullRegistry, Registry
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fd_state(sk: ARAMS) -> dict:
    fd = sk.sketcher
    return {
        "buffer": fd._buffer.copy(),
        "next_zero": fd._next_zero,
        "n_seen": fd.n_seen,
        "sf": fd.squared_frobenius,
        "n_rotations": fd.n_rotations,
        "offered": sk.n_seen,
    }


def _assert_states_identical(a: dict, b: dict):
    assert np.array_equal(a["buffer"], b["buffer"])
    for key in ("next_zero", "n_seen", "sf", "n_rotations", "offered"):
        assert a[key] == b[key], key


@st.composite
def image_stream(draw):
    """A small stream: frames, batch boundaries, and corruption sites."""
    n = draw(st.integers(12, 60))
    h = draw(st.integers(6, 14))
    w = draw(st.integers(6, 14))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    imgs = rng.gamma(2.0, 1.0, size=(n, h, w))
    # A bright frame exercises the norm-outlier screen; NaN frames
    # exercise repair (guard off) or quarantine (guard on).
    if draw(st.booleans()):
        imgs[draw(st.integers(0, n - 1))] *= draw(st.floats(10.0, 200.0))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        imgs[i, draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = np.nan
    n_batches = draw(st.integers(1, 4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, n - 1),
                min_size=n_batches - 1,
                max_size=n_batches - 1,
                unique=True,
            )
        )
    )
    batches = np.split(imgs, cuts)
    return imgs, batches


@st.composite
def preprocessor_config(draw, h_max=6, w_max=6):
    threshold_mode = draw(st.sampled_from(["absolute", "quantile"]))
    threshold = (
        None
        if draw(st.booleans())
        else (
            draw(st.floats(0.0, 2.0))
            if threshold_mode == "absolute"
            else draw(st.floats(0.05, 0.9))
        )
    )
    crop = None if draw(st.booleans()) else (h_max, w_max)
    return Preprocessor(
        threshold=threshold,
        threshold_mode=threshold_mode,
        normalize=draw(st.sampled_from(["l2", "sum", "max", None])),
        center=draw(st.booleans()),
        crop=crop,
        repair=True,
        hot_sigma=None if draw(st.booleans()) else draw(st.floats(3.0, 8.0)),
    )


def _staged_run(pre, batches, d, ell, guard_cfg=None, beta=1.0, seed=0):
    sk = ARAMS(d, ARAMSConfig(ell=ell, beta=beta, seed=seed))
    guard = FrameGuard(guard_cfg, registry=NullRegistry()) if guard_cfg else None
    rejected = []
    for b in batches:
        if guard is not None:
            gb = guard.screen(b)
            rejected.extend(gb.rejected)
            stack = gb.accepted
        else:
            stack = b
        if stack.shape[0]:
            sk.partial_fit(pre.apply_flat(stack))
    return sk, guard, rejected


def _fused_run(
    pre, batches, d, ell, guard_cfg=None, beta=1.0, seed=0, precision="float64",
):
    """Drive the sweep the way ``MonitoringPipeline.consume`` does."""
    sk = ARAMS(d, ARAMSConfig(ell=ell, beta=beta, seed=seed, precision=precision))
    guard = FrameGuard(guard_cfg, registry=NullRegistry()) if guard_cfg else None
    eng = FusedIngest(pre, registry=NullRegistry(), precision=precision)
    rows, rejected = [], []
    for b in batches:
        if guard is None:
            rows.append(eng.sweep(b, sk))
            continue
        gb = guard.screen(b)
        rejected.extend(gb.rejected)
        rows.append(
            eng.sweep(
                gb.accepted,
                sk,
                certified_finite=guard.config.max_nonfinite_fraction == 0.0,
                nonneg=gb.accepted_nonneg,
                norms=gb.accepted_norms,
            )
        )
    return sk, guard, rows, rejected


class TestBitIdentityFloat64:
    """Fused float64 sweep == staged chain, bit for bit."""

    @COMMON
    @given(image_stream(), preprocessor_config(), st.integers(3, 8))
    def test_no_guard(self, stream, pre, ell):
        imgs, batches = stream
        h, w = imgs.shape[1:]
        ch, cw = pre.crop if pre.crop else (h, w)
        d = ch * cw
        staged, _, _ = _staged_run(pre, batches, d, ell)
        fused, _, _, _ = _fused_run(pre, batches, d, ell)
        _assert_states_identical(_fd_state(staged), _fd_state(fused))

    @COMMON
    @given(image_stream(), preprocessor_config(), st.integers(3, 8))
    def test_with_guard_including_quarantine(self, stream, pre, ell):
        imgs, batches = stream
        h, w = imgs.shape[1:]
        ch, cw = pre.crop if pre.crop else (h, w)
        d = ch * cw
        cfg = GuardConfig(expected_shape=(h, w))
        staged, g1, rej1 = _staged_run(pre, batches, d, ell, guard_cfg=cfg)
        fused, g2, _, rej2 = _fused_run(pre, batches, d, ell, guard_cfg=cfg)
        _assert_states_identical(_fd_state(staged), _fd_state(fused))
        # Guard decisions and counters must be indistinguishable.
        assert g1.n_offered == g2.n_offered == imgs.shape[0]
        assert g1.n_accepted == g2.n_accepted
        assert g1.reject_counts == g2.reject_counts
        assert [(r.shot_id, r.reason) for r in rej1] == [
            (r.shot_id, r.reason) for r in rej2
        ]

    @COMMON
    @given(image_stream(), preprocessor_config(), st.integers(3, 8))
    def test_returned_rows_match_staged(self, stream, pre, ell):
        """Every sweep returns a fresh row block equal to the staged rows;
        later sweeps never overwrite an earlier block."""
        imgs, batches = stream
        h, w = imgs.shape[1:]
        ch, cw = pre.crop if pre.crop else (h, w)
        d = ch * cw
        _, _, rows, _ = _fused_run(pre, batches, d, ell)
        for block, batch in zip(rows, batches):
            assert block.shape == (batch.shape[0], d)
            assert np.array_equal(block, pre.apply_flat(batch))

    @COMMON
    @given(image_stream(), st.floats(0.3, 0.9), st.integers(3, 8))
    def test_priority_sampling_rng_parity(self, stream, beta, ell):
        """beta < 1: the sampler must see identical batches and draw
        identically."""
        imgs, batches = stream
        d = imgs.shape[1] * imgs.shape[2]
        pre = Preprocessor()
        staged, _, _ = _staged_run(pre, batches, d, ell, beta=beta, seed=11)
        fused, _, _, _ = _fused_run(pre, batches, d, ell, beta=beta, seed=11)
        _assert_states_identical(_fd_state(staged), _fd_state(fused))


class TestFloat32Tier:
    @COMMON
    @given(image_stream(), st.integers(4, 8))
    def test_within_fd_error_bound(self, stream, ell):
        imgs, batches = stream
        imgs = np.nan_to_num(imgs)
        batches = [np.nan_to_num(b) for b in batches]
        pre = Preprocessor()
        d = imgs.shape[1] * imgs.shape[2]
        ell = min(ell, d)
        fused, _, _, _ = _fused_run(pre, batches, d, ell, precision="float32")
        a = pre.apply_flat(imgs)
        assert covariance_error(a, fused.sketch) <= np.sum(a * a) / ell * (1 + 1e-9)

    def test_close_to_exact_tier(self):
        rng = np.random.default_rng(0)
        imgs = rng.gamma(2.0, 1.0, size=(64, 12, 12))
        pre = Preprocessor()
        d = 144
        exact, _, _, _ = _fused_run(pre, [imgs], d, 8)
        fast, _, _, _ = _fused_run(pre, [imgs], d, 8, precision="float32")
        # Same rotations, same structure; values differ only by f32
        # rounding of the frame math.
        assert exact.sketcher.n_rotations == fast.sketcher.n_rotations
        np.testing.assert_allclose(
            fast.sketcher._buffer, exact.sketcher._buffer, rtol=0, atol=1e-5
        )

    def test_precision_validated(self):
        with pytest.raises(ValueError, match="precision"):
            FusedIngest(registry=NullRegistry(), precision="float16")
        with pytest.raises(ValueError, match="precision"):
            ARAMSConfig(ell=8, precision="bf16")


class TestEngineBehavior:
    def test_nonfinite_without_repair_matches_staged_error(self):
        """repair=False + corrupt frame raises the sketcher's exact
        error, before anything is committed."""
        imgs = np.ones((8, 6, 6))
        imgs[3, 2, 2] = np.inf
        pre = Preprocessor(repair=False, center=False, normalize=None)
        sk = ARAMS(36, ARAMSConfig(ell=4))
        eng = FusedIngest(pre, registry=NullRegistry())
        with pytest.raises(ValueError, match="repair detector frames"):
            eng.sweep(imgs, sk)
        assert sk.sketcher.n_seen == 0  # nothing half-committed

    def test_shot_id_length_mismatch(self):
        pipe = MonitoringPipeline(image_shape=(4, 4), registry=NullRegistry())
        with pytest.raises(ValueError, match="shot_ids"):
            pipe.consume(np.ones((3, 4, 4)), shot_ids=[1, 2])
        assert pipe.n_images == 0

    def test_empty_batch_is_a_noop(self):
        sk = ARAMS(16, ARAMSConfig(ell=4))
        eng = FusedIngest(Preprocessor(), registry=NullRegistry())
        rows = eng.sweep(np.zeros((0, 4, 4)), sk)
        assert rows.shape == (0, 16)
        assert sk.n_seen == 0
        assert sk.sketcher.n_seen == 0

    def test_counters_and_spans_flow_to_registry(self):
        reg = Registry()
        rng = np.random.default_rng(0)
        imgs = rng.gamma(2.0, 1.0, size=(200, 8, 8))
        sk = ARAMS(64, ARAMSConfig(ell=4))
        eng = FusedIngest(Preprocessor(), registry=reg)
        eng.sweep(imgs, sk)
        labels = {"precision": "float64"}
        assert reg.get_sample("fused_frames_total", labels).value == 200
        assert reg.get_sample("fused_chunks_total", labels).value == 2
        # The sweep feeds the stage histograms behind preprocess_time /
        # sketch_time / throughput.
        from repro.obs.spans import SPAN_HISTOGRAM

        for span in ("consume.preprocess", "consume.sketch", "consume.fused"):
            sample = reg.get_sample(SPAN_HISTOGRAM, {"span": span})
            assert sample is not None and sample.count >= 1, span


def _pipeline_stream(n=150):
    rng = np.random.default_rng(0)
    imgs = rng.gamma(2.0, 1.0, size=(n, 20, 20))
    imgs[7, 3, 3] = np.nan  # quarantined by the guard
    return imgs


def _oracle_consume(pipe, images, shot_ids):
    """The staged chain behind ``consume``: guard → apply_flat → partial_fit.

    Drives the pipeline's own bookkeeping so only the ingest step
    differs from :meth:`MonitoringPipeline.consume`.
    """
    gb = pipe.guard.screen(images, shot_ids=shot_ids)
    pipe.n_offered += gb.offered
    if gb.accepted.shape[0] == 0:
        return
    rows = pipe.preprocessor.apply_flat(gb.accepted)
    sk = pipe._ensure_sketcher(rows.shape[1])
    sk.partial_fit(rows)
    pipe.n_images += rows.shape[0]
    pipe.shot_ids.extend(int(s) for s in gb.accepted_ids)
    pipe._retain_batch(rows, sk)


class TestPipelineFusedMode:
    def _make(self, sketch, retain="rows"):
        return MonitoringPipeline(
            image_shape=(20, 20), seed=0, guard=True, retain=retain, sketch=sketch
        )

    def _run(self, sketch, retain="rows", oracle=False):
        imgs = _pipeline_stream()
        pipe = self._make(sketch, retain)
        for i in range(0, imgs.shape[0], 50):
            ids = np.arange(i, i + 50)
            if oracle:
                _oracle_consume(pipe, imgs[i : i + 50], ids)
            else:
                pipe.consume(imgs[i : i + 50], shot_ids=ids)
        return pipe

    @pytest.mark.parametrize("retain", ["rows", "latent"])
    @pytest.mark.parametrize("beta", [1.0, 0.8])
    @pytest.mark.parametrize("backend", ["fd", "ipca", "rrf"])
    def test_matches_staged_oracle(self, backend, beta, retain):
        sketch = ARAMSConfig(
            ell=8,
            beta=beta,
            epsilon=0.1 if backend == "fd" else None,
            backend=backend,
            seed=0,
        )
        fused = self._run(sketch, retain)
        staged = self._run(sketch, retain, oracle=True)

        a = fused.sketcher.sketcher.state_dict()
        b = staged.sketcher.sketcher.state_dict()
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), key
        assert np.array_equal(fused.sketcher.sketch, staged.sketcher.sketch)
        assert (
            fused.sketcher._sample_rng.bit_generator.state
            == staged.sketcher._sample_rng.bit_generator.state
        )
        if retain == "rows":
            assert np.array_equal(np.vstack(fused._rows), np.vstack(staged._rows))
        else:
            assert len(fused._latents) == len(staged._latents)
            for x, y in zip(fused._latents, staged._latents):
                assert np.array_equal(x, y)
            assert np.array_equal(fused._latent_basis, staged._latent_basis)
        assert fused.shot_ids == staged.shot_ids
        assert fused.n_images == staged.n_images == 149
        assert fused.n_offered == staged.n_offered == 150
        assert fused.sketcher.n_seen == staged.sketcher.n_seen
        assert fused.guard.reject_counts == staged.guard.reject_counts

    def _default_run(self, precision):
        imgs = np.nan_to_num(_pipeline_stream())
        pipe = MonitoringPipeline(
            image_shape=(20, 20),
            seed=0,
            sketch=ARAMSConfig(seed=0, precision=precision),
        )
        for i in range(0, imgs.shape[0], 50):
            pipe.consume(imgs[i : i + 50])
        return pipe, imgs

    def test_float32_precision_takes_effect(self):
        exact, _ = self._default_run("float64")
        fast, _ = self._default_run("float32")
        assert not np.array_equal(fast.sketcher.sketch, exact.sketcher.sketch)
        assert fast.health_summary()["ingest"]["precision"] == "float32"

    def test_float32_pipeline_within_fd_bound(self):
        fast, imgs = self._default_run("float32")
        a = fast.preprocessor.apply_flat(imgs)
        ell = fast.sketcher.ell
        assert fast.sketcher.sketcher.n_rotations > 0
        assert covariance_error(a, fast.sketcher.sketch) <= np.sum(a * a) / ell * (
            1 + 1e-9
        )

    def test_retained_rows_survive_arena_reuse(self):
        """Retained row blocks belong to the pipeline: a later batch
        never overwrites them."""
        pipe = self._run(ARAMSConfig(ell=8, beta=1.0, seed=0))
        first = pipe._rows[0].copy()
        pipe.consume(_pipeline_stream()[:50], shot_ids=np.arange(900, 950))
        assert np.array_equal(pipe._rows[0], first)

    def test_timing_views_work_in_fused_mode(self):
        pipe = self._run(ARAMSConfig(ell=8, beta=1.0, seed=0))
        assert pipe.preprocess_time > 0
        assert pipe.sketch_time > 0
        assert np.isfinite(pipe.throughput_hz())
        assert pipe.health_summary()["ingest"] == {
            "precision": "float64",
            "frames": 149,
            "chunks": 3,
        }

"""Unit tests for sketch checkpoint/restore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequent_directions import FrequentDirections
from repro.core.persistence import load_sketcher, save_sketcher
from repro.core.rank_adaptive import RankAdaptiveFD


class TestPlainRoundTrip:
    def test_state_identical(self, rng, tmp_path):
        fd = FrequentDirections(d=24, ell=6)
        fd.partial_fit(rng.standard_normal((47, 24)))  # pending rows too
        path = save_sketcher(fd, tmp_path / "fd.npz")
        restored = load_sketcher(path)
        assert isinstance(restored, FrequentDirections)
        assert restored.n_seen == fd.n_seen
        assert restored.n_rotations == fd.n_rotations
        assert restored.squared_frobenius == fd.squared_frobenius
        assert fd.n_rotations > 0 and fd.total_shrinkage > 0
        assert restored.last_shrinkage == fd.last_shrinkage
        assert restored.total_shrinkage == fd.total_shrinkage
        np.testing.assert_array_equal(restored._buffer, fd._buffer)

    def test_resume_bit_identical(self, rng, tmp_path):
        """save -> load -> continue == never stopping."""
        stream = rng.standard_normal((200, 16))
        continuous = FrequentDirections(16, 4).fit(stream)
        stopped = FrequentDirections(16, 4)
        stopped.partial_fit(stream[:83])
        path = save_sketcher(stopped, tmp_path / "ckpt.npz")
        resumed = load_sketcher(path)
        resumed.partial_fit(stream[83:])
        np.testing.assert_array_equal(resumed.sketch, continuous.sketch)

    def test_fresh_sketcher_roundtrip(self, tmp_path):
        fd = FrequentDirections(8, 3)
        restored = load_sketcher(save_sketcher(fd, tmp_path / "empty.npz"))
        assert restored.n_seen == 0
        assert np.all(restored.sketch == 0)


class TestRankAdaptiveRoundTrip:
    def test_config_and_history_preserved(self, rng, tmp_path):
        ra = RankAdaptiveFD(d=40, ell=4, epsilon=0.01, nu=4, max_ell=32,
                            rng=np.random.default_rng(0), estimator="hutchinson")
        ra.partial_fit(rng.standard_normal((300, 40)) * np.linspace(3, 0.1, 40))
        path = save_sketcher(ra, tmp_path / "ra.npz")
        restored = load_sketcher(path)
        assert isinstance(restored, RankAdaptiveFD)
        assert restored.ell == ra.ell
        assert restored.epsilon == ra.epsilon
        assert restored.nu == ra.nu
        assert restored.max_ell == ra.max_ell
        assert restored.estimator == "hutchinson"
        assert restored.n_rank_increases == ra.n_rank_increases
        assert restored.rank_history == ra.rank_history
        assert restored._increase_pending == ra._increase_pending
        assert np.isfinite(ra.last_error_estimate)
        assert restored.last_error_estimate == ra.last_error_estimate
        assert restored.last_shrinkage == ra.last_shrinkage
        assert restored.total_shrinkage == ra.total_shrinkage
        np.testing.assert_array_equal(restored._buffer, ra._buffer)

    def test_resume_continues_adapting(self, rng, tmp_path):
        from repro.data.synthetic import synthetic_dataset

        a = synthetic_dataset(n=1200, d=80, rank=50, profile="exponential",
                              rate=0.03, seed=0)
        ra = RankAdaptiveFD(d=80, ell=6, epsilon=0.01, nu=6,
                            rng=np.random.default_rng(0))
        ra.partial_fit(a[:300])
        ell_at_save = ra.ell
        path = save_sketcher(ra, tmp_path / "mid.npz")
        restored = load_sketcher(path)
        restored.partial_fit(a[300:])
        assert restored.ell >= ell_at_save
        assert restored.n_seen == 1200
        # The probe RNG travels in the file, so resuming is bit-exact.
        ra.partial_fit(a[300:])
        np.testing.assert_array_equal(restored.sketch, ra.sketch)

    def test_expected_rows_none_roundtrip(self, rng, tmp_path):
        ra = RankAdaptiveFD(d=10, ell=3, epsilon=0.1, expected_rows=None,
                            rng=np.random.default_rng(0))
        restored = load_sketcher(save_sketcher(ra, tmp_path / "x.npz"))
        assert restored.expected_rows is None

    def test_expected_rows_value_roundtrip(self, rng, tmp_path):
        ra = RankAdaptiveFD(d=10, ell=3, epsilon=0.1, expected_rows=500,
                            rng=np.random.default_rng(0))
        restored = load_sketcher(save_sketcher(ra, tmp_path / "y.npz"))
        assert restored.expected_rows == 500


class TestFormatSafety:
    def test_version_check(self, rng, tmp_path):
        fd = FrequentDirections(8, 3)
        path = save_sketcher(fd, tmp_path / "v.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.array(999)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match="format"):
            load_sketcher(path)

    def test_unknown_kind(self, tmp_path):
        fd = FrequentDirections(8, 3)
        path = save_sketcher(fd, tmp_path / "k.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["kind"] = np.array("mystery")
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match="kind"):
            load_sketcher(path)

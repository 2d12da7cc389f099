"""Backend conformance: every registered backend honors the contract.

This suite is parametrized over the **registry** — not a hand-kept
list — so registering a backend is what puts it under test, and the
``test_every_backend_registered`` lint makes skipping registration
impossible.  Each test turns one clause of the
:class:`repro.core.backend.SketchBackend` contract (or one declared
:class:`~repro.core.backend.BackendCapabilities` flag) into an
executable check:

- shapes and counters after a stream;
- **read purity**: interleaved ``sketch``/``peek`` reads never change
  how the stream evolves (bit-identical twin comparison);
- ``rotate()`` compacts without changing the sketch value;
- ``state_dict`` / ``from_state`` and the ``.npz`` persistence layer
  resume bit-identically;
- merge laws: exact merges associate up to float round-off, shrink-style
  merges still honor the declared error bound, counters add exactly;
- the declared error bound holds on a seeded low-rank stream.

Capability opt-outs (``mergeable=False``, ``streaming=False``, …) are
honored by skipping the corresponding check — but only if the registry
entry documents the opt-out in its ``caveats`` string
(``test_optouts_documented``).
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

from repro.core import covariance_error, relative_covariance_error
from repro.core.backend import SketchBackend, get_backend, list_backends
from repro.core.selector import probe_stream

pytestmark = pytest.mark.backends

D = 48
ELL = 16
SEED = 3
#: Rank budget the "tail" bound is measured against (half the sketch —
#: both tail backends keep at least this much exact rank).
TAIL_RANK = ELL // 2

BACKEND_NAMES = [info.name for info in list_backends()]


def make(name, seed=SEED, d=D, ell=ELL):
    return get_backend(name).factory(d=d, ell=ell, seed=seed)


def feed(backend, rows, chunk=None):
    """Stream ``rows`` into ``backend``, honoring fit-only backends."""
    if not type(backend).capabilities.streaming:
        backend.fit(rows)
        return backend
    if chunk is None:
        backend.partial_fit(rows)
        return backend
    for i in range(0, rows.shape[0], chunk):
        backend.partial_fit(rows[i : i + chunk])
    return backend


@pytest.fixture(scope="module")
def stream():
    # Low-rank + noise — the regime every declared bound is honest in.
    return probe_stream(600, D, rank=TAIL_RANK, drift=0.0, seed=11)


@pytest.fixture(params=BACKEND_NAMES)
def info(request):
    return get_backend(request.param)


class TestContract:
    def test_shapes_and_counters(self, info, stream):
        backend = make(info.name)
        feed(backend, stream, chunk=37)
        b = backend.sketch
        assert b.ndim == 2 and b.shape[1] == D
        assert b.shape[0] <= backend.ell
        assert backend.n_seen == stream.shape[0]
        assert backend.squared_frobenius == pytest.approx(
            float(np.sum(stream * stream))
        )
        assert np.all(np.isfinite(b))
        # compact_sketch only drops exact-zero rows
        compact = backend.compact_sketch()
        assert compact.shape[0] <= b.shape[0]
        assert not np.any(np.all(compact == 0.0, axis=1))

    def test_reads_are_pure(self, info, stream):
        """Interleaved reads never perturb the stream (bitwise twin)."""
        if not info.capabilities.streaming:
            pytest.skip("fit-only backend: no mid-stream reads to interleave")
        noisy, quiet = make(info.name), make(info.name)
        for i in range(0, stream.shape[0], 41):
            batch = stream[i : i + 41]
            noisy.partial_fit(batch)
            quiet.partial_fit(batch)
            # Reads on one twin only; all four read verbs.
            _ = noisy.sketch
            _ = noisy.peek()
            _ = noisy.peek_sketch()
            _ = noisy.peek_compact_sketch()
        assert np.array_equal(noisy.sketch, quiet.sketch)
        assert noisy.n_seen == quiet.n_seen

    def test_rotate_preserves_sketch_value(self, info, stream):
        if not info.capabilities.streaming:
            pytest.skip("fit-only backend: nothing buffered to rotate")
        backend = make(info.name)
        # 23 does not divide any internal block size: pending rows exist.
        feed(backend, stream[:391], chunk=23)
        before = backend.sketch
        backend.rotate()
        assert np.array_equal(before, backend.sketch)

    def test_state_roundtrip_resumes_bit_identically(self, info, stream):
        original = make(info.name)
        if not info.capabilities.streaming:
            original.fit(stream)
            clone = type(original).from_state(original.state_dict())
            assert np.array_equal(original.sketch, clone.sketch)
            return
        feed(original, stream[:300], chunk=29)
        clone = type(original).from_state(original.state_dict())
        assert np.array_equal(original.sketch, clone.sketch)
        # Continue both — including RNG state, where the backend has one.
        feed(original, stream[300:], chunk=31)
        feed(clone, stream[300:], chunk=31)
        assert np.array_equal(original.sketch, clone.sketch)
        assert original.n_seen == clone.n_seen
        assert original.squared_frobenius == clone.squared_frobenius

    def test_npz_roundtrip(self, info, stream, tmp_path):
        from repro.core.persistence import load_sketcher, save_sketcher

        original = make(info.name)
        feed(original, stream[:300], chunk=29)
        path = save_sketcher(original, tmp_path / "ck.npz")
        loaded = load_sketcher(path)
        assert type(loaded) is type(original)
        assert np.array_equal(original.sketch, loaded.sketch)
        assert loaded.n_seen == original.n_seen
        if info.capabilities.streaming:
            feed(original, stream[300:], chunk=31)
            feed(loaded, stream[300:], chunk=31)
            assert np.array_equal(original.sketch, loaded.sketch)

    def test_error_bound_honored(self, info, stream):
        kind = info.capabilities.error_bound
        if kind == "none":
            pytest.skip("no bound declared (documented in registry caveats)")
        backend = make(info.name)
        feed(backend, stream)
        b = backend.sketch
        if kind == "fd":
            assert relative_covariance_error(stream, b) <= (
                1.0 / backend.ell
            ) * (1 + 1e-9)
            return
        err = covariance_error(stream, b)
        factor = info.capabilities.error_bound_factor
        if kind == "tail":
            svals = np.linalg.svd(stream, compute_uv=False)
            tail_energy = float(np.sum(svals[TAIL_RANK:] ** 2))
            assert err <= factor * tail_energy
        else:  # stochastic
            frob2 = float(np.sum(stream * stream))
            assert err <= factor * frob2 / np.sqrt(backend.ell)


class TestMerge:
    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(17)
        basis, _ = np.linalg.qr(rng.standard_normal((D, TAIL_RANK)))
        scales = np.power(0.8, np.arange(TAIL_RANK)) * 10.0
        make_part = lambda n: (
            rng.standard_normal((n, TAIL_RANK)) * scales
        ) @ basis.T + rng.standard_normal((n, D)) * 0.1
        return make_part(200), make_part(150), make_part(250)

    def _skip_unless_mergeable(self, info):
        if not info.capabilities.mergeable:
            pytest.skip("not mergeable (documented in registry caveats)")

    def test_merge_counters_add_exactly(self, info, parts):
        self._skip_unless_mergeable(info)
        a, b, _ = parts
        left, right = make(info.name), make(info.name)
        feed(left, a)
        feed(right, b)
        n_a, n_b = left.n_seen, right.n_seen
        f_a, f_b = left.squared_frobenius, right.squared_frobenius
        left.merge(right)
        assert left.n_seen == n_a + n_b
        assert left.squared_frobenius == f_a + f_b

    def test_merge_is_associative(self, info, parts):
        """merge_exact: association order matters only at float round-off;
        shrink-style: every order still honors the declared bound."""
        self._skip_unless_mergeable(info)
        a, b, c = parts

        def merged(order):
            backends = {k: feed(make(info.name), v)
                        for k, v in zip("abc", parts)}
            if order == "left":
                return backends["a"].merge(backends["b"]).merge(backends["c"])
            backends["b"].merge(backends["c"])
            return backends["a"].merge(backends["b"])

        left, right = merged("left"), merged("right")
        assert left.n_seen == right.n_seen == a.shape[0] + b.shape[0] + c.shape[0]
        if info.capabilities.merge_exact:
            np.testing.assert_allclose(
                left.sketch, right.sketch, rtol=1e-9, atol=1e-9
            )
            return
        union = np.vstack([a, b, c])
        for backend in (left, right):
            kind = info.capabilities.error_bound
            if kind == "fd":
                assert relative_covariance_error(union, backend.sketch) <= (
                    1.0 / backend.ell
                ) * (1 + 1e-9)
            elif kind == "tail":
                svals = np.linalg.svd(union, compute_uv=False)
                tail_energy = float(np.sum(svals[TAIL_RANK:] ** 2))
                assert covariance_error(union, backend.sketch) <= (
                    info.capabilities.error_bound_factor * tail_energy
                )
            # "none" (forgetting): merged decayed summaries have no
            # stream-Gram bound; counters were already checked.

    def test_rrf_merge_requires_shared_test_matrices(self):
        left = make("rrf", seed=1)
        right = make("rrf", seed=2)
        feed(left, np.ones((4, D)))
        feed(right, np.ones((4, D)))
        with pytest.raises(ValueError, match="same seed"):
            left.merge(right)


class TestRegistryHygiene:
    def _concrete_subclasses(self):
        """Every concrete SketchBackend subclass importable from repro."""
        import repro

        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            try:
                importlib.import_module(module_info.name)
            except ImportError:
                continue  # optional-dependency modules may be absent

        def walk(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from walk(sub)

        return [
            cls
            for cls in walk(SketchBackend)
            if not cls.__name__.startswith("_")
            and cls.__module__.startswith("repro.")
        ]

    def test_every_backend_registered(self):
        """No silently untested backends: concrete subclass => registered."""
        registered = {info.cls for info in list_backends()}
        unregistered = [
            cls.__name__
            for cls in self._concrete_subclasses()
            if cls not in registered
        ]
        assert not unregistered, (
            f"SketchBackend subclasses missing register_backend(): "
            f"{unregistered} — unregistered backends escape this suite"
        )

    def test_optouts_documented(self):
        """Every capability opt-out must be explained in registry caveats."""
        for info in list_backends():
            cap = info.capabilities
            opted_out = (
                not cap.mergeable
                or not cap.streaming
                or cap.error_bound == "none"
                or cap.batch_invariance != "exact"
            )
            if opted_out:
                assert info.caveats, (
                    f"backend {info.name!r} opts out of a capability but "
                    f"its registry entry documents no caveats"
                )

    def test_registry_metadata_complete(self):
        for info in list_backends():
            assert info.summary, f"{info.name}: empty summary"
            assert info.cls.backend_name == info.name or (
                # subclass chains may share a name attribute; the
                # registered name must at least resolve back to the class
                get_backend(info.name).cls is info.cls
            )
            # factory builds a working instance with the canonical args
            instance = info.factory(d=8, ell=4, seed=0)
            assert isinstance(instance, SketchBackend)
            assert instance.d == 8

"""Rank-adaptive Frequent Directions (paper Algorithms 1 and 2).

In online settings practitioners rarely know the right sketch size in
advance — the intrinsic rank of a SASE X-ray beam drifts shot to shot —
but they usually *can* state an error tolerance.  Rank-adaptive FD lets
the user specify a reconstruction-error threshold ``epsilon`` instead of
a rank: after each rotation the sketcher cheaply estimates how much of
the energy of the freshly processed rows the current basis fails to
capture, and schedules a rank increase of ``nu`` for the next cycle when
the estimate exceeds ``epsilon``.

The error estimate (Algorithm 1) is the random-matrix-multiplication
Frobenius estimator applied to the projection residual — ``nu`` Gaussian
probes, three thin products each, never forming the ``d x d`` projector.
The estimate is nearly free because the SVD that produces the basis was
already computed for the shrink step.

Faithfulness notes relative to the paper's pseudocode:

- The guard ``rowsLeft > ell + nu`` (line 8) requires knowing the total
  stream length; in streaming use pass ``expected_rows=None`` and the
  guard is waived.  Pass it for batch (``fit``) use to match Algorithm 2
  exactly: near the end of the stream the rank is frozen so the enlarged
  sketch never ends up with zero rows before a merge (Section IV-A.3).
- The rank grows by enlarging the FastFD buffer by ``2 * nu`` rows
  *instead of* rotating (line 9-12), exactly as in Algorithm 2, so the
  pending raw rows are preserved and re-examined under the larger rank.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import (
    BackendCapabilities,
    register_backend,
    rng_from_json,
    rng_state_to_json,
    state_array,
    state_scalar,
)
from repro.core.frequent_directions import FrequentDirections
from repro.linalg.norms import residual_fro_norm_estimate

__all__ = ["rank_adapt_estimate", "rank_adapt_heuristic", "RankAdaptiveFD"]


def rank_adapt_estimate(
    x: np.ndarray,
    u: np.ndarray,
    nu: int,
    rng: np.random.Generator | None = None,
    relative: bool = True,
    method: str = "gaussian",
) -> float:
    """The normalized residual estimate Algorithm 1 thresholds against.

    Estimates ``||X - U U^T X||_F^2`` with ``nu`` random probes and
    normalizes it either by the batch energy (``relative=True``) or by
    the sample count (the paper's ``Avg / n``).  Exposed separately from
    :func:`rank_adapt_heuristic` so the estimate itself can be observed
    (it is the "estimated residual error" health metric), not just the
    boolean decision.

    Returns
    -------
    float
        The normalized estimate; ``0.0`` for an empty or all-zero batch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (features x samples)")
    n = x.shape[1]
    if n == 0:
        return 0.0
    est = residual_fro_norm_estimate(x, u, n_samples=nu, rng=rng, method=method)
    if relative:
        total = float(np.sum(x * x))
        if total == 0.0:
            return 0.0
        return est / total
    return est / n


def rank_adapt_heuristic(
    x: np.ndarray,
    u: np.ndarray,
    nu: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    relative: bool = True,
    method: str = "gaussian",
) -> bool:
    """Paper Algorithm 1: decide whether the sketch rank should increase.

    Estimates ``||X - U U^T X||_F^2`` with ``nu`` random probes and
    compares the (per-sample or relative) estimate against ``epsilon``.

    Parameters
    ----------
    x:
        ``d x n`` batch of the most recently processed samples, features
        by samples (the paper's convention).
    u:
        ``d x k`` orthonormal basis currently retained by the sketch.
    nu:
        Number of random probes.
    epsilon:
        Error threshold.  With ``relative=True`` this is a fraction of
        the batch energy in ``[0, 1]``; otherwise it is compared against
        the per-sample residual energy (the paper's ``Avg / n``).
    rng:
        Source of randomness.
    relative:
        Normalize the residual estimate by the batch's total energy.
        The paper's pseudocode uses the absolute per-sample form; the
        relative form is the practical default because it is invariant
        to intensity rescaling of the detector.
    method:
        Residual estimator; see
        :func:`repro.linalg.norms.residual_fro_norm_estimate`.

    Returns
    -------
    bool
        ``True`` when the estimated error exceeds ``epsilon`` — i.e. the
        rank *should* increase.  (Note the paper's pseudocode returns the
        complementary indicator; we return the actionable flag.)
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return (
        rank_adapt_estimate(x, u, nu=nu, rng=rng, relative=relative, method=method)
        > epsilon
    )


class RankAdaptiveFD(FrequentDirections):
    """Frequent Directions whose sketch size tracks a target error.

    Parameters
    ----------
    d:
        Feature dimension.
    ell:
        Initial sketch size.
    epsilon:
        Target reconstruction-error threshold (see
        :func:`rank_adapt_heuristic`).
    nu:
        Rank increment per adaptation *and* the number of random probes
        used by the error estimate, as in the paper.
    max_ell:
        Hard cap on the sketch size (memory bound).  ``None`` means
        ``d`` (beyond which a sketch is pointless).
    expected_rows:
        Total stream length if known; enables the paper's
        ``rowsLeft > ell + nu`` guard.  ``None`` (streaming) waives it.
    rng:
        Source of randomness for the error probes.
    relative_error:
        Interpret ``epsilon`` as a fraction of batch energy
        (recommended) rather than absolute per-sample energy.
    estimator:
        Residual norm estimator: ``"gaussian"`` (paper), ``"hutchinson"``,
        ``"hutchpp"``, ``"gkl"``, or ``"exact"``.
    rotation_kernel:
        Rotation kernel (see :class:`FrequentDirections`).

    Attributes
    ----------
    n_rank_increases : int
        How many times the rank was grown.
    rank_history : list[tuple[int, int]]
        ``(n_seen, ell)`` recorded at each growth, for diagnostics.
    last_error_estimate : float
        The most recent Algorithm-1 residual estimate (``nan`` before
        the first rotation) — the quantity health monitoring exports as
        ``arams_residual_error_estimate``.
    """

    # The adaptation heuristic needs the right-singular basis of every
    # rotated buffer, so ask fd_rotate to materialize it.
    _needs_rotation_basis = True

    capabilities = BackendCapabilities(
        mergeable=True,
        merge_exact=False,
        rank_adaptive=True,
        batch_invariance="exact",
        # The FD analysis bounds total shrinkage by ||A||_F^2 / ell_min;
        # the initial ell is the worst case, so the plain FD bound (with
        # the construction-time ell) still holds after any growth.
        error_bound="fd",
    )

    def __init__(
        self,
        d: int,
        ell: int,
        epsilon: float,
        nu: int = 10,
        max_ell: int | None = None,
        expected_rows: int | None = None,
        rng: np.random.Generator | None = None,
        relative_error: bool = True,
        estimator: str = "gaussian",
        rotation_kernel: str = "auto",
    ):
        super().__init__(d=d, ell=ell, rotation_kernel=rotation_kernel)
        if nu < 1:
            raise ValueError(f"nu must be >= 1, got {nu}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        self.epsilon = float(epsilon)
        self.nu = int(nu)
        self.max_ell = int(max_ell) if max_ell is not None else int(d)
        if self.max_ell < ell:
            raise ValueError(
                f"max_ell={self.max_ell} is below the initial ell={ell}"
            )
        self.expected_rows = expected_rows
        self._rng = rng if rng is not None else np.random.default_rng()
        self.relative_error = bool(relative_error)
        self.estimator = estimator
        self._increase_pending = False
        self._recent_rows: np.ndarray | None = None
        self.n_rank_increases = 0
        self.rank_history: list[tuple[int, int]] = [(0, ell)]
        self.last_error_estimate = float("nan")

    # ------------------------------------------------------------------
    def _rows_left(self) -> int | None:
        if self.expected_rows is None:
            return None
        return max(self.expected_rows - self.n_seen, 0)

    def _can_rank_adapt(self) -> bool:
        """The paper's ``rowsLeft > ell + nu`` guard (waived when unknown)."""
        left = self._rows_left()
        if left is None:
            return True
        return left > self.ell + self.nu

    def _on_buffer_full(self) -> None:
        """Grow the buffer instead of rotating when an increase is due."""
        if (
            self._increase_pending
            and self._can_rank_adapt()
            and self.ell + self.nu <= self.max_ell
        ):
            self._grow(self.nu)
            self._increase_pending = False
        else:
            self._rotate()

    def _grow(self, nu: int) -> None:
        """Enlarge ``ell`` by ``nu`` (buffer by ``2 nu`` zero rows)."""
        new_ell = self.ell + nu
        extra = np.zeros((2 * new_ell - self._buffer.shape[0], self.d))
        self._buffer = np.vstack([self._buffer, extra])
        self.ell = new_ell
        self.n_rank_increases += 1
        self.rank_history.append((self.n_seen, new_ell))
        obs = self.observer
        if obs is not None:
            obs.on_rank_increase(self)

    def _rotate(self) -> None:
        # Snapshot the raw (unshrunk) rows of this cycle before the SVD
        # destroys them; they are the "freshly processed sample" whose
        # reconstruction error Algorithm 2 estimates (line 20).
        recent = self._buffer[self._sketch_rows : self._next_zero]
        self._recent_rows = recent.copy() if recent.shape[0] else None
        super()._rotate()

    def _post_rotate(self, s: np.ndarray, vt: np.ndarray | None) -> None:
        """Estimate the residual of the recent rows; maybe flag an increase."""
        if vt is None or self._recent_rows is None or not self._can_rank_adapt():
            return
        if self.ell + self.nu > self.max_ell:
            return
        # Basis of the retained row space: top-ell right singular vectors
        # of the pre-shrink buffer (already computed for the shrink).
        k = min(self.ell, vt.shape[0])
        u = vt[:k].T  # d x k, orthonormal columns
        estimate = rank_adapt_estimate(
            self._recent_rows.T,  # d x n, the paper's orientation
            u,
            nu=self.nu,
            rng=self._rng,
            relative=self.relative_error,
            method=self.estimator,
        )
        self.last_error_estimate = estimate
        self._increase_pending = estimate > self.epsilon
        obs = self.observer
        if obs is not None:
            obs.on_error_estimate(self, estimate, self._increase_pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankAdaptiveFD(d={self.d}, ell={self.ell}, epsilon={self.epsilon}, "
            f"nu={self.nu}, increases={self.n_rank_increases}, "
            f"n_seen={self.n_seen})"
        )

    # ------------------------------------------------------------------
    # SketchBackend state round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            epsilon=self.epsilon,
            nu=self.nu,
            max_ell=self.max_ell,
            expected_rows=-1 if self.expected_rows is None else self.expected_rows,
            relative_error=int(self.relative_error),
            estimator=self.estimator,
            increase_pending=int(self._increase_pending),
            n_rank_increases=self.n_rank_increases,
            rank_history=np.array(self.rank_history, dtype=np.int64).reshape(-1, 2),
            last_error_estimate=self.last_error_estimate,
            # Serializing the probe generator makes resume bit-identical.
            rng_state=rng_state_to_json(self._rng),
        )
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.epsilon = state_scalar(state["epsilon"], float)
        self.nu = state_scalar(state["nu"], int)
        self.max_ell = state_scalar(state["max_ell"], int)
        expected = state_scalar(state["expected_rows"], int)
        self.expected_rows = None if expected < 0 else expected
        self.relative_error = bool(state_scalar(state["relative_error"], int))
        self.estimator = state_scalar(state["estimator"], str)
        self._increase_pending = bool(state_scalar(state["increase_pending"], int))
        self.n_rank_increases = state_scalar(state["n_rank_increases"], int)
        self.rank_history = [
            (int(a), int(b))
            for a, b in state_array(state["rank_history"], dtype=np.int64)
        ]
        self.last_error_estimate = state_scalar(state["last_error_estimate"], float)
        self._rng = rng_from_json(state_scalar(state["rng_state"], str))
        self._recent_rows = None

    @classmethod
    def _ctor_args(cls, state: dict) -> dict:
        args = super()._ctor_args(state)
        args.update(
            epsilon=state_scalar(state["epsilon"], float),
            nu=state_scalar(state["nu"], int),
            max_ell=state_scalar(state["max_ell"], int),
        )
        return args


register_backend(
    "rank_adaptive",
    RankAdaptiveFD,
    factory=lambda d, ell, seed=None, epsilon=0.1, nu=4: RankAdaptiveFD(
        d=d, ell=ell, epsilon=epsilon, nu=nu, rng=np.random.default_rng(seed)
    ),
    summary="Rank-adaptive FD (paper Algorithm 2): sketch size grows to "
            "meet an error tolerance (epsilon=0.1 registered config)",
    tags=("paper", "fd-family", "adaptive"),
)

"""Sketch persistence: checkpoint and restore sketcher state.

A monitoring deployment must survive restarts without replaying the
whole run: the sketch *is* the run's summary, so checkpointing it (a few
``ell x d`` floats) is enough to resume exactly where ingest stopped.
``save_sketcher`` / ``load_sketcher`` serialize any registered
:class:`~repro.core.backend.SketchBackend` to a single ``.npz`` file.

One layout serves every backend: the backend's registered name plus
its ``state_dict`` entries (``state_``-prefixed), restored through the
registry via ``from_state``.  The state dict holds every field,
including the buffer with pending un-rotated rows, all counters and
shrinkage totals, the adaptation state and any RNG state, so continuing
a stream after ``load`` produces bit-identical sketches to never having
stopped.  Files written by an older format version are refused.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.backend import SketchBackend, get_backend

__all__ = ["save_sketcher", "load_sketcher", "load_sketcher_with_extras"]

#: Version 2 dropped the field-by-field ``"plain"``/``"rank_adaptive"``
#: layouts of version 1; every file now holds the ``"backend"`` kind.
_FORMAT_VERSION = 2
_KIND = "backend"
_EXTRA_PREFIX = "extra_"
_STATE_PREFIX = "state_"


def save_sketcher(
    sketcher: SketchBackend,
    path: str | Path,
    extras: Mapping[str, int | float] | None = None,
) -> Path:
    """Checkpoint a sketcher to ``path`` (``.npz``).

    Parameters
    ----------
    sketcher:
        Any registered :class:`~repro.core.backend.SketchBackend`
        (ARAMS users checkpoint ``arams.sketcher``).
    path:
        Output file; ``.npz`` is appended by numpy if missing.
    extras:
        Optional scalar metadata stored alongside the sketcher state —
        e.g. the shard row offset a distributed rank had reached, so a
        restarted rank knows where to resume its stream.  Read back
        with :func:`load_sketcher_with_extras`.

    Returns
    -------
    pathlib.Path
        The file actually written.
    """
    name = getattr(type(sketcher), "backend_name", None)
    if name is None:
        raise ValueError(
            f"{type(sketcher).__name__} is not a registered backend; "
            "register it (repro.core.backend.register_backend) to make "
            "it checkpointable"
        )
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(_FORMAT_VERSION),
        "kind": np.array(_KIND),
        "backend_name": np.array(name),
    }
    for key, value in sketcher.state_dict().items():
        payload[_STATE_PREFIX + key] = np.asarray(value)
    for key, value in (extras or {}).items():
        if _STATE_PREFIX + key in payload or not key.isidentifier():
            raise ValueError(f"invalid extras key {key!r}")
        payload[_EXTRA_PREFIX + key] = np.array(value)
    path = Path(path)
    with path.open("wb") as fh:
        np.savez(fh, **payload)
    return path


def load_sketcher(path: str | Path) -> SketchBackend:
    """Restore a sketcher checkpointed by :func:`save_sketcher`.

    Returns
    -------
    SketchBackend
        Ready to continue ``partial_fit`` exactly where it stopped.
    """
    sketcher, _ = load_sketcher_with_extras(path)
    return sketcher


def load_sketcher_with_extras(
    path: str | Path,
) -> tuple[SketchBackend, dict[str, float]]:
    """Like :func:`load_sketcher`, also returning the ``extras`` metadata.

    Extras come back as a plain ``{name: float}`` dict (empty when the
    checkpoint was written without any).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {version} not supported "
                f"(this build reads {_FORMAT_VERSION})"
            )
        kind = str(data["kind"])
        if kind != _KIND:
            raise ValueError(f"unknown sketcher kind {kind!r} in checkpoint")
        state = {
            key[len(_STATE_PREFIX):]: data[key]
            for key in data.files
            if key.startswith(_STATE_PREFIX)
        }
        sketcher = get_backend(str(data["backend_name"])).cls.from_state(state)
        extras = {
            key[len(_EXTRA_PREFIX):]: float(data[key])
            for key in data.files
            if key.startswith(_EXTRA_PREFIX)
        }
    return sketcher, extras

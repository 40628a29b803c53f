"""The one batch contract every search backend checks before any work."""

from __future__ import annotations

import numpy as np


def check_batch(queries, ndim: int, r: float | None = None) -> np.ndarray:
    """``queries`` as a ``(Q, ndim)`` float64 array, or ValueError.

    Every backend calls this on the whole batch before it charges a
    counter, registers a leader or moves an anchor, so a bad row anywhere
    in the batch leaves all of them untouched.  A batch is rejected when
    its shape is not ``(Q, ndim)`` (an empty batch included), when any
    coordinate is NaN or infinite, or, for a radius search, when ``r`` is
    negative or NaN.  A 1-D query is a 1-row batch.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2 or queries.shape[1] != ndim:
        raise ValueError(
            f"queries have shape {queries.shape}, the index has dimension {ndim}"
        )
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain NaN or infinity")
    if r is not None and not r >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")
    return queries

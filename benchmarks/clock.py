"""Operation timing corrected for the speed of a shared host.

The host the benchmark runs on shares its cores with other machines and
runs the same code up to about 1.8x slower for seconds to minutes at a time.
Neither medians nor minima over a run remove that: a whole run can fall in
a slow spell. ``ReferenceClock`` therefore times fixed reference work right
before and right after each operation and reports the operation's wall time
scaled by the reference time at a calm host (``REFERENCE_S``) over the mean
of the two measured reference times: the time the operation would have
taken on the calm host.

A busy host slows interpreted Python and numpy array work by different
factors, so there are two kinds of reference work: an interpreted
coordinate-descent loop with dict lookups, and numpy sort-and-scan plus
Gram-block arithmetic. Each is a frozen copy of the kind of work the program
does and uses nothing from ``atree``, so a change to the program does not
change it. An operation is cut into segments of at least ``SEGMENT_S``
where a wrapped call into the program returns (``split_after``); each
segment is scaled by the reference of its kind, measured around it, and the
reference work is never counted in the operation's time.
"""

from __future__ import annotations

import functools
import time

import numpy as np

KINDS = ("interpreted", "array")
# Reference times of the two kinds on the 2-core x86-64 machine the
# benchmark was defined on, while its host was calm.
REFERENCE_S = (0.008, 0.009)
# Shortest stretch of an operation scaled by one pair of reference times.
SEGMENT_S = 0.3

_rng = np.random.default_rng(20160802)
_X = np.hstack([_rng.standard_normal((120, 16)), np.ones((120, 1))])
_Y = np.where(_rng.random(120) < 0.5, 1.0, -1.0)
_Q = (_X * _X).sum(axis=1)
_S = _rng.standard_normal((2000, 16))
_A = _rng.standard_normal((300, 8))
_V = _rng.standard_normal((64, 800))


def _interpreted():
    """Dual coordinate descent on a fixed problem, element by element, and a
    cache of values keyed by id, as the solver and the evaluation do."""
    alpha = np.zeros(len(_Y))
    w = np.zeros(_X.shape[1])
    order = np.random.default_rng(0)
    for _ in range(12):
        for i in order.permutation(len(_Y)):
            g = _Y[i] * float(_X[i] @ w) - 1.0
            new = min(max(alpha[i] - g / _Q[i], 0.0), 1.0)
            if new != alpha[i]:
                w += (new - alpha[i]) * _Y[i] * _X[i]
                alpha[i] = new
    cache = {}
    for k in range(8000):
        cache[k % 997] = float(k)
    return w, [cache[k % 997] for k in range(4000)]


def _array():
    """Sorted prefix sums over fixed columns, as a stump search does, and RBF
    Gram blocks with whole-vector updates, as the kernel solver does."""
    best = 0
    for j in range(24):
        col = _S[:, j % _S.shape[1]]
        order = np.argsort(col, kind="stable")
        best += int(np.argmin(np.abs(np.cumsum(col[order]))))
    sq = (_A * _A).sum(axis=1)
    for _ in range(2):
        d2 = sq[:, None] + sq[None, :] - 2.0 * (_A @ _A.T)
        gram = np.exp(-0.2 * np.maximum(d2, 0.0))
    f = _V[0].copy()
    for i in range(200):
        f += 0.01 * _V[i % len(_V)]
        f[int(np.argmax(f))] *= 0.5
    return best, gram, f


def reference_seconds():
    """Wall times of one pass of each kind of reference work, in KINDS order."""
    t0 = time.perf_counter()
    _interpreted()
    t1 = time.perf_counter()
    _array()
    return t1 - t0, time.perf_counter() - t1


class ReferenceClock:
    """Times operations in segments, each scaled by the reference times of
    its kind measured right before and right after it."""

    def __init__(self):
        self.last = reference_seconds()
        self._open = None  # perf_counter() at the start of the open segment
        self._wall = self._scaled = 0.0

    def time(self, fn, *args, kind="interpreted"):
        """Runs fn(*args); its last segment is of ``kind``. Returns (result,
        wall seconds, scaled seconds)."""
        self._wall = self._scaled = 0.0
        self._open = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._close(kind)
            self._open = None
        return result, self._wall, self._scaled

    def split(self, kind="interpreted"):
        """Inside a timed operation, once the open segment has run for
        SEGMENT_S: closes it as a segment of ``kind`` and opens the next.
        Otherwise does nothing."""
        if self._open is not None and time.perf_counter() - self._open >= SEGMENT_S:
            self._close(kind)
            self._open = time.perf_counter()

    def split_after(self, fn, kind):
        """fn, followed by a split of ``kind`` on every return."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.split(kind)
            return result
        return wrapper

    def _close(self, kind):
        seconds = time.perf_counter() - self._open
        before, self.last = self.last, reference_seconds()
        k = KINDS.index(kind)
        self._wall += seconds
        self._scaled += seconds * 2.0 * REFERENCE_S[k] / (before[k] + self.last[k])

"""Host-speed calibration, for timing on a shared machine.

On a small shared VM the host's speed changes over seconds to minutes: the
same repetition can take 1.5 times as long in a slow phase as in a fast
one, and the process's CPU time grows with it, so the slowdown is not time
stolen from the process. A run of a minute cannot average such phases away.

The calibrator therefore times a small fixed kernel, built only from the
libraries the program itself leans on (a Python loop, small dense numpy
products, sparse assembly, a small sparse factorization and LU solves),
about every ``INTERVAL_S`` while a
repetition runs. Samples are taken from the probe's wrappers and from
inside ADMM iterations, so a long QP solve is sampled too. The time the
kernel takes is subtracted from every timed interval, and each interval is
then scaled by ``REF_S`` over the mean kernel time around it. A reported
time thus reads as seconds at the host's reference speed. The kernel is the
benchmark's own code, so a change to stepplan cannot move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# bound at import, before the probe patches ``spla.splu``, so that the
# kernel's factorizations are neither counted nor able to sample again
_splu = spla.splu


class Calibrator:
    #: seconds between samples while active
    INTERVAL_S = 0.1
    #: samples this far either side of an interval count into its scale
    WINDOW_S = 0.5
    #: kernel time at the reference speed, about the host's fast phase on a
    #: 2-core x86-64 VM (Xeon, 2.0 GHz). A fixed constant: it sets the unit
    #: of every scaled time, so changing it changes every baseline.
    REF_S = 3.4e-3

    def __init__(self):
        rng = np.random.default_rng(20161206)
        n = 400
        a = sp.random(n, n, density=0.01, random_state=rng) + 4.0 * sp.eye(n)
        self._a = (a + a.T).tocsc()
        self._lu = _splu(self._a)
        self._v = np.ones(n)
        self._m = rng.normal(size=(40, 40))
        mask = rng.random((30, 30)) < 0.2
        self._p = sp.csr_matrix(rng.normal(size=(30, 30)) * mask)
        self._b = sp.csr_matrix(rng.normal(size=(12, 30)) * (rng.random((12, 30)) < 0.3))
        self.active = False
        self.times: list[float] = []  # sample midpoints, increasing
        self.costs: list[float] = []  # kernel seconds per sample
        self.spent = 0.0  # total seconds spent sampling, to subtract
        self._next = 0.0
        self._prefix = [0.0]  # running sums of kernel seconds
        for _ in range(30):  # warm the kernel's caches before any sample counts
            self._kernel()

    def _kernel(self) -> float:
        # ADMM-like: a loop of LU solves and small dense and vector products
        s = 0.0
        for i in range(1500):
            s += i * 0.5
        x = self._v
        for _ in range(15):
            x = self._lu.solve(x) + 0.1 * (self._a @ x)
            x = x / np.linalg.norm(x) + 1e-3 * (self._m @ self._m[:, :1]).sum()
        # BoxQp-set-up-like: assemble and factor a small KKT matrix
        q = (self._p.T @ self._p + sp.eye(30)).tocsr()
        kkt = sp.bmat([[q, self._b.T], [self._b, -1e-3 * sp.eye(12)]], format="csc")
        y = _splu(kkt).solve(np.ones(42))
        order = sorted(range(42), key=lambda k: y[k])
        return s + float(x[0]) + order[0]

    def sample(self) -> None:
        """Time the kernel once and record it."""
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.costs.append(t1 - t0)
        self._prefix.append(self._prefix[-1] + t1 - t0)
        self._next = t1 + self.INTERVAL_S
        self.spent += time.perf_counter() - t0

    def tick(self) -> None:
        """Sample if active and the interval has passed; cheap otherwise."""
        if self.active and time.perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over the mean kernel time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if hi == lo:  # no sample in the window: the nearest one
            k = min(lo, len(self.times) - 1)
            if k > 0 and abs(self.times[k - 1] - start) < abs(self.times[k] - end):
                k -= 1
            lo, hi = k, k + 1
        return self.REF_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])


class TickingLu:
    """A sparse LU factor whose ``solve`` gives the calibrator a chance to sample.

    ``qp`` calls ``solve`` once per ADMM iteration; nothing else of the
    factor is used.
    """

    __slots__ = ("_lu", "_cal")

    def __init__(self, lu, cal: Calibrator):
        self._lu = lu
        self._cal = cal

    def solve(self, rhs, *args, **kwargs):
        self._cal.tick()
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)

"""Host-speed reference for calibrated end-to-end timings.

On the shared 2-core development host, the CPU time of one unit drifts by
up to 2x over seconds to minutes: other tenants slow the core, not the
scheduler.  A fixed reference computation, timed next to the units, slows
along with them.  A unit's time divided by the adjacent reference time is
therefore steady, and times REF_NOMINAL_S it reads as seconds on an
undisturbed host.  The reference is frozen code that never calls qcorr, so
a change to qcorr moves the calibrated figures and a change of host speed
does not.

The reference mimics qcorr's hot path: numpy calls on 4x4 complex arrays
(eigh, matmul, a 3-operand einsum, entropy of a clipped vector), where
per-call dispatch dominates.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 0.010  # one reference sample on the undisturbed host
MIN_GAP_S = 0.2        # sample at most this often (structure units are ms)
ITERATIONS = 100


class Reference:
    """Timed reference samples, taken between units of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        self._h = h
        self._r = (h @ h / np.trace(h @ h)).reshape(2, 2, 2, 2)
        self._m = rng.normal(size=(2, 2, 2)) + 0j
        self.samples: list[float] = []
        self._last = -np.inf

    def _work(self) -> float:
        total = 0.0
        for _ in range(ITERATIONS):
            w, v = np.linalg.eigh(self._h)
            u = (v * np.exp(1j * w)) @ v.conj().T
            p = np.einsum("iac,jbd,cdab->ij", self._m, self._m, self._r,
                          optimize=True)
            q = np.clip(p.real, 0.0, None).sum(axis=1)
            nz = q[q > 0]
            total += float(-(nz * np.log2(nz)).sum()) + float(u[0, 0].real)
        return total

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self.samples[-1]

    def due(self) -> int:
        """Sample if MIN_GAP_S has passed; index of the latest sample."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.sample()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Mean of sample `index` and the next one (taken after the unit)."""
        later = self.samples[min(index + 1, len(self.samples) - 1)]
        return (self.samples[index] + later) / 2

    def calibrate(self, seconds: float, index: int) -> float:
        return seconds / self.around(index) * REF_NOMINAL_S

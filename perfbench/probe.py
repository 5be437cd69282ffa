"""Host-speed probe: a fixed Fp2-style kernel timed in a helper process.

This host's speed drifts by tens of percent within a minute, so every
timing the benchmark reports is multiplied by ``NOMINAL_S / probe``,
where ``probe`` is the kernel's time measured right after the timed
work.  The kernel runs in its own interpreter and never imports pbcap,
so nothing pbcap does to its own process (GC settings, heap growth,
caches) can move it.

Run as a script, the module serves requests: each line on stdin runs the
kernel once and answers with its duration in seconds on stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# A fixed reference time.  On the 2-vCPU 2.1 GHz Xeon host (CPython 3.11)
# where the benchmark was written, the kernel took 14-28 ms as the host's
# speed changed; normalised figures read as seconds there with it at 20 ms.
NOMINAL_S = 0.02

_SCRIPT = os.path.abspath(__file__)
_P = 65000549695646603732796438742359905742825358107623003571877145026864184071783
_ROUNDS = 7500


class _Fp2:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def __mul__(self, other: "_Fp2") -> "_Fp2":
        a = self.x * other.x
        b = self.y * other.y
        return _Fp2(((self.x + self.y) * (other.x + other.y) - a - b) % _P, (b - a) % _P)

    def __add__(self, other: "_Fp2") -> "_Fp2":
        return _Fp2((self.x + other.x) % _P, (self.y + other.y) % _P)


def kernel() -> _Fp2:
    """Big-integer multiplies and small-object churn, like a pairing's inner loop."""
    a = _Fp2(0x1234567890ABCDEF1234567890ABCDEF % _P, 0xFEDCBA0987654321FEDCBA0987654321 % _P)
    b = _Fp2(3, 1)
    for _ in range(_ROUNDS):
        a = a * a + b
    return a


def serve() -> None:
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


class Probe:
    """Client side: owns the helper process and asks it for one timing."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, _SCRIPT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.measure()  # the first call pays the helper's start-up

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()

"""Closed-loop measurement: one caller runs whole rounds of ops until the run
time is spent, timing each op.

The machine's speed drifts by up to 1.6x in stretches of seconds, and the
process cannot see it (CPU time equals wall time).  So every timing is taken
next to a fixed calibration kernel and scaled to reference speed: a time
``t`` measured while the kernel took ``k`` seconds is reported as
``t * KERNEL_REF_S / k``, the time it would take on a machine on which the
kernel takes ``KERNEL_REF_S``.  The kernel is benchmark code, so a change to
the program cannot move it.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

import numpy as np

import tracing

MIN_OPS = 40          # the p90 needs this many samples behind it
KERNEL_REF_S = 0.002  # the kernel's time at reference speed
CALIBRATE_EVERY = 0.1  # seconds of ops between two kernel timings

_KERNEL_MATRIX = (np.arange(96 * 96).reshape(96, 96) % 3 == 0).astype(np.uint8)
_KERNEL_IDS = [f"e{i}" for i in range(400)]
_KERNEL_SETS = (frozenset(_KERNEL_IDS[:250]), frozenset(_KERNEL_IDS[100:350]),
                frozenset(_KERNEL_IDS[50:300]))


def kernel_seconds() -> float:
    """Time the calibration kernel: a pure-Python loop, frozenset algebra
    and hashing over element ids, and a small integer matmul, the kinds of
    work the program's ops are made of."""
    a, b, c = _KERNEL_SETS
    t0 = perf_counter()
    s = 0
    for i in range(8000):
        s += i * i
    for _ in range(60):
        s += ((a & b) <= c) + hash(a | b)
    _KERNEL_MATRIX @ _KERNEL_MATRIX
    return perf_counter() - t0


def alloc_peak_mb(fn, *args) -> float:
    """Run ``fn(*args)`` once under tracemalloc and return, in MB, the most
    memory it held allocated at one time.  Only blocks allocated during the
    call count (numpy reports its arrays to tracemalloc too), so the
    interpreter's and the set-ups' memory does not, and the figure does not
    depend on the machine's speed or on the allocator's history."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class OpTimer:
    """Times each op, or each set-up; an op that raises counts as attempted
    and failed.

    The kernel is timed before an op whenever ``CALIBRATE_EVERY`` seconds
    have passed since its last timing, so before every op longer than that.
    An op is scaled by the mean of the kernel timings just before and just
    after it, which follows a change of speed in the middle of an op.
    """

    def __init__(self, rec: tracing.Recorder | None = None):
        self.rec = rec
        self.wall: list[float] = []
        self.kernel_at: list[int] = []  # per op: index of the kernel timing before it
        self.kernel: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self._next_calibration = 0.0

    def calibrate(self) -> None:
        self.kernel.append(kernel_seconds())
        self._next_calibration = perf_counter() + CALIBRATE_EVERY

    def __call__(self, fn, *args):
        if perf_counter() >= self._next_calibration:
            self.calibrate()
        if self.rec is not None:
            self.rec.op = self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing op is counted, not fatal to the run
            out = None
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        self.wall.append(perf_counter() - t0)
        self.kernel_at.append(len(self.kernel) - 1)
        return out

    def skip(self, n: int) -> None:
        """Ops a failed op left unreachable: attempted, failed, not timed."""
        self.attempted += n
        self.failed += n

    def latencies(self) -> list[float]:
        """Op times at reference speed."""
        k = self.kernel
        return [w * KERNEL_REF_S * 2 / (k[i] + k[min(i + 1, len(k) - 1)])
                for w, i in zip(self.wall, self.kernel_at)]

    def summary(self) -> dict:
        lat = self.latencies()
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        }

    def speed(self) -> float:
        """Reference speed over this timer's wall speed, from the median
        kernel timing."""
        return KERNEL_REF_S / statistics.median(self.kernel)

    def wall_summary(self) -> dict:
        return {
            "wall_ops_per_s": len(self.wall) / sum(self.wall),
            "wall_op_p50_ms": statistics.median(self.wall) * 1e3,
            "kernel_p50_ms": statistics.median(self.kernel) * 1e3,
        }


def measure(workload, seconds: float, rec: tracing.Recorder | None = None):
    """Run rounds until ``seconds`` have passed and at least MIN_OPS ops ran.

    With ``rec``, rounds alternate untraced and traced (starting untraced),
    so both timers see the same stretches of machine speed; the difference
    between them is the tracing overhead.  Returns (untraced, traced).
    """
    plain = OpTimer()
    traced = OpTimer(rec) if rec is not None else None
    deadline = perf_counter() + seconds
    while True:
        timer = traced if traced is not None and plain.rounds > traced.rounds else plain
        if timer is traced:
            rec.phase = "op"
            with tracing.installed(rec):
                workload.run_round(timer)
        else:
            workload.run_round(timer)
        timer.calibrate()  # the timing after the round's last op
        timer.rounds += 1
        workload.end_round()
        if perf_counter() < deadline:
            continue
        if (traced is None or traced.rounds) and min(
            plain.attempted, traced.attempted if traced else MIN_OPS
        ) >= MIN_OPS:
            return plain, traced

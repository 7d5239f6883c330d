"""CPU speed on a shared host (standard library only).

On a shared virtual machine the speed of each virtual CPU changes with
the load its neighbours put on the same hardware: in spells of seconds,
independently per CPU, and in phases of minutes for the whole machine.
Two tools deal with it:

``pin_fastest`` runs a short probe on each allowed CPU and pins the
calling process to the fastest one, which keeps most of the measured work
out of the slow spells.  It changes only the calling process's affinity.

``timed`` runs a call while a timer signal interrupts it every
``PERIOD_S`` to time the probe again on the same CPU.  Besides the wall
and CPU time of the call (the probes' own time taken out) it returns both
in probe units: each stretch between two probes is divided by the probe
time that closes it, so a slow spell lengthens numerator and denominator
alike and cancels.
"""

from __future__ import annotations

import os
import signal
import time

PERIOD_S = 0.1        # probe interval inside a timed call
TICK_LOOPS = 4_000    # probe length inside a timed call (about 1 ms)


def probe(loops: int = 20_000) -> float:
    """Seconds for a fixed piece of interpreter work (about 5 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(loops):
        acc += (i * 1.37) % 1.0
    return time.perf_counter() - t0


def pin_fastest(cpus) -> tuple:
    """Pin this process to the CPU of `cpus` that runs the probe fastest.

    Returns (cpu, probe seconds on it); (None, probe seconds) when there is
    only one CPU to choose from.
    """
    cpus = sorted(cpus)
    if len(cpus) < 2:
        return None, min(probe() for _ in range(2))
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = min(probe() for _ in range(2))
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return best, times[best]


def timed(fn):
    """(fn(), figures) with wall_s, cpu_s, wall_norm, cpu_norm, probes."""
    ticks = []    # (wall, cpu) when a probe started, its seconds, its cost

    def tick(signum, frame):
        w, c = time.perf_counter(), time.process_time()
        p = probe(TICK_LOOPS)
        ticks.append((w, c, p, time.perf_counter() - w, time.process_time() - c))

    old = signal.signal(signal.SIGALRM, tick)
    w0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        w1, c1 = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, old)
    ticks = [t for t in ticks if t[0] < w1]
    ticks.append((w1, c1, probe(TICK_LOOPS), 0.0, 0.0))
    fig = {"wall_s": 0.0, "cpu_s": 0.0, "wall_norm": 0.0, "cpu_norm": 0.0,
           "probes": len(ticks)}
    prev_w, prev_c = w0, c0
    for w, c, p, cost_w, cost_c in ticks:
        fig["wall_s"] += w - prev_w
        fig["cpu_s"] += c - prev_c
        fig["wall_norm"] += (w - prev_w) / p
        fig["cpu_norm"] += (c - prev_c) / p
        prev_w, prev_c = w + cost_w, c + cost_c
    return out, fig

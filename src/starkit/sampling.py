"""Reproducible Monte Carlo plumbing.

All stochastic estimates draw from a counter-based generator (Philox)
keyed by ``(seed, chunk_index)`` over fixed-size chunks, so a result is a
pure function of the seed and is bit-identical no matter how many worker
threads process the chunks.  ``STARKIT_THREADS`` caps the thread pool.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 4096


def thread_count() -> int:
    """Worker threads from ``STARKIT_THREADS``: 1 when it is unset, else a
    positive decimal integer (ValueError for any other value)."""
    raw = os.environ.get("STARKIT_THREADS")
    if raw is None:
        return 1
    if not re.fullmatch(r"[0-9]+", raw) or int(raw) < 1:
        raise ValueError(f"STARKIT_THREADS must be a positive decimal "
                         f"integer, not {raw!r}")
    return int(raw)


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(chunk_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_chunk(seed: int, chunk_index: int, size: int, dim: int = 2) -> np.ndarray:
    return chunk_rng(seed, chunk_index).random((size, dim))


def stratified_chunk(seed: int, chunk_index: int, start: int, size: int,
                     grid: int) -> np.ndarray:
    """Jittered-grid points for global sample indices [start, start+size)."""
    u = chunk_rng(seed, chunk_index).random((size, 2))
    idx = np.arange(start, start + size)
    cell = idx % (grid * grid)
    cx, cy = cell % grid, cell // grid
    return np.column_stack([(cx + u[:, 0]) / grid, (cy + u[:, 1]) / grid])


def _chunk_sizes(samples: int) -> list[int]:
    """Sizes of the chunks that hold the first `samples` points."""
    if samples < 1:
        raise ValueError("samples must be positive")
    return [min(CHUNK, samples - c * CHUNK)
            for c in range(math.ceil(samples / CHUNK))]


def uniform_points(seed: int, samples: int) -> np.ndarray:
    """The first `samples` points of the 1-D (seed, chunk) stream in [0,1)."""
    return np.concatenate([uniform_chunk(seed, c, size, 1)[:, 0]
                           for c, size in enumerate(_chunk_sizes(samples))])


def binomial_stderr(p, n: int):
    """Binomial standard error of a hit fraction p (scalar or array) over
    n draws."""
    return np.sqrt(p * (1.0 - p) / n)


def map_chunks(worker, n_chunks: int):
    """Apply worker(chunk_index) for every chunk; results in index order.

    The reduction order is fixed by chunk index, so the output does not
    depend on the degree of parallelism.
    """
    threads = thread_count()
    if threads == 1 or n_chunks <= 1:
        return [worker(c) for c in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(n_chunks)))


def indicator_estimate(hit_worker, samples: int, seed: int,
                       stratified: bool = False):
    """Mean/stderr of a {0,1} indicator over `samples` points in [0,1)^2.

    hit_worker(points) -> boolean array whose axis 0 runs over the m
    points: shape (m,) for one indicator, (m, ...) for a stack of them.
    Returns (mean, stderr) with the binomial standard error (conservative
    for stratified draws): Python floats for one indicator, arrays of the
    trailing shape for a stack.
    """
    sizes = _chunk_sizes(samples)
    grid = max(1, int(math.isqrt(samples)))

    def work(c):
        if stratified:
            pts = stratified_chunk(seed, c, c * CHUNK, sizes[c], grid)
        else:
            pts = uniform_chunk(seed, c, sizes[c])
        return np.count_nonzero(hit_worker(pts), axis=0)

    p = sum(map_chunks(work, len(sizes))) / samples
    stderr = binomial_stderr(p, samples)
    return (float(p), float(stderr)) if np.ndim(p) == 0 else (p, stderr)

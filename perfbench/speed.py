"""Machine-speed probe used to normalise every reported time.

A 2-vCPU Xeon VM (2.1 GHz), where the baseline was measured, runs up to ~35%
faster or slower for tens of seconds at a time, whatever the program does,
so raw times of separate runs disagree by more than any useful bound. The
worker therefore times three small, fixed reference kernels at every round
boundary and divides each measured time by the current ``slowness()``: the
mean, over the kernels, of their time relative to their reference time in
``KERNELS``. Reported times read as seconds on a machine where each kernel
takes its reference time.

The kernels cover the program's three kinds of work: an interpreter loop
(tokenising, hashing, records and rejection code), small numpy matrix-vector
calls (the LSTM and dense layers), and a frozen copy of the per-branch
inference path (hash, embed, LSTM step, heads). They never call
``veritas``, so a change to the program does not change them. On the
VM above each kernel alone tracks some workloads well and others
badly; their mean tracks all four workloads better than raw time does.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 5
_RNG = np.random.default_rng(3)
_W_PROBE = _RNG.uniform(-0.1, 0.1, (128, 160))
_WX = _RNG.uniform(-0.1, 0.1, (128, 128))
_WH = _RNG.uniform(-0.1, 0.1, (128, 32))
_W_RELU = _RNG.uniform(-0.1, 0.1, (32, 32))
_W_OUT = _RNG.uniform(-0.1, 0.1, (3, 32))
_TOKENS = [f"c{i % 3}w{i}" for i in range(40)]


def interpreter_kernel() -> None:
    total = 0
    for k in range(60000):
        total += k * k


def numpy_kernel() -> None:
    x = np.zeros(160)
    for _ in range(400):
        x[128:] = np.tanh((_W_PROBE @ x)[:32])


def _fnv(token: str) -> int:
    h = 0xCBF29CE484222325
    for b in (1).to_bytes(8, "little") + token.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def inference_kernel() -> None:
    for branch in range(6):
        rows = []
        for step in range(4):
            vectors = []
            for k in range(6):
                h = _fnv(_TOKENS[(7 * branch + 3 * step + k) % len(_TOKENS)])
                v = np.zeros(128)
                v[h % 128] = 1.0 if h % 2 == 0 else -1.0
                vectors.append(v)
            rows.append(np.mean(vectors, axis=0))
        x = np.stack(rows)
        h, c = np.zeros(32), np.zeros(32)
        for t in range(len(x)):
            a = _WX @ x[t] + _WH @ h
            c = _sigmoid(a[32:64]) * c + _sigmoid(a[:32]) * np.tanh(a[64:96])
            h = _sigmoid(a[96:]) * np.tanh(c)
        z = _W_OUT @ np.maximum(_W_RELU @ h, 0.0)
        p = np.exp(z - z.max())
        p /= p.sum()


# Each kernel's time on the VM above, in its slower phase.
KERNELS = ((interpreter_kernel, 0.0036), (numpy_kernel, 0.0020), (inference_kernel, 0.0013))


def _median_time(kernel) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def slowness() -> float:
    """Current machine slowness: 1.0 when every kernel takes its reference time."""
    return statistics.fmean(_median_time(kernel) / ref for kernel, ref in KERNELS)

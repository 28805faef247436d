"""Microbenchmarks on a workload's own final snapshot.

Operands are the snapshot's stored values and support vertices, not small
synthetic values, so the cost reflects the coefficient sizes the workload
actually reaches; ``scalars.max_coeff_bits`` is reported next to them.
"""

from __future__ import annotations

import random
import time

SAMPLE = 2000
REPEATS = 5
MIN_SECONDS = 0.05


def _per_call_us(body, items) -> float:
    """Median over repeats of the time per item, in microseconds; each
    repeat loops over ``items`` until it has run at least MIN_SECONDS."""
    timings = []
    for _ in range(REPEATS):
        loops = 0
        start = time.perf_counter()
        while True:
            body(items)
            loops += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SECONDS:
                break
        timings.append(elapsed / (loops * len(items)))
    timings.sort()
    return timings[len(timings) // 2] * 1e6


def _multiply(pairs):
    for x, y in pairs:
        x * y


def _add(pairs):
    for x, y in pairs:
        x + y


def _to_float(values):
    for x in values:
        x.to_float()


def _neighbors(vertices):
    for vertex in vertices:
        for _ in vertex.neighbors():
            pass


def coefficient_bits(values) -> int:
    """Largest bit length of any numerator or denominator of a or b."""
    return max(
        max(
            abs(part.numerator).bit_length(),
            part.denominator.bit_length(),
        )
        for value in values
        for part in (value.a, value.b)
    )


def measure(values, vertices, seed: int) -> dict:
    rng = random.Random(f"{seed}:micro")
    sample = rng.sample(values, min(SAMPLE, len(values)))
    partners = sample[:]
    rng.shuffle(partners)
    pairs = list(zip(sample, partners))
    nodes = rng.sample(vertices, min(SAMPLE, len(vertices)))
    return {
        "scalars.mul_us": _per_call_us(_multiply, pairs),
        "scalars.add_us": _per_call_us(_add, pairs),
        "scalars.to_float_us": _per_call_us(_to_float, sample),
        "scalars.max_coeff_bits": coefficient_bits(values),
        "topology.neighbors_us": _per_call_us(_neighbors, nodes),
    }

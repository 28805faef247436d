"""Seeded generation of small-integer-valued data for experiments and checks.

Everything here is driven by ``random.Random`` with an explicit seed, so
reports and experiment outputs are reproducible byte for byte.  Values are
small integers to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random

from .functions import HeightSequence, RadialProfile, TreeFunction
from .scalars import QSurd, ScalarMode
from .topology import Ball, VertexAddress


def _draw(rng: random.Random, q: int, mode: ScalarMode, magnitude: int):
    value = rng.randint(-magnitude, magnitude)
    if mode is ScalarMode.EXACT:
        return QSurd(value, 0, q)
    return float(value)


def random_tree_function(
    q: int,
    radius: int,
    rng: random.Random,
    mode: ScalarMode = ScalarMode.EXACT,
    magnitude: int = 3,
    density: float = 0.7,
) -> TreeFunction:
    entries = []
    for vertex in Ball(q, radius):
        if rng.random() < density:
            entries.append((vertex, _draw(rng, q, mode, magnitude)))
    return TreeFunction(q, mode, entries)


def random_data_pair(
    q: int, radius: int, rng: random.Random, mode: ScalarMode = ScalarMode.EXACT
) -> tuple[TreeFunction, TreeFunction]:
    """Cauchy data (f, g) on Ball(radius), redrawn until both are nonzero so
    that no check passes on vanishing data."""
    while True:
        f = random_tree_function(q, radius, rng, mode=mode)
        g = random_tree_function(q, radius, rng, mode=mode)
        if f and g:
            return f, g


def random_radial_profile(
    q: int,
    radius: int,
    rng: random.Random,
    mode: ScalarMode = ScalarMode.EXACT,
    magnitude: int = 3,
) -> RadialProfile:
    return RadialProfile(
        q, mode, [(n, _draw(rng, q, mode, magnitude)) for n in range(radius + 1)]
    )


def random_even_sequence(
    q: int,
    radius: int,
    rng: random.Random,
    mode: ScalarMode = ScalarMode.EXACT,
    magnitude: int = 3,
) -> HeightSequence:
    entries = {0: _draw(rng, q, mode, magnitude)}
    for h in range(1, radius + 1):
        value = _draw(rng, q, mode, magnitude)
        entries[h] = value
        entries[-h] = value
    return HeightSequence(q, mode, entries)


def sample_vertices(
    q: int,
    max_radius: int,
    rng: random.Random,
    per_radius: int = 3,
) -> list[VertexAddress]:
    """Deterministic vertex sample covering every radius 0..max_radius."""
    chosen = [VertexAddress.origin(q)]
    for radius in range(1, max_radius + 1):
        for _ in range(per_radius):
            labels = [rng.randint(0, q)]
            labels.extend(rng.randint(0, q - 1) for _ in range(radius - 1))
            chosen.append(VertexAddress(q, tuple(labels)))
    return chosen

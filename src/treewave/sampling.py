"""Seeded generation of small-integer-valued data for experiments and checks.

Everything here is driven by ``random.Random`` with an explicit seed, so
reports and experiment outputs are reproducible byte for byte.  Values are
integers in -3..3 to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random

from .functions import HeightSequence, RadialProfile, TreeFunction
from .scalars import QSurd, ScalarMode
from .topology import Ball


def _draw(rng: random.Random, q: int, mode: ScalarMode):
    value = rng.randint(-3, 3)
    if mode is ScalarMode.EXACT:
        return QSurd(value, 0, q)
    return float(value)


def random_tree_function(
    q: int,
    radius: int,
    rng: random.Random,
    mode: ScalarMode = ScalarMode.EXACT,
    density: float = 0.7,
) -> TreeFunction:
    entries = [(v, _draw(rng, q, mode)) for v in Ball(q, radius) if rng.random() < density]
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
    q: int, radius: int, rng: random.Random, mode: ScalarMode = ScalarMode.EXACT
) -> RadialProfile:
    return RadialProfile(q, mode, [(n, _draw(rng, q, mode)) for n in range(radius + 1)])


def random_even_sequence(
    q: int, radius: int, rng: random.Random, mode: ScalarMode = ScalarMode.EXACT
) -> HeightSequence:
    entries = {0: _draw(rng, q, mode)}
    for h in range(1, radius + 1):
        entries[h] = entries[-h] = _draw(rng, q, mode)
    return HeightSequence(q, mode, entries)


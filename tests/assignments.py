"""Seeded random +-1 assignments, for checking XOR values against quadratic forms."""

import random


def random_assignment(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(1 if rng.randrange(2) == 0 else -1 for _ in range(n))

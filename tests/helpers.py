"""Shared test utilities: a seeded generator of valid concrete families.

Terminal self-intersections are solved from the step incidence counts: every
pair involving a weight-one section must come out exactly disjoint at level
0, which pins e_x + e_y = 2 * (steps containing both); light pairs only need
nonnegativity. With at least two weight-one sections the pivot value is
forced and some step sets are unrealizable, so the generator retries.
"""

from __future__ import annotations

import random

from nefcert import BlowdownStep, FamilyModel, admissible_pairs, make_weights, validate_family


def _solve_terminal(n: int, m: int, steps, rng: random.Random):
    size = n + m
    d = [[0] * size for _ in range(size)]
    for step in steps:
        members = sorted({s - 1 for s in step.sigma} | {n + t - 1 for t in step.tau})
        for x in members:
            for y in members:
                d[x][y] += 1

    if m == 0:
        return [2 * d[i][i] + 2 * rng.randint(0, 2) for i in range(n)]

    tau0 = n
    forced = set()
    for i in range(n):
        for l in range(1, m):
            forced.add(d[i][tau0] + d[tau0][n + l] - d[i][n + l])
    for l in range(1, m):
        for l2 in range(l + 1, m):
            forced.add(d[tau0][n + l] + d[tau0][n + l2] - d[n + l][n + l2])
    if len(forced) > 1:
        return None

    bounds = [d[i][tau0] + d[j][tau0] - d[i][j]
              for i in range(n) for j in range(i + 1, n)]
    t_max = min(bounds) if bounds else None
    if forced:
        t = forced.pop()
        if t_max is not None and t > t_max:
            return None
    else:
        base = t_max if t_max is not None else rng.randint(-2, 2)
        t = base - rng.randint(0, 2)

    e = [2 * d[i][tau0] - t for i in range(n)]
    e.append(t)
    e.extend(2 * d[tau0][n + l] - t for l in range(1, m))
    return e


def random_concrete_family_on(rng: random.Random, weights,
                              max_steps: int = 6,
                              attempts: int = 60) -> FamilyModel | None:
    """A valid concrete family on the given weight vector, or None if the
    sampled step sets keep coming out unrealizable."""
    n, m = weights.n, weights.m
    pairs = admissible_pairs(n, m, weights.k)
    for _ in range(attempts):
        steps = []
        if pairs:
            for _ in range(rng.randint(0, max_steps)):
                r1, r2 = rng.choice(pairs)
                steps.append(BlowdownStep.concrete(
                    rng.sample(range(1, n + 1), r1),
                    rng.sample(range(1, m + 1), r2)))
        e = _solve_terminal(n, m, steps, rng)
        if e is None:
            continue
        family = FamilyModel.concrete(weights, steps, e[:n], e[n:])
        if not validate_family(family):
            return family
    return None


# random_concrete_family's rejection budget: the suite's seeds need about a
# dozen draws at most, so a sampler that validates nothing fails, not hangs
MAX_DRAWS = 2000


def random_concrete_family(rng: random.Random, max_total: int = 8,
                           max_steps: int = 6) -> FamilyModel:
    """One uniformly-messy valid concrete family, by rejection."""
    for _ in range(MAX_DRAWS):
        k = rng.choice([1, 1, 2, 2, 3])
        n = rng.randint(0, max_total)
        m = rng.randint(0, max_total - n)
        try:
            weights = make_weights(n, m, k)
        except Exception:
            continue
        family = random_concrete_family_on(rng, weights, max_steps, attempts=1)
        if family is not None:
            return family
    raise AssertionError(
        f"random_concrete_family: no valid concrete family in {MAX_DRAWS} draws")


def random_family_batch(seed: int, count: int, **kwargs) -> list[FamilyModel]:
    rng = random.Random(seed)
    return [random_concrete_family(rng, **kwargs) for _ in range(count)]

"""Universal positivity certificates for the dk_class ray.

One mechanism drives everything: a blow-down step meeting r1 light and r2
heavy sections decreases a weighted sums-of-squares potential by an exact
rational drop, and the pairing of the matching coefficient combination with
a generically smooth family is the sum of its per-step drops. Certifying
positivity therefore reduces to exhaustive minimization of the drop over
the finite set of admissible step counts.

Families with reducible generic fiber reduce to boundary-stratum factors
(the ray restricts to the class of the same name on each factor), and the
upper interval endpoint transports one weight level down with vanishing
exceptional coefficient; interior values are convex combinations of the
endpoint certificate and a per-stratum base certificate. The chain of
weight levels is grounded at k = 1.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from random import Random
from typing import Mapping

from .divisors import (
    BoundaryKey,
    WeightVector,
    _as_key,
    dk_class,
    heavy_counts,
    least_nonempty_m,
    make_weights,
)
from .divisors import canonical_boundary as canonical_eps  # eps read as root divisors
from .errors import (
    COutOfInterval,
    InvalidBoundaryKey,
    InvalidValue,
    InvalidWeights,
    NefcertError,
    NoCaseApplies,
)
from .families import (CoefficientVector, FamilyModel, _ab_weights, _f_series, _last_sweep,
                       _step_drops)
from .morphisms import pullback_reduction
from .rational import exact, is_int

STRICTLY_POSITIVE = "strictly_positive"
ZERO_CHARACTERIZED = "nonnegative_zero_characterized"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, order=True, slots=True)
class DropEvaluation:
    """One step count with its exact drop value."""

    r1: int
    r2: int
    value: Fraction


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """Record of one drop-table minimization (grid space, combination, minimum)."""

    grid: WeightVector
    c: Fraction
    a: Fraction
    b: Fraction
    minimum: DropEvaluation | None


@dataclass(frozen=True, eq=False, repr=False)
class Certificate:
    """Outcome of a universal positivity check.

    A strictly_positive verdict means every drop evaluated at any weight
    level of the chain is positive; margin is the smallest such drop, hence the
    largest uniform boundary perturbation that provably keeps all drops
    positive. Step-free configurations pair every ruled-surface family to
    exactly 0, so strictness always refers to families with at least one
    blow-down, and at interval endpoints the zero_strata list the stratum
    shapes that genuinely reach degree zero.

    Only what cannot be derived is stored, with the eps of a perturbed run.
    margin is witness.value; strata_checked and trace are derived each time
    they are read, never held. strata_checked lists each level's strata,
    reachable_strata's shapes at that level, from the top level (k, or k - 1
    at the upper endpoint) down to 1, without building a leg. trace lists
    the legs beside them, rebuilt through the leg memo with eps applied
    (_level_legs): reading .trace of a large-k certificate rebuilds every
    leg of its chain, 62,069 legs at (8, 8, 1000). repr prints verdict,
    weights, c, a, b, witness, margin, strata_checked, zero_strata, trace and
    notes, in that order; == compares the stored fields, and the derived ones
    only when the eps differ (the same weights, c and eps derive the same).
    """

    verdict: str
    weights: WeightVector
    c: Fraction
    a: Fraction | None
    b: Fraction | None
    witness: DropEvaluation | None
    zero_strata: tuple[WeightVector, ...] = ()
    notes: tuple[str, ...] = ()
    _eps: Mapping[BoundaryKey, Fraction] | None = None  # as the legs read it, if any
    _generic: bool = False  # certify_generic's: one leg, on weights

    @property
    def margin(self) -> Fraction | None:
        return self.witness.value if self.witness is not None else None

    def _levels(self):
        """(level, shapes) of the certified chain from its top level down to 1."""
        n, m, k = self.weights.n, self.weights.m, self.weights.k
        top = k - 1 if self.c == ample_interval(k)[1] else k  # no top level at the upper end
        return _chain(n, m, range(top, 0, -1))

    @property
    def strata_checked(self) -> tuple[WeightVector, ...]:
        if self._generic:
            return (self.weights,)
        return tuple(WeightVector(n1, m1, level) for level, shapes in self._levels()
                     for n1, m1 in shapes)

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        if self._generic:
            return (_leg(self.weights, self.c, self.a, self.b, (self._eps or {}).items()),)
        n, m, k = self.weights.n, self.weights.m, self.weights.k
        leg_c = _level1_c(k, self.c)
        return tuple(chain.from_iterable(_level_legs(n, m, level, shapes, leg_c, self._eps, set())
                                         for level, shapes in self._levels()))

    def _stored(self) -> tuple:
        return (self.verdict, self.weights, self.c, self.a, self.b, self.witness,
                self.zero_strata, self.notes)

    def __eq__(self, other):
        if other.__class__ is not Certificate:
            return NotImplemented
        return self._stored() == other._stored() and (
            (self._eps, self._generic) == (other._eps, other._generic)
            or (self.strata_checked, self.trace) == (other.strata_checked, other.trace))

    def __hash__(self) -> int:
        return hash(self._stored())

    def __repr__(self) -> str:
        return "Certificate(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in (
            "verdict", "weights", "c", "a", "b", "witness", "margin", "strata_checked",
            "zero_strata", "trace", "notes")) + ")"


def admissible_pairs(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """All step counts with both sides of the node above weight 1, sorted."""
    make_weights(n, m, k)
    return [(r1, r2) for r1 in range(n + 1) for r2 in heavy_counts(n, m, k, r1)]


def _scan(n: int, m: int, k: int, weights, labels=(), cells=None,
          floor: DropEvaluation | None = None) -> DropEvaluation | None:
    """The first least drop in grid order over the admissible (n, m, k) cells or
    over cells, (r1, r2s) rows in grid order, each r2s a run of consecutive
    counts, shifted by value at the cells of key and its complement for the
    (key, value) labels the caller picked. By default only the rows that can
    hold the first least are built, in closed form (see below).
    weights holds (numerator, denominator) of a_sigma, a_tau, a_sigma_tau and
    a_delta in drop_value's drop, -a_delta + a_sigma*r1(n-r1)/(n-1) +
    a_tau*r2(m-r2)/(m-1) + a_sigma_tau*(r1(m-r2) + r2(n-r1))/(nm), less the
    terms families._step_drops sets to 0; all in integers over one denominator.
    floor, when given, is the grid's first least without labels, at a cell
    that no label shifts and that cells leave out: it is not scored but
    competes as the cell it names, and the result is None when no cell of
    cells comes before it (a lower drop, or the same drop at an earlier cell)."""
    (sn, sd), (tn, td), (xn, xd), (zn, zd) = weights
    sn, sd = (sn, sd * (n - 1)) if n >= 2 else (0, 1)
    tn, td = (tn, td * (m - 1)) if m >= 2 else (0, 1)
    xn, xd = (xn, xd * n * m) if n and m else (0, 1)
    scale = lcm(sd, td, xd, zd, *[value.denominator for _, value in labels])
    s, t, x, z = sn * (scale // sd), tn * (scale // td), xn * (scale // xd), zn * (scale // zd)
    shifts: dict[int, dict[int, int]] = {}
    for key, value in labels:
        scaled = value.numerator * (scale // value.denominator)
        for r1, r2 in ((key.i, key.j), (n - key.i, m - key.j)):
            shifts.setdefault(r1, {})[r2] = scaled
    if cells is None:
        # a cell and its complement (n - r1, m - r2) are admissible together, with
        # one drop and one shift, and the one in the lower row comes first: the
        # first least lies in rows 0..n // 2
        half = n // 2
        rows = range(half + 1)
        if s >= 0:
            # heavy_counts(n, m, k, r1) changes only at r1 = 1, k + 1, n - k and n,
            # so the rows form at most five runs with one range of counts each. A
            # drop is concave in r1, and so is a row's least over one range: inside
            # a run of unshifted rows, a row is strictly above the lesser of the
            # run's two ends or ties the first. So only the runs' ends, and each
            # shifted row with the two rows that end the runs it cuts, are scored;
            # a row more changes nothing, as a tie goes to the earlier cell. These
            # rows are symmetric, so a run across n // 2 is its own mirror image,
            # with its least at its first row
            rows = {0, 1, k, k + 1, n - k - 1, n - k, n - 1, n}
            for r1 in shifts:
                rows.update((r1 - 1, r1, r1 + 1))
            rows = sorted(r1 for r1 in rows if 0 <= r1 <= half)
        cells = [(r1, heavy_counts(n, m, k, r1)) for r1 in rows]
    best = best_r1 = best_r2 = None
    if floor is not None:
        least = floor.value
        best, best_r1, best_r2 = least.numerator * (scale // least.denominator), floor.r1, floor.r2
    for r1, r2s in cells:
        p, q = s * r1 * (n - r1) + x * r1 * m - z, t * m + x * (n - 2 * r1)
        row = shifts.get(r1)
        if not row and len(r2s) > 2:
            # unshifted, a row's drop p + q*r2 - t*r2^2 is concave for t >= 0, least at
            # an end; convex otherwise, least at an end or beside the vertex q/(2t).
            # Every other count of the run is strictly above, so none is scored
            lo, hi = r2s[0], r2s[-1]
            r2s = (lo, hi) if t >= 0 else [
                r2 for r2 in (lo, q // (2 * t), q // (2 * t) + 1, hi) if lo <= r2 <= hi]
        for r2 in r2s:
            value = p + r2 * (q - t * r2)
            if row:
                value += row.get(r2, 0)
            # a tie goes to the earlier cell; cells come in grid order, so a tie
            # can only go to a scored cell against a floor that comes after it
            if best is None or value < best or value == best and (r1, r2) < (best_r1, best_r2):
                best, best_r1, best_r2 = value, r1, r2
    if best is None or floor is not None and (best_r1, best_r2) == (floor.r1, floor.r2):
        return None
    return DropEvaluation(best_r1, best_r2, Fraction(best, scale))


def drop_value(n: int, m: int, k: int, coeffs: CoefficientVector,
               r1: int, r2: int) -> Fraction:
    """Exact drop of the weighted potential combination at one step: the
    combination of the per-step potential drops (families._step_drops).

    The value does not depend on k; admissibility does.
    """
    if not (0 <= r1 <= n and 0 <= r2 <= m):
        raise InvalidValue(f"counts ({r1},{r2}) outside the grid 0..{n} x 0..{m}")
    return coeffs.combine(_step_drops(n, m, r1, r2))


def min_drop(n: int, m: int, k: int, coeffs: CoefficientVector,
             eps: Mapping[BoundaryKey, Fraction] | None = None) -> DropEvaluation | None:
    """Exhaustive minimum of the drop, shifted by eps, over admissible counts:
    the first least cell in grid order, scanned in integers (_scan); None when
    no step is admissible at all (every generically smooth family is then a
    step-free ruled-surface family). eps keys are cell labels of this grid
    (_grid_labels), not divisors: a complement or out-of-grid key shifts nothing.
    """
    grid = make_weights(n, m, k)
    return _scan(n, m, k, [(value.numerator, value.denominator) for value in (
        coeffs.a_sigma, coeffs.a_tau, coeffs.a_sigma_tau, coeffs.a_delta)],
        _grid_labels(grid, _cell_labels(eps)))


def g_series(family: FamilyModel, coeffs: CoefficientVector) -> list[Fraction]:
    """The combination of the four potentials at every level, 0..N, from the
    potential series (families._f_series): one pass of the resumed sweep
    from level N down to 0, every level checked.

    The last entry is always 0 and consecutive differences are the per-step
    drop values.
    """
    return [coeffs.combine(values) for values in _f_series(family)]


def _case_table(n: int, m: int, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The positivity case of (n, m, k) and the (p, q) ends of its certified c:
    a point in cases 1, 2 and 5, lo and hi in 3 and 4. k is not checked, so
    positivity_case reads it at k = 1 too; threshold_c and c0_lower do not."""
    if m == 0:
        return 1, ((n - 1, 2 * (n - 2)),)
    if m == 1:
        if n == k + 1:
            return 5, ((k + 2, 2 * (k + 1)),)
        return 2, ((n + 1, 2 * n),)
    if n >= k + 1:
        return 4, ((1, 2), (n + 1, 2 * n))
    return 3, ((1, 2), (k + 2, 2 * (k + 1)))


def positivity_case(n: int, m: int, k: int, a, b) -> tuple[int, bool]:
    """Identify the positivity case of (n, m, k) and test its strict hypothesis.

    Cases: 1 (m = 0), 2 (m = 1, n >= k+2), 3 (m >= 2, n <= k),
    4 (m >= 2, n >= k+1). The sharp configuration m = 1, n = k+1 and the
    degenerate n <= 1 with m >= 2 support no strict hypothesis.
    """
    make_weights(n, m, k)
    a, b = exact(a), exact(b)
    case = _case_table(n, m, k)[0]
    if case == 1:
        return 1, a > Fraction(n - 1, (n - k - 1) * (k + 1))
    if case == 2:
        return 2, a > Fraction(n - 1, n * (k + 1))
    if case == 4:
        lhs = Fraction((k + 1) * (n - k - 1), n - 1) * a + Fraction(k + 1, n) * b
        return 4, lhs > 1 and b > 1
    if case == 3 and n >= 2:
        return 3, a > 0 and b > 0
    raise NoCaseApplies(
        f"(n,m) = ({n},{m}) with k = {k} is the sharp configuration; every step-free "
        "family pairs to zero at the threshold" if case == 5 else
        f"(n,m) = ({n},{m}) with k = {k}: no strict-hypothesis case covers n <= 1")


@dataclass(frozen=True)
class Threshold:
    """Case id with the certified ray value: a point or an interval in c."""

    case: int
    c: Fraction | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None

    @property
    def equality(self) -> bool:
        """Case 5, the sharp point, pairs step-free families to exactly zero."""
        return self.case == 5

    @property
    def hi_closed(self) -> bool:
        """Only case 3 certifies its upper end."""
        return self.case == 3

    def describe(self) -> str:
        if self.c is not None:
            return str(self.c)
        bracket = "]" if self.hi_closed else ")"
        return f"({self.lo}, {self.hi}{bracket}"


def threshold_c(n: int, m: int, k: int) -> Threshold:
    """The c value (or interval) at which the ray pairs nonnegatively with
    every generically smooth family, by case (_case_table).

    Case 5 is the sharp point (m = 1, n = k+1) where the pairing is exactly
    zero. Weight vectors with m >= 2 and n <= 1 route through case 3: their
    sigma potentials vanish by convention and the same substitution applies.
    """
    make_weights(n, m, k)
    if k < 2:
        raise InvalidWeights("thresholds are stated for k >= 2")
    case, ends = _case_table(n, m, k)
    lo, hi = (Fraction(p, q) for p, q in (ends[0], ends[-1]))  # a point is both ends
    return Threshold(case, c=lo) if lo == hi else Threshold(case, lo=lo, hi=hi)


def ab_substitution(n: int, m: int, k: int, c) -> tuple[Fraction, Fraction]:
    """The (a, b) matching the ray at parameter c on (n, m, k) families.

    Solves c = a + b/n and 2c - 1 = 2a/(n-1) in the two-parameter cases;
    with m = 0 the collision coefficient pins c itself, and with m = 1 the
    single mixed potential enters with weight one.
    """
    c = exact(c)
    if m == 0:
        return c, Fraction(0)
    if m == 1:
        return c - Fraction(1, n), Fraction(1)
    p, q = c.numerator, c.denominator  # in integers: one normalization each
    return (Fraction((n - 1) * (2 * p - q), 2 * q),
            Fraction(n * ((n - 1) * q - 2 * (n - 2) * p), 2 * q))


def c0_lower(n: int, m: int, k: int) -> tuple[Fraction, bool]:
    """Deterministic base value c0 <= (k+2)/(2(k+1)) with nonnegative pairing.

    Point cases return their threshold; interval cases return the interval
    midpoint (_leg_class). The strict flag is the exact comparison with the
    cap: it fails for the sharp configuration (k+1, 1) and for (5, 0, 2),
    where the case-1 threshold meets the cap and step-free families genuinely
    pair to zero there.
    """
    threshold_c(n, m, k)  # validates (n, m, k) and k >= 2
    c0 = _leg_class(n, min(m, 2), k, None)[0]
    return c0, _below_cap(c0, k)


def _below_cap(c0: Fraction, k: int) -> bool:
    """c0 < (k+2)/(2(k+1)), in integers: c0_lower's strict flag."""
    return c0.numerator * 2 * (k + 1) < (k + 2) * c0.denominator


def ample_interval(k: int) -> tuple[Fraction, Fraction | None]:
    """The certified interval ((k+2)/(2k+2), (k+1)/(2k)]; (2/3, unbounded) at k = 1."""
    if not is_int(k) or k < 1:
        raise InvalidWeights(f"k must be a positive integer, got {k!r}")
    if k == 1:
        return Fraction(2, 3), None
    return Fraction(k + 2, 2 * k + 2), Fraction(k + 1, 2 * k)


def reachable_strata(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """All (n', m') reachable from (n, m) by splitting off boundary factors
    (n1, m1 + 1) and (n2, m2 + 1) of a split (n1, m1) | (n2, m2), sorted.

    In closed form: (n, m) and every valid (a, b) with 1 <= b <= m - 1 if
    a = n, 1 <= b <= m + (n - a)//(k + 1) if a < n. The b weight-one points
    are kept sections and nodes (at least one), and the branch behind a node
    holds a weight-one and a light, two weight-one or k + 1 light sections.
    """
    make_weights(n, m, k)
    return [(a, b) for a in range(n + 1)
            for b in range(max(1, least_nonempty_m(a, k)),
                           (m + (n - a) // (k + 1) if a < n else m - 1) + 1)] + [(n, m)]


def certify_generic(n: int, m: int, k: int, c, *,
                    eps: Mapping[BoundaryKey, Fraction] | None = None) -> Certificate:
    """Certify the combination matching the ray at c over generically smooth
    families on one weight vector.

    The verdict is strictly_positive when the exhaustive minimum drop is
    positive: every family with at least one blow-down then pairs strictly
    positively, while step-free ruled-surface families pair the combination
    to exactly 0. An empty admissible set reports the step-free situation
    outright. Boundary perturbations shift the drop at matching counts;
    eps is read as boundary divisors of (n, m, k) (canonical_eps): either
    spelling of a divisor gives the same certificate, and a key must be
    admissible there.

    With m >= 2 the substituted combination equals the ray pairing at every
    c; with m <= 1 it has one parameter fewer and the two agree exactly at
    the case threshold, which is where the interval certification uses it.
    """
    weights = make_weights(n, m, k)
    c = exact(c)
    labels = canonical_eps(weights, eps) if eps else None
    a, b = ab_substitution(n, m, k, c)
    low = _leg(weights, c, a, b, (labels or {}).items()).minimum
    drop = low.value if low is not None else 0  # no admissible cell: every family is step-free
    verdict = STRICTLY_POSITIVE if drop > 0 else ZERO_CHARACTERIZED if drop == 0 else INCONCLUSIVE
    notes = ("no admissible blow-down counts: every generically smooth family is step-free "
             "and pairs to exactly 0" if low is None else
             "step-free families pair the combination to exactly 0; "
             "strictness refers to families with at least one blow-down",)
    return Certificate(verdict, weights, c, a, b, low,
                       zero_strata=(weights,) if verdict == ZERO_CHARACTERIZED else (),
                       notes=notes, _eps=labels, _generic=True)


def certify_interval(n: int, m: int, k: int, c) -> Certificate:
    """Certify that the ray at c pairs positively with every curve.

    Accepts c in [(k+2)/(2k+2), (k+1)/(2k)] for k >= 2 (the lower endpoint
    yields the nef verdict with its zero strata characterized) and c > 2/3
    for k = 1.
    """
    return _certify(n, m, k, exact(c), None)


def perturbed_certify(n: int, m: int, k: int, c,
                      eps: Mapping) -> Certificate:
    """Rerun the certification with each drop at counts (r1, r2) shifted by
    eps[(r1, r2) canonical in its grid].

    eps keys are cell labels, not root boundary divisors: a key labels the
    boundary cells of every grid the certification visits (stratum grids,
    lower weight levels, regrouped k = 1 grids), in each grid the admissible
    counts whose canonical key it is (_grid_labels). Two keys that are
    complements on (n, m, k) can label different cells of a stratum grid, so
    they are not folded here; callers that mean root divisors in either
    spelling read eps through canonical_eps first, as the CLI does. A key
    that labels no cell of any visited grid, or that is given both as a
    BoundaryKey and as an (i, j) pair (_cell_labels), raises
    InvalidBoundaryKey; so does a key with i or j outside its grid's
    counts, which labels nothing. Legs whose grid has no such cell come from
    the eps-free memo; every other leg starts from its memo leg
    (_shifted_leg), scores only the cells eps lowers against the eps-free
    minimum unless eps moves the minimizer's own cell, stays the memo leg
    when none of them beats it, and is not stored. With eps identically
    zero this is certify_interval;
    the maximal uniform shift with a guaranteed strictly_positive verdict is
    that certificate's margin.
    """
    return _certify(n, m, k, exact(c), _cell_labels(eps))


# --- certification engine ------------------------------------------------------

def _cell_labels(eps: Mapping | None) -> dict[BoundaryKey, Fraction]:
    """eps, keyed by BoundaryKeys or (i, j) pairs, with exact values under
    BoundaryKeys: the one reader of cell labels, for min_drop and
    perturbed_certify. Keys are not folded into complements (_grid_labels);
    a key given in both spellings raises."""
    labels: dict[BoundaryKey, Fraction] = {}
    for key, value in dict(eps or {}).items():
        key = _as_key(key)
        if key in labels:
            raise InvalidBoundaryKey(
                f"({key.label()}) is given twice, as a BoundaryKey and as an (i, j) pair")
        labels[key] = exact(value)
    return labels


def _grid_labels(grid: WeightVector, eps: Mapping[BoundaryKey, Fraction]) -> list:
    """The (key, value) pairs of eps whose key is the canonical key of an
    admissible cell of grid; a complement or an out-of-grid key labels none:
    the cell-label reading of eps that min_drop and perturbed_certify share.
    In integers: i in 0..n, (i, j) <= (n - i, m - j), and j in heavy_counts'
    range, which clips it to 0..m."""
    n, m, k = grid.n, grid.m, grid.k
    return [(key, value) for key, value in eps.items()
            if 0 <= key.i <= n and (2 * key.i < n or 2 * key.i == n and 2 * key.j <= m)
            and key.j in heavy_counts(n, m, k, key.i)]


def _leg(grid: WeightVector, c: Fraction, a: Fraction, b: Fraction, labels=()) -> TraceEntry:
    """One leg: the first least drop on grid of the (a, b) combination with
    labels, scanned with the integer weights (families._ab_weights) that
    CoefficientVector.from_ab reads too."""
    return TraceEntry(grid, c, a, b, _scan(grid.n, grid.m, grid.k, _ab_weights(grid.m, a, b),
                                           labels))


def _grid_shape(n: int, m: int, k: int) -> tuple[int, int]:
    """(n, m) of the grid that the leg of stratum (n, m) at level k scans."""
    return (n + m - 1, 1) if k == 1 and m else (n, m)


_LEVEL1_C = ample_interval(2)[1]  # the c of level 1 in every chain from k >= 2
_SETTLED_LOW = Fraction(1, 2)  # case 3's lower end of c (_case_table), the limit of its c0


@lru_cache(maxsize=1024)
def _leg_class(n: int, m: int, k: int, c: Fraction | None) -> tuple[Fraction, Fraction, Fraction]:
    """(c, a, b) of every leg on an (n, m', k) grid with min(m', 2) = m: for k >= 2
    c0_lower's base value, the mean of _case_table's two ends of c (a point is
    both) in integers; at k = 1 the given c (3/4 when None), with (a, b) at c
    capped at 1 on m = 1 grids (see _certify). The memo lets legs share them,
    settled legs (_settled_cell) included; it is read on leg misses and once
    per certification, for the root's (a, b). The bound, about 340 B a class,
    was sized when deep chains built a leg at every level. Now that a deep
    certificate builds no leg once its root shape is certified, the first
    1,500 seed-1 certify-deep ops call it 2,063 times and miss 1,049, nearly
    all of them the root's class at the op's own top level, read once
    (before the settled run was folded, 145,208 misses of 864,980 calls); the
    first 2,000 certify-wide ops miss 406 of 3,456 calls."""
    if k > 1:
        ends = _case_table(n, m, k)[1]
        (p, q), (r, s) = ends[0], ends[-1]
        c = Fraction(p * s + r * q, 2 * q * s)
        if (p * s + r * q) * (k + 1) > (k + 2) * q * s:
            raise NefcertError(
                f"internal: base value {c} above the cap {Fraction(k + 2, 2 * (k + 1))}")
        return c, *ab_substitution(n, m, k, c)
    c = _LEVEL1_C if c is None else c
    return c, *ab_substitution(n, m, k, min(c, Fraction(1)) if m else c)


def _stratum_leg(n: int, m: int, k: int, c: Fraction | None) -> TraceEntry:
    """The eps-free leg of stratum (n, m) at level k: for k >= 2 the base leg at
    c0, strict when _below_cap(leg.c, k), which callers reach with c = None; at
    k = 1 the leg at c (None for 3/4) on the stratum's own grid when m = 0 and
    on the regrouped grid (n + m - 1, 1) otherwise. A settled leg, k >= 2,
    n <= k and m >= 2, takes its grid's settled cell and that cell's affine
    drop at c (_settled_cell) without a scan."""
    n, m = _grid_shape(n, m, k)
    grid = make_weights(n, m, k)  # the leg's only validation
    c, a, b = _leg_class(n, min(m, 2), k, c)
    # on a valid grid (m + n/k > 2, m <= 1 at k = 1) n <= k implies m >= 2 and k >= 2
    if n > k or (settled := _settled_cell(n, m)) is None:
        return _leg(grid, c, a, b)
    r1, r2, base, slope, den = settled  # the cell's drop at c is (base + slope*c)/den
    value = Fraction(base * c.denominator + slope * c.numerator, den * c.denominator)
    return TraceEntry(grid, c, a, b, DropEvaluation(r1, r2, value))


@lru_cache(maxsize=256)
def _settled_cell(n: int, m: int) -> tuple[int, int, int, int, int] | None:
    """(r1, r2, base, slope, den) for the first least cell (r1, r2) of every
    settled leg on (n, m), whose drop at c is (base + slope*c)/den; None when
    no cell is first least at both ends, or the grid has none.

    At every level k >= max(2, n) the admissible cells of (n, m, k), m >= 2,
    are those of level max(2, n) (heavy_counts reads k only through
    (k - i)//k and (k - n + i)//k), case 3 puts c0 = (2k + 3)/(4(k + 1)) in
    (1/2, c0(max(2, n))], and each cell's drop is affine in c (a and b are).
    A cell first least at both ends of that range has every earlier cell
    strictly above it and every later cell at or above it there, so it is
    first least at every settled level; its two scanned drops (_scan) fix the
    line through them, kept in integers."""
    level = max(2, n)
    grid, c_top = make_weights(n, m, level), _leg_class(n, 2, level, None)[0]
    top, low = (_leg(grid, c, *ab_substitution(n, m, level, c)).minimum
                for c in (c_top, _SETTLED_LOW))
    if top is None or (top.r1, top.r2) != (low.r1, low.r2):
        return None
    slope = (top.value - low.value) / (c_top - _SETTLED_LOW)
    base = low.value - slope * _SETTLED_LOW
    den = lcm(base.denominator, slope.denominator)
    return top.r1, top.r2, int(base * den), int(slope * den), den


def _shifted_leg(leg: TraceEntry, eps: Mapping[BoundaryKey, Fraction], unused: set) -> TraceEntry:
    """The eps-free leg with eps; the eps keys that label cells of its grid leave
    unused. Its minimum is the first least drop in grid order, which no cell
    that eps raises or leaves can undercut. A leg that no key labels is
    returned at once. Unless eps moves the minimizer's own cell, only the cells
    eps lowers are scored, against the eps-free minimum as a floor (_scan), and
    the leg itself stands when none of them beats it; a lowered minimizer is
    scored with them, and a raised one rescans the whole grid."""
    grid, low = leg.grid, leg.minimum
    touched = _grid_labels(grid, eps)
    if not touched:
        return leg
    if unused:
        unused.difference_update([key for key, _ in touched])
    # a key's own cell comes no later than its complement, with the same drop
    # and shift (_scan), so the first least is the own cell of its key, and the
    # own cells of the keys that lower cells are the only cells scored
    own, labels = 0, []
    for key, value in touched:
        sign = value.numerator
        if key.i == low.r1 and key.j == low.r2:
            if sign > 0:
                return _leg(grid, leg.c, leg.a, leg.b, touched)
            own = sign
        if sign < 0:
            labels.append((key, value))
    if not labels:
        return leg
    minimum = _scan(grid.n, grid.m, grid.k, _ab_weights(grid.m, leg.a, leg.b), labels,
                    sorted((key.i, (key.j,)) for key, _ in labels), None if own else low)
    return leg if minimum is None else TraceEntry(grid, leg.c, leg.a, leg.b, minimum)


# Eps-free legs, keyed by grid shape (and at k = 1 by c, None for 3/4), serve
# every stratum, level, c, weight vector and perturbed run that reaches their
# grid. An entry holds the leg alone, about 378 B by tracemalloc (CPython
# 3.11), as it shares its _leg_class's c, a and b; 3072 hold one certify-wide
# certificate's grids up to n = 64 ((64, 4, 5) has 2962). A deep certificate
# builds its levels up to its settled run's low end once per root shape (the
# root record keeps them, _root_record) and reads the run's top end off its
# settled lines, so the first 1,500 seed-1 certify-deep ops look up 1,949 legs
# and miss 494 (with those levels and the top end's legs built by every op,
# 186,027 and 13,018; level by level, 2.0 M and 864,911). Larger grids need
# more than fit, and a larger memo costs memory and tail latency,
# so a miss is kept cheap instead: a settled leg is its cell's line at c, no
# scan. Ops ask for legs in the same order, LRU's worst case once one needs
# more than fit: a random victim keeps about 3072/need of them.
_LEG_CACHE_SIZE = 3072
_MemoInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _random_eviction_memo(fn, maxsize: int):
    """fn, never None, memoized for up to maxsize argument tuples; a random
    entry makes room. cache_info and cache_clear work as lru_cache's; a
    cleared memo evicts as a fresh one does."""
    values, keys, counts, rng = {}, [], [0, 0], Random(0)

    def cached(*key):
        value = values.get(key)
        counts[value is None] += 1  # hits, misses
        if value is None:
            value = values[key] = fn(*key)
            if len(keys) < maxsize:
                keys.append(key)
            else:
                at = int(rng.random() * maxsize)  # one call: randrange costs several
                del values[keys[at]]
                keys[at] = key
        return value

    def cache_clear():
        values.clear()
        keys.clear()
        counts[:] = [0, 0]
        rng.seed(0)

    cached.cache_clear = cache_clear
    cached.cache_info = lambda: _MemoInfo(*counts, maxsize, len(values))
    return cached


_cached_stratum_leg = _random_eviction_memo(_stratum_leg, _LEG_CACHE_SIZE)

_ROOT_CACHE_SIZE = 4096  # root shapes (n, m)


@dataclass(slots=True)
class _RootRecord:
    """What the certifications of one root shape (n, m) leave to the next.
    checked is the highest level up to which every transport check passed,
    which _check_transport raises as the checks pass. below_run is set by the
    first eps-free certification that reaches its settled run's low end
    max(2, n), and holds what the level loop holds there: that level's
    upper-endpoint flag and first least drop, and the witness of the levels
    below it. None of them depends on k or c (see _certify)."""

    checked: int = 1
    below_run: tuple[bool, DropEvaluation | None, DropEvaluation | None] | None = None


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _root_record(n: int, m: int) -> _RootRecord:
    """The record of the root shape (n, m), empty until a certification fills it."""
    return _RootRecord()


def _transport_pair(n: int, m: int, k: int):
    """The transport identity's two sides at c = (k+1)/(2k), the upper end of
    level k: the ray on (n, m, k) pulled back along the weight reduction, and
    the ray on (n, m, k - 1). The pulled-back ray has exceptional coefficient
    exactly 0, so the two are equal; _check_transport compares them and
    `nefcert fixtures` prints them."""
    c = ample_interval(k)[1]
    return (pullback_reduction(dk_class(make_weights(n, m, k), c)),
            dk_class(make_weights(n, m, k - 1), c))


def _check_transport(n: int, m: int, k: int) -> None:
    """Check the transport identity (_transport_pair) at every level 2..k of
    the root shape (n, m). Each level of a root shape is checked once, from 2
    up, so one level per shape records every passed check (a deep chain's
    root has hundreds, _RootRecord.checked); a failure raises every time."""
    record = _root_record(n, m)
    for level in range(record.checked + 1, k + 1):
        pulled, lower = _transport_pair(n, m, level)
        if pulled != lower:
            raise NefcertError("internal: endpoint transport identity failed")
        record.checked = level


# All process-wide state: the four memos and where the last f_values call left
# its sweep. No certificate depends on it; tests and tools that need a fresh
# process's state call _clear_state, and a memo added later joins this table.
_STATE = {"_cached_stratum_leg": _cached_stratum_leg, "_leg_class": _leg_class,
          "_root_record": _root_record, "_settled_cell": _settled_cell,
          "_last_sweep": _last_sweep}


def _clear_state() -> None:
    """Empty every piece of _STATE, as a fresh process has it."""
    for piece in _STATE.values():
        (piece.clear if isinstance(piece, list) else piece.cache_clear)()


def _state_info() -> dict[str, _MemoInfo]:
    """Each piece's hits, misses, bound and size; the sweep, bound 1, counts
    no hits or misses."""
    return {name: _MemoInfo(None, None, 1, len(piece)) if isinstance(piece, list)
            else piece.cache_info() for name, piece in _STATE.items()}


def _transports(verdict: str, zero_strata, witness: DropEvaluation | None, k: int) -> bool:
    """Whether the level k - 1 certificate makes the upper endpoint of level
    k strictly positive. Strict transforms of curves are never collapsed, so
    zeros one level down of the collapsed shape (k, 1) do not obstruct."""
    return verdict == STRICTLY_POSITIVE or (
        verdict == ZERO_CHARACTERIZED and bool(zero_strata)
        and all((z.n, z.m) == (k, 1) for z in zero_strata)
        and (witness is None or witness.value > 0))


def _level_verdict(level: int, endpoint_strict: bool, least: Fraction | None,
                   zeros) -> tuple[str, tuple[str, ...]]:
    """Verdict of a level from its upper endpoint, strict by definition at
    level 1 (the ground), and the least drop of its legs. At level 1 the zero
    strata are the zero-drop legs, so only levels >= 2 reach least == 0."""
    if not endpoint_strict:
        return INCONCLUSIVE, ("upper-endpoint certificate failed; no convex "
                              "combination available",)
    if least is not None and least < 0:
        return INCONCLUSIVE, ("a stratum drop table reaches a negative value" if level == 1
                              else "a stratum base certificate has a negative drop",)
    if zeros:
        return ZERO_CHARACTERIZED, (
            "degree zero exactly on families built from zero-drop steps" if level == 1 else
            "degree zero exactly on curves inside the zero strata "
            "(the curves collapsed by the reduction increasing k)",)
    if least == 0:
        return ZERO_CHARACTERIZED, ("a stratum base certificate has a zero drop",)
    return STRICTLY_POSITIVE, ()


def _level1_c(k: int, c: Fraction) -> Fraction | None:
    """The c of a chain's level-1 legs as the leg memo keys it: below the top a
    level is reached at the upper endpoint of the level above, its own lower
    endpoint for level >= 2 and 3/4 at level 1, the only level whose legs
    depend on c; the memo keys c = 3/4 as None."""
    return c if k == 1 and c != _LEVEL1_C else None


def _chain(n: int, m: int, levels):
    """(level, reachable_strata(n, m, level)) for each of levels, in order; from
    level max(n, 1) up the closed form gives one list whatever the level, built
    once: the one reader of a chain's strata."""
    above = None
    for level in levels:
        if level <= max(n, 1):
            yield level, reachable_strata(n, m, level)
        else:
            above = above or reachable_strata(n, m, level)
            yield level, above


def _level_legs(n: int, m: int, level: int, shapes, leg_c: Fraction | None,
                eps: Mapping[BoundaryKey, Fraction] | None, unused: set) -> list[TraceEntry]:
    """The legs of one level of (n, m)'s chain, one per stratum of shapes, with
    eps; the eps keys that label cells of their grids leave unused. Level 1 puts
    its legs at leg_c (_level1_c) on the regrouped grids (_grid_shape), which
    strata share; a level >= 2 puts each stratum's base leg at c0 on the
    stratum's own grid. Strata that share a leg share its shift. _certify
    builds its levels with it, and Certificate.trace rebuilds them."""
    if level == 1:
        legs = [_cached_stratum_leg(*_grid_shape(n1, m1, 1), 1, leg_c) for n1, m1 in shapes]
    else:
        legs = [_cached_stratum_leg(n1, m1, level, None) for n1, m1 in shapes]
    if not eps:
        return legs
    moved = {id(leg): leg for leg in legs}
    moved = {key: _shifted_leg(leg, eps, unused) for key, leg in moved.items()}
    return [moved[id(leg)] for leg in legs]


def _first_least(legs) -> DropEvaluation | None:
    """The first least minimum of legs, compared in integers: a Fraction <
    first checks numbers.Rational."""
    best = None
    for leg in legs:
        low = leg.minimum
        if low is not None and (best is None or low.value.numerator * least_den
                                < least_num * low.value.denominator):
            best, least_num, least_den = low, low.value.numerator, low.value.denominator
    return best


def _settled_least(shapes, level: int) -> DropEvaluation | None:
    """_first_least of the eps-free legs of a settled level, one per stratum of
    shapes, without a leg: each leg's minimum is its stratum's settled line
    (_settled_cell) at the c0 = (2l + 3)/(4(l + 1)) that every leg of the
    level shares (case 3, _leg_class), compared in integers as _first_least
    compares. A stratum with no settled cell and no admissible cell has no
    minimum; one with admissible cells reads its leg, which no settled run of
    a root with n < 40 and m < 14 reaches."""
    p, q = 2 * level + 3, 4 * (level + 1)
    best = None
    for n1, m1 in shapes:
        if (cell := _settled_cell(n1, m1)) is not None:
            r1, r2, base, slope, den = cell
            num, den = base * q + slope * p, den * q
        elif any(heavy_counts(n1, m1, level, i) for i in range(n1 + 1)):
            low = _cached_stratum_leg(n1, m1, level, None).minimum
            r1, r2, num, den = low.r1, low.r2, low.value.numerator, low.value.denominator
        else:
            continue
        if best is None or num * least_den < least_num * den:
            best, least_num, least_den = (r1, r2), num, den
    return None if best is None else DropEvaluation(*best, Fraction(least_num, least_den))


def _certify(n: int, m: int, k: int, c: Fraction,
             eps: Mapping[BoundaryKey, Fraction] | None) -> Certificate:
    """The interval certification, one weight level at a time from 1 up to
    k, each level folded as it is built, and an eps-free settled run folded
    from its two end levels.

    Level 1 is the ground, certified by per-stratum drop minimization: strata
    with several weight-one sections go through the regrouped grid
    (n + m - 1, 1), where all but one heavy section count as light, which
    discards a nonnegative psi contribution when c <= 1 (c is capped at 1;
    the surplus multiplies a psi class, which pairs nonnegatively).
    Collision classes do not exist at k = 1, so there the combination
    matches the ray for every c. At level >= 2 the upper endpoint transports
    one level down with vanishing exceptional coefficient, checked once per
    certification for every level 2..k before the level loop
    (_check_transport; a k = 1 certification checks and records nothing),
    where the same c is the lower endpoint, so the level below decides it
    (_transports); below it a level is a convex combination of its endpoint
    and one base leg per boundary stratum at c0 (_stratum_leg). At
    c = (k+1)/(2k) no drop table of the top level is evaluated.

    Each level's legs come from _level_legs and enter its verdict only
    through their first least drop, which joins the witness (its value the
    margin; the higher level wins a tie). (a, b) come from the root's leg,
    the top level's last (reachable_strata lists (n, m) last). Legs, strata
    and trace are not kept: the certificate derives them when read.

    The settled run is the levels max(2, n) up to the top. There every level
    has the same strata, all with m1 >= 2, so no zero strata; each
    stratum's admissible cells do not depend on the level; and each cell's
    drop is affine in the level's c0 = (2l + 3)/(4(l + 1)), which falls as l
    rises. A level's least drop is then a minimum of lines in c0, concave,
    and its least over the run sits at an end level. So when both end
    levels' least drops are positive (or both absent), every level of the
    run has a positive least drop and the verdict of the level below it:
    strictly positive from a strict endpoint, else inconclusive. Its
    witness is the top end's first least when it is <= the low end's (the
    higher level wins a tie), else the low end's. The run is then those two
    levels, with none built in between. Otherwise, and in a perturbed run,
    the run is walked level by level like the levels below it.

    Neither end of a folded run needs a leg. What the loop holds at the low
    end, max(2, n) (its upper endpoint's flag, its first least and the
    witness below it), depends only on (n, m): for k >= 2 every level below
    the top puts level 1's legs at 3/4 and computes its zero strata, a
    level's strata and legs depend on (n, m, level) alone, and the low end
    has no zero strata. The root record (_root_record) keeps it from the
    root shape's first eps-free certification that reaches the run, and
    later ones start there. The top end's first least is read off its
    strata's settled lines (_settled_least). Cold, an (8,8,k) certificate
    looks up 565 legs, levels 1..8, at every k >= 9; once (8, 8) is
    certified it looks up none, against 62,069 at k = 1000 level by level.
    """
    weights = make_weights(n, m, k)
    lo, hi = ample_interval(k)
    if k == 1:
        if c <= lo:
            raise COutOfInterval(f"k = 1 certification needs c > {lo}, got {c}")
    elif c < lo or c > hi:
        raise COutOfInterval(
            f"certified interval for k = {k} is [{lo}, {hi}], got {c}")

    if k > 1:  # every level's upper endpoint transports, checked once per certification
        _check_transport(n, m, k)
    top = k - 1 if c == hi else k
    settled = max(2, n) if not eps and max(2, n) < top else None  # the run's low end
    record = _root_record(n, m) if settled else None
    below = record and record.below_run
    unused = set(eps or ())
    witness, endpoint_strict = None, True  # level 1 is the ground
    leg_c = _level1_c(k, c)
    for level, shapes in _chain(n, m, range(settled if below else 1, top + 1)):
        if below and level == settled:  # the levels up to the run, as the record keeps them
            (endpoint_strict, best, witness), zeros = below, []
        else:
            if level > 1:
                endpoint_strict = _transports(verdict, zeros, witness, level)
            legs = _level_legs(n, m, level, shapes, leg_c, eps, unused)
            best = _first_least(legs)
            if level == 1:  # the zero strata are the zero-drop legs' strata
                zeros = [make_weights(n1, m1, 1) for (n1, m1), leg in zip(shapes, legs)
                         if leg.minimum is not None and leg.minimum.value == 0]
            else:
                # at the lower endpoint a base value equal to c leaves no convex room:
                # genuine zero curves. Cases 3 and 4 (m >= 2) put c0 strictly inside
                # (1/2, cap), so only point cases, settled legs never among them, meet
                # the cap
                zeros = [leg.grid for leg in legs if leg.grid.m < 2
                         and not _below_cap(leg.c, level)] if level < k or c == lo else []
            if level == settled:
                record.below_run = endpoint_strict, best, witness
        if level == settled and (best is None or best.value > 0):
            top_best = _settled_least(shapes, top)
            if top_best is None or top_best.value > 0:  # the run folds to its end levels
                level = top
                best = top_best if top_best is None or top_best.value <= best.value else best
        verdict, notes = _level_verdict(
            level, endpoint_strict, best.value if best is not None else None, zeros)
        if best is not None and (witness is None or best.value <= witness.value):
            witness = best
        if level == top:  # the last level, or a folded run
            break
    if unused:
        raise InvalidBoundaryKey(
            f"({min(unused).label()}) is the canonical key of no admissible cell in "
            f"any grid visited from ({weights.label()})")

    if c == hi:
        endpoint_strict = _transports(verdict, zeros, witness, k)
        verdict = STRICTLY_POSITIVE if endpoint_strict else INCONCLUSIVE
        zero_strata = ()
        notes = (f"transported to k = {k - 1} with vanishing exceptional coefficient",)
        if not endpoint_strict:
            notes += ("lower-level certificate does not confine zeros to collapsed curves",)
        a = b = None
    else:  # the class of the root's leg, the top level's last (_stratum_leg)
        gn, gm = _grid_shape(n, m, top)
        zero_strata, (_, a, b) = tuple(zeros), _leg_class(gn, min(gm, 2), top, leg_c)
    return Certificate(verdict, weights, c, a, b, witness, zero_strata=zero_strata,
                       notes=notes, _eps=eps or None)

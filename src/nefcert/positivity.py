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
endpoint certificate and a per-stratum base certificate. The recursion is
grounded at k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .divisors import (
    BoundaryKey,
    WeightVector,
    canonical_boundary_key,
    dk_class,
    heavy_counts,
    make_weights,
)
from .errors import (
    COutOfInterval,
    InvalidBoundaryKey,
    InvalidCoefficients,
    InvalidWeights,
    NefcertError,
    NoCaseApplies,
)
from .families import FamilyModel, f_values
from .morphisms import pullback_reduction
from .rational import exact

STRICTLY_POSITIVE = "strictly_positive"
ZERO_CHARACTERIZED = "nonnegative_zero_characterized"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CoefficientVector:
    """Weights of the four potentials in the combination
    a_sigma*F_sigma + a_tau*F_tau + a_sigma_tau*F_sigma_tau - a_delta*F_delta."""

    a_sigma: Fraction
    a_tau: Fraction
    a_sigma_tau: Fraction
    a_delta: Fraction

    @classmethod
    def from_ab(cls, n: int, m: int, a, b) -> "CoefficientVector":
        """The (a, b) parameterization: a_sigma = a, a_sigma_tau = b,
        a_tau = (m-b)/m (zero when m <= 1), a_delta = 1."""
        a = exact(a)
        b = exact(b)
        if m == 0 and b != 0:
            raise InvalidCoefficients("b must be 0 when there are no weight-one sections")
        a_tau = Fraction(0) if m <= 1 else (m - b) / Fraction(m)
        return cls(a, a_tau, b, Fraction(1))


@dataclass(frozen=True, order=True)
class DropEvaluation:
    """One step count with its exact drop value."""

    r1: int
    r2: int
    value: Fraction


@dataclass(frozen=True)
class TraceEntry:
    """Record of one drop-table minimization (grid space, combination, minimum)."""

    grid: WeightVector
    c: Fraction
    a: Fraction
    b: Fraction
    minimum: DropEvaluation | None


@dataclass(frozen=True)
class Certificate:
    """Outcome of a universal positivity check.

    A strictly_positive verdict means every drop evaluated anywhere in the
    recursion is positive; margin is the smallest such drop, hence the
    largest uniform boundary perturbation that provably keeps all drops
    positive. Step-free configurations pair every ruled-surface family to
    exactly 0, so strictness always refers to families with at least one
    blow-down, and at interval endpoints the zero_strata list the stratum
    shapes that genuinely reach degree zero.
    """

    verdict: str
    weights: WeightVector
    c: Fraction
    a: Fraction | None
    b: Fraction | None
    witness: DropEvaluation | None
    margin: Fraction | None
    strata_checked: tuple[WeightVector, ...]
    zero_strata: tuple[WeightVector, ...] = ()
    trace: tuple[TraceEntry, ...] = ()
    notes: tuple[str, ...] = ()


def admissible_pairs(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """All step counts with both sides of the node above weight 1, sorted."""
    make_weights(n, m, k)
    return [(r1, r2) for r1 in range(n + 1) for r2 in heavy_counts(n, m, k, r1)]


def _scaled_drop_rows(n: int, m: int, coeffs: CoefficientVector,
                      eps: Mapping[BoundaryKey, Fraction] | None):
    """The drop plus its eps shift, times a common denominator, as integer rows.

    The drop at counts (r1, r2) is
        -a_delta + a_sigma*r1(n-r1)/(n-1) + a_tau*r2(m-r2)/(m-1)
        + a_sigma_tau*(r1(m-r2) + r2(n-r1))/(nm),
    where terms whose potentials vanish by convention (n <= 1, m <= 1,
    nm = 0) contribute nothing; eps shifts it by eps[(i, j)] at the counts
    whose canonical key min((r1, r2), (n-r1, m-r2)) is (i, j). Returns
    (scale, t, rows) with rows[r1] = (p, q, shift) such that scale times the
    shifted drop is p + r2*(q - t*r2) + shift[r2], all integers.
    """
    eps = eps or {}
    pairs = ((coeffs.a_sigma, n - 1) if n >= 2 else (0, 1),
             (coeffs.a_tau, m - 1) if m >= 2 else (0, 1),
             (coeffs.a_sigma_tau, n * m) if n and m else (0, 1),
             (coeffs.a_delta, 1))
    scale = lcm(*(value.denominator * divisor for value, divisor in pairs),
                *(value.denominator for value in eps.values()))
    s, t, x, z = (value.numerator * (scale // (value.denominator * divisor))
                  for value, divisor in pairs)
    shift_rows: dict[int, list[int]] = {}
    for key, value in eps.items():
        i, j = key.i, key.j
        if 0 <= i <= n and 0 <= j <= m and (i, j) <= (n - i, m - j):
            scaled = value.numerator * (scale // value.denominator)
            for r1, r2 in ((i, j), (n - i, m - j)):
                shift_rows.setdefault(r1, [0] * (m + 1))[r2] = scaled
    zeros = [0] * (m + 1)
    rows = [(s * r1 * (n - r1) + x * r1 * m - z, t * m + x * (n - 2 * r1),
             shift_rows.get(r1, zeros))
            for r1 in range(n + 1)]
    return scale, t, rows


def drop_value(n: int, m: int, k: int, coeffs: CoefficientVector,
               r1: int, r2: int) -> Fraction:
    """Exact drop of the weighted potential combination at one step.

    Terms whose potentials vanish by convention (n <= 1, m <= 1, nm = 0)
    contribute nothing. The value does not depend on k; admissibility does.
    """
    if not (0 <= r1 <= n and 0 <= r2 <= m):
        raise ValueError(f"counts ({r1},{r2}) outside the grid 0..{n} x 0..{m}")
    scale, t, rows = _scaled_drop_rows(n, m, coeffs, None)
    p, q, _ = rows[r1]
    return Fraction(p + r2 * (q - t * r2), scale)


def min_drop(n: int, m: int, k: int, coeffs: CoefficientVector,
             eps: Mapping[BoundaryKey, Fraction] | None = None) -> DropEvaluation | None:
    """Exhaustive minimum of the drop, shifted by eps, over admissible counts.

    Every admissible cell is scanned in grid order in integer arithmetic
    over one common denominator, and the strict < keeps the
    lexicographically smallest (r1, r2) among ties; None when no step is
    admissible at all (every generically smooth family is then a step-free
    ruled-surface family).
    """
    make_weights(n, m, k)
    scale, t, rows = _scaled_drop_rows(n, m, coeffs, eps)
    best = best_r1 = best_r2 = None
    for r1, (p, q, shift) in enumerate(rows):
        for r2 in heavy_counts(n, m, k, r1):
            value = p + r2 * (q - t * r2) + shift[r2]
            if best is None or value < best:
                best, best_r1, best_r2 = value, r1, r2
    if best is None:
        return None
    return DropEvaluation(best_r1, best_r2, Fraction(best, scale))


def g_series(family: FamilyModel, coeffs: CoefficientVector) -> list[Fraction]:
    """The combination of the four potentials at every level, 0..N.

    The last entry is always 0 and consecutive differences are the per-step
    drop values.
    """
    values = []
    for level in range(family.n_steps + 1):
        f_delta, f_sigma, f_tau, f_mixed = f_values(family, level)
        values.append(coeffs.a_sigma * f_sigma + coeffs.a_tau * f_tau
                      + coeffs.a_sigma_tau * f_mixed - coeffs.a_delta * f_delta)
    return values


def positivity_case(n: int, m: int, k: int, a, b) -> tuple[int, bool]:
    """Identify the positivity case of (n, m, k) and test its strict hypothesis.

    Cases: 1 (m = 0), 2 (m = 1, n >= k+2), 3 (m >= 2, n <= k),
    4 (m >= 2, n >= k+1). The sharp configuration m = 1, n = k+1 and the
    degenerate n <= 1 with m >= 2 support no strict hypothesis.
    """
    make_weights(n, m, k)
    a = exact(a)
    b = exact(b)
    if m == 0:
        return 1, a > Fraction(n - 1, (n - k - 1) * (k + 1))
    if m == 1:
        if n == k + 1:
            raise NoCaseApplies(
                f"(n,m) = ({n},{m}) with k = {k} is the sharp configuration; "
                "every step-free family pairs to zero at the threshold")
        return 2, a > Fraction(n - 1, n * (k + 1))
    if 2 <= n <= k:
        return 3, a > 0 and b > 0
    if n >= k + 1:
        lhs = Fraction((k + 1) * (n - k - 1), n - 1) * a + Fraction(k + 1, n) * b
        return 4, lhs > 1 and b > 1
    raise NoCaseApplies(
        f"(n,m) = ({n},{m}) with k = {k}: no strict-hypothesis case covers n <= 1")


@dataclass(frozen=True)
class Threshold:
    """Case id with the certified ray value: a point or an interval in c."""

    case: int
    c: Fraction | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    hi_closed: bool = False
    equality: bool = False

    def describe(self) -> str:
        if self.c is not None:
            return str(self.c)
        bracket = "]" if self.hi_closed else ")"
        return f"({self.lo}, {self.hi}{bracket}"


def threshold_c(n: int, m: int, k: int) -> Threshold:
    """The c value (or interval) at which the ray pairs nonnegatively with
    every generically smooth family, by case.

    Case 5 is the sharp point (m = 1, n = k+1) where the pairing is exactly
    zero. Weight vectors with m >= 2 and n <= 1 route through case 3: their
    sigma potentials vanish by convention and the same substitution applies.
    """
    make_weights(n, m, k)
    if k < 2:
        raise InvalidWeights("thresholds are stated for k >= 2")
    if m == 0:
        return Threshold(1, c=Fraction(n - 1, 2 * (n - 2)))
    if m == 1:
        if n == k + 1:
            return Threshold(5, c=Fraction(k + 2, 2 * (k + 1)), equality=True)
        return Threshold(2, c=Fraction(n + 1, 2 * n))
    if n >= k + 1:
        return Threshold(4, lo=Fraction(1, 2), hi=Fraction(n + 1, 2 * n),
                         hi_closed=False)
    return Threshold(3, lo=Fraction(1, 2), hi=Fraction(k + 2, 2 * (k + 1)),
                     hi_closed=True)


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
    return (n - 1) * (c - Fraction(1, 2)), n * (Fraction(n - 1, 2) - (n - 2) * c)


def c0_lower(n: int, m: int, k: int) -> tuple[Fraction, bool]:
    """Deterministic base value c0 <= (k+2)/(2(k+1)) with nonnegative pairing.

    Point cases return their threshold; interval cases return the interval
    midpoint. The strict flag is the exact comparison with the cap: it fails
    for the sharp configuration (k+1, 1) and for (5, 0, 2), where the
    case-1 threshold meets the cap and step-free families genuinely pair
    to zero there.
    """
    threshold = threshold_c(n, m, k)
    if threshold.c is not None:
        c0 = threshold.c
    else:
        c0 = (threshold.lo + threshold.hi) / 2
    cap = Fraction(k + 2, 2 * (k + 1))
    if c0 > cap:
        raise NefcertError(f"internal: base value {c0} above the cap {cap}")
    return c0, c0 < cap


def ample_interval(k: int) -> tuple[Fraction, Fraction | None]:
    """The certified interval ((k+2)/(2k+2), (k+1)/(2k)]; (2/3, unbounded) at k = 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidWeights(f"k must be a positive integer, got {k!r}")
    if k == 1:
        return Fraction(2, 3), None
    return Fraction(k + 2, 2 * k + 2), Fraction(k + 1, 2 * k)


def reachable_strata(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """All (n', m') reachable from (n, m) by splitting off boundary factors.

    A split (n1, m1) | (n2, m2) of a stratum contributes factors
    (n1, m1 + 1) and (n2, m2 + 1); a factor is a boundary divisor exactly
    when it is itself a valid weight vector. Each factor strictly decreases
    the total marking count, so the closure is finite; the start vector is
    included.
    """
    make_weights(n, m, k)
    seen = {(n, m)}
    frontier = [(n, m)]
    while frontier:
        a, b = frontier.pop()
        # both factors are valid exactly when (n1, m1) is an admissible split;
        # a split and its complement give the same two factors
        for n1 in range(a // 2 + 1):
            for m1 in heavy_counts(a, b, k, n1):
                near = (n1, m1 + 1)
                if near not in seen:
                    seen.add(near)
                    frontier.append(near)
                far = (a - n1, b - m1 + 1)
                if far not in seen:
                    seen.add(far)
                    frontier.append(far)
    return sorted(seen)


def certify_generic(n: int, m: int, k: int, c, *,
                    eps: Mapping[BoundaryKey, Fraction] | None = None) -> Certificate:
    """Certify the combination matching the ray at c over generically smooth
    families on one weight vector.

    The verdict is strictly_positive when the exhaustive minimum drop is
    positive: every family with at least one blow-down then pairs strictly
    positively, while step-free ruled-surface families pair the combination
    to exactly 0. An empty admissible set reports the step-free situation
    outright. Boundary perturbations shift the drop at matching counts;
    their keys are canonicalized on (n, m, k) and must be admissible there.

    With m >= 2 the substituted combination equals the ray pairing at every
    c; with m <= 1 it has one parameter fewer and the two agree exactly at
    the case threshold, which is where the interval certification uses it.
    """
    weights = make_weights(n, m, k)
    c = exact(c)
    a, b = ab_substitution(n, m, k, c)
    coeffs = CoefficientVector.from_ab(n, m, a, b)
    if eps and not isinstance(eps, _GridLabels):
        eps = canonical_eps(weights, eps)
    best = min_drop(n, m, k, coeffs, eps)
    trace = (TraceEntry(weights, c, a, b, best),)
    if best is None:
        return Certificate(
            ZERO_CHARACTERIZED, weights, c, a, b, None, None, (weights,),
            zero_strata=(weights,), trace=trace,
            notes=("no admissible blow-down counts: every generically smooth "
                   "family is step-free and pairs to exactly 0",))
    if best.value > 0:
        verdict = STRICTLY_POSITIVE
    elif best.value == 0:
        verdict = ZERO_CHARACTERIZED
    else:
        verdict = INCONCLUSIVE
    return Certificate(
        verdict, weights, c, a, b, best, best.value, (weights,),
        zero_strata=(weights,) if verdict == ZERO_CHARACTERIZED else (),
        trace=trace,
        notes=("step-free families pair the combination to exactly 0; "
               "strictness refers to families with at least one blow-down",))


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

    A key labels the boundary cells of every grid the certification visits
    (stratum grids, lower weight levels, regrouped k = 1 grids): in each grid
    it shifts the counts whose canonical key it is. Boundary divisors of
    (n, m, k) itself are spelled either way after canonical_eps; a key that
    lies outside every grid reachable from (n, m) raises InvalidBoundaryKey.
    With eps identically zero this is certify_interval; the maximal uniform
    shift with a guaranteed strictly_positive verdict is that certificate's
    margin.
    """
    labels = _GridLabels()
    for key, value in dict(eps or {}).items():
        i, j = _key_pair(key)
        # every grid visited from (n, m) has at most n + m sections
        if not (0 <= i and 0 <= j and i + j <= n + m):
            raise InvalidBoundaryKey(
                f"({i},{j}) is a boundary cell of no grid reachable from ({n},{m})")
        labels[BoundaryKey(i, j)] = exact(value)
    return _certify(n, m, k, exact(c), labels)


def canonical_eps(weights: WeightVector, eps: Mapping) -> dict[BoundaryKey, Fraction]:
    """eps with every key, a BoundaryKey or an (i, j) pair, routed through
    canonical_boundary_key on weights.

    A key and its complement name the same boundary divisor, so they may not
    both be given; an inadmissible key raises InvalidBoundaryKey.
    """
    cleaned: dict[BoundaryKey, Fraction] = {}
    for key, value in dict(eps or {}).items():
        i, j = _key_pair(key)
        canonical = canonical_boundary_key(weights, i, j)
        if canonical in cleaned:
            raise InvalidBoundaryKey(
                f"({i},{j}) and another key name the same boundary divisor "
                f"({canonical.label()}) on ({weights.label()})")
        cleaned[canonical] = exact(value)
    return cleaned


# --- certification engine ------------------------------------------------------

class _GridLabels(dict):
    """eps as perturbed_certify passes it down: keys are matched against the
    canonical keys of each grid, never canonicalized on one of them."""


def _key_pair(key) -> tuple[int, int]:
    return (key.i, key.j) if isinstance(key, BoundaryKey) else tuple(key)


def _merge_min(*values: Fraction | None) -> Fraction | None:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _merge_witness(*evaluations: DropEvaluation | None) -> DropEvaluation | None:
    present = [e for e in evaluations if e is not None]
    if not present:
        return None
    best = present[0]
    for entry in present[1:]:
        if entry.value < best.value:
            best = entry
    return best


def _sorted_spaces(spaces) -> tuple[WeightVector, ...]:
    return tuple(sorted(set(spaces), key=lambda w: (-w.k, w.n, w.m)))


def _certify(n: int, m: int, k: int, c: Fraction,
             eps: Mapping[BoundaryKey, Fraction] | None) -> Certificate:
    weights = make_weights(n, m, k)
    lo, hi = ample_interval(k)
    if k == 1:
        if c <= lo:
            raise COutOfInterval(f"k = 1 certification needs c > {lo}, got {c}")
        return _certify_k1(weights, c, eps)
    if c < lo or c > hi:
        raise COutOfInterval(
            f"certified interval for k = {k} is [{lo}, {hi}], got {c}")
    if c == hi:
        return _certify_upper_endpoint(weights, eps)

    endpoint = _certify_upper_endpoint(weights, eps)
    stratum_shapes = reachable_strata(n, m, k)
    legs: list[Certificate] = []
    carriers: list[WeightVector] = []
    root_ab: tuple[Fraction, Fraction] | None = None
    for n1, m1 in stratum_shapes:
        c0, strict = c0_lower(n1, m1, k)
        leg = certify_generic(n1, m1, k, c0, eps=eps)
        legs.append(leg)
        if (n1, m1) == (n, m):
            root_ab = (leg.a, leg.b)
        if c == lo and not strict:
            # base value equals c itself: no convex room, genuine zero curves
            carriers.append(make_weights(n1, m1, k))

    witnesses = [leg.witness for leg in legs] + [endpoint.witness]
    witness = _merge_witness(*witnesses)
    margin = _merge_min(*[leg.margin for leg in legs], endpoint.margin)
    notes: list[str] = []
    if endpoint.verdict != STRICTLY_POSITIVE:
        verdict = INCONCLUSIVE
        notes.append("upper-endpoint certificate failed; no convex combination available")
    elif any(leg.witness is not None and leg.witness.value < 0 for leg in legs):
        verdict = INCONCLUSIVE
        notes.append("a stratum base certificate has a negative drop")
    elif carriers:
        verdict = ZERO_CHARACTERIZED
        notes.append("degree zero exactly on curves inside the zero strata "
                     "(the curves collapsed by the reduction increasing k)")
    elif any(leg.witness is not None and leg.witness.value == 0 for leg in legs):
        verdict = ZERO_CHARACTERIZED
        notes.append("a stratum base certificate has a zero drop")
    else:
        verdict = STRICTLY_POSITIVE
    strata = _sorted_spaces([make_weights(n1, m1, k) for n1, m1 in stratum_shapes]
                            + list(endpoint.strata_checked))
    trace = tuple(entry for leg in legs for entry in leg.trace) + endpoint.trace
    a, b = root_ab if root_ab else (None, None)
    return Certificate(verdict, weights, c, a, b, witness, margin, strata,
                       zero_strata=tuple(carriers), trace=trace,
                       notes=tuple(notes))


def _certify_upper_endpoint(weights: WeightVector,
                            eps: Mapping[BoundaryKey, Fraction] | None) -> Certificate:
    """Positivity at c = (k+1)/(2k) by transport one weight level down.

    At this value the pulled-back ray has exceptional coefficient exactly 0,
    so it equals the same ray one level down, where the same c is the lower
    interval endpoint. Strict transforms of curves are never collapsed, so
    zeros one level down of the collapsed shape (k, 1) do not obstruct
    strict positivity upstairs. No drop table is ever evaluated for the top
    space itself.
    """
    k = weights.k
    c = Fraction(k + 1, 2 * k)
    down = make_weights(weights.n, weights.m, k - 1)
    if pullback_reduction(dk_class(weights, c)) != dk_class(down, c):
        raise NefcertError("internal: endpoint transport identity failed")
    sub = _certify(weights.n, weights.m, k - 1, c, eps)
    sub_drops_fine = sub.margin is None or sub.margin > 0
    if sub.verdict == STRICTLY_POSITIVE:
        verdict = STRICTLY_POSITIVE
    elif (sub.verdict == ZERO_CHARACTERIZED and sub.zero_strata
          and all((z.n, z.m) == (k, 1) for z in sub.zero_strata)
          and sub_drops_fine):
        verdict = STRICTLY_POSITIVE
    else:
        verdict = INCONCLUSIVE
    notes = (f"transported to k = {k - 1} with vanishing exceptional coefficient",)
    if verdict == INCONCLUSIVE:
        notes += ("lower-level certificate does not confine zeros to collapsed curves",)
    return Certificate(verdict, weights, c, None, None, sub.witness, sub.margin,
                       sub.strata_checked, zero_strata=(), trace=sub.trace,
                       notes=notes)


def _certify_k1(weights: WeightVector, c: Fraction,
                eps: Mapping[BoundaryKey, Fraction] | None) -> Certificate:
    """Ground certification at k = 1 by per-stratum drop minimization.

    Strata with several weight-one sections are certified through the
    regrouped grid (n + m - 1, 1): all but one heavy section are treated as
    light, which discards a nonnegative psi contribution when c <= 1, so a
    positive regrouped minimum still certifies the original ray (c is
    capped at 1 for the regrouped combination; the surplus multiplies a
    psi class, which pairs nonnegatively). Collision classes do not exist
    at k = 1, so the combination matches the ray for every c.
    """
    legs: list[TraceEntry] = []
    strata: list[WeightVector] = []
    zero_strata: list[WeightVector] = []
    negative = False
    stratum_shapes = reachable_strata(weights.n, weights.m, 1)
    for n1, m1 in stratum_shapes:
        stratum = make_weights(n1, m1, 1)
        strata.append(stratum)
        if m1 == 0:
            grid = stratum
            a, b = c, Fraction(0)
        else:
            pooled = n1 + m1 - 1
            grid = make_weights(pooled, 1, 1)
            c_eff = min(c, Fraction(1))
            a, b = c_eff - Fraction(1, pooled), Fraction(1)
        coeffs = CoefficientVector.from_ab(grid.n, grid.m, a, b)
        best = min_drop(grid.n, grid.m, 1, coeffs, eps)
        legs.append(TraceEntry(grid, c, a, b, best))
        if best is not None:
            if best.value < 0:
                negative = True
            elif best.value == 0:
                zero_strata.append(stratum)
    witness = _merge_witness(*[leg.minimum for leg in legs])
    margin = _merge_min(*[leg.minimum.value if leg.minimum else None for leg in legs])
    if negative:
        verdict = INCONCLUSIVE
        notes = ("a stratum drop table reaches a negative value",)
    elif zero_strata:
        verdict = ZERO_CHARACTERIZED
        notes = ("degree zero exactly on families built from zero-drop steps",)
    else:
        verdict = STRICTLY_POSITIVE
        notes = ()
    root = legs[stratum_shapes.index((weights.n, weights.m))]
    return Certificate(verdict, weights, c, root.a, root.b, witness, margin,
                       _sorted_spaces(strata), zero_strata=tuple(zero_strata),
                       trace=tuple(legs), notes=notes)

"""Push-forward and pull-back of divisor classes along the natural maps
between weighted spaces: the reduction from the unweighted space, the
single-step weight reduction k-1 -> k, and the replacement of one weight-one
section by k coincident light sections.

The transformation constants are also recomputed from scratch out of explicit
test families (derive_* below), so the linear maps here are cross-checked
against exact surface intersection numbers instead of being trusted as
hard-coded matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .divisors import (
    BoundaryKey,
    DivisorClass,
    WeightVector,
    make_weights,
)
from .errors import AmbientMismatch, InvalidWeights, UnsupportedCoefficient
from .families import BlowdownStep, FamilyModel, intersection_numbers


@dataclass(frozen=True)
class MorphismSpec:
    """A map between two weighted spaces, named by the classmethod that
    builds it, with its source derived from the target."""

    source: WeightVector
    target: WeightVector

    @classmethod
    def reduction_from_unweighted(cls, target: WeightVector) -> "MorphismSpec":
        if target.k < 2:
            raise InvalidWeights("reduction from the unweighted space needs k >= 2")
        source = make_weights(target.n + target.m, 0, 1)
        return cls(source, target)

    @classmethod
    def reduction_step(cls, target: WeightVector) -> "MorphismSpec":
        if target.k < 2:
            raise InvalidWeights("a reduction step needs k >= 2")
        source = make_weights(target.n, target.m, target.k - 1)
        return cls(source, target)

    @classmethod
    def replacement(cls, target: WeightVector) -> "MorphismSpec":
        if target.n < target.k:
            raise InvalidWeights(
                "replacement needs at least k light sections to merge")
        source = make_weights(target.n - target.k, target.m + 1, target.k)
        return cls(source, target)


def _require_tautological(cls: DivisorClass, what: str) -> None:
    if cls.boundary:
        raise UnsupportedCoefficient(
            f"{what} has no rule for nodal boundary coefficients")


def pushforward_reduction(cls: DivisorClass, target: WeightVector) -> DivisorClass:
    """Push a psi/delta combination forward from the unweighted space.

    psi maps to psi_sigma + psi_tau + 2 delta_s and delta to delta + delta_s:
    a two-fold collision absorbs one node and both colliding sections' psi
    contributions. Heavy sections never lie on contracted tails, so their
    psi classes transport unchanged.
    """
    spec = MorphismSpec.reduction_from_unweighted(target)
    if cls.ambient != spec.source:
        raise AmbientMismatch(
            f"expected a class on ({spec.source.label()}), got ({cls.ambient.label()})")
    _require_tautological(cls, "push-forward")
    a = cls.psi_sigma
    b = cls.delta
    return DivisorClass(target, a, (a,) * target.m, 2 * a + b, b, {})


def pullback_reduction(cls: DivisorClass) -> DivisorClass:
    """Pull a tautological class back along the weight reduction k-1 -> k.

    Rules: psi_sigma -> psi_sigma - k F, psi_tau -> psi_tau,
    delta_s -> delta_s + C(k,2) F, delta -> delta - F, where F is the union
    of the exceptional divisors, realized as the nodal key (k, 0) on the
    source. When no such boundary divisor exists on the source the map
    contracts nothing and F is the zero class.
    """
    target = cls.ambient
    spec = MorphismSpec.reduction_step(target)
    _require_tautological(cls, "reduction pull-back")
    k = target.k
    f_coefficient = (-k * cls.psi_sigma
                     + comb(k, 2) * cls.delta_s
                     - cls.delta)
    boundary = {}
    if f_coefficient != 0 and BoundaryKey(k, 0).is_admissible(spec.source):
        boundary = {(k, 0): f_coefficient}  # DivisorClass spells it canonically
    return DivisorClass(spec.source, cls.psi_sigma, cls.psi_tau,
                        cls.delta_s, cls.delta, boundary)


def pullback_replacement(cls: DivisorClass) -> DivisorClass:
    """Pull a tautological class back along the section replacement.

    The k merged light sections all sit on the last weight-one section of
    the source, so psi_sigma picks up k copies of its psi class and delta_s
    loses C(k,2) phantom collisions; delta is untouched and the original
    weight-one sections transport entrywise.
    """
    target = cls.ambient
    spec = MorphismSpec.replacement(target)
    _require_tautological(cls, "replacement pull-back")
    k = target.k
    last = k * cls.psi_sigma - comb(k, 2) * cls.delta_s
    return DivisorClass(spec.source, cls.psi_sigma, cls.psi_tau + (last,),
                        cls.delta_s, cls.delta, {})


# --- test-curve fixtures -------------------------------------------------------

def pushforward_test_families(n: int) -> tuple[FamilyModel, FamilyModel]:
    """The diagonal test family and its stable model.

    On the product surface take n-1 constant sections and the diagonal
    (self-intersections 0 and 2). With weights 1/2 the two-fold crossings
    are honest members of the family; over the unweighted space each of the
    n-1 crossings is blown up, one nodal fiber apiece.
    """
    if n < 5:
        raise InvalidWeights("the diagonal test family needs n >= 5")
    e_sigma = (0,) * (n - 1) + (2,)
    weighted = FamilyModel.concrete(make_weights(n, 0, 2), (), e_sigma)
    steps = tuple(BlowdownStep.concrete({i, n}) for i in range(1, n))
    stable = FamilyModel.concrete(make_weights(n, 0, 1), steps, e_sigma)
    return weighted, stable


def derive_pushforward_constants(n: int) -> tuple[Fraction, Fraction]:
    """Solve for the delta_s corrections of the unweighted push-forward.

    Pairs the diagonal test family with psi and delta on both sides of the
    reduction and solves psi^s = psi + a*delta_s, delta^s = delta + b*delta_s.
    The result is (2, 1) independently of n.
    """
    weighted, stable = pushforward_test_families(n)
    before = intersection_numbers(weighted)
    after = intersection_numbers(stable)
    a = (after.psi_sigma_B - before.psi_sigma_B) / before.delta_s_B
    b = (after.delta_B - before.delta_B) / before.delta_s_B
    return a, b


def pullback_test_curve(n: int, m: int, k: int
                        ) -> list[tuple[WeightVector, FamilyModel]]:
    """Two-component family contracted by the reduction (n, m, k-1) -> (n, m, k).

    One factor is a plane blown up in a point, fibered by the lines through
    it: k general lines are the light sections (self-intersection 1 each)
    and the exceptional curve (self-intersection -1) is the attaching
    section. The other factor is a product surface carrying the remaining
    n - k light and m heavy sections plus the attaching section, all
    constant.

    Bad input is reported in the caller's terms: the target (n, m, k) and
    its reduction step are checked first (MorphismSpec.reduction_step), then
    n >= k. A valid target with n >= k makes both factors valid.
    """
    MorphismSpec.reduction_step(make_weights(n, m, k))
    if n < k:
        raise InvalidWeights(
            f"the contracted test curve needs n >= k light sections, got n = {n}, k = {k}")
    moving = make_weights(k, 1, k - 1)
    rest = make_weights(n - k, m + 1, k - 1)
    part1 = FamilyModel.concrete(moving, (), (1,) * k, (-1,))
    part2 = FamilyModel.concrete(rest, (), (0,) * (n - k), (0,) * (m + 1))
    return [(moving, part1), (rest, part2)]


def pullback_test_numbers(n: int, m: int, k: int) -> dict[str, Fraction]:
    """Exact pairings of the contracted test curve with the source classes.

    The two attaching sections' self-intersections add up to the normal
    degree of the node, which paired with delta (one node in every fiber)
    and with the exceptional union F (the curve sits inside it) gives -1
    for both.
    """
    parts = pullback_test_curve(n, m, k)
    reports = [intersection_numbers(family) for _, family in parts]
    psi_sigma = sum((r.psi_sigma_B for r in reports), Fraction(0))
    delta_s = sum((r.delta_s_B for r in reports), Fraction(0))
    # psi_tau of the full family ranges over the m genuine heavy sections only
    psi_tau = -sum(Fraction(e) for e in parts[1][1].final_e_tau[:m])
    node_normal_degree = (Fraction(parts[0][1].final_e_tau[0])
                          + Fraction(parts[1][1].final_e_tau[m]))
    return {
        "psi_sigma": psi_sigma,
        "psi_tau": psi_tau,
        "delta_s": delta_s,
        "delta": node_normal_degree,
        "exceptional": node_normal_degree,
    }


def derive_pullback_constant(n: int, m: int, k: int) -> Fraction:
    """Recover the psi_sigma correction of the reduction pull-back.

    The test curve is contracted, so its pairing with any pulled-back class
    vanishes: 0 = psi_sigma.B + a * (F.B) forces a = -k. The input checks
    are pullback_test_curve's.
    """
    numbers = pullback_test_numbers(n, m, k)
    return -numbers["psi_sigma"] / numbers["exceptional"]

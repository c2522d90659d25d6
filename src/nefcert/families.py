"""One-parameter families of weighted stable curves as blow-down chains.

A family is encoded by the chain of surfaces between the resolved family
(level 0) and a terminal ruled surface (level N): one blow-down per step,
recorded from the family downward, plus the self-intersections of the
section images on the terminal surface. Intersection numbers at any level
follow by pure bookkeeping: contracting a (-1)-curve that meets a set S of
sections lowers every pairwise product and self-intersection within S by 1.

On the terminal ruled surface the difference of two sections is a multiple
of the fiber class, so pairwise products are forced to (e_j + e_l)/2 by the
self-intersections; those must share one parity for the products to be
integers.

Concrete families carry each step's section sets, whose sizes are the step
counts (r1, r2), and the terminal data; abstract families keep only the
counts. validate_family owns the structural rules: the walk and
family_to_json raise the first fault of _step_faults and _terminal_faults,
in its words, before they use a step or the terminal data. A step's indices
are checked by their least and largest index, so no pass builds 1..n: an
abstract family costs nothing per section. Values are checked once, by
BlowdownStep and FamilyModel; family_from_json checks only the file's shape
and reports their fault under the field's path. One walk from
the terminal surface down to level 0 updates a single level matrix in
place and telescopes the potentials; level_matrix and f_values read from
it. f_values keeps the walk's state between calls on one family and moves
it up or down the chain, so reading every level in turn costs one pass:
the potential series (positivity.g_series, `nefcert family fvalues`) is
_f_series, f_values read from level N down to 0, each level checked. A
level matrix is read through its block sums (_block_sums), which give
f_values' check and intersection_numbers. The weights of the (a, b)
combination live in _ab_weights, read by CoefficientVector.from_ab and by
positivity's integer drop scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence
from weakref import ref

from .divisors import (
    BoundaryKey,
    DivisorClass,
    WeightVector,
    canonical_boundary_key,
    heavy_counts,
    make_weights,
)
from .errors import (
    AmbientMismatch,
    ConcreteAbstractMismatch,
    ConcreteOnly,
    FamilyFormatError,
    InvalidCoefficients,
    InvalidValue,
    ShapeNotFunctorial,
)
from .rational import exact, exact_int, exact_ints

CONCRETE = "concrete"
ABSTRACT = "abstract"
# FamilyModel's terminal self-intersections, light then heavy sections
_TERMINAL = ("final_e_sigma", "final_e_tau")


@dataclass(frozen=True)
class BlowdownStep:
    """One blow-down: the contracted curve meets r1 light and r2 heavy sections.

    A concrete step holds the sets sigma and tau of those sections, whose
    sizes are r1 and r2; an abstract step holds only the counts. Indices and
    counts are integers, and a section listed twice raises (_index_set).
    """

    sigma: frozenset[int] | None = None
    tau: frozenset[int] | None = None
    _counts: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self._counts is None) != self.is_concrete:
            raise InvalidValue("a step holds either both section sets or only its counts")
        if self._counts is None:
            object.__setattr__(self, "sigma", _index_set(self.sigma, "sigma"))
            object.__setattr__(self, "tau", _index_set(self.tau, "tau"))
        else:
            object.__setattr__(self, "_counts", tuple(map(exact_int, self._counts, ("r1", "r2"))))

    @classmethod
    def concrete(cls, sigma: Iterable[int], tau: Iterable[int] = ()) -> "BlowdownStep":
        return cls(sigma, tau)

    @classmethod
    def abstract(cls, r1: int, r2: int) -> "BlowdownStep":
        return cls(_counts=(r1, r2))

    @property
    def is_concrete(self) -> bool:
        return self.sigma is not None and self.tau is not None

    @property
    def r1(self) -> int:
        return len(self.sigma) if self._counts is None else self._counts[0]

    @property
    def r2(self) -> int:
        return len(self.tau) if self._counts is None else self._counts[1]


@dataclass(frozen=True)
class FamilyModel:
    """Blow-down chain over a terminal ruled surface.

    steps[0] is adjacent to the actual family (level 0); steps[-1] is the
    last contraction onto the terminal surface (level N). The mode is read
    from the terminal data: concrete when either tuple of self-intersections
    is set (concrete sets both), abstract when neither is. The steps are
    BlowdownSteps and the self-intersections integers; whether they fit the
    weights is validate_family's question.
    """

    weights: WeightVector
    steps: tuple[BlowdownStep, ...]
    final_e_sigma: tuple[int, ...] | None = None
    final_e_tau: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.weights, WeightVector):
            raise InvalidValue(f"weights: expected a WeightVector, got {self.weights!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        if not all(isinstance(step, BlowdownStep) for step in self.steps):
            raise InvalidValue("steps: expected BlowdownSteps")
        for field in _TERMINAL:
            if getattr(self, field) is not None:
                object.__setattr__(self, field, exact_ints(getattr(self, field), field))

    @classmethod
    def concrete(cls, weights: WeightVector, steps: Sequence[BlowdownStep],
                 final_e_sigma: Sequence[int],
                 final_e_tau: Sequence[int] = ()) -> "FamilyModel":
        return cls(weights, steps, final_e_sigma, final_e_tau)

    @classmethod
    def abstract(cls, weights: WeightVector,
                 counts: Sequence[tuple[int, int]]) -> "FamilyModel":
        return cls(weights, tuple(BlowdownStep.abstract(r1, r2) for r1, r2 in counts))

    @property
    def mode(self) -> str:
        return ABSTRACT if self.final_e_sigma is None and self.final_e_tau is None else CONCRETE

    @property
    def n_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class IntersectionReport:
    """Exact pairing data of one concrete family with the tautological basis."""

    psi_sigma_B: Fraction
    psi_tau_B: Fraction
    delta_s_B: Fraction
    delta_B: Fraction
    boundary_counts: Mapping[BoundaryKey, int]


def validate_family(family: FamilyModel) -> list[str]:
    """All invariant violations, each naming the offending step or matrix entry."""
    w, mode = family.weights, family.mode
    violations: list[str] = []
    for idx, step in enumerate(family.steps):
        path = f"steps[{idx}]"
        violations += _step_faults(idx, step, mode, w)  # first: the fault the readers raise
        if not (0 <= step.r1 <= w.n):
            violations.append(f"{path}.r1: {step.r1} out of range 0..{w.n}")
            continue
        if not (0 <= step.r2 <= w.m):
            violations.append(f"{path}.r2: {step.r2} out of range 0..{w.m}")
            continue
        heavy = heavy_counts(w.n, w.m, w.k, step.r1)  # the r2 with both sides above 1
        if step.r2 < heavy.start:
            violations.append(f"{path}: contracted component weight r1/k + r2 = "
                              f"{Fraction(step.r1, w.k) + step.r2} is not > 1")
        if step.r2 >= heavy.stop:
            violations.append(f"{path}: complement weight (n-r1)/k + (m-r2) = "
                              f"{Fraction(w.n - step.r1, w.k) + (w.m - step.r2)} is not > 1")

    if mode == ABSTRACT:
        return violations
    violations += _terminal_faults(family)
    if violations:
        return violations

    matrix = level_matrix(family, 0)
    n = w.n
    for a in range(n):
        for b in range(a + 1, n):
            if matrix[a][b] < 0:
                violations.append(
                    f"level 0: sigma[{a + 1}].sigma[{b + 1}] = {matrix[a][b]} is negative")
    for t in range(w.m):
        for other in range(n + w.m):
            if other != n + t and matrix[n + t][other] != 0:
                which = (f"sigma[{other + 1}]" if other < n else f"tau[{other - n + 1}]")
                violations.append(
                    f"level 0: tau[{t + 1}].{which} = {matrix[n + t][other]}; "
                    "weight-one sections must stay disjoint")
    return violations


def _step_faults(index: int, step: BlowdownStep, mode: str, w: WeightVector) -> list[str]:
    """validate_family's structural messages for steps[index], in its order:
    section sets exactly on concrete families, then indices inside 1..n and
    1..m, read off each set's least and largest index. No pass builds the
    index ranges, so a step costs the same whatever n and m are; a message
    is formatted only for a fault."""
    if (step._counts is None) != (mode == CONCRETE):  # is_concrete, without the property call
        return [f"steps[{index}]: concrete family needs explicit section sets" if mode == CONCRETE
                else f"steps[{index}]: abstract family carries section sets"]
    if mode == ABSTRACT:
        return []
    return [f"steps[{index}].{name}: indices outside 1..{bound}"
            for name, indices, bound in (("sigma", step.sigma, w.n), ("tau", step.tau, w.m))
            if indices and not 1 <= min(indices) <= max(indices) <= bound]


def _terminal_faults(family: FamilyModel) -> list[str]:
    """validate_family's messages for a concrete family's terminal data, in
    its order: a field that is missing or has not one entry per section is
    the only fault; otherwise every entry off the first entry's parity."""
    for field, size in zip(_TERMINAL, (family.weights.n, family.weights.m)):
        entries = getattr(family, field)
        if entries is None:
            return [f"{field}: concrete family needs terminal self-intersections"]
        if len(entries) != size:
            return [f"{field}: expected {size} entries, got {len(entries)}"]
    e = family.final_e_sigma + family.final_e_tau
    if len({v % 2 for v in e}) < 2:
        return []
    return [f"{field}[{offset}]: parity differs from the other self-intersections"
            for field in _TERMINAL for offset, v in enumerate(getattr(family, field))
            if v % 2 != e[0] % 2]


def _raise_first(faults: list[str]) -> None:
    """Raise the first of _step_faults or _terminal_faults, if any."""
    if faults:
        raise InvalidValue(faults[0])


def _check_level(family: FamilyModel, level: int) -> None:
    if not 0 <= exact_int(level, "level") <= family.n_steps:
        raise InvalidValue(f"level must lie in 0..{family.n_steps}, got {level}")


def _terminal(family: FamilyModel):
    """The walk's state at level N, the terminal surface: the level matrix
    (None on abstract families) and the four potentials, all 0 there. Raises
    the first of _terminal_faults before building the matrix."""
    matrix = None
    if family.mode == CONCRETE:
        _raise_first(_terminal_faults(family))
        e = family.final_e_sigma + family.final_e_tau
        matrix = [[(ex + ey) // 2 for ey in e] for ex in e]
    return matrix, (Fraction(0),) * 4


def _cross(family: FamilyModel, matrix: list[list[int]] | None, values,
           start: int, stop: int):
    """Move the walk's state from level `start` to level `stop`, updating the
    matrix in place, and return the new values (None moves the matrix alone,
    for level_matrix). Going down contracts each step crossed: -1 on every
    matrix entry inside its section set, plus its _step_drops. Going up
    restores it: +1, minus the drops. Going down raises a step's first
    _step_faults before crossing it, so a read above a bad step never
    crosses it; a step crossed upward was crossed downward first.
    """
    w = family.weights
    down = stop < start
    if down:
        mode = family.mode
    unit, combine = (-1, add) if down else (1, sub)
    for level in range(start - 1, stop - 1, -1) if down else range(start, stop):
        step = family.steps[level]
        if down:
            _raise_first(_step_faults(level, step, mode, w))
        if matrix is not None:
            members = {s - 1 for s in step.sigma} | {w.n + t - 1 for t in step.tau}
            for x in members:
                row = matrix[x]
                for y in members:
                    row[y] += unit
        if values is not None:
            values = tuple(map(combine, values, _step_drops(w.n, w.m, step.r1, step.r2)))
    return values


def _block_sums(matrix: list[list[int]], n: int) -> tuple[int, int, int, int, int]:
    """(trace, entry sum) of the light block, (trace, entry sum) of the heavy
    block and the entry sum of the light-heavy block of a level matrix whose
    first n sections are light: the one reader of its blocks, for _checked
    and intersection_numbers."""
    light, heavy = matrix[:n], matrix[n:]
    return (sum(row[x] for x, row in enumerate(light)), sum(sum(row[:n]) for row in light),
            sum(row[n + t] for t, row in enumerate(heavy)), sum(sum(row[n:]) for row in heavy),
            sum(sum(row[n:]) for row in light))


def _checked(family: FamilyModel, level: int, matrix: list[list[int]] | None,
             values: tuple[Fraction, Fraction, Fraction, Fraction]):
    """values, after checking on concrete families that the level matrix gives
    them as weighted sums of squared section differences, read off its block
    sums (_block_sums): over the pairs of a block, the sum of
    M_xx + M_yy - 2 M_xy is size * trace - entry sum, and over the light-heavy
    pairs m * light trace + n * heavy trace - 2 * mixed entry sum."""
    if matrix is None:
        return values
    n, m = family.weights.n, family.weights.m
    trace_l, sum_l, trace_h, sum_h, mixed = _block_sums(matrix, n)
    found = tuple(-Fraction(total, scale) if scale > 0 else Fraction(0) for total, scale in (
        (n * trace_l - sum_l, n - 1), (m * trace_h - sum_h, m - 1),
        (m * trace_l + n * trace_h - 2 * mixed, n * m)))
    if found != values[1:]:
        raise ConcreteAbstractMismatch(
            f"level {level}: matrix potentials {found} "
            f"differ from telescoped {values[1:]}")
    return values


def level_matrix(family: FamilyModel, level: int) -> list[list[int]]:
    """Symmetric intersection matrix of the section images on the level surface.

    Combined indexing: sigma sections first (0..n-1), tau sections after
    (n..n+m-1). Entry (x, y) is the pairwise product, diagonal entries the
    self-intersections. The downward sweep stops at the level, computing no
    potentials: from the terminal surface, each step crossed subtracts 1 from
    every entry whose two indices both meet the contracted curve (diagonal
    included). Malformed terminal data, or a malformed step between the
    terminal surface and the level, raises its first structural violation
    in validate_family's words (InvalidValue); steps below the level are not
    read.
    """
    if family.mode != CONCRETE:
        raise ConcreteOnly("level matrices need terminal-surface data")
    _check_level(family, level)
    matrix, _ = _terminal(family)
    _cross(family, matrix, None, family.n_steps, level)
    return matrix


def intersection_numbers(family: FamilyModel) -> IntersectionReport:
    """Exact pairings of the family with the tautological and boundary classes,
    read off the level-0 matrix's block sums (_block_sums): psi_sigma and
    psi_tau are the negated light and heavy traces, delta_s the sum over
    light pairs, (light entry sum - light trace)/2."""
    w = family.weights
    trace_l, sum_l, trace_h, _, _ = _block_sums(level_matrix(family, 0), w.n)
    psi_sigma, psi_tau = Fraction(-trace_l), Fraction(-trace_h)
    delta_s = Fraction((sum_l - trace_l) // 2)
    counts: dict[BoundaryKey, int] = {}
    for step in family.steps:
        key = canonical_boundary_key(w, step.r1, step.r2)
        counts[key] = counts.get(key, 0) + 1
    return IntersectionReport(psi_sigma, psi_tau, delta_s,
                              Fraction(family.n_steps), counts)


@dataclass(frozen=True)
class CoefficientVector:
    """Weights of the four potentials in the combination
    a_sigma*F_sigma + a_tau*F_tau + a_sigma_tau*F_sigma_tau - a_delta*F_delta."""

    a_sigma: Fraction
    a_tau: Fraction
    a_sigma_tau: Fraction
    a_delta: Fraction

    def __post_init__(self) -> None:
        for field in ("a_sigma", "a_tau", "a_sigma_tau", "a_delta"):
            object.__setattr__(self, field, exact(getattr(self, field)))

    @classmethod
    def from_ab(cls, n: int, m: int, a, b) -> "CoefficientVector":
        """The (a, b) parameterization, with the four weights _ab_weights
        gives: a_sigma = a, a_tau = (m-b)/m (zero when m <= 1),
        a_sigma_tau = b, a_delta = 1."""
        return cls(*(Fraction(p, q) for p, q in _ab_weights(m, exact(a), exact(b))))

    def combine(self, potentials: tuple[Fraction, Fraction, Fraction, Fraction]) -> Fraction:
        """The combination at potential values (F_delta, F_sigma, F_tau,
        F_sigma_tau), as f_values returns them."""
        f_delta, f_sigma, f_tau, f_mixed = potentials
        return (self.a_sigma * f_sigma + self.a_tau * f_tau
                + self.a_sigma_tau * f_mixed - self.a_delta * f_delta)


def _ab_weights(m: int, a: Fraction, b: Fraction) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of a_sigma, a_tau, a_sigma_tau and a_delta in
    the (a, b) combination on m heavy sections: a, (m - b)/m (0 when m <= 1),
    b and 1, in integers. The one home of these weights, for
    CoefficientVector.from_ab and the legs that positivity scans; b must be 0
    when m = 0."""
    p, q = b.numerator, b.denominator
    if m == 0 and p:
        raise InvalidCoefficients("b must be 0 when there are no weight-one sections")
    return (a.numerator, a.denominator), (m * q - p, m * q) if m > 1 else (0, 1), (p, q), (1, 1)


def _step_drops(n: int, m: int, r1: int, r2: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(delta, sigma, tau, sigma-tau) potential drops of a step meeting r1
    light and r2 heavy of n light and m heavy sections.

    Pair sums with fewer than two members vanish: the sigma drop is 0 when
    n <= 1, the tau drop when m <= 1, the mixed drop when nm = 0.
    """
    d_delta = Fraction(1)
    d_sigma = Fraction(r1 * (n - r1), n - 1) if n >= 2 else Fraction(0)
    d_tau = Fraction(r2 * (m - r2), m - 1) if m >= 2 else Fraction(0)
    if n >= 1 and m >= 1:
        d_mixed = Fraction(r1 * (m - r2) + r2 * (n - r1), n * m)
    else:
        d_mixed = Fraction(0)
    return d_delta, d_sigma, d_tau, d_mixed


# At most one (family, level, matrix, values): where the last f_values call
# left its sweep. Keyed by identity, which cannot go stale on a frozen
# FamilyModel, through a weak reference, so the sweep keeps no family alive
# (a dead one is a miss). A call pops it before moving its matrix, so no two
# calls move one matrix, and a move that fails leaves nothing behind.
_last_sweep: list[tuple] = []


def f_values(family: FamilyModel, level: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(F_delta, F_sigma, F_tau, F_sigma_tau) at the given level.

    The potentials telescope the per-step drops from the terminal surface,
    where all four vanish. The sweep state of the last call is kept: a call
    on the same family object moves it up or down the chain to the level, so
    reading every level in turn, in any order, costs one pass. On concrete
    families this level's matrix (only) recomputes the potentials as weighted
    sums of squared section differences, and the two must agree exactly.
    """
    _check_level(family, level)
    try:
        last, at, matrix, values = _last_sweep.pop()
    except IndexError:
        last = None
    if last is None or last() is not family:
        matrix, values = _terminal(family)
        at = family.n_steps
    values = _cross(family, matrix, values, at, level)
    _last_sweep[:] = [(ref(family), level, matrix, values)]
    return _checked(family, level, matrix, values)


def _f_series(family: FamilyModel) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """f_values at levels 0..N, read from level N down to 0 so that the resumed
    sweep makes one pass, each level checked: the one reader of the potential
    series, for positivity.g_series and `nefcert family fvalues`."""
    return [f_values(family, level) for level in reversed(range(family.n_steps + 1))][::-1]


def evaluate_class(cls: DivisorClass, family: FamilyModel) -> Fraction:
    """Pair a divisor class with a concrete family.

    The psi_tau entries must agree: the family data only tracks the
    aggregate weight-one pairing, never a single section's.
    """
    if cls.ambient != family.weights:
        raise AmbientMismatch(
            f"class on ({cls.ambient.label()}) against family on "
            f"({family.weights.label()})")
    report = intersection_numbers(family)
    value = (cls.psi_sigma * report.psi_sigma_B
             + cls.delta_s * report.delta_s_B
             + cls.delta * report.delta_B)
    tau = cls.tau_coefficient()
    if tau is not None:
        value += tau * report.psi_tau_B
    for key, coefficient in cls.boundary.items():
        value += coefficient * report.boundary_counts.get(key, 0)
    return value


def combination_value(family: FamilyModel, a, b) -> Fraction:
    """The (a, b) combination (CoefficientVector.from_ab) at level 0:
    a*F_sigma(0) + b*F_sigma_tau(0) + ((m-b)/m)*F_tau(0) - F_delta(0), where
    the F_tau term is dropped for m <= 1 (F_tau vanishes there).

    With m = 0 the b-terms have no meaning and b must be 0. On concrete
    families this equals (a + b/n) psi_sigma.B + (2a/(n-1)) delta_s.B
    + psi_tau.B - delta.B.
    """
    coeffs = CoefficientVector.from_ab(family.weights.n, family.weights.m, a, b)
    return coeffs.combine(f_values(family, 0))


def stratified_evaluate(cls: DivisorClass,
                        parts: Sequence[tuple[WeightVector, FamilyModel]]) -> Fraction:
    """Evaluate a factor-restricting class on a family with reducible fibers.

    Only the shape a*psi_sigma + b*delta_s + c*(psi_tau - delta) restricts to
    the divisor of the same name on every boundary factor; attaching nodes
    trade a delta contribution on the total family for a psi_tau contribution
    on the factor, which is why the two coefficients must be opposite.
    """
    if cls.boundary:
        raise ShapeNotFunctorial("nodal boundary coefficients do not restrict to factors")
    c_val = -cls.delta
    if any(v != c_val for v in cls.psi_tau):
        raise ShapeNotFunctorial(
            "psi_tau coefficients must all equal the negated delta coefficient")
    total = Fraction(0)
    for weights, family in parts:
        if family.weights != weights:
            raise AmbientMismatch(
                f"part family on ({family.weights.label()}) listed under "
                f"({weights.label()})")
        restricted = DivisorClass(weights, cls.psi_sigma, (c_val,) * weights.m,
                                  cls.delta_s, -c_val, {})
        total += evaluate_class(restricted, family)
    return total


# --- family file format -------------------------------------------------------

def family_to_json(family: FamilyModel) -> str:
    """Serialize to the JSON family file format (bit-exact integers). Raises
    the family's first structural violation (_step_faults, then
    _terminal_faults, in validate_family's words) before writing, so what
    is written reads back as the same family."""
    w, mode = family.weights, family.mode
    steps: list[dict] = []
    for idx, step in enumerate(family.steps):
        _raise_first(_step_faults(idx, step, mode, w))
        steps.append({"sigma": sorted(step.sigma), "tau": sorted(step.tau)} if mode == CONCRETE
                     else {"r1": step.r1, "r2": step.r2})
    payload: dict = {"n": w.n, "m": w.m, "k": w.k, "mode": mode, "steps": steps}
    if mode == CONCRETE:
        _raise_first(_terminal_faults(family))
        payload.update(zip(_TERMINAL, (list(family.final_e_sigma), list(family.final_e_tau))))
    return json.dumps(payload, indent=2) + "\n"


def _index_set(indices, path: str) -> frozenset[int]:
    """indices as a set of integers (exact_ints), else InvalidValue naming
    path; an index listed twice raises too, so no count is merged away."""
    indices = exact_ints(indices, path)
    found = frozenset(indices)
    if len(found) < len(indices):
        twice = next(x for pos, x in enumerate(indices) if x in indices[:pos])
        raise InvalidValue(f"{path}: index {twice} listed twice")
    return found


def _want_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise FamilyFormatError(f"{path}: expected a list of integers")
    return value


def _under(path: str, build, *args):
    """build(*args), its InvalidValue raised as a FamilyFormatError whose
    message is prefixed with path, the field the value came from."""
    try:
        return build(*args)
    except InvalidValue as err:
        raise FamilyFormatError(path + str(err)) from None


def family_from_json(text: str) -> FamilyModel:
    """Parse the JSON family file format; errors carry field paths.

    The reader checks the file's shape: an object with the required fields
    and no others, a known mode, a list of step objects with the mode's
    keys, lists where lists belong, and the terminal fields the mode asks
    for. Values are checked once, where every family is built: exact_int
    for n, m and k, BlowdownStep for step indices and counts, FamilyModel
    for the terminal entries. Their InvalidValue is raised here as a
    FamilyFormatError under the field's path (_under). So within a step, or
    the terminal pair, a field that is not a list is reported before its
    sibling's integer or index fault: shape before values.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise FamilyFormatError(f"not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise FamilyFormatError("top level: expected an object")
    for field in ("n", "m", "k", "mode", "steps"):
        if field not in payload:
            raise FamilyFormatError(f"{field}: missing")
    for field in payload:
        if field not in ("n", "m", "k", "mode", "steps", *_TERMINAL):
            raise FamilyFormatError(f"{field}: unknown field")
    weights = make_weights(*(_under("", exact_int, payload[key], key) for key in ("n", "m", "k")))
    mode = payload["mode"]
    if mode not in (CONCRETE, ABSTRACT):
        raise FamilyFormatError(f"mode: expected '{CONCRETE}' or '{ABSTRACT}', got {mode!r}")
    if not isinstance(payload["steps"], list):
        raise FamilyFormatError("steps: expected a list")
    names, build = ((("sigma", "tau"), BlowdownStep.concrete) if mode == CONCRETE
                    else (("r1", "r2"), BlowdownStep.abstract))
    steps: list[BlowdownStep] = []
    for idx, entry in enumerate(payload["steps"]):
        path = f"steps[{idx}]"
        if not isinstance(entry, dict):
            raise FamilyFormatError(f"{path}: expected an object")
        if set(entry) != set(names):
            raise FamilyFormatError(f"{path}: expected keys {', '.join(names)}")
        values = [_want_list(entry[name], f"{path}.{name}") if mode == CONCRETE else entry[name]
                  for name in names]
        steps.append(_under(f"{path}.", build, *values))
    for field in _TERMINAL:
        if mode == ABSTRACT and field in payload:
            raise FamilyFormatError(f"{field}: not allowed on abstract families")
        if mode == CONCRETE and field not in payload:
            raise FamilyFormatError(f"{field}: missing (required for concrete families)")
    terminal = [_want_list(payload[field], field) for field in _TERMINAL if mode == CONCRETE]
    return _under("", FamilyModel, weights, steps, *terminal)

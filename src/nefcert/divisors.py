"""Weight vectors and divisor classes on moduli of weighted pointed rational
curves, in the tautological basis psi_sigma, psi_tau, delta_s, delta plus
nodal boundary classes.

The weight data is always of the shape "n sections of weight 1/k and m
sections of weight 1". All coefficients are exact rationals; a class is a
plain coefficient record and equality is componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import (
    AlphaOutOfRange,
    AmbientMismatch,
    InvalidBoundaryKey,
    InvalidValue,
    InvalidWeights,
    RecordFormatError,
    UnequalTauCoefficients,
)
from .rational import exact, format_rational, is_int, parse_rational


@dataclass(frozen=True, order=True, slots=True)
class WeightVector:
    """n sections of weight 1/k plus m sections of weight 1.

    A non-empty moduli problem requires m + n/k > 2 as exact rationals.
    With k = 1 the space is the classical one with n + m points and no
    collisions are admissible.
    """

    n: int
    m: int
    k: int

    def __post_init__(self) -> None:  # plain ints skip the is_int calls, as BoundaryKey's
        if (self.n.__class__, self.m.__class__, self.k.__class__) != (int, int, int):
            for name, value in (("n", self.n), ("m", self.m), ("k", self.k)):
                if not is_int(value):
                    raise InvalidWeights(f"{name} must be an integer, got {value!r}")
        if self.k < 1 or self.n < 0 or self.m < 0:
            raise InvalidWeights(
                f"need n >= 0, m >= 0, k >= 1, got (n={self.n}, m={self.m}, k={self.k})")
        if not nonempty_moduli(self.n, self.m, self.k):
            raise InvalidWeights(
                f"empty moduli problem: m + n/k = {self.m + Fraction(self.n, self.k)} is not > 2")

    def label(self) -> str:
        return f"{self.n},{self.m},{self.k}"


def nonempty_moduli(n: int, m: int, k: int) -> bool:
    """m + n/k > 2, multiplied through by k."""
    return n + m * k > 2 * k


def least_nonempty_m(n: int, k: int) -> int:
    """The least integer m with nonempty_moduli(n, m, k): m*k > 2k - n."""
    return (2 * k - n) // k + 1


def heavy_counts(n: int, m: int, k: int, i: int) -> range:
    """The j for which i light and j heavy sections split (n, m, k) into two
    sides of weight > 1; i must lie in 0..n.

    Multiplied through by k, i/k + j > 1 and (n-i)/k + (m-j) > 1 read
    i + j*k > k and (n-i) + (m-j)*k > k, that is j > (k-i)/k and
    m - j > (k-n+i)/k: an integer interval of j.
    """
    lo, hi = (k - i) // k + 1, m - 1 - (k - n + i) // k
    return range(lo if lo > 0 else 0, (hi if hi < m else m) + 1)  # no max/min calls: a hot path


def make_weights(n: int, m: int, k: int) -> WeightVector:
    """Validated weight-vector constructor."""
    return WeightVector(n, m, k)


@dataclass(frozen=True, order=True)
class BoundaryKey:
    """Nodal boundary divisor label: i light and j heavy sections on one side.

    i and j are integers (is_int), checked as WeightVector checks its fields.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i.__class__ is int and self.j.__class__ is int:  # plain ints skip the calls
            return
        for name, value in (("i", self.i), ("j", self.j)):
            if not is_int(value):
                raise InvalidBoundaryKey(f"{name} must be an integer, got {value!r}")

    def complement(self, ambient: WeightVector) -> "BoundaryKey":
        return BoundaryKey(ambient.n - self.i, ambient.m - self.j)

    def is_canonical(self, ambient: WeightVector) -> bool:
        return (self.i, self.j) <= (ambient.n - self.i, ambient.m - self.j)

    def is_admissible(self, ambient: WeightVector) -> bool:
        """Both sides of the node must carry total weight > 1."""
        return (0 <= self.i <= ambient.n
                and self.j in heavy_counts(ambient.n, ambient.m, ambient.k, self.i))

    def label(self) -> str:
        return f"{self.i},{self.j}"


def _canonical_key(ambient: WeightVector, key: BoundaryKey) -> BoundaryKey:
    """key's canonical spelling on ambient, after the admissibility check."""
    if not key.is_admissible(ambient):
        raise InvalidBoundaryKey(
            f"({key.label()}) is not a boundary divisor on ({ambient.label()}): "
            "both sides must carry weight > 1")
    return key if key.is_canonical(ambient) else key.complement(ambient)


def canonical_boundary_key(ambient: WeightVector, i: int, j: int) -> BoundaryKey:
    """The key of the boundary divisor (i, j), or of its complement, on ambient:
    the spelling with (i, j) <= (n-i, m-j) lexicographically; admissibility-checked."""
    return _canonical_key(ambient, BoundaryKey(i, j))


def _as_key(key) -> BoundaryKey:
    """key itself when it is a BoundaryKey, else the BoundaryKey of an (i, j)
    pair: the one reader of both key spellings, for canonical_boundary and
    positivity._cell_labels. Any other key, a string, None or a tuple of
    another length, raises InvalidBoundaryKey naming it."""
    if isinstance(key, BoundaryKey):
        return key
    if not (isinstance(key, tuple) and len(key) == 2):
        raise InvalidBoundaryKey(f"expected a BoundaryKey or an (i, j) pair, got {key!r}")
    return BoundaryKey(*key)


def canonical_boundary(ambient: WeightVector,
                       boundary: Mapping | None) -> dict[BoundaryKey, Fraction]:
    """boundary, keyed by BoundaryKeys or (i, j) pairs, with exact values under
    the canonical keys of ambient: the one reader of root boundary keys, for
    DivisorClass and positivity.canonical_eps. A key and its complement name
    one divisor, so they may not both be given; an inadmissible key raises."""
    cleaned: dict[BoundaryKey, Fraction] = {}
    for key, value in dict(boundary or {}).items():
        key = _as_key(key)
        canonical = _canonical_key(ambient, key)
        if canonical in cleaned:
            raise InvalidBoundaryKey(
                f"({key.label()}) and another key name the same boundary divisor "
                f"({canonical.label()}) on ({ambient.label()})")
        cleaned[canonical] = exact(value)
    return cleaned


@dataclass(frozen=True)
class DivisorClass:
    """Coefficient record over the tautological plus nodal-boundary basis.

    psi_tau is stored per weight-one section (length m) so that the section
    replacement map, which singles out the last entry, stays expressible.
    Boundary keys may spell a divisor either way (canonical_boundary): they are
    stored canonically, and a key given with its complement raises
    InvalidBoundaryKey. Exact zeros are dropped so componentwise equality is
    meaningful.
    """

    ambient: WeightVector
    psi_sigma: Fraction
    psi_tau: tuple[Fraction, ...]
    delta_s: Fraction
    delta: Fraction
    boundary: Mapping[BoundaryKey, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi_sigma", exact(self.psi_sigma))
        object.__setattr__(self, "delta_s", exact(self.delta_s))
        object.__setattr__(self, "delta", exact(self.delta))
        object.__setattr__(self, "psi_tau", tuple(exact(v) for v in self.psi_tau))
        if len(self.psi_tau) != self.ambient.m:
            raise InvalidValue(
                f"psi_tau needs one entry per weight-one section "
                f"({self.ambient.m}), got {len(self.psi_tau)}")
        object.__setattr__(self, "boundary", {
            key: value for key, value in canonical_boundary(self.ambient, self.boundary).items()
            if value != 0})

    def tau_coefficient(self) -> Fraction | None:
        """The common psi_tau value, or None when m = 0.

        Raises UnequalTauCoefficients when the entries disagree.
        """
        if not self.psi_tau:
            return None
        first = self.psi_tau[0]
        if any(v != first for v in self.psi_tau):
            raise UnequalTauCoefficients(
                f"psi_tau entries differ: {[str(v) for v in self.psi_tau]}")
        return first

    def is_zero(self) -> bool:
        return (self.psi_sigma == 0 and self.delta_s == 0 and self.delta == 0
                and all(v == 0 for v in self.psi_tau) and not self.boundary)


def zero_class(ambient: WeightVector) -> DivisorClass:
    return DivisorClass(ambient, Fraction(0), (Fraction(0),) * ambient.m,
                        Fraction(0), Fraction(0), {})


def dk_class(ambient: WeightVector, c) -> DivisorClass:
    """The ray c*psi_sigma + (2c-1)*delta_s + psi_tau - delta.

    The collision coefficient is stored for every ambient; at k = 1 the
    collision class itself vanishes on honest families (disjoint sections),
    which is where the usual display c*psi - delta comes from.
    """
    c = exact(c)
    return DivisorClass(ambient, c, (Fraction(1),) * ambient.m,
                        2 * c - 1, Fraction(-1), {})


@dataclass(frozen=True)
class LogCanonicalForm:
    """psi + (alpha - 2) delta on the unweighted space, plus its normalization.

    The normalized form is the 1/(2 - alpha) multiple c*psi - delta, the
    representative with delta-coefficient exactly -1.
    """

    raw: DivisorClass
    c: Fraction
    normalized: DivisorClass


def alpha_to_c(alpha) -> Fraction:
    """c = 1/(2 - alpha). Raises ZeroDivisionError at alpha = 2."""
    return 1 / (2 - exact(alpha))


def c_to_alpha(c) -> Fraction:
    """alpha = 2 - 1/c. Raises ZeroDivisionError at c = 0."""
    return 2 - 1 / exact(c)


def log_canonical_class(n: int, alpha) -> LogCanonicalForm:
    """psi + (alpha - 2) delta on the unweighted space with n points, alpha in [0, 1]."""
    alpha = exact(alpha)
    if not 0 <= alpha <= 1:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    ambient = make_weights(n, 0, 1)
    raw = DivisorClass(ambient, Fraction(1), (), Fraction(0), alpha - 2, {})
    c = alpha_to_c(alpha)
    normalized = DivisorClass(ambient, c, (), Fraction(0), Fraction(-1), {})
    return LogCanonicalForm(raw, c, normalized)


def class_combine(terms: Sequence[tuple[object, DivisorClass]]) -> DivisorClass:
    """Exact linear combination sum(scalar * class) over a shared ambient."""
    if not terms:
        raise InvalidValue("class_combine needs at least one term")
    ambient = terms[0][1].ambient
    psi_sigma = Fraction(0)
    psi_tau = [Fraction(0)] * ambient.m
    delta_s = Fraction(0)
    delta = Fraction(0)
    boundary: dict[BoundaryKey, Fraction] = {}
    for scalar, cls in terms:
        if cls.ambient != ambient:
            raise AmbientMismatch(
                f"cannot combine classes on ({cls.ambient.label()}) "
                f"and ({ambient.label()})")
        scalar = exact(scalar)
        psi_sigma += scalar * cls.psi_sigma
        delta_s += scalar * cls.delta_s
        delta += scalar * cls.delta
        for idx, value in enumerate(cls.psi_tau):
            psi_tau[idx] += scalar * value
        for key, value in cls.boundary.items():
            boundary[key] = boundary.get(key, Fraction(0)) + scalar * value
    return DivisorClass(ambient, psi_sigma, tuple(psi_tau), delta_s, delta, boundary)


# --- flat key-value record serialization ------------------------------------

def class_to_record(cls: DivisorClass) -> str:
    """Flat key-value text record; rationals as reduced "p/q"."""
    lines = [f"psi_sigma\t{format_rational(cls.psi_sigma)}"]
    for idx, value in enumerate(cls.psi_tau, start=1):
        lines.append(f"psi_tau[{idx}]\t{format_rational(value)}")
    lines.append(f"delta_s\t{format_rational(cls.delta_s)}")
    lines.append(f"delta\t{format_rational(cls.delta)}")
    for key in sorted(cls.boundary):
        lines.append(f"boundary[{key.label()}]\t{format_rational(cls.boundary[key])}")
    return "\n".join(lines) + "\n"


def _record_entries(text: str) -> Iterator[tuple[str, str]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise RecordFormatError(f"line {lineno}: expected 'key value', got {line!r}")
        yield parts[0], parts[1]


def class_from_record(text: str, ambient: WeightVector) -> DivisorClass:
    """Parse a flat record back into a class on the given ambient space.

    Missing coefficients default to 0; unknown keys are errors, and so are
    two keys naming one coefficient, also when spelled differently
    (psi_tau[1] and psi_tau[01], or a boundary key and its complement).
    Lines starting with '#' are comments.
    """
    # by coefficient: its name, psi_tau index or canonical BoundaryKey
    spellings: dict[object, str] = {}
    values: dict[object, Fraction] = {}
    for key, raw_value in _record_entries(text):
        if key in ("psi_sigma", "delta_s", "delta"):
            coefficient = key
        elif key.startswith("psi_tau[") and key.endswith("]"):
            try:
                coefficient = int(key[len("psi_tau["):-1])
            except ValueError:
                raise RecordFormatError(f"bad psi_tau index in {key!r}") from None
            if not 1 <= coefficient <= ambient.m:
                raise RecordFormatError(
                    f"psi_tau index {coefficient} out of range 1..{ambient.m}")
        elif key.startswith("boundary[") and key.endswith("]"):
            body = key[len("boundary["):-1]
            try:
                i_text, j_text = body.split(",")
                coefficient = canonical_boundary_key(ambient, int(i_text), int(j_text))
            except (ValueError, InvalidBoundaryKey) as err:
                raise RecordFormatError(f"bad boundary key {key!r}: {err}") from None
        else:
            raise RecordFormatError(f"unknown key {key!r}")
        earlier = spellings.get(coefficient)
        if earlier is not None:
            raise RecordFormatError(
                f"repeated key {key!r}" if earlier == key
                else f"{earlier!r} and {key!r} name the same coefficient")
        spellings[coefficient] = key
        try:
            values[coefficient] = parse_rational(raw_value)
        except ValueError as err:
            raise RecordFormatError(f"{key}: {err}") from None
    zero = Fraction(0)
    return DivisorClass(
        ambient, values.get("psi_sigma", zero),
        tuple(values.get(idx, zero) for idx in range(1, ambient.m + 1)),
        values.get("delta_s", zero), values.get("delta", zero),
        {key: value for key, value in values.items() if isinstance(key, BoundaryKey)})

import dataclasses
import gc
import itertools
import json
import random
import time
import tracemalloc
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import nefcert as nc
from nefcert import families, positivity
from nefcert.cli import main
from nefcert.divisors import least_nonempty_m
from nefcert.errors import (
    AmbientMismatch,
    ConcreteAbstractMismatch,
    ConcreteOnly,
    FamilyFormatError,
    InvalidBoundaryKey,
    InvalidCoefficients,
    InvalidValue,
    NefcertError,
    ShapeNotFunctorial,
    UnequalTauCoefficients,
)
import helpers
from helpers import random_concrete_family_on, random_family_batch
from test_cli import STABLE


def diagonal_family():
    return nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), (), (0, 0, 0, 0, 2))


def stable_model():
    steps = tuple(nc.BlowdownStep.concrete({i, 5}) for i in range(1, 5))
    return nc.FamilyModel.concrete(nc.make_weights(5, 0, 1), steps, (0, 0, 0, 0, 2))


def long_chain():
    """A valid concrete chain of at least 100 steps on (8,1,2)."""
    rng = random.Random(100)
    while True:
        fam = random_concrete_family_on(rng, nc.make_weights(8, 1, 2), max_steps=160,
                                        attempts=1)
        if fam is not None and fam.n_steps >= 100:
            return fam


def sweep_cases():
    """Random concrete families, their abstractions, and one long chain."""
    concrete = random_family_batch(8080, 60)
    abstract = [nc.FamilyModel.abstract(f.weights, [(s.r1, s.r2) for s in f.steps])
                for f in concrete]
    return concrete + abstract + [long_chain()]


class TestBlowdownStep:
    def test_concrete_counts_are_the_set_sizes(self):
        step = nc.BlowdownStep.concrete([3, 1, 2], [2])
        assert (step.r1, step.r2) == (3, 1)
        assert step == nc.BlowdownStep(frozenset({1, 2, 3}), frozenset({2}))
        counted = nc.BlowdownStep.abstract(3, 1)
        assert (counted.r1, counted.r2) == (3, 1) and counted != step

    def test_sets_and_counts_do_not_mix(self):
        for fields in ((frozenset({1, 2}), frozenset(), (3, 0)), (frozenset({1, 2}),), ()):
            with pytest.raises(ValueError) as excinfo:
                nc.BlowdownStep(*fields)
            assert isinstance(excinfo.value, NefcertError)
            assert str(excinfo.value) == \
                "a step holds either both section sets or only its counts"


class TestValidate:
    def test_single_step_below_stability(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(5, 0, 2), [(2, 0)])
        violations = nc.validate_family(fam)
        assert len(violations) == 1 and "steps[0]" in violations[0]
        assert "not > 1" in violations[0]

    def test_complement_failure(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(5, 0, 2), [(3, 0)])
        violations = nc.validate_family(fam)
        assert len(violations) == 1 and "complement" in violations[0]

    def test_parity_violation(self):
        fam = nc.FamilyModel.concrete(nc.make_weights(3, 1, 2), (), (0, 0, 1), (0,))
        violations = nc.validate_family(fam)
        assert any("parity" in v for v in violations)

    def test_tau_disjointness_violation(self):
        # a heavy section crossing a light one at level 0
        fam = nc.FamilyModel.concrete(nc.make_weights(3, 1, 2), (), (2, 0, 0), (0,))
        violations = nc.validate_family(fam)
        assert any("tau[1]" in v and "disjoint" in v for v in violations)

    def test_negative_light_crossing(self):
        step = nc.BlowdownStep.concrete({1, 2, 3})
        fam = nc.FamilyModel.concrete(nc.make_weights(7, 0, 2), (step,), (0,) * 7)
        violations = nc.validate_family(fam)
        assert any("negative" in v for v in violations)

    def test_out_of_range_counts(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(5, 0, 2), [(6, 0)])
        assert any("out of range" in v for v in nc.validate_family(fam))

    def test_good_families(self):
        assert nc.validate_family(diagonal_family()) == []
        assert nc.validate_family(stable_model()) == []

    def test_single_step_messages_match_the_fraction_rule(self):
        # both sides of the node weigh more than 1, decided and worded in Fractions
        checked = 0
        for n in range(14):
            for m in range(6):
                for k in range(1, 8):
                    if m + F(n, k) <= 2:
                        continue
                    weights = nc.make_weights(n, m, k)
                    for r1 in range(n + 1):
                        for r2 in range(m + 1):
                            expected = []
                            contracted = F(r1, k) + r2
                            if contracted <= 1:
                                expected.append(
                                    "steps[0]: contracted component weight r1/k + r2 = "
                                    f"{contracted} is not > 1")
                            rest = F(n - r1, k) + (m - r2)
                            if rest <= 1:
                                expected.append(
                                    "steps[0]: complement weight (n-r1)/k + (m-r2) = "
                                    f"{rest} is not > 1")
                            family = nc.FamilyModel.abstract(weights, [(r1, r2)])
                            assert nc.validate_family(family) == expected, (n, m, k, r1, r2)
                            checked += len(expected)
        assert checked > 1000


def validation_cases():
    """(family, its violations) for each message validate_family words."""
    w7, w31 = nc.make_weights(7, 0, 2), nc.make_weights(3, 1, 2)
    counted = nc.FamilyModel.abstract(w7, [(3, 0)])
    terminal = nc.FamilyModel.concrete(w7, (), (0,) * 7)
    return [
        (nc.FamilyModel.abstract(nc.make_weights(5, 0, 2), [(3, 1)]),
         ["steps[0].r2: 1 out of range 0..0"]),
        (nc.FamilyModel.concrete(w7, [nc.BlowdownStep.abstract(3, 0)], (0,) * 7),
         ["steps[0]: concrete family needs explicit section sets"]),
        (nc.FamilyModel.concrete(w7, [nc.BlowdownStep.concrete({0, 1, 2})], (0,) * 7),
         ["steps[0].sigma: indices outside 1..7"]),
        (dataclasses.replace(counted, steps=(nc.BlowdownStep.concrete({1, 2, 3}),)),
         ["steps[0]: abstract family carries section sets"]),
        (dataclasses.replace(terminal, final_e_tau=None),
         ["final_e_tau: concrete family needs terminal self-intersections"]),
        (nc.FamilyModel.concrete(w7, (), (0,) * 6), ["final_e_sigma: expected 7 entries, got 6"]),
        (nc.FamilyModel.concrete(w31, (), (0,) * 3, ()), ["final_e_tau: expected 1 entries, got 0"]),
    ]


class TestValidationMessages:
    @pytest.mark.parametrize("family, violations", validation_cases(),
                             ids=["r2-range", "concrete-counts", "sigma-range",
                                  "abstract-sets", "terminal-missing", "sigma-length",
                                  "tau-length"])
    def test_each_message(self, family, violations):
        assert nc.validate_family(family) == violations

    @pytest.mark.parametrize("family, level, message", [
        (diagonal_family(), 1, "level must lie in 0..0, got 1"),
        (stable_model(), -1, "level must lie in 0..4, got -1"),
    ], ids=["above", "below"])
    def test_levels_outside_the_chain(self, family, level, message):
        for function in (nc.level_matrix, nc.f_values):
            with pytest.raises(ValueError) as excinfo:
                function(family, level)
            assert isinstance(excinfo.value, NefcertError)
            assert str(excinfo.value) == message

    def test_stratified_parts_must_match_their_weights(self):
        family = diagonal_family()
        cls = nc.dk_class(family.weights, F(3, 4))
        with pytest.raises(AmbientMismatch) as excinfo:
            nc.stratified_evaluate(cls, [(nc.make_weights(5, 0, 1), family)])
        assert str(excinfo.value) == "part family on (5,0,2) listed under (5,0,1)"


def structural_cases():
    """validation_cases() past its first (a count range, which no reader
    needs), a parity fault, each a family breaking one structural rule, and a
    step whose indices and count are both out of range: the index fault, the
    one the readers raise, comes first."""
    parity = nc.FamilyModel.concrete(nc.make_weights(3, 1, 2), (), (0, 0, 1), (0,))
    wide_step = nc.FamilyModel.concrete(nc.make_weights(5, 0, 2),
                                        [nc.BlowdownStep.concrete(range(-1, 7))], (0,) * 5)
    return validation_cases()[1:] + [
        (parity, ["final_e_sigma[2]: parity differs from the other self-intersections"]),
        (wide_step, ["steps[0].sigma: indices outside 1..5", "steps[0].r1: 8 out of range 0..5"])]


@st.composite
def malformed_families(draw):
    """Concrete families on small weights whose steps and terminal data may
    break any structural rule: count-only steps, indices in -1..n+1 and
    -1..m+1, terminal fields missing or one entry short or long."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    m = draw(st.integers(max(0, least_nonempty_m(n, k)), 3))
    w = nc.make_weights(n, m, k)
    steps = draw(st.lists(st.one_of(
        st.builds(nc.BlowdownStep.concrete, st.sets(st.integers(-1, n + 1)),
                  st.sets(st.integers(-1, m + 1))),
        st.builds(nc.BlowdownStep.abstract, st.integers(0, n), st.integers(0, m))),
        max_size=5))
    terminal = [draw(st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=max(0, size - 1),
                                                   max_size=size + 1)))
                for size in (n, m)]
    if terminal == [None, None]:
        terminal[0] = []  # with both None the family would be abstract
    return nc.FamilyModel(w, steps, *terminal)


READERS = [("level_matrix", lambda f: nc.level_matrix(f, 0)),
           ("f_values", lambda f: nc.f_values(f, 0)),
           ("intersection_numbers", nc.intersection_numbers),
           ("family_to_json", nc.family_to_json)]


class TestOneSetOfStructureRules:
    """The walk and family_to_json raise what validate_family reports."""

    @pytest.mark.parametrize("family, violations", structural_cases(),
                             ids=["concrete-counts", "sigma-range", "abstract-sets",
                                  "terminal-missing", "sigma-length", "tau-length", "parity",
                                  "sigma-and-r1-range"])
    def test_each_reader_raises_the_first_violation(self, family, violations):
        assert nc.validate_family(family) == violations
        for name, reader in READERS:
            if family.mode == "abstract" and name in ("level_matrix", "intersection_numbers"):
                with pytest.raises(ConcreteOnly):  # asks for a matrix first
                    reader(family)
                continue
            with pytest.raises(InvalidValue) as excinfo:
                reader(family)
            assert str(excinfo.value) == violations[0], name

    @given(family=malformed_families())
    def test_malformed_families_raise_only_package_errors(self, family):
        assert isinstance(nc.validate_family(family), list)
        for _, reader in READERS:
            try:
                reader(family)
            except NefcertError:
                pass


class TestExactInputs:
    """Integers are never truncated or merged, boundary keys hold integers,
    and potential weights are exact."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: nc.BlowdownStep.concrete([1.9, 5]), InvalidValue,
         "sigma[0]: expected an integer, got 1.9"),
        (lambda: nc.BlowdownStep.concrete([1, 1, 5]), InvalidValue, "sigma: index 1 listed twice"),
        (lambda: nc.BlowdownStep.concrete([1], [True]), InvalidValue,
         "tau[0]: expected an integer, got True"),
        (lambda: nc.BlowdownStep(frozenset({2.0}), frozenset()), InvalidValue,
         "sigma[0]: expected an integer, got 2.0"),
        (lambda: nc.BlowdownStep.concrete(5), InvalidValue,
         "sigma: expected a list of integers, got 5"),
        (lambda: nc.BlowdownStep.abstract("2", 0), InvalidValue,
         "r1: expected an integer, got '2'"),
        (lambda: nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), (), (0, 0, 2.7, 0, 0)),
         InvalidValue, "final_e_sigma[2]: expected an integer, got 2.7"),
        (lambda: nc.FamilyModel(nc.make_weights(3, 1, 2), (), (0, 0, 0), ("0",)), InvalidValue,
         "final_e_tau[0]: expected an integer, got '0'"),
        (lambda: nc.FamilyModel(nc.make_weights(5, 0, 2), [(3, 0)]), InvalidValue,
         "steps: expected BlowdownSteps"),
        (lambda: nc.FamilyModel((5, 0, 2), ()), InvalidValue,
         "weights: expected a WeightVector, got (5, 0, 2)"),
        (lambda: nc.f_values(diagonal_family(), 0.0), InvalidValue,
         "level: expected an integer, got 0.0"),
        (lambda: nc.level_matrix(diagonal_family(), False), InvalidValue,
         "level: expected an integer, got False"),
        (lambda: nc.canonical_boundary_key(nc.make_weights(7, 0, 2), "3", 0), InvalidBoundaryKey,
         "i must be an integer, got '3'"),
        (lambda: nc.perturbed_certify(7, 0, 2, F(7, 10), {(3.0, 0): F(-1, 24)}),
         InvalidBoundaryKey, "i must be an integer, got 3.0"),
        (lambda: nc.DivisorClass(nc.make_weights(7, 0, 2), 0, (), 0, 0, {(3, 0.0): 1}),
         InvalidBoundaryKey, "j must be an integer, got 0.0"),
        (lambda: nc.CoefficientVector(0.5, 0, 0, 1), TypeError, "exact rational required, got 0.5"),
    ], ids=["float-index", "repeated-index", "bool-index", "direct-step", "not-a-list",
            "str-count", "float-terminal", "direct-family", "step-type", "weights-type",
            "float-level", "bool-level", "str-key", "float-eps-key", "float-class-key",
            "float-weight"])
    def test_each_input_is_rejected_naming_it(self, build, error, message):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_potential_weights_are_fractions(self):
        coeffs = nc.CoefficientVector(1, "1/2", 0, 1)
        fields = (coeffs.a_sigma, coeffs.a_tau, coeffs.a_sigma_tau, coeffs.a_delta)
        assert fields == (1, F(1, 2), 0, 1) and [type(v) for v in fields] == [F] * 4
        series = nc.g_series(stable_model(), nc.CoefficientVector(1, 0, 0, 1))
        assert series[0] == 2 and [type(v) for v in series] == [F] * 5
        low = nc.min_drop(7, 0, 2, nc.CoefficientVector("1/2", 0, 0, 1))
        assert (low.r1, low.r2, low.value) == (3, 0, 0)


class TestLevelMatrix:
    def test_diagonal_family_level_zero(self):
        matrix = nc.level_matrix(diagonal_family(), 0)
        assert [matrix[i][i] for i in range(5)] == [0, 0, 0, 0, 2]
        for i in range(4):
            assert matrix[i][4] == 1
            for j in range(i + 1, 4):
                assert matrix[i][j] == 0

    def test_stable_model_level_zero(self):
        matrix = nc.level_matrix(stable_model(), 0)
        assert [matrix[i][i] for i in range(5)] == [-1, -1, -1, -1, -2]
        for i in range(5):
            for j in range(i + 1, 5):
                assert matrix[i][j] == 0

    def test_terminal_difference_squares_vanish(self):
        fam = stable_model()
        matrix = nc.level_matrix(fam, fam.n_steps)
        for i in range(5):
            for j in range(5):
                assert matrix[i][i] + matrix[j][j] - 2 * matrix[i][j] == 0

    def test_concrete_only(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(5, 0, 1), [(2, 0)])
        with pytest.raises(ConcreteOnly):
            nc.level_matrix(fam, 0)

    def test_mixed_parity_rejected(self):
        fam = nc.FamilyModel.concrete(nc.make_weights(3, 1, 2), (), (0, 0, 1), (0,))
        with pytest.raises(ValueError) as excinfo:
            nc.level_matrix(fam, 0)
        assert isinstance(excinfo.value, NefcertError)
        assert str(excinfo.value) == \
            "final_e_sigma[2]: parity differs from the other self-intersections"

    def test_section_indices_outside_the_range_are_rejected(self):
        # section 0 would wrap to row -1 and lower section 5's self-intersection
        fam = nc.FamilyModel.concrete(nc.make_weights(5, 0, 2),
                                      (nc.BlowdownStep.concrete({0, 1, 2}),), (2,) * 5)
        for reader in (lambda f: nc.level_matrix(f, 0), lambda f: nc.f_values(f, 0),
                       nc.intersection_numbers):
            with pytest.raises(ValueError) as excinfo:
                reader(fam)
            assert isinstance(excinfo.value, NefcertError)
            assert str(excinfo.value) == "steps[0].sigma: indices outside 1..5"
        steps = (nc.BlowdownStep.concrete({1}, {1}), nc.BlowdownStep.concrete({2}, {3}))
        fam = nc.FamilyModel.concrete(nc.make_weights(3, 2, 2), steps, (0,) * 3, (0,) * 2)
        with pytest.raises(ValueError, match=r"^steps\[1\]\.tau: indices outside 1\.\.2$"):
            nc.level_matrix(fam, 0)
        # the level above the bad step never crosses it
        assert nc.level_matrix(fam, 2) == [[0] * 5 for _ in range(5)]
        # validation reports the indices as before, without reaching the sweep
        assert nc.validate_family(fam) == ["steps[1].tau: indices outside 1..2"]


class TestIntersectionNumbers:
    def test_diagonal_family(self):
        report = nc.intersection_numbers(diagonal_family())
        assert (report.psi_sigma_B, report.delta_s_B, report.delta_B) == (-2, 4, 0)
        assert report.boundary_counts == {}

    def test_stable_model(self):
        report = nc.intersection_numbers(stable_model())
        assert (report.psi_sigma_B, report.delta_s_B, report.delta_B) == (6, 0, 4)
        assert report.boundary_counts == {nc.BoundaryKey(2, 0): 4}

    def test_trivial_product_family(self):
        fam = nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), (), (0,) * 5)
        report = nc.intersection_numbers(fam)
        assert (report.psi_sigma_B, report.psi_tau_B, report.delta_s_B,
                report.delta_B) == (0, 0, 0, 0)

    def test_equal_terminal_data(self):
        # all self-intersections e: collisions total n(n-1)e/2
        fam = nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), (), (2,) * 5)
        report = nc.intersection_numbers(fam)
        assert report.psi_sigma_B == -10
        assert report.delta_s_B == F(5 * 4 * 2, 2)
        assert report.delta_B == 0

    def test_step_count_equals_delta(self):
        for fam in random_family_batch(5150, 40):
            report = nc.intersection_numbers(fam)
            assert report.delta_B == fam.n_steps
            assert sum(report.boundary_counts.values()) == fam.n_steps

    def test_every_field_is_a_fraction_without_light_or_heavy_sections(self):
        no_light = nc.FamilyModel.concrete(nc.make_weights(0, 3, 1), (), (), (0, 0, 0))
        for fam in (diagonal_family(), stable_model(), no_light):
            report = nc.intersection_numbers(fam)
            fields = (report.psi_sigma_B, report.psi_tau_B, report.delta_s_B, report.delta_B)
            assert [type(value) for value in fields] == [F] * 4


class TestFValues:
    def test_stable_model_level_zero(self):
        assert nc.f_values(stable_model(), 0) == (4, 6, 0, 0)

    def test_terminal_level_vanishes(self):
        for fam in (diagonal_family(), stable_model()):
            assert nc.f_values(fam, fam.n_steps) == (0, 0, 0, 0)

    def test_single_step_drop(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(4, 0, 1), [(2, 0)])
        hi = nc.f_values(fam, 1)
        lo = nc.f_values(fam, 0)
        assert lo[1] - hi[1] == F(4, 3)  # 2*2/3

    def test_degenerate_conventions(self):
        # one light section: the light potential is an empty pair sum
        fam = nc.FamilyModel.concrete(nc.make_weights(1, 2, 2), (), (0,), (0, 0))
        assert nc.f_values(fam, 0) == (0, 0, 0, 0)
        # no heavy sections: tau and mixed potentials vanish
        assert nc.f_values(diagonal_family(), 0)[2:] == (0, 0)


class TestSweep:
    def test_g_series_combines_f_values_at_every_level(self):
        for fam in sweep_cases():
            w = fam.weights
            coeffs = nc.CoefficientVector.from_ab(w.n, w.m, F(3, 5), F(1, 3) if w.m else 0)
            assert nc.g_series(fam, coeffs) == [
                coeffs.combine(nc.f_values(fam, level)) for level in range(fam.n_steps + 1)]

    def test_level_matrix_matches_a_replay_at_every_level(self):
        for fam in sweep_cases():
            if fam.mode != "concrete":
                continue
            n, size = fam.weights.n, fam.weights.n + fam.weights.m
            e = list(fam.final_e_sigma) + list(fam.final_e_tau)
            sections = [{s - 1 for s in step.sigma} | {n + t - 1 for t in step.tau}
                        for step in fam.steps]
            for level in range(fam.n_steps + 1):
                expected = [[(e[x] if x == y else (e[x] + e[y]) // 2)
                             - sum(1 for meets in sections[level:] if x in meets and y in meets)
                             for y in range(size)] for x in range(size)]
                assert nc.level_matrix(fam, level) == expected

    def test_cross_check_names_the_level_that_fails(self, monkeypatch, tmp_path):
        drops = families._step_drops

        def off_by_one(n, m, r1, r2):
            d_delta, d_sigma, d_tau, d_mixed = drops(n, m, r1, r2)
            return d_delta, d_sigma + 1, d_tau, d_mixed

        monkeypatch.setattr(families, "_step_drops", off_by_one)
        fam = stable_model()
        with pytest.raises(ConcreteAbstractMismatch, match="^level 0: "):
            nc.f_values(fam, 0)
        with pytest.raises(ConcreteAbstractMismatch, match="^level 2: "):
            nc.f_values(fam, 2)
        coeffs = nc.CoefficientVector.from_ab(5, 0, F(3, 4), 0)
        with pytest.raises(ConcreteAbstractMismatch, match="^level 3: "):
            nc.g_series(fam, coeffs)
        path = tmp_path / "stable.json"
        path.write_text(STABLE)
        result = CliRunner().invoke(main, ["family", "fvalues", str(path)])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.startswith("error: level 3: matrix potentials")


def pair_potentials(matrix, n, m):
    """The oracle of _checked: (F_sigma, F_tau, F_sigma_tau) as sums over
    section pairs of M_xx + M_yy - 2 M_xy, negated over the pair count's
    denominator (n - 1, m - 1, nm), 0 where a block has no pair."""
    def potential(pairs, scale):
        total = sum(matrix[x][x] + matrix[y][y] - 2 * matrix[x][y] for x, y in pairs)
        return -F(total, scale) if scale > 0 else F(0)

    light, heavy = range(n), range(n, n + m)
    return (potential(itertools.combinations(light, 2), n - 1),
            potential(itertools.combinations(heavy, 2), m - 1),
            potential(itertools.product(light, heavy), n * m))


def pair_numbers(matrix, n, m):
    """The oracle of intersection_numbers: psi_sigma, psi_tau and delta_s read
    entry by entry off a level-0 matrix."""
    return (-sum(matrix[x][x] for x in range(n)), -sum(matrix[y][y] for y in range(n, n + m)),
            sum(matrix[x][y] for x, y in itertools.combinations(range(n), 2)))


class TestBlockSums:
    """_checked and intersection_numbers read a level matrix through its
    block sums (families._block_sums); the pair sums they replaced are the
    oracle, on every level of random concrete families."""

    SHAPES = ((7, 0, 2), (5, 0, 1), (6, 1, 2), (4, 1, 1), (2, 1, 1), (5, 3, 2), (3, 4, 1),
              (2, 5, 3), (0, 4, 1), (1, 3, 2), (6, 2, 3))

    def cases(self):
        rng = random.Random(4242)
        cases = [fam for n, m, k in self.SHAPES for _ in range(5)
                 if (fam := random_concrete_family_on(rng, nc.make_weights(n, m, k), 9))]
        # m = 0, 1 and >= 2 each with families that have steps
        assert {min(fam.weights.m, 2) for fam in cases if fam.n_steps} == {0, 1, 2}
        return cases

    def test_checked_potentials_are_the_pair_sums(self):
        for fam in self.cases():
            n, m = fam.weights.n, fam.weights.m
            for level in range(fam.n_steps + 1):
                matrix = nc.level_matrix(fam, level)
                oracle = pair_potentials(matrix, n, m)
                values = (F(fam.n_steps - level), *oracle)
                assert families._checked(fam, level, matrix, values) is values
                for which in range(3):
                    off = list(oracle)
                    off[which] += F(1, 7)
                    with pytest.raises(ConcreteAbstractMismatch, match=f"^level {level}: "):
                        families._checked(fam, level, matrix, (values[0], *off))
                assert nc.f_values(fam, level) == values

    def test_intersection_numbers_are_the_pair_sums(self):
        for fam in self.cases():
            w = fam.weights
            for level in range(fam.n_steps + 1):
                # the family of the level surface: the chain below it dropped
                upper = nc.FamilyModel.concrete(w, fam.steps[level:], fam.final_e_sigma,
                                                fam.final_e_tau)
                report = nc.intersection_numbers(upper)
                assert (report.psi_sigma_B, report.psi_tau_B, report.delta_s_B) == \
                    pair_numbers(nc.level_matrix(fam, level), w.n, w.m)
                assert all(isinstance(v, F) for v in (report.psi_sigma_B, report.psi_tau_B,
                                                      report.delta_s_B))


def fresh_series(fam):
    """f_values at every level, each read from a fresh process's state, so
    each level is a sweep of its own from the terminal surface."""
    series = []
    for level in range(fam.n_steps + 1):
        positivity._clear_state()
        series.append(nc.f_values(fam, level))
    return series


class TestResumedSweep:
    """f_values keeps the sweep state of its last call and moves it along the
    chain when the next call reads the same family object."""

    def test_reads_in_any_order_equal_one_series(self):
        rng = random.Random(777)
        cases = sweep_cases()
        series = {id(fam): fresh_series(fam) for fam in cases}
        for fam in cases:
            levels = list(range(fam.n_steps + 1))
            for order in (levels, levels[::-1], rng.sample(levels, len(levels))):
                assert [nc.f_values(fam, level) for level in order] == [
                    series[id(fam)][level] for level in order]
        for first, second in zip(cases, cases[1:]):
            reads = [(fam, level) for fam in (first, second)
                     for level in range(fam.n_steps + 1)]
            rng.shuffle(reads)
            for fam, level in reads:
                assert nc.f_values(fam, level) == series[id(fam)][level]

    def test_reads_after_g_series_equal_its_combined_potentials(self):
        rng = random.Random(778)
        for fam in sweep_cases():
            w = fam.weights
            coeffs = nc.CoefficientVector.from_ab(w.n, w.m, F(3, 5), F(1, 3) if w.m else 0)
            reference = fresh_series(fam)
            g = nc.g_series(fam, coeffs)
            assert g == [coeffs.combine(values) for values in reference]
            levels = list(range(fam.n_steps + 1))
            rng.shuffle(levels)
            # the sweep g_series left behind, at level 0, serves every read
            assert [coeffs.combine(nc.f_values(fam, level)) for level in levels] == [
                g[level] for level in levels]
            assert [nc.f_values(fam, level) for level in levels] == [
                reference[level] for level in levels]

    def test_reading_every_level_crosses_each_step_at_most_twice(self, monkeypatch):
        drops = families._step_drops
        crossed = []

        def counted(*counts):
            crossed.append(counts)
            return drops(*counts)

        monkeypatch.setattr(families, "_step_drops", counted)
        text = (Path(__file__).with_name("families") / "chain.json").read_text()
        for ascending in (True, False):
            fam = nc.family_from_json(text)
            levels = range(fam.n_steps + 1)
            crossed.clear()
            for level in (levels if ascending else reversed(levels)):
                nc.f_values(fam, level)
            assert fam.n_steps == 40 and len(crossed) <= 2 * fam.n_steps

    def test_the_series_of_a_fresh_family_crosses_the_chain_once(self, monkeypatch):
        path = Path(__file__).with_name("families") / "chain.json"
        reference = fresh_series(nc.family_from_json(path.read_text()))
        drops = families._step_drops
        crossed = []

        def counted(*counts):
            crossed.append(counts)
            return drops(*counts)

        monkeypatch.setattr(families, "_step_drops", counted)
        fam = nc.family_from_json(path.read_text())
        coeffs = nc.CoefficientVector.from_ab(fam.weights.n, fam.weights.m, F(3, 5), F(1, 3))
        assert fam.n_steps == 40
        assert nc.g_series(fam, coeffs) == [coeffs.combine(values) for values in reference]
        assert len(crossed) == 40
        crossed.clear()
        assert families._f_series(nc.family_from_json(path.read_text())) == reference
        assert len(crossed) == 40
        crossed.clear()
        assert CliRunner().invoke(main, ["family", "fvalues", str(path)]).exit_code == 0
        assert len(crossed) == 40

    def test_a_bad_index_below_the_first_read_fails_as_a_fresh_sweep(self):
        def bad():
            steps = (nc.BlowdownStep.concrete({1, 6}), nc.BlowdownStep.concrete({1, 2}))
            return nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), steps, (0,) * 5)

        message = "steps[0].sigma: indices outside 1..5"
        with pytest.raises(InvalidValue) as fresh:
            nc.f_values(bad(), 0)
        assert str(fresh.value) == message
        fam = bad()
        above = [nc.f_values(fam, level) for level in (1, 2)]
        with pytest.raises(InvalidValue) as resumed:
            nc.f_values(fam, 0)  # from level 2: steps[1] is crossed, then steps[0] fails
        assert str(resumed.value) == message
        # the failed move leaves no half-moved state behind
        assert [nc.f_values(fam, level) for level in (1, 2)] == above


def test_the_last_sweep_keeps_no_family_alive():
    fam = nc.family_from_json((Path(__file__).with_name("families") / "chain.json").read_text())
    series = fresh_series(fam)
    assert nc.f_values(fam, 3) == series[3]
    alive = weakref.ref(fam)
    del fam
    gc.collect()
    assert alive() is None
    # a sweep whose family died is a miss: an equal new family starts fresh
    fam = nc.family_from_json((Path(__file__).with_name("families") / "chain.json").read_text())
    assert nc.f_values(fam, 3) == series[3]


class TestHelpers:
    def test_random_family_sampler_fails_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(helpers, "validate_family", lambda family: ["always broken"])
        start = time.perf_counter()
        with pytest.raises(AssertionError, match="^random_concrete_family: "):
            helpers.random_concrete_family(random.Random(3))
        assert time.perf_counter() - start < 5


class TestEvaluate:
    def test_ray_on_stable_model(self):
        fam = stable_model()
        for c in (F(2, 3), F(3, 4), F(1, 2)):
            cls = nc.dk_class(nc.make_weights(5, 0, 1), c)
            assert nc.evaluate_class(cls, fam) == 6 * c - 4
        assert nc.evaluate_class(nc.dk_class(fam.weights, F(2, 3)), fam) == 0

    def test_ray_on_diagonal_family(self):
        fam = diagonal_family()
        for c in (F(2, 3), F(7, 10)):
            cls = nc.dk_class(fam.weights, c)
            assert nc.evaluate_class(cls, fam) == 6 * c - 4

    def test_zero_class(self):
        assert nc.evaluate_class(nc.zero_class(nc.make_weights(5, 0, 2)),
                                 diagonal_family()) == 0

    def test_boundary_coefficients_pair_with_counts(self):
        fam = stable_model()
        key = nc.canonical_boundary_key(fam.weights, 2, 0)
        cls = nc.DivisorClass(fam.weights, 0, (), 0, 0, {key: F(1, 2)})
        assert nc.evaluate_class(cls, fam) == 2

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            nc.evaluate_class(nc.dk_class(nc.make_weights(6, 0, 2), 1),
                              diagonal_family())

    def test_unequal_tau_entries(self):
        w = nc.make_weights(3, 2, 2)
        fam = nc.FamilyModel.concrete(w, (), (0, 0, 0), (0, 0))
        cls = nc.DivisorClass(w, 0, (F(1), F(2)), 0, 0, {})
        with pytest.raises(UnequalTauCoefficients):
            nc.evaluate_class(cls, fam)


class TestCombinationValue:
    def test_empty_family(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(4, 1, 3), [])
        assert nc.combination_value(fam, F(1, 2), F(1)) == 0

    def test_single_mixed_step(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(3, 2, 2), [(1, 1)])
        for a in (F(1, 8), F(2, 5)):
            for b in (F(3, 2), F(9, 8)):
                assert nc.combination_value(fam, a, b) == a

    def test_stable_model(self):
        assert nc.combination_value(stable_model(), F(3, 4), 0) == F(1, 2)

    def test_b_requires_heavy_sections(self):
        with pytest.raises(InvalidCoefficients):
            nc.combination_value(stable_model(), F(3, 4), F(1))

    def test_matches_direct_pairing_on_concrete_families(self):
        # (a + b/n) psi_sigma + 2a/(n-1) delta_s + b_eff psi_tau - delta,
        # where the heavy coefficient is b at m = 1 and 1 at m >= 2
        rng = random.Random(99)
        for fam in random_family_batch(77, 60):
            w = fam.weights
            if w.n < 2:
                continue
            a = F(rng.randint(-8, 8), rng.randint(1, 6))
            b = F(rng.randint(-8, 8), rng.randint(1, 6)) if w.m else F(0)
            report = nc.intersection_numbers(fam)
            heavy = b if w.m == 1 else F(1)
            direct = ((a + b / w.n) * report.psi_sigma_B
                      + 2 * a / (w.n - 1) * report.delta_s_B
                      + heavy * report.psi_tau_B - report.delta_B)
            assert nc.combination_value(fam, a, b) == direct

    def test_pinned_at_m_0_1_2(self):
        # the (m-b)/m weight of F_tau, written out; CoefficientVector.from_ab
        # sets it to 0 at m = 1, where F_tau vanishes
        rng = random.Random(7)
        for weights in (nc.make_weights(6, 0, 2), nc.make_weights(5, 1, 2),
                        nc.make_weights(4, 2, 2)):
            m = weights.m
            for _ in range(8):
                fam = random_concrete_family_on(rng, weights)
                a = F(rng.randint(-8, 8), rng.randint(1, 6))
                b = F(rng.randint(-8, 8), rng.randint(1, 6)) if m else F(0)
                f_delta, f_sigma, f_tau, f_mixed = nc.f_values(fam, 0)
                if m == 1:
                    assert f_tau == 0
                written = a * f_sigma + b * f_mixed - f_delta
                if m:
                    written += (m - b) * f_tau / m
                assert nc.combination_value(fam, a, b) == written
                coeffs = nc.CoefficientVector.from_ab(weights.n, m, a, b)
                assert nc.g_series(fam, coeffs)[0] == written


class TestStratified:
    def test_two_component_contracted_curve(self):
        for k in range(2, 11):
            n = 2 * k + 1
            parts = nc.pullback_test_curve(n, 0, k)
            cls = nc.dk_class(nc.make_weights(n, 0, k - 1), F(k + 1, 2 * k))
            assert nc.stratified_evaluate(cls, parts) == 0

    def test_moving_component_formula(self):
        # on the blown-up-plane factor alone the pairing is
        # -ck + (2c-1) k(k-1)/2 + 1
        for k in range(2, 8):
            moving, fam = nc.pullback_test_curve(2 * k + 1, 0, k)[0]
            for c in (F(1, 2), F(k + 1, 2 * k), F(3, 4)):
                cls = nc.dk_class(moving, c)
                expected = -c * k + (2 * c - 1) * F(k * (k - 1), 2) + 1
                assert nc.stratified_evaluate(cls, [(moving, fam)]) == expected
                assert nc.evaluate_class(cls, fam) == expected

    def test_additivity_on_disjoint_copies(self):
        fam = stable_model()
        cls = nc.dk_class(fam.weights, F(3, 4))
        single = nc.stratified_evaluate(cls, [(fam.weights, fam)])
        double = nc.stratified_evaluate(cls, [(fam.weights, fam)] * 2)
        assert single == nc.evaluate_class(cls, fam)
        assert double == 2 * single

    def test_shape_gate(self):
        w = nc.make_weights(3, 2, 2)
        fam = nc.FamilyModel.concrete(w, (), (0, 0, 0), (0, 0))
        bad = nc.DivisorClass(w, 1, (F(1), F(1)), 0, F(-2), {})
        with pytest.raises(ShapeNotFunctorial):
            nc.stratified_evaluate(bad, [(w, fam)])
        key = nc.canonical_boundary_key(w, 1, 1)
        with_boundary = nc.DivisorClass(w, 1, (F(1), F(1)), 0, F(-1), {key: F(1)})
        with pytest.raises(ShapeNotFunctorial):
            nc.stratified_evaluate(with_boundary, [(w, fam)])


class TestKeyIdentities:
    def test_telescoping_drops(self):
        for fam in random_family_batch(31337, 120):
            w = fam.weights
            n, m = w.n, w.m
            for i in range(fam.n_steps):
                step = fam.steps[i]
                lo = nc.f_values(fam, i)
                hi = nc.f_values(fam, i + 1)
                drop_sigma = F(step.r1 * (n - step.r1), n - 1) if n >= 2 else F(0)
                drop_tau = F(step.r2 * (m - step.r2), m - 1) if m >= 2 else F(0)
                drop_mixed = (F(step.r1 * (m - step.r2) + step.r2 * (n - step.r1), n * m)
                              if n >= 1 and m >= 1 else F(0))
                diffs = tuple(a - b for a, b in zip(lo, hi))
                assert diffs == (1, drop_sigma, drop_tau, drop_mixed)

    def test_level_zero_boundary_identities(self):
        for fam in random_family_batch(4242, 120):
            w = fam.weights
            report = nc.intersection_numbers(fam)
            f_delta, f_sigma, f_tau, f_mixed = nc.f_values(fam, 0)
            assert f_delta == report.delta_B
            if w.n >= 2:
                assert f_sigma == report.psi_sigma_B + F(2, w.n - 1) * report.delta_s_B
            if w.m >= 2:
                assert f_tau == report.psi_tau_B
            if w.n >= 1 and w.m >= 1:
                assert f_mixed == (report.psi_sigma_B / w.n
                                   + report.psi_tau_B / w.m)

    def test_step_order_independence(self):
        rng = random.Random(2718)
        checked = 0
        for fam in random_family_batch(1618, 1000):
            disjoint = [
                (i, j) for i in range(fam.n_steps) for j in range(i + 1, fam.n_steps)
                if not ((fam.steps[i].sigma & fam.steps[j].sigma)
                        or (fam.steps[i].tau & fam.steps[j].tau))
            ]
            if not disjoint:
                continue
            i, j = rng.choice(disjoint)
            steps = list(fam.steps)
            steps[i], steps[j] = steps[j], steps[i]
            swapped = nc.FamilyModel.concrete(fam.weights, steps,
                                              fam.final_e_sigma, fam.final_e_tau)
            assert nc.intersection_numbers(swapped) == nc.intersection_numbers(fam)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100

    def test_reconstruction_from_potentials(self):
        # with n, m >= 2 the four level-zero potentials of the abstraction
        # (step counts only) determine the four pairings
        count = 0
        for fam in random_family_batch(3141, 1200):
            w = fam.weights
            if w.n < 2 or w.m < 2:
                continue
            abstraction = nc.FamilyModel.abstract(
                w, [(s.r1, s.r2) for s in fam.steps])
            f_delta, f_sigma, f_tau, f_mixed = nc.f_values(abstraction, 0)
            psi_tau = f_tau
            delta = f_delta
            psi_sigma = w.n * (f_mixed - psi_tau / w.m)
            delta_s = (w.n - 1) * (f_sigma - psi_sigma) / 2
            report = nc.intersection_numbers(fam)
            assert (psi_sigma, psi_tau, delta_s, delta) == (
                report.psi_sigma_B, report.psi_tau_B, report.delta_s_B, report.delta_B)
            count += 1
            if count >= 60:
                break
        assert count >= 60


class TestFamilyFiles:
    def test_round_trip_concrete(self):
        fam = stable_model()
        assert nc.family_from_json(nc.family_to_json(fam)) == fam

    def test_round_trip_abstract(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(3, 2, 2), [(1, 1), (0, 2)])
        assert nc.family_from_json(nc.family_to_json(fam)) == fam

    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_random_concrete(self, seed):
        for fam in random_family_batch(seed, 3):
            assert nc.family_from_json(nc.family_to_json(fam)) == fam

    @given(data=st.data(), k=st.integers(1, 5), n=st.integers(0, 12))
    def test_round_trip_random_abstract(self, data, k, n):
        m = data.draw(st.integers(max(0, least_nonempty_m(n, k)), 6))
        pairs = nc.admissible_pairs(n, m, k)
        counts = data.draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
        fam = nc.FamilyModel.abstract(nc.make_weights(n, m, k), counts)
        assert nc.family_from_json(nc.family_to_json(fam)) == fam

    @pytest.mark.parametrize("text,fragment", [
        ("{", "not valid JSON"),
        ("[]", "top level"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "concrete"}', "steps: missing"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "odd", "steps": []}', "mode"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": [{"r1": 3}]}',
         "steps[0]"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "concrete", "steps": '
         '[{"sigma": [1, "x"], "tau": []}], "final_e_sigma": [0,0,0,0,0], '
         '"final_e_tau": []}', "steps[0].sigma[1]"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "concrete", "steps": []}',
         "final_e_sigma"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": [], '
         '"final_e_sigma": []}', "final_e_sigma"),
        ('{"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": [], "zz": 1}',
         "unknown field"),
        ('{"n": 5, "m": 0, "k": 1, "mode": "concrete", "steps": '
         '[{"sigma": [1, 1, 5], "tau": []}], "final_e_sigma": [0,0,0,0,2], '
         '"final_e_tau": []}', "steps[0].sigma: index 1 listed twice"),
        ('{"n": 3, "m": 2, "k": 1, "mode": "concrete", "steps": '
         '[{"sigma": [1], "tau": [2, 2]}], "final_e_sigma": [0,0,0], '
         '"final_e_tau": [0,0]}', "steps[0].tau: index 2 listed twice"),
    ])
    def test_error_paths(self, text, fragment):
        with pytest.raises(FamilyFormatError) as excinfo:
            nc.family_from_json(text)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("fields, message", [
        ('"n": "5", "m": 0, "k": 2, "mode": "abstract", "steps": []',
         "n: expected an integer, got '5'"),
        ('"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": {}', "steps: expected a list"),
        ('"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": [[3, 0]]',
         "steps[0]: expected an object"),
        ('"n": 5, "m": 0, "k": 2, "mode": "concrete", "steps": [{"r1": 3, "r2": 0}], '
         '"final_e_sigma": [0, 0, 0, 0, 0], "final_e_tau": []',
         "steps[0]: expected keys sigma, tau"),
        ('"n": 5, "m": 0, "k": 2, "mode": "concrete", "steps": [], '
         '"final_e_sigma": 0, "final_e_tau": []', "final_e_sigma: expected a list of integers"),
        ('"n": 5, "m": 0, "k": 2, "mode": "abstract", "steps": [], "final_e_tau": []',
         "final_e_tau: not allowed on abstract families"),
    ], ids=["integer", "steps-list", "step-object", "concrete-keys", "integer-list",
            "abstract-terminal-tau"])
    def test_type_errors_name_the_field(self, fields, message):
        with pytest.raises(FamilyFormatError) as excinfo:
            nc.family_from_json("{" + fields + "}")
        assert str(excinfo.value) == message


def family_file(mode, step=(), **fields):
    """A sound family file on (5, 2, 2) with one step, step's keys replacing
    the step's and fields replacing top-level fields."""
    payload = {"n": 5, "m": 2, "k": 2, "mode": mode}
    if mode == "concrete":
        payload.update(steps=[{"sigma": [1, 2], "tau": [1], **dict(step)}],
                       final_e_sigma=[0, 0, 0, 0, 0], final_e_tau=[0, 2])
    else:
        payload["steps"] = [{"r1": 2, "r2": 1, **dict(step)}]
    return json.dumps({**payload, **fields})


class TestReaderDefersToConstructors:
    """family_from_json checks the file's shape; the constructors check the
    values, and the reader names the field they reject."""

    def test_the_sound_files_read(self):
        assert nc.family_from_json(family_file("concrete")).steps == (
            nc.BlowdownStep.concrete([1, 2], [1]),)
        assert nc.family_from_json(family_file("abstract")).steps == (
            nc.BlowdownStep.abstract(2, 1),)

    @pytest.mark.parametrize("text, message", [
        (family_file("concrete", k=2.0), "k: expected an integer, got 2.0"),
        (family_file("abstract", m=True), "m: expected an integer, got True"),
        (family_file("concrete", {"sigma": [1.5, 2]}),
         "steps[0].sigma[0]: expected an integer, got 1.5"),
        (family_file("concrete", {"sigma": [1, True]}),
         "steps[0].sigma[1]: expected an integer, got True"),
        (family_file("concrete", {"tau": ["1"]}), "steps[0].tau[0]: expected an integer, got '1'"),
        (family_file("concrete", {"sigma": [2, 1, 2]}), "steps[0].sigma: index 2 listed twice"),
        (family_file("concrete", {"sigma": None}), "steps[0].sigma: expected a list of integers"),
        (family_file("concrete", {"tau": 5}), "steps[0].tau: expected a list of integers"),
        (family_file("concrete", {"sigma": "12"}), "steps[0].sigma: expected a list of integers"),
        (family_file("abstract", {"r1": 2.0}), "steps[0].r1: expected an integer, got 2.0"),
        (family_file("abstract", {"r2": "1"}), "steps[0].r2: expected an integer, got '1'"),
        (family_file("abstract", {"r1": None}), "steps[0].r1: expected an integer, got None"),
        (family_file("concrete", final_e_sigma=[0, 0, 0.5, 0, 0]),
         "final_e_sigma[2]: expected an integer, got 0.5"),
        (family_file("concrete", final_e_tau=[0, "2"]),
         "final_e_tau[1]: expected an integer, got '2'"),
        (family_file("concrete", final_e_tau=None), "final_e_tau: expected a list of integers"),
        (family_file("concrete", final_e_sigma=0), "final_e_sigma: expected a list of integers"),
    ], ids=["float-k", "bool-m", "float-index", "bool-index", "str-index", "repeated-index",
            "null-sigma", "number-tau", "str-sigma", "float-r1", "str-r2", "null-r1",
            "float-terminal", "str-terminal", "null-terminal", "number-terminal"])
    def test_each_single_fault_names_its_field(self, text, message):
        with pytest.raises(FamilyFormatError) as excinfo:
            nc.family_from_json(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, message", [
        (family_file("concrete", {"sigma": [1, 1], "tau": 5}),
         "steps[0].tau: expected a list of integers"),
        (family_file("concrete", final_e_sigma=[0.5, 0, 0, 0, 0], final_e_tau=0),
         "final_e_tau: expected a list of integers"),
    ], ids=["step", "terminal"])
    def test_a_field_that_is_not_a_list_comes_before_its_siblings_values(self, text, message):
        with pytest.raises(FamilyFormatError) as excinfo:
            nc.family_from_json(text)
        assert str(excinfo.value) == message


class TestSectionBounds:
    """A concrete step's indices are checked against 1..n and 1..m by their
    least and largest index, and an abstract family costs nothing per
    section."""

    @pytest.mark.parametrize("sigma, tau, faults", [
        ({1, 5}, {1, 2}, []),
        ((), (), []),
        ({0, 3}, {2}, ["steps[0].sigma: indices outside 1..5"]),
        ({3, 6}, (), ["steps[0].sigma: indices outside 1..5"]),
        ({-2}, {3}, ["steps[0].sigma: indices outside 1..5", "steps[0].tau: indices outside 1..2"]),
        ({2, 3}, {0}, ["steps[0].tau: indices outside 1..2"]),
    ], ids=["at-the-bounds", "empty", "zero", "past-n", "both", "tau-zero"])
    def test_one_index_past_either_bound_is_a_fault(self, sigma, tau, faults):
        family = nc.FamilyModel.concrete(nc.make_weights(5, 2, 2),
                                         [nc.BlowdownStep.concrete(sigma, tau)], (0,) * 5, (0, 0))
        assert [v for v in nc.validate_family(family) if "indices" in v] == faults

    def test_an_abstract_family_with_a_million_sections_stays_small(self):
        family = nc.FamilyModel.abstract(nc.make_weights(10**6, 0, 2), [(3, 0), (10, 0)] * 5)
        tracemalloc.start()
        try:
            assert nc.validate_family(family) == []
            text = nc.family_to_json(family)
            values = nc.f_values(family, 0)
            series = nc.g_series(family, nc.CoefficientVector(1, 0, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nc.family_from_json(text) == family and values[0] == 10 and len(series) == 11
        assert peak < 64 * 1024, peak

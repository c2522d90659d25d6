import dataclasses
import functools
import gc
import importlib.util
import itertools
import pkgutil
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nefcert as nc
from nefcert import families, positivity
from nefcert.divisors import least_nonempty_m
from nefcert.errors import (COutOfInterval, InvalidBoundaryKey, InvalidWeights, NefcertError,
                            NoCaseApplies)
from nefcert.positivity import INCONCLUSIVE, STRICTLY_POSITIVE, ZERO_CHARACTERIZED
from helpers import random_concrete_family_on


def brute_pairs(n, m, k):
    return {(r1, r2) for r1 in range(n + 1) for r2 in range(m + 1)
            if F(r1, k) + r2 > 1 and F(n - r1, k) + (m - r2) > 1}


class TestAdmissiblePairs:
    def test_small_mixed_grid(self):
        assert set(nc.admissible_pairs(3, 2, 2)) == {(0, 2), (1, 1), (2, 1), (3, 0)}

    def test_unweighted_row(self):
        for n in range(5, 10):
            assert set(nc.admissible_pairs(n, 0, 1)) == {(r, 0) for r in range(2, n - 1)}

    def test_sharp_configuration_is_step_free(self):
        for k in range(2, 9):
            assert nc.admissible_pairs(k + 1, 1, k) == []

    def test_matches_brute_force(self):
        for n in range(0, 10):
            for m in range(0, 10 - n):
                for k in (1, 2, 3, 4, 5, 6):
                    try:
                        nc.make_weights(n, m, k)
                    except InvalidWeights:
                        continue
                    assert set(nc.admissible_pairs(n, m, k)) == brute_pairs(n, m, k)


class TestDropValue:
    def test_mixed_step_cancellation(self):
        coeffs = nc.CoefficientVector.from_ab(3, 2, F(1, 8), F(3, 2))
        assert nc.drop_value(3, 2, 2, coeffs, 1, 1) == F(1, 8)

    def test_all_light_corner(self):
        for n, m in ((5, 2), (7, 3)):
            b = F(7, 5)
            coeffs = nc.CoefficientVector.from_ab(n, m, F(1, 3), b)
            assert nc.drop_value(n, m, 2, coeffs, n, 0) == b - 1
            assert nc.drop_value(n, m, 2, coeffs, 0, m) == b - 1

    def test_light_only_row(self):
        a = F(2, 3)
        coeffs = nc.CoefficientVector.from_ab(7, 0, a, 0)
        for r1 in range(8):
            assert nc.drop_value(7, 0, 2, coeffs, r1, 0) == a * F(r1 * (7 - r1), 6) - 1

    def test_grid_gate(self):
        coeffs = nc.CoefficientVector.from_ab(5, 0, F(1), 0)
        with pytest.raises(ValueError) as excinfo:
            nc.drop_value(5, 0, 2, coeffs, 6, 0)
        assert isinstance(excinfo.value, NefcertError)
        assert str(excinfo.value) == "counts (6,0) outside the grid 0..5 x 0..0"


class TestMinDrop:
    def test_mixed_example(self):
        coeffs = nc.CoefficientVector.from_ab(3, 2, F(1, 8), F(3, 2))
        best = nc.min_drop(3, 2, 2, coeffs)
        assert (best.r1, best.r2, best.value) == (1, 1, F(1, 8))

    def test_tie_breaks_lexicographically(self):
        coeffs = nc.CoefficientVector.from_ab(7, 0, F(1, 2), 0)
        best = nc.min_drop(7, 0, 2, coeffs)
        assert (best.r1, best.r2, best.value) == (3, 0, 0)

    def test_empty_grid(self):
        coeffs = nc.CoefficientVector.from_ab(4, 1, F(1), F(1))
        assert nc.min_drop(4, 1, 3, coeffs) is None


class TestGSeries:
    def test_empty_family(self):
        fam = nc.FamilyModel.abstract(nc.make_weights(4, 1, 3), [])
        coeffs = nc.CoefficientVector.from_ab(4, 1, F(1, 2), 1)
        assert nc.g_series(fam, coeffs) == [0]

    def test_stable_model_series(self):
        steps = tuple(nc.BlowdownStep.concrete({i, 5}) for i in range(1, 5))
        fam = nc.FamilyModel.concrete(nc.make_weights(5, 0, 1), steps, (0, 0, 0, 0, 2))
        coeffs = nc.CoefficientVector.from_ab(5, 0, F(3, 4), 0)
        assert nc.g_series(fam, coeffs) == [F(1, 2), F(3, 8), F(1, 4), F(1, 8), 0]

    def test_differences_are_drops_and_tail_is_zero(self):
        rng = random.Random(5550)
        for _ in range(30):
            n, m, k = 5, 2, 2
            pairs = nc.admissible_pairs(n, m, k)
            counts = [rng.choice(pairs) for _ in range(rng.randint(0, 4))]
            fam = nc.FamilyModel.abstract(nc.make_weights(n, m, k), counts)
            a = F(rng.randint(0, 12), 8)
            b = F(rng.randint(0, 12), 8)
            coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
            series = nc.g_series(fam, coeffs)
            assert series[-1] == 0
            for i, (r1, r2) in enumerate(counts):
                assert series[i] - series[i + 1] == nc.drop_value(n, m, k, coeffs, r1, r2)


class TestPositivityCase:
    def test_examples(self):
        assert nc.positivity_case(7, 0, 2, F(2, 3), 0) == (1, True)
        assert nc.positivity_case(5, 1, 3, F(1, 2), 1) == (2, True)
        assert nc.positivity_case(3, 2, 2, F(1, 8), F(3, 2)) == (4, True)

    def test_case3(self):
        assert nc.positivity_case(2, 3, 3, F(1, 5), F(1, 5)) == (3, True)
        assert nc.positivity_case(2, 3, 3, F(0), F(1, 5)) == (3, False)

    def test_failing_hypotheses(self):
        assert nc.positivity_case(7, 0, 2, F(1, 2), 0) == (1, False)
        assert nc.positivity_case(3, 2, 2, F(1, 8), F(1, 2)) == (4, False)

    def test_sharp_configuration_raises(self):
        with pytest.raises(NoCaseApplies):
            nc.positivity_case(4, 1, 3, F(1), F(1))

    def test_degenerate_light_count_raises(self):
        with pytest.raises(NoCaseApplies):
            nc.positivity_case(1, 2, 2, F(1), F(1))


class TestThresholds:
    def test_spot_values(self):
        t = nc.threshold_c(7, 0, 2)
        assert (t.case, t.c) == (1, F(3, 5))
        t = nc.threshold_c(5, 1, 3)
        assert (t.case, t.c) == (2, F(3, 5))
        t = nc.threshold_c(4, 1, 3)
        assert (t.case, t.c, t.equality) == (5, F(5, 8), True)

    def test_interval_cases(self):
        t = nc.threshold_c(2, 3, 2)
        assert (t.case, t.lo, t.hi, t.hi_closed) == (3, F(1, 2), F(2, 3), True)
        t = nc.threshold_c(3, 2, 2)
        assert (t.case, t.lo, t.hi, t.hi_closed) == (4, F(1, 2), F(2, 3), False)
        assert t.describe() == "(1/2, 2/3)"

    def test_all_cases_occur_on_grid(self):
        seen = set()
        for k in (2, 3, 4):
            for n in range(0, 11):
                for m in range(0, 11 - n):
                    try:
                        nc.make_weights(n, m, k)
                    except InvalidWeights:
                        continue
                    seen.add(nc.threshold_c(n, m, k).case)
        assert seen == {1, 2, 3, 4, 5}

    def test_case_routing_matches_shape(self):
        for k in (2, 3, 4):
            for n in range(0, 11):
                for m in range(0, 11 - n):
                    try:
                        nc.make_weights(n, m, k)
                    except InvalidWeights:
                        continue
                    case = nc.threshold_c(n, m, k).case
                    if m == 0:
                        assert case == 1
                    elif m == 1:
                        assert case == (5 if n == k + 1 else 2)
                    elif n >= k + 1:
                        assert case == 4
                    else:
                        assert case == 3

    def test_requires_k_at_least_two(self):
        with pytest.raises(InvalidWeights):
            nc.threshold_c(5, 0, 1)


class TestAbSubstitution:
    def test_side_conditions(self):
        # b > 1 iff c < (n+1)/(2n); b < n/2 iff c > 1/2 (for n >= 3)
        rng = random.Random(808)
        for _ in range(100):
            n = rng.randint(3, 12)
            c = F(rng.randint(-10, 30), rng.randint(1, 24))
            a, b = nc.ab_substitution(n, 2, 2, c)
            # the defining equations, and a_tau = (m - b)/m, in Fraction arithmetic
            assert c == a + b / n and 2 * c - 1 == 2 * a / (n - 1)
            assert nc.CoefficientVector.from_ab(n, 2, a, b).a_tau == (2 - b) / 2
            assert (b > 1) == (c < F(n + 1, 2 * n))
            assert (b < F(n, 2)) == (c > F(1, 2))

    def test_matches_pairing_on_families(self):
        # with m >= 2 the substituted combination equals the dk pairing at
        # every c; with m <= 1 it has too few parameters and matches exactly
        # at the case threshold
        from helpers import random_family_batch
        for fam in random_family_batch(2023, 120):
            w = fam.weights
            if w.n < 2 or w.k < 2:
                continue
            if w.m >= 2:
                for c in (F(1, 2), F(5, 8), F(7, 10)):
                    a, b = nc.ab_substitution(w.n, w.m, w.k, c)
                    direct = nc.evaluate_class(nc.dk_class(w, c), fam)
                    assert nc.combination_value(fam, a, b) == direct
            else:
                threshold = nc.threshold_c(w.n, w.m, w.k)
                if threshold.c is None:
                    continue
                c = threshold.c
                a, b = nc.ab_substitution(w.n, w.m, w.k, c)
                direct = nc.evaluate_class(nc.dk_class(w, c), fam)
                assert nc.combination_value(fam, a, b) == direct


class TestC0Lower:
    def test_examples(self):
        assert nc.c0_lower(7, 0, 2) == (F(3, 5), True)
        assert nc.c0_lower(4, 1, 3) == (F(5, 8), False)
        assert nc.c0_lower(2, 3, 2) == (F(7, 12), True)

    def test_cap_and_strictness_inventory(self):
        for k in (2, 3, 4):
            cap = F(k + 2, 2 * (k + 1))
            for n in range(0, 12):
                for m in range(0, 12 - n):
                    try:
                        nc.make_weights(n, m, k)
                    except InvalidWeights:
                        continue
                    c0, strict = nc.c0_lower(n, m, k)
                    assert c0 <= cap
                    assert strict == (c0 < cap)
                    expected_nonstrict = (n, m) == (k + 1, 1) or (n, m, k) == (5, 0, 2)
                    assert strict == (not expected_nonstrict)


class TestAmpleInterval:
    def test_values(self):
        assert nc.ample_interval(2) == (F(2, 3), F(3, 4))
        assert nc.ample_interval(3) == (F(5, 8), F(2, 3))
        assert nc.ample_interval(1) == (F(2, 3), None)

    def test_consecutive_intervals_abut(self):
        for k in range(1, 51):
            lo_formula = F(k + 2, 2 * k + 2)
            assert nc.ample_interval(k + 1)[1] == lo_formula

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidWeights):
            nc.ample_interval(0)


class TestReachableStrata:
    def test_small_examples(self):
        assert nc.reachable_strata(7, 0, 2) == [(1, 2), (3, 1), (4, 1), (7, 0)]
        assert nc.reachable_strata(4, 1, 3) == [(4, 1)]
        assert nc.reachable_strata(5, 0, 2) == [(5, 0)]

    def test_factors_are_valid_and_totals_decrease(self):
        for n, m, k in ((8, 1, 2), (6, 2, 3)):
            strata = nc.reachable_strata(n, m, k)
            assert (n, m) in strata
            for n1, m1 in strata:
                nc.make_weights(n1, m1, k)
                assert n1 + m1 <= n + m

    def test_the_root_comes_last_and_once(self):
        # the certification reads the root's leg as the top level's last leg
        for n, m, k in valid_grids(10, 30, 8):
            strata = nc.reachable_strata(n, m, k)
            assert strata[-1] == (n, m) and strata.count((n, m)) == 1, (n, m, k)


class TestCertifyGeneric:
    def test_strict_example(self):
        cert = nc.certify_generic(7, 0, 2, F(3, 5))
        assert cert.verdict == STRICTLY_POSITIVE
        assert (cert.a, cert.b) == (F(3, 5), 0)
        assert cert.margin == F(1, 5)
        assert (cert.witness.r1, cert.witness.r2) == (3, 0)

    def test_step_free_example(self):
        cert = nc.certify_generic(4, 1, 3, F(5, 8))
        assert cert.verdict == ZERO_CHARACTERIZED
        assert cert.witness is None and cert.margin is None

    def test_interior_mixed_example(self):
        cert = nc.certify_generic(3, 2, 2, F(5, 8))
        assert (cert.a, cert.b) == (F(1, 4), F(9, 8))
        assert cert.margin == F(1, 8)
        assert cert.verdict == STRICTLY_POSITIVE

    def test_zero_and_negative_verdicts(self):
        assert nc.certify_generic(7, 0, 2, F(1, 2)).verdict == ZERO_CHARACTERIZED
        assert nc.certify_generic(7, 0, 2, F(2, 5)).verdict == INCONCLUSIVE


class TestCertifyInterval:
    def test_unweighted_base_case(self):
        cert = nc.certify_interval(5, 0, 1, F(3, 4))
        assert cert.verdict == STRICTLY_POSITIVE
        assert cert.margin > 0

    def test_upper_endpoint_uses_transport_only(self):
        cert = nc.certify_interval(7, 0, 2, F(3, 4))
        assert cert.verdict == STRICTLY_POSITIVE
        top = nc.make_weights(7, 0, 2)
        assert all(entry.grid != top for entry in cert.trace)

    def test_lower_endpoint_zero_characterization(self):
        cert = nc.certify_interval(4, 1, 2, F(2, 3))
        assert cert.verdict == ZERO_CHARACTERIZED
        assert nc.make_weights(3, 1, 2) in cert.zero_strata

    def test_minimal_light_only_space_reaches_zero_at_lower_endpoint(self):
        # the step-free space with 2k+1 light sections has nonconstant
        # ruled-surface families pairing to exactly zero at the endpoint
        cert = nc.certify_interval(5, 0, 2, F(2, 3))
        assert cert.verdict == ZERO_CHARACTERIZED
        assert cert.zero_strata == (nc.make_weights(5, 0, 2),)

    def test_interior_strictness_with_margin(self):
        for n, m, k, c in ((7, 0, 2, F(7, 10)), (4, 1, 2, F(17, 24)),
                           (3, 2, 2, F(7, 10)), (5, 1, 3, F(31, 48)),
                           (4, 1, 3, F(31, 48))):
            cert = nc.certify_interval(n, m, k, c)
            assert cert.verdict == STRICTLY_POSITIVE, (n, m, k, c, cert.notes)
            assert cert.margin is None or cert.margin > 0

    def test_out_of_interval(self):
        with pytest.raises(COutOfInterval):
            nc.certify_interval(7, 0, 2, F(1, 2))
        with pytest.raises(COutOfInterval):
            nc.certify_interval(7, 0, 2, F(4, 5))
        with pytest.raises(COutOfInterval):
            nc.certify_interval(5, 0, 1, F(2, 3))  # open at 2/3 for k = 1

    def test_drop_values_recomputable_without_perturbation(self):
        cert = nc.certify_interval(7, 0, 2, F(7, 10))
        for entry in cert.trace:
            if entry.minimum is None:
                continue
            coeffs = nc.CoefficientVector.from_ab(entry.grid.n, entry.grid.m,
                                                  entry.a, entry.b)
            recomputed = nc.drop_value(entry.grid.n, entry.grid.m, entry.grid.k,
                                       coeffs, entry.minimum.r1, entry.minimum.r2)
            assert recomputed == entry.minimum.value


class TestPerturbed:
    def test_zero_perturbation_identity(self):
        base = nc.certify_interval(7, 0, 2, F(7, 10))
        assert nc.perturbed_certify(7, 0, 2, F(7, 10), {}) == base

    def test_half_margin_survives(self):
        base = nc.certify_interval(7, 0, 2, F(7, 10))
        eps = {nc.BoundaryKey(3, 0): -base.margin / 2}
        cert = nc.perturbed_certify(7, 0, 2, F(7, 10), eps)
        assert cert.verdict == STRICTLY_POSITIVE

    def test_exact_cancellation_fails(self):
        # -1/5 cancels the minimal drop at counts (3, 0) on the root grid
        cert = nc.perturbed_certify(7, 0, 2, F(7, 10), {nc.BoundaryKey(3, 0): F(-1, 5)})
        assert cert.verdict != STRICTLY_POSITIVE

    def test_uniform_margin_is_sharp(self):
        base = nc.certify_interval(7, 0, 2, F(7, 10))
        keys = set()
        for entry in base.trace:
            g = entry.grid
            for r1, r2 in nc.admissible_pairs(g.n, g.m, g.k):
                keys.add(nc.BoundaryKey(*min((r1, r2), (g.n - r1, g.m - r2))))
        half = nc.perturbed_certify(7, 0, 2, F(7, 10),
                                    {key: -base.margin / 2 for key in keys})
        assert half.verdict == STRICTLY_POSITIVE
        sharp = nc.perturbed_certify(7, 0, 2, F(7, 10),
                                     {key: -base.margin for key in keys})
        assert sharp.verdict != STRICTLY_POSITIVE


class TestEpsKeys:
    def test_canonical_eps_folds_complements(self):
        weights = nc.make_weights(7, 0, 2)
        assert nc.canonical_eps(weights, {(4, 0): F(-1, 5)}) == {nc.BoundaryKey(3, 0): F(-1, 5)}
        assert nc.canonical_eps(weights, {nc.BoundaryKey(3, 0): 1}) == {nc.BoundaryKey(3, 0): 1}

    def test_canonical_eps_rejects_inadmissible_and_doubled_keys(self):
        weights = nc.make_weights(7, 0, 2)
        for bad in ({(2, 0): 1}, {(5, 0): 1}, {(99, 99): 1}, {(3, 0): 1, (4, 0): 1}):
            with pytest.raises(InvalidBoundaryKey):
                nc.canonical_eps(weights, bad)

    def test_generic_complement_spelling_gives_the_same_certificate(self):
        for n, m, k in ((7, 0, 2), (9, 2, 4), (12, 3, 5), (8, 1, 3)):
            c, _ = nc.c0_lower(n, m, k)
            base = nc.certify_generic(n, m, k, c)
            assert base.verdict == STRICTLY_POSITIVE
            r1, r2 = base.witness.r1, base.witness.r2
            spellings = [(r1, r2), (n - r1, m - r2)]
            # cancelling the minimal drop turns the verdict, whichever spelling
            certs = [nc.certify_generic(n, m, k, c, eps={key: -base.margin})
                     for key in spellings]
            assert certs[0] == certs[1]
            assert certs[0].verdict == ZERO_CHARACTERIZED

    def test_generic_rejects_inadmissible_keys(self):
        with pytest.raises(InvalidBoundaryKey):
            nc.certify_generic(7, 0, 2, F(3, 5), eps={(99, 99): F(-1)})

    def test_perturbed_rejects_keys_outside_every_grid(self):
        for key in ((99, 99), (-1, 0), (0, 8)):
            with pytest.raises(InvalidBoundaryKey):
                nc.perturbed_certify(7, 0, 2, F(7, 10), {key: F(-1)})

    def test_perturbed_rejects_keys_of_no_visited_cell(self):
        # (5, 0) fits in the grid of (7, 0) but is the canonical key of no
        # admissible cell in any grid certify_interval(7, 0, 2, .) visits
        with pytest.raises(InvalidBoundaryKey, match=r"\(5,0\)"):
            nc.perturbed_certify(7, 0, 2, F(7, 10), {(5, 0): F(-100)})
        # a root divisor at k = 1 that no regrouped grid (n + m - 1, 1) carries
        with pytest.raises(InvalidBoundaryKey, match=r"\(1,2\)"):
            nc.perturbed_certify(5, 2, 1, F(4, 5), {(1, 2): F(-1, 100)})

    def test_perturbed_accepts_labels_of_stratum_grids_only(self):
        # (1, 1) is no cell of the root grid (7, 0) but labels stratum cells
        base = nc.certify_interval(7, 0, 2, F(7, 10))
        assert not nc.BoundaryKey(1, 1).is_admissible(nc.make_weights(7, 0, 2))
        cert = nc.perturbed_certify(7, 0, 2, F(7, 10), {(1, 1): F(-1, 1000)})
        assert cert.verdict == STRICTLY_POSITIVE
        assert cert != base


class TestCellLabels:
    """min_drop and perturbed_certify read eps through one cell-label reader:
    (i, j) pairs and BoundaryKeys name the same cell, values are exact."""

    def test_a_key_in_both_spellings_raises(self):
        for eps in ({(3, 0): F(-1, 5), nc.BoundaryKey(3, 0): F(1, 5)},
                    {nc.BoundaryKey(3, 0): F(1, 5), (3, 0): F(-1, 5)}):
            with pytest.raises(InvalidBoundaryKey, match=r"\(3,0\) is given twice"):
                nc.perturbed_certify(7, 0, 2, F(7, 10), eps)
            coeffs = nc.CoefficientVector.from_ab(7, 0, F(1, 2), 0)
            with pytest.raises(InvalidBoundaryKey, match=r"\(3,0\) is given twice"):
                nc.min_drop(7, 0, 2, coeffs, eps)

    def test_min_drop_reads_a_tuple_key_as_its_boundary_key(self):
        coeffs = nc.CoefficientVector.from_ab(7, 0, F(1, 2), 0)
        for key in ((3, 0), (2, 0), (4, 0)):
            assert nc.min_drop(7, 0, 2, coeffs, {key: F(-1, 5)}) == \
                nc.min_drop(7, 0, 2, coeffs, {nc.BoundaryKey(*key): F(-1, 5)})
        assert nc.min_drop(7, 0, 2, coeffs, {(3, 0): F(-1, 5)}).value == F(-1, 5)

    def test_a_float_value_raises_type_error(self):
        coeffs = nc.CoefficientVector.from_ab(7, 0, F(1, 2), 0)
        with pytest.raises(TypeError, match="exact rational required"):
            nc.min_drop(7, 0, 2, coeffs, {(3, 0): -0.2})
        with pytest.raises(TypeError, match="exact rational required"):
            nc.perturbed_certify(7, 0, 2, F(7, 10), {nc.BoundaryKey(3, 0): -0.2})


# every reader of eps or boundary keys goes through divisors._as_key
KEY_READERS = {
    "DivisorClass": lambda eps: nc.DivisorClass(nc.make_weights(7, 0, 2), 0, (), 0, 0, eps),
    "canonical_eps": lambda eps: nc.canonical_eps(nc.make_weights(7, 0, 2), eps),
    "certify_generic": lambda eps: nc.certify_generic(7, 0, 2, F(7, 10), eps=eps),
    "perturbed_certify": lambda eps: nc.perturbed_certify(7, 0, 2, F(7, 10), eps),
    "min_drop": lambda eps: nc.min_drop(7, 0, 2, nc.CoefficientVector.from_ab(7, 0, F(1, 2), 0),
                                        eps),
}


@pytest.mark.parametrize("key", [(3,), "3,0", None, (3, 0, 1)], ids=repr)
@pytest.mark.parametrize("reader", sorted(KEY_READERS))
def test_a_malformed_key_raises_naming_it(reader, key):
    with pytest.raises(InvalidBoundaryKey) as err:
        KEY_READERS[reader]({key: F(1, 10)})
    assert str(err.value) == f"expected a BoundaryKey or an (i, j) pair, got {key!r}"
    KEY_READERS[reader]({(3, 0): F(1, 10)})  # a pair is read


def _interior(k):
    lo, hi = nc.ample_interval(k)
    return (lo + hi) / 2


class TestLegMemo:
    VECTORS = ((7, 0, 2), (9, 2, 4), (6, 1, 3), (12, 3, 5), (3, 3, 12))

    def _cs(self, k):
        lo, hi = nc.ample_interval(k)
        return (lo, _interior(k), hi)

    def test_cold_and_warm_certificates_are_equal(self):
        for n, m, k in self.VECTORS:
            for c in self._cs(k):
                positivity._clear_state()
                cold = nc.certify_interval(n, m, k, c)
                assert positivity._cached_stratum_leg.cache_info().misses > 0
                warm = nc.certify_interval(n, m, k, c)
                # dataclass equality compares every field, the trace included
                assert warm == cold
                assert len(warm.trace) == len(warm.strata_checked)

    def test_perturbation_leaves_the_memo_alone(self):
        positivity._clear_state()
        before = {(n, m, k, c): nc.certify_interval(n, m, k, c)
                  for n, m, k in self.VECTORS for c in self._cs(k)}
        for cert in before.values():
            cert.trace  # rebuilds every eps-free leg through the memo, the folded ones too
        info = positivity._cached_stratum_leg.cache_info()
        for n, m, k in self.VECTORS:
            base = before[(n, m, k, _interior(k))]
            grid = next(e.grid for e in base.trace if e.minimum == base.witness)
            key = min((base.witness.r1, base.witness.r2),
                      (grid.n - base.witness.r1, grid.m - base.witness.r2))
            shifted = nc.perturbed_certify(n, m, k, _interior(k), {key: -base.margin})
            assert shifted.verdict != STRICTLY_POSITIVE
        # the perturbed runs read their untouched legs, all eps-free, from the
        # memo and store none of the legs they compute with eps
        after = positivity._cached_stratum_leg.cache_info()
        assert after.hits > info.hits
        assert (after.misses, after.currsize) == (info.misses, info.currsize)
        for (n, m, k, c), cert in before.items():
            assert nc.certify_interval(n, m, k, c) == cert

    def test_empty_perturbation_is_certify_interval(self):
        for n, m, k in self.VECTORS:
            for c in self._cs(k):
                assert nc.perturbed_certify(n, m, k, c, {}) == nc.certify_interval(n, m, k, c)
        assert nc.perturbed_certify(5, 2, 1, F(5, 4), {}) == nc.certify_interval(5, 2, 1, F(5, 4))

    def test_strata_sharing_a_grid_share_their_leg(self):
        # the memo and a run's eps legs are keyed by grid shape: at k = 1 every
        # stratum (a, b) with b >= 1 is certified on its regrouped grid (a + b - 1, 1)
        for n, m, k in ((12, 3, 1), (9, 4, 3), (7, 0, 2)):
            for level in range(k, 0, -1):
                for c in ((F(3, 4), F(5, 4)) if level == 1 else (None,)):
                    for a, b in nc.reachable_strata(n, m, level):
                        shape = positivity._grid_shape(a, b, level)
                        assert positivity._stratum_leg(a, b, level, c) == \
                            positivity._stratum_leg(*shape, level, c), (a, b, level, c)

    def test_perturbed_runs_equal_runs_with_every_leg_uncached(self, monkeypatch):
        cases = []
        for n, m, k in self.VECTORS:
            base = nc.certify_interval(n, m, k, _interior(k))
            grid = next(e.grid for e in base.trace if e.minimum == base.witness)
            key = min((base.witness.r1, base.witness.r2),
                      (grid.n - base.witness.r1, grid.m - base.witness.r2))
            cases.append((n, m, k, _interior(k), {key: -base.margin}))
        # k = 1: the strata with m >= 1 are scanned on regrouped (n + m - 1, 1) grids
        cases.append((5, 2, 1, F(5, 4), {(2, 0): F(-1, 7), (1, 1): F(1, 3)}))
        # (0, 2) labels cells of grids at levels 5..2 only: level 1 grids have m = 1
        cases.append((12, 3, 5, _interior(5), {(0, 2): F(-1, 50)}))
        for n, m, k, c, eps in cases:
            with monkeypatch.context() as patch:
                patch.setattr(positivity, "_cached_stratum_leg", positivity._stratum_leg)
                reference = nc.perturbed_certify(n, m, k, c, eps)
            positivity._clear_state()
            assert nc.perturbed_certify(n, m, k, c, eps) == reference
            nc.certify_interval(n, m, k, c)
            hits = positivity._cached_stratum_leg.cache_info().hits
            assert nc.perturbed_certify(n, m, k, c, eps) == reference
            assert positivity._cached_stratum_leg.cache_info().hits > hits
        # the last case's key labels cells at some levels only
        touched = {e.grid.k for e in reference.trace
                   if nc.BoundaryKey(0, 2).is_admissible(e.grid)
                   and nc.BoundaryKey(0, 2).is_canonical(e.grid)}
        assert touched and touched != set(range(1, 6))

    # bytes the 2048-entry memo held after an (8, 8, 60) certification on
    # CPython 3.11, when every leg kept its own c, a and b
    FOOTPRINT_2048 = 1285 * 1024

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="object sizes of CPython 3.11")
    def test_memo_footprint_stays_within_budget(self):
        positivity._clear_state()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nc.certify_interval(8, 8, 60, _interior(60)).trace  # about 3700 distinct legs
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = positivity._cached_stratum_leg.cache_info()
        assert info.currsize == info.maxsize
        assert held <= self.FOOTPRINT_2048 * 3 // 2, held


class TestStrataChecked:
    """strata_checked lists the legs' grids from level k down to 2, then the
    level-1 strata, each beside its leg in the trace; a level-1 stratum with
    m >= 2 is certified on its regrouped grid (n + m - 1, 1, 1)."""

    VECTORS = ((7, 0, 2), (9, 2, 4), (6, 1, 3), (5, 3, 1), (3, 3, 12), (4, 4, 2), (1, 5, 3))

    def certificates(self, n, m, k):
        lo, hi = nc.ample_interval(k)
        cs = (F(3, 4), F(5, 4), F(7, 10)) if k == 1 else (lo, _interior(k), hi)
        for c in cs:
            cert = nc.certify_interval(n, m, k, c)
            yield cert
            w, grid = cert.witness, next(e.grid for e in cert.trace if e.minimum == cert.witness)
            key = min((w.r1, w.r2), (grid.n - w.r1, grid.m - w.r2))
            yield nc.perturbed_certify(n, m, k, c, {key: F(1, 1000)})

    def test_each_stratum_is_its_legs_grid_or_regrouped(self):
        for n, m, k in self.VECTORS:
            for cert in self.certificates(n, m, k):
                assert len(cert.strata_checked) == len(cert.trace)
                for stratum, leg in zip(cert.strata_checked, cert.trace):
                    if stratum.k == 1 and stratum.m >= 2:
                        assert leg.grid == nc.make_weights(stratum.n + stratum.m - 1, 1, 1)
                    else:
                        assert stratum == leg.grid
                top = k - 1 if cert.c == nc.ample_interval(k)[1] else k
                assert [(s.n, s.m, s.k) for s in cert.strata_checked] == [
                    (a, b, level) for level in range(top, 0, -1)
                    for a, b in nc.reachable_strata(n, m, level)]


class TestTransportMemo:
    def test_each_shape_is_checked_once(self, monkeypatch):
        calls = []
        pullback = positivity.pullback_reduction

        def counted(cls):
            calls.append((cls.ambient.n, cls.ambient.m, cls.ambient.k))
            return pullback(cls)

        monkeypatch.setattr(positivity, "pullback_reduction", counted)
        positivity._clear_state()
        first = nc.certify_interval(9, 2, 5, _interior(5))
        second = nc.certify_interval(9, 2, 4, _interior(4))
        assert sorted(calls) == [(9, 2, level) for level in range(2, 6)]
        positivity._clear_state()
        assert nc.certify_interval(9, 2, 5, _interior(5)) == first
        assert nc.certify_interval(9, 2, 4, _interior(4)) == second

    def test_a_root_keeps_one_level_and_checks_each_level_once(self, monkeypatch):
        calls = []
        pullback = positivity.pullback_reduction
        monkeypatch.setattr(positivity, "pullback_reduction",
                            lambda cls: calls.append(cls.ambient.k) or pullback(cls))
        positivity._clear_state()
        for k, checked in ((4, [2, 3, 4]), (3, []), (6, [5, 6]), (6, [])):
            calls.clear()
            positivity._check_transport(9, 2, k)
            assert calls == checked, k
        assert positivity._transport_levels(9, 2) == [6]
        assert positivity._state_info()["_transport_levels"].currsize == 1
        positivity._clear_state()  # a cleared or evicted record checks again from level 2
        calls.clear()
        positivity._check_transport(9, 2, 3)
        assert calls == [2, 3]

    def test_a_certification_checks_transport_once(self, monkeypatch):
        calls = []
        check = positivity._check_transport
        monkeypatch.setattr(positivity, "_check_transport",
                            lambda *shape: calls.append(shape) or check(*shape))
        for k, c in ((2, _interior(2)), (5, _interior(5)), (5, nc.ample_interval(5)[0]),
                     (5, nc.ample_interval(5)[1]), (40, _interior(40))):
            for run in (lambda: nc.certify_interval(9, 2, k, c),
                        lambda: nc.perturbed_certify(9, 2, k, c, {(1, 1): F(-1, 64)})):
                for state in ("cold", "warm"):
                    if state == "cold":
                        positivity._clear_state()
                    calls.clear()
                    run()
                    assert calls == [(9, 2, k)], (k, c, state)
        positivity._clear_state()
        calls.clear()
        nc.certify_interval(9, 2, 1, F(3, 4))
        nc.perturbed_certify(9, 2, 1, F(7, 8), {(1, 1): F(-1, 64)})
        assert calls == []
        assert positivity._state_info()["_transport_levels"].currsize == 0

    def test_a_failed_identity_raises_every_time(self, monkeypatch):
        positivity._clear_state()
        monkeypatch.setattr(positivity, "pullback_reduction",
                            lambda cls: nc.zero_class(cls.ambient))
        for _ in range(2):
            with pytest.raises(NefcertError, match="transport identity failed"):
                nc.certify_interval(7, 0, 3, _interior(3))
        monkeypatch.undo()
        assert nc.certify_interval(7, 0, 3, _interior(3)).verdict == STRICTLY_POSITIVE


def _unregistered_memos():
    """module.name of every object with cache_clear in a nefcert module's
    namespace that positivity._STATE does not hold."""
    registered = [id(piece) for piece in positivity._STATE.values()]
    modules = [nc] + [importlib.import_module(f"nefcert.{info.name}")
                      for info in pkgutil.iter_modules(nc.__path__)]
    return [f"{module.__name__}.{name}" for module in modules
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear") and id(value) not in registered]


class TestProcessState:
    """positivity._STATE holds all process-wide state: four memos and the last
    f_values sweep. _clear_state empties it; _state_info reads it."""

    def test_every_piece_is_bounded(self):
        assert {name: info.maxsize for name, info in positivity._state_info().items()} == {
            "_cached_stratum_leg": 3072, "_leg_class": 1024, "_transport_levels": 4096,
            "_settled_cell": 256, "_last_sweep": 1}

    def test_every_memo_is_registered(self, monkeypatch):
        assert _unregistered_memos() == []
        monkeypatch.setattr(families, "_new_memo", functools.lru_cache(len), raising=False)
        assert _unregistered_memos() == ["nefcert.families._new_memo"]

    def test_clearing_leaves_every_piece_as_a_fresh_process_has_it(self):
        family = nc.family_from_json(
            (Path(__file__).with_name("families") / "chain.json").read_text())
        nc.certify_interval(9, 2, 4, _interior(4))
        nc.perturbed_certify(7, 0, 2, F(7, 10), {(3, 0): F(-1, 5)})
        nc.f_values(family, 3)
        assert all(info.currsize for info in positivity._state_info().values())
        positivity._clear_state()
        info = positivity._state_info()
        assert list(info) == list(positivity._STATE) and len(info) == 5
        assert {piece.currsize for piece in info.values()} == {0}
        assert {(piece.hits, piece.misses) for name, piece in info.items()
                if name != "_last_sweep"} == {(0, 0)}

    def test_a_cleared_leg_memo_evicts_as_a_fresh_one(self):
        def missed(memo):
            seen = []
            for key in range(60):  # 7 keys in turn overflow 4 entries
                misses = memo.cache_info().misses
                memo(key % 7)
                seen.append(memo.cache_info().misses > misses)
            return seen

        used = positivity._random_eviction_memo(str, 4)
        missed(used)
        used.cache_clear()
        assert missed(used) == missed(positivity._random_eviction_memo(str, 4))


def lowered_legs(monkeypatch, *shapes, value=F(-1)):
    """Serve the eps-free leg of each grid shape (n, m, k) of shapes with its
    least drop set to value; the memo itself keeps the true legs."""
    memo = positivity._cached_stratum_leg

    def patched(n, m, k, c):
        leg = memo(n, m, k, c)
        if (n, m, k) not in shapes:
            return leg
        low = leg.minimum
        return dataclasses.replace(leg, minimum=positivity.DropEvaluation(low.r1, low.r2, value))

    monkeypatch.setattr(positivity, "_cached_stratum_leg", patched)


class TestInconclusiveFold:
    """One negative leg, at level 1, at a base level or below the upper
    endpoint, makes the certificate inconclusive with its level's note."""

    @pytest.mark.parametrize("n, m, k, c, shape, notes", [
        (7, 0, 1, F(3, 4), (7, 0, 1),
         ("a stratum drop table reaches a negative value",)),
        (5, 2, 1, F(4, 5), (6, 1, 1),  # the root's regrouped grid
         ("a stratum drop table reaches a negative value",)),
        (7, 0, 2, F(7, 10), (7, 0, 2),
         ("a stratum base certificate has a negative drop",)),
        (9, 2, 4, F(61, 100), (7, 1, 4),
         ("a stratum base certificate has a negative drop",)),
        (7, 0, 2, F(7, 10), (7, 0, 1),
         ("upper-endpoint certificate failed; no convex combination available",)),
        (7, 0, 2, F(3, 4), (7, 0, 1),
         ("transported to k = 1 with vanishing exceptional coefficient",
          "lower-level certificate does not confine zeros to collapsed curves")),
        # the settled run of (3, 3, 12), levels 3..12: a negative end level is
        # not folded, and the run is walked level by level
        (3, 3, 12, F(337, 624), (3, 3, 3),
         ("upper-endpoint certificate failed; no convex combination available",)),
        (3, 3, 12, F(337, 624), (3, 3, 12),
         ("a stratum base certificate has a negative drop",)),
        (3, 3, 12, F(13, 24), (3, 3, 11),
         ("transported to k = 11 with vanishing exceptional coefficient",
          "lower-level certificate does not confine zeros to collapsed curves")),
    ], ids=["level-1", "level-1-regrouped", "base-level", "base-level-k-4",
            "interior-above-level-1", "upper-endpoint", "settled-run-low-end",
            "settled-run-top-end", "settled-run-top-end-upper-endpoint"])
    def test_one_negative_leg(self, monkeypatch, n, m, k, c, shape, notes):
        honest = nc.certify_interval(n, m, k, c)
        assert honest.verdict == STRICTLY_POSITIVE
        lowered_legs(monkeypatch, shape)
        cert = nc.certify_interval(n, m, k, c)
        assert (cert.verdict, cert.notes, cert.margin) == (INCONCLUSIVE, notes, F(-1))
        assert cert.zero_strata == ()
        monkeypatch.undo()
        assert nc.certify_interval(n, m, k, c) == honest


class TestLongChains:
    def test_k_600_needs_no_recursion(self):
        # the k -> 1 chain is a loop: 600 levels stay far inside the default
        # recursion limit
        assert sys.getrecursionlimit() < 3 * 600
        cert = nc.certify_interval(1, 3, 600, _interior(600))
        assert cert.verdict == STRICTLY_POSITIVE
        assert cert.margin > 0
        assert {w.k for w in cert.strata_checked} == set(range(1, 601))


def _refolded(cert):
    """cert's stored fields as the per-level fold gives them from its own trace,
    every level of the settled run included: the first least within a level,
    the higher level on a tie across levels, each level's verdict from its
    least drop, its zero strata and the level below (_transports,
    _level_verdict); a zero leg at level 1 puts its stratum among the zero
    strata. Only the stored fields are compared, as the derived ones are read
    off the same weights, c and eps."""
    n, m, k = cert.weights.n, cert.weights.m, cert.weights.k
    lo, hi = nc.ample_interval(k)
    levels = [list(legs) for _, legs in itertools.groupby(cert.trace, lambda leg: leg.grid.k)]
    witness, strict = None, True
    for level, legs in enumerate(reversed(levels), 1):
        if level > 1:
            strict = positivity._transports(verdict, zeros, witness, level)
        best = None
        for leg in legs:
            low = leg.minimum  # in integers: Fraction comparisons dominate otherwise
            if low is not None and (best is None or low.value.numerator * best.value.denominator
                                    < best.value.numerator * low.value.denominator):
                best = low
        if level == 1:
            zeros = [nc.make_weights(a, b, 1) for (a, b), leg in zip(
                nc.reachable_strata(n, m, 1), legs) if leg.minimum and leg.minimum.value == 0]
        else:
            zeros = [leg.grid for leg in legs if leg.grid.m < 2 and not positivity._below_cap(
                leg.c, level)] if level < k or cert.c == lo else []
        verdict, notes = positivity._level_verdict(
            level, strict, best.value if best else None, zeros)
        if best is not None and (witness is None or best.value <= witness.value):
            witness = best
    a = b = None
    if cert.c == hi:
        strict = positivity._transports(verdict, zeros, witness, k)
        verdict, zeros = STRICTLY_POSITIVE if strict else INCONCLUSIVE, []
        notes = (f"transported to k = {k - 1} with vanishing exceptional coefficient",) + (
            () if strict else ("lower-level certificate does not confine zeros to collapsed "
                               "curves",))
    else:
        a, b = levels[0][-1].a, levels[0][-1].b
    return dataclasses.replace(cert, verdict=verdict, a=a, b=b, witness=witness,
                               zero_strata=tuple(zeros), notes=notes)


class TestSettledRunFold:
    """An eps-free certificate folds its settled run, the levels max(2, n) up
    to the top, from the run's two end levels. The fold must give what every
    level of the run gives, folded one by one."""

    @pytest.mark.parametrize("n", range(9))
    def test_the_run_folds_as_every_level_does(self, n):
        for m in range(9):
            for k in range(2, 31):  # a k = 1 chain has no run
                if not nc.divisors.nonempty_moduli(n, m, k):
                    continue
                lo, hi = nc.ample_interval(k)
                for c in (lo, (lo + hi) / 2, hi):
                    cert = nc.certify_interval(n, m, k, c)
                    assert repr(_refolded(cert)._stored()) == repr(cert._stored()), (n, m, k, c)

    @pytest.mark.parametrize("shapes, value, level", [
        # a low end below the top end: the run's witness is the low end's
        (((3, 3, 3),), F(1, 10 ** 6), 3),
        # a negative level inside the run: walked, the top end's note is that
        # its upper endpoint failed, not that its own drop is negative
        (((3, 3, 11), (3, 3, 12)), F(-1), 12),
        # a run entered from an inconclusive level: folded, inconclusive throughout
        (((5, 1, 1),), F(-1), 1),
    ], ids=["low-end-witness", "negative-inside", "inconclusive-below"])
    def test_lowered_legs_fold_as_every_level_does(self, monkeypatch, shapes, value, level):
        lowered_legs(monkeypatch, *shapes, value=value)
        cert = nc.certify_interval(3, 3, 12, F(337, 624))
        assert repr(_refolded(cert)._stored()) == repr(cert._stored())
        assert cert.margin == value
        assert next(leg.grid.k for leg in cert.trace if leg.minimum == cert.witness) == level

    def test_a_deep_chain_looks_up_as_many_legs_at_any_k(self):
        lookups = []
        for k in (100, 1000):
            positivity._clear_state()
            nc.certify_interval(8, 8, k, _interior(k))
            info = positivity._state_info()["_cached_stratum_leg"]
            lookups.append(info.hits + info.misses)
        # levels 1..7 and the run's two ends, against 6,269 legs level by level at k = 100
        assert lookups[0] == lookups[1] < 1000, lookups

    def test_a_held_deep_certificate_keeps_no_legs_or_strata(self):
        c = _interior(1000)
        nc.certify_interval(8, 8, 1000, c)  # the memos hold what the second run reads
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cert = nc.certify_interval(8, 8, 1000, c)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cert.verdict == STRICTLY_POSITIVE
        assert held < 50 * 1024, held  # its 62,069 legs and strata are derived when read
        assert len(cert.trace) == len(cert.strata_checked) == 62069


class TestOracles:
    def test_single_step_admissibility_equals_validator(self):
        # abstract single-step families accepted by the validator realize
        # exactly the admissible pairs
        for n in range(0, 10):
            for m in range(0, 10 - n):
                for k in (1, 2, 3, 4, 5, 6):
                    try:
                        weights = nc.make_weights(n, m, k)
                    except InvalidWeights:
                        continue
                    accepted = {
                        (r1, r2)
                        for r1 in range(n + 1) for r2 in range(m + 1)
                        if not nc.validate_family(
                            nc.FamilyModel.abstract(weights, [(r1, r2)]))
                    }
                    assert accepted == set(nc.admissible_pairs(n, m, k))

    def test_sequences_sum_their_drops(self):
        for n, m, k in ((5, 0, 2), (3, 2, 2), (7, 0, 2), (5, 1, 3)):
            weights = nc.make_weights(n, m, k)
            pairs = nc.admissible_pairs(n, m, k)
            c0, _ = nc.c0_lower(n, m, k)
            a, b = nc.ab_substitution(n, m, k, c0)
            coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
            cert = nc.certify_generic(n, m, k, c0)
            for length in range(0, 4):
                for counts in itertools.product(pairs, repeat=length):
                    fam = nc.FamilyModel.abstract(weights, list(counts))
                    total = nc.combination_value(fam, a, b)
                    drops = [nc.drop_value(n, m, k, coeffs, r1, r2)
                             for r1, r2 in counts]
                    assert total == sum(drops, F(0))
                    if cert.verdict == STRICTLY_POSITIVE and length >= 1:
                        assert total > 0

    def test_corner_bound_from_convexity(self):
        # exhaustive minimum dominates the eight-corner minimum in the
        # two-parameter region with b > 1
        rng = random.Random(314159)
        checked = 0
        while checked < 100:
            n = rng.randint(3, 7)
            m = rng.randint(3, 10 - n)
            k = rng.randint(2, max(2, n - 1))
            if n < k + 1:
                continue
            try:
                nc.make_weights(n, m, k)
            except InvalidWeights:
                continue
            a = F(rng.randint(1, 40), rng.randint(1, 10))
            b = 1 + F(rng.randint(1, 30), rng.randint(1, 10))
            if F((k + 1) * (n - k - 1), n - 1) * a + F(k + 1, n) * b <= 1:
                continue
            coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
            corners = [(0, m), (0, 2), (1, 1), (k + 1, 0), (n, 0),
                       (n, m - 2), (n - 1, m - 1), (n - k - 1, m)]
            corner_min = min(nc.drop_value(n, m, k, coeffs, r1, r2)
                             for r1, r2 in corners)
            best = nc.min_drop(n, m, k, coeffs)
            if best is not None:
                assert best.value >= corner_min
            checked += 1

    def test_light_only_threshold_is_sharp(self):
        for k in (1, 2, 3, 4):
            for n in range(2 * k + 1, 13):
                bound = F(n - 1, (n - k - 1) * (k + 1))
                coeffs = nc.CoefficientVector.from_ab(n, 0, bound, 0)
                best = nc.min_drop(n, 0, k, coeffs)
                if best is None:
                    continue
                assert best.value == 0
                assert best.r1 == k + 1
                for bump in (F(1, 100), F(1, 7)):
                    above = nc.CoefficientVector.from_ab(n, 0, bound + bump, 0)
                    assert nc.min_drop(n, 0, k, above).value > 0

    def test_unweighted_warm_up_threshold(self):
        # at k = 1 the light-only bound specializes to (n-1)/(2(n-2)): the
        # drop at r contracted sections is c*r(n-r)/(n-1) - 1, minimal at r = 2
        for n in range(5, 13):
            c = F(n - 1, 2 * (n - 2))
            coeffs = nc.CoefficientVector.from_ab(n, 0, c, 0)
            best = nc.min_drop(n, 0, 1, coeffs)
            assert best.value == 0 and best.r1 == 2
            steps = tuple(nc.BlowdownStep.concrete({i, n}) for i in range(1, n))
            fam = nc.FamilyModel.concrete(nc.make_weights(n, 0, 1), steps,
                                          (0,) * (n - 1) + (2,))
            assert nc.evaluate_class(nc.dk_class(fam.weights, c), fam) == 0


@st.composite
def concrete_families(draw):
    """A valid concrete family (helpers.random_concrete_family_on) on a drawn
    (n, m, k) with n <= 8, m <= 4 and 2 <= k <= 4."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(0, 8))
    weights = nc.make_weights(n, draw(st.integers(max(0, least_nonempty_m(n, k)), 4)), k)
    family = random_concrete_family_on(random.Random(draw(st.integers(0, 2**32 - 1))), weights)
    assume(family is not None)
    return family


class TestCertificateSoundness:
    """Certificates checked against honest families: the certification engine
    and the family engine are independent routes to the same pairing."""

    def test_strict_certificates_hold_on_concrete_families(self):
        import random
        from helpers import random_concrete_family_on

        rng = random.Random(987654)
        spaces = [(7, 0, 2), (6, 1, 2), (4, 2, 2), (3, 2, 2), (5, 1, 3),
                  (6, 2, 3), (4, 1, 3), (2, 2, 3), (5, 0, 2)]
        for n, m, k in spaces:
            lo, hi = nc.ample_interval(k)
            for c in (lo + (hi - lo) * F(1, 3), hi):
                cert = nc.certify_interval(n, m, k, c)
                assert cert.verdict == STRICTLY_POSITIVE, (n, m, k, c)
                weights = nc.make_weights(n, m, k)
                produced = 0
                for _ in range(40):
                    fam = random_concrete_family_on(rng, weights)
                    if fam is None:
                        continue
                    produced += 1
                    value = nc.evaluate_class(nc.dk_class(weights, c), fam)
                    if fam.n_steps >= 1:
                        # a singular fiber forces a nonconstant family
                        assert value > 0, (n, m, k, c, fam)
                    else:
                        assert value >= 0, (n, m, k, c, fam)
                assert produced >= 20

    def test_strict_certificates_hold_on_reducible_fibers(self):
        import random
        from helpers import random_concrete_family_on

        rng = random.Random(24601)
        for n, m, k in ((7, 0, 2), (6, 1, 2), (6, 2, 3)):
            lo, hi = nc.ample_interval(k)
            c = lo + (hi - lo) * F(1, 2)
            assert nc.certify_interval(n, m, k, c).verdict == STRICTLY_POSITIVE
            weights = nc.make_weights(n, m, k)
            strata = [s for s in nc.reachable_strata(n, m, k) if s != (n, m)]
            checked = 0
            for _ in range(60):
                shape = rng.choice(strata)
                parts = []
                for n1, m1 in (shape, shape):
                    w1 = nc.make_weights(n1, m1, k)
                    fam = random_concrete_family_on(rng, w1)
                    if fam is None:
                        break
                    parts.append((w1, fam))
                if len(parts) != 2:
                    continue
                value = nc.stratified_evaluate(nc.dk_class(weights, c), parts)
                total_steps = sum(fam.n_steps for _, fam in parts)
                if total_steps >= 1:
                    assert value > 0, (n, m, k, c, shape)
                else:
                    assert value >= 0, (n, m, k, c, shape)
                checked += 1
            assert checked >= 30

    # k = 1 is left out: there validate_family accepts families whose light
    # sections meet at level 0, which two weight-one points cannot do, and
    # such a family can pair negatively with a strict certificate's ray
    @given(family=concrete_families())
    def test_certificates_bound_random_family_pairings(self, family):
        w = family.weights
        lo, hi = nc.ample_interval(w.k)
        for c in (lo, (lo + hi) / 2, hi):
            verdict = nc.certify_interval(w.n, w.m, w.k, c).verdict
            value = nc.evaluate_class(nc.dk_class(w, c), family)
            if verdict == STRICTLY_POSITIVE and family.n_steps:
                assert value > 0, c
            elif verdict in (STRICTLY_POSITIVE, ZERO_CHARACTERIZED):
                assert value >= 0, c

    def test_zero_characterization_is_realized(self):
        # at the lower endpoint a family moving inside a collapsed stratum
        # pairs to exactly zero: the sharp shape with equal terminal data
        for k in (2, 3, 4):
            lo = nc.ample_interval(k)[0]
            sharp = nc.make_weights(k + 1, 1, k)
            for e in (2, 4):
                fam = nc.FamilyModel.concrete(sharp, (), (e,) * (k + 1), (-e,))
                assert nc.validate_family(fam) == []
                assert nc.evaluate_class(nc.dk_class(sharp, lo), fam) == 0
                # interior values are positive on the same nonconstant family
                hi = nc.ample_interval(k)[1]
                mid = lo + (hi - lo) * F(1, 2)
                assert nc.evaluate_class(nc.dk_class(sharp, mid), fam) > 0

    def test_minimal_light_space_zero_is_realized(self):
        # the diagonal family on the minimal light-only space pairs to zero
        # exactly at the lower endpoint, matching its zero-stratum listing
        diagonal = nc.FamilyModel.concrete(nc.make_weights(5, 0, 2), (),
                                           (0, 0, 0, 0, 2))
        assert nc.evaluate_class(nc.dk_class(diagonal.weights, F(2, 3)),
                                 diagonal) == 0
        cert = nc.certify_interval(5, 0, 2, F(2, 3))
        assert cert.zero_strata == (nc.make_weights(5, 0, 2),)


# --- oracles for the integer kernels ------------------------------------------

def oracle_drop(n, m, coeffs, r1, r2):
    """The drop formula term by term in Fraction arithmetic."""
    value = -F(coeffs.a_delta)
    if n >= 2:
        value += coeffs.a_sigma * F(r1 * (n - r1), n - 1)
    if m >= 2:
        value += coeffs.a_tau * F(r2 * (m - r2), m - 1)
    if n >= 1 and m >= 1:
        value += coeffs.a_sigma_tau * F(r1 * (m - r2) + r2 * (n - r1), n * m)
    return value


def oracle_min(n, m, k, coeffs, eps=None):
    """Exhaustive (r1, r2, value) table in grid order; the first minimum wins."""
    best = None
    for r1 in range(n + 1):
        for r2 in range(m + 1):
            if not (F(r1, k) + r2 > 1 and F(n - r1, k) + (m - r2) > 1):
                continue
            value = oracle_drop(n, m, coeffs, r1, r2)
            if eps:
                key = nc.BoundaryKey(*min((r1, r2), (n - r1, m - r2)))
                value += eps.get(key, 0)
            if best is None or value < best[2]:
                best = (r1, r2, value)
    return best


def oracle_strata(n, m, k):
    """The strata closure as a Fraction-valued BFS over every split."""
    known = {}

    def valid(a, b):
        # the rational rule, evaluated once per factor shape
        if (a, b) not in known:
            known[a, b] = a >= 0 and b >= 0 and b + F(a, k) > 2
        return known[a, b]

    seen = {(n, m)}
    frontier = [(n, m)]
    while frontier:
        a, b = frontier.pop()
        for n1 in range(a + 1):
            for m1 in range(b + 1):
                factors = ((n1, m1 + 1), (a - n1, b - m1 + 1))
                if all(valid(*f) for f in factors):
                    for f in factors:
                        if f not in seen:
                            seen.add(f)
                            frontier.append(f)
    return sorted(seen)


def valid_grids(kmax, nmax, mmax):
    for k in range(1, kmax + 1):
        for n in range(nmax + 1):
            for m in range(mmax + 1):
                if m + F(n, k) > 2:
                    yield n, m, k


def as_triple(evaluation):
    return None if evaluation is None else (evaluation.r1, evaluation.r2, evaluation.value)


class TestIntegerKernels:
    # (a, b) pairs: a_sigma negative, zero and positive; b = 0 is forced at m = 0
    AB = ((F(-3, 7), F(5, 3)), (F(0), F(1, 2)), (F(2, 3), F(7, 5)), (F(11, 6), F(-1, 4)))

    def test_min_drop_matches_oracle_on_every_small_grid(self):
        checked = 0
        for n, m, k in valid_grids(6, 24, 5):
            # the ray substitution at c = 2/5 has a_sigma < 0 when m >= 2
            combos = [nc.ab_substitution(n, m, k, c) for c in (F(2, 5), F(7, 10))]
            combos += [(a, b if m else 0) for a, b in (self.AB[0], self.AB[3])]
            for a, b in combos:
                coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
                assert as_triple(nc.min_drop(n, m, k, coeffs)) == \
                    oracle_min(n, m, k, coeffs), (n, m, k, a, b)
                checked += 1
        assert checked > 3000

    def test_min_drop_matches_oracle_with_random_eps(self):
        rng = random.Random(20260)
        grids = list(valid_grids(6, 24, 5))
        for _ in range(600):
            n, m, k = rng.choice(grids)
            a, b = rng.choice(self.AB)
            coeffs = nc.CoefficientVector.from_ab(n, m, a, b if m else 0)
            # keys canonical in the grid, their complements (which match
            # nothing) and keys outside the grid
            eps = {}
            for _ in range(rng.randint(1, 6)):
                i, j = rng.randint(0, n + 2), rng.randint(0, m + 2)
                eps[nc.BoundaryKey(i, j)] = F(rng.randint(-40, 40), rng.randint(1, 12))
            assert as_triple(nc.min_drop(n, m, k, coeffs, eps)) == \
                oracle_min(n, m, k, coeffs, eps), (n, m, k, eps)

    def test_min_drop_matches_oracle_for_every_sign_of_the_weights(self):
        # an unshifted row is scored at its ends, and a convex one (a_tau < 0)
        # beside its vertex too: ties and vertices on, between and past the ends
        rng = random.Random(5150)
        grids = list(valid_grids(6, 30, 9))
        signs = Counter()
        for _ in range(1500):
            n, m, k = rng.choice(grids)
            coeffs = nc.CoefficientVector(*(F(rng.randint(-6, 6), rng.randint(1, 4))
                                            for _ in range(4)))
            eps = {nc.BoundaryKey(rng.randint(0, n), rng.randint(0, m)):
                   F(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(rng.choice((0, 0, 1, 3)))}
            signs[(coeffs.a_tau > 0) - (coeffs.a_tau < 0), bool(eps)] += 1
            assert as_triple(nc.min_drop(n, m, k, coeffs, eps)) == \
                oracle_min(n, m, k, coeffs, eps), (n, m, k, coeffs, eps)
        assert len(signs) == 6 and min(signs.values()) > 30

    def test_drop_value_matches_oracle_cell_by_cell(self):
        rng = random.Random(777)
        for n, m, k in valid_grids(3, 12, 4):
            a, b = rng.choice(self.AB)
            coeffs = nc.CoefficientVector.from_ab(n, m, a, b if m else 0)
            for r1 in range(n + 1):
                for r2 in range(m + 1):
                    assert nc.drop_value(n, m, k, coeffs, r1, r2) == \
                        oracle_drop(n, m, coeffs, r1, r2)

    def test_reachable_strata_matches_fraction_bfs(self):
        checked = 0
        for n, m, k in valid_grids(8, 24, 14):
            if m <= 4 or n + m <= 14:
                assert nc.reachable_strata(n, m, k) == oracle_strata(n, m, k), (n, m, k)
                checked += 1
        assert checked > 1200

    def test_strata_of_a_level_are_strata_one_level_down(self):
        for n, m, k in valid_grids(9, 30, 8):
            if k >= 2:
                assert set(nc.reachable_strata(n, m, k)) <= set(nc.reachable_strata(n, m, k - 1))

    def test_admissibility_rules_match_the_rational_rule(self):
        for k in range(1, 7):
            for n in range(0, 13):
                for m in range(0, 6):
                    nonempty = m + F(n, k) > 2
                    try:
                        weights = nc.make_weights(n, m, k)
                    except InvalidWeights as err:
                        assert not nonempty
                        assert str(err).endswith(f"= {m + F(n, k)} is not > 2")
                        continue
                    assert nonempty
                    for i in range(-1, n + 2):
                        for j in range(-1, m + 2):
                            rational = (0 <= i <= n and 0 <= j <= m
                                        and F(i, k) + j > 1 and F(n - i, k) + (m - j) > 1)
                            assert nc.BoundaryKey(i, j).is_admissible(weights) == rational


class TestScanRows:
    """_scan builds rows up to n // 2 only, where each cell comes before its
    complement, and when a_sigma >= 0 only the ends of the runs of rows with
    one range of counts and the shifted rows with their neighbours; the runs
    come from where heavy_counts changes."""

    def test_heavy_counts_changes_only_at_the_breakpoints(self):
        changes = 0
        for n in range(80):
            for m in range(10):
                for k in range(1, 16):
                    ends = [(r.start, r.stop) for r in
                            (nc.positivity.heavy_counts(n, m, k, r1) for r1 in range(n + 1))]
                    for r1 in range(1, n + 1):
                        if ends[r1] != ends[r1 - 1]:
                            assert r1 in (1, k + 1, n - k, n), (n, m, k, r1)
                            changes += 1
        assert changes > 30000

    @staticmethod
    def breakpoint_rows(n, k):
        """Rows at and beside each place heavy_counts changes."""
        return sorted({r1 + d for r1 in (1, k + 1, n - k, n) for d in (-1, 0, 1)
                       if 0 <= r1 + d <= n})

    def test_scan_matches_oracle_where_all_five_runs_exist(self):
        rng = random.Random(3090)
        seen = Counter()
        for _ in range(400):
            k = rng.randint(1, 6)
            n, m = rng.randint(30, 90), rng.randint(1 if k > 1 else 2, 6)
            assert n >= 2 * k + 2  # rows 0, 1..k, k+1..n-k-1, n-k..n-1 and n
            sign = rng.choice((-1, 0, 1))
            coeffs = nc.CoefficientVector(F(sign * rng.randint(1, 9), rng.randint(1, 5)),
                                          *(F(rng.randint(-6, 6), rng.randint(1, 4))
                                            for _ in range(3)))
            eps = {}
            for _ in range(rng.choice((0, 1, 2, 3))):
                i = rng.choice(self.breakpoint_rows(n, k) + [rng.randint(0, n)])
                j = rng.randint(0, m)
                eps[nc.BoundaryKey(*min((i, j), (n - i, m - j)))] = \
                    F(rng.randint(-9, 9), rng.randint(1, 5))
            labels = positivity._grid_labels(nc.make_weights(n, m, k), eps)
            seen[sign, bool(labels)] += 1
            assert as_triple(nc.min_drop(n, m, k, coeffs, eps)) == \
                oracle_min(n, m, k, coeffs, eps), (n, m, k, coeffs, eps)
        assert len(seen) == 6 and min(seen.values()) > 20, seen

    def test_labels_beside_a_breakpoint_on_every_row(self):
        # every canonical key on a row at or beside a breakpoint, lowered by
        # more than any drop difference, becomes the minimum there
        n, m, k = 40, 3, 4
        coeffs = nc.CoefficientVector.from_ab(n, m, *nc.ab_substitution(n, m, k, F(17, 30)))
        assert coeffs.a_sigma > 0
        for r1 in self.breakpoint_rows(n, k):
            for r2 in nc.positivity.heavy_counts(n, m, k, r1):
                eps = {nc.BoundaryKey(*min((r1, r2), (n - r1, m - r2))): F(-1000)}
                low = nc.min_drop(n, m, k, coeffs, eps)
                assert as_triple(low) == oracle_min(n, m, k, coeffs, eps), (r1, r2)
                assert (low.r1, low.r2) == min((r1, r2), (n - r1, m - r2))


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def wide_shapes():
    """The (m, k) of the benchmark's certify-wide shapes (perfbench/workloads.py,
    stdlib only, loaded from its path)."""
    spec = importlib.util.spec_from_file_location("nefcert_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({(m, k) for shapes in module.WIDE_CLASSES for _, m, k in shapes})


def composed_leg(n, m, k, c=None):
    """An eps-free leg through the Fraction path: c0_lower (or c at k = 1),
    ab_substitution, CoefficientVector.from_ab and min_drop on the leg's grid."""
    gn, gm = positivity._grid_shape(n, m, k)
    if k > 1:
        c, _ = nc.c0_lower(gn, gm, k)
        a, b = nc.ab_substitution(gn, gm, k, c)
    else:
        c = F(3, 4) if c is None else c
        a, b = nc.ab_substitution(gn, gm, k, min(c, 1) if gm else c)
    coeffs = nc.CoefficientVector.from_ab(gn, gm, a, b)
    return positivity.TraceEntry(nc.make_weights(gn, gm, k), c, a, b,
                                 nc.min_drop(gn, gm, k, coeffs))


class TestIntegerLegs:
    """Cold legs take (c, a, b) from their class and scan integer rows built
    from the numerators and denominators of a and b."""

    def test_cold_legs_equal_the_fraction_composition(self):
        checked = 0
        for n, m, k in valid_grids(30, 12, 8):
            for c in ((None,) if k > 1 else (None, F(7, 10), F(5, 4))):
                leg = positivity._stratum_leg(n, m, k, c)
                assert leg == composed_leg(n, m, k, c), (n, m, k, c)
                if k > 1:
                    assert positivity._below_cap(leg.c, k) == nc.c0_lower(n, m, k)[1]
                if k <= 6 and n <= 8:  # the exhaustive Fraction table, independent of the scan
                    coeffs = nc.CoefficientVector.from_ab(leg.grid.n, leg.grid.m, leg.a, leg.b)
                    assert as_triple(leg.minimum) == \
                        oracle_min(leg.grid.n, leg.grid.m, k, coeffs), (n, m, k, c)
                checked += 1
        assert checked > 3000

    def test_wide_legs_equal_the_fraction_composition(self):
        shapes = wide_shapes()
        assert len(shapes) >= 5
        for m, k in shapes:
            for n in range(12, 71):
                for level in (k, 2):
                    assert positivity._stratum_leg(n, m, level, None) == \
                        composed_leg(n, m, level), (n, m, level)


class TestSettledLegs:
    """A settled leg (k >= 2, n <= k, m >= 2) scores only the cell that is
    first least at both ends of its grid's c0 range, c0(max(2, n)) and 1/2;
    it must equal the full scan and the exhaustive Fraction table."""

    @staticmethod
    def full_scan(leg):
        return positivity._leg(leg.grid, leg.c, leg.a, leg.b)

    def test_settled_legs_equal_the_full_scan_and_the_fraction_table(self):
        settled = 0
        for n in range(13):
            for m in range(2, 9):
                for k in range(2, 61):  # below n too, where the rule must not apply
                    if not m + F(n, k) > 2:
                        continue
                    leg = positivity._stratum_leg(n, m, k, None)
                    assert leg == self.full_scan(leg), (n, m, k)
                    if n <= k and leg.minimum is not None:
                        coeffs = nc.CoefficientVector.from_ab(n, m, leg.a, leg.b)
                        assert as_triple(leg.minimum) == oracle_min(n, m, k, coeffs), (n, m, k)
                        settled += positivity._settled_cell(n, m) is not None
        assert settled > 4000

    def test_a_moved_cell_gives_the_full_scan(self, monkeypatch):
        monkeypatch.setattr(positivity, "_settled_cell", lambda n, m: None)
        for n, m, k in ((8, 8, 85), (2, 3, 2), (6, 2, 112), (12, 8, 12)):
            leg = positivity._stratum_leg(n, m, k, None)
            assert leg.minimum is not None and leg == self.full_scan(leg), (n, m, k)

    def test_a_cell_that_moves_between_the_ends_is_not_settled(self, monkeypatch):
        # read the lower end at c = 1 instead of 1/2: there the first least
        # cell differs from the one at c0(max(2, n)) on most grids
        monkeypatch.setattr(positivity, "_SETTLED_LOW", F(1))
        positivity._clear_state()
        try:
            seen = Counter()
            for n in range(13):
                for m in range(3 if n == 0 else 2, 9):
                    level = max(2, n)
                    cs, ends = (nc.c0_lower(n, m, level)[0], F(1)), []
                    for c in cs:
                        coeffs = nc.CoefficientVector.from_ab(
                            n, m, *nc.ab_substitution(n, m, level, c))
                        ends.append(oracle_min(n, m, level, coeffs))
                    cell = positivity._settled_cell(n, m)
                    if ends[0] is None or ends[0][:2] != ends[1][:2]:
                        assert cell is None, (n, m)
                    else:
                        r1, r2, base, slope, den = cell
                        assert (r1, r2) == ends[0][:2], (n, m)
                        # the cell's drop is the line through its drops at both ends
                        assert [F(base + slope * c, den) for c in cs] == \
                            [end[2] for end in ends], (n, m)
                    seen[cell is None] += 1
                    for k in (level, level + 1, 60):
                        leg = positivity._stratum_leg(n, m, k, None)
                        assert leg == self.full_scan(leg), (n, m, k)
            assert seen[True] > 40 and seen[False] > 10, seen
        finally:
            positivity._clear_state()

    def test_the_affine_drop_is_the_fraction_table_at_every_settled_level(self):
        settled = 0
        for n in range(13):
            for m in range(2, 9):
                level = max(2, n)
                if not m + F(n, level) > 2 or (cell := positivity._settled_cell(n, m)) is None:
                    continue
                r1, r2, base, slope, den = cell
                for k in (level, level + 1, 2 * level + 7, 250):
                    c, a, b = positivity._leg_class.__wrapped__(n, 2, k, None)
                    coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
                    assert (r1, r2, F(base + slope * c, den)) == oracle_min(n, m, k, coeffs), \
                        (n, m, k)
                settled += 1
        assert settled > 80


class TestLegPaths:
    """Every leg of a certificate is _leg's full scan at its class, whether it
    is computed cold, read from the memo or recomputed after an eviction."""

    @pytest.mark.parametrize("n, m, k", [(8, 8, 60), (1, 6, 120), (7, 7, 40), (3, 2, 90)])
    def test_cold_warm_and_evicted_legs_are_the_full_scan(self, monkeypatch, n, m, k):
        c = _interior(k)
        # a trace is rebuilt through the leg memo when read, so each repr is
        # taken while the memo is in the state named
        positivity._clear_state()
        cold = nc.certify_interval(n, m, k, c)
        cold_repr = repr(cold)
        hits = positivity._cached_stratum_leg.cache_info().hits
        warm_repr = repr(nc.certify_interval(n, m, k, c))
        assert positivity._cached_stratum_leg.cache_info().hits > hits
        small = positivity._random_eviction_memo(positivity._stratum_leg, 4)
        monkeypatch.setattr(positivity, "_cached_stratum_leg", small)
        evicted_repr = repr(nc.certify_interval(n, m, k, c))
        assert small.cache_info().misses > 100  # every miss past the fourth evicts a leg
        assert cold_repr == warm_repr == evicted_repr
        settled = 0
        for leg in cold.trace:
            grid = leg.grid  # level 1 of a chain from k >= 2 is at c = 3/4 (None)
            full = positivity._leg(grid, *positivity._leg_class.__wrapped__(
                grid.n, min(grid.m, 2), grid.k, None))
            assert leg == full, grid
            settled += (grid.k >= 2 and grid.n <= grid.k
                        and positivity._settled_cell(grid.n, grid.m) is not None)
        assert settled > len(cold.trace) // 2


class TestShiftedLegs:
    """A perturbed leg starts from the eps-free leg and scores only the cells
    eps lowers (or rescans when eps raises the eps-free minimizer); it must
    equal a full scan with eps and the exhaustive Fraction table."""

    @staticmethod
    def check(leg, eps):
        n, m, k = leg.grid.n, leg.grid.m, leg.grid.k
        coeffs = nc.CoefficientVector.from_ab(n, m, leg.a, leg.b)
        labels = {key for key in eps
                  if key.is_admissible(leg.grid) and key.is_canonical(leg.grid)}
        assert labels
        unused = set(eps) | {nc.BoundaryKey(n + 1, 0)}
        shifted = positivity._shifted_leg(leg, eps, unused)
        assert unused == set(eps) - labels | {nc.BoundaryKey(n + 1, 0)}
        full = nc.min_drop(n, m, k, coeffs, eps)
        assert shifted == positivity.TraceEntry(leg.grid, leg.c, leg.a, leg.b, full), \
            (n, m, k, eps)
        assert as_triple(full) == oracle_min(n, m, k, coeffs, eps), (n, m, k, eps)
        return shifted

    @staticmethod
    def cells(leg):
        n, m, k = leg.grid.n, leg.grid.m, leg.grid.k
        return [(r1, r2) for r1 in range(n + 1) for r2 in nc.positivity.heavy_counts(n, m, k, r1)]

    @staticmethod
    def key(leg, cell):
        n, m = leg.grid.n, leg.grid.m
        return nc.BoundaryKey(*min(cell, (n - cell[0], m - cell[1])))

    def drop(self, leg, cell):
        n, m, k = leg.grid.n, leg.grid.m, leg.grid.k
        coeffs = nc.CoefficientVector.from_ab(n, m, leg.a, leg.b)
        return nc.drop_value(n, m, k, coeffs, *cell)

    def legs(self):
        for n, m, k in valid_grids(6, 12, 6):
            if k > 1:
                yield positivity._stratum_leg(n, m, k, None)
            elif m:  # regrouped (n + m - 1, 1) grids at c = 3/4 and above 1
                for c in (None, F(5, 4)):
                    yield positivity._stratum_leg(n, m, 1, c)

    def test_random_grids_and_keys(self):
        rng = random.Random(4242)
        legs = [leg for leg in self.legs() if leg.minimum is not None]
        seen = Counter()
        for _ in range(1500):
            leg = rng.choice(legs)
            cells = self.cells(leg)
            low = leg.minimum
            first = self.key(leg, (low.r1, low.r2))
            eps = {}
            for _ in range(rng.randint(1, 3)):
                cell = rng.choice(cells + [(low.r1, low.r2)] * 3)  # favour the minimizer
                key = self.key(leg, cell)
                kind = rng.choice(("tie", "zero", "up", "down"))
                value = {"tie": low.value - self.drop(leg, cell), "zero": F(0),
                         "up": F(rng.randint(1, 9), rng.randint(1, 40)),
                         "down": -F(rng.randint(1, 9), rng.randint(1, 40))}[kind]
                eps[key] = value
            seen["rescan" if eps.get(first, 0) > 0 else
                 "lowered" if any(v < 0 for v in eps.values()) else "stands"] += 1
            seen["zero"] += any(v == 0 for v in eps.values())
            n, m = leg.grid.n, leg.grid.m
            seen["self-complementary"] += any((k.i, k.j) == (n - k.i, m - k.j) for k in eps)
            seen["k = 1"] += leg.grid.k == 1
            self.check(leg, eps)
        assert min(seen.values()) >= 20, seen

    def test_ties_at_the_minimum_keep_the_first_cell(self):
        rng = random.Random(99)
        legs = [leg for leg in self.legs() if leg.minimum is not None]
        checked = Counter()
        for _ in range(800):
            leg = rng.choice(legs)
            low = (leg.minimum.r1, leg.minimum.r2)
            for cell in rng.sample(self.cells(leg), 1):
                key = self.key(leg, cell)
                if key == self.key(leg, low):
                    continue
                # lowered exactly onto the minimum: grid order decides
                shifted = self.check(leg, {key: leg.minimum.value - self.drop(leg, cell)})
                first = min(cell, (leg.grid.n - cell[0], leg.grid.m - cell[1]), low)
                assert (shifted.minimum.r1, shifted.minimum.r2) == first
                checked[first == low] += 1
        assert checked[True] > 100 and checked[False] > 50, checked

    def test_raised_minimizer_rescans(self):
        # (9, 0, 2) at c0 = 4/7: drops 2/7, 3/7, 3/7, 2/7 at r1 = 3..6, and the
        # key (3, 0) labels the two least cells (3, 0) and (6, 0)
        leg = positivity._stratum_leg(9, 0, 2, None)
        assert (leg.minimum.r1, leg.minimum.r2, leg.minimum.value) == (3, 0, F(2, 7))
        for value in (F(1, 1000), F(-1, 1000), F(0)):
            shifted = self.check(leg, {nc.BoundaryKey(3, 0): value})
            assert (shifted.minimum.r1, shifted.minimum.r2) == (3, 0)
        raised = self.check(leg, {nc.BoundaryKey(3, 0): F(1)})
        assert (raised.minimum.r1, raised.minimum.r2, raised.minimum.value) == (4, 0, F(3, 7))
        # a leg whose cells eps only raises, away from its minimizer, stands as it is
        assert self.check(leg, {nc.BoundaryKey(4, 0): F(1)}) is leg

    # (8, 2, 2) at c0 = 17/32: the minimizer is (1, 1), 7/32, after (0, 2), 3/2,
    # and before (2, 1), 3/8; (0, 2) labels (8, 0) too, and (2, 1) labels (6, 1)
    def test_a_lowered_cell_that_ties_the_floor_wins_only_before_it(self):
        leg = positivity._stratum_leg(8, 2, 2, None)
        assert as_triple(leg.minimum) == (1, 1, F(7, 32))
        before = self.check(leg, {nc.BoundaryKey(0, 2): F(7, 32) - F(3, 2)})
        assert as_triple(before.minimum) == (0, 2, F(7, 32))
        # tied from a later cell, the floor stands: the leg itself, no new entry
        assert self.check(leg, {nc.BoundaryKey(2, 1): F(7, 32) - F(3, 8)}) is leg
        below = self.check(leg, {nc.BoundaryKey(2, 1): F(7, 32) - F(3, 8) - F(1, 96)})
        assert as_triple(below.minimum) == (2, 1, F(7, 32) - F(1, 96))

    def test_a_lowered_minimizer_is_scored_with_the_other_lowered_cells(self):
        leg = positivity._stratum_leg(8, 2, 2, None)
        one, two = nc.BoundaryKey(1, 1), nc.BoundaryKey(2, 1)
        kept = self.check(leg, {one: F(-1, 32), two: F(6, 32) - F(3, 8)})
        assert as_triple(kept.minimum) == (1, 1, F(6, 32)) and kept is not leg
        moved = self.check(leg, {one: F(-1, 32), two: F(5, 32) - F(3, 8)})
        assert as_triple(moved.minimum) == (2, 1, F(5, 32))

    def test_a_leg_that_eps_does_not_move_is_the_same_object(self):
        rng = random.Random(808)
        legs = [leg for leg in self.legs() if leg.minimum is not None]
        stood = 0
        for _ in range(600):
            leg = rng.choice(legs)
            low = (leg.minimum.r1, leg.minimum.r2)
            cell = rng.choice(self.cells(leg))
            key = self.key(leg, cell)
            # lowered, but by less than the cell's distance to the floor
            gap = self.drop(leg, cell) - leg.minimum.value
            if key != self.key(leg, low) and gap > 0:
                assert self.check(leg, {key: -gap * rng.randint(1, 99) / 100}) is leg
                stood += 1
        assert stood > 300

    @pytest.mark.parametrize("i, j", [(10, -1), (3, -1), (0, -1), (-1, 2), (-1, 0),
                                      (31, 0), (35, -2)])
    def test_keys_outside_the_grid_label_nothing(self, i, j):
        # on (30, 4, 3), i = 10 > 2k leaves heavy_counts' unclipped lower end
        # (k - i)//k + 1 = -2 below j = -1: the clip at 0 rules it out
        grid = nc.make_weights(30, 4, 3)
        key = nc.BoundaryKey(i, j)
        assert positivity._grid_labels(grid, {key: F(1, 100), nc.BoundaryKey(2, 5): 1}) == []
        leg = positivity._stratum_leg(30, 4, 3, None)
        unused = {key}
        assert positivity._shifted_leg(leg, {key: F(-1, 100)}, unused) is leg
        assert unused == {key}
        with pytest.raises(InvalidBoundaryKey, match=rf"\({i},{j}\)"):
            nc.perturbed_certify(30, 4, 3, F(5, 8) + F(1, 100), {(i, j): F(1, 100)})


# --- the case table written out in Fraction arithmetic ------------------------

def oracle_case(n, m, k, a, b):
    """(case, strict hypothesis) of positivity_case, None where no case applies."""
    if m == 0:
        return 1, a > F(n - 1, (n - k - 1) * (k + 1))
    if m == 1:
        if n == k + 1:
            return None
        return 2, a > F(n - 1, n * (k + 1))
    if 2 <= n <= k:
        return 3, a > 0 and b > 0
    if n >= k + 1:
        return 4, F((k + 1) * (n - k - 1), n - 1) * a + F(k + 1, n) * b > 1 and b > 1
    return None


def oracle_threshold(n, m, k):
    """(case, c, lo, hi) of threshold_c for k >= 2."""
    if m == 0:
        return 1, F(n - 1, 2 * (n - 2)), None, None
    if m == 1:
        if n == k + 1:
            return 5, F(k + 2, 2 * (k + 1)), None, None
        return 2, F(n + 1, 2 * n), None, None
    if n >= k + 1:
        return 4, None, F(1, 2), F(n + 1, 2 * n)
    return 3, None, F(1, 2), F(k + 2, 2 * (k + 1))


def oracle_c0(n, m, k):
    """(c0, strict) of c0_lower: the point, or the interval midpoint, below the cap."""
    _, c, lo, hi = oracle_threshold(n, m, k)
    c0 = c if c is not None else (lo + hi) / 2
    cap = F(k + 2, 2 * (k + 1))
    assert c0 <= cap
    return c0, c0 < cap


class TestCaseTable:
    """threshold_c, c0_lower, positivity_case and the leg classes all read one
    case table; here each is checked against the table in Fraction arithmetic
    on every valid (n <= 40, m <= 4, k <= 60)."""

    def test_thresholds_and_base_values_match_the_fraction_table(self):
        checked = 0
        for n, m, k in valid_grids(60, 40, 4):
            if k == 1:
                for function in (nc.threshold_c, nc.c0_lower):
                    with pytest.raises(InvalidWeights, match="k >= 2"):
                        function(n, m, k)
                continue
            threshold = nc.threshold_c(n, m, k)
            assert (threshold.case, threshold.c, threshold.lo, threshold.hi) == \
                oracle_threshold(n, m, k), (n, m, k)
            c0, strict = oracle_c0(n, m, k)
            assert nc.c0_lower(n, m, k) == (c0, strict), (n, m, k)
            assert strict or m < 2, (n, m, k)  # _certify reads the flag on m <= 1 legs only
            assert positivity._leg_class.__wrapped__(n, min(m, 2), k, None) == \
                (c0, *nc.ab_substitution(n, m, k, c0)), (n, m, k)
            checked += 1
        assert checked > 8000

    def test_positivity_case_matches_the_fraction_table(self):
        seen = Counter()
        for n, m, k in valid_grids(60, 40, 4):
            if oracle_case(n, m, k, F(0), F(0)) is None:
                with pytest.raises(NoCaseApplies):
                    nc.positivity_case(n, m, k, F(1), F(1))
                seen[None] += 1
                continue
            # a on each side of, and at, the bound of cases 1 and 2
            bound = (F(n - 1, (n - k - 1) * (k + 1)) if m == 0
                     else F(n - 1, n * (k + 1)) if m == 1 else F(1, 3))
            for a in (F(0), bound, bound + F(1, 7)):
                for b in (F(0), F(2)):
                    expected = oracle_case(n, m, k, a, b)
                    assert nc.positivity_case(n, m, k, a, b) == expected, (n, m, k, a, b)
                    seen[expected] += 1
        assert {key[0] for key in seen if key is not None} == {1, 2, 3, 4}
        assert seen[None] > 0 and all(seen[case, True] and seen[case, False]
                                      for case in (1, 2, 4))

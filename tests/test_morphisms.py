import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

import nefcert as nc
from nefcert.errors import AmbientMismatch, InvalidWeights, UnsupportedCoefficient


def random_tautological_class(rng, weights):
    def r():
        return F(rng.randint(-12, 12), rng.randint(1, 9))
    return nc.DivisorClass(weights, r(), tuple(r() for _ in range(weights.m)),
                           r(), r(), {})


class TestMorphismSpec:
    def test_reduction_from_unweighted(self):
        spec = nc.MorphismSpec.reduction_from_unweighted(nc.make_weights(5, 2, 3))
        assert spec.source == nc.make_weights(7, 0, 1)

    def test_reduction_from_unweighted_needs_k_at_least_two(self):
        with pytest.raises(InvalidWeights) as excinfo:
            nc.MorphismSpec.reduction_from_unweighted(nc.make_weights(5, 0, 1))
        assert str(excinfo.value) == "reduction from the unweighted space needs k >= 2"

    def test_reduction_step(self):
        spec = nc.MorphismSpec.reduction_step(nc.make_weights(7, 0, 3))
        assert spec.source == nc.make_weights(7, 0, 2)
        with pytest.raises(InvalidWeights):
            nc.MorphismSpec.reduction_step(nc.make_weights(5, 0, 1))

    def test_replacement(self):
        spec = nc.MorphismSpec.replacement(nc.make_weights(7, 0, 3))
        assert spec.source == nc.make_weights(4, 1, 3)
        with pytest.raises(InvalidWeights):
            nc.MorphismSpec.replacement(nc.make_weights(2, 2, 3))


class TestPushforward:
    def test_psi_rule(self):
        source = nc.make_weights(5, 0, 1)
        psi = nc.DivisorClass(source, 1, (), 0, 0, {})
        pushed = nc.pushforward_reduction(psi, nc.make_weights(5, 0, 2))
        assert (pushed.psi_sigma, pushed.delta_s, pushed.delta) == (1, 2, 0)

    def test_log_canonical_pushforward_normalizes_to_ray(self):
        # psi + (alpha-2) delta maps to psi_sigma + alpha delta_s + (alpha-2) delta,
        # whose 1/(2-alpha) multiple is the dk ray; checks c*alpha = 2c - 1 exactly
        rng = random.Random(5)
        for _ in range(40):
            alpha = F(rng.randint(0, 63), 64)
            form = nc.log_canonical_class(7, alpha)
            target = nc.make_weights(7, 0, 2)
            pushed = nc.pushforward_reduction(form.raw, target)
            assert pushed.delta_s == alpha
            c = 1 / (2 - alpha)
            assert c * alpha == 2 * c - 1
            scaled = nc.class_combine([(c, pushed)])
            assert scaled == nc.dk_class(target, c)

    def test_zero_class(self):
        source = nc.make_weights(5, 0, 1)
        pushed = nc.pushforward_reduction(nc.zero_class(source),
                                          nc.make_weights(5, 0, 2))
        assert pushed.is_zero()

    def test_heavy_sections_transport_unchanged(self):
        source = nc.make_weights(5, 0, 1)
        psi = nc.DivisorClass(source, 1, (), 0, 0, {})
        pushed = nc.pushforward_reduction(psi, nc.make_weights(3, 2, 2))
        assert pushed.psi_tau == (1, 1)
        assert pushed.delta_s == 2

    def test_rejects_other_coefficients(self):
        source = nc.make_weights(5, 0, 1)
        key = nc.canonical_boundary_key(source, 2, 0)
        with pytest.raises(UnsupportedCoefficient):
            nc.pushforward_reduction(
                nc.DivisorClass(source, 1, (), 0, 0, {key: F(1)}),
                nc.make_weights(5, 0, 2))

    def test_ambient_gate(self):
        with pytest.raises(AmbientMismatch):
            nc.pushforward_reduction(nc.zero_class(nc.make_weights(6, 0, 1)),
                                     nc.make_weights(5, 0, 2))


class TestPullbackReduction:
    def test_psi_sigma_rule(self):
        target = nc.make_weights(7, 0, 3)
        psi = nc.DivisorClass(target, 1, (), 0, 0, {})
        pulled = nc.pullback_reduction(psi)
        assert pulled.ambient == nc.make_weights(7, 0, 2)
        assert pulled.psi_sigma == 1
        assert pulled.boundary == {nc.BoundaryKey(3, 0): F(-3)}

    def test_exceptional_coefficient_vanishes_at_transport_value(self):
        # oracle: -ck + (2c-1) k(k-1)/2 + 1 = 0 exactly at c = (k+1)/(2k)
        for k in range(2, 21):
            c = F(k + 1, 2 * k)
            assert -c * k + (2 * c - 1) * F(k * (k - 1), 2) + 1 == 0
            top = nc.dk_class(nc.make_weights(2 * k + 1, 0, k), c)
            pulled = nc.pullback_reduction(top)
            assert pulled == nc.dk_class(nc.make_weights(2 * k + 1, 0, k - 1), c)
            assert not pulled.boundary

    def test_exceptional_coefficient_above_transport_value(self):
        for k in range(2, 11):
            for eps in (F(1, 100), F(1, 7), F(1)):
                c = F(k + 1, 2 * k) + eps
                top = nc.dk_class(nc.make_weights(2 * k + 1, 0, k), c)
                pulled = nc.pullback_reduction(top)
                expected = nc.class_combine([
                    (1, nc.dk_class(pulled.ambient, c)),
                    (eps * k * (k - 2),
                     nc.DivisorClass(pulled.ambient, 0, (), 0, 0,
                                     {nc.BoundaryKey(k, 0): F(1)})
                     if k != 2 else nc.zero_class(pulled.ambient)),
                ])
                assert pulled == expected

    def test_empty_exceptional_locus_gives_zero_class(self):
        # (2,2,5) -> (2,2,4): no boundary divisor with 5 light sections exists
        target = nc.make_weights(2, 2, 5)
        psi = nc.DivisorClass(target, 1, (F(0), F(0)), 0, 0, {})
        pulled = nc.pullback_reduction(psi)
        assert pulled.ambient == nc.make_weights(2, 2, 4)
        assert not pulled.boundary

    def test_rejects_boundary_coefficients(self):
        target = nc.make_weights(7, 0, 2)
        key = nc.canonical_boundary_key(target, 3, 0)
        with pytest.raises(UnsupportedCoefficient):
            nc.pullback_reduction(nc.DivisorClass(target, 1, (), 0, 0, {key: F(1)}))


class TestPullbackReplacement:
    def test_delta_rule(self):
        target = nc.make_weights(7, 0, 3)
        delta = nc.DivisorClass(target, 0, (), 0, 1, {})
        pulled = nc.pullback_replacement(delta)
        assert pulled.ambient == nc.make_weights(4, 1, 3)
        assert pulled.delta == 1 and pulled.psi_tau == (0,)

    def test_transport_value_keeps_all_entries_equal(self):
        for k in range(2, 21):
            c = F(k + 1, 2 * k)
            top = nc.dk_class(nc.make_weights(2 * k + 1, 1, k), c)
            pulled = nc.pullback_replacement(top)
            assert pulled == nc.dk_class(pulled.ambient, c)
            assert pulled.psi_tau == (F(1), F(1))

    def test_endpoint_correction(self):
        for k in range(2, 11):
            c0 = F(k + 1, 2 * k)
            for eps in (F(1, 100), F(1, 7), F(1)):
                top = nc.dk_class(nc.make_weights(2 * k + 1, 1, k), c0 + eps)
                pulled = nc.pullback_replacement(top)
                reference = nc.dk_class(pulled.ambient, c0 + eps)
                assert pulled.psi_sigma == reference.psi_sigma
                assert pulled.delta_s == reference.delta_s
                assert pulled.delta == reference.delta
                assert pulled.psi_tau[:-1] == reference.psi_tau[:-1]
                assert pulled.psi_tau[-1] == 1 - eps * k * (k - 2)

    def test_k2_correction_is_vacuous(self):
        rng = random.Random(17)
        for _ in range(10):
            c = F(rng.randint(-20, 40), rng.randint(1, 16))
            top = nc.dk_class(nc.make_weights(5, 0, 2), c)
            pulled = nc.pullback_replacement(top)
            assert pulled.psi_tau == (F(1),)


class TestLinearity:
    def test_transport_maps_commute_with_combinations(self):
        rng = random.Random(424242)
        target_red = nc.make_weights(7, 1, 3)
        target_rep = nc.make_weights(7, 1, 3)
        source_push = nc.make_weights(8, 0, 1)
        target_push = nc.make_weights(6, 2, 2)
        for _ in range(100):
            lam = F(rng.randint(-6, 6), rng.randint(1, 5))
            mu = F(rng.randint(-6, 6), rng.randint(1, 5))

            a = random_tautological_class(rng, target_red)
            b = random_tautological_class(rng, target_red)
            combo = nc.class_combine([(lam, a), (mu, b)])
            assert nc.pullback_reduction(combo) == nc.class_combine(
                [(lam, nc.pullback_reduction(a)), (mu, nc.pullback_reduction(b))])

            a = random_tautological_class(rng, target_rep)
            b = random_tautological_class(rng, target_rep)
            combo = nc.class_combine([(lam, a), (mu, b)])
            assert nc.pullback_replacement(combo) == nc.class_combine(
                [(lam, nc.pullback_replacement(a)), (mu, nc.pullback_replacement(b))])

            a = nc.DivisorClass(source_push, F(rng.randint(-9, 9), 4), (), 0,
                                F(rng.randint(-9, 9), 4), {})
            b = nc.DivisorClass(source_push, F(rng.randint(-9, 9), 4), (), 0,
                                F(rng.randint(-9, 9), 4), {})
            combo = nc.class_combine([(lam, a), (mu, b)])
            assert nc.pushforward_reduction(combo, target_push) == nc.class_combine(
                [(lam, nc.pushforward_reduction(a, target_push)),
                 (mu, nc.pushforward_reduction(b, target_push))])


class TestDerivedConstants:
    def test_pushforward_constants(self):
        for n in range(5, 13):
            assert nc.derive_pushforward_constants(n) == (2, 1)

    def test_pushforward_intermediates(self):
        for n in (5, 9, 12):
            weighted, stable = nc.pushforward_test_families(n)
            before = nc.intersection_numbers(weighted)
            after = nc.intersection_numbers(stable)
            assert before.psi_sigma_B == -2
            assert before.delta_s_B == n - 1
            assert after.psi_sigma_B == 2 * n - 4
            assert after.delta_B == n - 1  # one node per resolved collision

    def test_pullback_constant(self):
        for k in range(2, 11):
            assert nc.derive_pullback_constant(2 * k + 1, 0, k) == -k

    def test_pullback_curve_numbers(self):
        for k in range(2, 11):
            numbers = nc.pullback_test_numbers(2 * k + 1, 0, k)
            assert numbers["psi_sigma"] == -k
            assert numbers["psi_tau"] == 0
            assert numbers["delta_s"] == comb(k, 2)
            assert numbers["delta"] == -1
            assert numbers["exceptional"] == -1
            # the delta rule constant from the same projection formula
            assert -numbers["delta"] / numbers["exceptional"] == -1

    @pytest.mark.parametrize("derive, args, message", [
        (nc.derive_pullback_constant, (5, 0, 1), "a reduction step needs k >= 2"),
        (nc.pullback_test_curve, (2, 3, 3),
         "the contracted test curve needs n >= k light sections, got n = 2, k = 3"),
        (nc.derive_pullback_constant, (5, 0, 3), "empty moduli problem: m + n/k = 5/3 is not > 2"),
        (nc.derive_pullback_constant, (4, 0, 2), "empty moduli problem: m + n/k = 2 is not > 2"),
        (nc.pullback_test_numbers, (4, 2, 5), "the contracted test curve needs n >= k light "
                                              "sections, got n = 4, k = 5"),
    ])
    def test_pullback_curve_input_is_checked_in_the_callers_terms(self, derive, args, message):
        with pytest.raises(InvalidWeights) as excinfo:
            derive(*args)
        assert str(excinfo.value) == message

    def test_a_valid_target_with_n_at_least_k_has_valid_factors(self):
        checked = 0
        for n, m, k in itertools.product(range(14), range(6), range(1, 9)):
            try:
                nc.make_weights(n, m, k)
            except InvalidWeights:
                continue
            if k < 2 or n < k:
                with pytest.raises(InvalidWeights):
                    nc.pullback_test_curve(n, m, k)
                continue
            parts = nc.pullback_test_curve(n, m, k)
            assert [w for w, _ in parts] == [nc.make_weights(k, 1, k - 1),
                                              nc.make_weights(n - k, m + 1, k - 1)]
            assert nc.derive_pullback_constant(n, m, k) == -k
            checked += 1
        assert checked > 150

    def test_pushforward_needs_room(self):
        with pytest.raises(InvalidWeights):
            nc.derive_pushforward_constants(4)

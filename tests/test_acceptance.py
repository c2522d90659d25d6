"""Acceptance suite: every criterion is exact rational arithmetic, checked at
exact equality, and prints one pass line when it holds."""

import itertools
from fractions import Fraction as F

import pytest

import nefcert as nc
from nefcert.errors import COutOfInterval
from nefcert.positivity import STRICTLY_POSITIVE, ZERO_CHARACTERIZED
from helpers import random_family_batch


def test_criterion_1_pushforward_constants():
    for n in range(5, 13):
        constants = nc.derive_pushforward_constants(n)
        assert constants == (F(2), F(1)), (n, constants)
        # reconstructed, not hard-coded: the inputs are honest surface numbers
        weighted, stable = nc.pushforward_test_families(n)
        before = nc.intersection_numbers(weighted)
        after = nc.intersection_numbers(stable)
        assert before.delta_s_B == n - 1 and before.delta_B == 0
        assert after.delta_B == n - 1 and after.delta_s_B == 0
    print("PASS criterion 1: push-forward constants (2, 1) reconstructed for n = 5..12")


def test_criterion_2_pullback_constants():
    for k in range(2, 11):
        n = 2 * k + 1
        numbers = nc.pullback_test_numbers(n, 0, k)
        assert numbers["psi_sigma"] == -k
        assert numbers["delta_s"] == F(k * (k - 1), 2)
        assert numbers["delta"] == -1
        assert numbers["exceptional"] == -1
        assert nc.derive_pullback_constant(n, 0, k) == -k
    print("PASS criterion 2: pull-back constant -k recovered for k = 2..10")


def test_criterion_3_functoriality_identity():
    for k in range(2, 21):
        c = F(k + 1, 2 * k)
        for n, m in ((2 * k + 1, 0), (2 * k, 1)):
            pulled = nc.pullback_reduction(nc.dk_class(nc.make_weights(n, m, k), c))
            assert pulled == nc.dk_class(nc.make_weights(n, m, k - 1), c)
            assert not pulled.boundary  # exceptional coefficient exactly 0
    print("PASS criterion 3: reduction pull-back fixes the ray at (k+1)/(2k), k = 2..20")


def test_criterion_4_replacement_identity():
    for k in range(2, 11):
        c0 = F(k + 1, 2 * k)
        for eps in (F(1, 100), F(1, 7)):
            for n, m in ((2 * k + 1, 0), (2 * k + 1, 1)):
                pulled = nc.pullback_replacement(
                    nc.dk_class(nc.make_weights(n, m, k), c0 + eps))
                reference = nc.dk_class(pulled.ambient, c0 + eps)
                assert pulled.psi_tau[-1] - reference.psi_tau[-1] == -eps * k * (k - 2)
                assert pulled.psi_tau[:-1] == reference.psi_tau[:-1]
                assert (pulled.psi_sigma, pulled.delta_s, pulled.delta) == (
                    reference.psi_sigma, reference.delta_s, reference.delta)
    print("PASS criterion 4: replacement pull-back correction -eps*k*(k-2), k = 2..10")


def test_criterion_5_telescoping_on_random_families():
    families = random_family_batch(20240607, 200, max_total=8, max_steps=6)
    assert len(families) == 200
    for fam in families:
        w = fam.weights
        n, m = w.n, w.m
        assert n + m <= 8 and fam.n_steps <= 6
        assert nc.validate_family(fam) == []
        for i in range(fam.n_steps):
            step = fam.steps[i]
            lo = nc.f_values(fam, i)
            hi = nc.f_values(fam, i + 1)
            closed = (
                F(1),
                F(step.r1 * (n - step.r1), n - 1) if n >= 2 else F(0),
                F(step.r2 * (m - step.r2), m - 1) if m >= 2 else F(0),
                (F(step.r1 * (m - step.r2) + step.r2 * (n - step.r1), n * m)
                 if n >= 1 and m >= 1 else F(0)),
            )
            assert tuple(a - b for a, b in zip(lo, hi)) == closed
        report = nc.intersection_numbers(fam)
        f_delta, f_sigma, f_tau, f_mixed = nc.f_values(fam, 0)
        assert f_delta == report.delta_B
        assert f_sigma == (report.psi_sigma_B + F(2, n - 1) * report.delta_s_B
                           if n >= 2 else F(0))
        assert f_tau == (report.psi_tau_B if m >= 2 else F(0))
        assert f_mixed == (report.psi_sigma_B / n + report.psi_tau_B / m
                           if n >= 1 and m >= 1 else F(0))
    print("PASS criterion 5: telescoping and boundary identities on 200 random families")


def test_criterion_6_threshold_table():
    spot = {(7, 0, 2): F(3, 5), (5, 1, 3): F(3, 5), (4, 1, 3): F(5, 8)}
    cases_seen = set()
    for k in (2, 3, 4):
        for n in range(0, 11):
            for m in range(0, 11 - n):
                try:
                    nc.make_weights(n, m, k)
                except Exception:
                    continue
                threshold = nc.threshold_c(n, m, k)
                cases_seen.add(threshold.case)
                if (n, m, k) in spot:
                    assert threshold.c == spot[(n, m, k)], (n, m, k)
                if (n, m, k) == (4, 1, 3):
                    assert threshold.equality
                c0, _ = nc.c0_lower(n, m, k)
                cert = nc.certify_generic(n, m, k, c0)
                step_free = not nc.admissible_pairs(n, m, k)
                if threshold.case == 5:
                    assert step_free  # the sharp shape admits no blow-down
                if step_free:
                    assert cert.verdict == ZERO_CHARACTERIZED
                else:
                    assert cert.verdict == STRICTLY_POSITIVE, (n, m, k, cert.witness)
                    assert cert.witness.value > 0
    assert cases_seen == {1, 2, 3, 4, 5}
    print("PASS criterion 6: five threshold cases on k in {2,3,4}, n+m <= 10, "
          "zero pairing exactly for step-free configurations")


def test_criterion_7_sharp_zero_curve():
    for k in range(2, 11):
        n = 2 * k + 1
        parts = nc.pullback_test_curve(n, 0, k)
        cls = nc.dk_class(nc.make_weights(n, 0, k - 1), F(k + 1, 2 * k))
        assert nc.stratified_evaluate(cls, parts) == 0
    # the moving factor has shape (k, 1) one level down, and the lower-endpoint
    # certificate lists exactly that shape as the zero locus (k - 1 >= 2)
    for k in range(3, 11):
        level = k - 1
        cert = nc.certify_interval(2 * k + 1, 0, level, F(k + 1, 2 * k))
        assert cert.verdict == ZERO_CHARACTERIZED
        assert nc.make_weights(k, 1, level) in cert.zero_strata
    # at k = 2 the would-be carrier is a point: the zero locus contains no curve
    assert (2, 1) in nc.reachable_strata(5, 0, 1)
    assert nc.admissible_pairs(2, 1, 1) == []
    assert nc.certify_interval(5, 0, 1, F(3, 4)).verdict == STRICTLY_POSITIVE
    print("PASS criterion 7: contracted curve pairs to exactly 0 for k = 2..10 "
          "and the lower endpoint classifies its stratum shape")


def _interior_samples(limit=50):
    samples = []
    for k in (2, 3):
        lo, hi = nc.ample_interval(k)
        for total in range(5, 10):
            for n in range(0, total + 1):
                m = total - n
                try:
                    nc.make_weights(n, m, k)
                except Exception:
                    continue
                for j in (1, 2, 3):
                    c = lo + (hi - lo) * F(j, 4)
                    samples.append((n, m, k, c))
                    if len(samples) == limit:
                        return samples
    return samples


def test_criterion_8_ample_interval_certification():
    samples = _interior_samples(50)
    assert len(samples) == 50
    for n, m, k, c in samples:
        cert = nc.certify_interval(n, m, k, c)
        assert cert.verdict == STRICTLY_POSITIVE, (n, m, k, c, cert.notes)
        assert cert.margin is not None and cert.margin > 0, (n, m, k, c)
        keys = set()
        for entry in cert.trace:
            g = entry.grid
            for r1, r2 in nc.admissible_pairs(g.n, g.m, g.k):
                keys.add(nc.BoundaryKey(*min((r1, r2), (g.n - r1, g.m - r2))))
        half = nc.perturbed_certify(n, m, k, c,
                                    {key: -cert.margin / 2 for key in keys})
        assert half.verdict == STRICTLY_POSITIVE, (n, m, k, c)
        sharp = nc.perturbed_certify(n, m, k, c,
                                     {key: -cert.margin for key in keys})
        assert sharp.verdict != STRICTLY_POSITIVE, (n, m, k, c)
    print("PASS criterion 8: 50 interior certificates with positive margins; "
          "half-margin perturbations survive, exact-margin cancellations do not")


def test_criterion_9_brute_force_oracle():
    for n, m, k in ((5, 0, 2), (3, 2, 2), (7, 0, 2), (5, 1, 3)):
        weights = nc.make_weights(n, m, k)
        pairs = nc.admissible_pairs(n, m, k)
        c0, _ = nc.c0_lower(n, m, k)
        a, b = nc.ab_substitution(n, m, k, c0)
        coeffs = nc.CoefficientVector.from_ab(n, m, a, b)
        cert = nc.certify_generic(n, m, k, c0)
        sequences = 0
        for length in range(0, 4):
            for counts in itertools.product(pairs, repeat=length):
                fam = nc.FamilyModel.abstract(weights, list(counts))
                assert nc.validate_family(fam) == []
                total = nc.combination_value(fam, a, b)
                assert total == sum((nc.drop_value(n, m, k, coeffs, r1, r2)
                                     for r1, r2 in counts), F(0))
                if length >= 1:
                    if cert.verdict == STRICTLY_POSITIVE:
                        assert total > 0
                    elif cert.verdict == ZERO_CHARACTERIZED and cert.witness is None:
                        raise AssertionError("step sequences exist on a step-free space")
                sequences += 1
        if not pairs:
            assert sequences == 1  # only the empty sequence
    print("PASS criterion 9: sequence sums equal per-step drops and respect "
          "the issued certificates on all four reference spaces")


def test_criterion_10_log_canonical_models():
    # K + alpha*delta on M_0,n, normalized as c = 1/(2 - alpha): alpha in
    # [2/(k+2), 2/(k+1)] is the certified interval of the weights 1/k. n starts
    # at 5 because on (4,0,1) the class pairs to exactly 0 at c = 3/4.
    certificates = 0
    for n in range(5, 25):
        for k in range(1, (n + 1) // 2):
            lo, hi = nc.ample_interval(k)
            alpha_lo, alpha_hi = F(2, k + 2), F(2, k + 1)
            if k == 1:
                # the k = 1 interval is (2/3, unbounded); the alpha range maps into it
                points = [nc.alpha_to_c(alpha_lo), nc.alpha_to_c(alpha_hi), F(2)]
                assert points[:2] == [F(3, 4), F(1)]
            else:
                assert (nc.alpha_to_c(alpha_lo), nc.alpha_to_c(alpha_hi)) == (lo, hi)
                points = [hi] + [lo + (hi - lo) * F(i, 4) for i in (1, 2, 3)]
            for c in points:
                cert = nc.certify_interval(n, 0, k, c)
                assert cert.verdict == STRICTLY_POSITIVE, (n, k, c)
            certificates += len(points)
            if k >= 2:
                cert = nc.certify_interval(n, 0, k, lo)
                zero = {(w.n, w.m, w.k) for w in cert.zero_strata}
                if (n, k) == (5, 2):
                    assert cert.verdict == ZERO_CHARACTERIZED and zero == {(5, 0, 2)}
                elif n == 2 * k + 1:
                    assert cert.verdict == STRICTLY_POSITIVE and not zero, (n, k)
                else:
                    assert cert.verdict == ZERO_CHARACTERIZED, (n, k)
                    assert zero == {(k + 1, 1, k)}, (n, k, zero)
                certificates += 1
                with pytest.raises(COutOfInterval):
                    nc.certify_interval(n, 0, k, hi + F(1, 1000))
            with pytest.raises(COutOfInterval):
                nc.certify_interval(n, 0, k, lo - F(1, 1000))
    assert certificates == 610
    print("PASS criterion 10: K + alpha*delta certified on M_0,n for n = 5..24 at "
          "every weight 1/k, sharp at alpha = 2/(k+2)")

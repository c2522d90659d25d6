import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nefcert as nc
from nefcert.errors import (
    AlphaOutOfRange,
    AmbientMismatch,
    InvalidBoundaryKey,
    InvalidWeights,
    NefcertError,
    RecordFormatError,
)
from nefcert.divisors import least_nonempty_m, nonempty_moduli
from nefcert.rational import exact

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=32)


class TestWeights:
    def test_valid(self):
        assert nc.make_weights(5, 0, 2) == nc.WeightVector(5, 0, 2)
        assert nc.make_weights(3, 1, 2).label() == "3,1,2"

    def test_boundary_of_defining_inequality(self):
        with pytest.raises(InvalidWeights):
            nc.make_weights(4, 0, 2)  # 4/2 = 2, not > 2

    def test_mixed_weights_valid(self):
        nc.make_weights(3, 1, 2)  # 1 + 3/2 > 2

    @pytest.mark.parametrize("bad", [(-1, 3, 1), (3, -1, 1), (3, 1, 0), (3, 1, -2)])
    def test_ranges(self, bad):
        with pytest.raises(InvalidWeights):
            nc.make_weights(*bad)

    def test_integrality(self):
        with pytest.raises(InvalidWeights):
            nc.make_weights(5.0, 0, 2)

    @pytest.mark.parametrize("fields, message", [
        ((True, 0, 2), "n must be an integer, got True"),
        ((5, False, 2), "m must be an integer, got False"),
        ((5, 0, True), "k must be an integer, got True"),
        ((5.0, 0, 2), "n must be an integer, got 5.0"),
        ((5, 0.0, 2), "m must be an integer, got 0.0"),
        ((5, 0, 2.0), "k must be an integer, got 2.0"),
        (("5", 0, 2), "n must be an integer, got '5'"),
        ((5, "0", 2), "m must be an integer, got '0'"),
        ((5, 0, "2"), "k must be an integer, got '2'"),
        ((5, 0, 2.5), "k must be an integer, got 2.5"),
        # the type of each field is checked before any bound
        ((-1, 0.5, 0), "m must be an integer, got 0.5"),
        ((-1, 3, 1), "need n >= 0, m >= 0, k >= 1, got (n=-1, m=3, k=1)"),
        ((3, -1, 1), "need n >= 0, m >= 0, k >= 1, got (n=3, m=-1, k=1)"),
        ((3, 1, 0), "need n >= 0, m >= 0, k >= 1, got (n=3, m=1, k=0)"),
        ((4, 0, 2), "empty moduli problem: m + n/k = 2 is not > 2"),
        ((0, 2, 7), "empty moduli problem: m + n/k = 2 is not > 2"),
    ])
    def test_each_rejected_field_keeps_its_message(self, fields, message):
        with pytest.raises(InvalidWeights) as raised:
            nc.WeightVector(*fields)
        assert str(raised.value) == message

    def test_int_subclasses_are_integers(self):
        class Count(int):
            pass

        assert nc.WeightVector(Count(5), 0, Count(2)) == nc.make_weights(5, 0, 2)
        with pytest.raises(InvalidWeights, match=r"got \(n=5, m=0, k=0\)"):
            nc.WeightVector(5, Count(0), Count(0))
        with pytest.raises(InvalidWeights, match="empty moduli problem"):
            nc.WeightVector(Count(4), 0, 2)

    def test_least_nonempty_m_agrees_with_nonempty_moduli(self):
        # reachable_strata reads the least weight-one count of a stratum from it
        for k in range(1, 13):
            for n in range(41):
                least = least_nonempty_m(n, k)
                for m in range(-3, 12):
                    assert nonempty_moduli(n, m, k) == (m >= least), (n, m, k)


class TestBoundaryKey:
    def test_canonicalization(self):
        w = nc.make_weights(7, 0, 2)
        assert nc.canonical_boundary_key(w, 4, 0) == nc.BoundaryKey(3, 0)
        assert nc.canonical_boundary_key(w, 3, 0) == nc.BoundaryKey(3, 0)

    def test_admissibility(self):
        w = nc.make_weights(7, 0, 2)
        with pytest.raises(InvalidBoundaryKey):
            nc.canonical_boundary_key(w, 2, 0)  # 2/2 = 1 on the light side
        w2 = nc.make_weights(3, 2, 2)
        assert nc.canonical_boundary_key(w2, 1, 1) == nc.BoundaryKey(1, 1)
        assert nc.BoundaryKey(0, 2).is_admissible(w2)
        assert not nc.BoundaryKey(0, 1).is_admissible(w2)


@st.composite
def split_cells(draw):
    """A valid (n, m, k) with a boundary cell (i, j) that is not its own complement."""
    k = draw(st.integers(1, 6))
    n, m = draw(st.integers(0, 14)), draw(st.integers(0, 5))
    assume(nonempty_moduli(n, m, k))
    w = nc.make_weights(n, m, k)
    cells = [cell for cell in nc.admissible_pairs(n, m, k) if cell != (n - cell[0], m - cell[1])]
    assume(cells)
    i, j = draw(st.sampled_from(cells))
    return w, (i, j), (n - i, m - j)


class TestComplementSpellings:
    """A boundary divisor (i, j) is also named by its complement (n-i, m-j)."""

    @given(cell=split_cells(), value=small_rationals)
    def test_either_spelling_gives_one_answer(self, cell, value):
        w, key, other = cell

        def with_key(key):
            return nc.DivisorClass(w, F(0), (F(0),) * w.m, F(0), F(0), {key: value})

        assert with_key(key) == with_key(other) == with_key(nc.BoundaryKey(*other))
        assert nc.canonical_eps(w, {key: value}) == nc.canonical_eps(w, {other: value})
        records = [nc.class_from_record(f"boundary[{i},{j}] {value}\n", w) for i, j in (key, other)]
        assert records[0] == records[1] == nc.class_from_record(
            nc.class_to_record(with_key(other)), w) == with_key(key)

    @given(cell=split_cells())
    def test_a_key_with_its_complement_raises(self, cell):
        w, key, other = cell
        both = {key: F(1), other: F(2)}
        with pytest.raises(InvalidBoundaryKey, match="name the same boundary divisor"):
            nc.DivisorClass(w, F(0), (F(0),) * w.m, F(0), F(0), both)
        with pytest.raises(InvalidBoundaryKey, match="name the same boundary divisor"):
            nc.canonical_eps(w, both)


class TestDkClass:
    def test_plain(self):
        d = nc.dk_class(nc.make_weights(5, 0, 2), F(3, 4))
        assert d.psi_sigma == F(3, 4)
        assert d.delta_s == F(1, 2)
        assert d.delta == -1
        assert d.psi_tau == ()
        assert not d.boundary

    def test_collision_coefficient_vanishes_at_one_half(self):
        d = nc.dk_class(nc.make_weights(3, 2, 2), F(1, 2))
        assert d.delta_s == 0
        assert d.psi_tau == (1, 1)

    def test_unweighted_at_one_matches_log_canonical_normalization(self):
        # delta_s is carried formally but pairs to 0 on honest unweighted
        # families, so the two records agree in every other coefficient
        d = nc.dk_class(nc.make_weights(6, 0, 1), 1)
        normalized = nc.log_canonical_class(6, 1).normalized
        assert (d.psi_sigma, d.delta) == (normalized.psi_sigma, normalized.delta)
        assert d.psi_tau == normalized.psi_tau == ()
        assert not d.boundary and not normalized.boundary


class TestLogCanonical:
    def test_alpha_zero(self):
        form = nc.log_canonical_class(5, 0)
        assert form.raw.psi_sigma == 1 and form.raw.delta == -2

    def test_alpha_one(self):
        form = nc.log_canonical_class(5, 1)
        assert form.raw.delta == -1
        assert form.c == 1
        assert form.normalized == form.raw  # fixed point of the rescaling

    def test_out_of_range(self):
        for alpha in (F(-1, 10), F(11, 10)):
            with pytest.raises(AlphaOutOfRange):
                nc.log_canonical_class(5, alpha)

    def test_scaled_form(self):
        # scaling by 1/(2 - alpha) pins delta at -1 and psi at 1/(2 - alpha)
        rng = random.Random(7)
        for _ in range(50):
            alpha = F(rng.randint(0, 64), 64)
            form = nc.log_canonical_class(6, alpha)
            scaled = nc.class_combine([(1 / (2 - alpha), form.raw)])
            assert scaled.delta == -1
            assert scaled.psi_sigma == 1 / (2 - alpha)
            assert scaled == form.normalized


class TestAlphaCConvert:
    def test_interval_endpoint_images(self):
        # oracle: direct exact-rational evaluation of 1/(2 - alpha)
        for k in range(1, 21):
            assert nc.alpha_to_c(F(2, k + 1)) == F(k + 1, 2 * k)
            assert nc.alpha_to_c(F(2, k + 2)) == F(k + 2, 2 * k + 2)
        assert nc.alpha_to_c(1) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            nc.alpha_to_c(2)
        with pytest.raises(ZeroDivisionError):
            nc.c_to_alpha(0)

    def test_involution_on_sampled_rationals(self):
        rng = random.Random(20240401)
        for _ in range(1000):
            alpha = F(rng.randint(-200, 199), rng.randint(1, 100))
            if alpha == 2:
                continue
            assert nc.c_to_alpha(nc.alpha_to_c(alpha)) == alpha
            c = F(rng.randint(1, 400), rng.randint(1, 100))
            assert nc.alpha_to_c(nc.c_to_alpha(c)) == c

    def test_parameter_range_maps_onto_ray_range(self):
        # alpha in (2/(k+2), 2/(k+1)] maps exactly onto c in ((k+2)/(2k+2), (k+1)/(2k)]
        for k in range(1, 51):
            a_lo, a_hi = F(2, k + 2), F(2, k + 1)
            c_lo, c_hi = F(k + 2, 2 * k + 2), F(k + 1, 2 * k)
            assert nc.alpha_to_c(a_lo) == c_lo
            assert nc.alpha_to_c(a_hi) == c_hi
            previous = c_lo
            for j in range(1, 11):
                alpha = a_lo + (a_hi - a_lo) * F(j, 11)
                c = nc.alpha_to_c(alpha)
                assert c_lo < c < c_hi
                assert c > previous
                previous = c


class TestClassCombine:
    def test_additive_inverse(self):
        d = nc.dk_class(nc.make_weights(5, 0, 2), F(3, 4))
        assert nc.class_combine([(1, d), (-1, d)]).is_zero()

    def test_zero_scalar(self):
        d = nc.dk_class(nc.make_weights(5, 0, 2), F(3, 4))
        assert nc.class_combine([(0, d)]).is_zero()

    @given(c1=small_rationals, c2=small_rationals,
           lam=st.fractions(min_value=0, max_value=1, max_denominator=32),
           w=st.sampled_from([nc.make_weights(*t) for t in
                              ((4, 2, 3), (5, 0, 2), (7, 1, 2), (1, 2, 2),
                               (0, 3, 4), (6, 0, 1), (3, 2, 1))]))
    def test_ray_is_affine_in_c(self, c1, c2, lam, w):
        mixed = nc.class_combine([(lam, nc.dk_class(w, c1)),
                                  (1 - lam, nc.dk_class(w, c2))])
        assert mixed == nc.dk_class(w, lam * c1 + (1 - lam) * c2)

    def test_ambient_mismatch(self):
        d1 = nc.dk_class(nc.make_weights(5, 0, 2), 1)
        d2 = nc.dk_class(nc.make_weights(6, 0, 2), 1)
        with pytest.raises(AmbientMismatch):
            nc.class_combine([(1, d1), (1, d2)])

    def test_empty(self):
        with pytest.raises(ValueError) as excinfo:
            nc.class_combine([])
        assert isinstance(excinfo.value, NefcertError)
        assert str(excinfo.value) == "class_combine needs at least one term"

    def test_boundary_coefficients_merge_and_cancel(self):
        w = nc.make_weights(7, 0, 2)
        key = nc.canonical_boundary_key(w, 3, 0)
        a = nc.DivisorClass(w, 0, (), 0, 0, {key: F(1, 2)})
        b = nc.DivisorClass(w, 0, (), 0, 0, {key: F(-1, 2)})
        assert nc.class_combine([(1, a), (1, b)]).is_zero()


class TestRecordFormat:
    def test_round_trip(self):
        w = nc.make_weights(7, 1, 2)
        key = nc.canonical_boundary_key(w, 3, 0)
        cls = nc.DivisorClass(w, F(-3, 7), (F(5),), F(1, 3), F(-1), {key: F(2, 9)})
        assert nc.class_from_record(nc.class_to_record(cls), w) == cls

    def test_comments_and_defaults(self):
        w = nc.make_weights(5, 0, 2)
        cls = nc.class_from_record("# a comment\npsi_sigma 3/4\n", w)
        assert cls.psi_sigma == F(3, 4) and cls.delta == 0

    def test_rejects_unknown_and_repeated_keys(self):
        w = nc.make_weights(5, 0, 2)
        with pytest.raises(RecordFormatError):
            nc.class_from_record("psi 1\n", w)
        with pytest.raises(RecordFormatError):
            nc.class_from_record("delta 1\ndelta 2\n", w)
        with pytest.raises(RecordFormatError):
            nc.class_from_record("psi_tau[1] 1\n", w)  # m = 0
        with pytest.raises(RecordFormatError):
            nc.class_from_record("boundary[2,0] 1\n", w)  # inadmissible
        with pytest.raises(RecordFormatError):
            nc.class_from_record("delta 0.5\n", w)  # floats rejected

    @pytest.mark.parametrize("weights,text,first,second", [
        ((7, 0, 2), "boundary[3,0] 1\nboundary[4,0] 2\n", "boundary[3,0]", "boundary[4,0]"),
        ((3, 2, 2), "psi_tau[1] 5\npsi_tau[01] 7\n", "psi_tau[1]", "psi_tau[01]"),
    ], ids=["boundary", "psi_tau"])
    def test_rejects_two_spellings_of_one_coefficient(self, weights, text, first, second):
        with pytest.raises(RecordFormatError) as excinfo:
            nc.class_from_record(text, nc.make_weights(*weights))
        assert f"{first!r} and {second!r}" in str(excinfo.value)

    def test_serialized_rationals_are_reduced(self):
        w = nc.make_weights(5, 0, 2)
        cls = nc.DivisorClass(w, F(2, 4), (), F(0), F(-6, 3), {})
        record = nc.class_to_record(cls)
        assert "psi_sigma\t1/2" in record and "delta\t-2" in record


class TestClassErrors:
    """Each malformed class or record raises one message naming what is wrong."""

    def test_psi_tau_needs_one_entry_per_weight_one_section(self):
        with pytest.raises(ValueError) as excinfo:
            nc.DivisorClass(nc.make_weights(3, 2, 2), F(1), (F(1),), F(0), F(-1), {})
        assert isinstance(excinfo.value, NefcertError)
        assert str(excinfo.value) == \
            "psi_tau needs one entry per weight-one section (2), got 1"

    def test_a_tuple_key_is_a_boundary_key(self):
        w = nc.make_weights(7, 0, 2)
        spelled = nc.DivisorClass(w, F(1), (), F(0), F(-1), {(3, 0): F(2)})
        assert spelled == nc.DivisorClass(w, F(1), (), F(0), F(-1),
                                          {nc.BoundaryKey(3, 0): F(2)})
        assert list(spelled.boundary) == [nc.BoundaryKey(3, 0)]

    @pytest.mark.parametrize("key, expected", [
        ((2, 0), "(2,0) is not a boundary divisor on (7,0,2): both sides must carry weight > 1"),
        ((4, 0), (3, 0)),  # the complement spelling gives the canonical key's class
    ], ids=["inadmissible", "not-canonical"])
    def test_boundary_keys_must_be_canonical_and_admissible(self, key, expected):
        def with_key(key):
            return nc.DivisorClass(nc.make_weights(7, 0, 2), F(1), (), F(0), F(-1), {key: F(1)})

        if isinstance(expected, str):
            with pytest.raises(InvalidBoundaryKey) as excinfo:
                with_key(key)
            assert str(excinfo.value) == expected
        else:
            assert with_key(key) == with_key(expected)
            assert list(with_key(key).boundary) == [nc.BoundaryKey(*expected)]

    @pytest.mark.parametrize("text, message", [
        ("# ambient\npsi_sigma\n", "line 2: expected 'key value', got 'psi_sigma'"),
        ("psi_tau[x] 1\n", "bad psi_tau index in 'psi_tau[x]'"),
    ], ids=["no-value", "psi-tau-index"])
    def test_record_errors(self, text, message):
        with pytest.raises(RecordFormatError) as excinfo:
            nc.class_from_record(text, nc.make_weights(3, 2, 2))
        assert str(excinfo.value) == message


class TestExact:
    def test_reads_a_rational_literal(self):
        assert exact("-3/4") == F(-3, 4) and exact("5") == F(5)

    def test_rejects_a_malformed_literal(self):
        with pytest.raises(ValueError) as excinfo:
            exact("1.5")
        assert isinstance(excinfo.value, NefcertError)
        assert str(excinfo.value) == "not a rational literal: '1.5'"

    def test_rejects_other_objects(self):
        value = object()
        with pytest.raises(TypeError) as excinfo:
            exact(value)
        assert str(excinfo.value) == f"cannot interpret {value!r} as an exact rational"


class TestFloatRejection:
    def test_no_floats_anywhere(self):
        w = nc.make_weights(5, 0, 2)
        with pytest.raises(TypeError):
            nc.dk_class(w, 0.75)
        with pytest.raises(TypeError):
            nc.class_combine([(0.5, nc.dk_class(w, 1))])

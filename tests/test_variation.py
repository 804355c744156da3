import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvar import VariationSeries, align, compute_variation, variation
from spotvar.errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp

from conftest import MINUTE_MS, minute_grid, price_series

T0 = 1_504_224_000_000
LEGS = ("spot", "num", "den")


def _legs(spot, num, den, times=None):
    """The spot, num and den legs of these closes on one minute grid."""
    times = minute_grid(T0, len(spot)) if times is None else times
    return {name: price_series(name, times, closes)
            for name, closes in zip(LEGS, (spot, num, den))}


def _variation(spot, num, den):
    return compute_variation(align(_legs(spot, num, den)))


def _expected(legs):
    """The common minutes of `legs` and ln(spot) - (ln(num) - ln(den)) of
    the closes there, from `np.intersect1d`: the oracle `align` must equal
    bit for bit."""
    common = np.intersect1d(np.intersect1d(legs["spot"].times, legs["num"].times),
                            legs["den"].times)
    s, n, d = (legs[name].closes[np.isin(legs[name].times, common)] for name in LEGS)
    return common, np.log(s) - (np.log(n) - np.log(d))


class TestAlign:
    def test_full_overlap(self):
        legs = _legs([0.07, 0.071, 0.072], [2100.0, 2110.0, 2120.0], [30000.0, 30100.0, 30200.0])
        aligned = align(legs)
        assert len(aligned.times) == 3
        assert aligned.dropped == {"spot": 0, "num": 0, "den": 0}

    def test_intersection_semantics(self):
        times = minute_grid(T0, 3)
        legs = {"spot": price_series("spot", times[[0, 2]], [0.07, 0.072]),
                "num": price_series("num", times, [2100.0, 2110.0, 2120.0]),
                "den": price_series("den", times, [30000.0, 30100.0, 30200.0])}
        aligned = align(legs)
        assert aligned.times.tolist() == [times[0], times[2]]
        assert aligned.dropped == {"spot": 0, "num": 1, "den": 1}
        assert list(aligned.dropped) == list(LEGS)
        expected = np.log([0.07, 0.072]) - (np.log([2100.0, 2120.0]) - np.log([30000.0, 30200.0]))
        assert np.array_equal(aligned.values, expected)

    def test_empty_intersection(self):
        a = price_series("spot", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        b = price_series("num", minute_grid(T0 + 10 * MINUTE_MS, 3), [1.0, 1.0, 1.0])
        with pytest.raises(EmptyIntersection, match="across spot/num/spot$"):
            align({"spot": a, "num": b, "den": a})

    def test_a_later_legs_error_comes_before_the_empty_intersection(self):
        """num and den have no minute in common; spot, loaded last, still
        reports its own error."""
        a = price_series("num", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        b = price_series("den", minute_grid(T0 + 10 * MINUTE_MS, 3), [1.0, 1.0, 1.0])

        def spot():
            raise InvalidValue("spot: unreadable")

        with pytest.raises(InvalidValue, match="spot"):
            align({"spot": spot, "num": lambda: a, "den": lambda: b})

    def test_each_leg_is_released_before_the_next_is_read(self):
        times = minute_grid(T0, 5)
        refs, loaded = [], []

        def loader(name, t):
            def load():
                assert all(ref() is None for ref in refs), "an earlier leg is still held"
                loaded.append(name)
                leg = price_series(name, t, np.ones(len(t)))
                refs.append(weakref.ref(leg))
                return leg
            return load

        aligned = align({"spot": loader("spot", times), "num": loader("num", times[1:]),
                         "den": loader("den", times)})
        assert loaded == ["num", "den", "spot"]
        assert aligned.times.tolist() == times[1:].tolist()
        assert aligned.dropped == {"spot": 1, "num": 0, "den": 1}

    @pytest.mark.parametrize("slice_rows", [1, 7, variation._SLICE])
    def test_input_legs_are_left_untouched(self, monkeypatch, slice_rows):
        """`align` compacts only its own columns, so no input array changes,
        also when one leg is passed twice; and in slices of 1 and 7 rows,
        where the gaps cross slice edges, the result is the set
        intersection, as in one slice."""
        monkeypatch.setattr(variation, "_SLICE", slice_rows)
        rng = np.random.default_rng(11)
        grid = minute_grid(T0, 300)
        spot, num = (price_series(name, np.sort(rng.choice(grid, 250, replace=False)),
                                  rng.uniform(1, 2, 250)) for name in ("spot", "num"))
        before = [(leg.times.copy(), leg.closes.copy()) for leg in (spot, num)]
        legs = {"spot": spot, "num": num, "den": spot}
        aligned = align(legs)
        for leg, (times, closes) in zip((spot, num), before):
            assert np.array_equal(leg.times, times) and np.array_equal(leg.closes, closes)
        common, values = _expected(legs)
        assert np.array_equal(aligned.times, common)
        assert np.array_equal(aligned.values, values)
        assert np.array_equal(compute_variation(aligned).values, values)

    @pytest.mark.parametrize("count", [2, 4])
    def test_three_legs_exactly(self, count):
        """A mapping that lacks a leg, whichever, or holds one more."""
        leg = price_series("spot", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        for names in itertools.combinations((*LEGS, "extra"), count):
            with pytest.raises(ValueError, match="spot, num and den"):
                align(dict.fromkeys(names, leg))

    def test_randomized_subsets_match_set_intersection(self):
        rng = np.random.default_rng(3)
        grid = minute_grid(T0, 1000)
        for _ in range(20):
            subsets = [
                np.sort(rng.choice(grid, size=rng.integers(400, 1000), replace=False))
                for _ in range(3)
            ]
            legs = {name: price_series(name, s, rng.uniform(1, 2, len(s)))
                    for name, s in zip(LEGS, subsets)}
            expected = set(subsets[0]) & set(subsets[1]) & set(subsets[2])
            aligned = align(legs)
            assert len(aligned.times) == len(expected)
            assert set(aligned.times.tolist()) == expected

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200),
            min_size=3,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_intersect1d_without_assume_unique(self, minutes, seed):
        """Legs with gaps, folded in slices of 1, 7 and 10,000 rows: the same
        times and `dropped` as the hashing `np.intersect1d` the sorted-input
        align replaced, and the variation of the closes there bit for bit."""
        rng = np.random.default_rng(seed)
        times = [T0 + MINUTE_MS * np.unique(np.array(m, dtype=np.int64)) for m in minutes]
        legs = {name: price_series(name, t, rng.uniform(0.5, 2.0, len(t)))
                for name, t in zip(LEGS, times)}
        common, values = _expected(legs)
        for slice_rows in (1, 7, variation._SLICE):
            with mock.patch.object(variation, "_SLICE", slice_rows):
                if len(common) == 0:
                    with pytest.raises(EmptyIntersection):
                        align(legs)
                    continue
                aligned = align(legs)
            assert np.array_equal(aligned.times, common)
            assert np.array_equal(aligned.values, values)
            for name, leg in legs.items():
                assert aligned.dropped[name] == len(leg) - len(common)


class TestComputeVariation:
    def test_quotient_equals_spot_is_near_zero(self):
        # 2100/30000 == 0.07 in the reals; float log rounding leaves <= 1 ulp
        var = _variation([0.07], [2100.0], [30000.0])
        assert abs(var.values[0]) <= 1e-15

    def test_exact_zero_when_legs_cancel_exactly(self):
        assert _variation([0.07, 0.08], [0.07, 0.08], [1.0, 1.0]).values.tolist() == [0.0, 0.0]

    def test_against_high_precision_log_oracle(self):
        # mpmath 50-digit evaluation of ln(0.0702) - ln(2100/30000)
        expected = 0.0028530689824064465151
        assert _variation([0.0702], [2100.0], [30000.0]).values[0] == pytest.approx(expected, rel=1e-12)

    def test_non_positive_price_rejected(self):
        # no PriceSeries holds such a price, so `align` never takes its log;
        # VariationSeries' check rejects the value it gives at its row
        with np.errstate(invalid="ignore"):
            values = np.log([0.07, -0.07]) - (np.log([2100.0] * 2) - np.log([30000.0] * 2))
        with pytest.raises(InvalidValue, match="at row 1$"):
            compute_variation(variation.Aligned(minute_grid(T0, 2), values, {}))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=100)
    def test_scale_invariance(self, k):
        # bound is one ulp of ln at the magnitudes involved; the two leg
        # logs each round once, so exact 1e-15 is not representable here
        spot = np.array([0.07, 0.0702, 0.069])
        num = np.array([2100.0, 2105.0, 2095.0])
        den = np.array([30000.0, 30010.0, 29990.0])
        base = _variation(spot, num, den).values
        scaled = _variation(spot, k * num, k * den).values
        assert np.all(np.abs(scaled - base) <= 4e-15)

    def test_antisymmetry_swapped_roles(self):
        # quotient leg constructed to equal the spot leg exactly
        spot = np.array([0.07, 0.0702, 0.069])
        var = _variation(spot, spot, np.ones(3))
        assert np.all(var.values == 0.0)

    def test_reconstructs_log_spot(self):
        rng = np.random.default_rng(5)
        spot = rng.uniform(0.01, 0.1, 500)
        num = rng.uniform(1000, 3000, 500)
        den = rng.uniform(20000, 60000, 500)
        var = _variation(spot, num, den)
        recon = var.values + (np.log(num) - np.log(den))
        assert np.all(np.abs(recon - np.log(spot)) <= 1e-12)

    def test_log_difference_vs_log_quotient(self):
        rng = np.random.default_rng(6)
        num = rng.uniform(1000, 3000, 1000)
        den = rng.uniform(20000, 60000, 1000)
        assert np.all(np.abs((np.log(num) - np.log(den)) - np.log(num / den)) < 1e-14)


class TestVariationSeriesValues:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        # an infinity is named at its row, as a NaN is through
        # `compute_variation` (TestComputeVariation)
        with pytest.raises(InvalidValue, match="at row 1$"):
            VariationSeries(minute_grid(T0, 3), [0.1, bad, 0.2])


class TestVariationSeriesOrder:
    """Neighbouring times are compared, not differenced: the difference
    of two int64 times can wrap."""

    def test_times_far_apart_in_order_are_accepted(self):
        var = VariationSeries(np.array([-2, 2**63 - 1]), np.array([0.1, 0.2]))
        assert var.times.tolist() == [-2, 2**63 - 1]

    def test_times_far_apart_out_of_order_are_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            VariationSeries(np.array([2**63 - 1, -2]), np.array([0.1, 0.2]))


class TestVariationSeriesCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(9)
        var = VariationSeries(minute_grid(T0, 50), rng.normal(0, 1e-4, 50))
        path = tmp_path / "variation.csv"
        var.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "open_time_ms,variation"
        back = VariationSeries.from_csv(path)
        assert np.array_equal(back.times, var.times)
        assert np.array_equal(back.values, var.values)  # >= 17 sig digits

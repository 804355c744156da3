import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvar import VariationSeries, align, compute_variation, variation
from spotvar.errors import EmptyIntersection, InvalidValue, NonMonotonicTimestamp
from spotvar.variation import AlignedTriple

from conftest import MINUTE_MS, minute_grid, price_series

T0 = 1_504_224_000_000


def _triple(spot, num, den, n=None):
    n = n or len(spot)
    return AlignedTriple(
        times=minute_grid(T0, n),
        spot=np.asarray(spot, dtype=float),
        num=np.asarray(num, dtype=float),
        den=np.asarray(den, dtype=float),
    )


class TestAlign:
    def test_full_overlap(self):
        times = minute_grid(T0, 3)
        a = price_series("spot", times, [0.07, 0.071, 0.072])
        b = price_series("num", times, [2100.0, 2110.0, 2120.0])
        c = price_series("den", times, [30000.0, 30100.0, 30200.0])
        triple = align([a, b, c])
        assert len(triple.times) == 3
        assert triple.dropped == {"spot": 0, "num": 0, "den": 0}

    def test_intersection_semantics(self):
        times = minute_grid(T0, 3)
        spot = price_series("spot", times[[0, 2]], [0.07, 0.072])
        num = price_series("num", times, [2100.0, 2110.0, 2120.0])
        den = price_series("den", times, [30000.0, 30100.0, 30200.0])
        triple = align([spot, num, den])
        assert triple.times.tolist() == [times[0], times[2]]
        assert triple.dropped == {"spot": 0, "num": 1, "den": 1}
        assert triple.num.tolist() == [2100.0, 2120.0]

    def test_empty_intersection(self):
        a = price_series("spot", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        b = price_series("num", minute_grid(T0 + 10 * MINUTE_MS, 3), [1.0, 1.0, 1.0])
        with pytest.raises(EmptyIntersection):
            align([a, b, a])

    def test_a_later_legs_error_comes_before_the_empty_intersection(self):
        a = price_series("spot", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        b = price_series("num", minute_grid(T0 + 10 * MINUTE_MS, 3), [1.0, 1.0, 1.0])

        def legs():
            yield a
            yield b
            raise InvalidValue("den: unreadable")

        with pytest.raises(InvalidValue, match="den"):
            align(legs())

    def test_each_leg_is_released_before_the_next_is_read(self):
        times = minute_grid(T0, 5)
        refs = []

        def legs():
            for name, t in (("spot", times), ("num", times[1:]), ("den", times)):
                assert all(ref() is None for ref in refs), "an earlier leg is still held"
                leg = price_series(name, t, np.ones(len(t)))
                refs.append(weakref.ref(leg))
                yield leg
                del leg

        triple = align(legs())
        assert triple.times.tolist() == times[1:].tolist()
        assert triple.dropped == {"spot": 1, "num": 0, "den": 1}

    @pytest.mark.parametrize("slice_rows", [1, 7, variation._SLICE])
    def test_input_legs_are_left_untouched(self, monkeypatch, slice_rows):
        """`align` compacts only its own copies of the kept columns, so no
        input array changes, also when one leg is passed twice; and in
        slices of 1 and 7 rows, where the gaps cross slice edges, the
        result is the set intersection, as in one slice."""
        monkeypatch.setattr(variation, "_SLICE", slice_rows)
        rng = np.random.default_rng(11)
        grid = minute_grid(T0, 300)
        spot, num = (price_series(name, np.sort(rng.choice(grid, 250, replace=False)),
                                  rng.uniform(1, 2, 250)) for name in ("spot", "num"))
        before = [(leg.times.copy(), leg.closes.copy()) for leg in (spot, num)]
        triple = align([spot, num, spot])
        for leg, (times, closes) in zip((spot, num), before):
            assert np.array_equal(leg.times, times) and np.array_equal(leg.closes, closes)
        common = np.intersect1d(spot.times, num.times)
        assert np.array_equal(triple.times, common)
        for got, leg in zip((triple.spot, triple.num, triple.den), (spot, num, spot)):
            assert np.array_equal(got, leg.closes[np.isin(leg.times, common)])
        var = compute_variation(triple)
        assert np.array_equal(var.values, np.log(triple.spot) - (np.log(triple.num)
                                                                 - np.log(triple.den)))

    @pytest.mark.parametrize("count", [2, 4])
    def test_three_legs_exactly(self, count):
        leg = price_series("spot", minute_grid(T0, 3), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="spot, num and den"):
            align([leg] * count)

    def test_randomized_subsets_match_set_intersection(self):
        rng = np.random.default_rng(3)
        grid = minute_grid(T0, 1000)
        for _ in range(20):
            subsets = [
                np.sort(rng.choice(grid, size=rng.integers(400, 1000), replace=False))
                for _ in range(3)
            ]
            series = [
                price_series(f"s{i}", s, rng.uniform(1, 2, len(s)))
                for i, s in enumerate(subsets)
            ]
            expected = set(subsets[0]) & set(subsets[1]) & set(subsets[2])
            triple = align(series)
            assert len(triple.times) == len(expected)
            assert set(triple.times.tolist()) == expected


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
        """Legs with gaps: the same times, closes and `dropped` as the
        hashing `np.intersect1d` the sorted-input align replaced."""
        rng = np.random.default_rng(seed)
        times = [T0 + MINUTE_MS * np.unique(np.array(m, dtype=np.int64)) for m in minutes]
        legs = [price_series(name, t, rng.uniform(0.5, 2.0, len(t)))
                for name, t in zip(("spot", "num", "den"), times)]
        common = np.intersect1d(np.intersect1d(times[0], times[1]), times[2])
        if len(common) == 0:
            with pytest.raises(EmptyIntersection):
                align(legs)
            return
        triple = align(legs)
        assert np.array_equal(triple.times, common)
        for name, leg in zip(("spot", "num", "den"), legs):
            assert np.array_equal(getattr(triple, name), leg.closes[np.isin(leg.times, common)])
            assert triple.dropped[name] == len(leg) - len(common)


class TestComputeVariation:
    def test_quotient_equals_spot_is_near_zero(self):
        # 2100/30000 == 0.07 in the reals; float log rounding leaves <= 1 ulp
        triple = _triple([0.07], [2100.0], [30000.0])
        var = compute_variation(triple)
        assert abs(var.values[0]) <= 1e-15

    def test_exact_zero_when_legs_cancel_exactly(self):
        triple = _triple([0.07, 0.08], [0.07, 0.08], [1.0, 1.0])
        assert compute_variation(triple).values.tolist() == [0.0, 0.0]

    def test_against_high_precision_log_oracle(self):
        # mpmath 50-digit evaluation of ln(0.0702) - ln(2100/30000)
        expected = 0.0028530689824064465151
        triple = _triple([0.0702], [2100.0], [30000.0])
        assert compute_variation(triple).values[0] == pytest.approx(expected, rel=1e-12)

    def test_non_positive_price_rejected(self):
        # no PriceSeries holds such a price; a hand-built triple gets a
        # non-finite variation value, rejected at its row
        triple = _triple([0.07, -0.07], [2100.0, 2100.0], [30000.0, 30000.0])
        with pytest.raises(InvalidValue, match="at row 1$"), np.errstate(invalid="ignore"):
            compute_variation(triple)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=100)
    def test_scale_invariance(self, k):
        # bound is one ulp of ln at the magnitudes involved; the two leg
        # logs each round once, so exact 1e-15 is not representable here
        spot = np.array([0.07, 0.0702, 0.069])
        num = np.array([2100.0, 2105.0, 2095.0])
        den = np.array([30000.0, 30010.0, 29990.0])
        base = compute_variation(_triple(spot, num, den)).values
        scaled = compute_variation(_triple(spot, k * num, k * den)).values
        assert np.all(np.abs(scaled - base) <= 4e-15)

    def test_antisymmetry_swapped_roles(self):
        # quotient leg constructed to equal the spot leg exactly
        spot = np.array([0.07, 0.0702, 0.069])
        var = compute_variation(_triple(spot, spot, np.ones(3)))
        assert np.all(var.values == 0.0)

    def test_reconstructs_log_spot(self):
        rng = np.random.default_rng(5)
        spot = rng.uniform(0.01, 0.1, 500)
        num = rng.uniform(1000, 3000, 500)
        den = rng.uniform(20000, 60000, 500)
        var = compute_variation(_triple(spot, num, den, 500))
        recon = var.values + (np.log(num) - np.log(den))
        assert np.all(np.abs(recon - np.log(spot)) <= 1e-12)

    def test_log_difference_vs_log_quotient(self):
        rng = np.random.default_rng(6)
        num = rng.uniform(1000, 3000, 1000)
        den = rng.uniform(20000, 60000, 1000)
        assert np.all(np.abs((np.log(num) - np.log(den)) - np.log(num / den)) < 1e-14)


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

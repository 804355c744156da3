import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvar import VariationSeries, iqr, percentiles, split_years
from spotvar.errors import EmptySeries, InvalidArgument, MissingRank
from spotvar.summary import DAY_MS, YEAR_MS, PercentileTable
from spotvar import reports

from conftest import MINUTE_MS, minute_grid, quantile_oracle

T0 = 1_504_224_000_000


def _series(values, t0=T0):
    return VariationSeries(minute_grid(t0, len(values)), np.asarray(values, dtype=float))


class TestPercentiles:
    def test_constant_series(self):
        table = percentiles(_series([0.5] * 40), [0, 10, 25, 50, 75, 100])
        assert all(v == 0.5 for v in table.values)

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            percentiles(VariationSeries(np.array([], dtype=np.int64), np.array([])), [50])

    @pytest.mark.parametrize("probe", [150, -1, float("nan")])
    def test_probe_outside_0_100_is_invalid_argument(self, probe):
        with pytest.raises(InvalidArgument, match="probes must lie in"):
            percentiles(_series([0.1, 0.2, 0.3]), [50, probe])

    def test_rank_0_and_100_are_min_max(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=333)
        table = percentiles(_series(vals), [0, 100])
        assert table.values == (vals.min(), vals.max())

    def test_101_elements_all_integer_ranks_match_oracle(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=101)
        table = percentiles(_series(vals), list(range(101)))
        for p, v in zip(table.probes, table.values):
            assert v == quantile_oracle(vals, p)

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            vals = rng.normal(size=n)
            probes = rng.uniform(0, 100, size=5)
            table = percentiles(_series(vals), probes)
            for p, v in zip(table.probes, table.values):
                assert v == quantile_oracle(vals, p)

    @given(st.lists(st.floats(-1, 1), min_size=2, max_size=60), st.randoms())
    @settings(max_examples=100)
    def test_permutation_invariance(self, vals, rnd):
        probes = [0, 25, 50, 75, 100]
        base = percentiles(_series(vals), probes)
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert percentiles(_series(shuffled), probes).values == base.values

    def test_quartile_ordering_invariant(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_t(3, size=500)
        t = percentiles(_series(vals), [0, 25, 50, 75, 100])
        assert t.values[0] <= t.values[1] <= t.values[2] <= t.values[3] <= t.values[4]


class TestSplitYears:
    def test_containment_single_year(self):
        series = _series(np.ones(100), t0=T0 + 30 * DAY_MS)
        slices = split_years(series, T0, 4)
        assert [len(s.series) for s in slices] == [100, 0, 0, 0]

    def test_boundary_points_go_to_later_year(self):
        boundary = T0 + YEAR_MS
        series = VariationSeries(
            np.array([boundary - MINUTE_MS, boundary, boundary + MINUTE_MS]),
            np.array([1.0, 2.0, 3.0]),
        )
        slices = split_years(series, T0, 4)
        assert slices[0].series.values.tolist() == [1.0]
        assert slices[1].series.values.tolist() == [2.0, 3.0]

    def test_partition_no_overlap_no_loss(self):
        rng = np.random.default_rng(5)
        n = 5000
        times = np.sort(rng.choice(np.arange(T0, T0 + 4 * YEAR_MS + 10 * DAY_MS, MINUTE_MS), n, replace=False))
        series = VariationSeries(times, rng.normal(size=n))
        slices = split_years(series, T0, 4)
        assert sum(len(s.series) for s in slices) == n
        seen = np.concatenate([s.series.times for s in slices])
        assert np.array_equal(np.sort(seen), times)

    def test_final_slice_extends_to_sample_end(self):
        # last sample lands past the nominal 4-year boundary (leap drift)
        last = T0 + 4 * YEAR_MS + 2 * DAY_MS
        series = VariationSeries(np.array([T0, last]), np.array([0.1, 0.2]))
        slices = split_years(series, T0, 4)
        assert slices[3].series.values.tolist() == [0.2]


    @pytest.mark.parametrize("epoch, expected", [
        # every minute lies more than four years after the epoch
        (-9_223_372_036_854_775_000, [0, 0, 0, 100]),
        (np.iinfo(np.int64).min, [0, 0, 0, 100]),
        # every minute lies before it
        (2**63 - 1, [100, 0, 0, 0]),
    ])
    def test_epochs_at_the_ends_of_int64_do_not_wrap(self, epoch, expected):
        slices = split_years(_series(np.ones(100)), epoch, 4)
        assert [len(s.series) for s in slices] == expected

    @given(st.integers(-(2**63), 2**63 - 1), st.integers(1, 6),
           st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_slices_match_python_integer_years(self, epoch, n_years, times):
        times = sorted(times)
        series = VariationSeries(np.array(times, dtype=np.int64), np.arange(len(times), dtype=float))
        slices = split_years(series, epoch, n_years)
        year = [min(max((t - epoch) // YEAR_MS, 0), n_years - 1) for t in times]
        assert [s.series.times.tolist() for s in slices] == [
            [t for t, y in zip(times, year) if y == k] for k in range(n_years)
        ]


class TestIqr:
    def test_constant_is_zero(self):
        table = percentiles(_series([2.0] * 30), [25, 75])
        assert iqr(table) == 0.0

    def test_missing_rank(self):
        table = percentiles(_series([1.0, 2.0, 3.0]), [0, 50, 100])
        with pytest.raises(MissingRank):
            iqr(table)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            table = percentiles(_series(rng.normal(size=50)), [25, 75])
            assert iqr(table) >= 0


class TestRenderer:
    def test_year2_iqr_identity(self):
        # Year-2 quartiles -0.000207 / 0.000214 must render an IQR of 0.000421
        table = PercentileTable(
            probes=(0, 25, 50, 75, 100),
            values=(-0.025374, -0.000207, 3.573059e-06, 0.000214, 0.011835),
        )
        value = iqr(table)
        assert reports.fmt_display(value) == "0.000421"
        rendered = reports.yearwise_iqr_table([(2, value)]).to_text()
        assert "Year 2  0.000421" in rendered

    def test_display_formatting(self):
        assert reports.fmt_display(-0.084171) == "-0.084171"
        assert reports.fmt_display(-9.312451e-07) == "-9.312451e-07"
        assert reports.fmt_display(0.000155) == "0.000155"

    def test_csv_full_precision_round_trip(self):
        value = -9.312451123456789e-07
        table = PercentileTable(probes=(50,), values=(value,))
        csv_text = reports.percentile_table(table, "abc").to_csv()
        cell = csv_text.strip().splitlines()[-1].split(",")[1]
        assert float(cell) == value

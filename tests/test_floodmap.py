"""Change-detection flood mapping and warning verification."""

from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest

from cswarn.floodmap import (
    FloodMask,
    NoWarningsError,
    ValidationScore,
    flood_mask,
    flooded_regions,
    log_ratio_db,
    validate,
)
from cswarn.fusion import WarnLevel, decide
from cswarn.geogrid import DEFAULT_NODATA, GridGeometry, RegionBox, Variable
from cswarn.wind import WindCategory

from conftest import GEOM_4X4, T0, make_grid
from oracles import flood_mask_oracle
from test_fusion import indicators

REGION = RegionBox("R", 10.5, 12.5, 20.5, 22.5)


def nrcs_grid(values, time=T0):
    return make_grid(values, variable=Variable.NRCS, time=time)


def ratio_grid(values, time=T0):
    return make_grid(values, variable=Variable.LOG_RATIO, time=time)


class TestLogRatio:
    def test_tenfold_darkening_is_minus_ten_db(self):
        flood = nrcs_grid(np.full((2, 2), 0.01))
        ref = nrcs_grid(np.full((2, 2), 0.1))
        out = log_ratio_db(flood, ref)
        assert out.variable == Variable.LOG_RATIO
        assert np.allclose(out.values, -10.0, atol=1e-12)

    def test_identical_grids_are_zero_db(self):
        grid = nrcs_grid(np.full((3, 3), 0.05))
        out = log_ratio_db(grid, grid)
        assert np.all(out.values == 0.0)

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(13)
        flood = nrcs_grid(rng.uniform(0.001, 0.5, size=(5, 5)))
        ref = nrcs_grid(rng.uniform(0.001, 0.5, size=(5, 5)))
        out = log_ratio_db(flood, ref)
        for r in range(5):
            for c in range(5):
                import math
                expected = 10.0 * math.log10(flood.values[r, c] / ref.values[r, c])
                assert out.values[r, c] == pytest.approx(expected, rel=1e-14)

    def test_nodata_propagates_from_either_side(self):
        flood_values = np.full((2, 2), 0.05)
        flood_values[0, 0] = -9999.0
        ref_values = np.full((2, 2), 0.05)
        ref_values[1, 1] = -9999.0
        out = log_ratio_db(nrcs_grid(flood_values), nrcs_grid(ref_values))
        assert out.values[0, 0] == out.nodata
        assert out.values[1, 1] == out.nodata
        assert out.values[0, 1] == 0.0

    def test_geometry_mismatch_rejected(self):
        flood = nrcs_grid(np.full((2, 2), 0.05))
        other = make_grid(np.full((3, 3), 0.05), variable=Variable.NRCS)
        with pytest.raises(ValueError, match="geometry"):
            log_ratio_db(flood, other)

    def test_wrong_variable_rejected(self):
        bt = make_grid(np.full((2, 2), 280.0))
        with pytest.raises(TypeError):
            log_ratio_db(bt, bt)

    def test_antisymmetry(self):
        rng = np.random.default_rng(29)
        a = nrcs_grid(rng.uniform(0.001, 0.9, size=(6, 6)))
        b = nrcs_grid(rng.uniform(0.001, 0.9, size=(6, 6)))
        forward = log_ratio_db(a, b).values
        backward = log_ratio_db(b, a).values
        assert np.allclose(forward, -backward, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("a, b", [(1e300, 1e-10), (1e-300, 1e30), (5e-324, 1.7e308)])
    def test_ratio_past_the_double_range_is_the_difference_of_logs(self, a, b):
        """Each quotient, either way round, overflows to inf or underflows
        to 0: it used to fail as a non-finite grid or give -inf."""
        values = np.full((2, 2), 0.05)
        for flood, ref in ((a, b), (b, a)):
            flood_values = values.copy()
            flood_values[0, :] = flood
            ref_values = values.copy()
            ref_values[0, :] = ref
            out = log_ratio_db(nrcs_grid(flood_values), nrcs_grid(ref_values)).values
            expected = 10.0 * (math.log10(flood) - math.log10(ref))
            assert out[0, :] == pytest.approx(expected, rel=1e-14)
            assert abs(expected) < 6320.0
            assert np.all(out[1, :] == 0.0)

    def test_normal_quotients_keep_the_quotient_route(self):
        rng = np.random.default_rng(31)
        flood_values = rng.uniform(0.001, 0.5, size=(4, 4))
        ref_values = rng.uniform(0.001, 0.5, size=(4, 4))
        flood_values[0, 0], ref_values[0, 0] = 1e300, 1e-10
        out = log_ratio_db(nrcs_grid(flood_values), nrcs_grid(ref_values)).values
        expected = 10.0 * np.log10(flood_values.ravel()[1:] / ref_values.ravel()[1:])
        assert np.array_equal(out.ravel()[1:], expected)


class TestFloodMask:
    def test_all_zero_db_is_empty(self):
        mask = flood_mask(ratio_grid(np.zeros((12, 12))))
        assert np.all(mask.grid.values == 0.0)

    def test_block_at_minus_ten_db_is_flooded(self):
        values = np.zeros((16, 16))
        values[3:13, 4:14] = -10.0
        mask = flood_mask(ratio_grid(values))
        assert np.all(mask.grid.values[3:13, 4:14] == 1.0)
        assert mask.grid.values.sum() == 100.0

    def test_threshold_is_inclusive(self):
        values = np.zeros((10, 10))
        values[0:3, 0:3] = -3.0
        mask = flood_mask(ratio_grid(values), min_region_px=1)
        assert np.all(mask.grid.values[0:3, 0:3] == 1.0)

    def test_small_specks_removed(self):
        values = np.zeros((16, 16))
        values[0:2, 0:2] = -10.0     # 4 px speck
        values[8:12, 8:12] = -10.0   # 16 px region
        mask = flood_mask(ratio_grid(values), min_region_px=8)
        assert np.all(mask.grid.values[0:2, 0:2] == 0.0)
        assert np.all(mask.grid.values[8:12, 8:12] == 1.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(-12.0, 2.0, size=(20, 20))
        strict = flood_mask(ratio_grid(values), threshold_db=-6.0, min_region_px=1)
        loose = flood_mask(ratio_grid(values), threshold_db=-3.0, min_region_px=1)
        strict_cells = strict.grid.values == 1.0
        loose_cells = loose.grid.values == 1.0
        assert np.all(loose_cells[strict_cells])

    def test_nodata_cells_stay_nodata(self):
        values = np.full((10, 10), -10.0)
        values[5, 5] = -9999.0
        mask = flood_mask(ratio_grid(values))
        assert mask.grid.values[5, 5] == -9999.0
        assert mask.grid.values[0, 0] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_threshold_and_filter_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-8.0, 2.0, size=(18, 18))
        values[rng.uniform(size=values.shape) < 0.1] = -9999.0
        grid = ratio_grid(values)
        mask = flood_mask(grid, threshold_db=-3.0, min_region_px=8)
        expected = flood_mask_oracle(values, -9999.0, -3.0, 8)
        assert np.array_equal(mask.grid.values, expected)

    @pytest.mark.parametrize("nodata", [-9999.0, 1.0, 0.0])
    def test_nrcs_sentinel_that_reads_as_data_hides_nothing(self, nodata):
        # A -10 dB 6x6 block and one nodata cell. A sentinel of 1.0 would
        # read as the mask's flooded value, and 0.0 as an unchanged cell's
        # 0 dB; both derived grids take DEFAULT_NODATA instead.
        ref_values = np.full((10, 10), 0.1)
        flood_values = ref_values.copy()
        flood_values[2:8, 2:8] = 0.01
        flood_values[0, 9] = nodata
        ratio = log_ratio_db(make_grid(flood_values, variable=Variable.NRCS, nodata=nodata),
                             make_grid(ref_values, variable=Variable.NRCS, nodata=nodata))
        mask = flood_mask(ratio)
        assert ratio.nodata == mask.grid.nodata == DEFAULT_NODATA
        assert int(ratio.finite_mask.sum()) == 99
        assert ratio.values[0, 9] == DEFAULT_NODATA
        flooded = mask.grid.finite_mask & (mask.grid.values == 1.0)
        assert int(flooded.sum()) == 36 and flooded[2:8, 2:8].all()
        assert np.array_equal(mask.grid.values,
                              flood_mask_oracle(ratio.values, ratio.nodata, -3.0, 8))

    def test_provenance_recorded(self):
        mask = flood_mask(ratio_grid(np.zeros((4, 4)), time=T0),
                          reference_time=T0 - timedelta(days=2))
        assert mask.flood_time == T0
        assert mask.reference_time == T0 - timedelta(days=2)

    def test_flood_before_reference_rejected(self):
        with pytest.raises(ValueError):
            flood_mask(ratio_grid(np.zeros((4, 4)), time=T0),
                       reference_time=T0 + timedelta(days=1))


def mask_flooding(region_names, time=T0):
    """FLOOD_MASK over GEOM_4X4 flooding the block of each named region."""
    blocks = {"R": (slice(1, 3), slice(1, 3))}
    values = np.zeros((4, 4))
    for name in region_names:
        values[blocks[name]] = 1.0
    grid = make_grid(values, variable=Variable.FLOOD_MASK, geometry=GEOM_4X4, time=time)
    return FloodMask(grid=grid, flood_time=time)


class TestFloodedRegions:
    def test_fraction_threshold(self):
        mask = mask_flooding(["R"])
        assert flooded_regions(mask, [REGION]) == {"R": True}

    def test_single_cell_meets_one_percent(self):
        values = np.zeros((4, 4))
        values[1, 1] = 1.0      # 1 of 4 region cells
        grid = make_grid(values, variable=Variable.FLOOD_MASK, geometry=GEOM_4X4)
        mask = FloodMask(grid=grid, flood_time=T0)
        assert flooded_regions(mask, [REGION], f_flood=0.25) == {"R": True}
        assert flooded_regions(mask, [REGION], f_flood=0.26) == {"R": False}

    def test_region_outside_grid_is_not_flooded(self):
        mask = mask_flooding(["R"])
        far = RegionBox("far", 50.0, 51.0, 20.0, 21.0)
        assert flooded_regions(mask, [far]) == {"far": False}


def report(region, epoch, level):
    """WarningReport at the given level built through the rule table."""
    if level == WarnLevel.NONE:
        ind = indicators(region=region, epoch=epoch)
    elif level == WarnLevel.WATCH:
        ind = indicators(region=region, epoch=epoch, fraction=0.5)
    elif level == WarnLevel.WARNING:
        ind = indicators(region=region, epoch=epoch, fraction=0.5, rain=9.0)
    else:
        ind = indicators(region=region, epoch=epoch, fraction=0.5, rain=9.0,
                         persistence=4.0, wind=WindCategory.SEVERE)
    out = decide(ind)
    assert out.level == level
    return out


class TestValidate:
    REGIONS = [
        RegionBox("A", 10.6, 11.4, 20.6, 21.4),   # cell (2, 1)
        RegionBox("B", 10.6, 11.4, 21.6, 22.4),   # cell (2, 2)
        RegionBox("C", 11.6, 12.4, 20.6, 21.4),   # cell (1, 1)
        RegionBox("D", 11.6, 12.4, 21.6, 22.4),   # cell (1, 2)
    ]

    def mask_cells(self, cells, time=T0):
        values = np.zeros((4, 4))
        for r, c in cells:
            values[r, c] = 1.0
        grid = make_grid(values, variable=Variable.FLOOD_MASK, geometry=GEOM_4X4, time=time)
        return FloodMask(grid=grid, flood_time=time)

    def test_perfectly_warned(self):
        mask = self.mask_cells([(2, 1), (2, 2)])
        before = T0 - timedelta(seconds=7200)
        warnings = [report("A", before, WarnLevel.WARNING),
                    report("B", before, WarnLevel.SEVERE),
                    report("C", before, WarnLevel.NONE),
                    report("D", before, WarnLevel.NONE)]
        score = validate(warnings, mask, self.REGIONS)
        assert score.pod == 1.0
        assert score.far == 0.0
        assert score.outcomes == {"A": "hit", "B": "hit", "C": "quiet", "D": "quiet"}

    def test_no_warned_regions_means_pod_zero_far_undefined(self):
        mask = self.mask_cells([(2, 1)])
        warnings = [report(n, T0 - timedelta(seconds=3600), WarnLevel.NONE)
                    for n in "ABCD"]
        score = validate(warnings, mask, self.REGIONS)
        assert score.pod == 0.0
        assert score.far is None
        assert score.outcomes["A"] == "miss"

    def test_empty_report_window_raises(self):
        mask = self.mask_cells([(2, 1)])
        late = [report("A", T0 + timedelta(seconds=3600), WarnLevel.WARNING)]
        with pytest.raises(NoWarningsError):
            validate(late, mask, self.REGIONS)

    def test_reports_after_flood_time_do_not_count(self):
        mask = self.mask_cells([(2, 1)])
        warnings = [report("A", T0 - timedelta(seconds=3600), WarnLevel.NONE),
                    report("A", T0 + timedelta(seconds=3600), WarnLevel.WARNING)]
        score = validate(warnings, mask, self.REGIONS[:1])
        assert score.outcomes["A"] == "miss"

    def test_watch_is_below_the_default_validation_level(self):
        mask = self.mask_cells([(2, 1)])
        warnings = [report("A", T0 - timedelta(seconds=3600), WarnLevel.WATCH)]
        score = validate(warnings, mask, self.REGIONS[:1])
        assert score.outcomes["A"] == "miss"

    def test_mixed_case_matches_hand_enumeration(self):
        # A flooded+warned, B flooded only, C warned only, D neither.
        mask = self.mask_cells([(2, 1), (2, 2)])
        before = T0 - timedelta(seconds=3600)
        warnings = [report("A", before, WarnLevel.WARNING),
                    report("B", before, WarnLevel.NONE),
                    report("C", before, WarnLevel.WARNING),
                    report("D", before, WarnLevel.NONE)]
        score = validate(warnings, mask, self.REGIONS)
        assert (score.hits, score.misses, score.false_alarms, score.correct_negatives) == (1, 1, 1, 1)
        assert score.pod == 0.5
        assert score.far == 0.5
        assert score.outcomes == {"A": "hit", "B": "miss", "C": "false_alarm", "D": "quiet"}

    def test_counts_partition_the_regions(self):
        mask = self.mask_cells([(2, 1), (1, 2)])
        before = T0 - timedelta(seconds=3600)
        warnings = [report("A", before, WarnLevel.WARNING),
                    report("C", before, WarnLevel.SEVERE)]
        score = validate(warnings, mask, self.REGIONS)
        assert score.hits + score.misses == sum(score.flooded.values())
        assert score.hits + score.misses + score.false_alarms + score.correct_negatives == 4

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(3)
        before = T0 - timedelta(seconds=3600)
        for _ in range(20):
            cells = [(r, c) for r in (1, 2) for c in (1, 2) if rng.uniform() < 0.5]
            mask = self.mask_cells(cells)
            warnings = [report(n, before,
                               WarnLevel.WARNING if rng.uniform() < 0.5 else WarnLevel.NONE)
                        for n in "ABCD"]
            score = validate(warnings, mask, self.REGIONS)
            if score.pod is not None:
                assert 0.0 <= score.pod <= 1.0
            if score.far is not None:
                assert 0.0 <= score.far <= 1.0

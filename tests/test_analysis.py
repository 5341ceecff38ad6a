"""Gini coefficient, component ranking and report emission tests."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from migtensor.analysis import (
    ComponentReport,
    DegenerateComponentWarning,
    emit_reports,
    gini,
    rank_components,
)
from migtensor.ingestion import CountryRegistry
from migtensor.residence import MonthCalendar
from migtensor.solver import FactorModel

from conftest import gini_double_loop


class TestGini:
    def test_uniform_is_exactly_zero(self):
        for n in (1, 2, 7, 100):
            for c in (1.0, 0.3, 1e6):
                assert gini(np.full(n, c)) == 0.0

    def test_one_hot_is_exactly_closed_form(self):
        for m in (2, 3, 12, 74, 200):
            v = np.zeros(m)
            v[m // 2] = 1.0
            assert gini(v) == (m - 1) / m

    def test_one_hot_any_value(self):
        v = np.zeros(36)
        v[3] = 17.5
        assert gini(v) == pytest.approx(35 / 36, abs=1e-15)

    def test_small_ramp(self):
        assert gini([0.0, 1.0, 2.0, 3.0]) == pytest.approx(5 / 12, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            v = rng.uniform(0, 10, n)
            v[rng.uniform(size=n) < 0.3] = 0.0
            if v.sum() == 0:
                v[0] = 1.0
            assert gini(v) == pytest.approx(gini_double_loop(v), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            v = rng.uniform(0, 5, int(rng.integers(2, 40)))
            for c in (1e-6, 3.0, 1e8):
                assert abs(gini(c * v) - gini(v)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(53)
        v = rng.uniform(0, 5, 31)
        base = gini(v)
        for _ in range(10):
            assert gini(rng.permutation(v)) == base

    def test_bounds(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            v = rng.uniform(0, 3, n)
            if v.sum() == 0:
                continue
            g = gini(v)
            assert 0.0 <= g <= (n - 1) / n

    def test_all_zero_warns_and_returns_zero(self):
        with pytest.warns(DegenerateComponentWarning):
            assert gini(np.zeros(5)) == 0.0

    def test_single_entry(self):
        assert gini([4.2]) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([[1.0, 2.0]])
        with pytest.raises(ValueError):
            gini([1.0, -0.5])
        with pytest.raises(ValueError):
            gini([1.0, float("nan")])


def model_with_time_columns(columns, weights=None, N=6):
    """Model whose K time columns are given; O/D spread uniform."""
    T = np.column_stack(columns).astype(float)
    K = T.shape[1]
    O = np.full((N, K), 1.0 / N)
    D = np.full((N, K), 1.0 / N)
    w = np.ones(K) if weights is None else np.asarray(weights, dtype=float)
    return FactorModel(O, D, T, w)


class TestRankComponents:
    def test_one_hot_beats_uniform(self, registry):
        M = 8
        one_hot = np.zeros(M)
        one_hot[3] = 1.0
        model = model_with_time_columns([np.full(M, 1.0 / M), one_hot])
        reports = rank_components(model, registry)
        assert [r.component for r in reports] == [1, 0]
        assert reports[0].gini == pytest.approx((M - 1) / M, abs=1e-12)
        assert reports[1].gini == 0.0

    def test_top_k_truncates(self, registry):
        rng = np.random.default_rng(61)
        columns = [rng.uniform(0.1, 1.0, 12) for _ in range(15)]
        model = model_with_time_columns(columns)
        assert len(rank_components(model, registry, top_k=10)) == 10
        assert len(rank_components(model, registry, top_k=40)) == 15

    def test_equal_gini_breaks_by_weight(self, registry):
        col = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        model = model_with_time_columns([col, col], weights=[5.0, 7.0])
        reports = rank_components(model, registry)
        assert [r.component for r in reports] == [1, 0]
        assert reports[0].weight > reports[1].weight

    def test_equal_gini_and_weight_breaks_by_index(self, registry):
        col = np.array([1.0, 0.0, 0.0, 1.0])
        model = model_with_time_columns([col, col], weights=[2.0, 2.0])
        reports = rank_components(model, registry)
        assert [r.component for r in reports] == [0, 1]

    def test_ranking_is_gauge_invariant(self, registry):
        rng = np.random.default_rng(62)
        model = FactorModel(rng.uniform(0.1, 2.0, (6, 4)), rng.uniform(0.1, 2.0, (6, 4)),
                            rng.uniform(0.1, 2.0, (10, 4)), rng.uniform(0.5, 2.0, 4))
        scaled = model.copy()
        scaled.T *= 13.0
        scaled.weights /= 13.0
        base = rank_components(model, registry)
        other = rank_components(scaled, registry)
        assert [r.component for r in base] == [r.component for r in other]
        for a, b in zip(base, other):
            assert a.gini == pytest.approx(b.gini, abs=1e-12)

    def test_top_countries_sorted_with_labels(self, registry):
        M, N = 6, 6
        O = np.zeros((N, 1))
        O[0], O[2] = 0.7, 0.3  # GB heavy, ES light
        D = np.zeros((N, 1))
        D[4] = 1.0  # KW only
        model = FactorModel(O, D, np.full((M, 1), 1.0 / M), np.array([3.0]))
        (report,) = rank_components(model, registry, n_top=2)
        assert report.top_origins == [("GB", pytest.approx(0.7)), ("ES", pytest.approx(0.3))]
        assert report.top_destinations[0] == ("KW", pytest.approx(1.0))

    def test_zero_time_column_flagged_degenerate_and_last(self, registry):
        live = np.array([0.2, 0.8, 0.0, 0.0])
        dead = np.zeros(4)
        model = model_with_time_columns([dead, live])
        reports = rank_components(model, registry)
        assert [r.component for r in reports] == [1, 0]
        assert reports[1].degenerate and not reports[0].degenerate
        assert reports[1].gini == 0.0

    def test_invalid_params(self, registry):
        model = model_with_time_columns([np.ones(4)])
        with pytest.raises(ValueError):
            rank_components(model, registry, top_k=0)
        with pytest.raises(ValueError):
            rank_components(model, registry, n_top=0)


def sample_reports(registry, M=3):
    model = model_with_time_columns(
        [np.array([0.1, 0.7, 0.2]), np.array([1 / 3, 1 / 3, 1 / 3])],
        weights=[4.0, 2.0])
    return rank_components(model, registry, n_top=3)


class TestEmitReports:
    def test_time_csv_has_one_row_per_month(self, registry, tmp_path):
        calendar = MonthCalendar(2014, 11, 3)
        reports = sample_reports(registry)[:1]
        emit_reports(reports, calendar, tmp_path)
        lines = (tmp_path / "component_1_time.csv").read_text().splitlines()
        assert lines[0] == "month_index,calendar_month,value"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("0,2014-11,")
        assert lines[3].startswith("2,2015-01,")

    def test_empty_reports(self, registry, tmp_path):
        written = emit_reports([], MonthCalendar(2014, 1, 4), tmp_path)
        assert [p.name for p in written] == ["summary.json"]
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload == {"components": []}
        assert not list(tmp_path.glob("component_*"))

    def test_summary_shares_resum_to_top_mass(self, registry, tmp_path):
        reports = sample_reports(registry)
        emit_reports(reports, MonthCalendar(2014, 1, 3), tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        for entry, report in zip(payload["components"], reports):
            for key, stored in (("top_origins", report.top_origins),
                                ("top_destinations", report.top_destinations)):
                emitted = sum(share for _, share in entry[key])
                assert emitted == pytest.approx(sum(s for _, s in stored), abs=1e-9)

    def test_ranks_start_at_one(self, registry, tmp_path):
        reports = sample_reports(registry)
        emit_reports(reports, MonthCalendar(2014, 1, 3), tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert [c["rank"] for c in payload["components"]] == [1, 2]
        assert (tmp_path / "component_2_countries.csv").exists()

    def test_byte_deterministic(self, registry, tmp_path):
        calendar = MonthCalendar(2014, 1, 3)
        reports = sample_reports(registry)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_reports(reports, calendar, a)
        emit_reports(reports, calendar, b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_country_csv_layout(self, registry, tmp_path):
        reports = sample_reports(registry)[:1]
        emit_reports(reports, MonthCalendar(2014, 1, 3), tmp_path)
        lines = (tmp_path / "component_1_countries.csv").read_text().splitlines()
        assert lines[0] == "role,country,share"
        roles = [line.split(",")[0] for line in lines[1:]]
        assert roles == ["origin"] * 3 + ["destination"] * 3

    def test_country_csv_quotes_codes_as_csv_does(self, tmp_path):
        # the registry takes any printable code, a comma or a quote included
        registry = CountryRegistry(["K,W", 'G"B', "FR"])
        model = model_with_time_columns([np.array([0.1, 0.7, 0.2])], weights=[4.0], N=3)
        emit_reports(rank_components(model, registry, n_top=3), MonthCalendar(2014, 1, 3), tmp_path)
        with open(tmp_path / "component_1_countries.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 3 for row in rows)
        # equal shares rank in registry order
        assert [row[:2] for row in rows] == [["role", "country"], *(["origin", c] for c in registry.codes),
                                             *(["destination", c] for c in registry.codes)]

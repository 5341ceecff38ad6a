"""Parsing, geocoding and user-filter tests for the ingestion module."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migtensor import ingestion
from migtensor.ingestion import (
    BAD_COORDINATES,
    BAD_FIELD_COUNT,
    BAD_JSON,
    BAD_TIMESTAMP,
    OUT_OF_INTERVAL,
    RULE_MAX_COUNTRIES_PER_DAY,
    RULE_MAX_EVENTS_PER_DAY,
    RULE_MIN_ACTIVE_MONTHS,
    RULE_MIN_EVENTS_TOTAL,
    UNKNOWN_COUNTRY,
    CentroidTable,
    ConfigError,
    CountryRegistry,
    FilterPolicy,
    GeoEvent,
    InputError,
    filter_users,
    load_centroids,
    load_registry,
    parse_events,
    resolve_country,
    resolve_events,
    save_registry,
    serialize_events,
)

from conftest import central_angle, reference_resolve_country

UTC = timezone.utc


def ts(*args):
    return datetime(*args, tzinfo=UTC)


class TestParseCsv:
    def test_country_line(self):
        events, stats = parse_events(["u1,2014-12-03T10:00:00Z,GB"], "csv")
        assert stats.total == 0
        (ev,) = events
        assert ev.user_id == "u1"
        assert ev.timestamp == ts(2014, 12, 3, 10)
        assert ev.country == "GB"
        assert not ev.has_point

    def test_geo_line(self):
        events, stats = parse_events(["u1,2014-12-03T10:00:00Z,51.5,-0.1"], "csv")
        assert stats.total == 0
        (ev,) = events
        assert ev.has_point
        assert (ev.lat, ev.lon) == (51.5, -0.1)
        assert ev.country is None

    def test_bad_timestamp_rejected(self):
        events, stats = parse_events(
            ["u1,not-a-date,GB", "u2,2014-01-02T00:00:00Z,FR"], "csv")
        assert stats.as_dict() == {BAD_TIMESTAMP: 1}
        assert [ev.user_id for ev in events] == ["u2"]

    def test_header_and_blank_lines_skipped(self):
        lines = ["user_id,timestamp,country", "", "u1,2014-12-03T10:00:00Z,GB", "  "]
        events, stats = parse_events(lines, "csv")
        assert len(events) == 1 and stats.total == 0

    def test_bad_field_count(self):
        _, stats = parse_events(["u1,2014-12-03T10:00:00Z", "a,b,c,d,e"], "csv")
        assert stats.as_dict() == {BAD_FIELD_COUNT: 2}

    def test_out_of_interval(self):
        interval = (ts(2014, 1, 1), ts(2015, 1, 1))
        events, stats = parse_events(
            ["u1,2013-12-31T23:59:59Z,GB", "u1,2014-01-01T00:00:00Z,GB",
             "u1,2015-01-01T00:00:00Z,GB"],
            "csv", interval=interval)
        assert stats.as_dict() == {OUT_OF_INTERVAL: 2}
        assert len(events) == 1

    def test_unknown_country_rejected(self, registry):
        events, stats = parse_events(
            ["u1,2014-12-03T10:00:00Z,XX", "u1,2014-12-03T10:00:00Z,gb"],
            "csv", registry=registry)
        assert stats.as_dict() == {UNKNOWN_COUNTRY: 1}
        assert events[0].country == "GB"  # codes are case-folded

    def test_bad_coordinates(self):
        _, stats = parse_events(
            ["u1,2014-12-03T10:00:00Z,91.0,0.0",
             "u1,2014-12-03T10:00:00Z,0.0,181.0",
             "u1,2014-12-03T10:00:00Z,abc,0.0"], "csv")
        assert stats.as_dict() == {BAD_COORDINATES: 3}

    def test_preserves_input_order(self):
        lines = [f"u{i},2014-06-0{i}T00:00:00Z,GB" for i in range(1, 6)]
        events, _ = parse_events(lines, "csv")
        assert [ev.user_id for ev in events] == [f"u{i}" for i in range(1, 6)]


class TestParseJsonl:
    def test_country_object(self):
        line = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "country": "GB"}'
        events, stats = parse_events([line], "jsonl")
        assert stats.total == 0
        assert events[0].country == "GB"

    def test_geo_object(self):
        line = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 51.5, "lon": -0.1}'
        events, _ = parse_events([line], "jsonl")
        assert events[0].has_point

    def test_bad_json(self):
        _, stats = parse_events(["{not json", "[1, 2]"], "jsonl")
        assert stats.as_dict() == {BAD_JSON: 2}

    def test_location_must_be_exactly_one(self):
        both = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "country": "GB", "lat": 1, "lon": 2}'
        neither = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z"}'
        _, stats = parse_events([both, neither], "jsonl")
        assert stats.total == 2

    def test_boolean_coordinates_rejected(self):
        # JSON true/false are Python bools, which float() would take as 1.0/0.0
        lines = ['{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": true, "lon": false}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 1.0, "lon": false}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 1, "lon": 0}']
        events, stats = parse_events(lines, "jsonl")
        assert stats.as_dict() == {BAD_COORDINATES: 2}
        assert [(ev.lat, ev.lon) for ev in events] == [(1.0, 0.0)]

    def test_string_and_huge_coordinates_rejected(self):
        # JSON coordinates must be numbers: float() would take "46" as 46.0
        # and raise OverflowError on an integer beyond float range. They are
        # judged after the timestamp and the interval, like booleans.
        lines = ['{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": "46", "lon": "2"}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 46, "lon": "2"}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 1%s, "lon": 2}' % ("0" * 400),
                 '{"user_id": "u1", "timestamp": "not a time", "lat": "46", "lon": "2"}',
                 '{"user_id": "u1", "timestamp": "2030-01-01T00:00:00Z", "lat": "46", "lon": "2"}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 46, "lon": 2}']
        interval = (datetime(2014, 1, 1, tzinfo=timezone.utc), datetime(2015, 1, 1, tzinfo=timezone.utc))
        events, stats = parse_events(lines, "jsonl", interval=interval)
        assert stats.as_dict() == {BAD_COORDINATES: 3, BAD_TIMESTAMP: 1, OUT_OF_INTERVAL: 1}
        assert [(ev.lat, ev.lon) for ev in events] == [(46.0, 2.0)]

    def test_unknown_format_fatal(self):
        with pytest.raises(InputError):
            parse_events([], "xml")


class TestRoundTrip:
    def _events(self):
        return [
            GeoEvent("u1", ts(2014, 12, 3, 10), country="GB"),
            GeoEvent("u2", ts(2015, 1, 9, 23, 59, 59), lat=51.5, lon=-0.125),
            GeoEvent("u3", ts(2014, 6, 1), country="FR"),
        ]

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_parse_serialize_parse_identity(self, format):
        original = self._events()
        text = serialize_events(original, format)
        reparsed, stats = parse_events(text.splitlines(), format)
        assert stats.total == 0
        assert reparsed == original
        assert serialize_events(reparsed, format) == text

    def test_csv_header_survives_round_trip(self):
        text = serialize_events(self._events(), "csv", header=True)
        reparsed, stats = parse_events(text.splitlines(), "csv")
        assert stats.total == 0
        assert reparsed == self._events()


class TestGeoEvent:
    def test_exactly_one_location_required(self):
        with pytest.raises(ValueError):
            GeoEvent("u1", ts(2014, 1, 1), country="GB", lat=1.0, lon=2.0)
        with pytest.raises(ValueError):
            GeoEvent("u1", ts(2014, 1, 1))
        with pytest.raises(ValueError):
            GeoEvent("u1", ts(2014, 1, 1), lat=1.0)


class TestRegistry:
    def test_bijection(self, registry):
        for i, code in enumerate(registry.codes):
            assert registry.index_of(code) == i
            assert registry.code(i) == code

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            CountryRegistry(["GB", "FR", "GB"])

    def test_file_round_trip(self, registry, tmp_path):
        path = tmp_path / "registry.txt"
        save_registry(registry, path)
        assert load_registry(path).codes == registry.codes


class TestResolveCountry:
    def test_exact_centroid(self, registry):
        table = CentroidTable([("FR", 46.0, 2.0), ("GB", 54.0, -2.0)], registry)
        assert resolve_country((46.0, 2.0), table) == "FR"

    @pytest.mark.parametrize("rows", [
        [("GB", 10.0, 0.0), ("FR", -10.0, 0.0)],
        [("FR", -10.0, 0.0), ("GB", 10.0, 0.0)],
    ])
    def test_equidistant_tie_breaks_to_smaller_index(self, registry, rows):
        # query on the equator, centroids mirrored north/south: exact tie
        table = CentroidTable(rows, registry)
        assert resolve_country((0.0, 0.0), table) == "GB"  # GB has index 0

    def test_london_nearest_of_three(self, registry):
        rows = [("GB", 54.0, -2.0), ("FR", 46.0, 2.0), ("ES", 40.0, -4.0)]
        table = CentroidTable(rows, registry)
        point = (51.5, -0.1)
        by_oracle = min(rows, key=lambda r: central_angle(*point, r[1], r[2]))[0]
        assert by_oracle == "GB"
        assert resolve_country(point, table) == "GB"

    def test_matches_brute_force_on_random_points(self, registry):
        rng = np.random.default_rng(42)
        rows = [(code, float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
                for code in registry.codes]
        table = CentroidTable(rows, registry)
        for _ in range(200):
            point = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            expected = min(rows, key=lambda r: central_angle(*point, r[1], r[2]))[0]
            assert resolve_country(point, table) == expected

    def test_empty_table_fatal(self, registry):
        table = CentroidTable([], registry)
        with pytest.raises(ConfigError):
            resolve_country((0.0, 0.0), table)

    def test_unregistered_centroid_rejected(self, registry):
        with pytest.raises(ConfigError):
            CentroidTable([("XX", 0.0, 0.0)], registry)
        with pytest.raises(ConfigError):
            CentroidTable([("GB", 0.0, 0.0), ("GB", 1.0, 1.0)], registry)

    def test_load_centroids(self, registry, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("country,lat,lon\nGB,54.0,-2.0\nFR,46.0,2.0\n")
        table = load_centroids(path, registry)
        assert resolve_country((54.0, -2.0), table) == "GB"


CODES = ["GB", "FR", "ES", "US", "KW", "DE"]
BLOCK = ingestion._RESOLVE_BLOCK

latitudes = st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 0.0, 90.0]))
longitudes = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 0.0, 180.0]))
points = st.tuples(latitudes, longitudes)


@st.composite
def centroid_tables(draw):
    """Up to six centroids; sometimes two share one location (an exact tie)."""
    rows = draw(st.lists(points, min_size=1, max_size=len(CODES)))
    if len(rows) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[j] = rows[i]
    codes = draw(st.permutations(CODES))[:len(rows)]
    return [(code, lat, lon) for code, (lat, lon) in zip(codes, rows)]


@st.composite
def resolve_problems(draw):
    """A centroid table and points drawn around it, including its exact
    centroids, with point counts either side of a resolver block."""
    rows = draw(centroid_tables())
    n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    pool = st.one_of(points, st.sampled_from([(lat, lon) for _, lat, lon in rows]))
    drawn = draw(st.lists(pool, min_size=min(n, 8), max_size=min(n, 8)))
    # fill the rest from a seeded generator: hypothesis drawing hundreds of
    # points per example would be slow
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    filler = list(zip(rng.uniform(-90, 90, n - len(drawn)), rng.uniform(-180, 180, n - len(drawn))))
    return rows, drawn + [(float(a), float(b)) for a, b in filler]


class TestBatchedResolveMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(resolve_problems())
    @example(([("FR", 10.0, 0.0), ("GB", 10.0, 0.0)], [(10.0, 0.0), (0.0, 0.0), (-90.0, 180.0)]))
    @example(([("US", 0.0, 180.0), ("DE", 0.0, -180.0)], [(0.0, 179.9), (0.0, -179.9), (0.0, 180.0)]))
    # the point is GB's antipode, where rounding puts the haversine term at 1 + 2**-52
    @example(([("GB", 21.638421362768, 178.2347418847167), ("FR", 0.0, 0.0)],
              [(-21.638421362768, -1.7652581152833022)]))
    def test_indices_equal_per_point_reference(self, problem):
        rows, pts = problem
        registry = CountryRegistry(CODES)
        table = CentroidTable(rows, registry)
        lat = np.array([p[0] for p in pts], dtype=float)
        lon = np.array([p[1] for p in pts], dtype=float)
        expected = np.array([table.codes.index(reference_resolve_country(p, table)) for p in pts],
                            dtype=np.intp)
        assert np.array_equal(ingestion._nearest_centroids(lat, lon, table), expected)
        assert [resolve_country(p, table) for p in pts[:3]] == \
            [reference_resolve_country(p, table) for p in pts[:3]]

    def test_coincident_centroids_resolve_to_smaller_registry_index(self):
        registry = CountryRegistry(CODES)
        # rows given out of registry order: the table sorts them, ES (2) before KW (4)
        table = CentroidTable([("KW", 29.3, 47.5), ("ES", 29.3, 47.5)], registry)
        assert resolve_country((29.3, 47.5), table) == "ES"
        assert resolve_country((-29.3, -132.5), table) == "ES"  # antipode

    def test_resolve_events_spans_blocks(self):
        registry = CountryRegistry(CODES)
        table = CentroidTable([("GB", 54.0, -2.0), ("FR", 46.0, 2.0)], registry)
        events = [GeoEvent("u", ts(2014, 1, 1), lat=54.0 - 8.0 * (i % 2), lon=-2.0 + 4.0 * (i % 2))
                  if i % 3 else GeoEvent("u", ts(2014, 1, 1), country="ES")
                  for i in range(2 * BLOCK + 3)]
        resolved = resolve_events(events, table)
        expected = ["ES" if i % 3 == 0 else ("FR" if i % 2 else "GB") for i in range(len(events))]
        assert [ev.country for ev in resolved] == expected
        assert not any(ev.has_point for ev in resolved)


class TestResolveEvents:
    def test_codes_pass_through_points_resolved(self, registry):
        table = CentroidTable([("GB", 54.0, -2.0), ("FR", 46.0, 2.0)], registry)
        events = [
            GeoEvent("u1", ts(2014, 1, 1), country="ES"),
            GeoEvent("u1", ts(2014, 1, 2), lat=53.0, lon=-1.0),
        ]
        resolved = resolve_events(events, table)
        assert resolved[0].country == "ES"
        assert resolved[1].country == "GB"
        assert not resolved[1].has_point

    def test_point_without_table_fatal(self):
        events = [GeoEvent("u1", ts(2014, 1, 1), lat=0.0, lon=0.0)]
        with pytest.raises(ConfigError):
            resolve_events(events, None)


def burst(user, day_count, country="GB", year=2014, month=1, day=1):
    """day_count events for one user within a single calendar day."""
    return [GeoEvent(user, ts(year, month, day, 0, 0) if s == 0 else
                     ts(year, month, day, s // 3600, (s // 60) % 60, s % 60),
                     country=country)
            for s in range(day_count)]


class TestFilterUsers:
    def test_max_events_per_day(self):
        policy = FilterPolicy(max_events_per_day=100, min_events_total=0,
                              min_active_months=0)
        events = burst("spammer", 500) + burst("ok", 3, day=2)
        kept, stats = filter_users(events, policy)
        assert {ev.user_id for ev in kept} == {"ok"}
        assert stats.by_rule == {RULE_MAX_EVENTS_PER_DAY: 1}
        assert stats.users_dropped == 1
        assert stats.events_dropped == 500

    def test_max_countries_per_day(self):
        policy = FilterPolicy(max_countries_per_day=3, min_events_total=0,
                              min_active_months=0)
        events = [GeoEvent("hopper", ts(2014, 1, 1, h), country=c)
                  for h, c in enumerate(["GB", "FR", "ES", "US"])]
        kept, stats = filter_users(events, policy)
        assert kept == []
        assert stats.by_rule == {RULE_MAX_COUNTRIES_PER_DAY: 1}

    def test_min_events_total_kept(self):
        policy = FilterPolicy(min_events_total=1, min_active_months=1)
        events = burst("u1", 2)
        kept, stats = filter_users(events, policy)
        assert len(kept) == 2 and stats.users_dropped == 0

    def test_min_events_total_dropped(self):
        policy = FilterPolicy(min_events_total=5, min_active_months=0)
        kept, stats = filter_users(burst("u1", 4), policy)
        assert kept == []
        assert stats.by_rule == {RULE_MIN_EVENTS_TOTAL: 1}

    def test_min_active_months(self):
        policy = FilterPolicy(min_events_total=0, min_active_months=2)
        one_month = burst("u1", 3)
        two_months = burst("u2", 2) + burst("u2", 2, month=2)
        kept, stats = filter_users(one_month + two_months, policy)
        assert {ev.user_id for ev in kept} == {"u2"}
        assert stats.by_rule == {RULE_MIN_ACTIVE_MONTHS: 1}

    def test_all_or_nothing_and_multi_rule_counting(self):
        policy = FilterPolicy(max_events_per_day=10, min_events_total=50,
                              min_active_months=0)
        events = burst("bad", 20) + [ev for d in range(3, 15)
                                     for ev in burst("good", 5, day=d)]
        kept, stats = filter_users(events, policy)
        assert {ev.user_id for ev in kept} == {"good"}
        # "bad" violates both the burst cap and the total floor
        assert stats.by_rule == {RULE_MAX_EVENTS_PER_DAY: 1, RULE_MIN_EVENTS_TOTAL: 1}
        assert stats.users_dropped == 1

    def test_idempotent(self):
        policy = FilterPolicy()
        events = burst("a", 200) + burst("b", 3, day=1) + burst("b", 3, month=2)
        once, _ = filter_users(events, policy)
        twice, _ = filter_users(once, policy)
        assert twice == once

    def test_empty_input(self):
        kept, stats = filter_users([], FilterPolicy())
        assert kept == [] and stats.users_seen == 0

    def test_unresolved_events_rejected(self):
        events = [GeoEvent("u1", ts(2014, 1, 1), lat=0.0, lon=0.0)]
        with pytest.raises(ValueError):
            filter_users(events, FilterPolicy())

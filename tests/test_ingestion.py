"""Parsing, geocoding and user-filter tests for the ingestion module."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migtensor import events, ingestion, workers
from migtensor.events import (
    BAD_COORDINATES,
    BAD_FIELD_COUNT,
    BAD_JSON,
    BAD_LOCATION,
    BAD_TIMESTAMP,
    CSV_HEADER_COUNTRY,
    CSV_HEADER_GEO,
    MISSING_FIELD,
    OUT_OF_INTERVAL,
    UNKNOWN_COUNTRY,
    _JSON_SPACE,
    _MAX_CODES,
    EventTable,
    InputError,
    read_events,
    write_events,
)
from migtensor.ingestion import (
    RULE_MAX_COUNTRIES_PER_DAY,
    RULE_MAX_EVENTS_PER_DAY,
    RULE_MIN_ACTIVE_MONTHS,
    RULE_MIN_EVENTS_TOTAL,
    CentroidTable,
    ConfigError,
    CountryRegistry,
    FilterPolicy,
    filter_table,
    load_centroids,
    load_registry,
    save_registry,
)
from migtensor.synth import load_synth_spec, write_synthetic

from conftest import (
    CODES,
    REGISTRY,
    Event,
    assert_same_read,
    by_user_time,
    central_angle,
    events_of,
    forks,
    reference_filter_users,
    reference_parse_events,
    reference_resolve_country,
    reference_resolve_events,
    reference_serialize_events,
    reference_write_events,
    table_of,
)

UTC = timezone.utc
DEMO = Path(__file__).resolve().parent.parent / "demo"
# a centroid per country of CODES, for the tests that parse points
CENTROIDS = CentroidTable([("GB", 54.0, -2.0), ("FR", 46.0, 2.0), ("ES", 40.0, -4.0),
                           ("US", 38.0, -97.0), ("KW", 29.5, 47.75), ("DE", 51.0, 9.0)],
                          REGISTRY)


def ts(*args):
    return datetime(*args, tzinfo=UTC)


def written(table, header=False, codes=CODES) -> str:
    """``write_events``'s text, less its header line unless ``header``."""
    buf = io.StringIO()
    write_events(table, codes, buf)
    text = buf.getvalue()
    return text if header else text.partition("\n")[2]


class TestParseCsv:
    def test_country_line(self):
        table, stats = read_events(["u1,2014-12-03T10:00:00Z,GB"], "csv", REGISTRY)
        assert stats.total == 0
        (ev,) = events_of(table)
        assert ev.user_id == "u1"
        assert ev.timestamp == ts(2014, 12, 3, 10)
        assert ev.country == "GB"
        assert not ev.has_point

    def test_geo_line(self):
        table, stats = read_events(["u1,2014-12-03T10:00:00Z,51.5,-0.1"], "csv", REGISTRY,
                                   centroids=CENTROIDS)
        assert stats.total == 0
        (ev,) = events_of(table)
        assert ev.country == reference_resolve_country((51.5, -0.1), CENTROIDS) == "GB"

    def test_bad_timestamp_rejected(self):
        table, stats = read_events(
            ["u1,not-a-date,GB", "u2,2014-01-02T00:00:00Z,FR"], "csv", REGISTRY)
        assert stats.as_dict() == {BAD_TIMESTAMP: 1}
        assert table.users == ["u2"]

    def test_header_and_blank_lines_skipped(self):
        lines = ["user_id,timestamp,country", "", "u1,2014-12-03T10:00:00Z,GB", "  "]
        table, stats = read_events(lines, "csv", REGISTRY)
        assert len(table) == 1 and stats.total == 0

    def test_bad_field_count(self):
        _, stats = read_events(["u1,2014-12-03T10:00:00Z", "a,b,c,d,e"], "csv", REGISTRY)
        assert stats.as_dict() == {BAD_FIELD_COUNT: 2}

    def test_out_of_interval(self):
        interval = (ts(2014, 1, 1), ts(2015, 1, 1))
        table, stats = read_events(
            ["u1,2013-12-31T23:59:59Z,GB", "u1,2014-01-01T00:00:00Z,GB",
             "u1,2015-01-01T00:00:00Z,GB"],
            "csv", REGISTRY, interval=interval)
        assert stats.as_dict() == {OUT_OF_INTERVAL: 2}
        assert len(table) == 1

    def test_unknown_country_rejected(self, registry):
        table, stats = read_events(
            ["u1,2014-12-03T10:00:00Z,XX", "u1,2014-12-03T10:00:00Z,gb"],
            "csv", registry=registry)
        assert stats.as_dict() == {UNKNOWN_COUNTRY: 1}
        assert events_of(table)[0].country == "GB"  # codes are case-folded

    def test_bad_coordinates(self):
        _, stats = read_events(
            ["u1,2014-12-03T10:00:00Z,91.0,0.0",
             "u1,2014-12-03T10:00:00Z,0.0,181.0",
             "u1,2014-12-03T10:00:00Z,abc,0.0"], "csv", REGISTRY)
        assert stats.as_dict() == {BAD_COORDINATES: 3}

    def test_preserves_input_order(self):
        lines = [f"u{i},2014-06-0{i}T00:00:00Z,GB" for i in range(1, 6)]
        table, _ = read_events(lines, "csv", REGISTRY)
        assert [ev.user_id for ev in events_of(table)] == [f"u{i}" for i in range(1, 6)]


class TestParseJsonl:
    def test_country_object(self):
        line = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "country": "GB"}'
        table, stats = read_events([line], "jsonl", REGISTRY)
        assert stats.total == 0
        assert events_of(table)[0].country == "GB"

    def test_geo_object(self):
        line = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 46.5, "lon": 2.5}'
        table, _ = read_events([line], "jsonl", REGISTRY, centroids=CENTROIDS)
        assert events_of(table)[0].country == reference_resolve_country((46.5, 2.5), CENTROIDS) == "FR"

    def test_user_id_is_a_string_or_an_integer(self):
        # an integer user id is kept as its text, 0 too; a boolean, float,
        # array or object is no user id
        stamp = '"timestamp": "2014-12-03T10:00:00Z", "country": "GB"'
        ids = ['"u"', '" v "', "0", "1", "-7", "true", "false", "1.0", "[2]", '{"a": 1}', "null", '""']
        lines = ['{"user_id": %s, %s}' % (user_id, stamp) for user_id in ids]
        table, stats = read_events(lines, "jsonl", REGISTRY)
        assert [ev.user_id for ev in events_of(table)] == ["-7", "0", "1", "u", "v"]
        assert stats.as_dict() == {MISSING_FIELD: 7}
        expected, expected_stats = reference_parse_events(lines, "jsonl", registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()

    def test_bad_json(self):
        _, stats = read_events(["{not json", "[1, 2]"], "jsonl", REGISTRY)
        assert stats.as_dict() == {BAD_JSON: 2}

    def test_integer_past_the_digit_limit_is_bad_json(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer of more than sys.get_int_max_str_digits() digits
        stamp = '"timestamp": "2014-12-03T10:00:00Z"'
        lines = ['{"user_id": "u", %s, "lat": 1%s, "lon": 2}' % (stamp, "0" * 5000),
                 '{"user_id": %s, %s, "country": "GB"}' % ("7" * 5000, stamp),
                 '{"user_id": "u", %s, "country": "GB"}' % stamp]
        table, stats = read_events(lines, "jsonl", REGISTRY, centroids=CENTROIDS)
        assert stats.as_dict() == {BAD_JSON: 2}
        assert [ev.user_id for ev in events_of(table)] == ["u"]
        expected, expected_stats = reference_parse_events(lines, "jsonl", registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()

    def test_nesting_past_the_recursion_limit_is_bad_json(self):
        # json.loads raises RecursionError, not a ValueError, for arrays
        # nested deeper than Python's recursion limit
        lines = ["[" * 100000 + "\n",
                 '{"user_id": "u", "timestamp": "2014-12-03T10:00:00Z", "country": "GB"}\n']
        table, stats = read_events(lines, "jsonl", REGISTRY)
        assert stats.as_dict() == {BAD_JSON: 1}
        assert [ev.user_id for ev in events_of(table)] == ["u"]
        expected, expected_stats = reference_parse_events(lines, "jsonl", registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()

    def test_location_must_be_exactly_one(self):
        both = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "country": "GB", "lat": 1, "lon": 2}'
        neither = '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z"}'
        _, stats = read_events([both, neither], "jsonl", REGISTRY)
        assert stats.total == 2

    def test_boolean_coordinates_rejected(self):
        # JSON true/false are Python bools, which float() would take as 1.0/0.0
        lines = ['{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": true, "lon": false}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 1.0, "lon": false}',
                 '{"user_id": "u1", "timestamp": "2014-12-03T10:00:00Z", "lat": 1, "lon": 0}']
        table, stats = read_events(lines, "jsonl", REGISTRY, centroids=CENTROIDS)
        assert stats.as_dict() == {BAD_COORDINATES: 2}
        (ev,) = events_of(table)
        assert ev.country == reference_resolve_country((1.0, 0.0), CENTROIDS)

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
        table, stats = read_events(lines, "jsonl", REGISTRY, interval=interval, centroids=CENTROIDS)
        assert stats.as_dict() == {BAD_COORDINATES: 3, BAD_TIMESTAMP: 1, OUT_OF_INTERVAL: 1}
        (ev,) = events_of(table)
        assert ev.country == reference_resolve_country((46.0, 2.0), CENTROIDS)

    def test_non_string_timestamp_and_country_rejected(self):
        # a timestamp must be a JSON string, and so must a country code
        lines = ['{"user_id": "u", "timestamp": 5, "country": "GB"}',
                 '{"user_id": "u", "timestamp": ["2014-12-03T10:00:00Z"], "lat": 1, "lon": 2}',
                 '{"user_id": "u", "timestamp": "2014-12-03T10:00:00Z", "country": ["GB"]}',
                 '{"user_id": "u", "timestamp": "2014-12-03T10:00:00Z", "country": 7}',
                 '{"user_id": "u", "timestamp": "2014-12-03T10:00:00Z", "country": {"code": "GB"}}',
                 '{"user_id": "u", "timestamp": "2014-12-03T10:00:00Z", "country": "GB"}']
        table, stats = read_events(lines, "jsonl", REGISTRY)
        assert stats.as_dict() == {BAD_LOCATION: 3, BAD_TIMESTAMP: 2}
        assert [ev.country for ev in events_of(table)] == ["GB"]
        expected, expected_stats = reference_parse_events(lines, "jsonl", registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()

    def test_unknown_format_fatal(self):
        with pytest.raises(InputError):
            read_events([], "xml", REGISTRY)

    def test_skips_the_whitespace_the_decoder_skips(self):
        in_decoder = {c for c in map(chr, range(0x3001)) if json.decoder.WHITESPACE.fullmatch(c)}
        assert in_decoder == set(_JSON_SPACE)


class TestUserIdsHoldingLineBreaks:
    # every dump holds one row per line, so a user id with a line break
    # inside it is a missing field; one at either end is stripped like
    # other whitespace
    @pytest.mark.parametrize("format, lines", [
        ("jsonl", ['{"user_id": "%s", "timestamp": "2014-12-03T10:00:00Z", "country": "GB"}\n' % user
                   for user in ("a\\nb", "a\\rb", "\\nc\\r\\n")]),
        ("csv", ['"a\rb",2014-12-03T10:00:00Z,GB\n', '"a\r\nb",2014-12-03T10:00:00Z,GB\n',
                 'c,2014-12-03T10:00:00Z,GB\n']),
    ])
    def test_line_break_inside_a_user_id_is_a_missing_field(self, format, lines):
        table, stats = read_events(lines, format, REGISTRY)
        assert stats.as_dict() == {MISSING_FIELD: 2}
        assert table.users == ["c"]
        expected, expected_stats = reference_parse_events(lines, format, registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()


class TestOffsetsPastDatetimeRange:
    """An offset that moves the instant before year 1 or after year 9999 is
    a bad timestamp, not an overflow."""

    STAMPS = ["0001-01-01T00:00:00+05:30", "9999-12-31T23:00:00-05:00"]

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_tallied_as_bad_timestamp(self, format):
        stamps = self.STAMPS + ["2014-12-03T10:00:00+05:30"]
        lines = ([f"u,{stamp},GB" for stamp in stamps] if format == "csv" else
                 [json.dumps({"user_id": "u", "timestamp": stamp, "country": "GB"}) for stamp in stamps])
        table, stats = read_events(lines, format, REGISTRY)
        assert stats.as_dict() == {BAD_TIMESTAMP: 2}
        assert [ev.timestamp for ev in events_of(table)] == [ts(2014, 12, 3, 4, 30)]
        expected, expected_stats = reference_parse_events(lines, format, registry=REGISTRY)
        assert events_of(table) == expected and stats.as_dict() == expected_stats.as_dict()


class TestRoundTrip:
    def _events(self):
        return [
            Event("u1", ts(2014, 12, 3, 10), country="GB"),
            Event("u2", ts(2015, 1, 9, 23, 59, 59), lat=51.5, lon=-0.125),
            Event("u3", ts(2014, 6, 1), country="FR"),
        ]

    def _resolved(self):
        return reference_resolve_events(self._events(), CENTROIDS)

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_parse_serialize_parse_identity(self, format):
        text = reference_serialize_events(self._events(), format)
        table, stats = read_events(text.splitlines(), format, REGISTRY, centroids=CENTROIDS)
        assert stats.total == 0
        assert events_of(table) == self._resolved()
        assert written(table) == reference_serialize_events(self._resolved(), "csv")

    def test_csv_header_survives_round_trip(self):
        text = written(table_of(self._resolved()), header=True)
        table, stats = read_events(text.splitlines(), "csv", REGISTRY)
        assert stats.total == 0
        assert events_of(table) == self._resolved()

    def test_empty_table_writes_header_only(self):
        assert written(table_of([]), header=True) == "user_id,timestamp,country\n"

    def test_rows_past_a_block_all_written_in_order(self):
        events = self._resolved() * 3
        with mock.patch("migtensor.events._PARSE_BLOCK", 2):
            text = written(table_of(events))
        assert text == reference_serialize_events(by_user_time(events), "csv")


class TestRegistry:
    def test_bijection(self, registry):
        for i, code in enumerate(registry.codes):
            assert registry.index[code] == i

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            CountryRegistry(["GB", "FR", "GB"])

    def test_file_round_trip(self, registry, tmp_path):
        path = tmp_path / "registry.txt"
        save_registry(registry, path)
        assert load_registry(path).codes == registry.codes

    def test_more_codes_than_a_country_index_holds_rejected(self):
        codes = [f"C{i}" for i in range(_MAX_CODES + 1)]
        assert len(CountryRegistry(codes[:-1])) == _MAX_CODES
        with pytest.raises(ConfigError, match=f"registry holds {_MAX_CODES + 1} country codes"):
            CountryRegistry(codes)


def event_table(user, seconds) -> EventTable:
    """A table of users "a" and "b" with the given user and second columns."""
    return EventTable(["a", "b"], np.array(user, dtype=np.int32),
                      np.array(seconds, dtype=np.int64), np.zeros(len(user), dtype=np.int16))


class TestRowOrder:
    def test_rows_sorted_by_user_then_time_accepted(self):
        assert len(event_table([0, 0, 0, 1], [5, 5, 9, 1])) == 4
        assert len(event_table([], [])) == 0

    @pytest.mark.parametrize("user, seconds", [([1, 0], [0, 0]), ([0, 0], [9, 5]),
                                               ([0, 1, 1], [0, 7, 3])])
    def test_unsorted_rows_refused(self, user, seconds):
        with pytest.raises(ValueError, match=r"sorted by \(user, time\)"):
            event_table(user, seconds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(lambda user, second, country: Event(
                        user, ts(2014, 1, 1) + timedelta(seconds=second), country=country),
                    st.sampled_from(["b", "a", "c"]), st.sampled_from([0, 1, 86400]),
                    st.sampled_from(CODES)), max_size=30),
           st.sampled_from(["csv", "jsonl"]), st.sampled_from([3, 2048]))
    def test_read_events_sorts_by_user_then_time_ties_in_input_order(self, events, format, block):
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            table, stats = read_events(reference_serialize_events(events, format).splitlines(), format,
                                       REGISTRY)
        assert stats.total == 0
        keys = list(zip(table.user.tolist(), table.seconds.tolist()))
        assert keys == sorted(keys)
        # a stable sort: events of equal user and time keep their input order
        assert events_of(table) == by_user_time(events)

    @pytest.mark.parametrize("order, sorts", [([0, 1, 2, 3], 0), ([0, 2, 1, 3], 1), ([3, 0, 1, 2], 1)])
    def test_read_events_sorts_only_rows_out_of_order(self, monkeypatch, order, sorts):
        rows = ["a,2014-01-01T00:00:00Z,GB", "a,2014-01-01T00:00:00Z,FR",
                "a,2014-01-02T00:00:00Z,ES", "b,2014-01-01T00:00:00Z,US"]
        calls, real = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or real(keys))
        table, _ = read_events([rows[i] + "\n" for i in order], "csv", REGISTRY)
        assert len(calls) == sorts
        # rows 0 and 1 share a user and a time, so they keep their input order
        expected = sorted(order, key=lambda i: rows[i][:-3])
        assert table.country.tolist() == [REGISTRY.index[rows[i][-2:]] for i in expected]


def resolve_points(points, centroids) -> list:
    """The codes :func:`read_events` gives CSV point rows, in row order."""
    table, stats = read_events([f"u,2014-01-01T00:00:00Z,{lat!r},{lon!r}\n" for lat, lon in points],
                               "csv", REGISTRY, centroids=centroids)
    assert stats.total == 0
    return [REGISTRY.codes[c] for c in table.country.tolist()]


class TestResolveCountry:
    def test_exact_centroid(self, registry):
        table = CentroidTable([("FR", 46.0, 2.0), ("GB", 54.0, -2.0)], registry)
        assert resolve_points([(46.0, 2.0)], table) == ["FR"]

    @pytest.mark.parametrize("rows", [
        [("GB", 10.0, 0.0), ("FR", -10.0, 0.0)],
        [("FR", -10.0, 0.0), ("GB", 10.0, 0.0)],
    ])
    def test_equidistant_tie_breaks_to_smaller_index(self, registry, rows):
        # query on the equator, centroids mirrored north/south: exact tie
        table = CentroidTable(rows, registry)
        assert resolve_points([(0.0, 0.0)], table) == ["GB"]  # GB has index 0

    def test_london_nearest_of_three(self, registry):
        rows = [("GB", 54.0, -2.0), ("FR", 46.0, 2.0), ("ES", 40.0, -4.0)]
        table = CentroidTable(rows, registry)
        point = (51.5, -0.1)
        by_oracle = min(rows, key=lambda r: central_angle(*point, r[1], r[2]))[0]
        assert by_oracle == "GB"
        assert resolve_points([point], table) == ["GB"]

    def test_matches_brute_force_on_random_points(self, registry):
        rng = np.random.default_rng(42)
        rows = [(code, float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
                for code in registry.codes]
        table = CentroidTable(rows, registry)
        points = [(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(200)]
        expected = [min(rows, key=lambda r: central_angle(*point, r[1], r[2]))[0] for point in points]
        assert resolve_points(points, table) == expected

    def test_empty_table_fatal(self, registry):
        table = CentroidTable([], registry)
        with pytest.raises(ConfigError):
            resolve_points([(0.0, 0.0)], table)

    def test_unregistered_centroid_rejected(self, registry):
        with pytest.raises(ConfigError):
            CentroidTable([("XX", 0.0, 0.0)], registry)
        with pytest.raises(ConfigError):
            CentroidTable([("GB", 0.0, 0.0), ("GB", 1.0, 1.0)], registry)

    def test_load_centroids(self, registry, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("country,lat,lon\nGB,54.0,-2.0\nFR,46.0,2.0\n")
        table = load_centroids(path, registry)
        assert resolve_points([(54.0, -2.0)], table) == ["GB"]

    # a quoted code holding a line break spans two lines: before the bad
    # record (lines 2-3), so record 4 starts on line 5, or in it (lines 4-5);
    # in the last case the record's latitude is past csv's field size limit
    @pytest.mark.parametrize("text, line, message", [
        ('country,lat,lon\n"G\nB",54.0,-2.0\nFR,46.0,2.0\nES,abc,-4.0\n', 5, "bad coordinates"),
        ('country,lat,lon\nGB,54.0,-2.0\nFR,46.0,2.0\n"E\nS",abc,-4.0\n', 4, "bad coordinates"),
        ('country,lat,lon\nGB,54.0,-2.0\n"F\nR",' + "4" * (csv.field_size_limit() + 1) + ",2.0\n",
         3, "unreadable row"),
    ], ids=["before", "in it", "in it, too long"])
    def test_load_centroids_names_the_line_a_record_starts_on(self, registry, tmp_path, text, line,
                                                              message):
        path = tmp_path / "centroids.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"centroids\.csv:{line}: {message}"):
            load_centroids(path, registry)

    def test_load_centroids_header_only_as_the_first_record(self, registry, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("GB,54.0,-2.0\ncountry,lat,lon\n")
        with pytest.raises(ConfigError, match=r"centroids\.csv:2: bad coordinates"):
            load_centroids(path, registry)


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


def close_calls(rows) -> list:
    """Points where two centroids of ``rows`` are (nearly) equally near, or
    where the dot-product screen's margin is thinnest: each centroid and
    its antipode, the great-circle midpoint of each pair, the poles and
    the antimeridian."""
    found = [(90.0, 0.0), (-90.0, 45.0), (0.0, 180.0), (0.0, -180.0), (45.0, 180.0), (-45.0, -180.0)]
    for _, lat, lon in rows:
        found += [(lat, lon), (-lat, lon - 180.0 if lon > 0 else lon + 180.0)]
    unit = ingestion._unit_vectors(np.radians([r[1] for r in rows]), np.radians([r[2] for r in rows]))
    for i, j in itertools.combinations(range(len(rows)), 2):
        mid = unit[i] + unit[j]
        norm = np.linalg.norm(mid)
        if norm > 0:  # not an antipodal pair
            x, y, z = mid / norm
            found.append((float(np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))),
                          float(np.degrees(np.arctan2(y, x)))))
    return found


@st.composite
def resolve_problems(draw):
    """A centroid table (two of its codes sometimes share one location) and
    points drawn around it, including its close calls, with point counts
    either side of a resolver block."""
    rows = draw(centroid_tables())
    n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    pool = st.one_of(points, st.sampled_from(close_calls(rows)))
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
        expected = [reference_resolve_country(p, table) for p in pts]
        row_of = {registry.codes[c]: row for row, c in enumerate(table.country.tolist())}
        assert np.array_equal(table.nearest(lat, lon),
                              np.array([row_of[code] for code in expected], dtype=np.intp))
        assert resolve_points(pts, table) == expected

    def test_coincident_centroids_resolve_to_smaller_registry_index(self):
        registry = CountryRegistry(CODES)
        # rows given out of registry order: the table sorts them, ES (2) before KW (4)
        table = CentroidTable([("KW", 29.3, 47.5), ("ES", 29.3, 47.5)], registry)
        assert resolve_points([(29.3, 47.5), (-29.3, -132.5)], table) == ["ES", "ES"]  # and its antipode

    @pytest.mark.parametrize("block", [7, 2048])
    def test_resolution_spans_blocks(self, block):
        registry = CountryRegistry(CODES)
        table = CentroidTable([("GB", 54.0, -2.0), ("FR", 46.0, 2.0)], registry)
        lines = [f"u,2014-01-01T00:00:00Z,{54.0 - 8.0 * (i % 2)},{-2.0 + 4.0 * (i % 2)}\n"
                 if i % 3 else "u,2014-01-01T00:00:00Z,ES\n" for i in range(2 * BLOCK + 3)]
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            parsed, stats = read_events(lines, "csv", registry=registry, centroids=table)
        expected = ["ES" if i % 3 == 0 else ("FR" if i % 2 else "GB") for i in range(len(lines))]
        assert stats.total == 0
        assert [ev.country for ev in events_of(parsed)] == expected


class TestResolveWhileParsing:
    def test_codes_pass_through_points_resolved(self, registry):
        table = CentroidTable([("GB", 54.0, -2.0), ("FR", 46.0, 2.0)], registry)
        lines = ["u1,2014-01-01T00:00:00Z,ES", "u1,2014-01-02T00:00:00Z,53.0,-1.0"]
        parsed, _ = read_events(lines, "csv", registry=registry, centroids=table)
        assert [ev.country for ev in events_of(parsed)] == ["ES", "GB"]

    def test_table_over_another_registry_fatal(self):
        # its row indices would name other countries of the stream's registry
        table = CentroidTable([("GB", 54.0, -2.0)], CountryRegistry(["FR", "GB"]))
        with pytest.raises(ConfigError, match="another registry"):
            read_events(["u1,2014-01-01T00:00:00Z,54.0,-2.0"], "csv", REGISTRY, centroids=table)

    def test_point_without_table_fatal(self):
        with pytest.raises(ConfigError, match="no centroid table configured"):
            read_events(["u1,2014-01-01T00:00:00Z,0.0,0.0"], "csv", REGISTRY)

    def test_rejected_point_needs_no_table(self):
        # only the points that pass every rule are resolved
        lines = ["u1,2013-01-01T00:00:00Z,0.0,0.0", "u1,2014-01-01T00:00:00Z,91.0,0.0",
                 "u1,2014-01-01T00:00:00Z,GB"]
        table, stats = read_events(lines, "csv", REGISTRY, interval=(ts(2014, 1, 1), ts(2015, 1, 1)))
        assert stats.as_dict() == {BAD_COORDINATES: 1, OUT_OF_INTERVAL: 1}
        assert [ev.country for ev in events_of(table)] == ["GB"]


def burst(user, day_count, country="GB", year=2014, month=1, day=1):
    """day_count events for one user within a single calendar day."""
    return [Event(user, ts(year, month, day, 0, 0) if s == 0 else
                  ts(year, month, day, s // 3600, (s // 60) % 60, s % 60),
                  country=country)
            for s in range(day_count)]


class TestFilterTable:
    def test_max_events_per_day(self):
        policy = FilterPolicy(max_events_per_day=100, min_events_total=0,
                              min_active_months=0)
        events = burst("spammer", 500) + burst("ok", 3, day=2)
        kept, stats = filter_table(table_of(events), policy)
        assert kept.users == ["ok"]
        assert stats.by_rule == {RULE_MAX_EVENTS_PER_DAY: 1}
        assert stats.users_dropped == 1
        assert stats.events_dropped == 500

    def test_max_countries_per_day(self):
        policy = FilterPolicy(max_countries_per_day=3, min_events_total=0,
                              min_active_months=0)
        events = [Event("hopper", ts(2014, 1, 1, h), country=c)
                  for h, c in enumerate(["GB", "FR", "ES", "US"])]
        kept, stats = filter_table(table_of(events), policy)
        assert len(kept) == 0
        assert stats.by_rule == {RULE_MAX_COUNTRIES_PER_DAY: 1}

    def test_min_events_total_kept(self):
        policy = FilterPolicy(min_events_total=1, min_active_months=1)
        kept, stats = filter_table(table_of(burst("u1", 2)), policy)
        assert len(kept) == 2 and stats.users_dropped == 0

    def test_min_events_total_dropped(self):
        policy = FilterPolicy(min_events_total=5, min_active_months=0)
        kept, stats = filter_table(table_of(burst("u1", 4)), policy)
        assert len(kept) == 0
        assert stats.by_rule == {RULE_MIN_EVENTS_TOTAL: 1}

    def test_min_active_months(self):
        policy = FilterPolicy(min_events_total=0, min_active_months=2)
        one_month = burst("u1", 3)
        two_months = burst("u2", 2) + burst("u2", 2, month=2)
        kept, stats = filter_table(table_of(one_month + two_months), policy)
        assert kept.users == ["u2"]
        assert stats.by_rule == {RULE_MIN_ACTIVE_MONTHS: 1}

    def test_all_or_nothing_and_multi_rule_counting(self):
        policy = FilterPolicy(max_events_per_day=10, min_events_total=50,
                              min_active_months=0)
        events = burst("bad", 20) + [ev for d in range(3, 15)
                                     for ev in burst("good", 5, day=d)]
        kept, stats = filter_table(table_of(events), policy)
        assert kept.users == ["good"]
        # "bad" violates both the burst cap and the total floor
        assert stats.by_rule == {RULE_MAX_EVENTS_PER_DAY: 1, RULE_MIN_EVENTS_TOTAL: 1}
        assert stats.users_dropped == 1

    def test_idempotent(self):
        policy = FilterPolicy()
        events = burst("a", 200) + burst("b", 3, day=1) + burst("b", 3, month=2)
        once, _ = filter_table(table_of(events), policy)
        twice, _ = filter_table(once, policy)
        assert events_of(twice) == events_of(once)

    def test_empty_input(self):
        kept, stats = filter_table(table_of([]), FilterPolicy())
        assert len(kept) == 0 and stats.users_seen == 0

    @pytest.mark.parametrize("name, value", [
        ("min_events_total", 2.5), ("min_active_months", True), ("max_events_per_day", "3"),
        ("max_countries_per_day", 2.0)])
    def test_threshold_of_another_type_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            FilterPolicy(**{name: value})


# a NUL in a CSV line, which csv reads from Python 3.11 on; Python 3.10's
# csv raises on it, and TestLinesCsvCannotRead covers that
NUL = "\x00" if sys.version_info >= (3, 11) else ""
# user ids with the characters CSV must quote, spaces to strip and a NUL,
# which numpy strings would drop at the end of a value
user_ids = st.text(alphabet=st.sampled_from(list('ab1 ,"é' + NUL)), max_size=6)
INTERVAL = (ts(2014, 1, 1), ts(2015, 1, 1))
# the interval's edges and month edges inside and around it
EDGES = [ts(2013, 12, 31, 23, 59, 59), ts(2014, 1, 1), ts(2014, 1, 31, 23, 59, 59), ts(2014, 2, 1),
         ts(2014, 2, 28, 23, 59, 59), ts(2014, 12, 31, 23, 59, 59), ts(2015, 1, 1)]
instants = st.one_of(st.sampled_from(EDGES), st.datetimes(
    min_value=datetime(2013, 11, 1), max_value=datetime(2015, 2, 28), timezones=st.just(UTC)
).map(lambda t: t.replace(microsecond=0)))


@st.composite
def raw_timestamps(draw):
    """A timestamp as an input might write it: canonical, another UTC
    offset or spelling, fractional seconds, or a date that does not exist."""
    t = draw(instants)
    form = draw(st.sampled_from(["Z", "Z", "z", "+00:00", "+05:30", "-08:00", "fraction", "day 32",
                                 "Feb 30", "second 60", "hour 24", "padded", "no offset", "garbage"]
                                + ["NUL"] * bool(NUL)))
    canonical = t.strftime("%Y-%m-%dT%H:%M:%S")
    if form in ("Z", "z", "+00:00"):
        return canonical + form
    if form in ("+05:30", "-08:00"):
        sign = 1 if form[0] == "+" else -1
        shift = timedelta(hours=int(form[1:3]), minutes=int(form[4:])) * sign
        return (t + shift).strftime("%Y-%m-%dT%H:%M:%S") + form
    if form == "fraction":
        return canonical + "." + draw(st.sampled_from(["5", "999999", "000001"])) + "Z"
    if form == "day 32":
        return canonical[:8] + "32" + canonical[10:] + "Z"
    if form == "Feb 30":
        return canonical[:5] + "02-30" + canonical[10:] + "Z"
    if form == "second 60":
        return canonical[:17] + "60Z"
    if form == "hour 24":
        return canonical[:11] + "24" + canonical[13:] + "Z"
    if form == "padded":
        return " " + canonical + "Z "
    if form == "NUL":  # fromisoformat stops at a NUL; numpy strings drop a trailing one
        return canonical + "Z" + NUL
    if form == "no offset":
        return canonical
    return draw(st.sampled_from(["", "2014", "not-a-date", "2014-13-01T00:00:00Z", "２０１４-01-01T00:00:00Z",
                                 "0001-01-01T00:00:00+05:30", "9999-12-31T23:00:00-05:00"]))


locations = st.one_of(
    st.sampled_from(["GB", "FR", "ES", "gb", " FR ", "XX", ""]).map(lambda c: [c]),
    st.tuples(st.sampled_from(["51.5", "-0.1", "91", "-90", "-90.5", "abc", "nan", "1e3", " 2.0"]),
              st.sampled_from(["0", "-0.125", "180", "-180.5", "181", "inf", "1_0"])).map(list))


@st.composite
def csv_lines(draw):
    """A data line: fields written by csv (quoted where needed) or joined
    with bare commas (so a comma in a user id changes the field count)."""
    fields = [draw(user_ids), draw(raw_timestamps())] + draw(locations)
    if draw(st.booleans()):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        return buf.getvalue()
    return ",".join(fields) + draw(st.sampled_from(["\n", ""]))


@st.composite
def csv_streams(draw):
    lines = draw(st.lists(st.one_of(csv_lines(), st.sampled_from(["\n", "  \n", "a,b\n"])), max_size=25))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from([CSV_HEADER_COUNTRY_LINE, CSV_HEADER_GEO_LINE])))
    return lines


CSV_HEADER_COUNTRY_LINE = CSV_HEADER_COUNTRY + "\n"
CSV_HEADER_GEO_LINE = CSV_HEADER_GEO + "\n"

GOOD_JSONL = '{"user_id": "u", "timestamp": "2014-06-01T00:00:00Z", "country": "GB"}\n'
json_values = st.one_of(st.floats(-200, 200), st.integers(-200, 200), st.just(10 ** 400),
                        st.booleans(), st.none(), st.just("46"))
# where a timestamp or a country code belongs
json_non_strings = st.sampled_from([5, 1.5, True, False, ["GB"], {"code": "GB"}])


@st.composite
def jsonl_lines(draw):
    obj = {}
    if draw(st.integers(0, 5)):
        obj["user_id"] = draw(st.one_of(user_ids, st.integers(-9, 9), json_non_strings))
    obj["timestamp"] = draw(st.one_of(raw_timestamps(), st.none(), json_non_strings))
    location = draw(st.sampled_from(["country", "point", "both", "neither", "lat only"]))
    if location in ("country", "both"):
        obj["country"] = draw(st.one_of(st.sampled_from(["GB", "fr", "XX", " ES", ""]), json_non_strings))
    if location in ("point", "both"):
        obj["lat"], obj["lon"] = draw(json_values), draw(json_values)
    if location == "lat only":
        obj["lat"] = draw(json_values)
    line = json.dumps(obj)
    return draw(st.sampled_from([line, line, line[: len(line) // 2], "[1, 2]", " "])) + "\n"


class TestColumnarParseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(csv_streams(), st.booleans(), st.sampled_from([1, 2, 7, 8192]))
    # a line break moved from the end of one line to the end of the next
    @example(["u,2014-01-01T00:00:00Z,GB", "v,2014-01-02T00:00:00Z,FR\n\n"], False, 8192)
    # records that break two rules next to each other in the reject order
    @example([",2014-01-01T00:00:00.5Z,GB\n"], True, 8192)  # no user, bad timestamp
    @example(["u,2013-02-30T00:00:00Z,GB\n"], True, 8192)  # bad timestamp, before the interval
    @example(["u,2013-06-01T00:00:00Z, \n"], True, 8192)  # out of interval, empty code
    @example(["u,2013-06-01T00:00:00Z,XX\n"], True, 8192)  # out of interval, unknown code
    @example(["u,2013-06-01T00:00:00Z,95.0,0.0\n"], True, 8192)  # out of interval, off the globe
    def test_csv_events_and_tallies(self, lines, use_interval, block):
        interval = INTERVAL if use_interval else None
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            table, stats = read_events(lines, "csv", REGISTRY, interval=interval, centroids=CENTROIDS)
        expected, expected_stats = reference_parse_events(lines, "csv", interval, REGISTRY)
        assert events_of(table) == reference_resolve_events(expected, CENTROIDS)
        assert stats.as_dict() == expected_stats.as_dict()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(jsonl_lines(), max_size=25), st.booleans(), st.sampled_from([1, 3, 8192]))
    # records that break two rules next to each other in the reject order
    @example(['{"timestamp": 5, "country": "GB"}\n'], True, 8192)  # no user, bad timestamp
    @example(['{"user_id": "u", "timestamp": "2013-02-30T00:00:00Z", "country": "GB"}\n'],
             True, 8192)  # bad timestamp, before the interval
    @example(['{"user_id": "u", "timestamp": "2013-06-01T00:00:00Z", "country": ""}\n'],
             True, 8192)  # out of interval, empty code
    @example(['{"user_id": "u", "timestamp": "2013-06-01T00:00:00Z", "country": "xx"}\n'],
             True, 8192)  # out of interval, unknown code
    @example(['{"user_id": "u", "timestamp": "2013-06-01T00:00:00Z", "lat": 95.0, "lon": 0}\n'],
             True, 8192)  # out of interval, off the globe
    # lines the decoder's scanner must judge as json.loads does
    @example(["\ufeff" + GOOD_JSONL], True, 8192)  # a BOM is not JSON whitespace
    @example(["\x0b" + GOOD_JSONL, GOOD_JSONL[:-1] + "\xa0\n"], True, 8192)  # nor are these
    @example([" \t" + GOOD_JSONL[:-1] + " \r\n", GOOD_JSONL[:-1] + "x\n"], True, 8192)
    @example(['{"user_id": "u", "timestamp": "2014-06-01T00:00:00Z", "lat": NaN, "lon": Infinity}\n',
              '{"user_id": "u", "timestamp": "2014-06-01T00:00:00Z", "lat": -Infinity, "lon": 0}\n'],
             True, 8192)
    @example(["[{}]\n", "[" * 100000 + "\n"], True, 8192)  # not an object; nested too deep
    @example(['{"user_id": "u", "timestamp": "2014-06-01T00:00:00Z", "lat": %s, "lon": 0}\n'
              % ("1" * 5000)], True, 8192)  # past int()'s digit limit
    def test_jsonl_events_and_tallies(self, lines, use_interval, block):
        interval = INTERVAL if use_interval else None
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            table, stats = read_events(lines, "jsonl", REGISTRY, interval=interval, centroids=CENTROIDS)
        expected, expected_stats = reference_parse_events(lines, "jsonl", interval, REGISTRY)
        assert events_of(table) == reference_resolve_events(expected, CENTROIDS)
        assert stats.as_dict() == expected_stats.as_dict()


@st.composite
def point_streams(draw):
    """A CSV or JSONL stream whose records are mostly points, some of them
    at a centroid of the drawn table, with the table's rows."""
    rows = draw(centroid_tables())
    at_centroid = st.sampled_from([(lat, lon) for _, lat, lon in rows])
    format = draw(st.sampled_from(["csv", "jsonl"]))
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 3)):
            lat, lon = draw(st.one_of(points, at_centroid))
            user, stamp = f"u{draw(st.integers(0, 3))}", draw(raw_timestamps())
            obj = {"user_id": user, "timestamp": stamp, "lat": lat, "lon": lon}
            lines.append(f"{user},{stamp},{lat!r},{lon!r}\n" if format == "csv"
                         else json.dumps(obj) + "\n")
        else:
            lines.append(draw(csv_lines() if format == "csv" else jsonl_lines()))
    return format, lines, rows


class TestResolveWhileParsingMatchesReference:
    """Points are resolved block by block as they are parsed: the codes are
    those of the reference parse followed by per-point resolution, however
    the stream is split."""

    @settings(max_examples=200, deadline=None)
    @given(point_streams(), st.booleans(), st.sampled_from([1, 2, 7, 2048]))
    def test_events_and_tallies(self, stream, use_interval, block):
        format, lines, rows = stream
        interval = INTERVAL if use_interval else None
        centroids = CentroidTable(rows, REGISTRY)
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            table, stats = read_events(lines, format, REGISTRY, interval=interval, centroids=centroids)
        expected, expected_stats = reference_parse_events(lines, format, interval, REGISTRY)
        assert events_of(table) == reference_resolve_events(expected, centroids)
        assert stats.as_dict() == expected_stats.as_dict()


LONG_FIELD = "u" * (csv.field_size_limit() + 1)


class TestLinesCsvCannotRead:
    """A line that csv cannot read (a NUL before Python 3.11, a field past
    csv's size limit) is tallied as a bad field count; one it can read
    parses as csv reads it, whichever way the block is split."""

    @pytest.mark.parametrize("line", [
        "u\x00,2014-01-01T00:00:00Z,GB\n",
        '"u\x00",2014-01-01T00:00:00Z,GB\n',
        "u,2014-01-01T00:00:00Z\x00,GB\n",
        LONG_FIELD + ",2014-01-01T00:00:00Z,GB\n",
        '"' + LONG_FIELD + '",2014-01-01T00:00:00Z,GB\n',
    ], ids=["NUL user", "quoted NUL user", "NUL timestamp", "long field", "quoted long field"])
    @pytest.mark.parametrize("block", [1, 8192])
    def test_tallied_or_parsed_as_csv(self, line, block):
        lines = ["a,2014-01-01T00:00:00Z,GB\n", line, "b,2014-01-02T00:00:00Z,FR\n"]
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            table, stats = read_events(lines, "csv", REGISTRY)
        expected, expected_stats = reference_parse_events(lines, "csv", registry=REGISTRY)
        assert events_of(table) == expected
        assert stats.as_dict() == expected_stats.as_dict()
        try:
            next(csv.reader([line.rstrip("\n")]))
        except csv.Error:
            assert stats.as_dict() == {BAD_FIELD_COUNT: 1}
            assert table.users == ["a", "b"]


class TestCountryCodeCount:
    """The country column holds the indices of a registry of 2**15 codes,
    the most a registry holds, and the last never wraps to a negative
    (point) index."""

    LIMIT = 2 ** 15

    def test_limit_parses_and_last_code_survives(self):
        registry = CountryRegistry(f"C{i}" for i in range(self.LIMIT))
        lines = [f"u,2014-01-01T00:00:00Z,C{i}\n" for i in range(self.LIMIT)]
        table, stats = read_events(lines, "csv", registry)
        assert stats.total == 0
        assert registry.codes[table.country[-1]] == f"C{self.LIMIT - 1}"
        assert written(table, codes=registry.codes).endswith(f",C{self.LIMIT - 1}\n")


events_strategy = st.lists(st.builds(
    lambda user, t, where: Event(user, t, country=where) if isinstance(where, str)
    else Event(user, t, lat=where[0], lon=where[1]),
    user_ids.filter(lambda u: u and u == u.strip()), instants,
    st.one_of(st.sampled_from(["GB", "FR", "ES"]), points)), max_size=20)


# text csv.writer quotes (a comma, a quote, a line break), pads or spells in
# more than ASCII, mixed with plain letters
csv_texts = st.text(alphabet=st.sampled_from(list('ab1 ,"\r\né€')), max_size=6)
# whole seconds from year 1 to year 9999
SECONDS = (-62135596800, 253402300799)


@st.composite
def event_tables(draw):
    """A table of any rows, sorted by (user, time), over sorted users and
    codes that need quoting."""
    users = sorted(draw(st.sets(csv_texts, min_size=1, max_size=6)))
    codes = draw(st.lists(csv_texts, min_size=1, max_size=4, unique=True))
    rows = sorted(draw(st.lists(st.tuples(st.integers(0, len(users) - 1), st.integers(*SECONDS),
                                          st.integers(0, len(codes) - 1)), max_size=20)),
                  key=lambda row: row[:2])
    user, seconds, country = zip(*rows) if rows else ((), (), ())
    return EventTable(users, np.array(user, dtype=np.int32), np.array(seconds, dtype=np.int64),
                      np.array(country, dtype=np.int16)), codes


class TestWriteEventsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(event_tables(), st.sampled_from([1, 2, 7]))
    def test_same_text_as_csv_writer(self, drawn, block):
        table, codes = drawn
        expected = io.StringIO()
        reference_write_events(table, codes, expected)
        with mock.patch("migtensor.events._PARSE_BLOCK", block):
            assert written(table, header=True, codes=codes) == expected.getvalue()


class TestSerializeRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(events_strategy, st.sampled_from(["csv", "jsonl"]), st.booleans())
    def test_parse_serialize_round_trip(self, events, format, header):
        header = header and format == "csv"
        text = reference_serialize_events(events, format, header=header)
        table, stats = read_events(text.splitlines(keepends=True), format, REGISTRY,
                                   centroids=CENTROIDS)
        assert stats.total == 0
        resolved = by_user_time(reference_resolve_events(events, CENTROIDS))
        assert events_of(table) == resolved
        assert written(table, header) == reference_serialize_events(resolved, "csv", header=header)


policies = st.builds(FilterPolicy, max_events_per_day=st.integers(1, 4),
                     max_countries_per_day=st.integers(1, 3), min_events_total=st.integers(0, 6),
                     min_active_months=st.integers(0, 3))
# a few days either side of month ends, so day and month rules both bite
filter_instants = st.builds(lambda day, second: ts(2014, 1, 30) + timedelta(days=day, seconds=second),
                            st.integers(0, 35), st.sampled_from([0, 1, 3600, 86399]))


class TestColumnarFilterMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(lambda user, t, country: Event(user, t, country=country),
                              st.sampled_from(["a", "b", "c"]), filter_instants,
                              st.sampled_from(["GB", "FR", "ES", "US"])), max_size=30), policies)
    def test_kept_events_and_rule_tallies(self, events, policy):
        kept, stats = filter_table(table_of(events), policy)
        expected, expected_stats = reference_filter_users(events, policy)
        assert events_of(kept) == expected
        assert stats.as_dict() == expected_stats.as_dict()


# rows that each take one path through the rules, for the share tests below
SHARE_ROWS = [
    "u1,2014-03-05T10:00:00Z,GB",
    "u2,2014-03-06T11:00:00Z,fr",
    "u1,2014-02-01T00:00:00Z,51.5,-0.1",  # a point
    "u3,2014-13-01T00:00:00Z,ES",  # bad timestamp
    "u4,2014-03-05T10:00:00Z,XX",  # unknown country
    "a,b",  # bad field count
    CSV_HEADER_COUNTRY,  # past the first line a header's text is a data row
    "é,2014-04-01T00:00:00+02:00,DE",  # a character of two UTF-8 bytes
    "u2,2013-06-01T00:00:00Z,US",  # out of the interval
    "u5,2014-05-05T05:05:05Z,KW",
]
SHARE_JSONL = [
    '{"user_id": "u1", "timestamp": "2014-03-05T10:00:00Z", "country": "GB"}',
    '{"user_id": "u2", "timestamp": "2014-03-06T11:00:00Z", "lat": 46.5, "lon": 2.5}',
    '{"user_id": "u1", "timestamp": "2014-03-07T11:00:00Z", "country',  # bad JSON
    '{"timestamp": "2014-03-05T10:00:00Z", "country": "GB"}',  # missing user
    '{"user_id": "u3", "timestamp": "2014-02-30T00:00:00Z", "country": "ES"}',  # bad timestamp
    '{"user_id": "u3", "timestamp": "2013-06-01T00:00:00Z", "country": "ES"}',  # out of the interval
    '{"user_id": "u4", "timestamp": "2014-03-05T10:00:00Z", "lat": 95.0, "lon": 0}',  # off the globe
    '{"user_id": "u4", "timestamp": "2014-03-05T10:00:00Z", "country": "XX"}',  # unknown country
    '{"user_id": "u5", "timestamp": "2014-03-05T10:00:00Z", "country": "GB", "lat": 1, "lon": 2}',
    '',
    '{"user_id": "é", "timestamp": "2014-04-01T00:00:00Z", "lat": 29.0, "lon": 47.0}',
]
# the bytes of small files and their format
SHARE_STREAMS = {
    "csv with header": ("".join(f"{row}\n" for row in [CSV_HEADER_COUNTRY, *SHARE_ROWS]), "csv"),
    "csv without header": ("".join(f"{row}\n" for row in SHARE_ROWS), "csv"),
    "csv CRLF and CR": ("".join(row + ("\r\n", "\r", "\n")[i % 3] for i, row in enumerate(SHARE_ROWS)),
                        "csv"),
    "csv blank lines": ("".join(f"{row}\n" + ("\n", "  \n", "\r\n")[i % 3]
                                for i, row in enumerate(SHARE_ROWS)), "csv"),
    "csv no last line feed": ("\n".join(SHARE_ROWS), "csv"),
    "csv quoted": ('"u,1",2014-03-05T10:00:00Z,GB\n"u""2",2014-03-05T10:00:00Z,"FR"\n'
                   'u3,"2014-03-05T10:00:00Z","ES"\n"u4,2014-03-05T10:00:00Z,GB\n'
                   + "".join(f"{row}\n" for row in SHARE_ROWS), "csv"),
    "jsonl": ("".join(row + ("\n", "\r\n")[i % 2] for i, row in enumerate(SHARE_JSONL)), "jsonl"),
}


def read_in_shares(path, cuts, format, interval=INTERVAL, registry=REGISTRY, centroids=CENTROIDS):
    """What ``read_events`` returns for the file at ``path`` parsed in one
    share per byte range between ``cuts``, each through the share parser."""
    bounds = None if interval is None else tuple(map(events._ceil_seconds, interval))
    starts = [0, *cuts]
    return events._joined([events._parse_range(path, start, end, format, registry, bounds, centroids)
                           for start, end in zip(starts, [*cuts, None])])


def line_feed_ends(data: bytes) -> list[int]:
    """Every offset just after a line feed, short of the end: the cut points."""
    return [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]


class TestShares:
    """A file parsed in byte-range shares, cut just after line feeds, gives
    the table and the tallies of one share."""

    @pytest.mark.parametrize("name", sorted(SHARE_STREAMS))
    def test_every_cut_parses_as_one_share(self, tmp_path, name):
        text, format = SHARE_STREAMS[name]
        data = text.encode()
        path = tmp_path / "stream"
        path.write_bytes(data)
        whole = read_in_shares(path, [], format)
        # the one share reads as the per-record reference reads the file's lines
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
        expected, expected_stats = reference_parse_events(lines, format, INTERVAL, REGISTRY)
        assert events_of(whole[0]) == reference_resolve_events(expected, CENTROIDS)
        assert whole[1].as_dict() == expected_stats.as_dict()
        assert_same_read(read_events(path, format, REGISTRY, INTERVAL, CENTROIDS), whole)
        if format == "jsonl":
            assert set(whole[1].counts) == {BAD_JSON, MISSING_FIELD, BAD_TIMESTAMP, OUT_OF_INTERVAL,
                                            BAD_COORDINATES, UNKNOWN_COUNTRY, BAD_LOCATION}
        cuts = line_feed_ends(data)
        assert len(cuts) >= 5
        for chosen in itertools.chain(itertools.combinations(cuts, 1), itertools.combinations(cuts, 2)):
            assert_same_read(read_in_shares(path, list(chosen), format), whole)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(csv_streams().map(lambda lines: ("csv", lines)),
                     st.lists(jsonl_lines(), max_size=25).map(lambda lines: ("jsonl", lines))),
           st.data())
    def test_any_cuts_of_any_stream(self, stream, data):
        format, lines = stream
        raw = "".join(lines).encode()
        cuts = data.draw(st.lists(st.sampled_from(line_feed_ends(raw) or [0]), max_size=4)
                         .map(lambda cuts: sorted(set(cuts) - {0})))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "stream")
            with open(path, "wb") as fh:
                fh.write(raw)
            assert_same_read(read_in_shares(path, cuts, format), read_in_shares(path, [], format))

    @pytest.mark.skipif(sys.platform != "linux", reason="read_events forks its workers only on Linux")
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_a_file_in_any_number_of_processes(self, tmp_path, monkeypatch, format):
        # the demo's synthetic stream, as codes or as points with malformed lines
        registry = load_registry(DEMO / "registry.txt")
        centroids = load_centroids(DEMO / "centroids.csv", registry)
        csv_path = tmp_path / "events.csv"
        write_synthetic(load_synth_spec(DEMO / "synth_tourism.json"), registry, csv_path)
        path = csv_path
        if format == "jsonl":
            path = tmp_path / "events.jsonl"
            with open(DEMO / "centroids.csv", encoding="utf-8") as fh:
                point = {row["country"]: (float(row["lat"]), float(row["lon"]))
                         for row in csv.DictReader(fh)}
            with open(csv_path, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as out:
                for i, row in enumerate(csv.DictReader(src)):
                    lat, lon = point[row["country"]]
                    line = json.dumps({"user_id": row["user_id"], "timestamp": row["timestamp"],
                                       "lat": lat + (i % 7) * 0.01, "lon": lon})
                    out.write((line[:-3] if i % 97 == 0 else line) + "\n")
        interval = (ts(2013, 1, 1), ts(2016, 1, 1))
        with open(path, encoding="utf-8") as fh:
            expected = read_events(fh.readlines(), format, registry, interval, centroids)
        assert len(expected[0]) > 10000 and (format == "csv" or expected[1].counts[BAD_JSON] > 100)
        monkeypatch.setattr(events, "MIN_SHARE_BYTES", 1 << 14)
        pids = forks(monkeypatch)
        for n in (1, 2, 3, 4):
            monkeypatch.setattr(workers, "count", lambda n=n: n)
            before = len(pids)
            assert_same_read(read_events(path, format, registry, interval, centroids), expected)
            assert len(events._ranges(path, n)) == n and len(pids) - before == n - 1

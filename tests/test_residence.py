"""Monthly residence assignment and window-k migration detection tests."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migtensor.ingestion import ConfigError, GeoEvent, InputError
from migtensor.residence import (
    MigrationEvent,
    MonthCalendar,
    ResidenceSeries,
    detect_all,
    detect_migrations,
    monthly_residence,
    read_migrations,
    read_residences,
    write_migrations,
    write_residences,
)

from conftest import reference_detect_migrations

UTC = timezone.utc


def ts(*args):
    return datetime(*args, tzinfo=UTC)


def series(filled, user="u"):
    """ResidenceSeries straight from a filled country-index list."""
    return ResidenceSeries(user, list(filled))


def events_in_month(user, calendar, month, country, n, start_hour=0):
    year, mo = calendar.year_month(month)
    return [GeoEvent(user, ts(year, mo, 1) + timedelta(hours=start_hour + h), country=country)
            for h in range(n)]


class TestMonthCalendar:
    def test_month_index_and_label(self):
        cal = MonthCalendar(2014, 11, 5)
        assert cal.month_index(ts(2014, 11, 1)) == 0
        assert cal.month_index(ts(2015, 3, 31, 23, 59, 59)) == 4
        assert cal.label(0) == "2014-11"
        assert cal.label(2) == "2015-01"
        assert cal.year_month(4) == (2015, 3)

    def test_interval_is_half_open(self):
        cal = MonthCalendar(2014, 1, 12)
        start, end = cal.interval()
        assert start == ts(2014, 1, 1)
        assert end == ts(2015, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonthCalendar(2014, 13, 5)
        with pytest.raises(ValueError):
            MonthCalendar(2014, 1, 0)


class TestMonthlyResidence:
    def test_majority_wins(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        events = (events_in_month("u", cal, 0, "FR", 3)
                  + events_in_month("u", cal, 0, "ES", 2, start_hour=10))
        s = monthly_residence(events, cal, registry)
        assert s.filled[0] == registry.index_of("FR")

    def test_tie_breaks_to_previous_month(self, registry):
        cal = MonthCalendar(2014, 1, 2)
        events = (events_in_month("u", cal, 0, "ES", 1)
                  + events_in_month("u", cal, 1, "FR", 2)
                  + events_in_month("u", cal, 1, "ES", 2, start_hour=10))
        s = monthly_residence(events, cal, registry)
        assert s.filled[1] == registry.index_of("ES")

    def test_tie_without_previous_breaks_to_latest_event(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        events = (events_in_month("u", cal, 0, "FR", 2)
                  + events_in_month("u", cal, 0, "ES", 2, start_hour=10))
        s = monthly_residence(events, cal, registry)
        assert s.filled[0] == registry.index_of("ES")  # ES events are later

    def test_forward_fill(self, registry):
        cal = MonthCalendar(2014, 1, 5)
        events = (events_in_month("u", cal, 0, "FR", 1)
                  + events_in_month("u", cal, 3, "ES", 1))
        s = monthly_residence(events, cal, registry)
        fr, es = registry.index_of("FR"), registry.index_of("ES")
        assert s.filled == [fr, fr, fr, es, es]

    def test_months_before_first_observation_stay_undefined(self, registry):
        cal = MonthCalendar(2014, 1, 4)
        events = events_in_month("u", cal, 2, "GB", 1)
        s = monthly_residence(events, cal, registry)
        gb = registry.index_of("GB")
        assert s.filled == [None, None, gb, gb]

    def test_no_events_all_undefined(self, registry):
        cal = MonthCalendar(2014, 1, 3)
        s = monthly_residence([], cal, registry)
        assert s.filled == [None, None, None]

    def test_multiple_users_rejected(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        events = (events_in_month("a", cal, 0, "FR", 1)
                  + events_in_month("b", cal, 0, "FR", 1))
        with pytest.raises(ValueError):
            monthly_residence(events, cal, registry)


class TestDetectStrict:
    def test_single_change_k1(self):
        events = detect_migrations(series([1, 1, 2, 2]), 1)
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(2, 1, 2)]

    def test_single_change_k2(self):
        events = detect_migrations(series([1, 1, 2, 2]), 2)
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(2, 1, 2)]

    def test_alternating_series_k2_has_no_uniform_window(self):
        assert detect_migrations(series([1, 2, 1, 2]), 2) == []

    def test_constant_series_no_events(self):
        s = series([3] * 12)
        for k in range(1, 7):
            assert detect_migrations(s, k) == []

    def test_single_change_detected_at_change_month_for_every_k(self):
        rng = np.random.default_rng(0)
        M = 24
        for _ in range(50):
            change = int(rng.integers(1, M))
            filled = [0] * change + [1] * (M - change)
            for k in range(1, M // 2 + 1):
                events = detect_migrations(series(filled), k)
                if k <= change <= M - k:
                    assert [(ev.month, ev.origin, ev.destination) for ev in events] \
                        == [(change, 0, 1)]
                else:
                    assert events == []

    def test_undefined_months_never_anchor_windows(self):
        # change month preceded by an undefined gap: back window undefined
        assert detect_migrations(series([None, 1, 2, 2]), 2) == []
        assert detect_migrations(series([None, None, 2, 2]), 1) == []
        events = detect_migrations(series([None, 1, 2, 2]), 1)
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(2, 1, 2)]

    def test_k_monotonicity_on_random_series(self):
        rng = np.random.default_rng(7)
        M = 24
        for _ in range(200):
            filled = [int(c) for c in rng.integers(0, 3, size=M)]
            counts = [len(detect_migrations(series(filled), k)) for k in range(1, 6)]
            assert all(a >= b for a, b in zip(counts, counts[1:])), (filled, counts)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            detect_migrations(series([1, 2, 1, 2]), 0)
        with pytest.raises(ConfigError):
            detect_migrations(series([1, 2, 1, 2]), 3)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            detect_migrations(series([1, 2]), 1, mode="fuzzy")

    def test_full_windows_and_distinct_endpoints(self):
        rng = np.random.default_rng(11)
        M = 18
        for _ in range(100):
            filled = [int(c) for c in rng.integers(0, 4, size=M)]
            for k in (1, 2, 3):
                for ev in detect_migrations(series(filled), k):
                    assert ev.origin != ev.destination
                    assert k <= ev.month <= M - k
                    assert all(c == ev.origin for c in filled[ev.month - k:ev.month])
                    assert all(c == ev.destination for c in filled[ev.month:ev.month + k])


class TestDetectModal:
    def test_majority_window(self):
        # back [1,1,2] -> 1, forward [2,2,1] -> 2: detected under modal only
        filled = [1, 1, 2, 2, 2, 1]
        assert detect_migrations(series(filled), 3, mode="strict") == []
        events = detect_migrations(series(filled), 3, mode="modal")
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(3, 1, 2)]

    def test_tied_window_is_undefined(self):
        # every 2-month window around the change ties 1:1 except the clean cut
        events = detect_migrations(series([1, 1, 2, 2]), 2, mode="modal")
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(2, 1, 2)]

    def test_repeat_detections_collapse_to_earliest(self):
        # one physical move, M=8, k=3: modal windows fire at m=3, 4 and 5
        filled = [1, 1, 1, 1, 2, 2, 2, 2]
        raw = [
            (m, b, f)
            for m in range(3, 6)
            for b in [_modal(filled[m - 3:m])]
            for f in [_modal(filled[m:m + 3])]
            if b is not None and f is not None and b != f
        ]
        assert [m for m, _, _ in raw] == [3, 4, 5]  # duplicates pre-collapse
        events = detect_migrations(series(filled), 3, mode="modal")
        assert [(ev.month, ev.origin, ev.destination) for ev in events] == [(3, 1, 2)]

    def test_distinct_pairs_do_not_collapse(self):
        filled = [1, 2, 3, 3]
        events = detect_migrations(series(filled), 1, mode="modal")
        assert [(ev.month, ev.origin, ev.destination) for ev in events] \
            == [(1, 1, 2), (2, 2, 3)]


@st.composite
def detection_problems(draw):
    """Series over few countries (so modal windows tie and (origin,
    destination) pairs repeat), with None prefixes and gaps, and a k."""
    M = draw(st.integers(2, 24))
    k = draw(st.integers(1, M // 2))
    countries = st.integers(0, draw(st.integers(1, 3)))
    users = []
    for u in range(draw(st.integers(0, 6))):
        prefix = draw(st.integers(0, M))
        rest = draw(st.lists(st.one_of(countries, countries, countries, st.none()),
                             min_size=M - prefix, max_size=M - prefix))
        users.append(series([None] * prefix + rest, user=f"u{u}"))
    return users, k


class TestBatchedDetectMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(detection_problems(), st.sampled_from(["strict", "modal"]))
    @example(([series([1, 1, 1, 1, 2, 2, 2, 2])], 3), "modal")
    @example(([series([1, 2, 1, 2, 1, 2, 1, 2]), series([1, 2, 1, 2, 1, 2, 1, 2], "w")], 1), "modal")
    @example(([series([None, None, 1, 2, 2, 1, 1, 2, 2, 1])], 2), "modal")
    def test_events_equal_per_series_reference(self, problem, mode):
        users, k = problem
        expected = [ev for s in users for ev in reference_detect_migrations(s, k, mode)]
        assert detect_all(users, k, mode) == expected
        for s in users:
            assert detect_migrations(s, k, mode) == reference_detect_migrations(s, k, mode)

    def test_no_series_no_events(self):
        assert detect_all([], 1, "modal") == []
        with pytest.raises(ConfigError):
            detect_all([], 1, "fuzzy")

    def test_series_must_span_the_same_months(self):
        with pytest.raises(ValueError):
            detect_all([series([1, 2]), series([1, 2, 2])], 1)


def _modal(window):
    from collections import Counter
    counts = Counter(window)
    top = max(counts.values())
    tied = [c for c, n in counts.items() if n == top]
    return tied[0] if len(tied) == 1 else None


class TestMigrationEvent:
    def test_origin_must_differ_from_destination(self):
        with pytest.raises(ValueError):
            MigrationEvent("u", 3, 1, 1)


class TestDumps:
    def test_residence_round_trip(self, registry, tmp_path):
        lists = [[None, 0, 0, 1], [2, 2, 2, 2], [None, None, None, None]]
        originals = [series(f, user=f"u{i}") for i, f in enumerate(lists)]
        path = tmp_path / "residences.csv"
        write_residences(originals, registry, path)
        loaded = read_residences(path, registry, 4)
        # the never-observed u2 writes no rows and drops out of the dump
        assert [s.user_id for s in loaded] == ["u0", "u1"]
        assert [s.filled for s in loaded] == lists[:2]

    def test_migration_round_trip(self, registry, tmp_path):
        events = [MigrationEvent("a", 3, 0, 1), MigrationEvent("b", 7, 2, 4)]
        path = tmp_path / "migrations.csv"
        write_migrations(events, registry, path)
        assert read_migrations(path, registry, 12) == events

    def test_residence_csv_shape(self, registry, tmp_path):
        path = tmp_path / "residences.csv"
        write_residences([series([0, None, 1])], registry, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "user_id,month_index,country"
        # undefined months are omitted, defined ones spelled as codes
        assert lines[1:] == ["u,0,GB", "u,2,FR"]

    @pytest.mark.parametrize("rows, bad_line, message", [
        (["u,0,GB", "u,0,FR", "u,1_0,GB"], 3, "repeated month 0 for user 'u'"),
        (["v,0,GB", "u,1,FR", "v,0,GB"], 4, "repeated month 0 for user 'v'"),
        (["u,1_0,GB"], 2, "month index '1_0' is not a plain decimal integer"),
        (["u,+3,GB"], 2, "month index '+3' is not a plain decimal integer"),
        (["u, 3,GB"], 2, "month index ' 3' is not a plain decimal integer"),
        (["u,03,GB"], 2, "month index '03' is not a plain decimal integer"),
    ])
    def test_residence_rows_the_writer_never_emits_are_rejected(
            self, registry, tmp_path, rows, bad_line, message):
        path = tmp_path / "residences.csv"
        path.write_text("user_id,month_index,country\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError) as err:
            read_residences(path, registry, 12)
        assert str(err.value) == f"{path}:{bad_line}: {message}"

    @pytest.mark.parametrize("month", ["1_0", "+3", " 3", "03"])
    def test_migration_months_the_writer_never_emits_are_rejected(self, registry, tmp_path, month):
        path = tmp_path / "migrations.csv"
        path.write_text(f"user_id,month_index,origin,destination\na,2,GB,FR\na,{month},GB,FR\n")
        with pytest.raises(InputError) as err:
            read_migrations(path, registry, 12)
        assert str(err.value) == f"{path}:3: month index {month!r} is not a plain decimal integer"

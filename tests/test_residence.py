"""Monthly residence assignment and window-k migration detection tests."""

from __future__ import annotations

import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migtensor.events import EventTable, InputError
from migtensor.ingestion import ConfigError, CountryRegistry
from migtensor.residence import (
    MonthCalendar,
    detect_all,
    read_migrations,
    read_residences,
    residence_matrix,
    write_migrations,
    write_residence_matrix,
)

from conftest import (
    Event,
    reference_detect_migrations,
    reference_monthly_residence,
    reference_write_residence_matrix,
    residence_rows,
    table_of,
)

UTC = timezone.utc


def ts(*args):
    return datetime(*args, tzinfo=UTC)


def detect(filled, k, mode="strict"):
    """(month, origin, destination) of each move :func:`detect_all` finds in
    one user's filled residence list (None unknown)."""
    return [(m, o, d) for _, m, o, d in detect_all(residence_rows([filled], len(filled)), k, mode).tolist()]


def named(users, moves) -> list:
    """(user id, month, origin, destination) of each row of a migration array."""
    return [(users[u], m, o, d) for u, m, o, d in moves.tolist()]


def residence(events, calendar, registry) -> list:
    """One user's row of :func:`residence_matrix`, None where unknown."""
    (row,) = residence_matrix(table_of(events, registry), calendar).tolist()
    return [None if c < 0 else c for c in row]


def events_in_month(user, calendar, month, country, n, start_hour=0):
    year, mo = calendar.year_month(month)
    return [Event(user, ts(year, mo, 1) + timedelta(hours=start_hour + h), country=country)
            for h in range(n)]


class TestMonthCalendar:
    def test_label_and_year_month(self):
        cal = MonthCalendar(2014, 11, 5)
        assert cal.label(0) == "2014-11"
        assert cal.label(2) == "2015-01"
        assert cal.year_month(4) == (2015, 3)

    # the last is the widest calendar whose interval datetime can hold
    @pytest.mark.parametrize("calendar, first, after_last", [
        ((2014, 1, 12), (2014, 1), (2015, 1)), ((1, 1, 9999 * 12 - 1), (1, 1), (9999, 12))])
    def test_interval_is_half_open(self, calendar, first, after_last):
        start, end = MonthCalendar(*calendar).interval()
        assert start == ts(*first, 1)
        assert end == ts(*after_last, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonthCalendar(2014, 13, 5)
        with pytest.raises(ValueError):
            MonthCalendar(2014, 1, 0)

    @pytest.mark.parametrize("epoch_year, epoch_month, months", [(0, 1, 24), (0, 12, 1), (-5, 1, 1),
                                                                 (9999, 1, 24), (9999, 12, 1)])
    def test_interval_past_datetime_range_is_config_error(self, epoch_year, epoch_month, months):
        with pytest.raises(ConfigError, match="must start in year 1 or later and end by November 9999"):
            MonthCalendar(epoch_year, epoch_month, months)


class TestMonthlyResidence:
    def test_majority_wins(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        events = (events_in_month("u", cal, 0, "FR", 3)
                  + events_in_month("u", cal, 0, "ES", 2, start_hour=10))
        assert residence(events, cal, registry)[0] == registry.index["FR"]

    def test_tie_breaks_to_previous_month(self, registry):
        cal = MonthCalendar(2014, 1, 2)
        events = (events_in_month("u", cal, 0, "ES", 1)
                  + events_in_month("u", cal, 1, "FR", 2)
                  + events_in_month("u", cal, 1, "ES", 2, start_hour=10))
        assert residence(events, cal, registry)[1] == registry.index["ES"]

    def test_tie_without_previous_breaks_to_latest_event(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        events = (events_in_month("u", cal, 0, "FR", 2)
                  + events_in_month("u", cal, 0, "ES", 2, start_hour=10))
        assert residence(events, cal, registry)[0] == registry.index["ES"]  # ES events are later

    def test_forward_fill(self, registry):
        cal = MonthCalendar(2014, 1, 5)
        events = (events_in_month("u", cal, 0, "FR", 1)
                  + events_in_month("u", cal, 3, "ES", 1))
        fr, es = registry.index["FR"], registry.index["ES"]
        assert residence(events, cal, registry) == [fr, fr, fr, es, es]

    def test_months_before_first_observation_stay_undefined(self, registry):
        cal = MonthCalendar(2014, 1, 4)
        events = events_in_month("u", cal, 2, "GB", 1)
        gb = registry.index["GB"]
        assert residence(events, cal, registry) == [None, None, gb, gb]

    def test_no_events_no_rows(self, registry):
        cal = MonthCalendar(2014, 1, 3)
        assert residence_matrix(table_of([], registry), cal).shape == (0, 3)

    @pytest.mark.parametrize("at, inside", [
        (ts(2013, 12, 31, 23, 59, 59), False), (ts(2014, 1, 1), True),
        (ts(2014, 3, 31, 23, 59, 59), True), (ts(2014, 4, 1), False),
    ], ids=["second-before", "first-second", "last-second", "second-after"])
    def test_an_event_outside_the_calendar_raises(self, registry, at, inside):
        cal = MonthCalendar(2014, 1, 3)
        table = table_of([Event("u", ts(2014, 2, 1), country="GB"), Event("v", at, country="FR")], registry)
        if inside:
            assert residence_matrix(table, cal)[1].tolist().count(registry.index["FR"]) >= 1
        else:
            with pytest.raises(ValueError, match="outside the study interval"):
                residence_matrix(table, cal)

    def test_memory_stays_near_one_int64_per_row(self):
        """Rows arrive sorted by (user, time), so the matrix needs no sort
        key per row: its peak beyond the result stays under 40 bytes a row
        on 60k rows, a tenth of them moved to one more country so that many
        cells hold two. A sort key per row, sorted and gathered, takes
        more than twice that."""
        cal = MonthCalendar(2014, 1, 24)
        start, end = (int(t.timestamp()) for t in cal.interval())
        rng = np.random.default_rng(5)
        users, per = 2000, 30
        seconds = np.sort(rng.integers(start, end, (users, per)), axis=1).reshape(-1)
        country = np.repeat(rng.integers(0, 6, users), per).astype(np.int16)
        country[rng.random(country.size) < 0.1] = 5
        table = EventTable([f"u{i:04d}" for i in range(users)],
                           np.repeat(np.arange(users, dtype=np.int32), per), seconds, country)
        tracemalloc.start()
        try:
            filled = residence_matrix(table, cal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - filled.nbytes) / len(table) < 40


class TestDetectStrict:
    def test_single_change_k1(self):
        events = detect([1, 1, 2, 2], 1)
        assert events == [(2, 1, 2)]

    def test_single_change_k2(self):
        events = detect([1, 1, 2, 2], 2)
        assert events == [(2, 1, 2)]

    def test_alternating_series_k2_has_no_uniform_window(self):
        assert detect([1, 2, 1, 2], 2) == []

    def test_constant_series_no_events(self):
        for k in range(1, 7):
            assert detect([3] * 12, k) == []

    def test_single_change_detected_at_change_month_for_every_k(self):
        rng = np.random.default_rng(0)
        M = 24
        for _ in range(50):
            change = int(rng.integers(1, M))
            filled = [0] * change + [1] * (M - change)
            for k in range(1, M // 2 + 1):
                events = detect(filled, k)
                if k <= change <= M - k:
                    assert events == [(change, 0, 1)]
                else:
                    assert events == []

    def test_undefined_months_never_anchor_windows(self):
        # change month preceded by an undefined gap: back window undefined
        assert detect([None, 1, 2, 2], 2) == []
        assert detect([None, None, 2, 2], 1) == []
        events = detect([None, 1, 2, 2], 1)
        assert events == [(2, 1, 2)]

    def test_k_monotonicity_on_random_series(self):
        rng = np.random.default_rng(7)
        M = 24
        for _ in range(200):
            filled = [int(c) for c in rng.integers(0, 3, size=M)]
            counts = [len(detect(filled, k)) for k in range(1, 6)]
            assert all(a >= b for a, b in zip(counts, counts[1:])), (filled, counts)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            detect([1, 2, 1, 2], 0)
        with pytest.raises(ConfigError):
            detect([1, 2, 1, 2], 3)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            detect([1, 2], 1, mode="fuzzy")

    def test_full_windows_and_distinct_endpoints(self):
        rng = np.random.default_rng(11)
        M = 18
        for _ in range(100):
            filled = [int(c) for c in rng.integers(0, 4, size=M)]
            for k in (1, 2, 3):
                for month, origin, destination in detect(filled, k):
                    assert origin != destination
                    assert k <= month <= M - k
                    assert all(c == origin for c in filled[month - k:month])
                    assert all(c == destination for c in filled[month:month + k])


class TestDetectModal:
    def test_majority_window(self):
        # back [1,1,2] -> 1, forward [2,2,1] -> 2: detected under modal only
        filled = [1, 1, 2, 2, 2, 1]
        assert detect(filled, 3, mode="strict") == []
        events = detect(filled, 3, mode="modal")
        assert events == [(3, 1, 2)]

    def test_tied_window_is_undefined(self):
        # every 2-month window around the change ties 1:1 except the clean cut
        events = detect([1, 1, 2, 2], 2, mode="modal")
        assert events == [(2, 1, 2)]

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
        events = detect(filled, 3, mode="modal")
        assert events == [(3, 1, 2)]

    def test_distinct_pairs_do_not_collapse(self):
        filled = [1, 2, 3, 3]
        events = detect(filled, 1, mode="modal")
        assert events == [(1, 1, 2), (2, 2, 3)]


@st.composite
def detection_problems(draw):
    """Filled residence lists (None unknown) over few countries, so modal
    windows tie and (origin, destination) pairs repeat, with None prefixes
    and gaps, and their month count and a k."""
    M = draw(st.integers(2, 24))
    k = draw(st.integers(1, M // 2))
    countries = st.integers(0, draw(st.integers(1, 3)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        prefix = draw(st.integers(0, M))
        rest = draw(st.lists(st.one_of(countries, countries, countries, st.none()),
                             min_size=M - prefix, max_size=M - prefix))
        rows.append([None] * prefix + rest)
    return rows, M, k


def users_of(rows):
    return [f"u{i}" for i in range(len(rows))]


class TestBatchedDetectMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(detection_problems(), st.sampled_from(["strict", "modal"]))
    @example(([[1, 1, 1, 1, 2, 2, 2, 2]], 8, 3), "modal")
    @example(([[1, 2, 1, 2, 1, 2, 1, 2], [1, 2, 1, 2, 1, 2, 1, 2]], 8, 1), "modal")
    @example(([[None, None, 1, 2, 2, 1, 1, 2, 2, 1]], 10, 2), "modal")
    def test_events_equal_per_user_reference(self, problem, mode):
        rows, M, k = problem
        users = users_of(rows)
        expected = [ev for user, row in zip(users, rows)
                    for ev in reference_detect_migrations(user, row, k, mode)]
        moves = detect_all(residence_rows(rows, M), k, mode)
        assert moves.dtype == np.int64 and moves.shape == (len(expected), 4)
        assert named(users, moves) == expected
        for user, row in zip(users, rows):
            assert named([user], detect_all(residence_rows([row], M), k, mode)) == \
                reference_detect_migrations(user, row, k, mode)

    def test_no_users_no_events(self):
        moves = detect_all(np.empty((0, 4), dtype=np.int16), 1, "modal")
        assert moves.dtype == np.int64 and moves.shape == (0, 4)
        with pytest.raises(ConfigError):
            detect_all(np.empty((0, 4), dtype=np.int16), 1, "fuzzy")


class TestStrictDetectionNests:
    @settings(max_examples=300, deadline=None)
    @given(detection_problems())
    def test_detections_at_k_plus_1_are_detections_at_k(self, problem):
        # both (k+1)-windows around a month contain its k-windows
        rows, M, k = problem
        if 2 * (k + 1) > M:
            return
        filled = residence_rows(rows, M)
        wide = set(map(tuple, detect_all(filled, k + 1).tolist()))
        assert wide <= set(map(tuple, detect_all(filled, k).tolist()))


TIE_CALENDAR = MonthCalendar(2014, 1, 4)


@st.composite
def residence_events(draw):
    """Events of a few users over few countries and few distinct seconds per
    month, in any order: majority ties and equal latest seconds are common."""
    events = []
    for user in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)):
        for _ in range(draw(st.integers(1, 10))):
            month = draw(st.integers(0, TIE_CALENDAR.months - 1))
            second = draw(st.sampled_from([0, 1, 86400, 27 * 86400]))
            year, mo = TIE_CALENDAR.year_month(month)
            events.append(Event(user, ts(year, mo, 1) + timedelta(seconds=second),
                                country=draw(st.sampled_from(["GB", "FR", "ES"]))))
    return draw(st.permutations(events))


class TestResidenceMatrixMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(residence_events())
    # GB and FR tie on count and on their latest second: FR came first
    @example([Event("a", ts(2014, 1, 1), country="FR"), Event("a", ts(2014, 1, 1), country="GB")])
    def test_rows_equal_per_user_reference(self, events):
        registry = CountryRegistry(["GB", "FR", "ES"])
        table = table_of(events, registry)
        filled = residence_matrix(table, TIE_CALENDAR)
        assert filled.shape == (len(table.users), TIE_CALENDAR.months)
        for row, user in zip(filled.tolist(), table.users):
            expected = reference_monthly_residence([ev for ev in events if ev.user_id == user],
                                                   TIE_CALENDAR, registry)
            assert [None if c < 0 else c for c in row] == expected

    def test_equal_latest_second_breaks_to_first_seen(self, registry):
        cal = MonthCalendar(2014, 1, 1)
        at = ts(2014, 1, 5)
        events = [Event("u", at, country="ES"), Event("u", at, country="FR")]
        assert residence(events, cal, registry) == [registry.index["ES"]]
        assert residence(events[::-1], cal, registry) == [registry.index["FR"]]


def _modal(window):
    from collections import Counter
    counts = Counter(window)
    top = max(counts.values())
    tied = [c for c, n in counts.items() if n == top]
    return tied[0] if len(tied) == 1 else None


# text csv.writer quotes (a comma, a quote, a line break), pads or spells in
# more than ASCII, mixed with plain letters
csv_texts = st.text(alphabet=st.sampled_from(list('ab1 ,"\r\né€')), max_size=6)


@st.composite
def residence_dumps(draw):
    """Sorted users, a residence matrix over them and a registry whose codes
    need quoting (printable ones, the only codes a registry holds)."""
    users = sorted(draw(st.sets(csv_texts, max_size=8)))
    codes = draw(st.lists(csv_texts.map(lambda c: c.strip().upper()).filter(lambda c: c and c.isprintable()),
                          min_size=1, max_size=4, unique=True))
    months = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(-1, len(codes) - 1), min_size=len(users) * months,
                          max_size=len(users) * months))
    return users, np.array(cells, dtype=np.int16).reshape(len(users), months), CountryRegistry(codes)


class TestWriteResidenceMatrixMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(residence_dumps(), st.sampled_from([1, 2, 7]))
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, dump, block):
        users, filled, registry = dump
        out = tmp_path_factory.mktemp("dumps")
        reference_write_residence_matrix(users, filled, registry, out / "expected.csv")
        with mock.patch("migtensor.residence._WRITE_BLOCK_USERS", block):
            write_residence_matrix(users, filled, registry, out / "written.csv")
        assert (out / "written.csv").read_bytes() == (out / "expected.csv").read_bytes()


class TestDumps:
    def test_residence_round_trip(self, registry, tmp_path):
        lists = [[None, 0, 0, 1], [2, 2, 2, 2], [None, None, None, None]]
        path = tmp_path / "residences.csv"
        write_residence_matrix(["u0", "u1", "u2"], residence_rows(lists, 4), registry, path)
        users, filled = read_residences(path, registry, 4)
        # the never-observed u2 writes no rows and drops out of the dump
        assert users == ["u0", "u1"]
        assert filled.dtype == np.int16
        assert np.array_equal(filled, residence_rows(lists[:2], 4))

    def test_residence_rows_come_in_user_order(self, registry, tmp_path):
        path = tmp_path / "residences.csv"
        path.write_text("user_id,month_index,country\nv,1,FR\nu,0,GB\nv,0,ES\n")
        users, filled = read_residences(path, registry, 2)
        assert users == ["u", "v"]
        assert filled.tolist() == [[0, -1], [2, 1]]

    def test_empty_residence_dump(self, registry, tmp_path):
        path = tmp_path / "residences.csv"
        path.write_text("user_id,month_index,country\n")
        users, filled = read_residences(path, registry, 3)
        assert users == [] and filled.shape == (0, 3)

    def test_migration_round_trip(self, registry, tmp_path):
        moves = np.array([[0, 3, 0, 1], [1, 7, 2, 4]], dtype=np.int64)
        path = tmp_path / "migrations.csv"
        write_migrations(["a", "b"], moves, registry, path)
        assert path.read_text() == "user_id,month_index,origin,destination\na,3,GB,FR\nb,7,ES,KW\n"
        users, read = read_migrations(path, registry, 12)
        assert users == ["a", "b"] and read.dtype == np.int64
        assert np.array_equal(read, moves)

    def test_migration_users_come_in_first_seen_order(self, registry, tmp_path):
        path = tmp_path / "migrations.csv"
        path.write_text("user_id,month_index,origin,destination\nv,1,FR,GB\nu,0,GB,ES\nv,3,GB,FR\n")
        users, moves = read_migrations(path, registry, 4)
        assert users == ["v", "u"]
        assert moves.tolist() == [[0, 1, 1, 0], [1, 0, 0, 2], [0, 3, 0, 1]]

    def test_empty_migration_dump(self, registry, tmp_path):
        path = tmp_path / "migrations.csv"
        path.write_text("user_id,month_index,origin,destination\n")
        users, moves = read_migrations(path, registry, 4)
        assert users == [] and moves.dtype == np.int64 and moves.shape == (0, 4)

    def test_residence_csv_shape(self, registry, tmp_path):
        path = tmp_path / "residences.csv"
        write_residence_matrix(["u"], residence_rows([[0, None, 1]], 3), registry, path)
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

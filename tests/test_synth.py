"""Synthetic event-stream generator tests: determinism and planted truth."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from migtensor.ingestion import ConfigError, CountryRegistry
from migtensor.residence import detect_all, residence_matrix
from migtensor.synth import (
    _MAX_RATE,
    PlantedComponent,
    SynthSpec,
    generate_synthetic,
    load_synth_spec,
    write_synthetic,
)


def spec_with(**kwargs):
    defaults = dict(users=100, components=(), noise_rate=0.0, seed=0,
                    epoch_year=2014, epoch_month=1, months=24)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def detected_moves(table, spec, registry, k=1):
    """Run residence + strict detection over a generated table, no filtering."""
    filled = residence_matrix(table, spec.calendar)
    return [(table.users[u], m, registry.codes[o], registry.codes[d])
            for u, m, o, d in detect_all(filled, k).tolist()]


class TestGenerate:
    def test_zero_users_empty_stream(self, registry):
        table, truth = generate_synthetic(spec_with(users=0), registry)
        assert len(table) == 0 and table.users == []
        assert truth["planted"] == [] and truth["noise_moves"] == []

    def test_same_seed_identical_streams(self, registry, tmp_path):
        spec = spec_with(
            components=(PlantedComponent("GB", "ES", (10, 11), 4.0),),
            noise_rate=1.0, seed=9)
        for name in ("a", "b"):
            write_synthetic(spec, registry, tmp_path / f"{name}.csv",
                            tmp_path / f"{name}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self, registry):
        spec_a = spec_with(components=(PlantedComponent("GB", "ES", (10,), 5.0),), seed=1)
        spec_b = spec_with(components=(PlantedComponent("GB", "ES", (10,), 5.0),), seed=2)
        table_a, _ = generate_synthetic(spec_a, registry)
        table_b, _ = generate_synthetic(spec_b, registry)
        assert len(table_a) != len(table_b) or not np.array_equal(table_a.seconds, table_b.seconds)

    def test_all_migrations_land_on_the_planted_month(self, registry):
        spec = spec_with(
            users=50,
            components=(PlantedComponent("GB", "ES", (10,), 8.0),),
            noise_rate=0.0)
        table, truth = generate_synthetic(spec, registry)
        moves = detected_moves(table, spec, registry, k=1)
        assert moves, "expected at least one planted mover"
        assert all(m == 10 for _, m, _, _ in moves)
        assert all((o, d) == ("GB", "ES") for _, _, o, d in moves)

    def test_strict_noise_free_detection_equals_planted_truth(self, registry):
        spec = spec_with(
            users=120,
            components=(PlantedComponent("GB", "ES", (5, 6), 6.0),
                        PlantedComponent("US", "KW", (12,), 5.0)),
            noise_rate=0.0, seed=3)
        table, truth = generate_synthetic(spec, registry)
        detected = set(detected_moves(table, spec, registry, k=1))
        planted = {(p["user_id"], p["month"], p["origin"], p["destination"])
                   for p in truth["planted"]}
        assert detected == planted

    def test_zero_intensity_plants_nothing(self, registry):
        spec = spec_with(components=(PlantedComponent("GB", "ES", (10,), 0.0),))
        _, truth = generate_synthetic(spec, registry)
        assert truth["planted"] == []

    def test_pool_exhaustion_is_config_error(self, registry):
        spec = spec_with(users=1,
                         components=(PlantedComponent("GB", "ES", (10,), 50.0),))
        with pytest.raises(ConfigError):
            generate_synthetic(spec, registry)

    def test_unregistered_country_rejected(self, registry):
        spec = spec_with(components=(PlantedComponent("GB", "XX", (10,), 1.0),))
        with pytest.raises(ConfigError):
            generate_synthetic(spec, registry)

    def test_filler_users_fill_the_pool(self, registry):
        spec = spec_with(users=30)
        table, _ = generate_synthetic(spec, registry)
        assert table.users == [f"u{i:06d}" for i in range(1, 31)]
        assert np.array_equal(np.unique(table.user), np.arange(30))

    def test_events_sorted_by_user_and_time(self, registry):
        spec = spec_with(users=40,
                         components=(PlantedComponent("GB", "ES", (8,), 3.0),),
                         noise_rate=0.5)
        table, _ = generate_synthetic(spec, registry)
        keys = list(zip(table.user.tolist(), table.seconds.tolist()))
        assert keys == sorted(keys)


class TestSpecValidation:
    def test_same_origin_destination_rejected(self):
        with pytest.raises(ConfigError):
            PlantedComponent("GB", "GB", (1,), 1.0)

    def test_active_month_out_of_range(self):
        with pytest.raises(ConfigError):
            spec_with(components=(PlantedComponent("GB", "ES", (24,), 1.0),))

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(noise_rate=-0.1)
        with pytest.raises(ConfigError):
            PlantedComponent("GB", "ES", (1,), -1.0)

    # rates numpy's Poisson sampler refuses, and NaN, which `noise_rate > 0` reads as no noise
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e300], ids=["nan", "inf", "1e300"])
    def test_rates_not_finite_or_too_large_rejected(self, value):
        with pytest.raises(ConfigError, match="noise rate must be in"):
            spec_with(noise_rate=value)
        with pytest.raises(ConfigError, match="tweets_per_month must be in"):
            spec_with(tweets_per_month=value)
        with pytest.raises(ConfigError, match="planted intensity must be in"):
            PlantedComponent("GB", "ES", (1,), value)

    def test_largest_rate_accepted(self):
        # construction only: a spec at this rate is never generated here
        spec_with(noise_rate=_MAX_RATE, tweets_per_month=_MAX_RATE,
                  components=(PlantedComponent("GB", "ES", (1,), _MAX_RATE),))

    def test_load_spec_json(self, tmp_path):
        raw = {
            "users": 50,
            "components": [
                {"origin": "GB", "destination": "ES",
                 "active_months": [10, 11], "intensity": 4.0},
            ],
            "noise_rate": 1.5,
            "seed": 7,
            "epoch": {"year": 2013, "month": 6},
            "months": 30,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = load_synth_spec(path)
        assert spec.users == 50
        assert spec.components[0].destination == "ES"
        assert spec.epoch_year == 2013 and spec.months == 30

    def test_load_spec_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"users": 5}')
        with pytest.raises(ConfigError):
            load_synth_spec(path)

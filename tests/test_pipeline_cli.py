"""End-to-end pipeline and CLI tests over real artifact directories."""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from migtensor import cli, events, ingestion, pipeline, residence, solver, tensor, workers
from migtensor.config import OVERRIDE_KEYS, apply_overrides, load_config
from migtensor.events import InputError
from migtensor.ingestion import ConfigError
from migtensor.tensor import load_tensor

from conftest import assert_nothing_left, assert_same_read, forks, open_fds

REGISTRY = "GB\nFR\nES\nUS\nKW\nDE\n"
STAGE_NAMES = [name for name, _ in pipeline.STAGES]

# three users, one clean move each:
#   alice GB -> ES at month 3, bob FR -> US at month 2, carol US -> KW at month 4
FIXTURE_ROWS = []
for month, country in [(m, "GB") for m in range(3)] + [(m, "ES") for m in range(3, 6)]:
    FIXTURE_ROWS += [f"alice,2014-{month + 1:02d}-{d:02d}T12:00:00Z,{country}" for d in (5, 20)]
for month, country in [(m, "FR") for m in range(2)] + [(m, "US") for m in range(2, 6)]:
    FIXTURE_ROWS += [f"bob,2014-{month + 1:02d}-{d:02d}T08:30:00Z,{country}" for d in (3, 17)]
for month, country in [(m, "US") for m in range(4)] + [(m, "KW") for m in range(4, 6)]:
    FIXTURE_ROWS += [f"carol,2014-{month + 1:02d}-{d:02d}T21:15:00Z,{country}" for d in (9, 24)]
FIXTURE_CSV = "user_id,timestamp,country\n" + "\n".join(sorted(FIXTURE_ROWS)) + "\n"
# one user who stays in GB: no migration, so an empty tensor and no model
STAYER_CSV = "user_id,timestamp,country\n" + "".join(
    f"dave,2014-{month + 1:02d}-{d:02d}T12:00:00Z,GB\n" for month in range(6) for d in (5, 20))


REPO = Path(__file__).resolve().parent.parent


def console_script_target() -> str:
    """The ``module:function`` of the ``migtensor`` script in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["migtensor"]


def write_workspace(root, input_text=FIXTURE_CSV, **config_extra):
    (root / "registry.txt").write_text(REGISTRY)
    (root / "events.csv").write_text(input_text)
    raw = {
        "epoch": {"year": 2014, "month": 1},
        "months": 6,
        "registry": "registry.txt",
        "input": "events.csv",
        "out_dir": "out",
        "window_k": 1,
        "fit": {"rank": 2, "restarts": 2, "max_iters": 100, "seed": 0},
        "top_k": 2,
        "n_top": 2,
    }
    raw.update(config_extra)
    path = root / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


# a centroid per registry country, at which the geo workspace's points lie
CENTROIDS = {"GB": (54.0, -2.0), "FR": (46.0, 2.0), "ES": (40.0, -4.0),
             "US": (38.0, -97.0), "KW": (29.5, 47.75), "DE": (51.0, 9.0)}


def write_geo_workspace(root):
    """The fixture's events as JSONL lat/lon points at their countries'
    centroids, resolved through a centroid table."""
    (root / "centroids.csv").write_text(
        "country,lat,lon\n" + "".join(f"{c},{lat},{lon}\n" for c, (lat, lon) in CENTROIDS.items()))
    points = []
    for row in sorted(FIXTURE_ROWS):
        user, timestamp, code = row.split(",")
        lat, lon = CENTROIDS[code]
        points.append(json.dumps({"user_id": user, "timestamp": timestamp, "lat": lat, "lon": lon}))
    return write_workspace(root, "\n".join(points) + "\n", format="jsonl", centroids="centroids.csv")


def artifact_bytes(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestRunPipeline:
    def test_fixture_yields_three_migrations(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        summary = pipeline.run_pipeline(config)
        assert summary["overview"]["users_kept"] == 3
        assert summary["overview"]["migrations"] == 3
        assert summary["overview"]["tensor_total"] == 3

        t = load_tensor(tmp_path / "out" / "tensor.txt")
        # GB=0 FR=1 ES=2 US=3 KW=4; hand-traced cells
        assert t.coords.tolist() == [[0, 2, 3], [1, 3, 2], [3, 4, 4]]
        assert t.counts.tolist() == [1, 1, 1]

    def test_empty_input_propagates_cleanly(self, tmp_path):
        config = load_config(write_workspace(tmp_path, input_text=""))
        summary = pipeline.run_pipeline(config)
        assert summary["overview"]["users_kept"] == 0
        assert summary["overview"]["tensor_nnz"] == 0
        assert summary["overview"]["solver_skipped"] is True
        assert summary["overview"]["top_ginis"] == []
        out = tmp_path / "out"
        assert not (out / "model.txt").exists()
        fit_summary = json.loads((out / "fit_summary.json").read_text())
        assert fit_summary["skipped"] is True
        reports = json.loads((out / "reports" / "summary.json").read_text())
        assert reports == {"components": []}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        pipeline.run_pipeline(config)
        first = artifact_bytes(tmp_path / "out")
        pipeline.run_pipeline(config)
        assert artifact_bytes(tmp_path / "out") == first

    def test_staged_equals_one_shot(self, tmp_path):
        one_shot = tmp_path / "one"
        staged = tmp_path / "staged"
        one_shot.mkdir(), staged.mkdir()
        config_a = load_config(write_workspace(one_shot))
        pipeline.run_pipeline(config_a)
        config_b = load_config(write_workspace(staged))
        for _, stage in pipeline.STAGES:
            stage(config_b)
        a = artifact_bytes(one_shot / "out")
        b = artifact_bytes(staged / "out")
        a.pop("run_summary.json")  # written by the one-shot runner only
        assert a == b

    def test_staged_empty_tensor_equals_one_shot(self, tmp_path):
        # analyze finds no model.txt, and reads the tensor to learn it is empty
        one_shot, staged = tmp_path / "one", tmp_path / "staged"
        one_shot.mkdir(), staged.mkdir()
        pipeline.run_pipeline(load_config(write_workspace(one_shot, STAYER_CSV)))
        path = write_workspace(staged, STAYER_CSV)
        for name in STAGE_NAMES:
            assert cli.main([name, "--config", str(path)]) == 0
        a = artifact_bytes(one_shot / "out")
        a.pop("run_summary.json")
        assert a == artifact_bytes(staged / "out")
        assert "model.txt" not in a and load_tensor(staged / "out" / "tensor.txt").nnz == 0

    # every stage after the first, with the artifact the stage before it writes
    @pytest.mark.parametrize("stage, artifact", [
        ("residences", "events.csv"), ("detect", "residences.csv"), ("tensorize", "migrations.csv"),
        ("fit", "tensor.txt"), ("analyze", "model.txt")])
    def test_stage_out_of_order_fails_with_input_code(self, tmp_path, stage, artifact):
        config = load_config(write_workspace(tmp_path))
        index = STAGE_NAMES.index(stage)
        for _, earlier in pipeline.STAGES[:index - 1]:
            earlier(config)
        with pytest.raises(pipeline.StageError) as err:
            dict(pipeline.STAGES)[stage](config)
        assert err.value.exit_code == 3
        assert str(err.value).startswith(f"[{stage}] ")
        assert str(config.out_dir / artifact) in str(err.value)
        assert f"run {STAGE_NAMES[index - 1]} first" in str(err.value)

    def test_os_error_without_a_file_name_keeps_its_message(self, tmp_path, monkeypatch):
        config = load_config(write_workspace(tmp_path))

        def fail(path):
            raise FileNotFoundError("no such thing")

        monkeypatch.setattr(ingestion, "load_registry", fail)
        with pytest.raises(pipeline.StageError) as err:
            pipeline.stage_detect(config)
        assert err.value.exit_code == 3
        assert str(err.value) == "[detect] no such thing"

    def test_missing_input_file(self, tmp_path):
        path = write_workspace(tmp_path)
        (tmp_path / "events.csv").unlink()
        with pytest.raises(pipeline.StageError) as err:
            pipeline.run_pipeline(load_config(path))
        assert err.value.exit_code == 3

    def test_run_reads_only_the_raw_input(self, tmp_path, monkeypatch):
        # each core takes the one before's hand-off: no artifact is read back.
        # read_events reads a file through _parse_range, one call per share
        config = load_config(write_workspace(tmp_path))
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls.append((name, args[0]))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for module, name in [(events, "_parse_range"), (residence, "read_residences"),
                             (residence, "read_migrations"), (tensor, "load_tensor"),
                             (solver, "load_model")]:
            spy(module, name)
        pipeline.run_pipeline(config)
        assert calls == [("_parse_range", config.input)]
        # a stage command still loads the artifact of the stage before
        calls.clear()
        pipeline.stage_detect(config)
        assert calls == [("read_residences", config.out_dir / "residences.csv")]

    def test_run_loads_the_registry_once(self, tmp_path, monkeypatch, capsys):
        # every stage of the run, and every ingest share, works with one registry
        path = write_geo_workspace(tmp_path)
        calls, real = [], ingestion.load_registry

        def load(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ingestion, "load_registry", load)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert calls == [(tmp_path / "registry.txt",)]

    def test_failure_inside_run_keeps_its_stage_tag(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        (tmp_path / "out" / "residences.csv").mkdir(parents=True)  # the residences core cannot write
        with pytest.raises(pipeline.StageError) as err:
            pipeline.run_pipeline(load_config(path))
        assert err.value.stage == "residences" and err.value.exit_code == 3
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error [residences] ")


class TestConfig:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "deep"
        nested.mkdir()
        config = load_config(write_workspace(nested))
        assert config.registry == nested / "registry.txt"
        assert config.out_dir == nested / "out"

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"epoch": {"year": 2014, "month": 1}, "months": 6}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_window_k_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_workspace(tmp_path, window_k=4))  # 2k > 6 months

    @pytest.mark.parametrize("key, value, message", [
        ("format", "xml", "format must be one of"),
        ("detection_mode", "loose", "detection_mode must be one of"),
        ("top_k", 0, "top_k and n_top must be positive"),
        ("n_top", -1, "top_k and n_top must be positive")])
    def test_value_out_of_range(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_workspace(tmp_path, **{key: value}))

    def test_overrides_win(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        merged = apply_overrides(config, {"rank": 4, "window_k": 2, "seed": 11})
        assert merged.fit.rank == 4 and merged.fit.seed == 11
        assert merged.window_k == 2
        assert merged.fit.restarts == config.fit.restarts  # untouched

    def test_none_overrides_ignored(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        assert apply_overrides(config, {"rank": None, "input": None}) == config

    def test_bad_override_value(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        with pytest.raises(ConfigError):
            apply_overrides(config, {"rank": 0})

    def test_unknown_override_key(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        with pytest.raises(ConfigError, match="unknown override 'months'"):
            apply_overrides(config, {"months": 12})

    @pytest.mark.parametrize("value", [1.5, 2.7, True, "3"])
    @pytest.mark.parametrize("key", ["window_k", "top_k", "n_top", "rank", "seed",
                                     "restarts", "max_iters"])
    def test_integer_override_of_another_type_rejected(self, tmp_path, key, value):
        # as in a config file: never truncated or parsed into an int
        config = load_config(write_workspace(tmp_path))
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            apply_overrides(config, {key: value})

    # argparse has typed every flag, so an override reaches the dataclasses'
    # checks as given: a boolean is never made 1.0, nor a string a float
    @pytest.mark.parametrize("key, value", [("rel_tol", True), ("rel_tol", "1e-3"), ("rel_tol", "abc"),
                                            ("input", 3), ("out_dir", 2.5)])
    def test_override_of_another_type_rejected(self, tmp_path, key, value):
        config = load_config(write_workspace(tmp_path))
        with pytest.raises(ConfigError, match="bad override: "):
            apply_overrides(config, {key: value})

    def test_unknown_top_level_keys_are_ignored(self, tmp_path):
        # such as an option since retired that older configs still carry
        plain = tmp_path / "plain"
        legacy = tmp_path / "legacy"
        plain.mkdir(), legacy.mkdir()
        pipeline.run_pipeline(load_config(write_workspace(plain)))
        assert cli.main(["run", "--config", str(write_workspace(legacy, retired_option=1))]) == 0
        assert artifact_bytes(legacy / "out") == artifact_bytes(plain / "out")

    def test_every_override_key_has_one_flag(self):
        parser = cli.build_parser()
        for name in ("run", *STAGE_NAMES):
            args = vars(parser.parse_args([name, "--config", "config.json"]))
            assert set(args) - {"command", "config"} == set(OVERRIDE_KEYS), name


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "run_summary.json").exists()
        assert "migrations" in capsys.readouterr().out

    def test_stages_compose_through_cli(self, tmp_path):
        path = write_workspace(tmp_path)
        for name in ("ingest", "residences", "detect", "tensorize", "fit", "analyze"):
            assert cli.main([name, "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "fit_summary.json").read_text())
        assert summary["skipped"] is False

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_json_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_missing_input_exits_3(self, tmp_path):
        path = write_workspace(tmp_path)
        (tmp_path / "events.csv").unlink()
        assert cli.main(["run", "--config", str(path)]) == 3

    def test_out_of_order_stage_exits_3(self, tmp_path):
        path = write_workspace(tmp_path)
        assert cli.main(["detect", "--config", str(path)]) == 3

    def test_write_failure_is_tagged_with_its_stage(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        (tmp_path / "out").write_text("")  # a plain file where the artifact directory goes
        assert cli.main(["ingest", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error [ingest] ")

    def test_numerical_failure_exits_4(self, tmp_path, monkeypatch):
        path = write_workspace(tmp_path)

        def boom(config):
            raise pipeline.StageError("fit", "objective diverged", 4)

        monkeypatch.setitem(cli._STAGE_COMMANDS, "fit", boom)
        assert cli.main(["fit", "--config", str(path)]) == 4

    def test_diverged_objective_exits_4(self, tmp_path, monkeypatch, capsys):
        path = write_workspace(tmp_path)
        run_stages_before("fit", path)
        real = solver.fit

        def diverging(*args):
            model, trace = real(*args)
            trace.objectives[-1] = math.inf
            return model, trace

        monkeypatch.setattr(solver, "fit", diverging)
        capsys.readouterr()
        assert cli.main(["fit", "--config", str(path)]) == 4
        assert capsys.readouterr().err == "error [fit] objective diverged to inf\n"
        assert not (tmp_path / "out" / "model.txt").exists()

    def test_flag_overrides_reach_the_solver(self, tmp_path):
        path = write_workspace(tmp_path)
        assert cli.main(["run", "--config", str(path), "--rank", "3",
                         "--restarts", "1"]) == 0
        summary = json.loads((tmp_path / "out" / "fit_summary.json").read_text())
        assert summary["rank"] == 3 and summary["restarts"] == 1

    def test_bad_flag_value_exits_2(self, tmp_path):
        path = write_workspace(tmp_path)
        assert cli.main(["run", "--config", str(path), "--rank", "0"]) == 2

    def test_synth_subcommand(self, tmp_path, capsys):
        spec = {
            "users": 40,
            "components": [{"origin": "GB", "destination": "ES",
                            "active_months": [3], "intensity": 3.0}],
            "noise_rate": 0.0,
            "seed": 5,
            "epoch": {"year": 2014, "month": 1},
            "months": 6,
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main([
            "synth", "--spec", str(tmp_path / "spec.json"),
            "--registry", str(tmp_path / "registry.txt"),
            "--out-events", str(tmp_path / "events.csv"),
            "--out-truth", str(tmp_path / "truth.json"),
        ])
        assert rc == 0
        assert (tmp_path / "events.csv").exists()
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert all(p["month"] == 3 for p in truth["planted"])
        out = json.loads(capsys.readouterr().out)
        assert out["planted_moves"] == len(truth["planted"])

    def test_synth_missing_registry_exits_3(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({
            "users": 1, "noise_rate": 0.0, "seed": 1,
            "epoch": {"year": 2014, "month": 1}, "months": 6}))
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "missing.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 3

    @pytest.mark.parametrize("text", [b"{nope", b"[1]", b'{"users": 1, "seed": "\xff"}'],
                             ids=["not JSON", "not an object", "not UTF-8"])
    def test_unreadable_synth_spec_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "spec.json").write_bytes(text)
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        assert f"error [config] synth spec {tmp_path / 'spec.json'}" in capsys.readouterr().err

    def test_synth_registry_not_utf8_exits_3(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({
            "users": 1, "noise_rate": 0.0, "seed": 1,
            "epoch": {"year": 2014, "month": 1}, "months": 6}))
        (tmp_path / "registry.txt").write_bytes(REGISTRY.encode() + b"\xff\n")
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 3
        assert f"{tmp_path / 'registry.txt'}: not UTF-8" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"out"', b'"out\xff"'))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"error [config] config {path} is not UTF-8" in capsys.readouterr().err

    # a real-valued setting must be a number: a boolean is never read as 1.0
    @pytest.mark.parametrize("fit", [{"rank": 2.5}, {"restarts": 2.0}, {"max_iters": 3.0}, {"seed": -1},
                                     {"rel_tol": True}, {"prior_rate": False}, {"prior_shape": True},
                                     {"rel_tol": "1e-6"}, {"prior_rate": "0.1"}, {"prior_shape": None}],
                             ids=["rank", "restarts", "max_iters", "seed", "rel_tol-true", "prior_rate-false",
                                  "prior_shape-true", "rel_tol-string", "prior_rate-string", "prior_shape-null"])
    def test_fit_setting_out_of_its_domain_exits_2(self, tmp_path, capsys, fit):
        path = write_workspace(tmp_path, fit={"rank": 2, "restarts": 2, "max_iters": 100, "seed": 0, **fit})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"error [config] bad config: {next(iter(fit))} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("block, pairs", [
        ("filter", [["min_events_total", 5], ["min_active_months", 2]]),
        ("fit", [["rank", 3], ["restarts", 1]])])
    def test_block_given_as_list_of_pairs_exits_2(self, tmp_path, capsys, block, pairs):
        path = write_workspace(tmp_path, **{block: pairs})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error [config] bad config:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_prior_exits_2(self, tmp_path, capsys):
        path = write_workspace(tmp_path, fit={"rank": 2, "restarts": 2, "max_iters": 100,
                                              "seed": 0, "prior_shape": float("nan")})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error [config] bad config: need finite prior_shape" in capsys.readouterr().err

    @pytest.mark.parametrize("prior", [{"prior_rate": math.nan}, {"prior_shape": math.inf},
                                       {"prior_rate": math.inf}],
                             ids=["nan_rate", "inf_shape", "inf_rate"])
    def test_non_finite_prior_exits_2(self, tmp_path, capsys, prior):
        path = write_workspace(tmp_path, fit={"rank": 2, "restarts": 2, "max_iters": 100,
                                              "seed": 0, **prior})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error [config] bad config: need finite prior_shape" in capsys.readouterr().err

    @pytest.mark.parametrize("change, name", [
        ({"months": 6.8}, "months"), ({"window_k": 1.5}, "window_k"), ({"top_k": True}, "top_k"),
        ({"n_top": 2.0}, "n_top"), ({"epoch": {"year": "2014", "month": 1}}, "epoch_year"),
        ({"epoch": {"year": 2014, "month": 1.9}}, "epoch_month")])
    def test_integer_setting_of_another_type_exits_2(self, tmp_path, capsys, change, name):
        path = write_workspace(tmp_path, **change)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"error [config] bad config: {name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("change, name", [
        ({"users": 10.7}, "users"), ({"seed": "1"}, "seed"), ({"months": True}, "months"),
        ({"dwell_months": 2.0}, "dwell_months"), ({"epoch": {"year": "2014", "month": 1}}, "epoch_year"),
        ({"components": [{"origin": "GB", "destination": "ES", "active_months": [1.5], "intensity": 1.0}]},
         "active month")])
    def test_synth_integer_setting_of_another_type_exits_2(self, tmp_path, capsys, change, name):
        spec = {"users": 10, "noise_rate": 0.0, "seed": 1, "epoch": {"year": 2014, "month": 1}, "months": 6}
        (tmp_path / "spec.json").write_text(json.dumps(dict(spec, **change)))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        assert f"bad synth spec: {name} must be an integer" in capsys.readouterr().err

    # datetime holds years 1 to 9999, and the end of the study interval is
    # the month after the calendar's last
    EPOCHS_PAST_RANGE = [((0, 1), 24), ((9999, 1), 24), ((9999, 11), 2)]
    EPOCH_IDS = ["year 0", "past 9999", "ends 9999"]

    @pytest.mark.parametrize("epoch, months", EPOCHS_PAST_RANGE, ids=EPOCH_IDS)
    def test_epoch_past_datetime_range_exits_2(self, tmp_path, capsys, epoch, months):
        path = write_workspace(tmp_path, epoch={"year": epoch[0], "month": epoch[1]}, months=months)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error [config] bad config: calendar of" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch, months", EPOCHS_PAST_RANGE, ids=EPOCH_IDS)
    def test_synth_epoch_past_datetime_range_exits_2(self, tmp_path, capsys, epoch, months):
        spec = {"users": 10, "noise_rate": 0.0, "seed": 1, "months": months,
                "epoch": {"year": epoch[0], "month": epoch[1]}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        assert "bad synth spec: calendar of" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [{"min_events_total": 2.5}, {"min_events_total": True},
                                           {"max_events_per_day": "3"}, {"min_active_months": 1.0}])
    def test_filter_threshold_of_another_type_exits_2(self, tmp_path, capsys, threshold):
        path = write_workspace(tmp_path, filter=threshold)
        assert cli.main(["ingest", "--config", str(path)]) == 2
        (name,) = threshold
        assert f"error [config] bad config: {name} must be an integer" in capsys.readouterr().err

    # a byte order mark, or a tab inside a code: GB would be unknown, and
    # every GB event rejected
    @pytest.mark.parametrize("registry, code", [("\ufeff" + REGISTRY, "\ufeffGB"),
                                                (REGISTRY.replace("GB", "G\tB"), "G\tB")],
                             ids=["bom", "tab"])
    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_registry_with_an_unprintable_code_exits_2(self, tmp_path, capsys, command, registry, code):
        path = write_workspace(tmp_path)
        (tmp_path / "registry.txt").write_text(registry, encoding="utf-8")
        (tmp_path / "spec.json").write_text(json.dumps({
            "users": 1, "noise_rate": 0.0, "seed": 1,
            "epoch": {"year": 2014, "month": 1}, "months": 6}))
        args = {"run": ["--config", str(path)],
                "synth": ["--spec", str(tmp_path / "spec.json"), "--registry", str(tmp_path / "registry.txt"),
                          "--out-events", str(tmp_path / "synth.csv")]}[command]
        assert cli.main([command, *args]) == 2
        assert f"registry holds a country code that is not printable: {code!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "synth.csv").exists()

    def test_registry_past_the_country_index_exits_2(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        (tmp_path / "registry.txt").write_text("".join(f"C{i}\n" for i in range(40002)))
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert "error [ingest] registry holds 40002 country codes" in capsys.readouterr().err

    # a field past csv's size limit; a NUL, which csv reads only from
    # Python 3.11 on (and then it is a bad coordinate)
    @pytest.mark.parametrize("row", ["FR," + "4" * (csv.field_size_limit() + 1) + ",2.0", "FR,46.0\0,2.0"],
                             ids=["long field", "NUL"])
    def test_centroid_row_csv_cannot_read_exits_2(self, tmp_path, capsys, row):
        path = write_geo_workspace(tmp_path)
        centroids = tmp_path / "centroids.csv"
        lines = centroids.read_text().splitlines()
        lines[2] = row
        centroids.write_text("\n".join(lines) + "\n")
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert f"error [ingest] {centroids}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e300], ids=["nan", "inf", "1e300"])
    @pytest.mark.parametrize("name", ["noise_rate", "tweets_per_month", "intensity"])
    def test_synth_rate_past_its_range_exits_2(self, tmp_path, capsys, name, value):
        spec = {"users": 10, "noise_rate": 0.0, "seed": 1, "epoch": {"year": 2014, "month": 1}, "months": 6,
                "components": [{"origin": "GB", "destination": "ES", "active_months": [1], "intensity": 1.0}]}
        if name == "intensity":
            spec["components"][0]["intensity"] = value
        else:
            spec[name] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        assert "must be in [0, 1e+09]" in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()

    # a boolean or a string is not read as a number: float() took true as 1.0 and "3" as 3.0
    @pytest.mark.parametrize("value", [True, "3"], ids=["true", "string"])
    @pytest.mark.parametrize("name", ["noise_rate", "tweets_per_month", "intensity"])
    def test_synth_rate_not_a_number_exits_2(self, tmp_path, capsys, name, value):
        spec = {"users": 10, "noise_rate": 0.0, "seed": 1, "epoch": {"year": 2014, "month": 1}, "months": 6,
                "components": [{"origin": "GB", "destination": "ES", "active_months": [1], "intensity": 1.0}]}
        if name == "intensity":
            spec["components"][0]["intensity"] = value
        else:
            spec[name] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        label = {"noise_rate": "noise rate", "intensity": "planted intensity"}.get(name, name)
        assert f"bad synth spec: {label} must be a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()

    def test_synth_negative_seed_exits_2(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({
            "users": 5, "noise_rate": 0.0, "seed": -1, "epoch": {"year": 2014, "month": 1}, "months": 6}))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events.csv")])
        assert rc == 2
        assert "bad synth spec: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()

    def test_synth_out_truth_creates_its_directory(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({
            "users": 20, "noise_rate": 1.0, "seed": 3, "epoch": {"year": 2014, "month": 1}, "months": 6,
            "components": [{"origin": "GB", "destination": "ES", "active_months": [2], "intensity": 2}]}))
        (tmp_path / "registry.txt").write_text(REGISTRY)
        rc = cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                       "--registry", str(tmp_path / "registry.txt"),
                       "--out-events", str(tmp_path / "events" / "events.csv"),
                       "--out-truth", str(tmp_path / "truth" / "deeper" / "truth.json")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        text = (tmp_path / "truth" / "deeper" / "truth.json").read_text()
        assert summary["planted_moves"] == len(json.loads(text)["planted"])
        assert '"intensity": 2.0' in text  # a JSON integer rate is written as a float
        assert (tmp_path / "events" / "events.csv").exists()

    def test_residences_of_row_shuffled_events_are_byte_identical(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        assert cli.main(["ingest", "--config", str(path)]) == 0
        assert cli.main(["residences", "--config", str(path)]) == 0
        out = tmp_path / "out"
        expected = (out / "residences.csv").read_bytes()
        header, *rows = (out / "events.csv").read_text().splitlines(keepends=True)
        shuffled = random.Random(0).sample(rows, len(rows))
        assert shuffled != rows
        (out / "events.csv").write_text(header + "".join(shuffled))
        assert cli.main(["residences", "--config", str(path)]) == 0
        assert (out / "residences.csv").read_bytes() == expected

    def test_console_script_installed(self):
        # The `migtensor` entry point declared in pyproject.toml, run the way
        # an installer's generated launcher runs it, against this checkout's
        # src/; and the installed script too, wherever one is on PATH.
        module, attr = console_script_target().split(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        runs = [([sys.executable, "-c", launcher, "--help"], env)]
        installed = shutil.which("migtensor")
        if installed:
            runs.append(([installed, "--help"], None))
        for command, command_env in runs:
            result = subprocess.run(command, capture_output=True, text=True,
                                    env=command_env, timeout=60)
            assert result.returncode == 0, (command, result.stderr)
            assert "synth" in result.stdout


# a defective row in place of an intermediate artifact's second data row
# (file line 3), the stage command that reads the artifact, and the row.
# The fixture's tensor rows are "0 2 3 1", "1 3 2 1", "3 4 4 1" (dims 6 6 6);
# its model has rank 2, and line 3 of model.txt is the first origin row.
CORRUPT_ROWS = {
    "residences-field-count": ("residences.csv", "detect", "alice,1"),
    "residences-month-not-integer": ("residences.csv", "detect", "alice,one,GB"),
    "residences-month-out-of-range": ("residences.csv", "detect", "alice,99,GB"),
    "residences-unknown-country": ("residences.csv", "detect", "alice,1,ZZ"),
    "migrations-field-count": ("migrations.csv", "tensorize", "bob,2,FR"),
    "migrations-month-out-of-range": ("migrations.csv", "tensorize", "bob,-1,FR,US"),
    "migrations-unknown-country": ("migrations.csv", "tensorize", "bob,2,FR,ZZ"),
    "migrations-origin-is-destination": ("migrations.csv", "tensorize", "bob,2,FR,FR"),
    "residences-repeated-month": ("residences.csv", "detect", "alice,0,FR"),
    "residences-month-not-canonical": ("residences.csv", "detect", "alice,+1,GB"),
    "migrations-month-not-canonical": ("migrations.csv", "tensorize", "bob,+2,FR,US"),
    "tensor-token": ("tensor.txt", "fit", "1 3 x 1"),
    "tensor-field-count": ("tensor.txt", "fit", "1 3 2"),
    "tensor-out-of-range": ("tensor.txt", "fit", "1 3 6 1"),
    "tensor-diagonal": ("tensor.txt", "fit", "3 3 2 1"),
    "tensor-duplicate": ("tensor.txt", "fit", "0 2 3 1"),
    "tensor-count": ("tensor.txt", "fit", "1 3 2 0"),
    "model-not-a-number": ("model.txt", "analyze", "x,0.5"),
    "model-field-count": ("model.txt", "analyze", "0.5"),
    "model-negative": ("model.txt", "analyze", "-0.5,0.5"),
    "model-non-finite": ("model.txt", "analyze", "nan,0.5"),
    # a quote that opens a row of a dump and is never closed
    "residences-stray-quote": ("residences.csv", "detect", '"alice,1,GB'),
    "migrations-stray-quote": ("migrations.csv", "tensorize", '"bob,2,FR,US'),
    "model-stray-quote": ("model.txt", "analyze", '"0.5,0.5'),
    # numbers float() reads that save_model's %.17g never writes
    "model-digit-separator": ("model.txt", "analyze", "1_0,0.5"),
    "model-plus-sign": ("model.txt", "analyze", "+5,0.5"),
    "model-leading-space": ("model.txt", "analyze", " 5,0.5"),
    # more digits than int() converts
    "residences-month-digit-limit": ("residences.csv", "detect", f"alice,{'9' * 5000},GB"),
    "migrations-month-digit-limit": ("migrations.csv", "tensorize", f"bob,{'9' * 5000},FR,US"),
    "tensor-count-digit-limit": ("tensor.txt", "fit", f"1 3 2 {'9' * 5000}"),
}

# a first line of the tensor or model file that does not parse, with the
# stage command that reads the file
CORRUPT_HEADERS = {
    "tensor-dim-digit-limit": ("tensor.txt", "fit", f"# dims {'9' * 5000} 6 6"),
    "model-dim-digit-limit": ("model.txt", "analyze", f"# cp 6 6 {'9' * 5000} 2"),
    # digits that str.isdecimal and int() take, but the writers never write
    "tensor-arabic-indic-digit": ("tensor.txt", "fit", "# dims \u0666 6 6"),
    "tensor-fullwidth-digit": ("tensor.txt", "fit", "# dims 6 6 \uff16"),
    "model-arabic-indic-digit": ("model.txt", "analyze", "# cp 6 \u0666 6 2"),
    "model-fullwidth-digit": ("model.txt", "analyze", "# cp 6 6 6 \uff12"),
}


def run_stages_before(stage, config_path):
    for name in STAGE_NAMES[:STAGE_NAMES.index(stage)]:
        assert cli.main([name, "--config", str(config_path)]) == 0


def replace_line(path, index, text):
    lines = path.read_text().splitlines()
    assert len(lines) > index
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


class TestCorruptArtifacts:
    @pytest.mark.parametrize("defect", sorted(CORRUPT_ROWS))
    def test_corrupt_row_exits_3_naming_path_and_line(self, tmp_path, capsys, defect):
        artifact, stage, row = CORRUPT_ROWS[defect]
        path = write_workspace(tmp_path)
        run_stages_before(stage, path)
        target = tmp_path / "out" / artifact
        replace_line(target, 2, row)
        capsys.readouterr()
        assert cli.main([stage, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"[{stage}]" in err and f"{target}:3:" in err

    @pytest.mark.parametrize("defect", sorted(CORRUPT_HEADERS))
    def test_corrupt_header_exits_3_naming_line_1(self, tmp_path, capsys, defect):
        artifact, stage, header = CORRUPT_HEADERS[defect]
        path = write_workspace(tmp_path)
        run_stages_before(stage, path)
        target = tmp_path / "out" / artifact
        replace_line(target, 0, header)
        capsys.readouterr()
        assert cli.main([stage, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"[{stage}]" in err and f"{target}:1: malformed" in err

    def test_model_header_of_unequal_n_exits_3_naming_line_1(self, tmp_path, capsys):
        # the header's row count, 1 + 3 + 4 + 2, is the file's
        path = write_workspace(tmp_path)
        run_stages_before("analyze", path)
        target = tmp_path / "out" / "model.txt"
        target.write_text("# cp 3 4 2 2\n" + "0.5,0.5\n" * 10)
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error [analyze] {target}:1: origin and destination factors must share N\n")

    def test_corrupt_tensor_without_model_exits_3_in_analyze(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        run_stages_before("analyze", path)
        (tmp_path / "out" / "model.txt").unlink()
        target = tmp_path / "out" / "tensor.txt"
        replace_line(target, 2, "1 3 x 1")
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[analyze]" in err and f"{target}:3:" in err

    # an events.csv row (in place of file line 3) that ingest never writes:
    # dated outside the study interval, or an unresolved lat/lon point
    @pytest.mark.parametrize("row", ["alice,2030-01-05T12:00:00Z,GB",
                                     "alice,2014-01-20T12:00:00Z,51.5,-0.1"])
    def test_corrupt_events_row_exits_3(self, tmp_path, capsys, row):
        path = write_workspace(tmp_path)
        run_stages_before("residences", path)
        target = tmp_path / "out" / "events.csv"
        replace_line(target, 2, row)
        capsys.readouterr()
        assert cli.main(["residences", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[residences]" in err and f"{target}:3: events artifact" in err

    # an events.csv without the header line ingest writes: its first line
    # removed, or no line at all
    @pytest.mark.parametrize("headerless", [lambda lines: lines[1:], lambda lines: []],
                             ids=["first line removed", "0 bytes"])
    def test_events_without_header_exits_3(self, tmp_path, capsys, headerless):
        path = write_workspace(tmp_path)
        run_stages_before("residences", path)
        target = tmp_path / "out" / "events.csv"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(headerless(lines)))
        capsys.readouterr()
        assert cli.main(["residences", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[residences]" in err and f"{target}:1: unexpected header" in err
        assert not (tmp_path / "out" / "residences.csv").exists()

    # a rejected events.csv row names its line and its reject reason, also
    # past the first parse block
    @pytest.mark.parametrize("row, reason", [("alice,2014-02-30T12:00:00Z,GB", "bad_timestamp"),
                                             ("alice,2014-01-20T12:00:00Z,XX", "unknown_country")])
    def test_rejected_events_row_names_its_line(self, tmp_path, capsys, row, reason):
        path = write_workspace(tmp_path)
        run_stages_before("residences", path)
        target = tmp_path / "out" / "events.csv"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(lines + lines[1:2] * 3000 + [row + "\n"]))
        capsys.readouterr()
        assert cli.main(["residences", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[residences]" in err and f"{target}:{len(lines) + 3001}: events artifact" in err
        assert reason in err


# every file a stage reads, by path under the workspace, with the stage
# command that reads it and the workspace that has the file
# the fixture's rows for 40 users of each name: an input that ingest deals
# out in three shares once a share may be as small as 1 KiB
MANY_ROWS = "user_id,timestamp,country\n" + "".join(
    f"{row.replace(',', f'{i},', 1)}\n" for i in range(40) for row in sorted(FIXTURE_ROWS))


@pytest.mark.skipif(sys.platform != "linux", reason="ingest forks its workers only on Linux")
class TestIngestShares:
    """The input dealt out in three shares, two of them parsed in forked
    children: a share's failure reaches the caller as the failure of a
    one-share read, and no child or file descriptor is left behind."""

    @pytest.fixture(autouse=True)
    def small_shares(self, monkeypatch):
        monkeypatch.setattr(events, "MIN_SHARE_BYTES", 1 << 10)

    def workspace(self, root, row: bytes, share: int, **config_extra):
        """The config of a workspace whose input holds ``row`` as a line of
        share ``share`` of three."""
        config = load_config(write_workspace(root, MANY_ROWS, **config_extra))
        data = config.input.read_bytes()
        ranges = events._ranges(config.input, 3)
        assert len(ranges) == 3
        at = data.index(b"\n", ranges[share][0] + 10) + 1
        config.input.write_bytes(data[:at] + row + data[at:])
        start, end = events._ranges(config.input, 3)[share]
        assert start < at and at + len(row) <= (end or len(data) + len(row))
        return config

    def raised(self, monkeypatch, config, code: int, capsys) -> str:
        """The error of a one-share read of the config's input, once the same
        error is shown to reach the caller of a read in three shares and
        ``ingest`` to exit with ``code``."""
        errors = []
        for n in (1, 3):
            monkeypatch.setattr(workers, "count", lambda n=n: n)
            with pytest.raises((InputError, ConfigError)) as err:
                events.read_events(config.input, config.format, config.countries,
                                   config.calendar.interval())
            errors.append(err.value)
        one, three = errors
        assert type(three) is type(one) and str(three) == str(one)
        capsys.readouterr()
        assert cli.main(["ingest", "--config", str(config.input.parent / "config.json")]) == code
        assert capsys.readouterr().err.strip() == f"error [ingest] {one}"
        return str(one)

    def test_undecodable_byte_in_the_last_share_exits_3(self, tmp_path, monkeypatch, capsys):
        config = self.workspace(tmp_path, b"\xff\n", 2)
        fds = open_fds()
        assert self.raised(monkeypatch, config, 3, capsys).startswith(f"{config.input}: not UTF-8 text")
        assert_nothing_left(fds)

    def test_point_without_centroids_in_a_child_share_exits_2(self, tmp_path, monkeypatch, capsys):
        config = self.workspace(tmp_path, b"zed,2014-03-05T10:00:00Z,51.5,-0.1\n", 1)
        fds = open_fds()
        assert "no centroid table" in self.raised(monkeypatch, config, 2, capsys)
        assert_nothing_left(fds)

    def test_a_child_that_dies_without_a_result_raises(self, tmp_path, monkeypatch):
        config = load_config(write_workspace(tmp_path, MANY_ROWS))
        parent, real = os.getpid(), events._parse

        def parse(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(events, "_parse", parse)
        monkeypatch.setattr(workers, "count", lambda: 3)
        fds = open_fds()
        with pytest.raises(ChildProcessError, match="exited with code 3 without a result"):
            events.read_events(config.input, "csv", config.countries)
        assert_nothing_left(fds)

    def test_a_fifo_is_read_in_one_share_without_a_fork(self, tmp_path, monkeypatch):
        config = load_config(write_workspace(tmp_path, MANY_ROWS))
        monkeypatch.setattr(workers, "count", lambda: 3)
        pids = forks(monkeypatch)
        expected = events.read_events(config.input, "csv", config.countries)
        assert len(pids) == 2  # the regular file is read in three shares
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        fds = open_fds()
        copy = "import sys; data = open(sys.argv[1], 'rb').read(); open(sys.argv[2], 'wb').write(data)"
        writer = subprocess.Popen([sys.executable, "-c", copy, config.input, fifo])
        try:
            got = events.read_events(fifo, "csv", config.countries)
        finally:  # the writer has closed the FIFO by the time a read ends
            writer.kill()
            writer.wait(timeout=60)
        assert len(pids) == 2
        assert_same_read(got, expected)
        assert_nothing_left(fds)


def failing_fork(monkeypatch, fail_at: int, error: OSError) -> list:
    """Patch ``os.fork`` to raise ``error`` from call ``fail_at`` on, forking
    for real before it; returns the number of each call, as it is made."""
    calls, real = [], os.fork

    def fork():
        calls.append(len(calls) + 1)
        if len(calls) >= fail_at:
            raise error
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


EAGAIN = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
ENOMEM = OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))


@pytest.mark.skipif(sys.platform != "linux", reason="ingest and fit fork their workers only on Linux")
class TestForkFailures:
    """A fork refused for want of processes or memory leaves its share and
    the later ones to the parent, with the bytes of a one-process run; a
    child that dies is named by how it died."""

    @pytest.fixture(autouse=True)
    def three_shares(self, monkeypatch):
        # ingest deals MANY_ROWS out in three shares, fit its four restarts
        # in four blocks of one, three shares in all
        monkeypatch.setattr(events, "MIN_SHARE_BYTES", 1 << 10)
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(workers, "count", lambda: 3)

    def one_process_bytes(self, root, monkeypatch, command) -> dict:
        """A workspace's artifacts after ``command`` run in one process."""
        path = write_workspace(root, MANY_ROWS, fit={"rank": 2, "restarts": 4, "max_iters": 50, "seed": 0})
        with monkeypatch.context() as one:
            one.setattr(workers, "count", lambda: 1)
            if command == "fit":
                assert cli.main(["run", "--config", str(path)]) == 0
            assert cli.main([command, "--config", str(path)]) == 0
        return artifact_bytes(root / "out")

    @pytest.mark.parametrize("error", [EAGAIN, ENOMEM], ids=["EAGAIN", "ENOMEM"])
    @pytest.mark.parametrize("fail_at", [1, 2])
    @pytest.mark.parametrize("command", ["ingest", "fit"])
    def test_a_refused_fork_runs_the_share_here(self, tmp_path, monkeypatch, capsys, command,
                                                fail_at, error):
        expected = self.one_process_bytes(tmp_path, monkeypatch, command)
        calls = failing_fork(monkeypatch, fail_at, error)
        fds = open_fds()
        assert cli.main([command, "--config", str(tmp_path / "config.json")]) == 0, capsys.readouterr().err
        assert calls == list(range(1, fail_at + 1))  # no fork tried after the refused one
        assert artifact_bytes(tmp_path / "out") == expected
        assert_nothing_left(fds)

    def test_another_fork_error_ends_the_run(self, tmp_path, monkeypatch, capsys):
        self.one_process_bytes(tmp_path, monkeypatch, "fit")
        failing_fork(monkeypatch, 2, PermissionError(errno.EPERM, os.strerror(errno.EPERM)))
        fds = open_fds()
        capsys.readouterr()
        assert cli.main(["fit", "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err.startswith("error [fit] [Errno 1]")
        assert_nothing_left(fds)

    def test_a_child_killed_by_sigkill_is_named(self, tmp_path, monkeypatch, capsys):
        self.one_process_bytes(tmp_path, monkeypatch, "fit")
        parent, real = os.getpid(), solver._fit_block

        def block(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the kernel's OOM killer would
            return real(*args)

        monkeypatch.setattr(solver, "_fit_block", block)
        fds = open_fds()
        capsys.readouterr()
        assert cli.main(["fit", "--config", str(tmp_path / "config.json")]) == 3
        assert re.fullmatch(r"error \[fit\] worker \d+ was killed by SIGKILL without a result\n",
                            capsys.readouterr().err)
        assert_nothing_left(fds)


UNDECODABLE = {
    "input": ("events.csv", "ingest", write_workspace),
    "registry": ("registry.txt", "ingest", write_workspace),
    "centroids": ("centroids.csv", "ingest", write_geo_workspace),
    "events": ("out/events.csv", "residences", write_workspace),
    "residences": ("out/residences.csv", "detect", write_workspace),
    "migrations": ("out/migrations.csv", "tensorize", write_workspace),
    "tensor": ("out/tensor.txt", "fit", write_workspace),
    "model": ("out/model.txt", "analyze", write_workspace),
}

# the library loader of each file a stage reads through one, called with the
# file's path and the workspace's registry
LOADERS = {
    "registry": ("registry.txt", lambda path, registry: ingestion.load_registry(path)),
    "centroids": ("centroids.csv", ingestion.load_centroids),
    "residences": ("out/residences.csv", lambda path, registry: residence.read_residences(path, registry, 6)),
    "migrations": ("out/migrations.csv", lambda path, registry: residence.read_migrations(path, registry, 6)),
    "tensor": ("out/tensor.txt", lambda path, registry: load_tensor(path)),
    "model": ("out/model.txt", lambda path, registry: solver.load_model(path)),
}


def insert_undecodable_byte(target):
    """Put a byte that is not UTF-8 at the end of the file's line 2."""
    data = target.read_bytes()
    end_of_line_2 = data.index(b"\n", data.index(b"\n") + 1)
    target.write_bytes(data[:end_of_line_2] + b"\xff" + data[end_of_line_2:])


class TestUndecodableFiles:
    @pytest.mark.parametrize("name", sorted(UNDECODABLE))
    def test_non_utf8_byte_exits_3_naming_stage_and_path(self, tmp_path, capsys, name):
        relative, stage, workspace = UNDECODABLE[name]
        path = workspace(tmp_path)
        run_stages_before(stage, path)
        target = tmp_path / relative
        insert_undecodable_byte(target)
        capsys.readouterr()
        assert cli.main([stage, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"[{stage}]" in err and f"{target}: not UTF-8" in err

    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_loader_raises_input_error_naming_path(self, tmp_path, name):
        relative, load = LOADERS[name]
        assert cli.main(["run", "--config", str(write_geo_workspace(tmp_path))]) == 0
        registry = ingestion.load_registry(tmp_path / "registry.txt")
        target = tmp_path / relative
        insert_undecodable_byte(target)
        with pytest.raises(InputError) as err:
            load(target, registry)
        assert str(err.value).startswith(f"{target}: not UTF-8 text")


class TestModelShapeChecked:
    @pytest.mark.parametrize("change, expected", [
        ({"registry": "GB\nFR\n"}, "config's 2 countries and 6 months"),
        ({"months": 12}, "config's 6 countries and 12 months"),
    ])
    def test_model_not_matching_registry_or_months_exits_3(self, tmp_path, capsys, change, expected):
        path = write_workspace(tmp_path)
        run_stages_before("analyze", path)
        if "registry" in change:
            (tmp_path / "registry.txt").write_text(change["registry"])
        else:
            config = json.loads(path.read_text())
            config.update(change)
            path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[analyze]" in err and "model of 6 x 6 countries x 6 months" in err and expected in err


class TestTensorShapeChecked:
    @pytest.mark.parametrize("change, expected", [
        ({"header": "# dims 6 6 100000000000"},
         "tensor of 6 x 6 countries x 100000000000 months does not match the config's "
         "6 countries and 6 months"),
        ({"registry": "GB\nFR\nUS\nDE\nES\nIT\nPT\n"},
         "tensor of 6 x 6 countries x 6 months does not match the config's 7 countries"),
        ({"months": 12}, "tensor of 6 x 6 countries x 6 months does not match the config's "
                         "6 countries and 12 months"),
    ])
    def test_tensor_not_matching_registry_or_months_exits_3(self, tmp_path, capsys, change,
                                                            expected):
        path = write_workspace(tmp_path)
        run_stages_before("fit", path)
        target = tmp_path / "out" / "tensor.txt"
        if "header" in change:
            replace_line(target, 0, change["header"])
        elif "registry" in change:
            (tmp_path / "registry.txt").write_text(change["registry"])
        else:
            config = json.loads(path.read_text())
            config.update(change)
            path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli.main(["fit", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[fit]" in err and f"{target}: {expected}" in err and "run tensorize again" in err
        assert not (tmp_path / "out" / "model.txt").exists()


class TestJsonlFormat:
    def test_jsonl_ingest(self, tmp_path):
        lines = [json.dumps({"user_id": "u1", "timestamp": f"2014-0{m}-10T00:00:00Z",
                             "country": "GB"}) for m in range(1, 7)]
        path = write_workspace(tmp_path, input_text="\n".join(lines) + "\n",
                               format="jsonl")
        config = load_config(path)
        summary = pipeline.stage_ingest(config)
        assert summary["events_kept"] == 6

    def test_non_string_fields_and_far_offsets_are_tallied(self, tmp_path, capsys):
        good = [json.dumps({"user_id": "u1", "timestamp": f"2014-0{m}-10T00:00:00Z",
                            "country": "GB"}) for m in range(1, 7)]
        bad = ['{"user_id": "u2", "timestamp": 5, "country": "GB"}',
               '{"user_id": "u2", "timestamp": "2014-01-10T00:00:00Z", "country": ["GB"]}',
               '{"user_id": "u2", "timestamp": "2014-01-10T00:00:00Z", "country": 7}',
               '{"user_id": "u2", "timestamp": "0001-01-01T00:00:00+05:30", "country": "GB"}']
        path = write_workspace(tmp_path, input_text="\n".join(good + bad) + "\n", format="jsonl")
        assert cli.main(["ingest", "--config", str(path)]) == 0
        stats = json.loads((tmp_path / "out" / "ingest_stats.json").read_text())
        assert stats["rejects"] == {"bad_location": 2, "bad_timestamp": 2}
        assert stats["events_kept"] == 6

    def test_integer_past_the_digit_limit_is_tallied(self, tmp_path, capsys):
        good = [json.dumps({"user_id": "u1", "timestamp": f"2014-0{m}-10T00:00:00Z",
                            "country": "GB"}) for m in range(1, 7)]
        bad = '{"user_id": %s, "timestamp": "2014-01-10T00:00:00Z", "country": "GB"}' % ("9" * 5000)
        path = write_workspace(tmp_path, input_text="\n".join(good + [bad]) + "\n", format="jsonl")
        assert cli.main(["run", "--config", str(path)]) == 0
        stats = json.loads((tmp_path / "out" / "ingest_stats.json").read_text())
        assert stats["rejects"] == {"bad_json": 1}
        assert stats["events_kept"] == 6

    def test_nesting_past_the_recursion_limit_is_tallied(self, tmp_path, capsys):
        good = [json.dumps({"user_id": "u1", "timestamp": f"2014-0{m}-10T00:00:00Z",
                            "country": "GB"}) for m in range(1, 7)]
        path = write_workspace(tmp_path, input_text="\n".join(["[" * 100000] + good) + "\n",
                               format="jsonl")
        assert cli.main(["ingest", "--config", str(path)]) == 0
        stats = json.loads((tmp_path / "out" / "ingest_stats.json").read_text())
        assert stats["rejects"] == {"bad_json": 1}
        assert stats["events_kept"] == 6

    def test_user_id_holding_a_line_break_is_tallied_and_staged_equals_one_shot(self, tmp_path, capsys):
        # the fixture's rows, plus two users with a line break inside their
        # ids and an event every month, who would pass every filter
        rows = [dict(zip(("user_id", "timestamp", "country"), row.split(",")))
                for row in sorted(FIXTURE_ROWS)]
        rows += [{"user_id": user, "timestamp": f"2014-0{m}-10T00:00:00Z", "country": "GB"}
                 for user in ("eve\nx", "fay\rx") for m in range(1, 7)]
        text = "".join(json.dumps(row) + "\n" for row in rows)
        (tmp_path / "one").mkdir(), (tmp_path / "staged").mkdir()
        one_shot = write_workspace(tmp_path / "one", text, format="jsonl")
        staged = write_workspace(tmp_path / "staged", text, format="jsonl")
        assert cli.main(["run", "--config", str(one_shot)]) == 0
        for name in STAGE_NAMES:
            assert cli.main([name, "--config", str(staged)]) == 0
        a = artifact_bytes(tmp_path / "one" / "out")
        a.pop("run_summary.json")  # written by the one-shot runner only
        assert a == artifact_bytes(tmp_path / "staged" / "out")
        stats = json.loads(a["ingest_stats.json"])
        assert stats["rejects"] == {"missing_field": 12}
        assert stats["filter"]["users_seen"] == 3


DEMO = Path(__file__).resolve().parent.parent / "demo"

# sha256 of every file the demo tourism run writes. A change that alters a
# single byte of any artifact, a single bit of the fitted model included,
# changes these; such a change must say so and update them on purpose.
TOURISM_DIGESTS = {
    "events.csv": "fb6148b854062ca9788d8d07800f9496cb5e3e66b80a412d505618a796098e7e",
    "fit_summary.json": "faec2387845ab6cfbdd52cb18d4d9c1de556c1505a9f0bef2912b19b231d4901",
    "ingest_stats.json": "e6fa99ee5b841d59a5658538a8a5a20d0d00291e5258e97f904f967f8ae8a705",
    "migrations.csv": "b044b35f5806994b85f439c898ab15e62726bea77a70b4ab5c9c4a732b184da4",
    "model.txt": "6a809b12c2d6b32698cbb75eb1ba7198367d1f60bbaf31bb2ca4c35f97c7feb9",
    "reports/component_1_countries.csv": "e3b1d0834ba63b703a5c20a7aac4dec1c0726be465a1cb7abc6e191cd0230536",
    "reports/component_1_time.csv": "b11c31c74c7754c275b5741fdbb219fa37189b16aa937644a853f490d8e80798",
    "reports/component_2_countries.csv": "995981c90fb2b1ffa85f8fc27482336095d03933a01ace137ab1c07d0a6e44d5",
    "reports/component_2_time.csv": "0a8b381367525e2605588ed83d175e50c6f51802896df0e8c9bd7ce4ebf3f80e",
    "reports/component_3_countries.csv": "16001e96005b7fd488212b386bcd77e1ab179d4c51cac7c0dfdab1316fedd475",
    "reports/component_3_time.csv": "881151f238409417c51ad251c831719bd8258ddbae6719a69840ced4b0138c63",
    "reports/component_4_countries.csv": "67076a4997c9dbc32e94b76f6055affd26b759645663d9b809ab981b6593a56a",
    "reports/component_4_time.csv": "918d7e2c18c24ff26707ba5196e94e1a241f3252667dcb044d4ed419f783b33e",
    "reports/component_5_countries.csv": "43c9847ae47d3c1be4c2a880953fb790d68528e9b61ceb6f19183e0287785109",
    "reports/component_5_time.csv": "34c265e2d5605c6719f56be124781829d1154dacb2fab01793e4c7ff1cf82c74",
    "reports/summary.json": "1c32054370fbda98f518924d78f6e74ec579110d167c75253ff2c5e033e98654",
    "residences.csv": "48f036ca77776ac76c1fbe55ded26ab37c3f3e92a9c8d3e411a628a52bf355dd",
    "run_summary.json": "c7e48b5433aadd94c65ee16679efbf12b903814156093b65cf0ee1a8fd60e4f2",
    "tensor.registry.txt": "84425db902320b4987099325d654710aeb60910d8845f07b0b8805805e76a73e",
    "tensor.txt": "94b1307b89605e4c1bbb404740b9fa294f8766c2edbc8a7005dc0cc8e812d995",
}


class TestStaleReports:
    @staticmethod
    def report_names(root) -> list:
        return sorted(p.name for p in (root / "out" / "reports").iterdir())

    def test_analyze_removes_component_reports_it_does_not_write(self, tmp_path, capsys):
        path = write_workspace(tmp_path)  # rank 2, top_k 2
        assert cli.main(["run", "--config", str(path)]) == 0
        assert len(self.report_names(tmp_path)) == 5
        assert cli.main(["analyze", "--config", str(path), "--top-k", "1"]) == 0
        assert self.report_names(tmp_path) == [
            "component_1_countries.csv", "component_1_time.csv", "summary.json"]

    def test_skipped_model_leaves_no_component_reports(self, tmp_path, capsys):
        path = write_workspace(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        (tmp_path / "events.csv").write_text("user_id,timestamp,country\n")
        assert cli.main(["run", "--config", str(path)]) == 0
        assert self.report_names(tmp_path) == ["summary.json"]


class TestDemoGoldenDigests:
    def test_tourism_fit_artifacts_are_pinned(self, tmp_path, capsys):
        for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
            shutil.copy(DEMO / name, tmp_path / name)
        assert cli.main(["synth", "--spec", str(tmp_path / "synth_tourism.json"),
                         "--registry", str(tmp_path / "registry.txt"),
                         "--out-events", str(tmp_path / "tourism_events.csv")]) == 0
        assert cli.main(["run", "--config", str(tmp_path / "config_tourism.json")]) == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in artifact_bytes(tmp_path / "out_tourism").items()}
        assert digests == TOURISM_DIGESTS

    def tourism_workspace(self, root):
        for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
            shutil.copy(DEMO / name, root / name)
        assert cli.main(["synth", "--spec", str(root / "synth_tourism.json"),
                         "--registry", str(root / "registry.txt"),
                         "--out-events", str(root / "tourism_events.csv")]) == 0

    def run_on_all_cpus_and_one(self, root, *args) -> dict:
        """The artifacts of ``run`` with ``args`` on all usable CPUs and on one.

        Each run is spawned with numpy single-threaded, so that ingest and
        fit may fork a worker per usable CPU; the one-CPU run pins itself
        before it starts."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(DEMO.parent / "src"), os.environ.get("PYTHONPATH")])))
        pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        outputs = {}
        for cpus, setup in (("all", ""), ("one", pin)):
            launcher = f"import os, sys; {setup}from migtensor.cli import main; sys.exit(main())"
            result = subprocess.run(
                [sys.executable, "-c", launcher, "run", *args, "--out-dir", f"out_{cpus}"],
                cwd=root, env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            outputs[cpus] = artifact_bytes(root / f"out_{cpus}")
        return outputs

    def test_run_leaves_numpy_random_unimported(self, tmp_path, capsys):
        """Only ``synth`` draws from ``numpy.random``: the demo ``run`` in a
        fresh interpreter loads none of it that ``import numpy`` alone does
        not (numpy 2 loads none; numpy 1 loads it with itself)."""
        self.tourism_workspace(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(DEMO.parent / "src"), os.environ.get("PYTHONPATH")])))
        launcher = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                    "from migtensor.cli import main; code = main(); "
                    "print(before, 'numpy.random' in sys.modules); sys.exit(code)")
        result = subprocess.run([sys.executable, "-c", launcher, "run", "--config", "config_tourism.json"],
                                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.splitlines()[-1].split()
        assert after == before
        if int(np.__version__.split(".")[0]) >= 2:
            assert after == "False"
        assert artifact_bytes(tmp_path / "out_tourism")["model.txt"]

    def test_fit_leaves_synth_unimported(self, tmp_path, capsys):
        """Only the ``synth`` command loads :mod:`migtensor.synth`: the demo
        ``fit`` in a fresh interpreter does not."""
        self.tourism_workspace(tmp_path)
        run_stages_before("fit", tmp_path / "config_tourism.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(DEMO.parent / "src"), os.environ.get("PYTHONPATH")])))
        launcher = ("import sys; from migtensor.cli import main; code = main(); "
                    "print('migtensor.synth' in sys.modules); sys.exit(code)")
        result = subprocess.run([sys.executable, "-c", launcher, "fit", "--config", "config_tourism.json"],
                                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_run_on_all_cpus_writes_the_bytes_of_one_cpu(self, tmp_path, capsys):
        # rank 15 and 30 restarts make two blocks of restarts, so two fit shares
        self.tourism_workspace(tmp_path)
        outputs = self.run_on_all_cpus_and_one(tmp_path, "--config", "config_tourism.json",
                                               "--rank", "15", "--restarts", "30")
        assert outputs["all"] == outputs["one"]
        nnz = load_tensor(tmp_path / "out_one" / "tensor.txt").nnz
        assert 30 * nnz * 15 > solver.BLOCK_ELEMENTS

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_geo_run_on_all_cpus_writes_the_bytes_of_one_cpu(self, tmp_path, capsys):
        # the demo's stream as JSONL points near their centroids, every 50th
        # line cut short: large enough for ingest to deal out in two shares
        self.tourism_workspace(tmp_path)
        with open(DEMO / "centroids.csv", "r", encoding="utf-8") as fh:
            centroids = {row["country"]: (float(row["lat"]), float(row["lon"]))
                         for row in csv.DictReader(fh)}
        with open(tmp_path / "tourism_events.csv", "r", encoding="utf-8") as fh:
            lines = [json.dumps({"user_id": row["user_id"], "timestamp": row["timestamp"],
                                 "lat": centroids[row["country"]][0] + i % 5 * 0.1,
                                 "lon": centroids[row["country"]][1]})
                     for i, row in enumerate(csv.DictReader(fh))]
        (tmp_path / "tourism_events.jsonl").write_text(
            "".join((line[:-2] if i % 50 == 0 else line) + "\n" for i, line in enumerate(lines)))
        assert len(events._ranges(tmp_path / "tourism_events.jsonl", 2)) == 2
        config = json.loads((tmp_path / "config_tourism.json").read_text())
        config.update(input="tourism_events.jsonl", format="jsonl")
        (tmp_path / "config_geo.json").write_text(json.dumps(config))
        outputs = self.run_on_all_cpus_and_one(tmp_path, "--config", "config_geo.json")
        assert outputs["all"] == outputs["one"]
        stats = json.loads(outputs["one"]["ingest_stats.json"])
        assert stats["rejects"] == {"bad_json": len(lines[::50])} and stats["events_kept"] > 10000


# what the demo tourism `run` prints
TOURISM_SUMMARY = """\
users kept:      547
events kept:     14515
migrations:      368
tensor nnz:      198 (total 368)
final objective: 485.693127
top ginis:       [0.922414, 0.803555, 0.789766, 0.661374, 0.637254]
"""


class TestEntryPoints:
    """``python -m migtensor.cli`` and the ``migtensor`` console script, each
    run as its own process the way a shell runs it, leave through
    ``cli.hard_exit``: what they print and write is all there, with the
    exit code ``main`` returns."""

    @pytest.fixture(params=["module", "script"])
    def command(self, request, tmp_path_factory) -> list:
        if request.param == "module":
            return [sys.executable, "-m", "migtensor.cli"]
        # the launcher an installer writes for the console script
        module, attr = console_script_target().split(":")
        launcher = tmp_path_factory.mktemp("bin") / "migtensor"
        launcher.write_text(
            f"import re\nimport sys\nfrom {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({attr}())\n")
        return [sys.executable, str(launcher)]

    @staticmethod
    def spawn(command, *args, cwd=None, stdout=subprocess.PIPE):
        # stdout block-buffered, as in a shell pipeline, so that what a
        # command prints is still buffered when it exits
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([*command, *map(str, args)], cwd=cwd, env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=300)

    def test_demo_run_prints_its_summary_and_writes_the_golden_bytes(self, command, tmp_path):
        for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
            shutil.copy(DEMO / name, tmp_path / name)
        synth = self.spawn(command, "synth", "--spec", "synth_tourism.json", "--registry",
                           "registry.txt", "--out-events", "tourism_events.csv", cwd=tmp_path)
        assert (synth.returncode, synth.stderr) == (0, "")
        assert json.loads(synth.stdout)["events"] == 14681
        result = self.spawn(command, "run", "--config", "config_tourism.json", cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == TOURISM_SUMMARY
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in artifact_bytes(tmp_path / "out_tourism").items()}
        assert digests == TOURISM_DIGESTS

    def test_bad_config_exits_2_with_its_message(self, command, tmp_path):
        path = write_workspace(tmp_path, fit=[["rank", 3], ["restarts", 1]])
        result = self.spawn(command, "run", "--config", path)
        assert result.returncode == 2
        assert result.stderr.startswith("error [config] bad config: ")
        assert result.stderr.count("\n") == 1 and result.stdout == ""

    def test_help_exits_0_with_its_text(self, command):
        result = self.spawn(command, "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: migtensor ")
        assert "Turn geo-tagged event streams into migration count tensors" in result.stdout
        assert "synth" in result.stdout

    def test_closed_stdout_exits_120_without_a_traceback(self, command, tmp_path):
        # a pipe whose reader is gone before the command writes: CPython's
        # own exit gives 120 when it cannot flush stdout, with a message
        path = write_workspace(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            plain = self.spawn([sys.executable, "-c", "import sys; from migtensor.cli import main; "
                                "sys.exit(main())"], "--help", stdout=write_end)
            results = [self.spawn(command, "--help", stdout=write_end),
                       self.spawn(command, "run", "--config", path, stdout=write_end)]
        finally:
            os.close(write_end)
        assert plain.returncode == 120 and "BrokenPipeError" in plain.stderr
        assert [(r.returncode, r.stderr) for r in results] == [(120, ""), (120, "")]
        assert (tmp_path / "out" / "run_summary.json").exists()


class TestGeoPointsEndToEnd:
    def test_points_at_exact_centroids_reproduce_the_country_coded_run(self, tmp_path, capsys):
        for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
            shutil.copy(DEMO / name, tmp_path / name)
        assert cli.main(["synth", "--spec", str(tmp_path / "synth_tourism.json"),
                         "--registry", str(tmp_path / "registry.txt"),
                         "--out-events", str(tmp_path / "tourism_events.csv")]) == 0
        with open(DEMO / "centroids.csv", "r", encoding="utf-8") as fh:
            centroids = {row["country"]: (float(row["lat"]), float(row["lon"]))
                         for row in csv.DictReader(fh)}
        with open(tmp_path / "tourism_events.csv", "r", encoding="utf-8") as fh:
            points = [json.dumps({"user_id": row["user_id"], "timestamp": row["timestamp"],
                                  "lat": centroids[row["country"]][0],
                                  "lon": centroids[row["country"]][1]})
                      for row in csv.DictReader(fh)]
        assert points
        (tmp_path / "tourism_events.jsonl").write_text("\n".join(points) + "\n")
        config = json.loads((tmp_path / "config_tourism.json").read_text())
        config.update(input="tourism_events.jsonl", format="jsonl", out_dir="out_geo")
        (tmp_path / "config_geo.json").write_text(json.dumps(config))

        assert cli.main(["run", "--config", str(tmp_path / "config_tourism.json")]) == 0
        assert cli.main(["run", "--config", str(tmp_path / "config_geo.json")]) == 0
        coded = artifact_bytes(tmp_path / "out_tourism")
        assert "events.csv" in coded and "model.txt" in coded
        assert artifact_bytes(tmp_path / "out_geo") == coded

"""End-to-end pipeline and CLI tests over real artifact directories."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from migtensor import cli, pipeline
from migtensor.config import apply_overrides, load_config
from migtensor.ingestion import ConfigError
from migtensor.tensor import load_tensor

REGISTRY = "GB\nFR\nES\nUS\nKW\nDE\n"

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


def artifact_bytes(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestRunPipeline:
    def test_fixture_yields_three_migrations(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        summary = pipeline.run_pipeline(config, echo=None)
        assert summary["overview"]["users_kept"] == 3
        assert summary["overview"]["migrations"] == 3
        assert summary["overview"]["tensor_total"] == 3

        t = load_tensor(tmp_path / "out" / "tensor.txt")
        # GB=0 FR=1 ES=2 US=3 KW=4; hand-traced cells
        assert t.coords.tolist() == [[0, 2, 3], [1, 3, 2], [3, 4, 4]]
        assert t.counts.tolist() == [1, 1, 1]

    def test_empty_input_propagates_cleanly(self, tmp_path):
        config = load_config(write_workspace(tmp_path, input_text=""))
        summary = pipeline.run_pipeline(config, echo=None)
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
        pipeline.run_pipeline(config, echo=None)
        first = artifact_bytes(tmp_path / "out")
        pipeline.run_pipeline(config, echo=None)
        assert artifact_bytes(tmp_path / "out") == first

    def test_threads_do_not_change_output(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        pipeline.run_pipeline(config, echo=None)
        serial = artifact_bytes(tmp_path / "out")
        pipeline.run_pipeline(apply_overrides(config, {"threads": 4}), echo=None)
        assert artifact_bytes(tmp_path / "out") == serial

    def test_staged_equals_one_shot(self, tmp_path):
        one_shot = tmp_path / "one"
        staged = tmp_path / "staged"
        one_shot.mkdir(), staged.mkdir()
        config_a = load_config(write_workspace(one_shot))
        pipeline.run_pipeline(config_a, echo=None)
        config_b = load_config(write_workspace(staged))
        for _, stage in pipeline.STAGES:
            stage(config_b)
        a = artifact_bytes(one_shot / "out")
        b = artifact_bytes(staged / "out")
        a.pop("run_summary.json")  # written by the one-shot runner only
        assert a == b

    def test_stage_out_of_order_fails_with_input_code(self, tmp_path):
        config = load_config(write_workspace(tmp_path))
        with pytest.raises(pipeline.StageError) as err:
            pipeline.stage_detect(config)
        assert err.value.exit_code == 3
        assert "residences" in str(err.value)

    def test_missing_input_file(self, tmp_path):
        path = write_workspace(tmp_path)
        (tmp_path / "events.csv").unlink()
        with pytest.raises(pipeline.StageError) as err:
            pipeline.run_pipeline(load_config(path), echo=None)
        assert err.value.exit_code == 3


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

    def test_numerical_failure_exits_4(self, tmp_path, monkeypatch):
        path = write_workspace(tmp_path)

        def boom(config):
            raise pipeline.StageError("fit", "objective diverged", 4)

        monkeypatch.setitem(cli._STAGE_COMMANDS, "fit", boom)
        assert cli.main(["fit", "--config", str(path)]) == 4

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

    def test_console_script_installed(self, tmp_path):
        import subprocess
        result = subprocess.run(["migtensor", "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "synth" in result.stdout


class TestJsonlFormat:
    def test_jsonl_ingest(self, tmp_path):
        lines = [json.dumps({"user_id": "u1", "timestamp": f"2014-0{m}-10T00:00:00Z",
                             "country": "GB"}) for m in range(1, 7)]
        path = write_workspace(tmp_path, input_text="\n".join(lines) + "\n",
                               format="jsonl")
        config = load_config(path)
        summary = pipeline.stage_ingest(config)
        assert summary["events_kept"] == 6


DEMO = Path(__file__).resolve().parent.parent / "demo"

# sha256 of the demo tourism run's fit artifacts. A solver change that alters
# a single bit of the fitted model changes these; such a change must say so
# and update them on purpose.
TOURISM_DIGESTS = {
    "model.txt": "6a809b12c2d6b32698cbb75eb1ba7198367d1f60bbaf31bb2ca4c35f97c7feb9",
    "fit_summary.json": "faec2387845ab6cfbdd52cb18d4d9c1de556c1505a9f0bef2912b19b231d4901",
}


class TestDemoGoldenDigests:
    def test_tourism_fit_artifacts_are_pinned(self, tmp_path, capsys):
        for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
            shutil.copy(DEMO / name, tmp_path / name)
        assert cli.main(["synth", "--spec", str(tmp_path / "synth_tourism.json"),
                         "--registry", str(tmp_path / "registry.txt"),
                         "--out-events", str(tmp_path / "tourism_events.csv")]) == 0
        assert cli.main(["run", "--config", str(tmp_path / "config_tourism.json")]) == 0
        out_dir = tmp_path / "out_tourism"
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in TOURISM_DIGESTS}
        assert digests == TOURISM_DIGESTS

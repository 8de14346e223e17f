"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.core import campaign as campaign_mod
from repro.nmcsim import configure_store


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["workloads"],
            ["profile", "atax"],
            ["simulate", "atax"],
            ["campaign", "atax"],
            ["train", "atax", "-o", "x.pkl"],
            ["predict", "atax", "-m", "x.pkl"],
            ["schema"],
            ["suitability", "atax", "mvt"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestWorkloadsCommand:
    def test_lists_all_twelve(self, capsys):
        code, out, _ = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("atax", "bfs", "kme", "trmm"):
            assert name in out


class TestProfileCommand:
    def test_profiles_central_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "atax", "--scale", "4", "--top", "5"
        )
        assert code == 0
        assert "instructions" in out
        assert "profile features" in out

    def test_custom_param(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "atax", "--scale", "4",
            "-p", "dimensions=600", "-p", "threads=4",
        )
        assert code == 0
        assert "dimensions" in out

    def test_bad_param_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "atax", "-p", "dimensions"
        )
        assert code == 2
        assert "NAME=VALUE" in err

    def test_unknown_workload(self, capsys):
        code, _, err = run_cli(capsys, "profile", "nope")
        assert code == 2
        assert "unknown workload" in err


class TestSimulateCommand:
    def test_simulates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "mvt", "--scale", "4")
        assert code == 0
        assert "IPC" in out and "energy" in out

    def test_arch_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "mvt", "--scale", "4",
            "--pes", "8", "--freq", "2.0", "--l1-lines", "16",
        )
        assert code == 0
        assert "8 PEs @ 2.0 GHz" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--pes", "0", "n_pes"),
            ("--freq", "0", "frequency_ghz"),
            ("--l1-lines", "0", "L1 geometry"),
            ("--l1-ways", "0", "L1 geometry"),
            ("--vaults", "0", "DRAM organisation"),
            ("--freq", "inf", "frequency_ghz"),
            ("--freq", "nan", "frequency_ghz"),
        ],
    )
    def test_invalid_arch_flag_is_a_config_error(
        self, capsys, flag, value, message
    ):
        code, out, err = run_cli(
            capsys, "simulate", "gemv", "--scale", "8", flag, value
        )
        assert code == 2, (out, err)
        assert message in err

    def test_fast_and_reference_engines_print_the_same(self, tmp_path):
        """A single run prints the same through the fast engine and,
        with ``--trace-hw`` (the CLI's route to the per-access reference
        engine), through the reference engine, apart from wall-clock."""
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        argv = [sys.executable, "-m", "repro", "simulate", "atax",
                "--scale", "8"]
        outs = [
            subprocess.run(
                argv + extra, env=env, capture_output=True, text=True,
                check=True, timeout=300,
            ).stdout
            for extra in (
                [], ["--trace", str(tmp_path / "t.json"), "--trace-hw"]
            )
        ]
        fast, reference = (
            [line for line in out.splitlines() if "wall-clock" not in line]
            for out in outs
        )
        assert fast and fast == reference


class TestTrainPredictRoundtrip:
    def test_train_then_predict(self, capsys, tmp_path):
        model_path = tmp_path / "m.pkl"
        cache_path = tmp_path / "cache.json"
        code, out, _ = run_cli(
            capsys, "train", "atax", "-o", str(model_path),
            "--cache", str(cache_path), "--scale", "4",
            "--trees", "10", "--no-tune",
        )
        assert code == 0
        assert model_path.exists()
        assert cache_path.exists()

        code, out, _ = run_cli(
            capsys, "predict", "atax", "-m", str(model_path), "--scale", "4",
        )
        assert code == 0
        assert "IPC (aggregate)" in out

    def test_predict_splits_load_and_predict_timing(
        self, capsys, tmp_path
    ):
        """`repro predict` reports model-load, profiling and prediction
        wall-clock separately (table and manifest): load cost must not
        be booked as prediction time, or CLI-vs-served latency
        comparisons are meaningless."""
        model_path = tmp_path / "m.pkl"
        code, _, _ = run_cli(
            capsys, "train", "atax", "-o", str(model_path),
            "--scale", "4", "--trees", "10", "--no-tune",
        )
        assert code == 0
        manifest = tmp_path / "predict.json"
        code, out, _ = run_cli(
            capsys, "predict", "atax", "-m", str(model_path),
            "--scale", "4", "--manifest", str(manifest),
        )
        assert code == 0
        assert "model load wall-clock" in out
        assert "prediction wall-clock" in out
        timing = json.loads(manifest.read_text())["timing"]
        assert set(timing) == {
            "load_seconds", "profile_seconds", "predict_seconds"
        }
        assert all(v >= 0 for v in timing.values())

    def test_predict_missing_model(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "predict", "atax", "-m", str(tmp_path / "none.pkl"),
        )
        assert code == 2
        assert "no model file" in err


class TestSchemaCommand:
    def test_block_table(self, capsys):
        from repro.schema import active_schema

        code, out, _ = run_cli(capsys, "schema")
        assert code == 0
        for block in ("profile", "app", "arch", "prior"):
            assert block in out
        assert active_schema().content_hash[:16] in out

    def test_names_are_indexed(self, capsys):
        code, out, _ = run_cli(capsys, "schema", "--names")
        assert code == 0
        lines = out.strip().splitlines()
        from repro.schema import active_schema

        assert len(lines) == len(active_schema())
        assert lines[0].split() == ["0", active_schema().names[0]]

    def test_json_dump_matches_schema(self, capsys):
        import json

        from repro.schema import active_schema

        code, out, _ = run_cli(capsys, "schema", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == active_schema().to_json_dict()

    def test_diff_against_saved_model(self, capsys, tmp_path):
        from repro import NapelTrainer, SimulationCampaign, get_workload
        from repro.core import save_model

        campaign = SimulationCampaign(scale=4.0)
        training = campaign.run(get_workload("atax"))
        trained = NapelTrainer(n_estimators=10, tune=False).train(training)
        path = tmp_path / "m.pkl"
        save_model(trained.model, path)
        code, out, _ = run_cli(capsys, "schema", "--diff", str(path))
        assert code == 0
        assert "schemas are identical" in out


class TestCampaignCommand:
    def test_runs_ccd(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "campaign", "atax", "--scale", "4",
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert "11 configurations" in out

    @pytest.mark.parametrize("jobs", ["-1", "-2"])
    def test_negative_jobs_rejected(self, capsys, jobs):
        code, _, err = run_cli(
            capsys, "campaign", "gemv", "--scale", "8", "--jobs", jobs
        )
        assert code == 2
        assert "job count must be >= 0" in err


@pytest.fixture
def store_off():
    """The persistent memo store is process-global: leave it off.  Fresh
    traces, too: a trace memoised by an earlier test carries warm
    in-process phase-A memos, which never consult the store."""
    campaign_mod._TRACE_MEMO.clear()
    configure_store(None)
    yield
    configure_store(None)


class TestMemoDirFlag:
    """Every command that takes --memo-dir writes its store there."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "gemv"],
            ["train", "gemv", "atax", "--no-tune", "--trees", "5"],
            ["suitability", "gemv", "atax", "--backend", "hmc"],
            ["suitability", "gemv", "atax",
             "--backend", "hmc", "--backend", "hbm2"],
        ],
        ids=["campaign", "train", "suitability", "suitability-2-backends"],
    )
    def test_store_written_and_recorded(
        self, capsys, tmp_path, monkeypatch, store_off, argv
    ):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        store = tmp_path / "store"
        man = tmp_path / "m.json"
        if argv[0] == "train":
            argv = argv + ["-o", str(tmp_path / "m.pkl")]
        code, _, err = run_cli(
            capsys, *argv, "--scale", "8", "--memo-dir", str(store),
            "--manifest", str(man),
        )
        assert code == 0, err
        assert list(store.rglob("*.bin"))
        data = json.loads(man.read_text())
        assert data["sim_memo"]["store"]["dir"] == str(store)
        assert data["jobs"] == 1


class TestSuitabilityCommand:
    def test_needs_two_apps(self, capsys):
        code, _, err = run_cli(capsys, "suitability", "atax")
        assert code == 2
        assert "at least two" in err

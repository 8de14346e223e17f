"""Tests for the command-line interface (repro.cli)."""

import json
from pathlib import Path

import pytest

from _helpers import require_compiler, run_repro, strip_wall_clock
from repro.backends import backend_names
from repro.cli import build_parser, main
from repro.core import campaign as campaign_mod
from repro.nmcsim import configure_store
from repro.nmcsim.simulator import _INT_SEGS
from repro.store import MemoStore


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
        argv = ["simulate", "atax", "--scale", "8"]
        fast = run_repro(*argv, cwd=tmp_path)
        reference = run_repro(
            *argv, "--trace", tmp_path / "t.json", "--trace-hw", cwd=tmp_path
        )
        assert fast and fast == reference


class TestKernelFormsPrintTheSame:
    """The compiled kernels, their pure-Python forms (no C compiler on
    ``PATH``) and, for a simulation, the per-access reference engine
    (``--trace-hw``) print the same, apart from wall-clock.

    The no-compiler runs need a fresh process: this one has already
    built and loaded the compiled kernels.  The runs they are compared
    with take the same ``python -m repro`` route.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            # An L1 geometry off the Table 3 default: phase A's L1 walk.
            ["atax", "--scale", "8", "--pes", "16",
             "--l1-lines", "16", "--l1-ways", "4"],
            # More threads than PEs and a non-dyadic cycle time: phase
            # A's stream digests.
            ["gemv", "--scale", "8", "--pes", "5", "--freq", "1.1"],
        ],
        ids=["l1-geometry", "stream-digests"],
    )
    def test_simulate(self, tmp_path, argv):
        require_compiler()
        compiled = run_repro("simulate", *argv, cwd=tmp_path)
        python = run_repro("simulate", *argv, cwd=tmp_path, no_compiler=True)
        reference = run_repro(
            "simulate", *argv, "--trace", "x.json", "--trace-hw", cwd=tmp_path
        )
        assert compiled == python
        assert compiled == reference

    def test_train(self, capsys, tmp_path):
        """Every tree of the tuned forests comes from the compiled or
        the Python tree kernel, serially or in chunks of trees across
        the grid's combinations on two workers: the three models predict
        the same, and the two serial artifacts are byte-equal (a
        ``--jobs 2`` model pickles ``jobs=2`` in its forests)."""
        require_compiler()
        models = {
            form: tmp_path / f"model-{form}.pkl"
            for form in ("cc", "python", "jobs2")
        }
        argv = ["train", "atax", "gemv", "--scale", "8", "--trees", "12"]
        run_repro(*argv, "-o", models["cc"], cwd=tmp_path)
        run_repro(*argv, "-o", models["python"], cwd=tmp_path, no_compiler=True)
        run_repro(*argv, "--jobs", "2", "-o", models["jobs2"], cwd=tmp_path)
        predictions = {}
        for form, path in models.items():
            code, out, err = run_cli(
                capsys, "predict", "atax", "--test-input",
                "--model-file", str(path),
            )
            assert code == 0, err
            predictions[form] = strip_wall_clock(out)
        assert predictions["cc"] == predictions["python"]
        assert predictions["cc"] == predictions["jobs2"]
        assert models["cc"].read_bytes() == models["python"].read_bytes()


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

    @pytest.mark.parametrize("backend", backend_names())
    def test_runs_on_every_backend(self, capsys, tmp_path, backend):
        man = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "campaign", "atax", "--scale", "4",
            "--backend", backend, "--manifest", str(man),
        )
        assert code == 0, err
        data = json.loads(man.read_text())
        assert data["exit_code"] == 0
        assert data["backend"] == backend

    def test_repro_jobs_runs_two_workers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        man = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "campaign", "mvt", "--scale", "4", "--manifest", str(man)
        )
        assert code == 0, err
        assert json.loads(man.read_text())["jobs"] == 2

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


def store_files(store: Path) -> dict[str, bytes]:
    """Every file of a memo store by its path inside the store."""
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*")) if path.is_file()
    }


def damage_bank_segments(store: Path) -> int:
    """Point every entry's bank routing far outside the device, keeping
    each entry well-formed; return the number of entries."""
    memo = MemoStore(store)
    entries = sorted(store.rglob("*.bin"))
    seg = _INT_SEGS.index("bank")
    for entry in entries:
        data = memo.get(entry.stem)
        at = int(data["lens"][:seg].sum())
        data["ints"] = data["ints"].copy()
        data["ints"][at:at + int(data["lens"][seg])] = 2**40
        memo.put(entry.stem, data)
    return len(entries)


class TestMemoStoreAcrossProcesses:
    """A memo store carries phase-A products from one process to the
    next, so every run here is a fresh process: the test process's own
    in-process memos would answer before the store is asked."""

    def test_cold_warm_and_damaged_runs(self, tmp_path):
        require_compiler()
        argv = ["campaign", "atax", "--scale", "4"]
        store = tmp_path / "memo-store"
        python_store = tmp_path / "memo-store-python"
        cold = run_repro(
            *argv, "--memo-dir", store, "--manifest", "cold.json", cwd=tmp_path
        )
        # The Python kernel forms write the same store, entry for entry.
        run_repro(
            *argv, "--memo-dir", python_store, cwd=tmp_path, no_compiler=True
        )
        assert store_files(store) == store_files(python_store)
        # A second process, with pool workers, adopts the store from the
        # environment and hits it.
        run_repro(
            *argv, "--jobs", "2", "--manifest", "warm.json", cwd=tmp_path,
            env={"REPRO_SIM_MEMO_DIR": str(store)},
        )
        cold_man, warm_man = (
            json.loads((tmp_path / name).read_text())
            for name in ("cold.json", "warm.json")
        )
        assert cold_man["exit_code"] == 0 and warm_man["exit_code"] == 0
        assert cold_man["sim_jit"]["backend"] == "cc", cold_man["sim_jit"]
        assert cold_man["sim_memo"]["store"]["writes"] > 0
        assert warm_man["sim_memo"]["store"]["hits"] > 0
        assert (
            warm_man["sim_batch"]["points"] == cold_man["sim_batch"]["points"]
        )
        # Damaged values in well-formed entries: the run warns, counts,
        # recomputes and prints what the cold run printed.
        assert damage_bank_segments(store) > 0
        damaged = run_repro(
            *argv, "--memo-dir", store, "--manifest", "damaged.json",
            "--log-json", "damaged.log", cwd=tmp_path,
        )
        assert damaged == cold
        damaged_man = json.loads((tmp_path / "damaged.json").read_text())
        assert damaged_man["exit_code"] == 0
        assert damaged_man["sim_memo"]["store"]["errors"] > 0
        log = [
            json.loads(line)
            for line in (tmp_path / "damaged.log").read_text().splitlines()
        ]
        assert any(
            entry["level"] == "warning"
            and "not a phase-A product" in entry["message"]
            for entry in log
        )


class TestSuitabilityCommand:
    def test_needs_two_apps(self, capsys):
        code, _, err = run_cli(capsys, "suitability", "atax")
        assert code == 2
        assert "at least two" in err

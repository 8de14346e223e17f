"""Implementations of the CLI subcommands."""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from ..backends import backend_summaries, get_backend
from ..config import NMCConfig
from ..core import (
    CampaignCache,
    NapelTrainer,
    SimulationCampaign,
    analyze_suitability,
    load_model,
    save_model,
)
from ..core.dataset import TrainingSet
from ..core.reporting import format_table
from ..errors import ReproError, WorkloadError
from ..ml import mean_relative_error, r2_score
from ..nmcsim import jit_status, simulation_memo_bytes
from ..obs import (
    config_hash,
    load_trace,
    merge_traces,
    summarize_serve_requests,
    summarize_trace,
    validate_trace,
)
from ..profiler import analyze_trace
from ..schema import active_schema
from ..workloads import Workload, all_workloads, get_workload


# --------------------------------------------------------------- helpers

def _parse_config(workload: Workload, args: argparse.Namespace) -> dict:
    """Workload input configuration from --param/--test-input flags."""
    if args.test_input:
        config = workload.test_config()
    else:
        config = workload.central_config()
    for item in args.param:
        if "=" not in item:
            raise WorkloadError(
                f"--param expects NAME=VALUE, got {item!r}"
            )
        name, _, value = item.partition("=")
        try:
            config[name.strip()] = float(value)
        except ValueError:
            raise WorkloadError(
                f"--param {name}: {value!r} is not a number"
            ) from None
    return workload.validate_config(config)


def _parse_arch(args: argparse.Namespace) -> NMCConfig:
    """NMC architecture from --backend/--pes/--freq/--l1-lines/... flags.

    The base configuration is the named backend's descriptor
    (``--backend``, default hmc — the pre-backend defaults exactly); the
    per-run knobs override on top.  Values are taken as given and
    validated by :class:`NMCConfig` (``replace`` validates): an invalid
    combination like ``--l1-lines 1 --l1-ways 2`` is a loud configuration
    error, never a silent rewrite.
    """
    changes: dict = {}
    if getattr(args, "pes", None) is not None:
        changes["n_pes"] = args.pes
    if getattr(args, "freq", None) is not None:
        changes["frequency_ghz"] = args.freq
    if getattr(args, "l1_lines", None) is not None:
        changes["l1_lines"] = args.l1_lines
    if getattr(args, "l1_ways", None) is not None:
        changes["l1_ways"] = args.l1_ways
    if getattr(args, "vaults", None) is not None:
        changes["n_vaults"] = args.vaults
    return NMCConfig.from_backend(args.backend).replace(**changes)


def _campaigns(
    args: argparse.Namespace, archs: list[NMCConfig]
) -> list[SimulationCampaign]:
    """One campaign per architecture, sharing the ``--cache`` cache."""
    cache = CampaignCache(args.cache)
    return [
        SimulationCampaign(arch, cache=cache, scale=args.scale, jobs=args.jobs)
        for arch in archs
    ]


def _manifest_update(args: argparse.Namespace, **fields) -> None:
    """Record fields into the run manifest (no-op outside ``main``)."""
    manifest = getattr(args, "_run_manifest", None)
    if manifest is not None:
        manifest.update(**fields)


def _record_simulation(
    args: argparse.Namespace, campaign: SimulationCampaign
) -> None:
    """Manifest fields every campaign-running command records (its
    counts are in the manifest's ``metrics``)."""
    _manifest_update(
        args,
        jobs=campaign.jobs,
        cache={"entries": len(campaign.cache)},
        sim_memo={"bytes": simulation_memo_bytes()},
        sim_jit=jit_status(),
    )


def _model_fit_summary(trained, training: TrainingSet) -> dict:
    """In-sample accuracy of a freshly-trained model (manifest record).

    These are *training-set* MRE/R² — an upper bound on quality, cheap to
    compute and useful as a corruption canary (a near-zero R² on data the
    model just saw means the artifact is broken).
    """
    ipc_pred, epi_pred = trained.model.predict_labels(
        training.X(), schema=training.schema
    )
    ipc_true = training.y_ipc_per_pe()
    epi_true = training.y_energy_per_instruction()
    return {
        "name": trained.model_name,
        "n_training_rows": trained.n_training_rows,
        "train_tune_seconds": round(trained.train_tune_seconds, 6),
        "ipc_mre": round(mean_relative_error(ipc_true, ipc_pred), 6),
        "ipc_r2": round(r2_score(ipc_true, ipc_pred), 6),
        "energy_mre": round(mean_relative_error(epi_true, epi_pred), 6),
        "energy_r2": round(r2_score(epi_true, epi_pred), 6),
    }


# -------------------------------------------------------------- commands

def cmd_backends(args: argparse.Namespace) -> None:
    """List registered memory backends, or show one in detail."""
    if getattr(args, "name", None):
        descriptor = get_backend(args.name)
        if getattr(args, "json", False):
            print(json.dumps(descriptor.to_json_dict(), indent=2))
            return
        rows = [[k, f"{v}"] for k, v in descriptor.summary().items()]
        t = descriptor.timing
        e = descriptor.energy
        rows += [
            ["t_rcd/t_cl/t_rp (ns)",
             f"{t.t_rcd_ns:g} / {t.t_cl_ns:g} / {t.t_rp_ns:g}"],
            ["t_ras/t_bl (ns)", f"{t.t_ras_ns:g} / {t.t_bl_ns:g}"],
            ["write extra (ns)", f"{t.t_wr_extra_ns:g}"],
            ["activate / rw energy (pJ, pJ/bit)",
             f"{e.dram_activate_pj:g} / {e.dram_rw_pj_per_bit:g}"],
            ["write extra energy (pJ/bit)",
             f"{e.dram_wr_extra_pj_per_bit:g}"],
            ["link", f"{descriptor.link.width_bits} bits x "
                     f"{descriptor.link.gbps:g} Gbps"],
        ]
        print(format_table(
            ["field", "value"], rows,
            title=f"backend descriptor: {descriptor.name}",
        ))
        return
    summaries = backend_summaries()
    if getattr(args, "json", False):
        print(json.dumps(summaries, indent=2))
        return
    rows = [
        [
            s["name"],
            s["family"],
            s["topology"],
            f"{s['capacity_gib']:g}",
            s["row_policy"],
            f"{s['link_gbytes_per_s']:g}",
            f"{s['rw_asymmetry']:g}",
            s["description"],
        ]
        for s in summaries
    ]
    print(format_table(
        ["name", "family", "vaults x layers x banks", "GiB",
         "row policy", "link GB/s", "R/W asym", "description"],
        rows,
        title="registered memory backends (`--backend NAME` to use one)",
    ))


def cmd_workloads(args: argparse.Namespace) -> None:
    rows = []
    for w in all_workloads():
        for i, p in enumerate(w.parameters):
            rows.append([
                w.name if i == 0 else "",
                w.description if i == 0 else "",
                p.name,
                ", ".join(f"{lv:g}" for lv in p.levels),
                f"{p.test:g}",
            ])
    print(format_table(
        ["name", "description", "parameter", "levels (min..max)", "test"],
        rows,
        title="Available workloads (paper Table 2)",
    ))


def cmd_profile(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload)
    config = _parse_config(workload, args)
    start = time.perf_counter()
    trace = workload.generate(config, scale=args.scale)
    profile = analyze_trace(
        trace, workload=workload.name, parameters=config
    )
    elapsed = time.perf_counter() - start
    print(f"workload: {workload.name}  config: {config}")
    print(
        f"trace: {len(trace):,} instructions, "
        f"{trace.memory_op_count:,} memory ops, "
        f"{trace.thread_count} threads  ({elapsed:.2f} s)"
    )
    items = sorted(
        profile.as_dict().items(), key=lambda kv: abs(kv[1]), reverse=True
    )[: args.top]
    print(format_table(
        ["feature", "value"],
        [[name, f"{value:.6g}"] for name, value in items],
        title=f"top {args.top} profile features (of 395)",
    ))


def cmd_simulate(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload)
    config = _parse_config(workload, args)
    arch = _parse_arch(args)
    trace = workload.generate(config, scale=args.scale)
    start = time.perf_counter()
    from ..nmcsim import NMCSimulator

    result = NMCSimulator(arch).run(trace, workload=workload.name)
    elapsed = time.perf_counter() - start
    print(f"workload: {workload.name}  config: {config}")
    print(f"architecture: {arch.n_pes} PEs @ {arch.frequency_ghz} GHz, "
          f"L1 {arch.l1_bytes} B, {arch.n_vaults} vaults")
    print(format_table(
        ["metric", "value"],
        [
            ["instructions", f"{result.instructions:,}"],
            ["cycles", f"{result.cycles:,}"],
            ["IPC", f"{result.ipc:.4f}"],
            ["time", f"{result.time_s * 1e6:.2f} us"],
            ["energy", f"{result.energy_j * 1e3:.4f} mJ"],
            ["EDP", f"{result.edp:.4e} J*s"],
            ["L1 miss ratio", f"{result.cache.miss_ratio:.1%}"],
            ["DRAM accesses", f"{result.dram.accesses:,}"],
            ["simulation wall-clock", f"{elapsed:.2f} s"],
        ],
        title="simulation result",
    ))


def cmd_campaign(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload)
    (campaign,) = _campaigns(args, [_parse_arch(args)])
    start = time.perf_counter()
    training = campaign.run(workload)
    campaign.cache.save()
    elapsed = time.perf_counter() - start
    _manifest_update(
        args,
        workloads=[workload.name],
        n_points=len(training),
        scale=args.scale,
        backend=campaign.arch.backend,
        arch_config_hash=config_hash(campaign.arch),
        schema_hash=active_schema().content_hash,
        doe_run_seconds=campaign.doe_run_seconds,
    )
    _record_simulation(args, campaign)
    rows = [
        [
            ", ".join(f"{k}={v:g}" for k, v in row.parameters.items()),
            f"{row.result.ipc:.4f}",
            f"{row.result.energy_j * 1e3:.4f}",
        ]
        for row in training
    ]
    print(format_table(
        ["configuration", "IPC", "energy (mJ)"],
        rows,
        title=f"CCD campaign for {workload.name}: {len(training)} "
              f"configurations in {elapsed:.1f} s",
    ))


def cmd_train(args: argparse.Namespace) -> None:
    backends = args.backend or ["hmc"]
    campaigns = _campaigns(
        args, [NMCConfig.from_backend(name) for name in backends]
    )
    campaign = campaigns[0]
    sets = []
    for name in args.apps:
        workload = get_workload(name)
        for c in campaigns:
            print(
                f"running CCD campaign for {name} "
                f"on {c.arch.backend} ..."
            )
            sets.append(c.run(workload))
    campaign.cache.save()
    training = TrainingSet.concat(sets)
    trainer = NapelTrainer(
        model=args.model,
        n_estimators=args.trees,
        tune=not args.no_tune,
        jobs=args.jobs,
    )
    trained = trainer.train(training)
    save_model(trained.model, args.output)
    _manifest_update(
        args,
        workloads=list(args.apps),
        n_points=len(training),
        scale=args.scale,
        backends=list(backends),
        arch_config_hash=config_hash(campaign.arch),
        schema_hash=trained.model.schema.content_hash,
        model=_model_fit_summary(trained, training),
        output=str(args.output),
    )
    _record_simulation(args, campaign)
    print(
        f"trained {args.model} on {len(training)} rows "
        f"({trained.train_tune_seconds:.1f} s); model saved to {args.output}"
    )
    if trained.ipc_tuning is not None:
        print(f"IPC hyper-parameters:    {trained.ipc_tuning.best_params}")
        print(f"energy hyper-parameters: {trained.energy_tuning.best_params}")


def cmd_predict(args: argparse.Namespace) -> None:
    # Each stage is timed separately: "prediction wall-clock" must mean
    # the model inference alone, not model deserialization or trace
    # profiling, or CLI-vs-served latency comparisons are meaningless
    # (the server pays the load cost once at startup, the CLI pays it
    # every invocation).
    t0 = time.perf_counter()
    model = load_model(args.model_file)
    load_s = time.perf_counter() - t0
    workload = get_workload(args.workload)
    config = _parse_config(workload, args)
    arch = _parse_arch(args)
    t1 = time.perf_counter()
    trace = workload.generate(config, scale=args.scale)
    profile = analyze_trace(
        trace, workload=workload.name, parameters=config
    )
    profile_s = time.perf_counter() - t1
    t2 = time.perf_counter()
    pred = model.predict(profile, arch)
    predict_s = time.perf_counter() - t2
    _manifest_update(
        args,
        workloads=[workload.name],
        backend=arch.backend,
        model_file=str(args.model_file),
        schema_hash=model.schema.content_hash,
        arch_config_hash=config_hash(arch),
        timing={
            "load_seconds": round(load_s, 6),
            "profile_seconds": round(profile_s, 6),
            "predict_seconds": round(predict_s, 6),
        },
    )
    print(format_table(
        ["metric", "value"],
        [
            ["IPC (aggregate)", f"{pred.ipc:.4f}"],
            ["IPC (per PE)", f"{pred.ipc_per_pe:.4f}"],
            ["PEs used", pred.pes_used],
            ["time", f"{pred.time_s * 1e6:.2f} us"],
            ["energy", f"{pred.energy_j * 1e3:.4f} mJ"],
            ["EDP", f"{pred.edp:.4e} J*s"],
            ["model load wall-clock", f"{load_s * 1e3:.1f} ms"],
            ["trace+profile wall-clock", f"{profile_s * 1e3:.1f} ms"],
            ["prediction wall-clock", f"{predict_s * 1e3:.1f} ms"],
        ],
        title=f"NAPEL prediction: {workload.name} {config}",
    ))


def cmd_serve(args: argparse.Namespace) -> None:
    """Serve model predictions over HTTP until SIGTERM/SIGINT.

    Startup preloads and verifies every ``--model NAME=PATH`` artifact
    (a bad file is an exit-2 configuration error, not a runtime 500),
    prints the serving table, then runs the asyncio server until a
    termination signal triggers the graceful drain.  With ``--reload``,
    SIGHUP hot-swaps freshly-loaded artifacts under live traffic.
    """
    import asyncio
    import signal

    from ..serve import ModelRegistry, PredictionServer, parse_model_specs

    specs = parse_model_specs(args.model)
    registry = ModelRegistry(specs)
    server = PredictionServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch_rows=args.max_batch_rows,
        slow_request_ms=getattr(args, "slow_request_ms", 0.0),
        instrument=not getattr(args, "no_instrument", False),
        # Rotation is a no-op unless tracing is actually active
        # (--trace or $REPRO_TRACE), so the flag passes unconditionally.
        trace_rotate_events=getattr(args, "trace_rotate_events", 0),
    )

    async def _serve() -> None:
        await server.start()
        rows = [
            [
                entry.name,
                str(entry.preloaded.path),
                entry.preloaded.schema_hash[:16],
                f"{entry.preloaded.n_features}",
                f"{entry.preloaded.load_seconds * 1e3:.1f} ms",
                f"{len(entry.preloaded.warnings)}",
            ]
            for entry in (
                registry.get(name) for name in registry.names()
            )
        ]
        print(format_table(
            ["model", "artifact", "schema hash", "features",
             "load", "warnings"],
            rows,
            title=f"repro serve: listening on "
                  f"http://{server.host}:{server.port}",
        ), flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.shutdown())
            )
        if args.reload:
            loop.add_signal_handler(
                signal.SIGHUP,
                lambda: asyncio.ensure_future(server.reload()),
            )
        await server.wait_done()

    asyncio.run(_serve())
    fields = server.manifest_fields(
        args._run_manifest.run_metrics()["counters"]
    )
    _manifest_update(args, **fields)
    served = fields["serve"]
    print(
        f"served {served['requests']} request(s), {served['rows']} row(s), "
        f"{served['reloads']} reload(s)"
    )


def cmd_schema(args: argparse.Namespace) -> None:
    """Print (or diff) the active model-input feature schema."""
    schema = active_schema()
    if getattr(args, "json", False):
        print(json.dumps(schema.to_json_dict(), indent=2))
        return
    if getattr(args, "diff", None):
        model = load_model(args.diff)
        diff = model.schema.diff(schema)
        print(f"model schema:   {model.schema.content_hash[:16]} "
              f"({len(model.schema)} features, v{model.schema.version})")
        print(f"runtime schema: {schema.content_hash[:16]} "
              f"({len(schema)} features, v{schema.version})")
        print(diff.describe())
        return
    if getattr(args, "names", False):
        for i, name in enumerate(schema.names):
            print(f"{i:4d}  {name}")
        return
    rows = [
        [b.name, len(b), b.dtype, b.description]
        for b in schema.blocks
    ]
    print(format_table(
        ["block", "features", "dtype", "description"],
        rows,
        title=f"active feature schema: {len(schema)} features, "
              f"v{schema.version}, hash {schema.content_hash[:16]}",
    ))


def cmd_trace(args: argparse.Namespace) -> None:
    """Validate, merge or summarize ``--trace`` output files.

    Every input is schema-checked first (a malformed file raises
    :class:`~repro.errors.TracingError`, so the CLI exits 2); the default
    action is a top-N table of span names ranked by self time.
    """
    docs = []
    for path in args.files:
        doc = load_trace(path)
        n_events = validate_trace(doc, source=str(path))
        docs.append(doc)
        if args.validate:
            print(f"{path}: OK ({n_events} events)")
    if args.validate:
        return
    if len(docs) > 1:
        merged = merge_traces(docs, sources=[str(p) for p in args.files])
    else:
        merged = docs[0]
    if getattr(args, "merge", None):
        out = Path(args.merge)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged) + "\n", encoding="utf-8")
        print(f"merged {len(docs)} trace(s) into {out}")
        return
    rows = [
        [
            s["name"],
            f"{s['count']:,}",
            f"{s['total_us'] / 1e3:,.3f}",
            f"{s['self_us'] / 1e3:,.3f}",
        ]
        for s in summarize_trace(merged, top=args.top)
    ]
    if not rows:
        print("no duration (ph=X) events in the trace")
        return
    print(format_table(
        ["span", "count", "total (ms)", "self (ms)"],
        rows,
        title=f"top {args.top} spans by self time "
              f"({len(args.files)} file(s))",
    ))
    if getattr(args, "serve", False):
        summary = summarize_serve_requests(merged)
        if not summary["requests"]:
            print("no serve.request spans in the trace")
            return
        print(format_table(
            ["model", "route", "status", "count", "total (ms)",
             "max (ms)"],
            [
                [
                    g["model"], g["route"], g["status"],
                    f"{g['count']:,}",
                    f"{g['total_us'] / 1e3:,.3f}",
                    f"{g['max_us'] / 1e3:,.3f}",
                ]
                for g in summary["groups"]
            ],
            title=(
                f"serve requests: {summary['requests']} across "
                f"{summary['batches']} batch(es)"
                + (
                    f", {summary['mean_requests_per_batch']} "
                    "request(s)/batch"
                    if summary["mean_requests_per_batch"] is not None
                    else ""
                )
                + (
                    f"; {summary['unlinked_requests']} UNLINKED"
                    if summary["unlinked_requests"] else ""
                )
            ),
        ))


def cmd_suitability(args: argparse.Namespace) -> None:
    workloads = [get_workload(name) for name in args.apps]
    if len(workloads) < 2:
        raise ReproError(
            "suitability needs at least two workloads (the NAPEL model is "
            "trained on the other applications)"
        )
    backends = args.backend or ["hmc"]
    campaigns = _campaigns(
        args, [NMCConfig.from_backend(name) for name in backends]
    )
    print(
        f"running CCD campaigns for {', '.join(args.apps)} on "
        f"{', '.join(backends)} ..."
    )
    results = analyze_suitability(workloads, campaigns)
    campaigns[0].cache.save()
    edp_mre: dict[str, dict[str, float]] = {}
    for r in results:
        edp_mre.setdefault(r.workload, {})[r.backend] = round(r.edp_mre, 6)
    _manifest_update(
        args,
        workloads=list(args.apps),
        backends=list(backends),
        scale=args.scale,
        schema_hash=active_schema().content_hash,
        model={
            "edp_mre": edp_mre,
            "mean_edp_mre": round(
                sum(r.edp_mre for r in results) / len(results), 6
            ),
        },
        best_backend={r.workload: r.backend for r in results if r.rank == 1},
    )
    _record_simulation(args, campaigns[0])
    rows = [
        [
            r.workload if r.rank == 1 else "",
            r.backend,
            str(r.rank),
            f"{r.edp_reduction_actual:8.4f}",
            f"{r.edp_reduction_pred:8.4f}",
            "NMC-suitable" if r.suitable_actual else "host wins",
            f"{r.edp_mre:6.1%}",
        ]
        for r in results
    ]
    print(format_table(
        ["app", "backend", "rank", "EDP red (sim)", "EDP red (NAPEL)",
         "verdict", "EDP MRE"],
        rows,
        title="NMC-suitability analysis (cf. paper Figure 7; "
              "rank 1 = best backend)",
    ))

"""One workload of the pipeline benchmark, run in a fresh process.

``run.py`` launches this script once per workload, plus four more times
with ``--setup-only`` to sample set-up time, and once as ``prep`` to build the
shared inputs (the campaign cache, and for serving a trained model)::

    python scenario.py prep --seed N --work DIR [--model]
    python scenario.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --work DIR --out FILE --launched T [--setup-only] [--smoke]

Set-up is timed from ``--launched`` (the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide) to the
start of the first timed round.  The timed part then repeats whole
rounds until ``--seconds`` have passed; with ``--trace 1`` every second
round runs with the layer wrappers of :mod:`layers` installed, and the
end-to-end numbers come from the other rounds only.  Outputs are checked
after the timed part.  The result is written as JSON to ``--out``.

A workload process runs on one CPU (``repro serve`` inherits it), and
every time it reports is corrected for the host's speed by a
:class:`hostspeed.HostClock` sampling that CPU.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock

WORKLOADS = (
    "campaign_cold", "dse_dram", "dse_geometry", "train_loocv", "serve_mixed",
)
#: The application mix: one kernel per DoE size (2, 3 and 4 parameters,
#: so 11, 19 and 31 points) and both regular and irregular access.
APPS = ("atax", "bfs", "gemv", "kme")
#: Trace scale.  2.0 keeps a 92-point campaign near 6 s on one core, so
#: every workload fits its rounds, set-up and checks into one run.
SCALE = 2.0
SMOKE_SCALE = 6.0
SMOKE_TREES = 12
#: ``dse_dram`` sweeps every (t_cl, t_rcd, t_rp) in this set: DRAM
#: timing only, so phase A (classification) is shared by all 8 archs.
DRAM_NS = (10.0, 17.5)
#: ``dse_geometry`` sweeps PE count x L1 (lines, ways): every arch
#: changes phase A.
N_PES = (16, 64)
L1_GEOMETRY = ((4, 2), (16, 4))
ROW_CLASSES = {"row1": 1, "row64": 64}
WARMUP_REQUESTS = 20
CHECK_ROWS = 16
#: Second element of the RNG keys that pick checked points and rows, so
#: they never coincide with an app index.
CHECK_KEY = 1000
ROWS_KEY = 1001
#: Per-layer metrics that only the serving or training workload fills.
PARTIAL_LAYERS = (
    "serve.server_mean_ms", "serve.server_p99_ms", "serve.transport_mean_ms",
    "serve.batch_rows_mean", "serve.batches",
    "serve.row1_requests", "serve.row64_requests",
    "serve.row1_p99_ms", "serve.row64_p50_ms", "serve.row64_p95_ms",
    "serialization.load_model_ms", "ml.mre_ipc_pct", "ml.mre_energy_pct",
)


def digest(obj) -> str:
    """sha256 of canonical JSON (floats written with all their digits)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def app_configs(seed: int, round_: int = 0) -> dict[str, list[dict]]:
    """Each app's input configurations: a Latin hypercube as large as
    the app's CCD.  Round 0 is the shared input set; campaign rounds
    after it draw fresh configurations so no trace or memo is reused."""
    import numpy as np

    from repro import get_workload
    from repro.doe import ParameterSpace, central_composite, latin_hypercube

    out = {}
    for idx, name in enumerate(APPS):
        space = ParameterSpace.of_workload(get_workload(name))
        key = [seed, idx] if round_ == 0 else [seed, idx, round_]
        out[name] = latin_hypercube(
            space, len(central_composite(space)), np.random.default_rng(key)
        )
    return out


def sweep_archs(workload: str, smoke: bool) -> list:
    from repro import default_nmc_config

    base = default_nmc_config()
    if workload == "dse_dram":
        archs = [
            dataclasses.replace(base, timing=dataclasses.replace(
                base.timing, t_cl_ns=cl, t_rcd_ns=rcd, t_rp_ns=rp,
            ))
            for cl, rcd, rp in itertools.product(DRAM_NS, repeat=3)
        ]
    else:
        archs = [
            dataclasses.replace(base, n_pes=n, l1_lines=lines, l1_ways=ways)
            for n in N_PES for lines, ways in L1_GEOMETRY
        ]
    return archs[:1] if smoke else archs


def training_set(cache, configs: dict, scale: float):
    """The round-0 campaign as a TrainingSet, served from ``cache``."""
    from repro import SimulationCampaign, TrainingSet, get_workload

    campaign = SimulationCampaign(cache=cache, scale=scale, jobs=1)
    return TrainingSet.concat(
        campaign.run(get_workload(app), configs[app]) for app in APPS
    )


class Run:
    """What one workload process measures, checks and reports."""

    def __init__(self, args: argparse.Namespace, clock: HostClock) -> None:
        self.args = args
        self.clock = clock
        self.seed = args.seed
        self.scale = SMOKE_SCALE if args.smoke else SCALE
        self.work = Path(args.work)
        self.prep = self.work / "prep.json"
        self.scratch = self.work / args.workload
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.setup_s: float | None = None
        #: Monotonic start and end of the timed part.
        self.timed: tuple[float, float] | None = None
        self.rounds: list[dict] = []
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.results_digest = ""
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] | None = None
        self.probe = None
        if args.trace:
            from layers import LayerProbe

            self.probe = LayerProbe()

    def ready(self, start: float | None = None) -> bool:
        """End of set-up (begun at ``start``, by default when the parent
        launched this process); True when the timed part should run."""
        start = self.args.launched if start is None else start
        self.setup_s = self.clock.seconds(start, time.monotonic())
        return not self.args.setup_only

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def timed_rounds(self, body) -> None:
        """Repeat ``body(r) -> (marks, items)`` until the run's seconds
        have passed; with tracing on, odd rounds are traced.  ``marks``
        are the monotonic times that bound the round's operations (its
        start, then the end of each one); every round has the same
        operations, so each is timed on its own."""
        start = time.monotonic()
        r = 0
        while True:
            traced = self.probe is not None and r % 2 == 1
            if traced:
                with self.probe.installed():
                    marks, items = body(r)
                self.probe.mark_window(marks[0], marks[-1])
            else:
                marks, items = body(r)
            self.attempted += items
            self.rounds.append({
                "round": r, "traced": traced,
                "wall_s": marks[-1] - marks[0],
                "items": items,
                "ops_s": [self.clock.seconds(a, b)
                          for a, b in zip(marks, marks[1:])],
            })
            r += 1
            if time.monotonic() - start >= self.args.seconds and (
                self.probe is None or r >= 2
            ):
                break
        self.timed = (start, time.monotonic())

    def finish_rounds(self, extra_layers: dict | None = None) -> None:
        """End-to-end numbers from the untraced rounds; layer numbers
        from the traced ones.  One round is the workload's operation, so
        ``op_p50_ms`` is the round time and ``items_per_s`` its items
        over that time (both corrected for the host's speed)."""
        plain = [x for x in self.rounds if not x["traced"]]
        round_s = robust_round_s(plain)
        self.e2e = {
            "items_per_s": plain[0]["items"] / round_s,
            "op_p50_ms": round_s * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.probe is None:
            return
        # Layer spans are raw wall time, so the round they are shares of
        # is too; the overhead compares corrected times.
        traced = [x for x in self.rounds if x["traced"]]
        self.set_layers(len(traced), {
            "bench.round_s": statistics.median(x["wall_s"] for x in traced),
            "bench.trace_overhead_frac": robust_round_s(traced) / round_s - 1.0,
            **(extra_layers or {}),
        })

    def set_layers(self, rounds: int, values: dict) -> None:
        """The probe's per-layer numbers plus ``values``; the layers only
        some workloads reach read 0 on the others."""
        self.layers = {
            **dict.fromkeys(PARTIAL_LAYERS, 0.0),
            **self.probe.metrics(rounds),
            **values,
        }

    def report(self) -> dict:
        import numpy

        from repro.nmcsim import jit_status

        if self.layers is not None:
            self.probe.tracer.write(self.args.trace_file)
        return {
            "workload": self.args.workload,
            "seed": self.seed,
            "scale": self.scale,
            "setup_s": self.setup_s,
            "host_slowdown": (self.clock.slowdown(*self.timed)
                              if self.timed else None),
            "e2e": self.e2e,
            "layers": self.layers,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "results_digest": self.results_digest,
            "rounds": self.rounds,
            "jit_status": jit_status(),
            "numpy": numpy.__version__,
        }


def robust_round_s(rounds: list[dict]) -> float:
    """The sum of each operation's median time across rounds: what the
    host-speed correction leaves of a slowdown hits different operations
    in different rounds, and drops out of the per-operation medians."""
    return sum(statistics.median(times)
               for times in zip(*(x["ops_s"] for x in rounds)))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of this process or of ``pid``, in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------- checks

def check_point(run: Run, label: str, workload, row, arch) -> None:
    """Re-simulate one campaign point with the reference engine and
    re-profile its trace: both must match the pipeline bit for bit."""
    from repro import NMCSimulator, analyze_trace
    from repro.workloads.base import config_seed

    params = dict(row.parameters)
    trace = workload.generate(
        params, scale=run.scale, seed=config_seed(workload.name, params)
    )
    ref = NMCSimulator(arch, engine="reference").run(
        trace, workload=workload.name, parameters=params
    )
    run.check(
        f"{label}: reference engine", ref.to_json_dict() == row.result.to_json_dict(),
        f"{workload.name} {params}",
    )
    profile = analyze_trace(trace, workload=workload.name, parameters=params)
    run.check(
        f"{label}: profile",
        profile.to_json_dict() == row.profile.to_json_dict(),
        f"{workload.name} {params}",
    )


# ---------------------------------------------------------- workloads

def campaign_cold(run: Run) -> None:
    """A DoE campaign from nothing: trace, profile, simulate, save."""
    import numpy as np

    from repro import (
        CampaignCache, SimulationCampaign, default_nmc_config, get_workload,
    )

    first = app_configs(run.seed)
    if not run.ready():
        return
    kept = []

    def body(r):
        # Each app is one operation; the cache's load and save count
        # with the first and the last.  The configs of different rounds
        # differ, but their traces are within about 1 % in length.
        configs = first if r == 0 else app_configs(run.seed, r)
        path = run.scratch / f"campaign_{r}.json"
        marks = [time.monotonic()]
        cache = CampaignCache(path)
        campaign = SimulationCampaign(cache=cache, scale=run.scale, jobs=1)
        sets = []
        for app in APPS:
            sets.append(campaign.run(get_workload(app), configs[app]))
            marks.append(time.monotonic())
        cache.save()
        marks[-1] = time.monotonic()
        if r == 0:
            kept.extend(sets)
            if not run.prep.exists():
                os.replace(path, run.prep)
        path.unlink(missing_ok=True)
        return marks, sum(len(s) for s in sets)

    run.timed_rounds(body)
    run.finish_rounds()
    run.results_digest = digest([
        [row.workload, row.parameters, row.profile.to_json_dict(),
         row.result.to_json_dict()]
        for ts in kept for row in ts
    ])
    rng = np.random.default_rng([run.seed, CHECK_KEY])
    arch = default_nmc_config()
    for app, ts in zip(APPS, kept):
        rows = list(ts)
        check_point(run, app, get_workload(app),
                    rows[rng.integers(len(rows))], arch)


def dse(run: Run) -> None:
    """An architecture sweep over the prepared campaign: profiles come
    from the cache, so only simulation (and trace generation) runs."""
    import numpy as np

    from repro import CampaignCache, SimulationCampaign, get_workload

    configs = app_configs(run.seed)
    archs = sweep_archs(run.args.workload, run.args.smoke)
    cache = CampaignCache(run.prep)
    if not run.ready():
        return
    kept, digests = [], []

    def body(r):
        nonlocal cache
        if r > 0:
            # A fresh copy of the prepared cache, so every round misses
            # on simulation results exactly as round 0 did.
            cache = None
            cache = CampaignCache(run.prep)
        sets = []
        marks = [time.monotonic()]
        for app in APPS:
            for arch in archs:
                sets.append(
                    SimulationCampaign(arch, cache=cache, scale=run.scale,
                                       jobs=1)
                    .run(get_workload(app), configs[app])
                )
                marks.append(time.monotonic())
        digests.append(digest(
            [row.result.to_json_dict() for ts in sets for row in ts]
        ))
        if r == 0:
            kept.extend(sets)
        return marks, sum(len(s) for s in sets)

    run.timed_rounds(body)
    run.finish_rounds()
    run.results_digest = digests[0]
    run.check("every round gives the same results",
              len(set(digests)) == 1, f"{len(set(digests))} distinct")
    rng = np.random.default_rng([run.seed, CHECK_KEY])
    for k, arch in enumerate(archs):
        a = int(rng.integers(len(APPS)))
        rows = list(kept[a * len(archs) + k])
        check_point(run, f"arch {k}", get_workload(APPS[a]),
                    rows[rng.integers(len(rows))], arch)


def train_loocv(run: Run) -> None:
    """Leave-one-app-out training and held-out prediction (Table 4's
    train+tune, plus the accuracy that guards it)."""
    from repro import CampaignCache, evaluate_loocv

    training = training_set(
        CampaignCache(run.prep), app_configs(run.seed), run.scale
    )
    options = {"n_estimators": SMOKE_TREES} if run.args.smoke else {}
    if not run.ready():
        return
    outcomes = []

    def body(r):
        t0 = time.monotonic()
        result = evaluate_loocv(training, jobs=1, **options)
        t1 = time.monotonic()
        outcomes.append({"perf_mre": result.perf_mre,
                         "energy_mre": result.energy_mre})
        return [t0, t1], len(result.perf_mre)

    run.timed_rounds(body)
    first = outcomes[0]
    mre = {
        key: 100.0 * statistics.fmean(first[key].values())
        for key in ("perf_mre", "energy_mre")
    }
    run.finish_rounds({
        "ml.mre_ipc_pct": mre["perf_mre"],
        "ml.mre_energy_pct": mre["energy_mre"],
    })
    run.results_digest = digest(first)
    run.check("every round gives the same held-out errors",
              all(o == first for o in outcomes))
    run.check("held-out errors are finite and positive",
              all(math.isfinite(v) and v > 0
                  for key in first for v in first[key].values()),
              json.dumps(first))


class Server:
    """``python -m repro serve`` as a subprocess, up to its listening line."""

    def __init__(self, run: Run, model: Path) -> None:
        self.launched = time.monotonic()
        with open(run.scratch / "serve.err", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", f"default={model}", "--port", "0"],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        self.load_model_ms = 0.0
        self.port = 0
        try:
            self._read_banner(model)
        except BaseException:
            self.stop()
            raise

    def _read_banner(self, model: Path) -> None:
        lines = []
        while not self.port:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"repro serve exited: {lines}")
            lines.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"repro serve exited: {lines}")
            if str(model) in line:
                load = [c.strip() for c in line.split("|")][4]
                self.load_model_ms = float(load.removesuffix(" ms"))
                return

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def slices(samples: list, width: float) -> list[tuple[float, list]]:
    """(start, requests) of each ``width``-second slice of the window,
    a request counting in the slice it ended in; the trailing part
    slice, and slices without a 1-row request, are dropped."""
    start = min(s.start for s in samples)
    n = max(1, int((max(s.end for s in samples) - start) / width))
    groups: list[list] = [[] for _ in range(n)]
    for s in samples:
        i = int((s.end - start) / width)
        if i < n:
            groups[i].append(s)
    return [(start + i * width, g) for i, g in enumerate(groups)
            if any(s.label == "row1" for s in g)]


def _quantile_ms(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of latencies in seconds, in ms."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def _histogram_delta(before: dict, after: dict, name: str, labels: dict):
    from repro.obs.histogram import Histogram
    from repro.obs.metrics import labeled_name

    key = labeled_name(name, labels)
    hist = Histogram.from_snapshot(after["metrics"]["histograms"][key])
    base = before["metrics"]["histograms"].get(key)
    return Histogram.from_snapshot(hist.diff(base))


def serve_mixed(run: Run) -> None:
    """Two closed-loop clients, 1-row and 64-row requests, sharing one
    server and its microbatcher."""
    import numpy as np

    from repro import load_model
    from loadgen import ClosedLoop, get_json

    model = run.work / "model.pkl"
    server = Server(run, model)
    try:
        if not run.ready(server.launched):
            return
        X = np.load(run.work / "rows.npy")
        rng = np.random.default_rng([run.seed, ROWS_KEY])
        bodies = {
            label: [
                json.dumps({"rows": X[rng.integers(len(X), size=n)].tolist()})
                .encode()
                for _ in range(64 if n == 1 else 8)
            ]
            for label, n in ROW_CLASSES.items()
        }
        loop = ClosedLoop(server.port, bodies)
        try:
            warm = loop.run(requests=WARMUP_REQUESTS)
            run.attempted += len(warm)
            run.failed += sum(s.status != 200 for s in warm)
            phases = [(False, run.args.seconds)]
            if run.probe is not None:
                phases = [(False, run.args.seconds / 2),
                          (True, run.args.seconds / 2)]
            measured = {}
            started = time.monotonic()
            for traced, seconds in phases:
                before = get_json(server.port, "/metrics")
                probe = run.probe if traced else None
                t0 = time.monotonic()
                samples = loop.run(seconds=seconds, probe=probe)
                t1 = max(s.end for s in samples)
                after = get_json(server.port, "/metrics")
                if traced:
                    run.probe.mark_window(t0, t1)
                measured[traced] = (samples, t1 - t0,
                                    run.clock.seconds(t0, t1), before, after)
                run.attempted += len(samples)
                run.failed += sum(s.status != 200 for s in samples)
            run.timed = (started, t1)
        finally:
            loop.close()
        # Medians over one-second slices of the window, for the same
        # reason as robust_round_s.  Client and server share the CPU the
        # host clock samples, so each request and each slice is
        # corrected by that CPU's speed while it lasted.
        samples, wall, _, _, _ = measured[False]
        width = min(1.0, wall)
        for r, (start, group) in enumerate(slices(samples, width)):
            run.rounds.append({
                "round": r, "traced": False, "wall_s": width,
                "seconds": run.clock.seconds(start, start + width),
                "slowdown": run.clock.slowdown(start, start + width),
                "items": sum(ROW_CLASSES[s.label] for s in group),
                "requests": len(group),
                "row1_p50_s": statistics.median(
                    run.clock.seconds(s.start, s.end)
                    for s in group if s.label == "row1"
                ),
            })
        run.e2e = {
            "items_per_s": statistics.median(
                x["items"] / x["seconds"] for x in run.rounds
            ),
            "op_p50_ms": statistics.median(
                x["row1_p50_s"] for x in run.rounds
            ) * 1e3,
            "peak_rss_mb": peak_rss_mb(server.proc.pid),
        }
        if run.probe is not None:
            _serve_layers(run, server, measured)

        # Output check: rows over HTTP == in-process predictions.
        picked = X[rng.integers(len(X), size=CHECK_ROWS)]
        reply = get_json(server.port, "/predict",
                         json.dumps({"rows": picked.tolist()}).encode())
        ipc, epi = load_model(model).predict_labels(picked)
        served = [(p["ipc_per_pe"], p["energy_per_instruction_j"])
                  for p in reply["predictions"]]
        local = [(float(a), float(b)) for a, b in zip(ipc, epi)]
        run.results_digest = digest(served)
        for i, (got, want) in enumerate(zip(served, local)):
            run.check(f"row {i} over HTTP", got == want, f"{got} vs {want}")
    finally:
        server.stop()


def _serve_layers(run: Run, server: Server, measured: dict) -> None:
    # Client and server figures are raw wall time, like the layer spans;
    # the overhead compares corrected rates.
    samples, wall, seconds, before, after = measured[True]
    plain_samples, _, plain_seconds, _, _ = measured[False]
    latency = _histogram_delta(
        before, after, "serve.request.latency_s",
        {"model": "default", "route": "/predict"},
    )
    batches = _histogram_delta(
        before, after, "serve.batch.rows", {"model": "default"}
    )
    by_class = {
        label: [s.end - s.start for s in samples if s.label == label]
        for label in ROW_CLASSES
    }
    # Means, not medians: the histogram's sum is exact, while its
    # quantiles interpolate inside buckets a factor of 1.78 wide.
    client_mean = statistics.fmean(s.end - s.start for s in samples) * 1e3
    server_mean = latency.sum / latency.count * 1e3

    def rows_per_s(batch, seconds):
        return sum(ROW_CLASSES[s.label] for s in batch) / seconds

    run.set_layers(1, {
        "serve.server_mean_ms": server_mean,
        "serve.server_p99_ms": latency.quantile(0.99) * 1e3,
        "serve.transport_mean_ms": client_mean - server_mean,
        "serve.batch_rows_mean": batches.sum / batches.count,
        "serve.batches": float(batches.count),
        "serve.row1_requests": float(len(by_class["row1"])),
        "serve.row64_requests": float(len(by_class["row64"])),
        "serve.row1_p99_ms": _quantile_ms(by_class["row1"], 0.99),
        "serve.row64_p50_ms": statistics.median(by_class["row64"]) * 1e3,
        "serve.row64_p95_ms": _quantile_ms(by_class["row64"], 0.95),
        "serialization.load_model_ms": server.load_model_ms,
        "bench.round_s": wall,
        "bench.trace_overhead_frac": (
            rows_per_s(plain_samples, plain_seconds)
            / rows_per_s(samples, seconds) - 1.0
        ),
    })


# --------------------------------------------------------------- prep

def prep(args: argparse.Namespace) -> None:
    """Build the shared inputs, untimed: the round-0 campaign cache and,
    with ``--model``, a model trained on it plus its feature rows.  Two
    worker processes build them; results are identical to a serial run."""
    import numpy as np

    from repro import (
        CampaignCache, NapelTrainer, SimulationCampaign, get_workload,
        save_model,
    )

    work = Path(args.work)
    scale = SMOKE_SCALE if args.smoke else SCALE
    configs = app_configs(args.seed)
    cache = CampaignCache(work / "prep.json")
    if not (work / "prep.json").exists():
        campaign = SimulationCampaign(cache=cache, scale=scale, jobs=2)
        for app in APPS:
            campaign.run(get_workload(app), configs[app])
        cache.save()
    if args.model and not (work / "model.pkl").exists():
        training = training_set(cache, configs, scale)
        options = {"n_estimators": SMOKE_TREES} if args.smoke else {}
        trained = NapelTrainer(jobs=2, **options).train(training)
        save_model(trained.model, work / "model.pkl")
        np.save(work / "rows.npy", training.X())


BODIES = {
    "campaign_cold": campaign_cold,
    "dse_dram": dse,
    "dse_geometry": dse,
    "train_loocv": train_loocv,
    "serve_mixed": serve_mixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("prep",) + WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--model", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--out")
    parser.add_argument("--launched", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "prep":
        prep(args)
        return 0
    # One CPU for the workload and everything it starts, so the host
    # clock samples the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = HostClock()
    clock.start()
    try:
        run = Run(args, clock)
        BODIES[args.workload](run)
    finally:
        clock.stop()
    report = run.report()
    Path(args.out).write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Argument parsing and dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Sequence

from .. import __version__
from ..backends import backend_names
from ..errors import ReproError
from ..obs import RunManifest, configure_logging, get_logger
from ..obs.trace import (
    TRACE_ENV_VAR,
    TRACE_EPOCH_ENV_VAR,
    TRACE_HW_ENV_VAR,
    activate_tracing,
    reset_tracing,
    tracer,
)
from . import commands

log = get_logger("repro")

#: Environment variable forcing full tracebacks on unexpected errors.
DEBUG_ENV_VAR = "REPRO_DEBUG"

#: Exit code for SIGINT, per POSIX convention (128 + SIGINT).
EXIT_INTERRUPTED = 130

#: Exit code for a closed stdout, per the same convention (128 + SIGPIPE).
EXIT_BROKEN_PIPE = 141


def _add_global_flags(p: argparse.ArgumentParser, *, root: bool) -> None:
    """Logging/observability flags, accepted both before and after the
    subcommand.

    The subparser copies default to ``argparse.SUPPRESS`` so a flag given
    only at the root position is not clobbered by the subparser's
    defaults when the namespaces merge.
    """
    suppress = {} if root else {"default": argparse.SUPPRESS}
    p.add_argument(
        "--verbose", "-v", action="count",
        help="log progress to stderr (-v info, -vv debug)",
        **({"default": 0} if root else {"default": argparse.SUPPRESS}),
    )
    p.add_argument(
        "--quiet", "-q", action="store_true",
        help="errors only on stderr", **suppress,
    )
    p.add_argument(
        "--log-json", metavar="FILE",
        help="append JSON-lines structured logs (full detail) to FILE",
        **({"default": None} if root else {"default": argparse.SUPPRESS}),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "NAPEL reproduction: near-memory-computing performance and "
            "energy prediction via ensemble learning (DAC 2019)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    _add_global_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared workload/config arguments -----------------------------------
    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload", help="workload name (see `workloads`)")
        p.add_argument(
            "--param", "-p", action="append", default=[],
            metavar="NAME=VALUE",
            help="input parameter (repeatable); defaults to central levels",
        )
        p.add_argument(
            "--test-input", action="store_true",
            help="use the paper's Table 2 test input",
        )
        p.add_argument(
            "--scale", type=float, default=1.0,
            help="extra trace shrink factor (default 1.0)",
        )

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", choices=backend_names(), default="hmc",
            help="memory backend descriptor (default: hmc, the paper's "
                 "Table 3 device; see `repro backends`)",
        )

    def add_arch_args(p: argparse.ArgumentParser) -> None:
        add_backend_arg(p)
        p.add_argument("--pes", type=int, help="number of NMC PEs")
        p.add_argument("--freq", type=float, help="PE frequency (GHz)")
        p.add_argument("--l1-lines", type=int, help="L1 lines per PE")
        p.add_argument(
            "--l1-ways", type=int,
            help="L1 associativity (any value dividing --l1-lines; "
                 "default 2)",
        )
        p.add_argument("--vaults", type=int, help="DRAM vaults")

    def add_jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", "-j", type=int, default=None, metavar="N",
            help="worker processes (default: $REPRO_JOBS or serial; "
                 "0 = all CPUs; results are identical at any job count)",
        )

    def add_manifest_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--manifest", metavar="PATH",
            help="write a JSON run manifest (args, config/schema hashes, "
                 "per-phase wall times, this run's counters, exit code) "
                 "to PATH",
        )

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="PATH",
            help="write a Chrome-trace/Perfetto event timeline (JSON) of "
                 f"this run to PATH (${TRACE_ENV_VAR} also activates it); "
                 "written even on failure, one lane per worker",
        )
        p.add_argument(
            "--trace-hw", action="store_true",
            help="also record the simulated NMC hardware timeline "
                 "(per-PE busy/stall, vault occupancy, cache counters) on "
                 "the simulated clock, by running the per-access reference "
                 "engine (identical results, slower); needs --trace (or "
                 f"${TRACE_ENV_VAR}) to have somewhere to go",
        )

    def new_command(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, root=False)
        return p

    p = new_command("workloads", help="list workloads and parameters")
    p.set_defaults(func=commands.cmd_workloads)

    p = new_command(
        "backends", help="list registered memory backend descriptors"
    )
    p.add_argument(
        "name", nargs="?", default=None,
        help="show one backend's full descriptor (timing, energy, link)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="dump the descriptor(s) as JSON",
    )
    p.set_defaults(func=commands.cmd_backends)

    p = new_command("profile", help="phase 1: profile a configuration")
    add_workload_args(p)
    p.add_argument(
        "--top", type=int, default=20,
        help="show the N most informative features (default 20)",
    )
    p.set_defaults(func=commands.cmd_profile)

    p = new_command("simulate", help="phase 2: simulate on the NMC system")
    add_workload_args(p)
    add_arch_args(p)
    add_trace_args(p)
    p.set_defaults(func=commands.cmd_simulate)

    p = new_command("campaign", help="run a workload's CCD campaign")
    add_workload_args(p)
    add_arch_args(p)
    p.add_argument("--cache", help="campaign cache file (JSON)")
    add_jobs_arg(p)
    add_manifest_arg(p)
    add_trace_args(p)
    p.set_defaults(func=commands.cmd_campaign)

    p = new_command("train", help="train a NAPEL model and save it")
    p.add_argument(
        "apps", nargs="+", help="workloads whose CCD campaigns form the "
        "training set",
    )
    p.add_argument("--output", "-o", required=True, help="model file path")
    p.add_argument(
        "--backend", choices=backend_names(), action="append",
        default=None, metavar="NAME",
        help="memory backend(s) for the training campaigns (repeatable; "
             "default: hmc; several backends produce one multi-backend "
             "model — the arch.backend.* one-hot keeps them apart)",
    )
    p.add_argument("--cache", help="campaign cache file (JSON)")
    p.add_argument(
        "--model", choices=("rf", "ann", "tree"), default="rf",
        help="learner (default: rf, the paper's choice)",
    )
    p.add_argument("--trees", type=int, default=60, help="forest size")
    p.add_argument(
        "--no-tune", action="store_true", help="skip hyper-parameter tuning"
    )
    p.add_argument(
        "--scale", type=float, default=1.0, help="trace shrink factor"
    )
    add_jobs_arg(p)
    add_manifest_arg(p)
    add_trace_args(p)
    p.set_defaults(func=commands.cmd_train)

    p = new_command("predict", help="predict with a saved model")
    add_workload_args(p)
    add_arch_args(p)
    p.add_argument("--model-file", "-m", required=True, help="model file")
    add_manifest_arg(p)
    add_trace_args(p)
    p.set_defaults(func=commands.cmd_predict)

    p = new_command(
        "serve",
        help="serve predictions over HTTP (long-lived, batched)",
    )
    p.add_argument(
        "--model", action="append", required=True, metavar="NAME=PATH",
        help="load a v2 model artifact under NAME (repeatable; a bare "
             "PATH is registered as 'default')",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8177,
        help="TCP port (default 8177; 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--max-batch-rows", type=int, default=4096,
        help="flush a microbatch at once when it holds this many rows "
             "(requests that arrive while the model is busy share its "
             "next call; default 4096)",
    )
    p.add_argument(
        "--reload", action="store_true",
        help="reload the model artifacts from disk on SIGHUP (warm "
             "standby: the new models load and verify in the background "
             "while in-flight requests finish on the old ones)",
    )
    p.add_argument(
        "--slow-request-ms", type=float, default=0.0,
        help="requests slower than this many ms attach an exemplar to "
             "their latency-histogram bucket and log a structured "
             "warning (0 disables; default 0)",
    )
    p.add_argument(
        "--no-instrument", action="store_true",
        help="disable per-request observability (labeled metrics, "
             "latency histograms, access log, /debug/requests ring, "
             "request trace spans); aggregate serve.* counters stay on",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record request/batch spans into a Chrome-trace file "
             "(rotates to PATH-derived numbered files while serving; "
             "the remainder is written to PATH at shutdown)",
    )
    p.add_argument(
        "--trace-rotate-events", type=int, default=500_000,
        help="with --trace: flush the buffer to the next numbered "
             "rotation file once it holds this many events "
             "(default 500000; 0 never rotates)",
    )
    add_manifest_arg(p)
    p.set_defaults(func=commands.cmd_serve)

    p = new_command(
        "schema",
        help="print or diff the active model-input feature schema",
    )
    p.add_argument(
        "--names", action="store_true",
        help="list every feature name with its column index",
    )
    p.add_argument(
        "--json", action="store_true",
        help="dump the schema as JSON (the model-artifact header format)",
    )
    p.add_argument(
        "--diff", metavar="MODEL_FILE",
        help="diff a saved model's training schema against the runtime one",
    )
    p.set_defaults(func=commands.cmd_schema)

    p = new_command(
        "suitability", help="EDP-based NMC-suitability analysis (Sec. 3.4)"
    )
    p.add_argument("apps", nargs="+", help="workloads to analyze")
    p.add_argument(
        "--backend", choices=backend_names(), action="append",
        default=None, metavar="NAME",
        help="memory backend(s) to analyze (repeatable; default: hmc; "
             "with several, backends are ranked per kernel by EDP "
             "reduction)",
    )
    p.add_argument("--cache", help="campaign cache file (JSON)")
    p.add_argument(
        "--scale", type=float, default=1.0, help="trace shrink factor"
    )
    add_jobs_arg(p)
    add_manifest_arg(p)
    add_trace_args(p)
    p.set_defaults(func=commands.cmd_suitability)

    p = new_command(
        "trace", help="inspect Chrome-trace files written with --trace"
    )
    p.add_argument("files", nargs="+", help="trace JSON file(s)")
    p.add_argument(
        "--top", type=int, default=15,
        help="rows in the self-time summary (default 15)",
    )
    p.add_argument(
        "--validate", action="store_true",
        help="only check the files against the trace-event schema "
             "(malformed file -> exit 2)",
    )
    p.add_argument(
        "--merge", metavar="OUT",
        help="merge the input files into OUT (one pid block per file) "
             "instead of summarizing",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="also summarize serve request/batch spans: per "
             "model x route x status latency totals, requests per "
             "microbatch, and batch-link consistency",
    )
    p.set_defaults(func=commands.cmd_trace)

    return parser


def _debug_enabled(verbosity: int) -> bool:
    return verbosity > 0 or bool(os.environ.get(DEBUG_ENV_VAR, "").strip())


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Error contract (fail loud, no raw tracebacks by default):

    * expected framework errors (:class:`ReproError`) -> one line, exit 2;
    * SIGINT mid-run -> one line, exit 130;
    * a closed stdout (``repro ... | head``) -> silence, exit 141;
    * anything else -> one-line exception summary, exit 1 (full traceback
      with ``--verbose`` or ``REPRO_DEBUG=1``).

    When the subcommand accepts ``--manifest PATH``, the manifest is
    written even on failure, with the exit code recorded.  The same holds
    for ``--trace PATH``: a run that dies mid-campaign still leaves the
    events it recorded on disk (with the exit path visible as truncated
    spans).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = -1 if getattr(args, "quiet", False) else args.verbose
    configure_logging(verbosity, json_path=args.log_json)
    manifest = RunManifest(
        args.command or "",
        list(argv) if argv is not None else sys.argv[1:],
    )
    args._run_manifest = manifest
    # Event tracing: --trace PATH or $REPRO_TRACE activates; the `trace`
    # subcommand never self-activates (it *inspects* trace files, and
    # tracing its own run could clobber the file being inspected).
    trace_path: str | None = None
    prior_trace_env: dict[str, str | None] = {}
    if args.command != "trace":
        trace_path = getattr(args, "trace", None) or (
            os.environ.get(TRACE_ENV_VAR, "").strip() or None
        )
    if trace_path:
        trace_hw = bool(getattr(args, "trace_hw", False)) or bool(
            os.environ.get(TRACE_HW_ENV_VAR, "").strip()
        )
        prior_trace_env = {
            var: os.environ.get(var)
            for var in (TRACE_ENV_VAR, TRACE_HW_ENV_VAR, TRACE_EPOCH_ENV_VAR)
        }
        activate_tracing(trace_path, hw=trace_hw)
    code = 0
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early.  Point fd 1 at the null device so
        # the interpreter's exit flush of the dead pipe stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    except ReproError as exc:
        if _debug_enabled(verbosity):
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except Exception as exc:  # noqa: BLE001 - the CLI's last line of defence
        if _debug_enabled(verbosity):
            traceback.print_exc()
        log.error(
            "unexpected error",
            extra={"ctx": {
                "exception": type(exc).__name__, "message": str(exc),
            }},
        )
        print(
            f"unexpected error: {type(exc).__name__}: {exc} "
            f"(re-run with --verbose or {DEBUG_ENV_VAR}=1 for the "
            "full traceback)",
            file=sys.stderr,
        )
        code = 1
    finally:
        if trace_path:
            tr = tracer()
            try:
                tr.write(trace_path)
                manifest.record_trace(
                    trace_path,
                    events=tr.event_count,
                    dropped=tr.dropped,
                    hw_dropped=tr.hw_dropped,
                )
            except OSError as exc:
                print(
                    f"error: could not write trace {trace_path}: {exc}",
                    file=sys.stderr,
                )
                code = code or 1
            reset_tracing()
            for var, value in prior_trace_env.items():
                if value is not None:
                    os.environ[var] = value
        manifest_path = getattr(args, "manifest", None)
        if manifest_path:
            try:
                manifest.finish(code)
                manifest.write(manifest_path)
            except OSError as exc:
                print(
                    f"error: could not write manifest {manifest_path}: "
                    f"{exc}",
                    file=sys.stderr,
                )
                code = code or 1
    return code

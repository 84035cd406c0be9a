"""The command-line face of the façade API: ``python -m repro`` / ``repro``.

Subcommands mirror the library one-to-one so everything the API can do is
reachable from a shell::

    repro experiments                      # list the registered experiments
    repro run fig4 --scale ci --json       # regenerate a paper artefact
    repro optimize --model resnet34        # one unified-search run
    repro resume run.ckpt.json             # continue a killed search
    repro tune --shape 64x64x16x16x3x3 --program seq1 --platform mgpu
    repro platforms                        # the four deployment targets
    repro cache info | clear               # manage the sharded tuning cache
    repro cache export out.jsonl           # ship a warm cache to another host
    repro serve --state-dir svc            # run the optimization daemon
    repro submit --model resnet18          # queue a job on the daemon
    repro watch job-000001                 # stream a job's progress (NDJSON)
    repro status job-000001 | result | cancel | jobs

Every subcommand honours ``--json`` (machine-readable documents built from
the typed result objects), and the search/tune commands honour
``--platform --scale --seed --trials --cache-dir`` uniformly.

Exit codes are stable: 0 success, 1 generic library error, 2 usage, 130
interrupted, and a distinct code per error family (see ``EXIT_CODES``) so
scripts can branch on *what* failed without parsing stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.errors import (CacheStoreError, CheckpointError, DataError,
                          EngineError, LoweringError, ModelError,
                          PlatformError, ReproError, ScheduleError,
                          SearchError, ServiceError, TransformError)

#: Exit code per error family; :func:`exit_code_for` walks an exception's
#: MRO so subclasses (e.g. LegalityError) inherit their family's code and
#: plain :class:`ReproError` stays the historical ``1``.
EXIT_CODES: dict[type, int] = {
    ReproError: 1,
    ModelError: 3,
    DataError: 4,
    PlatformError: 5,
    TransformError: 6,
    ScheduleError: 7,
    LoweringError: 8,
    SearchError: 9,
    EngineError: 10,
    CacheStoreError: 11,
    CheckpointError: 12,
    ServiceError: 13,
}

#: Exit code for a run stopped by SIGINT/SIGTERM (the shell convention).
EXIT_INTERRUPTED = 130


def exit_code_for(error: ReproError) -> int:
    """The stable exit code for one library error (most specific wins).

    Example::

        code = exit_code_for(CheckpointError("torn"))   # 12
    """
    for klass in type(error).__mro__:
        code = EXIT_CODES.get(klass)
        if code is not None:
            return code
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NAS as program transformation exploration — unified "
                    "optimisation of neural networks for deployment targets.")
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")

    run = commands.add_parser(
        "run", help="run a registered experiment (a paper figure/table)")
    run.add_argument("experiment", help="experiment name (see 'repro experiments')")
    run.add_argument("--scale", default="ci",
                     help="scale preset: ci (minutes) or full (paper settings)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--platform", default=None,
                     help="target platform, for experiments that take one "
                          "(or to restrict a multi-platform experiment)")
    run.add_argument("--platforms", default=None,
                     help="comma-separated platform list, for experiments "
                          "that sweep platforms")
    run.add_argument("--network", default=None,
                     help="network to study, for experiments that take one")
    run.add_argument("--networks", default=None,
                     help="comma-separated network list, for experiments "
                          "that sweep networks")
    run.add_argument("--models", default=None,
                     help="comma-separated model list, for experiments "
                          "that sweep models")
    run.add_argument("--strategy", default=None,
                     help="search strategy, for experiments that take one")
    run.add_argument("--strategies", default=None,
                     help="comma-separated strategy list, for experiments "
                          "that compare strategies (e.g. analysis_predictor)")
    run.add_argument("--transfer-from", dest="transfer_from", default=None,
                     help="warm-start the surrogate from this platform's "
                          "trained predictor (analysis_predictor)")
    run.add_argument("--max-layers", type=int, default=None,
                     help="layer cap, for experiments that take one")
    run.add_argument("--json", action="store_true",
                     help="emit the run as a JSON document instead of the report")

    optimize = commands.add_parser(
        "optimize", help="optimise one network for one platform")
    optimize.add_argument("--model", default="resnet34",
                          help="model-zoo network (see repro.MODEL_BUILDERS)")
    optimize.add_argument("--platform", default="cpu")
    optimize.add_argument("--strategy", default="greedy")
    optimize.add_argument("--budget", type=int, default=60,
                          help="configurations the search may evaluate")
    optimize.add_argument("--trials", type=int, default=4,
                          help="auto-tuner trials per loop nest")
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--width", type=float, default=0.25,
                          help="width multiplier for the zoo network")
    optimize.add_argument("--image-size", type=int, default=16)
    optimize.add_argument("--cache-dir", default=None,
                          help="persist engine caches under this directory "
                               "(default: $REPRO_CACHE_DIR when set)")
    optimize.add_argument("--progress", action="store_true",
                          help="stream search progress events to stderr")
    optimize.add_argument("--checkpoint", default=None,
                          help="persist the search's resume point to this "
                               "file after every tuning batch; a killed run "
                               "continues with 'repro resume'")
    optimize.add_argument("--checkpoint-interval", type=float, default=0.0,
                          help="minimum seconds between checkpoint writes")
    optimize.add_argument("--json", action="store_true")

    resume = commands.add_parser(
        "resume", help="continue a killed search from its checkpoint file")
    resume.add_argument("checkpoint",
                        help="a checkpoint written by 'repro optimize "
                             "--checkpoint' (or optimize(checkpoint=...))")
    resume.add_argument("--cache-dir", default=None,
                        help="persist engine caches under this directory "
                             "(default: $REPRO_CACHE_DIR when set)")
    resume.add_argument("--progress", action="store_true",
                        help="stream search progress events to stderr")
    resume.add_argument("--json", action="store_true")

    tune = commands.add_parser(
        "tune", help="auto-tune one convolution under one program")
    tune.add_argument("--shape", default="64x64x16x16x3x3",
                      help="convolution extents c_out x c_in x h x w x kh x kw")
    tune.add_argument("--program", default="standard",
                      help="named sequence kind (see 'repro.list_sequences()')")
    tune.add_argument("--platform", default="cpu")
    tune.add_argument("--trials", type=int, default=8)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--cache-dir", default=None)
    tune.add_argument("--json", action="store_true")

    platforms = commands.add_parser(
        "platforms", help="list the modelled deployment targets")
    platforms.add_argument("--json", action="store_true")

    experiments = commands.add_parser(
        "experiments", help="list the registered experiments")
    experiments.add_argument("--json", action="store_true")

    cache = commands.add_parser("cache",
                                help="manage the persisted tuning-cache store")
    cache_commands = cache.add_subparsers(dest="cache_command", metavar="action")
    info = cache_commands.add_parser("info", help="show the sharded store")
    info.add_argument("--cache-dir", default=None)
    info.add_argument("--json", action="store_true")
    clear = cache_commands.add_parser(
        "clear", help="delete recognised cache-store files, and nothing else")
    clear.add_argument("--cache-dir", default=None)
    export = cache_commands.add_parser(
        "export", help="write every cached entry to a portable JSON-lines file")
    export.add_argument("path", help="destination file (e.g. warm-cache.jsonl)")
    export.add_argument("--cache-dir", default=None)
    import_ = cache_commands.add_parser(
        "import", help="absorb an exported JSON-lines file into the store")
    import_.add_argument("path", help="an envelope written by 'repro cache export'")
    import_.add_argument("--cache-dir", default=None)

    def state_dir_flag(sub) -> None:
        sub.add_argument("--state-dir", default=None,
                         help="the daemon's state directory (default: "
                              "$REPRO_SERVICE_DIR, else ~/.cache/repro-service)")

    serve = commands.add_parser(
        "serve", help="run the optimization daemon (job queue + workers)")
    state_dir_flag(serve)
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent jobs the daemon runs")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: an ephemeral port, "
                            "advertised in <state-dir>/service.json)")
    serve.add_argument("--checkpoint-interval", type=float, default=0.0,
                       help="minimum seconds between a job's checkpoint writes")

    submit = commands.add_parser(
        "submit", help="queue one optimisation on the daemon")
    state_dir_flag(submit)
    submit.add_argument("--model", default="resnet34")
    submit.add_argument("--platform", default="cpu")
    submit.add_argument("--strategy", default="greedy")
    submit.add_argument("--budget", type=int, default=60,
                        help="configurations the search may evaluate")
    submit.add_argument("--trials", type=int, default=4)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--width", type=float, default=0.25)
    submit.add_argument("--image-size", type=int, default=16)
    submit.add_argument("--liar", default="cl_mean",
                        help="pending-point imputation for model_guided "
                             "batches: cl_min, cl_max, cl_mean or none")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its result")
    submit.add_argument("--json", action="store_true")

    status = commands.add_parser(
        "status", help="show one submitted job's state")
    status.add_argument("job_id")
    state_dir_flag(status)
    status.add_argument("--json", action="store_true")

    result = commands.add_parser(
        "result", help="print a finished job's optimisation result")
    result.add_argument("job_id")
    state_dir_flag(result)
    result.add_argument("--json", action="store_true")

    cancel = commands.add_parser(
        "cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    state_dir_flag(cancel)

    watch = commands.add_parser(
        "watch", help="stream a job's progress events as NDJSON")
    watch.add_argument("job_id")
    state_dir_flag(watch)

    jobs = commands.add_parser(
        "jobs", help="list every job the daemon knows")
    state_dir_flag(jobs)
    jobs.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------
def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _run_options(spec, args) -> dict:
    """Map the ``run`` flags onto the options the spec declared."""
    if args.platform and args.platforms:
        raise ReproError("pass either --platform or --platforms, not both")
    provided = {
        "platform": args.platform,
        "platforms": _csv(args.platforms) if args.platforms else None,
        "network": args.network,
        "networks": _csv(args.networks) if args.networks else None,
        "models": _csv(args.models) if args.models else None,
        "strategy": args.strategy,
        "strategies": _csv(args.strategies) if args.strategies else None,
        "max_layers": args.max_layers,
        "transfer_from": args.transfer_from,
    }
    options = {}
    for name, value in provided.items():
        if value is None:
            continue
        if spec.supports(name):
            options[name] = value
        elif name == "platform" and spec.supports("platforms"):
            # --platform restricts a multi-platform sweep to one target.
            options["platforms"] = (value,)
        else:
            allowed = ", ".join(f"--{opt.replace('_', '-')}"
                                for opt in spec.options) or "(none)"
            raise ReproError(
                f"experiment '{spec.name}' does not take "
                f"--{name.replace('_', '-')}; it accepts: {allowed}")
    return options


def _cmd_run(args) -> int:
    from repro.experiments.registry import get_experiment, run_experiment

    spec = get_experiment(args.experiment)
    run = run_experiment(spec.name, scale=args.scale, seed=args.seed,
                         **_run_options(spec, args))
    if args.json:
        print(json.dumps(run.document(), indent=2))
    else:
        print(run.report())
    return 0


def _print_progress(event) -> None:
    def render(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, (list, tuple)):
            # tune_result events carry one serialised record per tuned
            # candidate; the progress stream only needs the count.
            return f"<{len(value)} entries>"
        return str(value)

    data = ", ".join(f"{key}={render(value)}"
                     for key, value in event.data.items())
    print(f"[{event.kind}] {data}", file=sys.stderr)


def _interruptible_checkpointing(checkpoint):
    """Translate SIGTERM/SIGINT into KeyboardInterrupt while checkpointing.

    With ``--checkpoint``, a terminated run must flush a final resume
    point before dying — the façade's abort path does that for any
    in-flight exception, so the handler only has to turn the signal into
    one.  Returns the ``(signal, previous_handler)`` pairs to restore.
    """
    if checkpoint is None:
        return []

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((signum, signal.signal(signum, _raise_interrupt)))
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    return previous


def _cmd_optimize(args) -> int:
    import repro
    from repro.api import env_cache_dir

    restore = _interruptible_checkpointing(args.checkpoint)
    try:
        result = repro.optimize(
            args.model, platform=args.platform, strategy=args.strategy,
            budget=args.budget, trials=args.trials, seed=args.seed,
            width=args.width, image_size=args.image_size,
            cache_dir=args.cache_dir or env_cache_dir(),
            observer=_print_progress if args.progress else None,
            checkpoint=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval)
    except KeyboardInterrupt:
        print(f"interrupted; resume with: repro resume {args.checkpoint}",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        for signum, handler in restore:
            signal.signal(signum, handler)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
    return 0


def _cmd_resume(args) -> int:
    from repro.api import env_cache_dir, resume_checkpoint

    result = resume_checkpoint(
        args.checkpoint, cache_dir=args.cache_dir or env_cache_dir(),
        observer=_print_progress if args.progress else None)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
    return 0


def _parse_shape(text: str):
    from repro.api import resolve_shape

    parts = text.replace(",", "x").lower().split("x")
    try:
        values = [int(part) for part in parts if part]
    except ValueError:
        raise ReproError(f"cannot parse shape '{text}'; expected integers "
                         f"like 64x64x16x16x3x3") from None
    return resolve_shape(values)


def _cmd_tune(args) -> int:
    import repro
    from repro.api import env_cache_dir

    result = repro.tune(_parse_shape(args.shape), args.program,
                        platform=args.platform, trials=args.trials,
                        seed=args.seed, cache_dir=args.cache_dir or env_cache_dir())
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"{result.program.describe()}")
        print(f"on {result.platform}: {result.latency_ms:.4f} ms "
              f"({result.tuner_trials} trials, seed {result.seed})")
    return 0


def _cmd_platforms(args) -> int:
    from repro.api import list_platforms

    specs = list_platforms()
    if args.json:
        import dataclasses

        print(json.dumps({name: dataclasses.asdict(spec)
                          for name, spec in specs.items()}, indent=2))
        return 0
    print(f"{'name':6s} {'kind':5s} {'GFLOP/s':>9s} {'GB/s':>7s} "
          f"{'cores':>5s} {'vector':>6s}")
    for name, spec in specs.items():
        print(f"{name:6s} {spec.kind:5s} {spec.peak_gflops:9.0f} "
              f"{spec.dram_bandwidth_gbs:7.1f} {spec.cores:5d} "
              f"{spec.vector_width:6d}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.registry import (EXPERIMENT_REGISTRY, describe,
                                            load_all)

    load_all()
    if args.json:
        print(json.dumps([
            {"name": spec.name, "title": spec.title,
             "description": spec.description, "scales": list(spec.scales),
             "options": list(spec.options)}
            for spec in EXPERIMENT_REGISTRY.values()], indent=2))
        return 0
    print(f"{len(EXPERIMENT_REGISTRY)} registered experiments "
          f"(run with: repro run <name>):")
    for spec in EXPERIMENT_REGISTRY.values():
        print(f"  {describe(spec)}")
    return 0


def _cache_directory(cache_dir: str | None) -> Path:
    from repro.api import default_cache_dir

    return Path(cache_dir).expanduser() if cache_dir else default_cache_dir()


def _cmd_cache(args) -> int:
    directory = _cache_directory(args.cache_dir)
    try:
        return _cache_verb(args, directory)
    except OSError as error:
        # A --cache-dir that is a file, or an import file that is missing,
        # is the operator's to fix: name the path instead of a traceback.
        path = error.filename or directory
        raise CacheStoreError(f"cache {args.cache_command}: {path}: "
                              f"{error.strerror or error}") from error


def _cache_verb(args, directory: Path) -> int:
    from repro.core.cache_store import CacheStore, is_store_file

    if args.cache_command == "clear":
        # Delete only files this tool recognises as its own — shard
        # segments (checked by magic) and their lock/scratch files — and
        # report everything it left alone.
        candidates = sorted(directory.iterdir()) if directory.exists() else []
        removed, skipped = [], []
        for path in candidates:
            if not path.is_dir() and is_store_file(path):
                removed.append(path)
            else:
                skipped.append(path)
        for path in removed:
            path.unlink()
        print(f"removed {len(removed)} cache store file(s)")
        for path in skipped:
            print(f"skipped {path.name}: not a recognised cache store file")
        return 0
    if args.cache_command == "info":
        from repro.core.compile_cache import COMPILE_CACHE

        store = CacheStore(directory)
        rows = [shard.to_dict() for shard in store.info()]
        compile_info = COMPILE_CACHE.info()
        if getattr(args, "json", False):
            print(json.dumps({"stores": rows, "compile_cache": compile_info},
                             indent=2))
            return 0
        if not rows:
            print("no engine cache stores found")
        for row in rows:
            if row["error"]:
                detail = f"unreadable: {row['error']}"
            else:
                detail = (f"{row['entries']} entries "
                          f"({row['dead_records']} dead records)")
            print(f"{row['path']}  {row['bytes']} bytes  {detail}  "
                  f"(store v{row['format_version']})")
        print(f"compile cache (this process): "
              f"{compile_info['entries']}/{compile_info['max_entries']} entries  "
              f"{compile_info['compile_hits']} hits  "
              f"{compile_info['compile_misses']} misses  "
              f"{compile_info['prefix_depth_saved']} steps saved by prefixes")
        return 0
    if args.cache_command == "export":
        store = CacheStore(directory)
        target = store.export(args.path)
        print(f"exported {len(store)} entries to {target}")
        return 0
    if args.cache_command == "import":
        store = CacheStore(directory)
        new = store.import_(args.path)
        print(f"imported {new} new entries from {args.path}")
        return 0
    print("usage: repro cache {info,clear,export,import} [--cache-dir DIR]",
          file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# The optimization service verbs
# ---------------------------------------------------------------------------
def _service_state_dir(state_dir: str | None) -> Path:
    import os

    return Path(state_dir or os.environ.get("REPRO_SERVICE_DIR")
                or "~/.cache/repro-service").expanduser()


def _service_client(args):
    from repro.service import Client

    return Client(state_dir=_service_state_dir(args.state_dir))


def _cmd_serve(args) -> int:
    from repro.service import OptimizationService

    state_dir = _service_state_dir(args.state_dir)
    service = OptimizationService(
        state_dir, workers=args.workers, host=args.host, port=args.port,
        checkpoint_interval=args.checkpoint_interval)
    host, port = service.start()
    print(f"repro service on {host}:{port} "
          f"({args.workers} workers, state {state_dir})", file=sys.stderr)

    def _stop(signum, frame):
        service.request_stop()

    previous = [(signum, signal.signal(signum, _stop))
                for signum in (signal.SIGTERM, signal.SIGINT)]
    try:
        service.serve_until_stopped()
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)
        service.stop()
    print("repro service stopped; queued jobs resume on restart",
          file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    from repro.api import OptimizationRequest

    request = OptimizationRequest(
        model=args.model, platform=args.platform, strategy=args.strategy,
        configurations=args.budget, tuner_trials=args.trials, seed=args.seed,
        width_multiplier=args.width, image_size=args.image_size,
        liar=args.liar)
    client = _service_client(args)
    job_id = client.submit(request)
    if not args.wait:
        if args.json:
            print(json.dumps({"job_id": job_id, "state": "queued"}))
        else:
            print(job_id)
        return 0
    result = client.wait(job_id)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
    return 0


def _cmd_status(args) -> int:
    record = _service_client(args).status(args.job_id)
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    line = f"{record['job_id']}  {record['state']}  attempts={record['attempts']}"
    if record.get("error"):
        line += f"  error: {record['error']}"
    print(line)
    return 0


def _cmd_result(args) -> int:
    result = _service_client(args).result(args.job_id)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
    return 0


def _cmd_cancel(args) -> int:
    response = _service_client(args).cancel(args.job_id)
    print(f"{response['job_id']}  {response['state']}"
          + (f"  ({response['note']})" if response.get("note") else ""))
    return 0


def _cmd_watch(args) -> int:
    for event in _service_client(args).watch(args.job_id):
        print(json.dumps(event, sort_keys=True), flush=True)
    return 0


def _cmd_jobs(args) -> int:
    rows = _service_client(args).jobs()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no jobs submitted")
        return 0
    for row in rows:
        print(f"{row['job_id']}  {row['state']:9s}  "
              f"{row.get('model')}/{row.get('platform')}  "
              f"attempts={row['attempts']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (the ``repro`` console script and ``python -m repro``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "optimize": _cmd_optimize,
        "resume": _cmd_resume,
        "tune": _cmd_tune,
        "platforms": _cmd_platforms,
        "experiments": _cmd_experiments,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "cancel": _cmd_cancel,
        "watch": _cmd_watch,
        "jobs": _cmd_jobs,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except BrokenPipeError:
        # The reader (e.g. `| head`) closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())

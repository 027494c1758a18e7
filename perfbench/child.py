"""Child-process side of the benchmark.  Each call is a fresh interpreter.

    child.py setup   <workload-kind> <config.json> <result.json>
    child.py session <config.json> <out-dir> <trace 0|1> <result.json>
    child.py cli     <result.json> <apmopt CLI arguments...>

Timestamps are time.perf_counter() values, which on Linux read the
system-wide monotonic clock, so the parent can subtract its spawn time.
The result goes to a JSON file; stdout and stderr stay the program's.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _dump(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


def setup(kind: str, config_path: str, result_path: str) -> None:
    """Import and parse or build, as a user's first call would."""
    if kind == "cli":
        import apmopt.cli
        t_import = time.perf_counter()
        apmopt.cli.parse_config(config_path)
    else:
        import apmopt  # noqa: F401
        import workloads
        t_import = time.perf_counter()
        with open(config_path) as fh:
            workloads.session_setup(json.load(fh))
    _dump(result_path, {"t0": T0, "t_import": t_import, "t_ready": time.perf_counter()})


def session(config_path: str, out_dir: str, trace: bool, result_path: str) -> None:
    import apmopt  # noqa: F401
    import workloads
    t_import = time.perf_counter()
    with open(config_path) as fh:
        config = json.load(fh)
    model, u = workloads.session_setup(config)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_ready = time.perf_counter()
    out = workloads.run_session(model, u, config, out_dir)
    t_end = time.perf_counter()
    checks = workloads.session_checks(out)
    _dump(result_path, {
        "t0": T0, "t_import": t_import, "t_ready": t_ready, "t_end": t_end,
        "op_s": t_end - t_ready, "checks": checks,
        "trace": tracer.summary() if tracer else None,
    })


def cli(result_path: str, argv: list) -> int:
    """`apmopt` console script with the tracer bound after import."""
    import apmopt.cli
    import tracer as tracing
    t_import = time.perf_counter()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    rc = apmopt.cli.main(argv)
    t_end = time.perf_counter()
    _dump(result_path, {"t0": T0, "t_import": t_import, "t_end": t_end,
                        "trace": tracer.summary()})
    return rc


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*args)
    elif mode == "session":
        session(args[0], args[1], args[2] == "1", args[3])
    elif mode == "cli":
        sys.exit(cli(args[0], args[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")

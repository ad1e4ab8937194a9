"""One round of ``bbma`` CLI operations in a fresh interpreter.

Usage: python3 worker.py SPAWN_TIME REQUEST_JSON

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, ``import bbma`` and
argument parsing, up to the first call of a command.  REQUEST_JSON holds
``ops`` (argv lists for ``bbma.cli.main``), ``src`` (the directory ``bbma``
must come from), ``probe`` (stop at the first command call) and ``spans``
(save a trace there; empty for an untraced round).  The last line of
standard output is a JSON object with the timings.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    spawned = float(sys.argv[1])
    req = json.loads(sys.argv[2])
    import bbma.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(req["src"]) + os.sep):
        print(f"bbma imported from {cli.__file__}, not from {req['src']}", file=sys.stderr)
        return 2
    tracer = None
    if req["spans"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    result = {"setup_s": None, "ops": []}
    for argv in req["ops"]:
        name = argv[0]
        original = cli._COMMANDS[name]
        inner = tracer.span("cli." + name, original) if tracer else original
        timing: dict = {}

        def timed(cfg, inner=inner, timing=timing):
            now = time.clock_gettime(time.CLOCK_MONOTONIC)
            if result["setup_s"] is None:
                result["setup_s"] = now - spawned
            if req["probe"]:
                return 0
            t0, c0 = time.perf_counter(), _cpu()
            try:
                return inner(cfg)
            finally:
                timing["wall_s"] = time.perf_counter() - t0
                timing["cpu_s"] = _cpu() - c0

        cli._COMMANDS[name] = timed
        try:
            code = cli.main(argv)
        except Exception as e:  # the op fails; the round goes on
            traceback.print_exc()
            code = f"{type(e).__name__}: {e}"
        finally:
            cli._COMMANDS[name] = original
        result["ops"].append({"exit": code, **timing})
        if req["probe"]:
            break
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.save(req["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

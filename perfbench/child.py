"""Run one chemostab CLI command in this process and report when set-up ended.

Usage: python child.py RESULT_JSON TRACE(0|1) <chemostab CLI arguments...>

Behaves like ``python -m chemostab <arguments>`` and exits with its code.  It
also records the monotonic time of the first call from the CLI into the
``stepper`` or ``stability`` modules: everything before it (interpreter start,
imports, config parsing and the builders) is set-up.  With TRACE=1 the
per-layer tracer is installed first.  RESULT_JSON receives
``{"setup_end": <monotonic seconds or null>, "trace": <tracer report or null>}``.
"""

import functools
import inspect
import json
import sys
import time

import chemostab.cli as cli

SETUP_END_MODULES = ("chemostab.stepper", "chemostab.stability")


def _mark_setup_end(fn, marks: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not marks:
            marks.append(time.monotonic())
        return fn(*args, **kwargs)
    return wrapper


def main() -> int:
    result_path, trace_flag, *argv = sys.argv[1:]
    tracer = None
    if trace_flag == "1":
        from tracer import Tracer  # the sibling module; this directory is on sys.path

        tracer = Tracer()
        tracer.install()
    marks: list[float] = []
    for name, value in list(vars(cli).items()):
        if inspect.isfunction(value) and value.__module__ in SETUP_END_MODULES:
            setattr(cli, name, _mark_setup_end(value, marks))
    try:
        return cli.main(argv)
    finally:
        report = {
            "setup_end": marks[0] if marks else None,
            "trace": tracer.report() if tracer is not None else None,
        }
        with open(result_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())

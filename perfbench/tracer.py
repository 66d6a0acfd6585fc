"""Per-layer spans recorded by wrapping chemostab's public functions from outside.

The package is not modified.  Each wrapped function is replaced in every
chemostab module that holds it, because modules import functions by name
(``stepper`` imports the grid kernels and ``solve_shifted``; ``cli`` and
``experiments`` import ``run``); coefficient methods are replaced on their
classes and the ``Field`` constructor on its class.  Each CLI command
function is the root span.

A span's self time is its duration minus the durations of its child spans.
Spans nest per thread.  A span that opens with an empty stack in a worker
thread (the ``ThreadPoolExecutor`` of ``stability-experiment`` and ``sweep``)
is a child of the command span.  Counters are updated without a lock: with
``--threads 1`` the main thread waits while the single worker runs, so no two
spans close at once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import threading
import time
from collections import Counter, defaultdict

# layer (module) -> functions wrapped by name
FUNCTIONS = {
    "implicit": ("solve_shifted",),
    "grid": ("laplacian_values", "chemotaxis_values", "gradient_neumann", "w2inf_norm",
             "integrate", "integrate_values", "norms"),
    "stepper": ("run", "step", "advective_dt_limit"),
    "stability": ("estimate_theta", "check_H1", "check_H2", "compute_M2_convex",
                  "decay_integrand", "report_to_csv"),
    "experiments": ("trajectory_gap", "measure_constants", "fit_decay_rate", "gronwall_check",
                    "approximate_entire_solution"),
    "config": ("parse_config", "apply_override", "build_grid", "build_params",
               "build_coefficients", "build_initial", "build_profile_field", "build_stepper",
               "build_constants"),
    "cli": ("_write_csv",),
}
COEFFICIENT_METHODS = ("eval", "envelope", "global_envelope")

# every span name the report carries, in report order
SPANS = (
    ["cli.command", "grid.Field"]
    + [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    + [f"coefficients.{m}" for m in COEFFICIENT_METHODS]
)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.dt_min = math.inf
        self.dt_max = 0.0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root: list | None = None  # frame of the open command span

    def wrap(self, name: str, fn, on_result=None, root: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(args, result)`` runs after a successful call.  The span is
        closed in ``finally``, so calls that raise (``step`` raises
        ``StepRejected`` as control flow) are timed too.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            frame = [time.perf_counter(), 0.0]  # start, time spent in child spans
            if root:
                self._root = frame
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main:
                parent = self._root
            else:
                parent = None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += max(0.0, duration - frame[1])
                if parent is not None:
                    parent[1] += duration
                if root:
                    self._root = None

        return wrapper

    def _count_solve(self, args, result) -> None:
        self.counts["implicit.solve_shifted.nodes"] += args[0].node_count

    def _count_run(self, args, traj) -> None:
        stats = traj.stats
        self.counts["stepper.accepted"] += stats.accepted
        self.counts["stepper.rejected_error"] += stats.rejected_error
        self.counts["stepper.rejected_positivity"] += stats.rejected_positivity
        self.counts["stepper.samples"] += len(traj)
        if stats.accepted:
            self.dt_min = min(self.dt_min, float(stats.min_dt))
            self.dt_max = max(self.dt_max, float(stats.max_dt))

    def install(self) -> None:
        """Wrap the functions of FUNCTIONS wherever a chemostab module holds them.

        A function that no longer exists is skipped and reports zero calls.
        """
        package = importlib.import_module("chemostab")
        modules = {
            info.name: importlib.import_module(f"chemostab.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("__")  # importing __main__ would run the CLI
        }
        holders = [package, *modules.values()]
        hooks = {"implicit.solve_shifted": self._count_solve, "stepper.run": self._count_run}
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules.get(layer), fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, original, on_result=hooks.get(name))
                for module in holders:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

        field = modules["grid"].Field
        field.__init__ = self.wrap("grid.Field", field.__init__)
        coeffs = modules["coefficients"]
        for cls in vars(coeffs).values():
            if inspect.isclass(cls) and issubclass(cls, coeffs.CoefficientSpec):
                for method in COEFFICIENT_METHODS:
                    if method in vars(cls):
                        setattr(cls, method, self.wrap(f"coefficients.{method}", vars(cls)[method]))

        commands = modules["cli"]._COMMANDS
        for key, fn in commands.items():
            commands[key] = self.wrap("cli.command", fn, root=True)

    def report(self) -> dict:
        return {
            "calls": {name: self.calls[name] for name in SPANS},
            "self_s": {name: self.self_s[name] for name in SPANS},
            "total_s": {name: self.total_s[name] for name in SPANS},
            "counts": dict(self.counts),
            "dt_min": self.dt_min if self.dt_min < math.inf else 0.0,
            "dt_max": self.dt_max,
        }

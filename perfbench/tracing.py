"""In-memory span tracer that wraps natpdm's public functions from outside.

Nothing under src/ is edited: `patched` replaces every module-level
binding of each wrapped function (``pdmsolver`` imports
``lowest_eigenvalues`` and ``potential_on_x_grid`` by name, so patching
``numerics`` alone would miss the calls made from ``spectrum``) and puts
the originals back on exit.

Each wrapped call is one span (name, start, end, parent span, request
id). Calls, total and self time are aggregated online from all spans;
the first `keep` spans are also kept verbatim and written out when the
run ends, so a long run does not hold millions of spans in memory.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# module -> public functions wrapped in the traced run
LAYERS = {
    "numerics": ("lowest_eigenvalues", "sturm_count", "integrate", "find_root"),
    "ginocchio": ("potential_on_x_grid", "invert_mu", "mass_integral"),
    "pdmsolver": ("verify_spectrum", "assemble_hamiltonian", "solve_bound_states"),
    "natanzon": ("solve_spectrum", "mass_correction_terms", "solve_coordinate_map"),
    "conformal": ("strip_to_disk", "conformality_residual"),
    "algebra": ("commutator_residual", "casimir_residual", "constraint_residuals"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# counters kept beside the span statistics; all are sums over the run
COUNTERS = (
    "eig_n_sum", "eig_k_sum", "sturm_steps", "bisection_iters",
    "grid_points", "grid_points_distinct", "levels_reported", "levels_computed",
)


class Tracer:
    """Span recorder with online calls / total / self-time aggregation.

    A span's self time is its duration minus the time covered by its
    direct child spans. Total time counts only the outermost span of a
    name, so a function that calls itself is not counted twice.
    """

    def __init__(self, clock=time.perf_counter, keep=100_000):
        self.clock = clock
        self.keep = keep
        self.spans = []  # (span id, name, start, end, parent id, request id)
        self.n_spans = 0
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.hook_errors = set()
        self.request_id = -1
        self._stack = []  # [span id, name, start, child time]
        self._grid_keys = {}

    # -- requests -----------------------------------------------------------

    def begin_request(self, request_id):
        self.request_id = request_id
        self._grid_keys = {}

    def end_request(self):
        # coarse and fine grid nodes nest, so distinct (problem, x) pairs
        # show how much of a request's tabulation is repeated work
        self.counters["grid_points_distinct"] += sum(
            np.unique(np.concatenate(xs)).size for xs in self._grid_keys.values())
        self._grid_keys = {}

    # -- spans ---------------------------------------------------------------

    def stack_names(self):
        return [frame[1] for frame in self._stack]

    def enter(self, name):
        span_id = self.n_spans
        self.n_spans += 1
        self._stack.append([span_id, name, self.clock(), 0.0])

    def exit(self):
        span_id, name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if all(frame[1] != name for frame in self._stack):
            self.total[name] = self.total.get(name, 0.0) + duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else -1, self.request_id))

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        self.hook_errors.add(name)
                return result
            finally:
                self.exit()
        return traced

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,name,start_s,end_s,parent_id,request_id\n")
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{rid}\n")


# -- counter hooks: (tracer, args, kwargs, result) ----------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hook_lowest_eigenvalues(tr, args, kwargs, result):
    size = _arg(args, kwargs, 0, "matrix").size
    k = int(_arg(args, kwargs, 1, "k"))
    tr.counters["eig_n_sum"] += size
    tr.counters["eig_k_sum"] += k
    if "pdmsolver.verify_spectrum" in tr.stack_names():
        tr.counters["levels_computed"] += k


def _hook_sturm_count(tr, args, kwargs, result):
    size = _arg(args, kwargs, 0, "matrix").size
    trials = np.size(_arg(args, kwargs, 1, "lam"))
    tr.counters["sturm_steps"] += size * trials
    names = tr.stack_names()
    if len(names) >= 2 and names[-2] == "numerics.lowest_eigenvalues":
        tr.counters["bisection_iters"] += 1


def _hook_potential_on_x_grid(tr, args, kwargs, result):
    x = np.asarray(result.x)
    tr.counters["grid_points"] += x.size
    ordering = _arg(args, kwargs, 3, "ordering")
    key = (result.gamma, result.j, _arg(args, kwargs, 2, "mass").label,
           (ordering.eta, ordering.epsilon, ordering.rho), result.assembly)
    tr._grid_keys.setdefault(key, []).append(x)


def _hook_verify_spectrum(tr, args, kwargs, result):
    tr.counters["levels_reported"] += (len(result.energies_numeric)
                                       + len(result.mass_independence["partner_energies"]))


HOOKS = {
    "numerics.lowest_eigenvalues": _hook_lowest_eigenvalues,
    "numerics.sturm_count": _hook_sturm_count,
    "ginocchio.potential_on_x_grid": _hook_potential_on_x_grid,
    "pdmsolver.verify_spectrum": _hook_verify_spectrum,
}


@contextlib.contextmanager
def patched(tracer, layers=LAYERS):
    """Wrap every binding of the layer functions in the loaded natpdm modules.

    Yields the span names whose function could not be found. All
    bindings are restored on exit, also when the body raises.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "natpdm" or name.startswith("natpdm."))]
    missing = []
    restore = []
    try:
        for mod_name, fns in layers.items():
            home = sys.modules.get(f"natpdm.{mod_name}")
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    missing.append(span)
                    continue
                wrapper = tracer.wrap(span, original, HOOKS.get(span))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def layer_metrics(tracer, n_requests, time_scale=1.0):
    """Per-request layer metrics from a finished traced phase.

    Span times are multiplied by `time_scale` (reference s per measured s).
    """
    per = 1.0 / max(n_requests, 1)
    c = tracer.counters
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) * per, "calls/req")
        out[f"{name}.total_s"] = (tracer.total.get(name, 0.0) * per * time_scale, "s/req")
        out[f"{name}.self_s"] = (tracer.self_time.get(name, 0.0) * per * time_scale, "s/req")
    solves = tracer.calls.get("numerics.lowest_eigenvalues", 0)
    out["numerics.lowest_eigenvalues.n_sum"] = (c["eig_n_sum"] * per, "rows/req")
    out["numerics.lowest_eigenvalues.k_sum"] = (c["eig_k_sum"] * per, "levels/req")
    out["numerics.sturm_count.steps"] = (c["sturm_steps"] * per, "steps/req")
    out["numerics.bisection_iters_per_solve"] = (
        c["bisection_iters"] / solves if solves else 0.0, "iters/solve")
    out["ginocchio.potential_on_x_grid.points"] = (c["grid_points"] * per, "points/req")
    out["ginocchio.potential_on_x_grid.points_distinct_frac"] = (
        c["grid_points_distinct"] / c["grid_points"] if c["grid_points"] else 0.0, "frac")
    out["pdmsolver.levels_used_frac"] = (
        c["levels_reported"] / c["levels_computed"] if c["levels_computed"] else 0.0, "frac")
    return out


def unfired(tracer):
    return [name for name in SPAN_NAMES if not tracer.calls.get(name)]

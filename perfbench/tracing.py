"""Outside-in tracing of the nlw layers.

The program is not edited: ``Tracer.install`` replaces each public
function of the layer modules, wherever an ``nlw`` module holds a
reference to it, with a wrapper that records a span.  A span is a dict
with the function's ``name`` ("<module>.<function>"), ``start`` and
``end`` (``time.perf_counter`` seconds), the index of its ``parent``
span (``None`` at top level) and ``counts`` taken at the same boundary:
the growth of ``ru_maxrss`` and, for a few functions, a count read from
the arguments or the result (points, pairs, states, iterations, jumps,
artifact bytes).  Spans stay in memory; the caller writes them out.

``layer_metrics`` turns the spans of one traced operation into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
import types

LAYERS = ("config", "torus", "kernels", "discretize", "functionals", "flow", "metric", "sampler", "experiments")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rows(pts) -> int:
    shape = getattr(pts, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _artifact_bytes(result) -> int:
    paths = [os.path.join(result.out_dir, a["path"]) for a in result.artifacts] + [result.manifest_path]
    return sum(os.path.getsize(p) for p in paths)


def _pairs(grid) -> int:
    return grid.n_points * (grid.n_points - 1) // 2


# counts read at a span's boundary: name -> f(args, kwargs, result) -> dict
EXTRACT = {
    "kernels.density": lambda a, k, r: {"points": _rows(a[1] if len(a) > 1 else k["pts"])},
    "discretize.discretize_kernel": lambda a, k, r: {"pairs": _pairs(a[2] if len(a) > 2 else k["grid"])},
    "flow.solve": lambda a, k, r: {"states": r.n_times},
    "metric.nlw_distance": lambda a, k, r: {"iterations": r.iterations},
    "sampler.simulate": lambda a, k, r: {"jumps": r.n_jumps},
    "experiments.run_config": lambda a, k, r: {"artifact_bytes": _artifact_bytes(r)},
}


class Tracer:
    """Records spans while installed; ``spans`` is reset by ``install``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(record)
            rss = _maxrss_kb()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["counts"] = {"maxrss_kb": _maxrss_kb() - rss}
                self._stack.pop()
            if extract is not None:
                record["counts"].update(extract(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules and every measure's density."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self._stack = []
        modules = [m for n, m in sys.modules.items() if (n == "nlw" or n.startswith("nlw.")) and m]
        for layer in LAYERS:
            mod = sys.modules[f"nlw.{layer}"]
            for fname in mod.__all__:
                original = getattr(mod, fname)
                if not isinstance(original, types.FunctionType):
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)
        kernels = sys.modules["nlw.kernels"]
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.MeasureSpec) and "density" in vars(cls):
                self._patch(cls, "density", self.wrap("kernels.density", vars(cls)["density"]))

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> list[dict]:
        """Restore every original function; returns the spans recorded."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []
        return self.spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def _outermost(spans: list[dict], name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    keep = []
    for i, s in enumerate(spans):
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            keep.append(i)
    return keep


def _under(spans: list[dict], i: int, ancestor: str) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == ancestor:
            return True
        p = spans[p]["parent"]
    return False


def top_level_seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced operation (0 for a layer it did not run)."""
    own = self_times(spans)

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in _outermost(spans, name))

    def self_s(name):
        return sum(own[i] for i, s in enumerate(spans) if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def count(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in _outermost(spans, name))

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    kernel_s = total("discretize.discretize_kernel")
    distance_s = total("metric.nlw_distance")
    simulate_s = total("sampler.simulate")
    iterations = count("metric.nlw_distance", "iterations")
    jumps = count("sampler.simulate", "jumps")
    return {
        "torus.build_grid_s": total("torus.build_grid"),
        "kernels.c_eta_s": total("kernels.c_eta"),
        "kernels.density_points": count("kernels.density", "points"),
        "discretize.pushforward_s": total("discretize.pushforward_measure"),
        "discretize.kernel_s": kernel_s,
        "discretize.us_per_pair": ratio(kernel_s, count("discretize.discretize_kernel", "pairs"), 1e6),
        "discretize.moment_bound_s": total("discretize.verify_moment_bound"),
        "discretize.save_system_s": total("discretize.save_system"),
        "discretize.rss_growth_mb": count("discretize.discretize_kernel", "maxrss_kb") / 1024.0,
        "functionals.fisher_s": total("functionals.fisher_information"),
        "functionals.fisher_calls": calls("functionals.fisher_information"),
        "functionals.action_s": total("functionals.action"),
        "functionals.action_calls": calls("functionals.action"),
        "functionals.entropy_s": total("functionals.relative_entropy"),
        "flow.solve_self_s": self_s("flow.solve"),
        "flow.edi_self_s": self_s("flow.edi_report"),
        "flow.states": count("flow.solve", "states"),
        "metric.distance_s": distance_s,
        "metric.iterations": iterations,
        "metric.ms_per_iter": ratio(distance_s, iterations, 1e3),
        "metric.log_mean_calls": sum(
            1 for i, s in enumerate(spans)
            if s["name"] == "functionals.log_mean" and _under(spans, i, "metric.nlw_distance")
        ),
        "sampler.simulate_s": simulate_s,
        "sampler.jumps": jumps,
        "sampler.us_per_jump": ratio(simulate_s, jumps, 1e6),
        "sampler.compare_s": total("sampler.compare_marginals"),
        "experiments.run_config_self_s": self_s("experiments.run_config"),
        "experiments.artifact_bytes": count("experiments.run_config", "artifact_bytes"),
    }

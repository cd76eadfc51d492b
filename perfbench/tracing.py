"""Per-layer spans recorded from outside the library.

`install` wraps every public function of each layer module (and the public
methods of the classes defined there) and rebinds the wrapper in every
nordenhs namespace that binds the original, including dict values such as
`verify.SUITES`.  A span's self time is its duration minus the time spent in
the wrapped functions it calls, so the layers' self times add up to the time
spent inside the library.
"""

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "curvature", "hypersurface", "classify", "jsonio", "verify", "cli")
SUITES = ("metrics", "frame", "curvature", "gauss", "sigma", "ricci", "codazzi", "umbilic")

# Inclusive timers: time from entering the outermost function of a group
# until leaving it, so recursion and nesting inside the group count once.
GROUPS = {
    "hypersurface.basis_s": ("hypersurface.tangent_adapted_basis",),
    "jsonio.dump_s": ("jsonio.samples_to_doc", "jsonio.points_to_doc",
                      "jsonio.dumps_canonical", "jsonio.write_json"),
    "jsonio.load_s": ("jsonio.load_pointcloud", "jsonio.load_matrix"),
    **{f"verify.{s}_s": (f"verify.suite_{s}",) for s in SUITES},
}
PAIRINGS = ("core.metric_g", "core.metric_gt", "core.q_value")
TENSOR_EVALS = ("curvature.SpaceFormCurvature.__call__",
                "curvature.GaussShapeCurvature.__call__")
COUNTED = ("hypersurface.tangent_rep", "curvature.sample_totally_real_planes",
           "jsonio.write_json", "jsonio.load_pointcloud", "jsonio.load_matrix")


class Tracer:
    """Counts and times the calls of wrapped functions."""

    def __init__(self):
        self.stack = [[0.0]]  # child time of each open span; [0] is the root
        self.self_s = defaultdict(float)
        self.calls = Counter()  # by qualified name
        self.raised = Counter()
        self.group_s = defaultdict(float)
        self.group_depth = Counter()
        self.layer_depth = Counter()
        self.reset()

    def reset(self):
        """Zero every count; wrappers keep references to these containers."""
        self.stack[:] = [[0.0]]
        for counts in (self.self_s, self.calls, self.raised, self.group_s,
                       self.group_depth, self.layer_depth):
            counts.clear()
        self.tangent_reps_in_classify = 0
        self.planes_returned = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def inside_s(self):
        """Time spent inside the library since the last reset."""
        return self.stack[0][0]

    def wrap(self, layer, qualname, fn):
        name = f"{layer}.{qualname}"
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        counted = name in COUNTED
        clock = time.perf_counter
        stack, self_s, calls, raised = self.stack, self.self_s, self.calls, self.raised
        group_s, group_depth, layer_depth = self.group_s, self.group_depth, self.layer_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            layer_depth[layer] += 1
            for g in groups:
                group_depth[g] += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                calls[name] += 1
                layer_depth[layer] -= 1
                for g in groups:
                    group_depth[g] -= 1
                    if not group_depth[g]:
                        group_s[g] += dur
                if not ok:
                    raised[name] += 1
                elif counted:
                    self._count(name, args, result)

        return traced

    def _count(self, name, args, result):
        if name == "hypersurface.tangent_rep" and self.layer_depth["classify"]:
            self.tangent_reps_in_classify += 1
        elif name == "curvature.sample_totally_real_planes":
            self.planes_returned += len(result)
        elif name == "jsonio.write_json":
            self.bytes_written += os.path.getsize(args[0])
        elif name in ("jsonio.load_pointcloud", "jsonio.load_matrix"):
            self.bytes_read += os.path.getsize(args[0])

    def metrics(self, jobs, wall_s):
        """Per-job averages over `jobs` timed jobs of total wall time
        `wall_s`, keyed by the per-layer metric names."""
        per = 1.0 / jobs
        layer_calls = Counter()
        for name, n in self.calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        attempts = self.calls["curvature.is_totally_real"]
        out = {
            "core.calls": layer_calls["core"] * per,
            "core.pairings": sum(self.calls[n] for n in PAIRINGS) * per,
            "core.orthonormalize_calls": self.calls["core.bilinear_orthonormalize"] * per,
            "curvature.calls": layer_calls["curvature"] * per,
            "curvature.tensor_evals": sum(self.calls[n] for n in TENSOR_EVALS) * per,
            # 0 when no plane was attempted
            "curvature.plane_accept_ratio": self.planes_returned / attempts if attempts else 0.0,
            "hypersurface.calls": layer_calls["hypersurface"] * per,
            "hypersurface.basis_failures": self.raised["hypersurface.tangent_adapted_basis"] * per,
            "hypersurface.reprojections": self.calls["hypersurface.project_to_sphere"] * per,
            "hypersurface.frames": self.calls["hypersurface.normal_frame"] * per,
            "classify.calls": layer_calls["classify"] * per,
            "classify.tangent_reps": self.tangent_reps_in_classify * per,
            "jsonio.bytes_written": self.bytes_written * per,
            "jsonio.bytes_read": self.bytes_read * per,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] * per
        for g in GROUPS:
            out[g] = self.group_s[g] * per
        out["bench.self_s"] = (wall_s - self.inside_s()) * per
        out["trace.job_s"] = wall_s * per
        return out


def _wrap_module(tracer, layer, mod):
    """{original: wrapper} for the module's public functions; class methods
    are replaced on the class itself."""
    wrapped = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            wrapped[obj] = tracer.wrap(layer, name, obj)
        elif inspect.isclass(obj):
            for attr, fn in list(vars(obj).items()):
                generated_init = attr == "__init__" and dataclasses.is_dataclass(obj)
                if inspect.isfunction(fn) and not generated_init and (
                        not attr.startswith("_") or attr in ("__init__", "__call__")):
                    setattr(obj, attr, tracer.wrap(layer, f"{name}.{attr}", fn))
    return wrapped


def install(tracer):
    """Wrap the layers of the already imported nordenhs package."""
    wrapped = {}
    for layer in LAYERS:
        wrapped.update(_wrap_module(tracer, layer, sys.modules[f"nordenhs.{layer}"]))
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "nordenhs" or name.startswith("nordenhs.")]
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]

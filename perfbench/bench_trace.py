"""Span tracing of the sierpack layers, done from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and a few counts read
off the arguments and the return value.  The wrapper is bound under every
name a sierpack module holds the function as (`sierpack.certify` calls
`verify_packing_coloring` through its own global, for instance), so calls
between modules are seen too.  `remove` puts the originals back.

Nothing under `src/` is changed; spans sit in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("sierpinski", "graph_core", "packing", "certify", "search")

# metric group -> the public functions whose spans it sums
GROUPS = {
    "sierpinski.gen": ("sierpinski.gen_generalized", "sierpinski.gen_sierpinski",
                       "sierpinski.gen_triangle", "sierpinski.gen_triangle_recursive"),
    "graph_core.all_pairs": ("graph_core.all_pairs_distances",),
    "graph_core.bfs": ("graph_core.bfs_distances",),
    "graph_core.diameter": ("graph_core.diameter",),
    "packing.decide": ("packing.is_packing_k_colorable",),
    "packing.chi": ("packing.chi_rho",),
    "packing.max_packing": ("packing.max_i_packing_size",),
    "packing.greedy": ("packing.greedy_packing_coloring",),
    "packing.verify": ("packing.verify_packing_coloring",),
    "certify": ("certify.certify_generalized_tiling", "certify.certify_triangle_tiling"),
    "certify.tile": ("certify.tile_coloring",),
    "search": ("search.search_certified_coloring",),
}


def _certify_info(args, kwargs, rep):
    m = args[0] if isinstance(args[0], int) else args[1]  # triangle | generalized
    last = rep.refuted_dimension or rep.max_dimension
    return {"dims": last - m, "refuted": int(rep.status == "REFUTED")}


def _search_info(args, kwargs, out):
    cfg = args[0]
    if out.certified_bound is None:
        return {"iters": cfg.iterations, "certified": 0, "to_cert": 0}
    at = out.history[-1][0]
    return {"iters": at, "certified": 1, "to_cert": at}


# counts read from each call: (args, kwargs, result) -> {name: number}
INFO = {
    **{fn: (lambda a, k, g: {"vertices": g.n}) for fn in GROUPS["sierpinski.gen"]},
    "packing.is_packing_k_colorable": lambda a, k, r: {
        "nodes": r.nodes_explored, "timeouts": int(r.status == "TIMEOUT")},
    "packing.chi_rho": lambda a, k, r: {"nodes": r.nodes_explored},
    "packing.verify_packing_coloring": lambda a, k, r: {
        "vertices": a[0].n, "violations": len(r.violations)},
    "certify.certify_generalized_tiling": _certify_info,
    "certify.certify_triangle_tiling": _certify_info,
    "search.search_certified_coloring": _search_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, info]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"sierpack.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "sierpack" and not modname.startswith("sierpack."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, time, self time and counts, as (value, unit)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(
                (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans)
                if s[0].split(".", 1)[0] == layer), "s")
        group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
        calls = dict.fromkeys(GROUPS, 0)
        secs = dict.fromkeys(GROUPS, 0.0)
        sums: dict[str, dict[str, float]] = {g: {} for g in GROUPS}
        ok_s = bad_s = 0.0
        for s in spans:
            group = group_of.get(s[0])
            if group is None:
                continue
            # a call nested in a call of the same group (gen_sierpinski ->
            # gen_generalized, recursion) is part of the outer one
            p = s[3]
            while p >= 0 and group_of.get(spans[p][0]) != group:
                p = spans[p][3]
            if p >= 0:
                continue
            dur = s[2] - s[1]
            calls[group] += 1
            secs[group] += dur
            for key, val in (s[4] or {}).items():
                sums[group][key] = sums[group].get(key, 0) + val
            if group == "packing.verify":
                if s[4]["violations"]:
                    bad_s += dur
                else:
                    ok_s += dur
        for group in GROUPS:
            out[f"{group}.calls"] = (calls[group], "count")
            out[f"{group}.s"] = (secs[group], "s")

        def count(group, key):
            return (sums[group].get(key, 0), "count")

        nodes = sums["packing.decide"].get("nodes", 0)
        searches = calls["search"]
        out.update({
            "sierpinski.gen.vertices": count("sierpinski.gen", "vertices"),
            "packing.decide.nodes": count("packing.decide", "nodes"),
            "packing.decide.nodes_per_s": (
                nodes / secs["packing.decide"] if nodes else 0.0, "1/s"),
            "packing.decide.timeouts": count("packing.decide", "timeouts"),
            "packing.chi.nodes": count("packing.chi", "nodes"),
            "packing.verify.vertices": count("packing.verify", "vertices"),
            "packing.verify.violations": count("packing.verify", "violations"),
            "packing.verify.ok_s": (ok_s, "s"),
            "packing.verify.bad_s": (bad_s, "s"),
            "certify.backstop_dims": count("certify", "dims"),
            "certify.refuted": count("certify", "refuted"),
            "search.iters": count("search", "iters"),
            "search.iters_to_cert": count("search", "to_cert"),
            "search.cert_ratio": (
                sums["search"].get("certified", 0) / searches if searches else 0.0,
                "ratio"),
        })
        return out

"""Per-function spans for the traced run, recorded from outside the program.

Each traced function is replaced, in every loaded ``nodalpic`` module that
binds it, by a wrapper that records its self time (span minus the spans of
traced functions it called), its call count and, when it returns a list, the
total length of the lists it returned.  Replacing every binding catches calls
between modules, which look the function up in their own namespace.
"""

from __future__ import annotations

import sys
import time

# module -> traced public functions
TRACED = {
    "cli": ("parse_curve", "curve_summary", "render_text", "main"),
    "graph": ("complexity", "essential_connectivity", "bridges", "partial_normalization"),
    "stability": (
        "enumerate_semistable",
        "enumerate_stable",
        "check_stability",
        "enumerate_stable_disconnected",
    ),
    "classgroup": ("degree_class_group", "class_of", "class_representatives", "semistabilize"),
    "picard": ("strata", "irreducible_components", "classify_type_g_minus_1", "neron_fiber"),
    "theta": ("theta_strata",),
}


class Tracer:
    def __init__(self) -> None:
        # "<module>.<function>" -> [self_ns, calls, results]
        self.stats = {f"{m}.{f}": [0, 0, 0] for m, fs in TRACED.items() for f in fs}
        self._child_ns: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "nodalpic" or name.startswith("nodalpic.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"nodalpic.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = child_ns.pop()
                if child_ns:
                    child_ns[-1] += span
                stat[0] += span - children
                stat[1] += 1
            if isinstance(result, list):
                stat[2] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """{"<module>.<function>": {"ms", "calls", "results"}} for every traced function."""
        return {
            key: {"ms": ns / 1e6, "calls": calls, "results": results}
            for key, (ns, calls, results) in self.stats.items()
        }

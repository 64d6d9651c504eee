"""In-process span tracer for the aklt_mite layers.

Wraps public functions from outside the package: every module of the
package that binds a traced function (``mite`` does ``from .statevec import
...``) gets the wrapper, and ``restore`` puts the originals back.  Spans are
aggregated in memory as they close: per span name the call count, total and
self time (duration minus the time its child spans cover), and per
(parent, child) edge the call count and total time.  Wrappers only read the
clock, so they consume no random numbers.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _count_cap_visits(tracer, args, result):
    tracer.counts["mite.cap_visits"] += 0 if result[1].converged else 1


def _count_iterations(tracer, args, result):
    tracer.counts["recompile.iterations"] += result.iterations


def _count_bytes(tracer, args, result):
    tracer.counts["cli.write.bytes"] += Path(args[0]).stat().st_size


# (module, function, span name, hook run on the return value)
TRACED = [
    ("statevec", "born_sample", "statevec.born_sample", None),
    ("statevec", "apply_two_site", "statevec.apply_two_site", None),
    ("statevec", "apply_one_site", "statevec.apply_one_site", None),
    ("statevec", "partial_fidelity", "statevec.partial_fidelity", None),
    ("spin_ops", "aklt_state", "spin_ops.aklt_state", None),
    ("spin_ops", "hamiltonian_apply", "spin_ops.hamiltonian_apply", None),
    ("qubit_map", "qubit_aklt_state", "qubit_map.qubit_aklt_state", None),
    ("qubit_map", "symmetric_weight", "qubit_map.symmetric_weight", None),
    ("mite", "build_chain", "mite.build_chain", None),
    ("mite", "mite_subroutine", "mite.mite_subroutine", _count_cap_visits),
    ("mite", "correction_unitary", "mite.correction_unitary", None),
    ("mite", "apply_noise", "mite.apply_noise", None),
    ("mite", "direct_projection_converge", "mite.direct_projection_converge", None),
    ("recompile", "loss_and_grad", "recompile.loss_and_grad", None),
    ("recompile", "optimize_once", "recompile.optimize_once", _count_iterations),
    ("cli", "write_rows", "cli.write", _count_bytes),
    ("cli", "write_summary", "cli.write", _count_bytes),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []  # [name, time covered by children]
        self._patches = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                edge = self.edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += duration
                if parent is not None:
                    parent[1] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, package: str = "aklt_mite"):
        """Replace every traced function in every loaded module of ``package``."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, fn_name, span, hook in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapped = self.wrap(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def stat(self, span: str, kind: str) -> float:
        """One per-span figure: calls, total_s, self_s or us_per_call."""
        calls = self.calls.get(span, 0)
        if kind == "calls":
            return calls
        if kind == "total_s":
            return self.total.get(span, 0.0)
        if kind == "self_s":
            return self.self_time.get(span, 0.0)
        if kind == "us_per_call":
            return self.total[span] / calls * 1e6 if calls else 0.0
        raise KeyError(kind)

    def edge_table(self) -> list[dict]:
        return [
            {"parent": parent, "span": span, "calls": calls, "total_s": total}
            for (parent, span), (calls, total) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]

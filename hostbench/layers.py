"""The layer map and the fold of a cProfile run into per-layer numbers.

:data:`LAYERS` is the one table that maps every module under
``src/repro`` to one of 18 layers.  :class:`LayerFold` walks a
``pstats`` table:

* a ``repro`` function's self time goes to the layer owning its module;
  a ``repro`` module missing from the table is an error;
* a C builtin, stdlib or benchmark function's self time goes to the
  layer(s) that called it, split in proportion to each caller edge's
  time (a function nothing called goes to ``rest``);
* ``calls[L]`` counts calls into a ``repro`` function of layer L whose
  caller is in another layer (generator resumes count as calls).  A call
  made through a builtin goes to the builtin's caller layers, split by
  call counts, so the counts repeat exactly;
* ``edges[(A, B)]`` is the caller-layer -> callee-layer table: calls
  and cumulative seconds per edge, the aggregated spans.
"""

from __future__ import annotations

import os

LAYERS = {
    "sim": ("repro.sim", "repro.sim.clock", "repro.sim.costs",
            "repro.sim.engine", "repro.sim.events", "repro.sim.rng"),
    "hw": ("repro.hw", "repro.hw.atomic", "repro.hw.context", "repro.hw.cpu",
           "repro.hw.isa", "repro.hw.machine", "repro.hw.memory",
           "repro.hw.timer"),
    "kernel": ("repro.kernel", "repro.kernel.kernel", "repro.kernel.lwp",
               "repro.kernel.process", "repro.kernel.profil",
               "repro.kernel.signals", "repro.kernel.vm"),
    "kernel.syscalls": (
        "repro.kernel.syscalls", "repro.kernel.syscalls.file_calls",
        "repro.kernel.syscalls.lwp_calls", "repro.kernel.syscalls.mem_calls",
        "repro.kernel.syscalls.misc_calls", "repro.kernel.syscalls.net_calls",
        "repro.kernel.syscalls.proc_calls",
        "repro.kernel.syscalls.signal_calls",
        "repro.kernel.syscalls.time_calls"),
    "kernel.sched": ("repro.kernel.sched", "repro.kernel.sched.classes",
                     "repro.kernel.sched.dispatcher",
                     "repro.kernel.sched.policy",
                     "repro.kernel.sched.runqueue"),
    "kernel.net": ("repro.kernel.net",),
    "kernel.fs": ("repro.kernel.fs", "repro.kernel.fs.file",
                  "repro.kernel.fs.procfs", "repro.kernel.fs.vfs"),
    "threads": ("repro.threads", "repro.threads.api", "repro.threads.backoff",
                "repro.threads.reclaim", "repro.threads.retry",
                "repro.threads.runtime", "repro.threads.scheduler",
                "repro.threads.stack", "repro.threads.supervisor",
                "repro.threads.thread", "repro.threads.tls"),
    "sync": ("repro.sync", "repro.sync.condvar", "repro.sync.events",
             "repro.sync.guards", "repro.sync.mutex", "repro.sync.rwlock",
             "repro.sync.semaphore", "repro.sync.structures",
             "repro.sync.variants"),
    "runtime": ("repro.runtime", "repro.runtime.libc", "repro.runtime.mapped",
                "repro.runtime.unistd", "repro.pthreads", "repro.pthreads.api",
                "repro.pthreads.sync", "repro.pthreads.tsd"),
    "workloads": ("repro.workloads", "repro.workloads.array_compute",
                  "repro.workloads.database",
                  "repro.workloads.network_server",
                  "repro.workloads.window_system", "repro.explore.corpus"),
    "obs": ("repro.obs", "repro.obs.chrometrace", "repro.obs.export",
            "repro.obs.registry"),
    "load": ("repro.load", "repro.load.arrivals", "repro.load.bakeoff",
             "repro.load.driver"),
    "sim.trace": ("repro.sim.trace",),
    "sim.schedule": ("repro.sim.schedule",),
    "sim.faults": ("repro.sim.faults",),
    "explore": ("repro.explore", "repro.explore.detectors",
                "repro.explore.explorer", "repro.explore.minimize",
                "repro.explore.registry"),
    "rest": ("repro", "repro.__main__", "repro.api", "repro.errors",
             "repro.analysis", "repro.analysis.experiments",
             "repro.analysis.metrics", "repro.analysis.report",
             "repro.analysis.tracetools", "repro.analysis.waitgraph",
             "repro.models", "repro.models.activations",
             "repro.models.kernel_only", "repro.models.liblwp",
             "repro.models.microtasking", "repro.lint", "repro.lint.__main__",
             "repro.lint.absint", "repro.lint.callgraph", "repro.lint.loader",
             "repro.lint.report", "repro.lint.summaries", "repro.lint.rules",
             "repro.lint.rules.blocking", "repro.lint.rules.condvar",
             "repro.lint.rules.fork_hygiene", "repro.lint.rules.lock_balance",
             "repro.lint.rules.lock_order", "repro.lint.rules.lockset",
             "repro.lint.rules.retry_discipline", "repro.lint.rules.robust",
             "repro.lint.rules.yield_discipline", "repro.load.__main__",
             "repro.obs.__main__", "repro.explore.__main__"),
}

MODULE_LAYER = {m: layer for layer, mods in LAYERS.items() for m in mods}
assert len(MODULE_LAYER) == sum(map(len, LAYERS.values())), \
    "a module is listed under two layers"


class LayerMapError(Exception):
    """A profiled ``repro`` function's module is not in :data:`LAYERS`."""


def module_of(filename: str, src: str):
    """Dotted module name of a file under ``src/repro``, else None."""
    rel = os.path.relpath(filename, src)
    if not rel.endswith(".py") or rel.startswith(".."):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class LayerFold:
    """Per-layer self time, boundary calls and edges of one profile."""

    def __init__(self, stats: dict, src: str):
        self.stats = stats
        self.src = src
        self._owner = {True: {}, False: {}}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0.0)
        self.edges: dict = {}
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            for layer, share in self.owner(func).items():
                self.self_s[layer] += tt * share
            callee = self._repro_layer(func)
            if callee is None:
                continue
            for caller, (enc, _ecc, _ett, ect) in callers.items():
                for layer, share in self.owner(caller, False).items():
                    if layer == callee:
                        continue
                    self.calls[callee] += enc * share
                    edge = self.edges.setdefault((layer, callee), [0.0, 0.0])
                    edge[0] += enc * share
                    edge[1] += ect * share
        self.total_s = sum(self.self_s.values())

    def _repro_layer(self, func):
        module = module_of(func[0], self.src)
        if module is None:
            return None
        layer = MODULE_LAYER.get(module)
        if layer is None:
            raise LayerMapError(f"{module}.{func[2]} (line {func[1]}): "
                                f"module {module} is not in the layer map")
        return layer

    def owner(self, func, by_time: bool = True) -> dict:
        """``{layer: share}`` that pays for ``func``: its own layer, or
        its callers' split by edge time (``by_time``) or by edge calls
        (deterministic, used to attribute boundary calls)."""
        memo = self._owner[by_time]
        known = memo.get(func)
        if known is not None:
            return known
        layer = self._repro_layer(func)
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {}  # in progress: a cycle contributes nothing
        callers = self.stats[func][4] if func in self.stats else {}
        # A caller edge is (calls, primitive calls, self s, cumulative s).
        key = 2 if by_time and any(e[2] for e in callers.values()) else 0
        weights: dict = {}
        for caller, edge in callers.items():
            for layer, share in self.owner(caller, by_time).items():
                weights[layer] = weights.get(layer, 0.0) + edge[key] * share
        total = sum(weights.values())
        memo[func] = ({k: v / total for k, v in weights.items()}
                      if total > 0 else {"rest": 1.0})
        return memo[func]

    def shares(self) -> dict:
        return {layer: s / self.total_s for layer, s in self.self_s.items()}

    def calls_of(self, fn) -> int:
        """Exact call count of one Python function (0 if never called)."""
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        return self.stats[key][1] if key in self.stats else 0

    def edge_table(self, min_share: float = 1e-4) -> str:
        """Edges carrying at least ``min_share`` of the traced time."""
        rows = sorted(((k, v) for k, v in self.edges.items()
                       if v[1] >= min_share * self.total_s),
                      key=lambda kv: -kv[1][1])
        lines = [f"{'caller layer':<16} -> {'callee layer':<16} "
                 f"{'calls':>12} {'cum s':>10}"]
        for (a, b), (calls, cum) in rows:
            lines.append(f"{a:<16} -> {b:<16} {calls:>12.0f} {cum:>10.4f}")
        return "\n".join(lines)

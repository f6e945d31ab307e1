"""Fold a cProfile table into this repository's layers.

Input is the ``stats`` dict of :class:`pstats.Stats`::

    (filename, lineno, funcname) -> (primitive_calls, calls, self_s,
                                     inclusive_s, callers)
    callers: (filename, lineno, funcname) -> (calls, primitive_calls,
                                              self_s, inclusive_s)

A function belongs to a layer by the path of its file under ``repro/``
(:data:`LAYER_PREFIXES`, first match wins), ``<jit:*>`` code objects
belong to ``ebpf.run``, and repro code no prefix matches lands in
``other`` — so a module added later shows up as ``other.self_share``
instead of crashing the fold.  Everything else (built-ins and the
standard library: ``heapq``, ``random``, ``dict.get``, ``compile``,
``ast``) has no layer of its own: its self time is charged to the layers
of its callers through the callers table, in proportion to the self time
cProfile recorded under each caller.  Nothing is lost: the per-layer self
times sum to the profile's total self time.
"""

OTHER = "other"
JIT_LAYER = "ebpf.run"

#: (path prefix under ``repro/``, layer); first match wins.
LAYER_PREFIXES = (
    ("sim/", "sim"),
    ("workload/", "workload"),
    ("net/", "net"),
    ("kernel/netstack", "kernel.netstack"),
    ("kernel/streams", "kernel.netstack"),
    ("kernel/sockets", "kernel.sockets"),
    ("kernel/sched", "kernel.sched"),
    ("kernel/cfs", "kernel.sched"),
    ("kernel/cpu", "kernel.sched"),
    ("kernel/threads", "kernel.sched"),
    ("kernel/arbiter", "kernel.sched"),
    ("ghost/", "ghost"),
    ("policies/thread_policies", "policies"),
    ("policies/token_agent", "policies"),
    ("policies/adaptive", "core.signals"),
    ("core/hooks", "core.hooks"),
    ("core/executors", "core.hooks"),
    ("core/late_binding", "core.hooks"),
    ("ebpf/program", "ebpf.run"),
    ("ebpf/vm", "ebpf.run"),
    ("ebpf/helpers", "ebpf.run"),
    ("ebpf/maps", "ebpf.run"),
    ("ebpf/compiler", "ebpf.load"),
    ("ebpf/optimizer", "ebpf.load"),
    ("ebpf/verifier", "ebpf.load"),
    ("ebpf/jit", "ebpf.load"),
    ("ebpf/asm", "ebpf.load"),
    ("ebpf/insn", "ebpf.load"),
    ("core/loader", "ebpf.load"),
    ("core/maps", "core.maps"),
    ("core/syrupd", "core.syrupd"),
    ("core/api", "core.syrupd"),
    ("core/health", "core.syrupd"),
    ("core/promote", "core.syrupd"),
    ("core/signals", "core.signals"),
    ("qdisc/", "qdisc"),
    ("apps/", "apps"),
    ("stats/", "stats"),
    ("obs/registry", "obs.registry"),
    ("obs/events", "obs.events"),
    ("obs/spans", "obs.spans"),
    ("obs/tail", "obs.spans"),
    ("obs/accounting", "obs.accounting"),
    ("obs/interference", "obs.accounting"),
    ("obs/timeseries", "obs.timeseries"),
    ("obs/sketch", "obs.sketch"),
    ("obs/slo", "obs.slo"),
    ("cluster/", "cluster"),
    ("faults", "faults"),
    ("machine", "machine"),
    ("config", "machine"),
    ("experiments/", "machine"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (OTHER,)

#: The benchmark's own staging code runs inside ``run()`` as engine
#: callbacks (the control-loop wiring, the redeploy schedule); it is
#: experiment wiring, like ``repro/experiments/``.
BENCH_WIRING = ("benchmarks/perf/workloads.py", "machine")


def own_layer(filename):
    """The layer that owns code in ``filename``, or None for code with no
    layer of its own (built-ins, the standard library)."""
    if filename.startswith("<jit:"):
        return JIT_LAYER
    normalized = filename.replace("\\", "/")
    if normalized.endswith(BENCH_WIRING[0]):
        return BENCH_WIRING[1]
    head, sep, tail = normalized.rpartition("/repro/")
    if not sep:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if tail.startswith(prefix):
            return layer
    return OTHER


class Fold:
    """Per-layer self time and calls, plus the layer-to-layer edges."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: (caller layer, callee layer) -> [calls, inclusive seconds];
        #: cross-layer edges only — the aggregated span tree.
        self.edges = {}
        self.total_self_s = 0.0

    def share(self, layer):
        return self.self_s[layer] / self.total_self_s if self.total_self_s \
            else 0.0

    def as_dict(self):
        return {
            "total_self_s": self.total_self_s,
            "layers": {
                layer: {"self_s": self.self_s[layer],
                        "self_share": self.share(layer),
                        "calls": self.calls[layer]}
                for layer in LAYERS
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls,
                 "inclusive_s": inclusive_s}
                for (caller, callee), (calls, inclusive_s)
                in sorted(self.edges.items())
            ],
        }


def fold(stats):
    """Fold a ``pstats.Stats(...).stats`` dict into a :class:`Fold`."""
    memo = {}

    def shares(func, visiting):
        """Layer -> fraction of ``func``'s cost that layer is billed."""
        layer = own_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in stats:
            return {OTHER: 1.0}
        callers = stats[func][4]
        # Weight callers by the inclusive time spent under each; fall
        # back to call counts when the profile's clock never ticked.
        weights = {c: row[3] for c, row in callers.items()}
        if not any(weights.values()):
            weights = {c: row[0] for c, row in callers.items()}
        total = sum(weights.values())
        if not total:
            return {OTHER: 1.0}
        out = {}
        for caller, weight in weights.items():
            for name, part in shares(caller, visiting | {func}).items():
                out[name] = out.get(name, 0.0) + part * weight / total
        memo[func] = out
        return out

    result = Fold()
    for func, (_, calls, self_s, _, callers) in stats.items():
        result.total_self_s += self_s
        layer = own_layer(func[0])
        if layer is not None:
            result.self_s[layer] += self_s
            result.calls[layer] += calls
        else:
            # Self time under each caller, billed to that caller's layers;
            # whatever the callers table does not cover goes to "other".
            covered = 0.0
            for caller, row in callers.items():
                covered += row[2]
                for name, part in shares(caller, frozenset({func})).items():
                    result.self_s[name] += row[2] * part
            result.self_s[OTHER] += self_s - covered
            continue
        for caller, row in callers.items():
            for name, part in shares(caller, frozenset()).items():
                if name != layer:
                    edge = result.edges.setdefault((name, layer), [0, 0.0])
                    edge[0] += row[0] * part
                    edge[1] += row[3] * part
    return result


def calls_to(stats, path_suffix, funcname):
    """Exact number of calls the profile saw to ``funcname`` defined in a
    file ending with ``path_suffix`` (0 when it never ran)."""
    return sum(
        row[1] for (filename, _, name), row in stats.items()
        if name == funcname
        and filename.replace("\\", "/").endswith(path_suffix)
    )

"""Loaded programs: verified, JIT-compiled, map-bound, ready to attach.

``load_program`` mirrors the kernel's ``bpf(BPF_PROG_LOAD, ...)``: it runs
the verifier, resolves declared maps, and JIT-compiles.  The returned
:class:`LoadedProgram` is what hooks invoke per input.

Cycle accounting: the first ``profile_runs`` invocations go through the
interpreter to measure real executed cycles (different policies execute very
different instruction counts — e.g. SCAN Avoid usually exits its unrolled
loop on the first probe).  After profiling, invocations use the JIT and the
hook charges the measured average.
"""

import random

from repro.ebpf.errors import VerifierError
from repro.ebpf.jit import jit_compile
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.verifier import verify
from repro.ebpf.vm import CYCLE_COSTS, execute

__all__ = ["LoadedProgram", "load_program"]

DEFAULT_PROFILE_RUNS = 32


class LoadedProgram:
    """A verified program bound to its maps and global state."""

    def __init__(self, program, maps, rng=None, profile_runs=DEFAULT_PROFILE_RUNS):
        self.program = program
        self.maps = list(maps)
        self.globals = list(program.globals_init)
        self.rng = rng if rng is not None else random.Random(0)
        self.profile_runs = profile_runs
        # IR-authored programs (repro.ebpf.asm) carry no AST: they run on
        # the interpreter only, like eBPF on a non-JIT kernel.
        self._jit = jit_compile(program) if program.func_ast is not None else None
        self.invocations = 0
        self._profiled_cycles = 0
        self._profiled_count = 0
        # Pre-profiling fallback: static straight-line estimate.
        self._static_cycles = sum(CYCLE_COSTS[i.op] for i in program.insns)
        self.verifier_stats = None
        # Optional dict of obs metric objects ("invocations",
        # "insns_interp", "cycles_interp", "jit_runs"); set by syrupd at
        # deploy time when the machine runs with metrics enabled.
        self.metrics = None

    @property
    def name(self):
        return self.program.name

    @property
    def cycle_estimate(self):
        """Average cycles per invocation (profiled, else static estimate)."""
        if self._profiled_count:
            return self._profiled_cycles / self._profiled_count
        return float(self._static_cycles)

    def map_by_name(self, name):
        for bpf_map, declared in zip(self.maps, self.program.map_names):
            if declared == name:
                return bpf_map
        raise KeyError(f"program {self.name!r} declares no map {name!r}")

    def run(self, packet):
        """Execute the policy on one input; returns the u32 decision."""
        self.invocations += 1
        metrics = self.metrics
        if self._jit is None or self._profiled_count < self.profile_runs:
            result = execute(
                self.program, packet, self.maps, self.globals, self.rng
            )
            self._profiled_cycles += result.cycles
            self._profiled_count += 1
            if metrics is not None:
                metrics["invocations"].inc()
                metrics["insns_interp"].inc(result.insns_executed)
                metrics["cycles_interp"].inc(result.cycles)
            return result.value
        if metrics is not None:
            metrics["invocations"].inc()
            metrics["jit_runs"].inc()
        return self._jit(packet, self.globals, self.maps, self.rng)

    def run_interp(self, packet):
        """Force one interpreted run; returns the full ExecutionResult."""
        return execute(self.program, packet, self.maps, self.globals, self.rng)

    def run_jit(self, packet):
        """Force one JIT run; returns the decision value only."""
        if self._jit is None:
            raise RuntimeError(
                f"program {self.name!r} was authored as IR; no JIT available"
            )
        return self._jit(packet, self.globals, self.maps, self.rng)

    def __repr__(self):
        return f"<LoadedProgram {self.name!r} invocations={self.invocations}>"


def load_program(
    program,
    maps=None,
    rng=None,
    map_factory=None,
    profile_runs=DEFAULT_PROFILE_RUNS,
    optimize=False,
):
    """Verify + JIT + bind maps; the BPF_PROG_LOAD analogue.

    Args:
        program: output of :func:`repro.ebpf.compiler.compile_policy`.
        maps: dict mapping declared map *names* to existing BpfMap objects
            (share a map between programs by passing the same object).
            Missing maps are created via ``map_factory``.
        map_factory: callable ``(name, size) -> BpfMap``; defaults to
            :class:`HashMap` (an :class:`ArrayMap` is used when a program
            suffixes the declared name with ``"_array"``).
        optimize: run the IR peephole optimizer before verification.
    """
    if optimize:
        from repro.ebpf.optimizer import optimize as run_optimizer

        program = run_optimizer(program)
    stats = verify(program)
    maps = dict(maps or {})
    if map_factory is None:
        def map_factory(name, size):
            if name.endswith("_array"):
                return ArrayMap(name, size)
            return HashMap(name, size)
    bound = []
    for name, size in zip(program.map_names, program.map_sizes):
        if name not in maps:
            maps[name] = map_factory(name, size)
        bound.append(maps[name])
    loaded = LoadedProgram(program, bound, rng=rng, profile_runs=profile_runs)
    loaded.verifier_stats = stats
    return loaded


def require_verified(program):
    """Raise VerifierError unless the program verifies (convenience)."""
    verify(program)
    return program

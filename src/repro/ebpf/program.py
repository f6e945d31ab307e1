"""Program images and their bindings: verify once, attach many.

Loading mirrors the kernel's ``bpf(BPF_PROG_LOAD, ...)`` in two steps:

- A :class:`ProgramImage` is what is a pure function of the program text:
  the :class:`~repro.ebpf.insn.Program`, its verifier stats, the verified
  IR compiled in both modes of :mod:`repro.ebpf.vm` — the JIT factory and
  the interpreter runner, both stateless: the runner takes ``globals,
  maps, rng`` as arguments, the factory takes ``maps`` and returns a
  policy taking ``globals, rng`` — and the static cycle sum.  Every image
  has both, IR-authored ones (:mod:`repro.ebpf.asm`) included.  It
  is immutable and shared; :func:`image_of` memoises it on all that
  compilation reads — entry point, text, name, every supplied constant —
  so redeploying a text the process has loaded before compiles, verifies
  and generates nothing.  Verification is never skipped, only not repeated: each
  memoised image came out of compile → verify → IR compile + JIT on
  exactly its key, rejections are not memoised, and a caller's own
  ``Program`` (which the caller can still edit) is verified on every load.
- A :class:`LoadedProgram` is one *binding* of an image, what hooks invoke
  per input.  It owns all an attachment can change — map bindings, globals,
  RNG stream, invocation count, cycle profile, metric handles — so two
  loads of one text never see each other's state.  Its JIT policy is its
  own closure, made once by calling the image's factory with its maps, and
  the two counters a JIT run bumps are resolved when ``metrics`` is
  assigned, so a run does no dict lookup and calls no ``inc``.

Cycle accounting: each binding's first ``profile_runs`` invocations go
through the interpreter — the image's IR compiled once by
:func:`repro.ebpf.vm.compile_ir`, counting per basic block — to measure
real executed cycles (SCAN Avoid usually exits its unrolled loop on the
first probe; the count depends on map state and random draws, so a
profile is never carried across loads).  After that, invocations use the
JIT — the same verified IR, without the counting — and the hook charges
the measured average.
"""

import functools
import random
from collections import namedtuple

from repro.ebpf.compiler import compile_policy, function_source
from repro.ebpf.insn import Program
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.verifier import verify
from repro.ebpf.vm import CYCLE_COSTS, compile_ir, execute, jit_compile

__all__ = ["LoadedProgram", "ProgramImage", "image_of", "load_program",
           "text_image"]

DEFAULT_PROFILE_RUNS = 32
#: Images kept (LRU): a run loads a handful; a fuzzing sweep stays flat.
IMAGE_MEMO_SIZE = 128


class ProgramImage(
    namedtuple("ProgramImage",
               "program verifier_stats jit interp static_cycles")
):
    """A verified program and what derives from it alone: the two modes
    of its compiled IR, ``jit`` (the factory of
    :func:`~repro.ebpf.vm.jit_compile`) and ``interp``
    (:func:`~repro.ebpf.vm.compile_ir`), and ``static_cycles``, the
    estimate a binding reports before its first profiled run."""

    __slots__ = ()

    @classmethod
    def build(cls, program):
        """Verify, compile the IR and JIT ``program``; raises
        VerifierError."""
        stats = verify(program)
        cycles = sum(CYCLE_COSTS[insn.op] for insn in program.insns)
        return cls(program, stats, jit_compile(program), compile_ir(program),
                   cycles)


@functools.lru_cache(maxsize=IMAGE_MEMO_SIZE)
def text_image(compiler, text, name, constants):
    """The memo behind :func:`image_of` (``constants``: sorted item tuple);
    ``__wrapped__`` / ``cache_clear()`` give tests a cold build."""
    return ProgramImage.build(
        compiler(text, name=name, constants=dict(constants))
    )


def image_of(policy, compiler=compile_policy, constants=None):
    """The :class:`ProgramImage` for ``policy``: text, or a Python function
    resolved to its text, compiled by ``compiler`` (the entry point —
    :func:`repro.qdisc.discipline.compile_rank` for ``def rank``) and
    memoised; a ``Program`` is verified afresh, never memoised.  Raises
    CompileError/VerifierError."""
    if isinstance(policy, Program):
        return ProgramImage.build(policy)
    name = None
    if callable(policy):
        policy, name = function_source(policy)
    constants = tuple(sorted((constants or {}).items()))
    try:
        hash(constants)
    except TypeError:
        # Unhashable values cannot key the memo; they reach the compiler,
        # whose error is the one the user should see.
        return text_image.__wrapped__(compiler, policy, name, constants)
    return text_image(compiler, policy, name, constants)


class LoadedProgram:
    """One binding of a verified image: its maps and its mutable state.

    ``maps`` maps declared map *names* to existing BpfMap objects (share a
    map between programs by passing the same object); missing ones are
    created, an :class:`ArrayMap` for names ending ``"_array"``, else a
    :class:`HashMap`.
    """

    def __init__(self, image, maps=None, rng=None,
                 profile_runs=DEFAULT_PROFILE_RUNS):
        self.image = image
        self.program = program = image.program
        self.verifier_stats = image.verifier_stats
        self._interp = image.interp
        maps = dict(maps or {})
        self.maps = []
        for name, size in zip(program.map_names, program.map_sizes):
            if name not in maps:
                kind = ArrayMap if name.endswith("_array") else HashMap
                maps[name] = kind(name, size)
            self.maps.append(maps[name])
        # The image's JIT factory closes this binding's policy over its
        # own maps, so ``maps`` entries are never reassigned after this.
        self._jit = image.jit(self.maps)
        self.globals = list(program.globals_init)
        self.rng = rng if rng is not None else random.Random(0)
        self.profile_runs = profile_runs
        self.invocations = 0
        self._profiled_cycles = 0
        self._profiled_count = 0
        #: Average cycles per invocation: the static estimate until the
        #: first profiled run, then the profiled average.
        self.cycle_estimate = float(image.static_cycles)
        self.metrics = None

    @property
    def metrics(self):
        """Optional dict of obs counters ("invocations", "insns_interp",
        "cycles_interp", "jit_runs"), set by syrupd at deploy time when
        metrics are on; assigning it binds the two a JIT run bumps."""
        return self._metrics

    @metrics.setter
    def metrics(self, metrics):
        self._metrics = metrics
        self._m_jit = metrics and (metrics["invocations"], metrics["jit_runs"])

    @property
    def name(self):
        return self.program.name

    def map_by_name(self, name):
        for bpf_map, declared in zip(self.maps, self.program.map_names):
            if declared == name:
                return bpf_map
        raise KeyError(f"program {self.name!r} declares no map {name!r}")

    def run(self, packet):
        """Execute the policy on one input; returns the u32 decision."""
        self.invocations += 1
        if self._profiled_count < self.profile_runs:
            result = execute(self.program, packet, self.maps, self.globals,
                             self.rng, self._interp)
            self._profiled_cycles += result.cycles
            self._profiled_count += 1
            self.cycle_estimate = self._profiled_cycles / self._profiled_count
            if self._metrics is not None:
                self._metrics["invocations"].inc()
                self._metrics["insns_interp"].inc(result.insns_executed)
                self._metrics["cycles_interp"].inc(result.cycles)
            return result.value
        if self._m_jit:
            for counter in self._m_jit:  # Counter.inc(), written out
                counter.value += 1
                counter.updated_at = counter._clock.now
        return self._jit(packet, self.globals, self.rng)

    def run_interp(self, packet):
        """Force one interpreted run; returns the full ExecutionResult."""
        return execute(self.program, packet, self.maps, self.globals,
                       self.rng, self._interp)

    def run_jit(self, packet):
        """Force one JIT run; returns the decision value only."""
        return self._jit(packet, self.globals, self.rng)

    def __repr__(self):
        return f"<LoadedProgram {self.name!r} invocations={self.invocations}>"


def load_program(program, maps=None, rng=None,
                 profile_runs=DEFAULT_PROFILE_RUNS):
    """Verify + JIT + bind maps, the BPF_PROG_LOAD analogue: build the image
    of ``program`` (:func:`repro.ebpf.compiler.compile_policy` output, or
    :func:`repro.ebpf.optimizer.optimize` of it) and bind it; ``maps`` as
    for :class:`LoadedProgram`."""
    return LoadedProgram(ProgramImage.build(program), maps, rng, profile_runs)

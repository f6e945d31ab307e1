"""An eBPF-like execution substrate, in Python.

The real Syrup deploys policies as eBPF bytecode: user C code is compiled,
statically verified by the kernel (bounded execution, proven packet bounds),
JIT-compiled, and run at kernel hooks with access to eBPF maps.  This package
reproduces that pipeline end to end:

- :mod:`repro.ebpf.compiler` — compiles a *restricted Python subset* (the
  analogue of the paper's "safe subset of C") to a stack-machine IR.
- :mod:`repro.ebpf.verifier` — static verifier: forward-only jumps (hence
  guaranteed termination), instruction budget, abstract interpretation that
  *proves* every packet load is covered by an explicit ``pkt_len`` check —
  the reason the paper passes ``pkt_start``/``pkt_end`` pointers.
- :mod:`repro.ebpf.vm` — one code generator over the verified IR, in two
  modes, each compiled once per image: the interpreter, which returns the
  exact executed cycle and instruction counts, counting per basic block
  (used for Table 2), and the JIT (the analogue of the kernel's eBPF JIT,
  which translates verified bytecode), the same code without the counting
  that the simulated datapath runs: one stateless factory per image,
  closed over each binding's maps.
- :mod:`repro.ebpf.maps` — array/hash/prog-array maps with pinning support.

Programs and maps here are *mechanism*; policy deployment, isolation and the
Map API live in :mod:`repro.core`.
"""

from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import CompileError, VerifierError, VmFault
from repro.ebpf.insn import Insn, Program
from repro.ebpf.maps import ArrayMap, HashMap, ProgArrayMap
from repro.ebpf.program import LoadedProgram, load_program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import ExecutionResult, compile_ir, execute, jit_compile

__all__ = [
    "ArrayMap",
    "CompileError",
    "ExecutionResult",
    "HashMap",
    "Insn",
    "LoadedProgram",
    "ProgArrayMap",
    "Program",
    "VerifierError",
    "VmFault",
    "compile_ir",
    "compile_policy",
    "execute",
    "jit_compile",
    "load_program",
    "verify",
]

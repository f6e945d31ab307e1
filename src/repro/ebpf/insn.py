"""Instruction set and program container for the stack-machine IR.

The IR is a small stack machine (easier to target from an AST than eBPF's
register file while preserving the properties the verifier needs: explicit
jumps, immediate-only packet offsets, helper calls against map slots).

Values are unsigned 64-bit integers; arithmetic wraps (mask ``U64``),
comparisons are unsigned — matching eBPF's ALU64 semantics.
"""

__all__ = ["Insn", "OPCODES", "Program", "U64", "BINOPS", "CMPOPS"]

U64 = (1 << 64) - 1

# opcode -> (immediate arity, stack pops, stack pushes)
OPCODES = {
    "CONST": (1, 0, 1),      # push imm
    "LOADL": (1, 0, 1),      # push locals[imm]
    "STOREL": (1, 1, 0),     # locals[imm] = pop
    "LOADG": (1, 0, 1),      # push globals[imm]
    "STOREG": (1, 1, 0),     # globals[imm] = pop
    "PKTLEN": (0, 0, 1),     # push packet length
    "LDPKT": (2, 0, 1),      # push load(offset=imm_a, width=imm_b)
    "ADD": (0, 2, 1),
    "SUB": (0, 2, 1),
    "MUL": (0, 2, 1),
    "DIV": (0, 2, 1),        # unsigned floor division; x/0 == 0 (eBPF rule)
    "MOD": (0, 2, 1),        # x%0 == x? eBPF defines x%0 == x; we use 0-safe x
    "AND": (0, 2, 1),
    "OR": (0, 2, 1),
    "XOR": (0, 2, 1),
    "SHL": (0, 2, 1),
    "SHR": (0, 2, 1),
    "NEG": (0, 1, 1),
    "INV": (0, 1, 1),        # bitwise not
    "CMPEQ": (0, 2, 1),
    "CMPNE": (0, 2, 1),
    "CMPLT": (0, 2, 1),
    "CMPLE": (0, 2, 1),
    "CMPGT": (0, 2, 1),
    "CMPGE": (0, 2, 1),
    "BOOL": (0, 1, 1),       # normalize to 0/1
    "NOT": (0, 1, 1),        # logical not
    "DUP": (0, 1, 2),
    "POP": (0, 1, 0),
    "JMP": (1, 0, 0),        # unconditional forward jump
    "JZ": (1, 1, 0),         # pop; jump if zero
    "JNZ": (1, 1, 0),        # pop; jump if non-zero
    "MAPLOOKUP": (1, 1, 1),  # map slot imm; pop key; push value (0 if absent)
    "MAPHAS": (1, 1, 1),     # map slot imm; pop key; push 1/0
    "MAPUPDATE": (1, 2, 1),  # map slot imm; pop value, key; push 0
    "MAPDELETE": (1, 1, 1),  # map slot imm; pop key; push 1 if existed
    "ATOMICADD": (1, 2, 1),  # map slot imm; pop delta, key; push new value
    "RANDOM": (0, 0, 1),     # push pseudo-random u32
    "RET": (0, 1, 0),        # pop; return
}

BINOPS = {"ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR", "SHL", "SHR"}
CMPOPS = {"CMPEQ", "CMPNE", "CMPLT", "CMPLE", "CMPGT", "CMPGE"}


class Insn:
    """One instruction: an opcode plus up to two immediates."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        if op not in OPCODES:
            raise ValueError(f"unknown opcode {op!r}")
        self.op = op
        self.a = a
        self.b = b

    def __repr__(self):
        parts = [self.op]
        if self.a is not None:
            parts.append(str(self.a))
        if self.b is not None:
            parts.append(str(self.b))
        return " ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, Insn)
            and (self.op, self.a, self.b) == (other.op, other.a, other.b)
        )

    def __hash__(self):
        return hash((self.op, self.a, self.b))


class Program:
    """A compiled, not-yet-loaded program, frozen once built: every load of
    a text shares one verified Program (:mod:`repro.ebpf.program`), so its
    instruction stream can be neither edited nor re-pointed afterwards.

    Attributes:
        name: program name (usually the policy file/function name).
        insns: tuple of :class:`Insn`.
        n_locals: number of local-variable slots.
        global_names / globals_init: module-level mutable state (the
            analogue of an eBPF ``.data`` section; the paper's round-robin
            ``idx`` lives here).
        map_names: map slot index -> declared map name.
        map_sizes: declared max_entries per map slot (None = unspecified).
        source: original policy source text.
        loc: non-blank, non-comment source lines (reported in Table 2).
    """

    __slots__ = ("name insns n_locals global_names globals_init map_names "
                 "map_sizes map_vars source loc constants").split()

    def __init__(
        self,
        name,
        insns,
        n_locals,
        global_names,
        globals_init,
        map_names,
        map_sizes,
        map_vars,
        source,
        loc,
        constants=None,
    ):
        init = super().__setattr__
        init("name", name)
        init("insns", tuple(insns))
        init("n_locals", n_locals)
        init("global_names", list(global_names))
        init("globals_init", list(globals_init))
        init("map_names", list(map_names))
        init("map_sizes", list(map_sizes))
        init("map_vars", list(map_vars))
        init("source", source)
        init("loc", loc)
        init("constants", dict(constants or {}))

    def __setattr__(self, name, value):
        raise AttributeError(f"Program is frozen; cannot set {name!r}")

    @property
    def n_insns(self):
        return len(self.insns)

    def __repr__(self):
        return (
            f"<Program {self.name!r} insns={len(self.insns)} "
            f"maps={self.map_names}>"
        )

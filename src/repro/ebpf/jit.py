"""JIT: translate a compiled policy back into a native Python function.

The kernel JIT-compiles verified eBPF bytecode to machine code so invoking a
program is "as cheap as a regular function call" (paper §4.1).  Our analogue
generates Python source from the policy's validated AST and ``exec``s it.
The generated function has exactly the semantics of the IR interpreter,
and a hypothesis property test asserts agreement on randomized programs
and inputs.  Reads cost no Python frame: ``map_lookup`` / ``map_has`` call
the map's slots dict's bound ``get`` with :mod:`repro.ebpf.helpers`'
``& U64`` mask and absent-key-reads-0 rule written out, and a packet load
slices the bytes behind ``WireView.load``'s bounds check (past the end it
calls ``load``, for its ``IndexError``).  ``%`` / ``//`` by a nonzero
literal are plain Python operators (``a % c`` needs no mask for
``0 < c <= U64``).  A divisor that may be zero and the map writes, which
carry the helpers' error codes, still call :mod:`repro.ebpf.helpers`.

Place in the dispatch path: hooks never call this module directly.
:mod:`repro.ebpf.program` calls :func:`jit_compile` once per program
image, which holds the result: a stateless *factory*, shared by every
binding of a text.  Each binding calls it once with its own maps and gets
its own ``_policy`` closure over those maps' reads — two bindings share
no state — and :mod:`repro.ebpf.program` says when a
binding runs it instead of the interpreter.  Programs authored directly as
IR (:mod:`repro.ebpf.asm`) carry no AST and skip the JIT entirely, like
eBPF on a kernel with the JIT disabled.

For observability and debugging, the factory exposes ``jit_source`` (the
exact generated Python, shared by the image's bindings) and
``jit_n_lines`` (the policy function's code size, binding prologue
excluded, exported as the ``jit_code_lines`` gauge when metrics are on).

The simulated datapath runs the JIT for speed; the interpreter — the same
program's IR compiled once per image by :func:`repro.ebpf.vm.compile_ir`,
counting cycles per basic block — remains the cycle-accounting reference
(Table 2).
"""

import ast

from repro.constants import PASS
from repro.ebpf import helpers
from repro.ebpf.compiler import (
    _BINOP_TABLE,
    _BUILTIN_VALUES,
    _CMP_TABLE,
    _LOAD_WIDTHS,
    fold_const,
)
from repro.ebpf.errors import CompileError
from repro.ebpf.insn import U64

__all__ = ["jit_compile"]

_PY_BINOP = {
    "ADD": "+", "SUB": "-", "MUL": "*",
    "AND": "&", "OR": "|", "XOR": "^",
}

_PY_CMP = {
    "CMPEQ": "==", "CMPNE": "!=",
    "CMPLT": "<", "CMPLE": "<=", "CMPGT": ">", "CMPGE": ">=",
}


def jit_compile(program):
    """Return the stateless factory ``bind(maps_list) -> policy``, where
    ``policy(packet, globals_list, rng) -> int`` is closed over the slots
    dict's ``get`` of every map the program reads."""
    gen = _CodeGen(program)
    policy = gen.generate()
    source = "".join(
        ["def _bind(M):\n"]
        + [f"    _l{slot} = M[{slot}]._values.get\n"
           for slot in sorted(gen.read_maps)]
        + policy
        + ["    return _policy\n"]
    )
    namespace = {
        "_fb": int.from_bytes,
        "_div": helpers.div_u64,
        "_mod": helpers.mod_u64,
        "_mu": helpers.map_update,
        "_md": helpers.map_delete,
        "_ma": helpers.atomic_add,
    }
    exec(compile(source, f"<jit:{program.name}>", "exec"), namespace)
    factory = namespace["_bind"]
    factory.jit_source = source
    factory.jit_n_lines = len(policy)
    return factory


class _CodeGen:
    def __init__(self, program):
        self.program = program
        self.constants = program.constants
        func = program.func_ast
        self.pkt_name = func.args.args[0].arg
        self.global_slots = {
            name: i for i, name in enumerate(program.global_names)
        }
        self.map_slots = {name: i for i, name in enumerate(program.map_vars)}
        self.declared_globals = set()
        self.assigned = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                self.declared_globals.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigned.add(target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    self.assigned.add(node.target.id)
            elif isinstance(node, ast.For):
                if isinstance(node.target, ast.Name):
                    self.assigned.add(node.target.id)
        self.lines = []
        #: Map slots read by map_lookup / map_has: bound once per binding.
        self.read_maps = set()
        self.n_reads = 0

    # ------------------------------------------------------------------
    def generate(self):
        """The policy function's lines, nested one level inside the
        factory."""
        self._emit(1, "def _policy(u_pkt, G, _rng):")
        body = self.program.func_ast.body
        self._block(body, 2)
        self._emit(2, f"return {PASS}")
        return self.lines

    def _emit(self, indent, text):
        self.lines.append("    " * indent + text + "\n")

    def _block(self, stmts, indent):
        emitted = False
        for stmt in stmts:
            emitted = self._stmt(stmt, indent) or emitted
        if not emitted:
            self._emit(indent, "pass")

    # ------------------------------------------------------------------
    def _target(self, name):
        if name in self.declared_globals:
            return f"G[{self.global_slots[name]}]"
        return f"u_{name}"

    def _stmt(self, node, indent):
        """Emit one statement; returns True if any code was emitted."""
        if isinstance(node, ast.Return):
            value = self._ex(node.value) if node.value is not None else str(PASS)
            self._emit(indent, f"return {value}")
        elif isinstance(node, ast.Assign):
            self._emit(indent, f"{self._target(node.targets[0].id)} = {self._ex(node.value)}")
        elif isinstance(node, ast.AugAssign):
            op = _BINOP_TABLE[type(node.op)]
            target = self._target(node.target.id)
            combined = self._binop_text(op, target, self._ex(node.value))
            self._emit(indent, f"{target} = {combined}")
        elif isinstance(node, ast.If):
            self._emit(indent, f"if {self._ex(node.test)}:")
            self._block(node.body, indent + 1)
            if node.orelse:
                self._emit(indent, "else:")
                self._block(node.orelse, indent + 1)
        elif isinstance(node, ast.For):
            bounds = [fold_const(a, self.constants) for a in node.iter.args]
            if len(bounds) == 1:
                values = range(bounds[0])
            elif len(bounds) == 2:
                values = range(bounds[0], bounds[1])
            else:
                values = range(bounds[0], bounds[1], bounds[2])
            # Match the interpreter exactly: loop values are masked u64.
            masked = "".join(f"{v & U64}, " for v in values)
            self._emit(indent, f"for {self._target(node.target.id)} in ({masked}):")
            self._block(node.body, indent + 1)
        elif isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return False  # docstring
            self._emit(indent, self._ex(node.value))
        elif isinstance(node, (ast.Global, ast.Pass)):
            return False
        elif isinstance(node, ast.Break):
            self._emit(indent, "break")
        elif isinstance(node, ast.Continue):
            self._emit(indent, "continue")
        else:  # pragma: no cover - compiler already validated the AST
            raise CompileError(f"jit: unsupported statement {type(node).__name__}", node)
        return True

    # ------------------------------------------------------------------
    def _binop_text(self, op, left, right):
        if op in _PY_BINOP:
            masked = op in ("ADD", "SUB", "MUL")
            text = f"(({left}) {_PY_BINOP[op]} ({right}))"
            return f"({text} & {U64})" if masked else text
        # A nonzero literal divisor (every literal is already masked to
        # u64) needs no zero test, and ``a % c`` needs no mask either.
        if op == "DIV":
            if right.isdigit() and int(right):
                return f"((({left}) // {right}) & {U64})"
            return f"_div({left}, {right})"
        if op == "MOD":
            if right.isdigit() and int(right):
                return f"(({left}) % {right})"
            return f"_mod({left}, {right})"
        if op == "SHL":
            return f"(((({left}) << (({right}) & 63))) & {U64})"
        if op == "SHR":
            return f"(({left}) >> (({right}) & 63))"
        raise CompileError(f"jit: unsupported binop {op}")  # pragma: no cover

    def _ex(self, node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return str(int(node.value))
            return str(node.value & U64)
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.BinOp):
            op = _BINOP_TABLE[type(node.op)]
            return self._binop_text(op, self._ex(node.left), self._ex(node.right))
        if isinstance(node, ast.UnaryOp):
            inner = self._ex(node.operand)
            if isinstance(node.op, ast.USub):
                return f"((-({inner})) & {U64})"
            if isinstance(node.op, ast.Invert):
                return f"((~({inner})) & {U64})"
            if isinstance(node.op, ast.Not):
                return f"(0 if ({inner}) else 1)"
            return inner  # UAdd
        if isinstance(node, ast.Compare):
            op = _PY_CMP[_CMP_TABLE[type(node.ops[0])]]
            return (
                f"(1 if ({self._ex(node.left)}) {op} "
                f"({self._ex(node.comparators[0])}) else 0)"
            )
        if isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            return "(" + joiner.join(f"({self._ex(v)})" for v in node.values) + ")"
        if isinstance(node, ast.IfExp):
            return (
                f"(({self._ex(node.body)}) if ({self._ex(node.test)}) "
                f"else ({self._ex(node.orelse)}))"
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        raise CompileError(  # pragma: no cover
            f"jit: unsupported expression {type(node).__name__}", node
        )

    def _name(self, node):
        name = node.id
        if name in self.assigned and name not in self.declared_globals:
            return f"u_{name}"
        if name in self.global_slots:
            return f"G[{self.global_slots[name]}]"
        if name in self.constants:
            return str(int(self.constants[name]) & U64)
        if name in _BUILTIN_VALUES:
            return str(_BUILTIN_VALUES[name] & U64)
        raise CompileError(f"jit: unknown name {name!r}", node)  # pragma: no cover

    def _call(self, node):
        fname = node.func.id
        args = node.args
        if fname == "pkt_len":
            return "u_pkt.length"
        if fname in _LOAD_WIDTHS:
            offset = fold_const(args[1], self.constants)
            end = offset + _LOAD_WIDTHS[fname]  # the compiler: offset >= 0
            # WireView.load inlined; out of bounds, it raises the error
            return (f"(_fb((u_pkt._data or u_pkt.data)[{offset}:{end}], "
                    f"'little') if {end} <= u_pkt.length "
                    f"else u_pkt.load({offset}, {end - offset}))")
        if fname in ("map_lookup", "map_has"):
            # helpers.map_lookup / map_has inlined on the bound read
            slot = self.map_slots[args[0].id]
            self.read_maps.add(slot)
            read = f"_l{slot}(({self._ex(args[1])}) & {U64})"
            if fname == "map_has":
                return f"(0 if {read} is None else 1)"
            temp = f"_t{self.n_reads}"
            self.n_reads += 1
            return f"(0 if ({temp} := {read}) is None else {temp})"
        if fname == "map_update":
            return (
                f"_mu(M[{self.map_slots[args[0].id]}], "
                f"{self._ex(args[1])}, {self._ex(args[2])})"
            )
        if fname == "map_delete":
            return f"_md(M[{self.map_slots[args[0].id]}], {self._ex(args[1])})"
        if fname == "atomic_add":
            return (
                f"_ma(M[{self.map_slots[args[0].id]}], "
                f"{self._ex(args[1])}, {self._ex(args[2])})"
            )
        if fname == "get_random":
            return "_rng.getrandbits(32)"
        raise CompileError(f"jit: unknown builtin {fname!r}", node)  # pragma: no cover

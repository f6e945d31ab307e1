"""Compiler from the safe policy subset of Python to the stack-machine IR.

The paper's users write policies in "a safe subset of C"; ours write the same
policies in a safe subset of *Python*.  A policy file contains:

- optional ``from ... import ...`` lines (ignored; they make the file a valid
  standalone Python module),
- map declarations: ``scan_map = syr_map("scan_map", 64)``,
- module-level integer assignments, which become mutable program globals
  (the analogue of an eBPF ``.data`` section — the round-robin ``idx``),
- exactly one ``def schedule(pkt):`` function.

Supported inside ``schedule``: integer expressions, ``if``/``elif``/``else``,
``for i in range(...)`` over compile-time-constant bounds (unrolled, like
clang unrolls bounded loops for old eBPF targets), ``break``/``continue``,
``return``, ``global``, and calls to the builtins:

``pkt_len(pkt)``, ``load_u8/u16/u32/u64(pkt, const_offset)``,
``map_lookup/map_has/map_update/map_delete/atomic_add(map, ...)``,
``get_random()``, plus the constants ``PASS`` and ``DROP``.

Everything else — floats, strings, ``while``, attribute access, user function
calls, comprehensions — is rejected with a :class:`CompileError`, exactly as
clang/-target bpf would reject unsupported constructs.
"""

import ast
import inspect
import textwrap

from repro.constants import DROP, PASS
from repro.ebpf.errors import CompileError
from repro.ebpf.insn import Insn, Program, U64

__all__ = ["compile_policy", "count_loc", "function_source"]

_LOAD_WIDTHS = {"load_u8": 1, "load_u16": 2, "load_u32": 4, "load_u64": 8}

_BINOP_TABLE = {
    ast.Add: "ADD",
    ast.Sub: "SUB",
    ast.Mult: "MUL",
    ast.FloorDiv: "DIV",
    ast.Mod: "MOD",
    ast.BitAnd: "AND",
    ast.BitOr: "OR",
    ast.BitXor: "XOR",
    ast.LShift: "SHL",
    ast.RShift: "SHR",
}

_CMP_TABLE = {
    ast.Eq: "CMPEQ",
    ast.NotEq: "CMPNE",
    ast.Lt: "CMPLT",
    ast.LtE: "CMPLE",
    ast.Gt: "CMPGT",
    ast.GtE: "CMPGE",
}

_BUILTIN_VALUES = {"PASS": PASS, "DROP": DROP, "True": 1, "False": 0}


def count_loc(source):
    """Non-blank, non-comment source lines — the LoC metric of Table 2."""
    n = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            n += 1
    return n


def function_source(fn, name=None):
    """``(text, name)`` of a policy written as a Python function, named
    after the function unless ``name`` is given."""
    text = textwrap.dedent(inspect.getsource(fn))
    return text, (fn.__name__ if name is None else name)


def compile_policy(source, name=None, constants=None, unroll_limit=64):
    """Compile policy ``source`` (text or a Python function) to a Program.

    ``constants`` supplies compile-time immediates (the paper: "NUM_THREADS
    is a compile-time parameter").
    """
    if callable(source):
        source, name = function_source(source, name)
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise CompileError(f"policy is not valid Python: {exc}") from exc
    ctx = _ModuleContext(constants or {}, unroll_limit)
    func = ctx.scan_module(module)
    if name is None:
        name = func.name
    fn_compiler = _FunctionCompiler(ctx, func)
    insns = fn_compiler.compile()
    return Program(
        name=name,
        insns=insns,
        n_locals=len(fn_compiler.locals),
        global_names=ctx.global_names,
        globals_init=ctx.globals_init,
        map_names=ctx.map_names,
        map_sizes=ctx.map_sizes,
        map_vars=ctx.map_vars,
        source=source,
        loc=count_loc(source),
        constants=ctx.constants,
    )


class _ModuleContext:
    """Module-level declarations: constants, globals, maps."""

    def __init__(self, constants, unroll_limit):
        self.constants = dict(constants)
        self.unroll_limit = unroll_limit
        self.global_names = []
        self.globals_init = []
        self.map_names = []
        self.map_sizes = []
        self.map_vars = []
        self._map_slots = {}
        self._global_slots = {}

    def scan_module(self, module):
        func = None
        for node in module.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # allowed so policy files run standalone
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # module docstring
            if isinstance(node, ast.FunctionDef):
                if node.name != "schedule":
                    raise CompileError(
                        f"only a single 'schedule' function is allowed, "
                        f"found {node.name!r}",
                        node,
                    )
                if func is not None:
                    raise CompileError("duplicate 'schedule' function", node)
                func = node
                continue
            if isinstance(node, ast.Assign):
                self._module_assign(node)
                continue
            raise CompileError(
                f"unsupported module-level statement {type(node).__name__}", node
            )
        if func is None:
            raise CompileError("policy must define a 'schedule' function")
        args = func.args
        if (
            args.vararg
            or args.kwarg
            or args.kwonlyargs
            or args.defaults
            or len(args.args) != 1
        ):
            raise CompileError(
                "'schedule' must take exactly one argument (the packet)", func
            )
        return func

    def _module_assign(self, node):
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            raise CompileError("module-level assignment must be 'name = ...'", node)
        target = node.targets[0].id
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "syr_map"
        ):
            self._declare_map(target, value)
            return
        folded = fold_const(value, self.constants)
        if folded is None:
            raise CompileError(
                f"module-level value for {target!r} must be a constant integer "
                "or a syr_map(...) declaration",
                node,
            )
        if target in self._global_slots:
            raise CompileError(f"duplicate global {target!r}", node)
        self._global_slots[target] = len(self.global_names)
        self.global_names.append(target)
        self.globals_init.append(folded & U64)

    def _declare_map(self, target, call):
        if not call.args or not isinstance(call.args[0], ast.Constant) or not isinstance(
            call.args[0].value, str
        ):
            raise CompileError("syr_map() first argument must be a string name", call)
        map_name = call.args[0].value
        size = 256
        if len(call.args) > 1:
            folded = fold_const(call.args[1], self.constants)
            if folded is None or folded <= 0:
                raise CompileError("syr_map() size must be a positive constant", call)
            size = folded
        if len(call.args) > 2 or call.keywords:
            raise CompileError("syr_map() takes (name, size)", call)
        if target in self._map_slots:
            raise CompileError(f"duplicate map variable {target!r}", call)
        self._map_slots[target] = len(self.map_names)
        self.map_names.append(map_name)
        self.map_sizes.append(size)
        self.map_vars.append(target)

    def map_slot(self, name):
        return self._map_slots.get(name)

    def global_slot(self, name):
        return self._global_slots.get(name)


def fold_const(node, constants):
    """Evaluate a compile-time-constant integer expression, or return None."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return int(node.value)
        if isinstance(node.value, int):
            return node.value
        return None
    if isinstance(node, ast.Name):
        if node.id in constants:
            return int(constants[node.id])
        if node.id in _BUILTIN_VALUES:
            return _BUILTIN_VALUES[node.id]
        return None
    if isinstance(node, ast.UnaryOp):
        inner = fold_const(node.operand, constants)
        if inner is None:
            return None
        if isinstance(node.op, ast.USub):
            return -inner
        if isinstance(node.op, ast.Invert):
            return ~inner
        if isinstance(node.op, ast.UAdd):
            return inner
        return None
    if isinstance(node, ast.BinOp):
        op = _BINOP_TABLE.get(type(node.op))
        if op is None:
            return None
        left = fold_const(node.left, constants)
        right = fold_const(node.right, constants)
        if left is None or right is None:
            return None
        try:
            return _apply_binop_py(op, left, right)
        except (ZeroDivisionError, ValueError):
            return None
    return None


def _apply_binop_py(op, left, right):
    if op == "ADD":
        return left + right
    if op == "SUB":
        return left - right
    if op == "MUL":
        return left * right
    if op == "DIV":
        return left // right
    if op == "MOD":
        return left % right
    if op == "AND":
        return left & right
    if op == "OR":
        return left | right
    if op == "XOR":
        return left ^ right
    if op == "SHL":
        return left << right
    if op == "SHR":
        return left >> right
    raise ValueError(op)


class _LoopFrame:
    def __init__(self):
        self.break_patches = []
        self.continue_patches = []


class _FunctionCompiler:
    def __init__(self, ctx, func):
        self.ctx = ctx
        self.func = func
        self.pkt_name = func.args.args[0].arg
        self.insns = []
        self.locals = {}
        self.declared_globals = set()
        self._assigned = set()
        self._collect_assigned(func.body)
        self._loop_stack = []

    # ------------------------------------------------------------------
    def _collect_assigned(self, body):
        """Pre-pass: names assigned in the function become locals (Python
        scoping) unless declared ``global``."""
        for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(node, ast.Global):
                self.declared_globals.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._assigned.add(target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    self._assigned.add(node.target.id)
            elif isinstance(node, ast.For):
                if isinstance(node.target, ast.Name):
                    self._assigned.add(node.target.id)

    def _local_slot(self, name, create=False):
        slot = self.locals.get(name)
        if slot is None and create:
            slot = self.locals[name] = len(self.locals)
        return slot

    # ------------------------------------------------------------------
    def emit(self, op, a=None, b=None):
        self.insns.append(Insn(op, a, b))
        return len(self.insns) - 1

    def _patch(self, idx, target=None):
        self.insns[idx].a = len(self.insns) if target is None else target

    # ------------------------------------------------------------------
    def compile(self):
        for stmt in self.func.body:
            self.stmt(stmt)
        # Implicit tail: a policy that falls off the end defers to the
        # system default, like running with no policy at all.
        self.emit("CONST", PASS)
        self.emit("RET")
        if len(self.insns) > 65536:
            raise CompileError(
                f"program too large after unrolling ({len(self.insns)} insns)"
            )
        return self.insns

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def stmt(self, node):
        if isinstance(node, ast.Return):
            if node.value is None:
                self.emit("CONST", PASS)
            else:
                self.expr(node.value)
            self.emit("RET")
        elif isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node)
        elif isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, ast.For):
            self._for(node)
        elif isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return  # docstring / bare literal
            self.expr(node.value)
            self.emit("POP")
        elif isinstance(node, ast.Global):
            for gname in node.names:
                if self.ctx.global_slot(gname) is None:
                    raise CompileError(
                        f"'global {gname}' has no module-level definition", node
                    )
        elif isinstance(node, ast.Pass):
            pass
        elif isinstance(node, ast.Break):
            if not self._loop_stack:
                raise CompileError("'break' outside loop", node)
            self._loop_stack[-1].break_patches.append(self.emit("JMP"))
        elif isinstance(node, ast.Continue):
            if not self._loop_stack:
                raise CompileError("'continue' outside loop", node)
            self._loop_stack[-1].continue_patches.append(self.emit("JMP"))
        elif isinstance(node, ast.While):
            raise CompileError(
                "'while' is not allowed: only bounded 'for i in range(...)' "
                "loops are verifiable",
                node,
            )
        else:
            raise CompileError(
                f"unsupported statement {type(node).__name__}", node
            )

    def _store_name(self, name, node):
        if name in self.declared_globals:
            slot = self.ctx.global_slot(name)
            self.emit("STOREG", slot)
            return
        if name == self.pkt_name:
            raise CompileError("cannot reassign the packet argument", node)
        self.emit("STOREL", self._local_slot(name, create=True))

    def _assign(self, node):
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            raise CompileError("only simple 'name = expr' assignment", node)
        self.expr(node.value)
        self._store_name(node.targets[0].id, node)

    def _aug_assign(self, node):
        if not isinstance(node.target, ast.Name):
            raise CompileError("only simple 'name op= expr'", node)
        op = _BINOP_TABLE.get(type(node.op))
        if op is None:
            raise CompileError(
                f"unsupported augmented operator {type(node.op).__name__}", node
            )
        name = node.target.id
        self._load_name(name, node)
        self.expr(node.value)
        self.emit(op)
        self._store_name(name, node)

    def _if(self, node):
        self.expr(node.test)
        jz = self.emit("JZ")
        for stmt in node.body:
            self.stmt(stmt)
        if node.orelse:
            jmp = self.emit("JMP")
            self._patch(jz)
            for stmt in node.orelse:
                self.stmt(stmt)
            self._patch(jmp)
        else:
            self._patch(jz)

    def _for(self, node):
        if node.orelse:
            raise CompileError("for/else is not supported", node)
        if not isinstance(node.target, ast.Name):
            raise CompileError("loop target must be a simple name", node)
        it = node.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and not it.keywords
        ):
            raise CompileError("only 'for i in range(...)' loops", node)
        bounds = [fold_const(arg, self.ctx.constants) for arg in it.args]
        if any(b is None for b in bounds) or not 1 <= len(bounds) <= 3:
            raise CompileError(
                "range() bounds must be compile-time constants "
                "(pass them via constants= at deploy time)",
                node,
            )
        if len(bounds) == 1:
            values = range(bounds[0])
        elif len(bounds) == 2:
            values = range(bounds[0], bounds[1])
        else:
            if bounds[2] == 0:
                raise CompileError("range() step must be non-zero", node)
            values = range(bounds[0], bounds[1], bounds[2])
        if len(values) > self.ctx.unroll_limit:
            raise CompileError(
                f"loop trip count {len(values)} exceeds the unroll limit "
                f"({self.ctx.unroll_limit}); the verifier would reject it",
                node,
            )
        var = node.target.id
        frame = _LoopFrame()
        self._loop_stack.append(frame)
        try:
            for value in values:
                self.emit("CONST", value & U64)
                self._store_name(var, node)
                iter_continues_start = len(frame.continue_patches)
                for stmt in node.body:
                    self.stmt(stmt)
                # this iteration's continues land just after its body
                for idx in frame.continue_patches[iter_continues_start:]:
                    self._patch(idx)
                del frame.continue_patches[iter_continues_start:]
        finally:
            self._loop_stack.pop()
        for idx in frame.break_patches:
            self._patch(idx)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                self.emit("CONST", int(node.value))
            elif isinstance(node.value, int):
                self.emit("CONST", node.value & U64)
            else:
                raise CompileError(
                    f"unsupported literal {node.value!r} (integers only)", node
                )
        elif isinstance(node, ast.Name):
            self._load_name(node.id, node)
        elif isinstance(node, ast.BinOp):
            op = _BINOP_TABLE.get(type(node.op))
            if op is None:
                raise CompileError(
                    f"unsupported operator {type(node.op).__name__} "
                    "(note: use // for integer division)",
                    node,
                )
            self.expr(node.left)
            self.expr(node.right)
            self.emit(op)
        elif isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                self.expr(node.operand)
                self.emit("NOT")
            elif isinstance(node.op, ast.USub):
                self.expr(node.operand)
                self.emit("NEG")
            elif isinstance(node.op, ast.Invert):
                self.expr(node.operand)
                self.emit("INV")
            elif isinstance(node.op, ast.UAdd):
                self.expr(node.operand)
            else:
                raise CompileError("unsupported unary operator", node)
        elif isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise CompileError(
                    "chained comparisons are not supported; split them", node
                )
            op = _CMP_TABLE.get(type(node.ops[0]))
            if op is None:
                raise CompileError(
                    f"unsupported comparison {type(node.ops[0]).__name__}", node
                )
            self.expr(node.left)
            self.expr(node.comparators[0])
            self.emit(op)
        elif isinstance(node, ast.BoolOp):
            self._boolop(node)
        elif isinstance(node, ast.IfExp):
            self.expr(node.test)
            jz = self.emit("JZ")
            self.expr(node.body)
            jmp = self.emit("JMP")
            self._patch(jz)
            self.expr(node.orelse)
            self._patch(jmp)
        elif isinstance(node, ast.Call):
            self._call(node)
        else:
            raise CompileError(
                f"unsupported expression {type(node).__name__}", node
            )

    def _load_name(self, name, node):
        if name == self.pkt_name:
            raise CompileError(
                "the packet argument can only be passed to packet builtins "
                "(pkt_len, load_u8/u16/u32/u64)",
                node,
            )
        if name in self._assigned and name not in self.declared_globals:
            slot = self._local_slot(name)
            if slot is None:
                raise CompileError(
                    f"local {name!r} read before assignment on this path", node
                )
            self.emit("LOADL", slot)
            return
        gslot = self.ctx.global_slot(name)
        if gslot is not None:
            self.emit("LOADG", gslot)
            return
        if name in self.ctx.constants:
            self.emit("CONST", int(self.ctx.constants[name]) & U64)
            return
        if name in _BUILTIN_VALUES:
            self.emit("CONST", _BUILTIN_VALUES[name] & U64)
            return
        if self.ctx.map_slot(name) is not None:
            raise CompileError(
                f"map {name!r} can only be passed to map builtins", node
            )
        raise CompileError(f"unknown name {name!r}", node)

    def _boolop(self, node):
        jump_op = "JZ" if isinstance(node.op, ast.And) else "JNZ"
        patches = []
        for i, value in enumerate(node.values):
            self.expr(value)
            if i < len(node.values) - 1:
                self.emit("DUP")
                patches.append(self.emit(jump_op))
                self.emit("POP")
        for idx in patches:
            self._patch(idx)

    # ------------------------------------------------------------------
    def _call(self, node):
        if not isinstance(node.func, ast.Name):
            raise CompileError("only builtin function calls are allowed", node)
        if node.keywords:
            raise CompileError("keyword arguments are not supported", node)
        fname = node.func.id
        args = node.args
        if fname == "pkt_len":
            self._expect_pkt_arg(node, args, 1)
            self.emit("PKTLEN")
        elif fname in _LOAD_WIDTHS:
            self._expect_pkt_arg(node, args, 2)
            offset = fold_const(args[1], self.ctx.constants)
            if offset is None or offset < 0:
                raise CompileError(
                    f"{fname}() offset must be a non-negative compile-time "
                    "constant (the verifier cannot bound variable offsets)",
                    node,
                )
            self.emit("LDPKT", offset, _LOAD_WIDTHS[fname])
        elif fname == "map_lookup":
            slot = self._map_arg(node, args, 2)
            self.expr(args[1])
            self.emit("MAPLOOKUP", slot)
        elif fname == "map_has":
            slot = self._map_arg(node, args, 2)
            self.expr(args[1])
            self.emit("MAPHAS", slot)
        elif fname == "map_update":
            slot = self._map_arg(node, args, 3)
            self.expr(args[1])
            self.expr(args[2])
            self.emit("MAPUPDATE", slot)
        elif fname == "map_delete":
            slot = self._map_arg(node, args, 2)
            self.expr(args[1])
            self.emit("MAPDELETE", slot)
        elif fname == "atomic_add":
            slot = self._map_arg(node, args, 3)
            self.expr(args[1])
            self.expr(args[2])
            self.emit("ATOMICADD", slot)
        elif fname == "get_random":
            if args:
                raise CompileError("get_random() takes no arguments", node)
            self.emit("RANDOM")
        elif fname == "syr_map":
            raise CompileError(
                "syr_map() declarations belong at module level", node
            )
        else:
            raise CompileError(
                f"call to unknown function {fname!r}; only the policy "
                "builtins can be called",
                node,
            )

    def _expect_pkt_arg(self, node, args, nargs):
        if len(args) != nargs:
            raise CompileError(
                f"{node.func.id}() takes {nargs} argument(s)", node
            )
        if not (isinstance(args[0], ast.Name) and args[0].id == self.pkt_name):
            raise CompileError(
                f"{node.func.id}() first argument must be the packet "
                f"parameter {self.pkt_name!r}",
                node,
            )

    def _map_arg(self, node, args, nargs):
        if len(args) != nargs:
            raise CompileError(
                f"{node.func.id}() takes {nargs} argument(s)", node
            )
        if not isinstance(args[0], ast.Name):
            raise CompileError(
                f"{node.func.id}() first argument must be a declared map", node
            )
        slot = self.ctx.map_slot(args[0].id)
        if slot is None:
            raise CompileError(
                f"{args[0].id!r} is not a declared map (use "
                f"'{args[0].id} = syr_map(\"{args[0].id}\", size)')",
                node,
            )
        return slot

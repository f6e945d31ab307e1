"""Peephole optimizer for the policy IR.

Three semantics-preserving passes, run to a fixed point:

1. **Constant folding** — ALU/compare ops over two CONSTs collapse, and
   branches on a constant condition become unconditional (or fall away).
2. **Push-pop elimination** — a side-effect-free push followed by POP
   disappears (comes up from expression statements and folded branches).
3. **Dead-code elimination** — instructions unreachable from entry are
   dropped (e.g. branches the folder proved never taken).

Equivalence with the unoptimized program is enforced by property tests
(tests/test_ebpf_optimizer.py; tests/test_ebpf_property.py for both
execution modes, which compile the optimized IR alike).  The compiler does not run this by default;
``load_program(optimize(program))`` opts in — mirroring how clang -O2 and
the kernel's verifier-time rewrites sit outside the core load path.
"""

from repro.ebpf import helpers
from repro.ebpf.insn import BINOPS, CMPOPS, Insn, Program, U64

__all__ = ["optimize"]

_FOLDABLE_PUSH = {"CONST", "LOADL", "LOADG", "PKTLEN", "DUP"}

_CMP_FN = {
    "CMPEQ": lambda a, b: 1 if a == b else 0,
    "CMPNE": lambda a, b: 1 if a != b else 0,
    "CMPLT": lambda a, b: 1 if a < b else 0,
    "CMPLE": lambda a, b: 1 if a <= b else 0,
    "CMPGT": lambda a, b: 1 if a > b else 0,
    "CMPGE": lambda a, b: 1 if a >= b else 0,
}


def _fold_binop(op, a, b):
    if op == "ADD":
        return (a + b) & U64
    if op == "SUB":
        return (a - b) & U64
    if op == "MUL":
        return (a * b) & U64
    if op == "DIV":
        return helpers.div_u64(a, b)
    if op == "MOD":
        return helpers.mod_u64(a, b)
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    if op == "XOR":
        return a ^ b
    if op == "SHL":
        return (a << (b & 63)) & U64
    if op == "SHR":
        return a >> (b & 63)
    raise AssertionError(op)


def optimize(program, max_rounds=8):
    """Return a new, equivalent :class:`Program` with tighter IR."""
    insns = list(program.insns)
    for _ in range(max_rounds):
        before = len(insns)
        insns = _fold_constants(insns)
        insns = _drop_push_pop(insns)
        insns = _drop_unreachable(insns)
        if len(insns) == before:
            break
    return Program(
        name=program.name,
        insns=insns,
        n_locals=program.n_locals,
        global_names=program.global_names,
        globals_init=program.globals_init,
        map_names=program.map_names,
        map_sizes=program.map_sizes,
        map_vars=program.map_vars,
        source=program.source,
        loc=program.loc,
        constants=program.constants,
    )


def _rebuild(insns, keep):
    """Drop instructions where keep[i] is False, remapping jump targets."""
    new_index = {}
    count = 0
    for i, flag in enumerate(keep):
        new_index[i] = count
        if flag:
            count += 1
    new_index[len(keep)] = count  # off-the-end targets stay valid
    out = []
    for i, insn in enumerate(insns):
        if not keep[i]:
            continue
        if insn.op in ("JMP", "JZ", "JNZ"):
            # a dropped target must map to the next surviving instruction
            target = insn.a
            while target < len(keep) and not keep[target] \
                    and insns[target].op not in ("JMP", "JZ", "JNZ", "RET"):
                target += 1
            out.append(Insn(insn.op, new_index[target], insn.b))
        else:
            out.append(insn)
    return out


def _fold_constants(insns):
    """Constant-fold in place using a keep-mask so jump targets remap
    safely through :func:`_rebuild` (the surviving CONST takes the folded
    op's slot; the vacated pushes are dropped)."""
    insns = list(insns)
    keep = [True] * len(insns)
    # Never fold across a jump target: an instruction some branch lands on
    # must keep its exact stack effect for that path.
    targets = {i.a for i in insns if i.op in ("JMP", "JZ", "JNZ")}
    changed = True
    while changed:
        changed = False
        # find live instruction indices in order
        live = [i for i in range(len(insns)) if keep[i]]
        for pos in range(len(live)):
            i = live[pos]
            op = insns[i].op
            if op in BINOPS or op in CMPOPS:
                if pos >= 2:
                    i1, i2 = live[pos - 2], live[pos - 1]
                    # A branch landing anywhere after the first operand
                    # would see a different stack: never fold across one.
                    # (Landing exactly at i1 executes the whole fold and
                    # is equivalent.)
                    if any(i1 < t <= i for t in targets):
                        continue
                    if insns[i1].op == "CONST" and insns[i2].op == "CONST":
                        a, b = insns[i1].a, insns[i2].a
                        if op in BINOPS:
                            value = _fold_binop(op, a, b)
                        else:
                            value = _CMP_FN[op](a, b)
                        insns[i] = Insn("CONST", value)
                        keep[i1] = keep[i2] = False
                        changed = True
                        break
            elif op in ("NEG", "INV", "NOT", "BOOL") and pos >= 1:
                i1 = live[pos - 1]
                if any(i1 < t <= i for t in targets):
                    continue
                if insns[i1].op == "CONST":
                    a = insns[i1].a
                    if op == "NEG":
                        value = (-a) & U64
                    elif op == "INV":
                        value = (~a) & U64
                    elif op == "NOT":
                        value = 0 if a else 1
                    else:
                        value = 1 if a else 0
                    insns[i] = Insn("CONST", value)
                    keep[i1] = False
                    changed = True
                    break
    return _rebuild(insns, keep)


def _drop_push_pop(insns):
    keep = [True] * len(insns)
    jump_targets = {
        insn.a for insn in insns if insn.op in ("JMP", "JZ", "JNZ")
    }
    for i in range(len(insns) - 1):
        if (
            keep[i]
            and insns[i].op in _FOLDABLE_PUSH
            and insns[i + 1].op == "POP"
            and (i + 1) not in jump_targets
        ):
            keep[i] = False
            keep[i + 1] = False
    if all(keep):
        return insns
    return _rebuild(insns, keep)


def _drop_unreachable(insns):
    n = len(insns)
    reachable = [False] * n
    stack = [0] if n else []
    while stack:
        pc = stack.pop()
        if pc >= n or reachable[pc]:
            continue
        reachable[pc] = True
        insn = insns[pc]
        if insn.op == "RET":
            continue
        if insn.op == "JMP":
            stack.append(insn.a)
            continue
        if insn.op in ("JZ", "JNZ"):
            stack.append(insn.a)
        stack.append(pc + 1)
    if all(reachable):
        return insns
    return _rebuild(insns, reachable)

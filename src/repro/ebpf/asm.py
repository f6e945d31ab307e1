"""Textual assembler for the policy IR.

Round-trips with :mod:`repro.ebpf.disasm`: ``assemble(disassemble(p))``
reproduces ``p``'s instructions, metadata included.  Useful for golden
tests and for hand-authoring verifier test cases.

Syntax (one instruction per line)::

    ; program name: comment
    ; globals: idx, counter
    ; map[0] scan_map max_entries=64
         0: CONST 5
    L    6: LDPKT 8 8        ; leading L marks jump targets (ignored)

Directive lines start with ``;``; blank lines are skipped; the ``pc:``
prefix is optional and ignored when present.
"""

import re

from repro.ebpf.insn import Insn, OPCODES, Program

__all__ = ["AsmError", "assemble"]

_LINE = re.compile(
    r"^\s*(?:L\s+)?(?:\d+:\s*)?([A-Z]+)(?:\s+(-?\d+))?(?:\s+(-?\d+))?\s*$"
)
_GLOBALS = re.compile(r"^;\s*globals:\s*(.*)$")
_MAP = re.compile(r"^;\s*map\[(\d+)\]\s+(\S+)\s+max_entries=(\d+)\s*$")
_NAME = re.compile(r"^;\s*program\s+(\S+):")


class AsmError(ValueError):
    """Malformed assembly input."""


def assemble(text, name=None):
    """Parse an IR listing into a :class:`Program`.

    The returned Program was authored as IR; loading it verifies it and
    compiles it in both modes, like any other program.
    """
    insns = []
    global_names = []
    map_entries = {}
    parsed_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith(";"):
            stripped = line.strip()
            match = _NAME.match(stripped)
            if match:
                parsed_name = match.group(1)
                continue
            match = _GLOBALS.match(stripped)
            if match:
                global_names = [
                    g.strip() for g in match.group(1).split(",") if g.strip()
                ]
                continue
            match = _MAP.match(stripped)
            if match:
                slot, map_name, size = match.groups()
                map_entries[int(slot)] = (map_name, int(size))
                continue
            continue  # ordinary comment
        # strip trailing comments
        code = line.split(";", 1)[0]
        match = _LINE.match(code)
        if not match:
            raise AsmError(f"line {lineno}: cannot parse {raw!r}")
        op, a, b = match.groups()
        if op not in OPCODES:
            raise AsmError(f"line {lineno}: unknown opcode {op!r}")
        arity = OPCODES[op][0]
        got = sum(1 for x in (a, b) if x is not None)
        if got != arity:
            raise AsmError(
                f"line {lineno}: {op} takes {arity} immediate(s), got {got}"
            )
        insns.append(
            Insn(op, int(a) if a is not None else None,
                 int(b) if b is not None else None)
        )
    if not insns:
        raise AsmError("no instructions")
    if map_entries and sorted(map_entries) != list(range(len(map_entries))):
        raise AsmError("map slots must be contiguous from 0")
    map_names = [map_entries[i][0] for i in sorted(map_entries)]
    map_sizes = [map_entries[i][1] for i in sorted(map_entries)]
    n_locals = 1 + max(
        (i.a for i in insns if i.op in ("LOADL", "STOREL")), default=-1
    )
    return Program(
        name=name or parsed_name or "asm",
        insns=insns,
        n_locals=n_locals,
        global_names=global_names,
        globals_init=[0] * len(global_names),
        map_names=map_names,
        map_sizes=map_sizes,
        map_vars=list(map_names),
        source=text,
        loc=len(insns),
    )

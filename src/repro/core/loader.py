"""Policy loading from outside input: ceilings, then the compiler.

Arbitrary user policy files enter through the shadow-deployment path
(docs/robustness.md "Promotion lifecycle").  A file is read with a
capped read and decoded as UTF-8; a source over ``MAX_BYTES`` or
``MAX_LINES`` is refused unparsed.  What a policy may say is the
compiler's to decide (:mod:`repro.ebpf.compiler`, specified in
docs/policy-language.md), and the compiler never executes source, so
:func:`check_policy_source` runs it alone and reports its
:class:`~repro.ebpf.errors.CompileError` as a
:class:`PolicyValidationError`.  The verifier runs at load, afterwards.
"""

from repro.ebpf.compiler import function_source
from repro.ebpf.errors import CompileError

__all__ = [
    "MAX_BYTES",
    "MAX_LINES",
    "PolicyLoadError",
    "PolicyValidationError",
    "check_policy_source",
    "load_policy_file",
]

#: Hard ceilings for one policy file; generous — the largest built-in
#: policy source is well under 2 KB.
MAX_BYTES = 64 * 1024
MAX_LINES = 512


class PolicyLoadError(ValueError):
    """A policy file could not be loaded (size, encoding, I/O)."""


class PolicyValidationError(PolicyLoadError):
    """A policy source was refused; ``issues`` lists why."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__(f"policy source rejected: {'; '.join(self.issues)}")


def _check_ceilings(source):
    if not isinstance(source, str):
        raise PolicyValidationError(
            [f"policy source must be str, got {type(source).__name__}"])
    n_bytes = len(source.encode("utf-8", errors="replace"))
    if n_bytes > MAX_BYTES:
        raise PolicyValidationError(
            [f"source is {n_bytes} bytes (limit {MAX_BYTES})"])
    n_lines = source.count("\n") + 1
    if n_lines > MAX_LINES:
        raise PolicyValidationError(
            [f"source is {n_lines} lines (limit {MAX_LINES})"])


def check_policy_source(source, compiler, constants):
    """Return the text of ``source`` (policy text, or a Python function
    resolved to its text) if it is within the ceilings and ``compiler``
    (``compile_policy`` or ``compile_rank``) accepts it with
    ``constants``; raise :class:`PolicyValidationError` otherwise."""
    try:
        if callable(source):
            source = function_source(source)[0]
        _check_ceilings(source)
        compiler(source, constants=constants)
    except CompileError as exc:
        raise PolicyValidationError([str(exc)]) from exc
    return source


def load_policy_file(path):
    """Read a policy file within the ceilings; returns the source text.

    The byte ceiling is enforced on the raw read (``MAX_BYTES + 1`` cap),
    so an oversized file is rejected without buffering it whole.  What
    the text says is checked where it is deployed, by the compiler.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_BYTES + 1)
    except OSError as exc:
        raise PolicyLoadError(f"cannot read policy file {path!r}: {exc}")
    if len(raw) > MAX_BYTES:
        raise PolicyLoadError(
            f"policy file {path!r} exceeds {MAX_BYTES} bytes")
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PolicyLoadError(f"policy file {path!r} is not UTF-8: {exc}")
    _check_ceilings(source)
    return source

"""Instruction corpus handling and workload execution.

The corpus is a TSV derived from machine-readable ISA documentation: one
instruction form per line with an operand-kind template and a behaviour
class tag.  Templates are instantiated against a fixed register pool and a
scratch buffer, producing AT&T-syntax snippets an executor can run: the
native executor assembles and runs them, the simulated executor dispatches
the class tag into the simulated PMU instead of executing machine code.
"""

from __future__ import annotations

import enum
import shutil
import subprocess
import tempfile
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from typing import NamedTuple

from .backend import SimulatedPmu
from .errors import (
    CapabilityError,
    CorpusError,
    InstantiationError,
    NormalizationError,
)

INTEL_ORDER = "intel-order"
ATT_ORDER = "att-order"

SCRATCH_SIZE = 4096
PROBE_TIMEOUT_S = 2.0  # watchdog on one compiled probe run


class OperandKind(enum.Enum):
    REGISTER = "register"
    MEMORY = "memory"
    IMMEDIATE = "immediate"
    RELATIVE_BRANCH = "relative-branch"


# template prefixes naming a register class of the pool; "m" alone is memory
_REGISTER_CLASSES = ("r8", "r16", "r32", "r64", "mm", "xmm", "ymm", "zmm", "st")


def classify_operand(template: str) -> OperandKind:
    """Map an operand template token to its kind.

    rel* is checked before the register prefixes so rel8/rel32 do not read
    as registers, and the register prefixes before memory so mm does not
    read as a memory operand.
    """
    token = template.strip().lower()
    if not token:
        raise NormalizationError("empty operand template")
    if token.startswith("rel"):
        return OperandKind.RELATIVE_BRANCH
    if token.startswith("imm"):
        return OperandKind.IMMEDIATE
    if token.startswith(_REGISTER_CLASSES):
        return OperandKind.REGISTER
    if token.startswith("m"):
        return OperandKind.MEMORY
    raise NormalizationError(f"unknown operand kind {template!r}")


@dataclass(frozen=True)
class InstructionEntry:
    """One corpus line: an instruction form plus its behaviour class."""

    id: int
    mnemonic: str
    operand_templates: tuple[str, ...]
    extension: str
    class_tag: str
    dialect: str = INTEL_ORDER


class CorpusIssue(NamedTuple):
    line: int
    message: str


def parse_corpus(lines: Iterable[str]) -> tuple[list[InstructionEntry], list[CorpusIssue]]:
    """Parse corpus TSV text into entries plus reported issues.

    Columns: id, mnemonic, comma-joined operand templates (may be empty),
    extension, class tag.  Blank lines and '#' comments are skipped.
    Malformed lines are reported with their line numbers, never silently
    dropped.
    """
    entries: list[InstructionEntry] = []
    issues: list[CorpusIssue] = []
    seen_ids: set[int] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 5:
            issues.append(CorpusIssue(line_no, f"expected 5 columns, got {len(columns)}"))
            continue
        id_text, mnemonic, templates_text, extension, class_tag = (c.strip() for c in columns)
        try:
            entry_id = int(id_text)
        except ValueError:
            issues.append(CorpusIssue(line_no, f"id {id_text!r} is not an integer"))
            continue
        if entry_id in seen_ids:
            issues.append(CorpusIssue(line_no, f"duplicate id {entry_id}"))
            continue
        if not mnemonic or not extension or not class_tag:
            issues.append(CorpusIssue(line_no, "mnemonic, extension and class tag are required"))
            continue
        templates = tuple(t.strip() for t in templates_text.split(",") if t.strip())
        entries.append(InstructionEntry(entry_id, mnemonic, templates, extension, class_tag))
        seen_ids.add(entry_id)
    return entries, issues


def load_corpus_file(path: str) -> tuple[list[InstructionEntry], list[CorpusIssue]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc


def normalize_syntax(entry: InstructionEntry, dialect: str) -> InstructionEntry:
    """Convert an entry to the requested operand-order dialect.

    The two dialects differ only in operand order, so conversion reverses
    the template tuple.  Normalizing to the current dialect is the identity,
    which makes the operation idempotent.
    """
    if dialect not in (INTEL_ORDER, ATT_ORDER):
        raise NormalizationError(f"unknown dialect {dialect!r}")
    for template in entry.operand_templates:
        classify_operand(template)  # unknown kinds fail here, named in the error
    if entry.dialect == dialect:
        return entry
    return replace(entry, operand_templates=entry.operand_templates[::-1], dialect=dialect)


_WIDTH_BY_MEMORY = {"m8": 8, "m16": 16, "m32": 32, "m64": 64}
_ATT_SUFFIX = {8: "b", 16: "w", 32: "l", 64: "q"}


@dataclass(frozen=True)
class RegisterPool:
    """Concrete registers available for instantiating templates."""

    registers: Mapping[str, tuple[str, ...]]
    supported_extensions: frozenset[str]


DEFAULT_POOL = RegisterPool(
    registers={
        "r8": ("al", "bl", "cl", "dl"),
        "r16": ("ax", "bx", "cx", "dx"),
        "r32": ("eax", "ebx", "ecx", "edx"),
        "r64": ("rax", "rbx", "rcx", "rdx"),
        "mm": ("mm0", "mm1", "mm2", "mm3"),
        "xmm": ("xmm0", "xmm1", "xmm2", "xmm3"),
        "ymm": ("ymm0", "ymm1", "ymm2", "ymm3"),
    },
    supported_extensions=frozenset({"base", "mmx", "sse", "sse2", "avx", "avx2"}),
)


@dataclass(frozen=True)
class Snippet:
    """A rendered, executable instruction instance in AT&T syntax."""

    entry: InstructionEntry  # in att order
    rendered_text: str


def instantiate(entry: InstructionEntry) -> Snippet:
    """Render an entry as AT&T (GNU as) text, normalizing it to att order.

    Register operands rotate through DEFAULT_POOL per class; memory
    operands address the probe's scratch buffer; immediates are $1;
    relative branches target a local label placed immediately after the
    instruction.  A form with no register operand takes its size suffix
    from its widest memory operand.  The same entry always renders
    byte-identical text.
    """
    entry = normalize_syntax(entry, ATT_ORDER)
    if entry.extension not in DEFAULT_POOL.supported_extensions:
        raise InstantiationError(f"extension {entry.extension!r} not supported"
                                 " by the register pool")
    operands: list[str] = []
    registers = 0
    width = 0
    for template in entry.operand_templates:
        token = template.strip().lower()
        kind = classify_operand(token)
        if kind is OperandKind.REGISTER:
            reg_class = next(p for p in _REGISTER_CLASSES if token.startswith(p))
            names = DEFAULT_POOL.registers.get(reg_class)
            if not names:
                raise InstantiationError(f"register pool lacks class {reg_class!r}")
            operands.append(f"%{names[registers % len(names)]}")
            registers += 1
        elif kind is OperandKind.MEMORY:
            width = max(width, _WIDTH_BY_MEMORY.get(token, 0))
            operands.append("scratch(%rip)")
        else:
            operands.append("$1" if kind is OperandKind.IMMEDIATE else "1f")
    mnemonic = entry.mnemonic.lower()
    if width and not registers:  # no register operand fixes the width
        mnemonic += _ATT_SUFFIX[width]
    text = f"{mnemonic} {', '.join(operands)}" if operands else mnemonic
    if "1f" in operands:
        text += "\n1:"
    return Snippet(entry, text)


class ExecStatus(enum.Enum):
    SUCCESS = "success"
    FAULT = "fault"
    UNSUPPORTED = "unsupported"
    BACKEND_ERROR = "backend-error"  # the measurement was lost, not the execution


@dataclass(frozen=True)
class ExecOutcome:
    status: ExecStatus
    fault_kind: str | None = None
    detail: str = ""


_SUCCESS = ExecOutcome(ExecStatus.SUCCESS)


class SimulatedExecutor:
    """Dispatches class tags into a simulated PMU instead of running code.

    Faulting and unsupported instructions come from the model's tables.
    """

    dialect = ATT_ORDER

    def __init__(
        self,
        backend: SimulatedPmu,
        fault_table: Mapping[int, str] | None = None,
        supported_extensions: frozenset[str] = frozenset({"base"}),
    ):
        self.backend = backend
        self._fault_table = dict(fault_table or {})
        self._extensions = frozenset(supported_extensions)

    def execute(self, snippet: Snippet) -> ExecOutcome:
        entry = snippet.entry
        if entry.extension not in self._extensions:
            return ExecOutcome(ExecStatus.UNSUPPORTED,
                               detail=f"extension {entry.extension!r} not modeled")
        fault_kind = self._fault_table.get(entry.id)
        if fault_kind is not None:
            return ExecOutcome(ExecStatus.FAULT, fault_kind=fault_kind)
        self.backend.record_execution(entry.class_tag)
        return _SUCCESS


_SIGNAL_KINDS = {
    4: "illegal-instruction",   # SIGILL
    5: "trap",                  # SIGTRAP
    7: "bus-error",             # SIGBUS
    8: "fp-exception",          # SIGFPE
    11: "segmentation-fault",   # SIGSEGV
}

_NATIVE_TEMPLATE = """\
    .section .note.GNU-stack,"",@progbits
    .data
    .balign 64
scratch: .byte 1; .zero {scratch_rest}
    .text
    .globl _start
_start:
    mov $1, %rax; mov $1, %rbx; mov $1, %rcx; mov $1, %rdx
{body}
    mov $231, %eax; xor %edi, %edi; syscall  # exit_group(0)
"""


class NativeExecutor:
    """Pairs a real counter backend with compiled-probe execution.

    Each distinct snippet text is assembled once into a static probe binary
    with a bare _start and no libc, kept in a temporary directory that the
    first compile creates and close() removes.  Every execute runs the probe
    in a fresh process under a watchdog, mapping kill signals to fault kinds;
    a snippet that does not assemble stays UNSUPPORTED without another
    compile.  Slow but honest: the instruction really executes on the host.

    The measured window still holds fork and exec of the probe, a static
    binary of a few pages with no dynamic loader and no libc start-up, so
    native deltas carry a baseline that is small but not zero; the scan's
    median-over-repetitions absorbs the jitter but not the baseline.
    """

    dialect = ATT_ORDER

    def __init__(self, backend, cc: str = "cc"):
        self.backend = backend
        self._cc = shutil.which(cc)
        if self._cc is None:
            raise CapabilityError(f"no C compiler {cc!r} on PATH")
        self.probe_dir: tempfile.TemporaryDirectory | None = None
        self._probes: dict[str, str | ExecOutcome] = {}  # binary path, or why it failed

    def close(self) -> None:
        """Remove the compiled probes; safe to call more than once."""
        self._probes.clear()
        if self.probe_dir is not None:
            self.probe_dir.cleanup()
            self.probe_dir = None

    def __enter__(self) -> NativeExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _probe(self, text: str) -> str | ExecOutcome:
        probe = self._probes.get(text)
        if probe is not None:
            return probe
        if self.probe_dir is None:
            self.probe_dir = tempfile.TemporaryDirectory(prefix="pmu-probes-")
        bin_path = os.path.join(self.probe_dir.name, f"probe{len(self._probes)}")
        src_path = bin_path + ".s"
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write(_NATIVE_TEMPLATE.format(body=text, scratch_rest=SCRATCH_SIZE - 1))
        compile_proc = subprocess.run([self._cc, "-static", "-nostdlib", "-o", bin_path, src_path],
                                      capture_output=True, text=True)
        if compile_proc.returncode == 0:
            probe = bin_path
        else:
            tail = compile_proc.stderr.strip().splitlines()[-1:] or ["?"]
            probe = ExecOutcome(ExecStatus.UNSUPPORTED, detail=f"assembler: {tail[0]}")
            if compile_proc.returncode < 0:  # the compiler was killed: the next execute tries again
                return probe
        self._probes[text] = probe
        return probe

    def execute(self, snippet: Snippet) -> ExecOutcome:
        probe = self._probe(snippet.rendered_text)
        if isinstance(probe, ExecOutcome):
            return probe
        try:
            run_proc = subprocess.run([probe], capture_output=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return ExecOutcome(ExecStatus.FAULT, fault_kind="watchdog-timeout")
        if run_proc.returncode == 0:
            return _SUCCESS
        if run_proc.returncode < 0:
            signo = -run_proc.returncode
            return ExecOutcome(ExecStatus.FAULT,
                               fault_kind=_SIGNAL_KINDS.get(signo, f"signal-{signo}"))
        return ExecOutcome(ExecStatus.FAULT, fault_kind=f"exit-{run_proc.returncode}")

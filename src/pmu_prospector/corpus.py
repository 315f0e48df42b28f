"""Instruction corpus handling and workload execution.

The corpus is a TSV derived from machine-readable ISA documentation: one
instruction form per line with an operand-kind template and a behaviour
class tag.  Templates are instantiated against a fixed register pool and a
scratch buffer, producing snippets a backend-specific executor can run; the
simulated executor dispatches the class tag into the simulated PMU instead
of executing machine code.
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
_DIALECTS = (INTEL_ORDER, ATT_ORDER)

SCRATCH_SIZE = 4096
PROBE_TIMEOUT_S = 2.0  # watchdog on one compiled probe run


class OperandKind(enum.Enum):
    REGISTER = "register"
    MEMORY = "memory"
    IMMEDIATE = "immediate"
    RELATIVE_BRANCH = "relative-branch"


_REGISTER_PREFIXES = ("r8", "r16", "r32", "r64", "xmm", "ymm", "zmm", "mm", "st")


def classify_operand(template: str) -> OperandKind:
    """Map an operand template token to its kind.

    rel* is checked before the register prefixes so rel8/rel32 do not read
    as registers.
    """
    token = template.strip().lower()
    if not token:
        raise NormalizationError("empty operand template")
    if token.startswith("rel"):
        return OperandKind.RELATIVE_BRANCH
    if token.startswith("imm"):
        return OperandKind.IMMEDIATE
    if token.startswith("m"):
        return OperandKind.MEMORY
    if any(token.startswith(prefix) for prefix in _REGISTER_PREFIXES):
        return OperandKind.REGISTER
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
        entries.append(
            InstructionEntry(
                id=entry_id,
                mnemonic=mnemonic,
                operand_templates=templates,
                extension=extension,
                class_tag=class_tag,
            )
        )
        seen_ids.add(entry_id)
    return entries, issues


def load_corpus_file(path: str) -> tuple[list[InstructionEntry], list[CorpusIssue]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc


def normalize_syntax(entry: InstructionEntry, dialect: str) -> InstructionEntry:
    """Convert an entry to the requested operand-order dialect.

    The two dialects differ only in operand order, so conversion reverses
    the template tuple.  Normalizing to the current dialect is the identity,
    which makes the operation idempotent.
    """
    if dialect not in _DIALECTS:
        raise NormalizationError(f"unknown dialect {dialect!r}")
    for template in entry.operand_templates:
        classify_operand(template)  # unknown kinds fail here, named in the error
    if entry.dialect == dialect:
        return entry
    return replace(entry, operand_templates=entry.operand_templates[::-1], dialect=dialect)


_WIDTH_BY_PREFIX = {"r8": 8, "r16": 16, "r32": 32, "r64": 64}
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
    """A rendered, executable instruction instance."""

    entry_id: int
    rendered_text: str
    register_pool: tuple[str, ...]
    dialect: str = INTEL_ORDER


def _register_class(token: str) -> str:
    token = token.strip().lower()
    for prefix in ("xmm", "ymm", "zmm", "r16", "r32", "r64", "r8", "mm", "st"):
        if token.startswith(prefix):
            return prefix
    raise InstantiationError(f"no register class for template {token!r}")


def instantiate(entry: InstructionEntry) -> Snippet:
    """Bind template operands to concrete registers, scratch memory,
    immediates or a local branch target.

    Register operands rotate through DEFAULT_POOL per width class; memory
    operands address the probe's scratch buffer; immediates are 1; relative
    branches target a label placed immediately after the instruction.  The
    same entry always renders byte-identical text.
    """
    if entry.extension not in DEFAULT_POOL.supported_extensions:
        raise InstantiationError(
            f"extension {entry.extension!r} not supported by the register pool"
        )
    att = entry.dialect == ATT_ORDER
    operands: list[str] = []
    used_registers: list[str] = []
    register_index = 0
    width = 0
    needs_label = False
    for template in entry.operand_templates:
        kind = classify_operand(template)
        if kind is OperandKind.REGISTER:
            reg_class = _register_class(template)
            names = DEFAULT_POOL.registers.get(reg_class)
            if not names:
                raise InstantiationError(f"register pool lacks class {reg_class!r}")
            name = names[register_index % len(names)]
            register_index += 1
            used_registers.append(name)
            width = max(width, _WIDTH_BY_PREFIX.get(reg_class, 0))
            operands.append(f"%{name}" if att else name)
        elif kind is OperandKind.MEMORY:
            width = max(width, _WIDTH_BY_MEMORY.get(template.strip().lower(), 0))
            operands.append("scratch(%rip)" if att else "[scratch]")
        elif kind is OperandKind.IMMEDIATE:
            operands.append("$1" if att else "1")
        else:
            needs_label = True
            operands.append("1f" if att else "target")
    mnemonic = entry.mnemonic.lower()
    # att syntax needs a size suffix when no register operand fixes the width
    if att and width and not used_registers:
        mnemonic += _ATT_SUFFIX[width]
    text = mnemonic if not operands else f"{mnemonic} {', '.join(operands)}"
    if needs_label:
        text += "\n1:" if att else "\ntarget:"
    return Snippet(
        entry_id=entry.id,
        rendered_text=text,
        register_pool=tuple(used_registers),
        dialect=entry.dialect,
    )


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


SIGNAL_HANDLER = "signal-handler"
TRANSACTIONAL = "transactional"
_EXEC_MODES = (SIGNAL_HANDLER, TRANSACTIONAL)

_SUCCESS = ExecOutcome(ExecStatus.SUCCESS)


class SimulatedExecutor:
    """Dispatches class tags into a simulated PMU instead of running code.

    Faulting and unsupported instructions come from the model's tables; a
    fault is contained by the chosen capture mode either way, so the
    outcome classification does not depend on the mode.
    """

    dialect = ATT_ORDER

    def __init__(
        self,
        backend: SimulatedPmu,
        entries: Mapping[int, InstructionEntry],
        fault_table: Mapping[int, str] | None = None,
        supported_extensions: frozenset[str] = frozenset({"base"}),
    ):
        self.backend = backend
        self._entries = dict(entries)
        self._fault_table = dict(fault_table or {})
        self._extensions = frozenset(supported_extensions)

    def execute(self, snippet: Snippet, mode: str = SIGNAL_HANDLER) -> ExecOutcome:
        if mode not in _EXEC_MODES:
            raise ValueError(f"unknown exception-capture mode {mode!r}")
        if mode == TRANSACTIONAL and not self.backend.capabilities().supports_transactional_suppression:
            raise CapabilityError("backend does not support transactional suppression")
        entry = self._entries.get(snippet.entry_id)
        if entry is None:
            raise CorpusError(f"snippet references unknown corpus id {snippet.entry_id}")
        if entry.extension not in self._extensions:
            return ExecOutcome(
                ExecStatus.UNSUPPORTED, detail=f"extension {entry.extension!r} not modeled"
            )
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
static unsigned char scratch[{scratch_size}] __attribute__((aligned(64))) = {{1}};
int main(void) {{
    __asm__ volatile(
        "mov $1, %%rax\\n\\t"
        "mov $1, %%rbx\\n\\t"
        "mov $1, %%rcx\\n\\t"
        "mov $1, %%rdx\\n\\t"
{body}
        ::: "rax", "rbx", "rcx", "rdx", "cc", "memory");
    return (int)scratch[0] * 0;
}}
"""


class NativeExecutor:
    """Pairs a real counter backend with compiled-probe execution.

    Each execute compiles an att-order snippet into a one-shot probe binary
    and runs it under a watchdog, mapping kill signals to fault kinds.  Slow
    (one compile per instruction) but honest: the instruction really
    executes on the host.  Exception capture is per-process rather than
    per-signal-handler, which contains the same fault set.

    Probe runs include process scaffolding (fork, exec, libc startup) inside
    the measured window, so native deltas carry a large baseline; the scan's
    median-over-repetitions absorbs the jitter but not the baseline.
    """

    dialect = ATT_ORDER

    def __init__(self, backend, cc: str = "cc"):
        self.backend = backend
        self._cc = shutil.which(cc)
        if self._cc is None:
            raise CapabilityError(f"no C compiler {cc!r} on PATH")

    def execute(self, snippet: Snippet, mode: str = SIGNAL_HANDLER) -> ExecOutcome:
        if mode not in _EXEC_MODES:
            raise ValueError(f"unknown exception-capture mode {mode!r}")
        if mode == TRANSACTIONAL:
            raise CapabilityError("transactional suppression is not built into the probe binary")
        if snippet.dialect != ATT_ORDER:
            raise NormalizationError("native execution requires att-order snippets")
        body = "\n".join(
            f'        "{line.replace("%", "%%")}\\n\\t"'
            for line in snippet.rendered_text.splitlines()
        )
        source = _NATIVE_TEMPLATE.format(body=body, scratch_size=SCRATCH_SIZE)
        with tempfile.TemporaryDirectory() as tmp:
            c_path = os.path.join(tmp, "probe.c")
            bin_path = os.path.join(tmp, "probe")
            with open(c_path, "w", encoding="utf-8") as fh:
                fh.write(source)
            compile_proc = subprocess.run(
                [self._cc, "-O0", "-o", bin_path, c_path],
                capture_output=True,
                text=True,
            )
            if compile_proc.returncode != 0:
                tail = compile_proc.stderr.strip().splitlines()[-1:] or ["?"]
                return ExecOutcome(ExecStatus.UNSUPPORTED, detail=f"assembler: {tail[0]}")
            try:
                run_proc = subprocess.run([bin_path], capture_output=True, timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return ExecOutcome(ExecStatus.FAULT, fault_kind="watchdog-timeout")
        if run_proc.returncode == 0:
            return _SUCCESS
        if run_proc.returncode < 0:
            signo = -run_proc.returncode
            return ExecOutcome(
                ExecStatus.FAULT, fault_kind=_SIGNAL_KINDS.get(signo, f"signal-{signo}")
            )
        return ExecOutcome(ExecStatus.FAULT, fault_kind=f"exit-{run_proc.returncode}")

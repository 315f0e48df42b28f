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
import os
import select
import shutil
import subprocess
import tempfile
import weakref
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
RESIDENT_PROBES = 16  # probe processes kept running at once


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


# A resident probe: _start installs one handler for the _SIGNAL_KINDS signals
# on an alternate stack, then runs the snippet once per byte read from stdin,
# each time from a fresh _start's state, and answers one byte on stdout: 0,
# or the number of the signal the snippet raised.  The handler rewrites the
# interrupted context (ucontext_t's gregs REG_RSP, REG_RIP and REG_EFL at
# offsets 160, 168 and 176) to resume at the answer, so a fault is reported
# and the probe stays alive.
_NATIVE_TEMPLATE = """\
    .section .note.GNU-stack,"",@progbits
    .data
    .balign 64
scratch: .byte 1; .zero {scratch_rest}
.Lsigaction: .quad .Lhandler, 0x0C000004, .Lrestorer, 0  # SA_SIGINFO|SA_RESTORER|SA_ONSTACK, no mask
.Lsigaltstack: .quad .Lsigstack, 0, 65536  # ss_sp, ss_flags, ss_size
    .bss
    .balign 64
.Lsigstack: .zero 65536
.Lsaved_rsp: .zero 8
.Lstatus: .zero 1
    .text
    .globl _start
_start:
    mov %rsp, .Lsaved_rsp(%rip)
    mov $131, %eax; lea .Lsigaltstack(%rip), %rdi; xor %esi, %esi; syscall  # sigaltstack
    .irp signo, {signals}
    mov $13, %eax; mov $\\signo, %edi; lea .Lsigaction(%rip), %rsi; xor %edx, %edx; mov $8, %r10d
    syscall  # rt_sigaction
    .endr
.Lnext:
    xor %eax, %eax; xor %edi, %edi; lea .Lstatus(%rip), %rsi; mov $1, %edx; syscall  # read(0, status, 1)
    test %rax, %rax; jle .Lexit
    mov .Lsaved_rsp(%rip), %rsp
    push $0x202; popf
    movq $1, scratch(%rip)
    .irp offset, 8, 16, 24, 32, 40, 48, 56
    movq $0, scratch+\\offset(%rip)
    .endr
    movb $0, .Lstatus(%rip)
    mov $1, %eax; mov $1, %ebx; mov $1, %ecx; mov $1, %edx
    xor %esi, %esi; xor %edi, %edi; xor %ebp, %ebp
    .irp reg, r8, r9, r10, r11, r12, r13, r14, r15
    xor %\\reg, %\\reg
    .endr
{body}
.Lanswer:
    mov $1, %eax; mov $1, %edi; lea .Lstatus(%rip), %rsi; mov $1, %edx; syscall  # write(1, status, 1)
    jmp .Lnext
.Lexit:
    mov $231, %eax; xor %edi, %edi; syscall  # exit_group(0)
.Lhandler:  # (signo, info, ucontext): report signo, resume at .Lanswer
    mov %dil, .Lstatus(%rip)
    mov .Lsaved_rsp(%rip), %rax; mov %rax, 160(%rdx)
    lea .Lanswer(%rip), %rax; mov %rax, 168(%rdx)
    movq $0x202, 176(%rdx)
    ret
.Lrestorer:
    mov $15, %eax; syscall  # rt_sigreturn
"""


def _outcome(signo: int) -> ExecOutcome:
    """The outcome of a run that raised signal signo, 0 for none."""
    if not signo:
        return _SUCCESS
    return ExecOutcome(ExecStatus.FAULT, fault_kind=_SIGNAL_KINDS.get(signo, f"signal-{signo}"))


def _stop(proc: subprocess.Popen) -> None:
    """End a probe's input, which makes it exit; kill it if it has not
    exited within the watchdog; reap it."""
    proc.stdin.close()
    try:
        proc.wait(PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _stop_probes(resident: dict[str, subprocess.Popen]) -> None:
    while resident:
        _stop(resident.popitem()[1])


class NativeExecutor:
    """Pairs a real counter backend with compiled-probe execution.

    Each distinct snippet text is assembled once into a static probe binary
    with a bare _start and no libc, kept in a temporary directory that the
    first compile creates and close() removes; a snippet that does not
    assemble stays UNSUPPORTED without another compile.  A probe process
    starts on its first execute and stays resident: one execute writes it
    one byte and waits up to PROBE_TIMEOUT_S for its one-byte answer.  The
    probe catches the _SIGNAL_KINDS signals itself and answers with the
    signal, so a faulting snippet starts no new process.  A probe that dies
    (a signal it cannot catch, or an exit) is classified by its exit status
    and started again on its next execute; one that does not answer in time
    is killed as a watchdog-timeout.  At most RESIDENT_PROBES stay alive,
    the least recently used stopped first, and close(), or the executor's
    finalizer at garbage collection or interpreter exit, stops and reaps
    every one.  The instruction really executes on the host.

    Each run starts from a fresh _start's state: the initial stack pointer,
    RFLAGS 0x202, rax-rdx 1 and the other general registers 0, and
    scratch's first 64-byte line back to 1, 0, ....  Vector and x87
    registers, and the rest of scratch, carry over from the run before.
    The measured window holds no fork or exec, but still holds the two pipe
    syscalls of the handshake (the probe's read returning, its write of the
    answer) and the reset sequence, so native deltas carry a small baseline;
    the scan's median-over-repetitions absorbs the jitter but not the
    baseline.
    """

    dialect = ATT_ORDER

    def __init__(self, backend, cc: str = "cc"):
        self.backend = backend
        self._cc = shutil.which(cc)
        if self._cc is None:
            raise CapabilityError(f"no C compiler {cc!r} on PATH")
        self.probe_dir: tempfile.TemporaryDirectory | None = None
        self._probes: dict[str, str | ExecOutcome] = {}  # binary path, or why it failed
        self._resident: dict[str, subprocess.Popen] = {}  # by binary, least recently used first
        weakref.finalize(self, _stop_probes, self._resident)

    def close(self) -> None:
        """Stop every probe and remove the compiled binaries; safe to call
        more than once."""
        _stop_probes(self._resident)
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
            fh.write(_NATIVE_TEMPLATE.format(body=text, scratch_rest=SCRATCH_SIZE - 1,
                                             signals=", ".join(map(str, _SIGNAL_KINDS))))
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

    def _running(self, binary: str) -> subprocess.Popen:
        """The resident process of a probe binary, started if need be, now
        the most recently used."""
        proc = self._resident.pop(binary, None)
        if proc is None:
            if len(self._resident) >= RESIDENT_PROBES:
                _stop(self._resident.pop(next(iter(self._resident))))
            proc = subprocess.Popen([binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    bufsize=0)
        self._resident[binary] = proc
        return proc

    def execute(self, snippet: Snippet) -> ExecOutcome:
        probe = self._probe(snippet.rendered_text)
        if isinstance(probe, ExecOutcome):
            return probe
        proc = self._running(probe)
        try:
            proc.stdin.write(b"\0")
        except BrokenPipeError:  # it died since its last answer: the read below sees EOF
            pass
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            proc.kill()
            _stop(self._resident.pop(probe))
            return ExecOutcome(ExecStatus.FAULT, fault_kind="watchdog-timeout")
        answer = proc.stdout.read(1)
        if answer:
            return _outcome(answer[0])
        _stop(self._resident.pop(probe))  # it died: its exit status says how
        if proc.returncode > 0:
            return ExecOutcome(ExecStatus.FAULT, fault_kind=f"exit-{proc.returncode}")
        return _outcome(-proc.returncode)

import os
import shutil
import struct
import subprocess
import sys

import pytest

from pmu_prospector import corpus
from pmu_prospector.backend import SLOTS, SimEventFamily, SimulatedPmu
from pmu_prospector.corpus import (
    ATT_ORDER,
    ExecOutcome,
    ExecStatus,
    InstructionEntry,
    INTEL_ORDER,
    NativeExecutor,
    OperandKind,
    RESIDENT_PROBES,
    SimulatedExecutor,
    Snippet,
    classify_operand,
    instantiate,
    normalize_syntax,
    parse_corpus,
)
from pmu_prospector.errors import InstantiationError, NormalizationError
from pmu_prospector.events import EventSelector, scan_control


def entry(mnemonic="ADD", templates=("r64", "r64"), ext="base", tag="alu", id=1, dialect=INTEL_ORDER):
    return InstructionEntry(
        id=id, mnemonic=mnemonic, operand_templates=tuple(templates),
        extension=ext, class_tag=tag, dialect=dialect,
    )


class TestParsing:
    def test_single_line(self):
        entries, issues = parse_corpus(["7\tADD\tr64,r64\tbase\talu\n"])
        assert issues == []
        assert entries == [
            InstructionEntry(
                id=7, mnemonic="ADD", operand_templates=("r64", "r64"),
                extension="base", class_tag="alu",
            )
        ]

    def test_comments_and_blank_lines_skipped(self):
        entries, issues = parse_corpus(["# header\n", "\n", "  \n", "1\tNOP\t\tbase\tnop\n"])
        assert len(entries) == 1 and not issues
        assert entries[0].operand_templates == ()

    def test_malformed_lines_reported_with_numbers(self):
        lines = [
            "1\tADD\tr64,r64\tbase\talu\n",
            "not-tabs at all\n",
            "x\tADD\tr64\tbase\talu\n",
            "1\tMOV\tr64\tbase\tmemory-load\n",
            "4\t\tr64\tbase\talu\n",
        ]
        entries, issues = parse_corpus(lines)
        assert [e.id for e in entries] == [1]
        assert [i.line for i in issues] == [2, 3, 4, 5]
        assert "5 columns" in issues[0].message
        assert "not an integer" in issues[1].message
        assert "duplicate id" in issues[2].message

    def test_fixture_corpus(self, corpus_entries):
        assert len(corpus_entries) == 10
        by_id = {e.id: e for e in corpus_entries}
        assert by_id[7].extension == "sse2"

    def test_line_count_equals_entry_count_on_clean_file(self, tmp_path):
        # a file of n well-formed lines parses to exactly n entries
        n = 5492
        path = tmp_path / "big.tsv"
        path.write_text("".join(f"{i}\tNOP\t\tbase\tnop\n" for i in range(n)))
        with open(path) as fh:
            entries, issues = parse_corpus(fh)
        assert len(entries) == n and not issues


class TestOperandClassification:
    @pytest.mark.parametrize(
        "token,kind",
        [
            ("r8", OperandKind.REGISTER),
            ("r16", OperandKind.REGISTER),
            ("r32", OperandKind.REGISTER),
            ("r64", OperandKind.REGISTER),
            ("xmm", OperandKind.REGISTER),
            ("ymm", OperandKind.REGISTER),
            ("mm", OperandKind.REGISTER),
            ("m8", OperandKind.MEMORY),
            ("m64", OperandKind.MEMORY),
            ("imm8", OperandKind.IMMEDIATE),
            ("imm32", OperandKind.IMMEDIATE),
            ("rel8", OperandKind.RELATIVE_BRANCH),
            ("rel32", OperandKind.RELATIVE_BRANCH),
        ],
    )
    def test_known_kinds(self, token, kind):
        assert classify_operand(token) is kind

    def test_rel_checked_before_register_prefixes(self):
        # "rel8" starts with "r" too; the branch kind must win
        assert classify_operand("rel8") is OperandKind.RELATIVE_BRANCH

    def test_unknown_kind_is_named_in_the_error(self):
        with pytest.raises(NormalizationError, match="bnd0"):
            classify_operand("bnd0")


class TestNormalization:
    def test_reverses_operand_order_between_dialects(self):
        e = entry(mnemonic="MOV", templates=("r64", "m64"), tag="memory-load")
        att = normalize_syntax(e, ATT_ORDER)
        assert att.operand_templates == ("m64", "r64")
        assert att.dialect == ATT_ORDER

    def test_idempotent(self):
        e = entry(mnemonic="MOV", templates=("r64", "m64"))
        once = normalize_syntax(e, ATT_ORDER)
        assert normalize_syntax(once, ATT_ORDER) == once
        assert normalize_syntax(e, INTEL_ORDER) == e

    def test_round_trip_restores_entry(self):
        e = entry(templates=("r64", "r64", "imm8"))
        assert normalize_syntax(normalize_syntax(e, ATT_ORDER), INTEL_ORDER) == e

    def test_zero_operand_unchanged(self):
        e = entry(mnemonic="NOP", templates=(), tag="nop")
        assert normalize_syntax(e, ATT_ORDER).operand_templates == ()

    def test_unknown_dialect_rejected(self):
        with pytest.raises(NormalizationError, match="dialect"):
            normalize_syntax(entry(), "gas")

    def test_unknown_operand_kind_rejected(self):
        with pytest.raises(NormalizationError, match="sreg"):
            normalize_syntax(entry(templates=("sreg",)), ATT_ORDER)


class TestInstantiation:
    def test_registers_rotate_through_the_pool(self):
        snippet = instantiate(entry(templates=("r64", "r64")))
        assert snippet.rendered_text == "add %rax, %rbx"

    def test_memory_goes_to_scratch(self):
        # an intel-order entry is reversed into att order before rendering
        snippet = instantiate(entry(mnemonic="MOV", templates=("r64", "m64")))
        assert snippet.rendered_text == "mov scratch(%rip), %rax"

    def test_att_rendering(self):
        e = normalize_syntax(entry(mnemonic="MOV", templates=("r64", "m64")), ATT_ORDER)
        snippet = instantiate(e)
        assert snippet.rendered_text == "mov scratch(%rip), %rax"

    def test_immediate_rendering(self):
        assert instantiate(entry(templates=("r64", "imm8"))).rendered_text == "add $1, %rax"
        att = normalize_syntax(entry(templates=("r64", "imm8")), ATT_ORDER)
        assert instantiate(att).rendered_text == "add $1, %rax"

    def test_branch_target_label_after_instruction(self):
        snippet = instantiate(entry(mnemonic="JMP", templates=("rel32",), tag="branch"))
        first, second = snippet.rendered_text.splitlines()
        assert first == "jmp 1f"
        assert second == "1:"

    def test_att_branch_uses_local_numeric_label(self):
        e = normalize_syntax(entry(mnemonic="JMP", templates=("rel32",), tag="branch"), ATT_ORDER)
        assert instantiate(e).rendered_text == "jmp 1f\n1:"

    def test_mmx_operands_take_mm_registers(self):
        e = entry(mnemonic="PADDQ", templates=("mm", "mm"), ext="mmx", tag="vector-alu")
        assert instantiate(e).rendered_text == "paddq %mm0, %mm1"

    def test_deterministic(self):
        e = entry(mnemonic="IMUL", templates=("r64", "r64", "imm8"))
        assert instantiate(e) == instantiate(e)

    def test_unsupported_extension_fails(self):
        with pytest.raises(InstantiationError, match="avx512"):
            instantiate(entry(ext="avx512"))

    def test_missing_register_class_fails(self):
        # the pool holds no zmm registers, although the template names them
        with pytest.raises(InstantiationError, match="register pool lacks class 'zmm'"):
            instantiate(entry(templates=("zmm", "zmm"), ext="base"))

    def test_att_size_suffix_when_no_register_discriminates(self):
        # memory-only forms need the width spelled on the mnemonic
        e = entry(mnemonic="INC", templates=("m64",), tag="rmw")
        assert instantiate(normalize_syntax(e, ATT_ORDER)).rendered_text == "incq scratch(%rip)"
        imm_form = entry(mnemonic="ADD", templates=("m64", "imm8"))
        assert (
            instantiate(normalize_syntax(imm_form, ATT_ORDER)).rendered_text
            == "addq $1, scratch(%rip)"
        )

    def test_att_no_suffix_when_a_register_fixes_the_width(self):
        e = entry(mnemonic="MOV", templates=("r64", "m64"), tag="memory-load")
        assert instantiate(normalize_syntax(e, ATT_ORDER)).rendered_text == "mov scratch(%rip), %rax"


FIXTURE_TEXT = {
    1: "mov scratch(%rip), %rax",
    2: "mov %rax, scratch(%rip)",
    3: "add %rax, %rbx",
    4: "nop",
    5: "jmp 1f\n1:",
    6: "imul $1, %rax, %rbx",
    7: "paddq %xmm0, %xmm1",
    8: "ud2",
    9: InstantiationError,
    10: "incq scratch(%rip)",
}


@pytest.mark.parametrize("entry_id", sorted(FIXTURE_TEXT))
def test_fixture_corpus_renders_pinned_att_text(corpus_entries, entry_id):
    # the simulated executor ignores the text, so only this pins what cc assembles
    e = {e.id: e for e in corpus_entries}[entry_id]
    expected = FIXTURE_TEXT[entry_id]
    if expected is InstantiationError:
        with pytest.raises(InstantiationError, match="avx512"):
            instantiate(normalize_syntax(e, ATT_ORDER))
    else:
        assert instantiate(normalize_syntax(e, ATT_ORDER)).rendered_text == expected


def make_executor_with(families, fault_table=None, extensions=frozenset({"base"})):
    return SimulatedExecutor(
        SimulatedPmu(families), fault_table=fault_table, supported_extensions=extensions
    )


class TestSimulatedExecutor:
    FAMILY = SimEventFamily(0x6C, 0x01, frozenset({"alu"}))

    def test_success_dispatches_class_tag(self):
        e = entry()
        executor = make_executor_with([self.FAMILY])
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))
        assert outcome.status is ExecStatus.SUCCESS
        assert executor.backend.read(SLOTS[0]) == 1

    def test_fault_table_blocks_dispatch(self):
        e = entry(mnemonic="UD2", templates=(), tag="alu")
        executor = make_executor_with([self.FAMILY], fault_table={1: "illegal-instruction"})
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))
        assert outcome.status is ExecStatus.FAULT
        assert outcome.fault_kind == "illegal-instruction"
        assert executor.backend.read(SLOTS[0]) == 0

    def test_unsupported_extension_blocks_dispatch(self):
        e = entry(ext="sse2")
        executor = make_executor_with([self.FAMILY], extensions=frozenset({"base"}))
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))  # the register pool holds sse2
        assert outcome.status is ExecStatus.UNSUPPORTED
        assert executor.backend.read(SLOTS[0]) == 0


def probe_processes(started):
    """The probe processes among the started ones: every one but the compiler's."""
    return [proc for proc in started if "-o" not in proc.args]


def assert_reaped(proc):
    assert proc.returncode is not None  # waited for
    with pytest.raises(ProcessLookupError):
        os.kill(proc.pid, 0)


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
class TestNativeSnippetExecutor:
    def run_native(self, e):
        with NativeExecutor(backend=None) as executor:
            return executor.execute(instantiate(e))

    @pytest.fixture()
    def started(self, monkeypatch):
        """Every process started through Popen, the compiler's included."""
        processes = []

        class RecordedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                processes.append(self)

        monkeypatch.setattr(corpus.subprocess, "Popen", RecordedPopen)
        return processes

    @pytest.fixture()
    def compiles(self, monkeypatch):
        """The argv of every compiler launch; probe runs pass through."""
        launches = []
        run = corpus.subprocess.run

        def counted(argv, **kwargs):
            if "-o" in argv:
                launches.append(argv)
            return run(argv, **kwargs)

        monkeypatch.setattr(corpus.subprocess, "run", counted)
        return launches

    def test_benign_alu_instruction_succeeds(self):
        outcome = self.run_native(entry(templates=("r64", "r64")))
        assert outcome.status is ExecStatus.SUCCESS

    def test_memory_operand_succeeds(self):
        outcome = self.run_native(entry(mnemonic="MOV", templates=("r64", "m64"), tag="memory-load"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_branch_with_label_succeeds(self):
        outcome = self.run_native(entry(mnemonic="JMP", templates=("rel32",), tag="branch"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_mmx_register_form_succeeds(self):
        e = entry(mnemonic="PADDQ", templates=("mm", "mm"), ext="mmx", tag="vector-alu")
        assert self.run_native(e).status is ExecStatus.SUCCESS

    def test_memory_only_form_assembles_with_suffix(self):
        outcome = self.run_native(entry(mnemonic="INC", templates=("m64",), tag="rmw"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_ud2_faults_as_illegal_instruction(self):
        outcome = self.run_native(entry(mnemonic="UD2", templates=(), tag="illegal-op"))
        assert outcome.status is ExecStatus.FAULT
        assert outcome.fault_kind == "illegal-instruction"

    @pytest.mark.parametrize("text, kind", [
        ("int3", "trap"),
        ("pushf\norl $0x100, (%rsp)\npopf\nnop", "trap"),  # single-stepping on
        ("mov 0, %rax", "segmentation-fault"),
        ("xor %ecx, %ecx\ndiv %rcx", "fp-exception"),
        # alignment checking on, then an 8-byte load one byte into scratch
        ("pushf\norl $0x40000, (%rsp)\npopf\nmov scratch+1(%rip), %rax", "bus-error"),
        ("ud2", "illegal-instruction"),
        ("mov $0, %rsp\nud2", "illegal-instruction"),  # the handler needs no stack of the snippet's
    ])
    def test_fault_classes_map_to_their_kinds(self, started, text, kind):
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(Snippet(entry(templates=()), text)) for _ in range(2)]
        assert outcomes == [ExecOutcome(ExecStatus.FAULT, fault_kind=kind)] * 2
        assert len(probe_processes(started)) == 1  # the probe survived its fault

    @pytest.mark.parametrize("text", [
        "incq scratch(%rip)\ncmpq $2, scratch(%rip)\nje 1f\nud2\n1:",
        "inc %r15\ncmp $1, %r15\nje 1f\nud2\n1:",
        "dec %rbx\njz 1f\nud2\n1:",
        # faults if the direction flag survived the run before, which sets it
        "pushf\ntestl $0x400, (%rsp)\njz 1f\nud2\n1:\nstd",
    ], ids=["scratch", "r15", "rbx", "direction-flag"])
    def test_every_run_starts_from_a_fresh_state(self, started, text):
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(Snippet(entry(templates=()), text)) for _ in range(3)]
        assert outcomes == [ExecOutcome(ExecStatus.SUCCESS)] * 3
        assert len(probe_processes(started)) == 1

    @pytest.mark.parametrize("text, kind", [
        ("mov $60, %eax\nmov $3, %edi\nsyscall", "exit-3"),  # exit(3)
        # kill(getpid(), SIGABRT), a signal the probe leaves to its default action
        ("mov $39, %eax\nsyscall\nmov %eax, %edi\nmov $6, %esi\nmov $62, %eax\nsyscall",
         "signal-6"),
    ])
    def test_dead_probe_is_classified_and_started_again(self, started, text, kind):
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(Snippet(entry(templates=()), text)) for _ in range(2)]
        assert outcomes == [ExecOutcome(ExecStatus.FAULT, fault_kind=kind)] * 2
        probes = probe_processes(started)
        assert len(probes) == 2
        for proc in probes:
            assert_reaped(proc)

    def test_probe_has_no_loader_and_no_libc(self):
        with NativeExecutor(backend=None) as executor:
            assert executor.execute(instantiate(entry())).status is ExecStatus.SUCCESS
            with open(os.path.join(executor.probe_dir.name, "probe0"), "rb") as fh:
                image = fh.read()
        assert image[:5] == b"\x7fELF\x02"  # 64-bit ELF
        phoff, = struct.unpack_from("<Q", image, 32)
        phentsize, phnum = struct.unpack_from("<HH", image, 54)
        types = {struct.unpack_from("<I", image, phoff + i * phentsize)[0] for i in range(phnum)}
        assert types and not types & {2, 3}  # no PT_DYNAMIC, no PT_INTERP

    def test_unknown_mnemonic_is_unsupported(self):
        outcome = self.run_native(entry(mnemonic="FLUBBER", templates=()))
        assert outcome.status is ExecStatus.UNSUPPORTED
        assert outcome.detail

    def test_same_snippet_compiles_once(self, compiles):
        snippet = instantiate(entry())
        with NativeExecutor(backend=None) as executor:
            assert executor.probe_dir is None  # nothing is created before the first execute
            outcomes = [executor.execute(snippet) for _ in range(3)]
        assert [o.status for o in outcomes] == [ExecStatus.SUCCESS] * 3
        assert len(compiles) == 1

    def test_distinct_snippets_compile_apart(self, compiles):
        with NativeExecutor(backend=None) as executor:
            for e in (entry(), entry(mnemonic="SUB")) * 2:
                assert executor.execute(instantiate(e)).status is ExecStatus.SUCCESS
        assert len(compiles) == 2

    def test_unassemblable_snippet_compiles_once(self, compiles):
        snippet = instantiate(entry(mnemonic="FLUBBER", templates=()))
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(snippet) for _ in range(3)]
        assert outcomes[0].status is ExecStatus.UNSUPPORTED
        assert outcomes[0].detail.startswith("assembler:")
        assert outcomes == [outcomes[0]] * 3
        assert len(compiles) == 1

    def test_killed_compiler_is_not_cached(self, monkeypatch):
        launches = []

        def killed(argv, **kwargs):
            launches.append(argv)
            return subprocess.CompletedProcess(argv, -9, "", "")

        monkeypatch.setattr(corpus.subprocess, "run", killed)
        snippet = instantiate(entry())
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(snippet) for _ in range(2)]
        assert [o.status for o in outcomes] == [ExecStatus.UNSUPPORTED] * 2
        assert len(launches) == 2  # a compiler killed by a signal is tried again

    def test_cached_ud2_still_faults(self, compiles):
        snippet = instantiate(entry(mnemonic="UD2", templates=(), tag="illegal-op"))
        with NativeExecutor(backend=None) as executor:
            outcomes = [executor.execute(snippet) for _ in range(2)]
        assert outcomes == [ExecOutcome(ExecStatus.FAULT, fault_kind="illegal-instruction")] * 2
        assert len(compiles) == 1

    def test_close_removes_probes(self, compiles):
        executor = NativeExecutor(backend=None)
        snippet = instantiate(entry())
        executor.execute(snippet)
        probe_dir = executor.probe_dir.name
        assert os.listdir(probe_dir)
        executor.close()
        assert not os.path.exists(probe_dir)
        executor.close()  # a second close is harmless
        assert executor.execute(snippet).status is ExecStatus.SUCCESS  # compiles afresh
        executor.close()
        assert len(compiles) == 2

    def test_looping_probe_is_stopped_by_watchdog_and_reaped(self, started):
        with NativeExecutor(backend=None) as executor:
            outcome = executor.execute(Snippet(entry(mnemonic="JMP", templates=()), "2: jmp 2b"))
        assert outcome == ExecOutcome(ExecStatus.FAULT, fault_kind="watchdog-timeout")
        assert len(started) == 2  # the compile, then the probe run
        for proc in started:
            assert_reaped(proc)

    def test_resident_probe_has_the_executors_cpu_affinity(self, started):
        # the MSR backend pins the process, and a counter counts only its own CPU
        saved = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(saved)})
            with NativeExecutor(backend=None) as executor:
                assert executor.execute(instantiate(entry())).status is ExecStatus.SUCCESS
                probe, = probe_processes(started)
                assert os.sched_getaffinity(probe.pid) == os.sched_getaffinity(0) == {min(saved)}
        finally:
            os.sched_setaffinity(0, saved)

    def test_close_reaps_every_probe(self, started):
        executor = NativeExecutor(backend=None)
        for text in ("nop", "ud2", "int3"):
            executor.execute(Snippet(entry(templates=()), text))
        probes = probe_processes(started)
        assert len(probes) == 3 and all(proc.poll() is None for proc in probes)
        executor.close()
        for proc in probes:
            assert_reaped(proc)

    def test_interpreter_exit_without_close_reaps_every_probe(self):
        child = (
            "from pmu_prospector import corpus\n"
            "executor = corpus.NativeExecutor(backend=None)\n"
            "entry = corpus.InstructionEntry(1, 'NOP', (), 'base', 'nop')\n"
            "for text in ('nop', 'ud2'):\n"
            "    executor.execute(corpus.Snippet(entry, text))\n"
            "print(*(proc.pid for proc in executor._resident.values()))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(corpus.__file__))}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_at_most_resident_probes_stay_alive(self, started):
        snippets = [Snippet(entry(templates=()), f"mov ${k}, %rax")
                    for k in range(RESIDENT_PROBES + 1)]
        with NativeExecutor(backend=None) as executor:
            for snippet in snippets:
                assert executor.execute(snippet).status is ExecStatus.SUCCESS
            probes = probe_processes(started)
            assert len(probes) == RESIDENT_PROBES + 1
            assert [proc.poll() is None for proc in probes] == [False] + [True] * RESIDENT_PROBES
            assert_reaped(probes[0])  # the least recently used was stopped
            assert executor.execute(snippets[0]).status is ExecStatus.SUCCESS  # and starts again
            probes = probe_processes(started)
            assert sum(proc.poll() is None for proc in probes) == RESIDENT_PROBES
            assert probes[1].poll() is not None and probes[-1].poll() is None

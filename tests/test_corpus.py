import shutil

import pytest

from pmu_prospector.backend import SLOTS, SimEventFamily, SimulatedPmu
from pmu_prospector.corpus import (
    ATT_ORDER,
    ExecStatus,
    InstructionEntry,
    INTEL_ORDER,
    NativeExecutor,
    OperandKind,
    SIGNAL_HANDLER,
    SimulatedExecutor,
    TRANSACTIONAL,
    classify_operand,
    instantiate,
    normalize_syntax,
    parse_corpus,
)
from pmu_prospector.errors import (
    CapabilityError,
    CorpusError,
    InstantiationError,
    NormalizationError,
)
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
        assert snippet.rendered_text == "add rax, rbx"
        assert snippet.register_pool == ("rax", "rbx")

    def test_memory_goes_to_scratch(self):
        snippet = instantiate(entry(mnemonic="MOV", templates=("r64", "m64")))
        assert snippet.rendered_text == "mov rax, [scratch]"

    def test_att_rendering(self):
        e = normalize_syntax(entry(mnemonic="MOV", templates=("r64", "m64")), ATT_ORDER)
        snippet = instantiate(e)
        assert snippet.rendered_text == "mov scratch(%rip), %rax"

    def test_immediate_rendering(self):
        assert instantiate(entry(templates=("r64", "imm8"))).rendered_text == "add rax, 1"
        att = normalize_syntax(entry(templates=("r64", "imm8")), ATT_ORDER)
        assert instantiate(att).rendered_text == "add $1, %rax"

    def test_branch_target_label_after_instruction(self):
        snippet = instantiate(entry(mnemonic="JMP", templates=("rel32",), tag="branch"))
        first, second = snippet.rendered_text.splitlines()
        assert first == "jmp target"
        assert second == "target:"

    def test_att_branch_uses_local_numeric_label(self):
        e = normalize_syntax(entry(mnemonic="JMP", templates=("rel32",), tag="branch"), ATT_ORDER)
        assert instantiate(e).rendered_text == "jmp 1f\n1:"

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


def make_executor_with(families, entries, fault_table=None, extensions=frozenset({"base"}), tsx=True):
    backend = SimulatedPmu(families, supports_tsx=tsx)
    by_id = {e.id: e for e in entries}
    return SimulatedExecutor(backend, by_id, fault_table=fault_table, supported_extensions=extensions)


class TestSimulatedExecutor:
    FAMILY = SimEventFamily(0x6C, 0x01, frozenset({"alu"}))

    def test_success_dispatches_class_tag(self):
        e = entry()
        executor = make_executor_with([self.FAMILY], [e])
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))
        assert outcome.status is ExecStatus.SUCCESS
        assert executor.backend.read(SLOTS[0]) == 1

    def test_fault_table_blocks_dispatch(self):
        e = entry(mnemonic="UD2", templates=(), tag="alu")
        executor = make_executor_with([self.FAMILY], [e], fault_table={1: "illegal-instruction"})
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))
        assert outcome.status is ExecStatus.FAULT
        assert outcome.fault_kind == "illegal-instruction"
        assert executor.backend.read(SLOTS[0]) == 0

    def test_unsupported_extension_blocks_dispatch(self):
        e = entry(ext="sse2")
        executor = make_executor_with([self.FAMILY], [e], extensions=frozenset({"base"}))
        executor.backend.program(SLOTS[0], scan_control(EventSelector(0x6C, 0x01)))
        outcome = executor.execute(instantiate(e))  # the register pool holds sse2
        assert outcome.status is ExecStatus.UNSUPPORTED
        assert executor.backend.read(SLOTS[0]) == 0

    def test_unknown_snippet_id_fails(self):
        executor = make_executor_with([self.FAMILY], [entry()])
        orphan = instantiate(entry(id=999))
        with pytest.raises(CorpusError, match="999"):
            executor.execute(orphan)

    def test_transactional_requires_capability(self):
        e = entry()
        executor = make_executor_with([self.FAMILY], [e], tsx=False)
        with pytest.raises(CapabilityError):
            executor.execute(instantiate(e), mode=TRANSACTIONAL)

    def test_transactional_with_capability_works(self):
        e = entry()
        executor = make_executor_with([self.FAMILY], [e], tsx=True)
        assert executor.execute(instantiate(e), mode=TRANSACTIONAL).status is ExecStatus.SUCCESS

    def test_unknown_mode_rejected(self):
        e = entry()
        executor = make_executor_with([self.FAMILY], [e])
        with pytest.raises(ValueError):
            executor.execute(instantiate(e), mode="eventually")


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
class TestNativeSnippetExecutor:
    def run_native(self, e):
        executor = NativeExecutor(backend=None)
        return executor.execute(instantiate(normalize_syntax(e, ATT_ORDER)))

    def test_benign_alu_instruction_succeeds(self):
        outcome = self.run_native(entry(templates=("r64", "r64")))
        assert outcome.status is ExecStatus.SUCCESS

    def test_memory_operand_succeeds(self):
        outcome = self.run_native(entry(mnemonic="MOV", templates=("r64", "m64"), tag="memory-load"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_branch_with_label_succeeds(self):
        outcome = self.run_native(entry(mnemonic="JMP", templates=("rel32",), tag="branch"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_memory_only_form_assembles_with_suffix(self):
        outcome = self.run_native(entry(mnemonic="INC", templates=("m64",), tag="rmw"))
        assert outcome.status is ExecStatus.SUCCESS

    def test_ud2_faults_as_illegal_instruction(self):
        outcome = self.run_native(entry(mnemonic="UD2", templates=(), tag="illegal-op"))
        assert outcome.status is ExecStatus.FAULT
        assert outcome.fault_kind == "illegal-instruction"

    def test_unknown_mnemonic_is_unsupported(self):
        outcome = self.run_native(entry(mnemonic="FLUBBER", templates=()))
        assert outcome.status is ExecStatus.UNSUPPORTED
        assert outcome.detail

    def test_transactional_mode_not_available(self):
        with pytest.raises(CapabilityError):
            NativeExecutor(backend=None).execute(
                instantiate(normalize_syntax(entry(), ATT_ORDER)), mode=TRANSACTIONAL
            )

    def test_intel_order_snippet_rejected(self):
        with pytest.raises(NormalizationError):
            NativeExecutor(backend=None).execute(instantiate(entry()))

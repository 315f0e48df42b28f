import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmu_prospector.errors import CatalogError
from pmu_prospector.events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    PackedSelector,
    PerfEvtSelValue,
    decode_msr_value,
    format_selector,
    load_catalog,
    pack_selector,
    parse_selector,
    render_msr_value,
    scan_control,
    selector_ascii,
    split_selector,
    umask_gates,
    unpack_selector,
)

class _Byte(int):
    """An int subclass: the byte check accepts it like an int."""


selectors = st.integers(0, EVENT_SPACE_SIZE - 1)

sel_values = st.builds(
    PerfEvtSelValue,
    selector=selectors,
    usr=st.booleans(),
    os=st.booleans(),
    edge=st.booleans(),
    pin_control=st.booleans(),
    interrupt_enable=st.booleans(),
    any_thread=st.booleans(),
    enable=st.booleans(),
    invert=st.booleans(),
    counter_mask=st.integers(0, 255),
)


class TestSelectorPacking:
    def test_pack_puts_umask_in_high_byte(self):
        assert load_catalog(io.StringIO("0x6C,0x01,widget\n")).entries == {0x016C: "widget"}

    def test_pack_extremes(self):
        assert (format_selector(0), format_selector(0xFFFF)) == ("0x0000", "0xFFFF")
        assert unpack_selector(0xFFFF).packed == parse_selector("0xFFFF") == 0xFFFF

    @given(selectors)
    def test_roundtrip(self, selector):
        unpacked = unpack_selector(selector)
        assert type(unpacked) is PackedSelector
        assert unpacked == unpacked.packed == selector

    def test_unpack_rejects_out_of_range(self):
        for bad in (-1, EVENT_SPACE_SIZE, 1 << 20):
            with pytest.raises(ValueError):
                unpack_selector(bad)
        with pytest.raises(TypeError):
            unpack_selector(1.5)  # not truncated to selector 1

    @pytest.mark.parametrize("value", [
        0, 1, 0x6C, 255, 256, -1, 1 << 70, True, False, 1.0, 0.0, "1", None, _Byte(7), _Byte(300),
    ])
    def test_byte_check_keeps_its_accept_set(self, value):
        # the check before the fast path for an exact int in [0, 255]
        accepted = isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= 0xFF
        if accepted:
            assert PerfEvtSelValue(selector=0, counter_mask=value).counter_mask == value
        else:
            with pytest.raises(ValueError, match="counter_mask must be an integer in"):
                PerfEvtSelValue(selector=0, counter_mask=value)

    @pytest.mark.parametrize("value", [
        0, 0x016C, 0xFFFF, _Byte(7),
        EVENT_SPACE_SIZE, -1, 1 << 20, True, False, 1.0, "0x016C", None,
    ])
    def test_register_value_checks_its_selector(self, value):
        accepted = (isinstance(value, int) and not isinstance(value, bool)
                    and 0 <= value < EVENT_SPACE_SIZE)
        if accepted:
            assert PerfEvtSelValue(selector=value).selector == value
        else:
            with pytest.raises(ValueError, match=r"selector must be an integer in \[0, 65535\]"):
                PerfEvtSelValue(selector=value)

    def test_format_and_parse(self):
        assert format_selector(0x016C) == "0x016C"
        assert format_selector(0x0008) == "0x0008"
        assert parse_selector("0x016C") == 0x016C
        assert parse_selector("016c") == 0x016C
        assert parse_selector("016c").packed == 0x016C

    def test_ascii_table_rows_equal_format_selector(self):
        table = selector_ascii()
        assert table.shape == (EVENT_SPACE_SIZE, 6)
        assert table.tobytes() == "".join(
            format_selector(p) for p in range(EVENT_SPACE_SIZE)
        ).encode("ascii")
        assert selector_ascii() is table  # built once per process
        assert not table.flags.writeable

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_split_inverts_the_packing(self, event_code, umask):
        packed = load_catalog(io.StringIO(f"0x{event_code:02X},0x{umask:02X},e\n")).entries
        assert [split_selector(p) for p in packed] == [(event_code, umask)]
        assert list(packed) == [pack_selector(event_code, umask)]
        assert type(pack_selector(event_code, umask)) is int
        codes, umasks = np.array([event_code, 0xFF, 0]), np.array([umask, 0, 0xFF])
        assert pack_selector(codes, umasks).tolist() == [
            umask * 256 + event_code, 0x00FF, 0xFF00]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_selector("zz")
        with pytest.raises(ValueError):
            parse_selector("0x10000")


class TestEnumeration:
    def test_covers_the_full_space_in_packed_order(self):
        space = [unpack_selector(packed) for packed in range(EVENT_SPACE_SIZE)]
        assert len(space) == 65536
        assert space == list(range(EVENT_SPACE_SIZE))
        assert [s.packed for s in space[:300]] == list(range(300))
        assert space[-1].packed == 0xFFFF

    def test_all_points_unique(self):
        assert len({unpack_selector(p) for p in range(EVENT_SPACE_SIZE)}) == EVENT_SPACE_SIZE


class TestRegisterImage:
    def test_render_default_scan_control(self):
        value = scan_control(0x003C)
        assert render_msr_value(value) == 0x000000000043003C

    def test_selector_sets_no_bit_above_15(self):
        flags = render_msr_value(scan_control(0))
        assert render_msr_value(scan_control(0xFFFF)) == flags | 0xFFFF

    def test_render_with_counter_mask(self):
        # oracle: OR each field at its documented position independently
        with_usr = PerfEvtSelValue(
            selector=0x016C,
            usr=True,
            enable=True,
            counter_mask=2,
        )
        assert render_msr_value(with_usr) == 0x016C | (1 << 16) | (1 << 22) | (2 << 24)
        assert render_msr_value(with_usr) == 0x000000000241016C
        with_os = PerfEvtSelValue(
            selector=0x016C,
            os=True,
            enable=True,
            counter_mask=2,
        )
        assert render_msr_value(with_os) == 0x016C | (1 << 17) | (1 << 22) | (2 << 24)
        assert render_msr_value(with_os) == 0x000000000242016C

    def test_flag_bit_positions(self):
        base = 0
        for name, bit in [
            ("usr", 16), ("os", 17), ("edge", 18), ("pin_control", 19),
            ("interrupt_enable", 20), ("any_thread", 21), ("enable", 22), ("invert", 23),
        ]:
            raw = render_msr_value(PerfEvtSelValue(selector=base, **{name: True}))
            assert raw == 1 << bit, name

    def test_counter_mask_occupies_bits_31_24(self):
        raw = render_msr_value(PerfEvtSelValue(selector=0, counter_mask=0xFF))
        assert raw == 0xFF << 24

    @given(sel_values)
    def test_decode_inverts_render(self, value):
        raw = render_msr_value(value)
        assert raw < (1 << 32)
        assert decode_msr_value(raw) == value

    def test_decode_rejects_reserved_bits(self):
        with pytest.raises(ValueError):
            decode_msr_value(1 << 32)
        with pytest.raises(ValueError):
            decode_msr_value(0xDEAD00000043003C)

    def test_decode_rejects_non_64_bit(self):
        with pytest.raises(ValueError):
            decode_msr_value(-1)
        with pytest.raises(ValueError):
            decode_msr_value(1 << 64)

    def test_scan_control_defaults(self):
        value = scan_control(0x2010)
        assert value.usr and value.os and value.enable
        assert not (value.edge or value.pin_control or value.interrupt_enable)
        assert not (value.any_thread or value.invert)
        assert value.counter_mask == 0
        assert scan_control(0, any_thread=True).any_thread


class TestUmaskGate:
    def test_zero_mask_counts_for_any_umask(self):
        assert umask_gates(0x00, 0x00)
        assert umask_gates(0xFF, 0x00)

    def test_nonzero_mask_needs_overlap(self):
        assert umask_gates(0x01, 0x01)
        assert umask_gates(0x03, 0x02)
        assert not umask_gates(0x02, 0x01)
        assert not umask_gates(0x00, 0x01)

    @given(st.integers(0, 255), st.integers(1, 255))
    def test_gate_matches_bitwise_and(self, umask, mask):
        assert umask_gates(umask, mask) == bool(umask & mask)

    def test_arrays_gate_element_by_element(self):
        gates = umask_gates(np.arange(256)[:, None], np.arange(256))
        assert gates.dtype == bool and gates.shape == (256, 256)
        assert gates.tolist() == [[umask_gates(umask, mask) for mask in range(256)]
                                  for umask in range(256)]


class TestCatalog:
    def test_load_and_lookup(self):
        text = "event_code,umask,name\n0x3C,0x00,clock\n0x6C,0x01,widget\n"
        catalog = load_catalog(io.StringIO(text), source="inline")
        assert len(catalog) == 2
        assert 0x003C in catalog
        assert 0x013C not in catalog

    def test_duplicate_keys_fail(self):
        text = "0x3C,0x00,a\n0x3C,0x00,b\n"
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(io.StringIO(text))

    def test_requires_hex_prefix(self):
        with pytest.raises(CatalogError, match="0x prefix"):
            load_catalog(io.StringIO("60,0x00,a\n"))

    def test_rejects_wrong_column_count(self):
        with pytest.raises(CatalogError, match="3 columns"):
            load_catalog(io.StringIO("0x60,0x00\n"))

    def test_rejects_out_of_range_bytes(self):
        with pytest.raises(CatalogError, match="byte range"):
            load_catalog(io.StringIO("0x100,0x00,a\n"))

    def test_blank_lines_and_comments_skipped(self):
        text = "# comment\n\n0x01,0x02,thing\n"
        assert len(load_catalog(io.StringIO(text))) == 1

    def test_undocumented_complement_of_200_entry_catalog(self):
        entries = {
            umask << 8 | code: f"e{code}-{umask}"
            for code in range(20)
            for umask in range(10)
        }
        catalog = EventCatalog(entries=entries)
        assert len(catalog) == 200
        # oracle: complement computed by explicit set difference
        documented = set(entries)
        space = [unpack_selector(packed) for packed in range(EVENT_SPACE_SIZE)]
        undocumented = [s for s in space if s not in documented]
        assert len(undocumented) == len(set(undocumented))
        assert len(undocumented) == 65536 - 200 == 65336
        assert sum(1 for s in space if s not in catalog) == 65336

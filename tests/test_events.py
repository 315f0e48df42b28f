import io

import pytest
from hypothesis import given, strategies as st

from pmu_prospector.errors import CatalogError
from pmu_prospector.events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    EventSelector,
    PerfEvtSelValue,
    decode_msr_value,
    enumerate_space,
    format_selector,
    load_catalog,
    pack_selector,
    parse_selector,
    render_msr_value,
    scan_control,
    umask_gates,
    unpack_selector,
)

selectors = st.builds(
    EventSelector,
    event_code=st.integers(0, 255),
    umask=st.integers(0, 255),
)

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
        assert pack_selector(EventSelector(event_code=0x6C, umask=0x01)) == 0x016C

    def test_pack_extremes(self):
        assert pack_selector(EventSelector(0, 0)) == 0x0000
        assert pack_selector(EventSelector(0xFF, 0xFF)) == 0xFFFF

    def test_unpack_recovers_both_bytes(self):
        assert unpack_selector(0x016C) == EventSelector(event_code=0x6C, umask=0x01)

    @given(selectors)
    def test_roundtrip(self, selector):
        assert unpack_selector(pack_selector(selector)) == selector

    def test_unpack_rejects_out_of_range(self):
        for bad in (-1, EVENT_SPACE_SIZE, 1 << 20):
            with pytest.raises(ValueError):
                unpack_selector(bad)

    def test_selector_rejects_out_of_range_bytes(self):
        with pytest.raises(ValueError):
            EventSelector(event_code=256, umask=0)
        with pytest.raises(ValueError):
            EventSelector(event_code=0, umask=-1)

    def test_format_and_parse(self):
        selector = EventSelector(event_code=0x6C, umask=0x01)
        assert format_selector(selector) == "0x016C"
        assert parse_selector("0x016C") == selector
        assert parse_selector("016c") == selector

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_selector("zz")
        with pytest.raises(ValueError):
            parse_selector("0x10000")


class TestEnumeration:
    def test_covers_the_full_space_in_packed_order(self):
        space = list(enumerate_space())
        assert len(space) == 65536
        assert space[0] == EventSelector(event_code=0, umask=0)
        assert space[0x016C] == EventSelector(event_code=0x6C, umask=0x01)
        assert [pack_selector(s) for s in space[:300]] == list(range(300))
        assert pack_selector(space[-1]) == 0xFFFF

    def test_all_points_unique(self):
        assert len(set(enumerate_space())) == EVENT_SPACE_SIZE


class TestRegisterImage:
    def test_render_default_scan_control(self):
        value = scan_control(EventSelector(event_code=0x3C, umask=0x00))
        assert render_msr_value(value) == 0x000000000043003C

    def test_render_with_counter_mask(self):
        # oracle: OR each field at its documented position independently
        with_usr = PerfEvtSelValue(
            selector=EventSelector(event_code=0x6C, umask=0x01),
            usr=True,
            enable=True,
            counter_mask=2,
        )
        assert render_msr_value(with_usr) == 0x016C | (1 << 16) | (1 << 22) | (2 << 24)
        assert render_msr_value(with_usr) == 0x000000000241016C
        with_os = PerfEvtSelValue(
            selector=EventSelector(event_code=0x6C, umask=0x01),
            os=True,
            enable=True,
            counter_mask=2,
        )
        assert render_msr_value(with_os) == 0x016C | (1 << 17) | (1 << 22) | (2 << 24)
        assert render_msr_value(with_os) == 0x000000000242016C

    def test_flag_bit_positions(self):
        base = EventSelector(0, 0)
        for name, bit in [
            ("usr", 16), ("os", 17), ("edge", 18), ("pin_control", 19),
            ("interrupt_enable", 20), ("any_thread", 21), ("enable", 22), ("invert", 23),
        ]:
            raw = render_msr_value(PerfEvtSelValue(selector=base, **{name: True}))
            assert raw == 1 << bit, name

    def test_counter_mask_occupies_bits_31_24(self):
        raw = render_msr_value(PerfEvtSelValue(selector=EventSelector(0, 0), counter_mask=0xFF))
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
        value = scan_control(EventSelector(0x10, 0x20))
        assert value.usr and value.os and value.enable
        assert not (value.edge or value.pin_control or value.interrupt_enable)
        assert not (value.any_thread or value.invert)
        assert value.counter_mask == 0
        assert scan_control(EventSelector(0, 0), any_thread=True).any_thread


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


class TestCatalog:
    def test_load_and_lookup(self):
        text = "event_code,umask,name\n0x3C,0x00,clock\n0x6C,0x01,widget\n"
        catalog = load_catalog(io.StringIO(text), source="inline")
        assert len(catalog) == 2
        assert EventSelector(0x3C, 0x00) in catalog
        assert EventSelector(0x3C, 0x01) not in catalog

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
            EventSelector(code, umask): f"e{code}-{umask}"
            for code in range(20)
            for umask in range(10)
        }
        catalog = EventCatalog(entries=entries)
        assert len(catalog) == 200
        # oracle: complement computed by explicit set difference
        documented = set(entries)
        undocumented = [s for s in enumerate_space() if s not in documented]
        assert len(undocumented) == len(set(undocumented))
        assert len(undocumented) == 65536 - 200 == 65336
        assert sum(1 for s in enumerate_space() if s not in catalog) == 65336

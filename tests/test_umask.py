"""Umask relevance inference tests.

The gate under reconstruction: a selector counts iff the relevance mask is
zero or shares a bit with the umask.  Inference sees only counted/quiet
points and must recover the mask that generated them.
"""

from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmu_prospector.collector import ScanReport
from pmu_prospector.events import umask_gates
from pmu_prospector.umask import (
    RelevanceMask,
    group_hidden_by_event_code,
    infer_relevance_mask,
    infer_report_masks,
    write_distribution_csv,
    write_masks_csv,
)

UMASKS = range(256)
# GATES[umask, mask]: whether the gate with relevance mask `mask` lets `umask` count
GATES = np.array([[umask_gates(umask, mask) for mask in range(256)] for umask in UMASKS])


def full_pattern(mask: int) -> set[int]:
    """The umasks the gate itself lets count."""
    return {umask for umask in UMASKS if umask_gates(umask, mask)}


def brute_force_mask(event_code: int, counted: set[int]) -> RelevanceMask:
    """Reference search: score all 256 candidate masks against the counted
    and quiet umasks, keep the consistent one with the most bits, else fall
    back to the single bit that agrees with the most umasks."""
    pattern = np.isin(np.arange(256), list(counted))
    agree = GATES == pattern[:, None]
    consistent = [int(mask) for mask in np.flatnonzero(agree.all(axis=0))]
    if consistent:
        return RelevanceMask(event_code, max(consistent, key=int.bit_count), consistent=True)
    scores = [int(agree[:, 1 << bit].sum()) for bit in range(8)]
    return RelevanceMask(event_code, 1 << scores.index(max(scores)), consistent=False)


@st.composite
def gate_pattern_with_flips(draw):
    """The counted set of a random gate, a few umasks flipped."""
    mask = draw(st.integers(0, 255))
    flips = draw(st.sets(st.integers(0, 255), max_size=3))
    return full_pattern(mask) ^ flips


counted_sets = st.one_of(
    st.sets(st.integers(0, 255), max_size=256),
    gate_pattern_with_flips(),
    # near-full: a few quiet umasks
    st.sets(st.integers(0, 255), max_size=3).map(lambda quiet: set(UMASKS) - quiet),
    st.just(set()),
    st.just(set(UMASKS)),
)


class TestInference:
    @settings(max_examples=500, deadline=None)
    @given(counted_sets)
    @example(set())
    @example({0})
    @example(set(UMASKS))
    @example(set(UMASKS) - {0})
    @example(set(UMASKS) - {0x05, 0x0A})
    def test_closed_form_equals_brute_force(self, counted):
        assert infer_relevance_mask(0x21, counted) == brute_force_mask(0x21, counted)

    def test_every_mask_recovered_from_its_full_pattern(self):
        for mask in range(256):
            result = infer_relevance_mask(0x42, full_pattern(mask))
            assert result == RelevanceMask(0x42, mask, consistent=True)
            assert brute_force_mask(0x42, full_pattern(mask)) == result

    def test_odd_umask_pattern_means_bit_zero(self):
        result = infer_relevance_mask(0x6C, {u for u in UMASKS if u & 0x01})
        assert result == RelevanceMask(0x6C, 0x01, consistent=True)

    def test_counting_everywhere_means_mask_zero(self):
        result = infer_relevance_mask(0x5E, full_pattern(0x00))
        assert result == RelevanceMask(0x5E, 0x00, consistent=True)

    def test_quiet_points_forbid_their_bits(self):
        # quiet 0x0C (and its sub-umasks) rules out bits 2 and 3 only
        result = infer_relevance_mask(0x10, set(UMASKS) - {0x00, 0x04, 0x08, 0x0C})
        assert result == RelevanceMask(0x10, 0xF3, consistent=True)

    def test_contradiction_falls_back_to_single_bit(self):
        # quiet 0x03 forbids bits 0 and 1, yet 0x01 and 0x02 counted: nothing
        # fits; bits 2-7 tie at 130 agreeing umasks (bits 0, 1: 128) and the
        # first of them wins
        result = infer_relevance_mask(0x10, set(UMASKS) - {0x00, 0x03})
        assert result == RelevanceMask(0x10, 0x04, consistent=False)

    def test_spurious_count_in_odd_pattern_degrades_gracefully(self):
        # an over-count at umask 2 breaks exact inference; the best single
        # bit is still the true one
        result = infer_relevance_mask(0x6C, {u for u in UMASKS if u & 0x01 or u == 2})
        assert result == RelevanceMask(0x6C, 0x01, consistent=False)


def synthetic_report() -> ScanReport:
    hidden: dict[int, set[int]] = {}
    for umask in range(256):
        if umask & 0x01:
            hidden[umask << 8 | 0x6C] = {1}
        if umask & 0x10:
            hidden[umask << 8 | 0x08] = {5}
        hidden[umask << 8 | 0x5E] = {3, 6}
    return ScanReport(
        microarchitecture_label="sim",
        total_instructions=10,
        executed_success=8,
        hidden_events=hidden,
    )


class TestReportAnalysis:
    def test_masks_inferred_per_event_code(self):
        masks = infer_report_masks(group_hidden_by_event_code(synthetic_report()))
        assert masks == {
            0x08: RelevanceMask(0x08, 0x10, consistent=True),
            0x5E: RelevanceMask(0x5E, 0x00, consistent=True),
            0x6C: RelevanceMask(0x6C, 0x01, consistent=True),
        }

    def test_grouping_sorts_both_dimensions(self):
        grouped = group_hidden_by_event_code(synthetic_report())
        assert list(grouped) == [0x08, 0x5E, 0x6C]
        assert grouped[0x08] == [u for u in range(256) if u & 0x10]
        assert grouped[0x6C] == [u for u in range(256) if u & 0x01]
        assert grouped[0x5E] == list(range(256))

    def test_distribution_points_sorted(self, tmp_path):
        path = tmp_path / "distribution.csv"
        write_distribution_csv(group_hidden_by_event_code(synthetic_report()), str(path))
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        points = [tuple(int(field, 16) for field in row.split(",")) for row in rows]
        assert points == sorted(points)
        assert len(points) == 128 + 128 + 256
        assert points[0] == (0x08, 0x10)

    def test_distribution_csv(self, tmp_path):
        path = str(tmp_path / "distribution.csv")
        write_distribution_csv(group_hidden_by_event_code(synthetic_report()), path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "event_code,umask"
        assert lines[1] == "0x08,0x10"
        assert len(lines) == 1 + 512

    def test_masks_csv(self, tmp_path):
        path = str(tmp_path / "masks.csv")
        masks = {
            0x6C: RelevanceMask(0x6C, 0x01, consistent=True),
            0x10: RelevanceMask(0x10, 0x04, consistent=False),
        }
        write_masks_csv(masks, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines == [
            "event_code,relevance_mask,consistent",
            "0x10,0x04,false",
            "0x6C,0x01,true",
        ]

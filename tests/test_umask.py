"""Umask relevance inference tests.

The gate under reconstruction: a selector counts iff the relevance mask is
zero or shares a bit with the umask.  Inference sees only counted/quiet
points and must recover the mask that generated them.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmu_prospector.collector import ScanReport
from pmu_prospector.events import EventSelector, umask_gates
from pmu_prospector.umask import (
    RelevanceMask,
    RelevanceObservation,
    group_hidden_by_event_code,
    infer_relevance_mask,
    infer_report_masks,
    write_distribution_csv,
    write_masks_csv,
)


def full_pattern(event_code: int, mask: int) -> list[RelevanceObservation]:
    """Observations for all 256 umasks generated by the gate itself."""
    return [
        RelevanceObservation(event_code, umask, umask_gates(umask, mask))
        for umask in range(256)
    ]


def brute_force_mask(observations: list[RelevanceObservation]) -> RelevanceMask:
    """Reference search: score all 256 candidate masks against the merged
    points, keep the consistent one with the most bits, else fall back to
    the single bit that agrees with the most points."""
    observed: dict[int, bool] = {}
    for obs in observations:
        observed[obs.umask] = observed.get(obs.umask, False) or obs.counted
    points = list(observed.items())
    code = observations[0].event_code
    consistent = [
        mask for mask in range(256)
        if all(umask_gates(umask, mask) == counted for umask, counted in points)
    ]
    if consistent:
        return RelevanceMask(code, max(consistent, key=int.bit_count), consistent=True)
    scores = [
        sum(umask_gates(umask, 1 << bit) == counted for umask, counted in points)
        for bit in range(8)
    ]
    return RelevanceMask(code, 1 << scores.index(max(scores)), consistent=False)


@st.composite
def gate_points_with_flips(draw):
    """Points generated by a random gate, a few of them flipped."""
    mask = draw(st.integers(0, 255))
    umasks = draw(st.lists(st.integers(0, 255), min_size=1, max_size=40))
    flips = draw(st.sets(st.integers(0, len(umasks) - 1), max_size=3))
    return [(u, umask_gates(u, mask) != (i in flips)) for i, u in enumerate(umasks)]


observation_points = st.one_of(
    # few distinct umasks, so duplicates with both verdicts are common
    st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 0x0C, 0x80, 0xFF]), st.booleans()),
             min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 255), st.just(True)), min_size=1, max_size=20),
    st.lists(st.tuples(st.integers(0, 255), st.just(False)), min_size=1, max_size=20),
    gate_points_with_flips(),
)


class TestInference:
    @settings(max_examples=500, deadline=None)
    @given(observation_points)
    @example([(0, True)])
    @example([(0, True), (0x10, True)])
    @example([(0x03, True), (0x40, True)])
    @example([(0, False), (0xFF, False)])
    @example([(0x05, False), (0x05, True), (0x0A, False)])
    def test_closed_form_equals_brute_force(self, points):
        observations = [RelevanceObservation(0x21, umask, counted) for umask, counted in points]
        assert infer_relevance_mask(observations) == brute_force_mask(observations)

    def test_every_mask_recovered_from_its_full_pattern(self):
        for mask in range(256):
            result = infer_relevance_mask(full_pattern(0x42, mask))
            assert result == RelevanceMask(0x42, mask, consistent=True)
            assert brute_force_mask(full_pattern(0x42, mask)) == result

    def test_odd_umask_pattern_means_bit_zero(self):
        result = infer_relevance_mask(
            RelevanceObservation(0x6C, u, bool(u & 0x01)) for u in range(256)
        )
        assert result == RelevanceMask(0x6C, 0x01, consistent=True)

    def test_counting_everywhere_means_mask_zero(self):
        result = infer_relevance_mask(full_pattern(0x5E, 0x00))
        assert result == RelevanceMask(0x5E, 0x00, consistent=True)

    def test_partial_observations_pick_maximal_consistent_mask(self):
        # one counted point constrains almost nothing, so all bits stay in
        result = infer_relevance_mask([RelevanceObservation(0x10, 0x03, True)])
        assert result == RelevanceMask(0x10, 0xFF, consistent=True)

    def test_quiet_points_forbid_their_bits(self):
        observations = [
            RelevanceObservation(0x10, 0x01, True),
            RelevanceObservation(0x10, 0x0C, False),
        ]
        result = infer_relevance_mask(observations)
        assert result == RelevanceMask(0x10, 0xF3, consistent=True)

    def test_contradiction_falls_back_to_single_bit(self):
        # quiet 0x03 forbids bits 0 and 1, yet 0x01 counted: nothing fits
        observations = [
            RelevanceObservation(0x10, 0x03, False),
            RelevanceObservation(0x10, 0x01, True),
        ]
        result = infer_relevance_mask(observations)
        assert result == RelevanceMask(0x10, 0x01, consistent=False)

    def test_spurious_count_in_odd_pattern_degrades_gracefully(self):
        # an over-count at umask 2 breaks exact inference; the best single
        # bit is still the true one
        observations = [
            RelevanceObservation(0x6C, u, bool(u & 0x01) or u == 2) for u in range(256)
        ]
        result = infer_relevance_mask(observations)
        assert result == RelevanceMask(0x6C, 0x01, consistent=False)

    def test_duplicate_observations_merge_by_or(self):
        noisy = [
            RelevanceObservation(0x10, 0x05, False),
            RelevanceObservation(0x10, 0x05, True),
        ]
        assert infer_relevance_mask(noisy) == infer_relevance_mask(reversed(noisy))
        assert infer_relevance_mask(noisy) == infer_relevance_mask(
            [RelevanceObservation(0x10, 0x05, True)]
        )

    def test_mixed_event_codes_rejected(self):
        observations = [
            RelevanceObservation(0x10, 0x01, True),
            RelevanceObservation(0x20, 0x01, True),
        ]
        with pytest.raises(ValueError, match="mixed event codes"):
            infer_relevance_mask(observations)

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            infer_relevance_mask([])

    @settings(max_examples=200, deadline=None)
    @given(
        mask=st.integers(0, 255),
        umasks=st.sets(st.integers(0, 255), min_size=1, max_size=40),
    )
    def test_inferred_mask_explains_any_gate_generated_subset(self, mask, umasks):
        observations = [
            RelevanceObservation(0x33, u, umask_gates(u, mask)) for u in umasks
        ]
        result = infer_relevance_mask(observations)
        assert result.consistent
        for obs in observations:
            assert umask_gates(obs.umask, result.mask) == obs.counted


def synthetic_report() -> ScanReport:
    hidden: dict[EventSelector, set[int]] = {}
    for umask in range(256):
        if umask & 0x01:
            hidden[EventSelector(0x6C, umask)] = {1}
        if umask & 0x10:
            hidden[EventSelector(0x08, umask)] = {5}
        hidden[EventSelector(0x5E, umask)] = {3, 6}
    return ScanReport(
        microarchitecture_label="sim",
        total_instructions=10,
        executed_success=8,
        hidden_events=hidden,
    )


class TestReportAnalysis:
    def test_masks_inferred_per_event_code(self):
        masks = infer_report_masks(synthetic_report())
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
        write_distribution_csv(synthetic_report(), str(path))
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        points = [tuple(int(field, 16) for field in row.split(",")) for row in rows]
        assert points == sorted(points)
        assert len(points) == 128 + 128 + 256
        assert points[0] == (0x08, 0x10)

    def test_distribution_csv(self, tmp_path):
        path = str(tmp_path / "distribution.csv")
        write_distribution_csv(synthetic_report(), path)
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

"""Covert-channel tests: trial mechanics, byte recovery, rates, screening.

The channel transmits through a bound counter: a matching candidate runs
the transmit instruction, so its accumulated score separates from the
noise floor.  All tests drive the deterministic simulated backend.
"""

import json
import math

import numpy as np
import pytest

from pmu_prospector.backend import BackendCapabilities, SimEventFamily, SimulatedPmu
from pmu_prospector.corpus import SIGNAL_HANDLER, TRANSACTIONAL
from pmu_prospector.errors import CapabilityError
from pmu_prospector.events import EventSelector
from pmu_prospector.seeding import point_fraction
from pmu_prospector.sidechannel import (
    ATTACK_KINDS,
    MELTDOWN,
    MIN_CHANNEL_ACCURACY,
    SPECTRE_V1,
    SPECTRE_V2,
    ChannelMetrics,
    GadgetSpec,
    RecoveryResult,
    SimVictim,
    channel_metrics,
    recover_byte,
    recover_secret,
    screen_channel_events,
    transmit_capable_selectors,
    trial_cost_seconds,
    write_result_json,
    _check_runnable,
    _fire_table,
    _gadget_rounds,
)

LOAD_FAMILY = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))
BOUND = EventSelector(0x6C, 0x01)


def load_backend(seed: int = 0, supports_tsx: bool = True) -> SimulatedPmu:
    return SimulatedPmu([LOAD_FAMILY], seed=seed, supports_tsx=supports_tsx)


def spec_with(**overrides) -> GadgetSpec:
    return GadgetSpec(bound_selector=BOUND, **overrides)


def run_trial(spec, guess, position, backend, victim, iteration=0) -> int:
    """One gadget round for one candidate byte; returns the counter delta."""
    pmu = _check_runnable(spec, backend)
    if not 0 <= guess <= 0xFF:
        raise ValueError(f"guess out of byte range: {guess!r}")
    if not 0 <= position < len(victim.secret):
        raise IndexError(f"position {position} outside the {len(victim.secret)}-byte secret")
    fires = _fire_table(spec, victim, position, np.array([guess]), np.array([iteration]))
    return int(_gadget_rounds(spec, pmu, fires)[0])


class TestTrialCosts:
    def test_reference_rates_pin_the_cost_model(self):
        assert trial_cost_seconds(MELTDOWN, TRANSACTIONAL) == 1.0 / (789.86 * 2560)
        assert trial_cost_seconds(MELTDOWN, SIGNAL_HANDLER) == 1.0 / (497.49 * 2560)
        assert trial_cost_seconds(SPECTRE_V2, SIGNAL_HANDLER) == 1.0 / (148.68 * 2560)

    def test_spectre_costs_ignore_suppression_mode(self):
        for kind in (SPECTRE_V1, SPECTRE_V2):
            assert trial_cost_seconds(kind, TRANSACTIONAL) == trial_cost_seconds(
                kind, SIGNAL_HANDLER
            )

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ValueError, match="no rate calibration"):
            trial_cost_seconds("rowhammer", SIGNAL_HANDLER)


class TestValidation:
    def test_gadget_spec_bounds(self):
        with pytest.raises(ValueError):
            spec_with(iterations=0)
        with pytest.raises(ValueError):
            spec_with(secret_length=0)
        with pytest.raises(ValueError):
            spec_with(suppression="polling")
        with pytest.raises(ValueError):
            spec_with(attack_kind="rowhammer")
        with pytest.raises(ValueError):
            spec_with(transmit_class="")

    def test_victim_bounds(self):
        with pytest.raises(ValueError):
            SimVictim(b"")
        with pytest.raises(ValueError):
            SimVictim(b"x", false_fire_prob=1.0)
        with pytest.raises(ValueError):
            SimVictim(b"x", false_fire_prob=-0.1)
        assert SimVictim(b"x").false_fire_prob == 0.0

    def test_known_attack_kinds(self):
        assert ATTACK_KINDS == (MELTDOWN, SPECTRE_V1, SPECTRE_V2)


class TestRunTrial:
    def test_matching_guess_fires_transmit(self):
        victim = SimVictim(b"A")
        backend = load_backend()
        assert run_trial(spec_with(), ord("A"), 0, backend, victim) == 1
        assert run_trial(spec_with(), ord("B"), 0, backend, victim) == 0

    def test_increment_scales_the_delta(self):
        family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}), increment=3)
        backend = SimulatedPmu([family])
        assert run_trial(spec_with(), ord("A"), 0, backend, SimVictim(b"A")) == 3

    def test_scaffold_counter_cannot_carry_the_signal(self):
        # bound event reacts to the scaffold class itself: every trial looks
        # identical, so the channel through this selector is useless
        family = SimEventFamily(0x5E, 0x01, frozenset({"alu"}))
        backend = SimulatedPmu([family])
        spec = GadgetSpec(bound_selector=EventSelector(0x5E, 0x01))
        victim = SimVictim(b"A")
        assert run_trial(spec, ord("A"), 0, backend, victim) == 1
        assert run_trial(spec, ord("B"), 0, backend, victim) == 1

    def test_spectre_v1_never_reaches_transmit(self):
        victim = SimVictim(b"A")
        spec = spec_with(attack_kind=SPECTRE_V1)
        assert run_trial(spec, ord("A"), 0, load_backend(), victim) == 0

    def test_false_fire_follows_the_indexed_draw(self):
        victim = SimVictim(b"A", false_fire_prob=0.5, noise_seed=77)
        spec = spec_with()
        backend = load_backend()
        for guess in (0, 10, 200):
            for iteration in (0, 3):
                expected = point_fraction(77, 0, guess, iteration) < 0.5
                delta = run_trial(spec, guess, 0, backend, victim, iteration)
                assert delta == int(expected)

    def test_guess_and_position_validated(self):
        victim = SimVictim(b"AB")
        with pytest.raises(ValueError, match="guess out of byte range"):
            run_trial(spec_with(), 256, 0, load_backend(), victim)
        with pytest.raises(IndexError):
            run_trial(spec_with(), 0, 2, load_backend(), victim)

    def test_requires_simulated_backend(self):
        class FakeNative:
            def capabilities(self):
                return BackendCapabilities(False)

        with pytest.raises(CapabilityError):
            run_trial(spec_with(), 0, 0, FakeNative(), SimVictim(b"A"))

    def test_transactional_needs_backend_support(self):
        spec = spec_with(suppression=TRANSACTIONAL)
        with pytest.raises(CapabilityError):
            run_trial(spec, 0, 0, load_backend(supports_tsx=False), SimVictim(b"A"))
        assert run_trial(spec, ord("A"), 0, load_backend(), SimVictim(b"A")) == 1


class TestRecoverByte:
    def test_noise_free_byte_is_exact(self):
        victim = SimVictim(b"K")
        best, scores = recover_byte(spec_with(), 0, load_backend(), victim)
        assert best == ord("K")
        assert scores[ord("K")] == 10  # iterations x increment
        assert sum(scores) == 10

    def test_scores_match_accumulated_single_trials(self):
        victim = SimVictim(bytes([200]), false_fire_prob=0.35, noise_seed=9)
        spec = spec_with(iterations=4)
        backend = load_backend()
        manual = [
            sum(run_trial(spec, candidate, 0, backend, victim, it) for it in range(4))
            for candidate in range(256)
        ]
        best, scores = recover_byte(spec, 0, backend, victim)
        assert scores == manual
        assert best == max(range(256), key=lambda c: (scores[c], -c))

    def test_all_zero_scores_decode_low_byte(self):
        victim = SimVictim(b"Z")
        best, scores = recover_byte(spec_with(attack_kind=SPECTRE_V1), 0,
                                    load_backend(), victim)
        assert best == 0
        assert scores == [0] * 256

    def test_position_validated(self):
        with pytest.raises(IndexError):
            recover_byte(spec_with(), 5, load_backend(), SimVictim(b"AB"))


class TestRecoverSecret:
    def test_noise_free_recovery_is_exact(self, secret_path):
        secret = open(secret_path, "rb").read()
        assert len(secret) == 16
        result = recover_secret(spec_with(), load_backend(), SimVictim(secret))
        assert result.recovered_bytes == secret
        assert channel_metrics(result, secret).error_rate == 0.0
        assert result.confidences() == [1.0] * 16

    def test_elapsed_is_trials_times_cost(self):
        spec = spec_with(secret_length=4, iterations=7)
        result = recover_secret(spec, load_backend(), SimVictim(b"ABCD"))
        expected = 4 * 256 * 7 * trial_cost_seconds(MELTDOWN, SIGNAL_HANDLER)
        assert result.elapsed_seconds == expected

    def test_ten_iteration_throughput_matches_reference_rates(self):
        secret = b"0123456789abcdef"
        cases = [
            (MELTDOWN, TRANSACTIONAL, 789.86),
            (MELTDOWN, SIGNAL_HANDLER, 497.49),
            (SPECTRE_V2, TRANSACTIONAL, 148.68),
            (SPECTRE_V2, SIGNAL_HANDLER, 148.68),
        ]
        for kind, suppression, rate in cases:
            spec = spec_with(attack_kind=kind, suppression=suppression)
            result = recover_secret(spec, load_backend(), SimVictim(secret))
            metrics = channel_metrics(result, secret)
            assert math.isclose(metrics.throughput_bps, rate, rel_tol=1e-9)
            assert metrics.error_rate == 0.0

    def test_spectre_v1_recovers_nothing_with_zero_confidence(self):
        secret = b"HIDDEN!"
        spec = spec_with(attack_kind=SPECTRE_V1, secret_length=7)
        result = recover_secret(spec, load_backend(), SimVictim(secret))
        assert result.recovered_bytes == b"\x00" * 7
        assert result.confidences() == [0.0] * 7
        assert channel_metrics(result, secret).error_rate == 1.0

    def test_more_iterations_never_add_byte_errors(self):
        # the first 10 iterations of the 20-round loop fire identically, so
        # any byte still wrong at 20 was already wrong at 10
        secret = bytes(range(32, 48))
        for seed in (1, 2, 3, 4, 5):
            victim = SimVictim(secret, false_fire_prob=0.6, noise_seed=seed)
            short = recover_secret(spec_with(iterations=10), load_backend(), victim)
            long = recover_secret(spec_with(iterations=20), load_backend(), victim)
            wrong_short = {
                i for i, b in enumerate(short.recovered_bytes) if b != secret[i]
            }
            wrong_long = {
                i for i, b in enumerate(long.recovered_bytes) if b != secret[i]
            }
            assert wrong_long <= wrong_short

    def test_secret_length_cannot_exceed_victim(self):
        with pytest.raises(ValueError, match="victim holds"):
            recover_secret(spec_with(secret_length=5), load_backend(), SimVictim(b"AB"))


class TestChannelMetrics:
    def test_hand_fixture(self):
        result = RecoveryResult(
            recovered_bytes=bytes(100),
            per_byte_scores=((0,),) * 100,
            elapsed_seconds=0.2,
            attack_kind=MELTDOWN,
        )
        true_secret = bytes(95) + b"XXXXX"
        metrics = channel_metrics(result, true_secret)
        assert metrics == ChannelMetrics(throughput_bps=500.0, error_rate=0.05)

    def test_short_true_secret_rejected(self):
        result = RecoveryResult(b"abc", ((0,),) * 3, 1.0, MELTDOWN)
        with pytest.raises(ValueError, match="shorter"):
            channel_metrics(result, b"ab")

    def test_confidence_margins(self):
        scores_top = tuple([10] + [0] * 255)
        scores_close = tuple([10, 8] + [0] * 254)
        scores_flat = tuple([0] * 256)
        result = RecoveryResult(b"\x00\x00\x00", (scores_top, scores_close, scores_flat),
                                1.0, MELTDOWN)
        assert result.confidences() == [1.0, 0.2, 0.0]


class TestSelectorScreening:
    def test_transmit_capable_enumeration(self, sim_model):
        selectors = transmit_capable_selectors(sim_model.families, "memory-load")
        # load-reactive families: 0x6C gated on bit 0, 0xD3 gated on bits 0-1
        assert len(selectors) == 128 + 192
        assert selectors[0] == EventSelector(0x6C, 0x01)
        packed = [s.packed for s in selectors]
        assert packed == sorted(packed)
        alu_only = transmit_capable_selectors(sim_model.families, "alu")
        assert len(alu_only) == 256
        assert {s.event_code for s in alu_only} == {0x5E}

    def test_screen_keeps_working_channels_in_packed_order(self):
        families = [
            SimEventFamily(0x5E, 0x01, frozenset({"alu"})),        # scaffold counter
            SimEventFamily(0x6C, 0x01, frozenset({"memory-load"})),
        ]
        backend = SimulatedPmu(families)
        victim = SimVictim(b"PMU!")
        template = GadgetSpec(bound_selector=BOUND, secret_length=4)
        candidates = [
            EventSelector(0x6C, 0x03),
            EventSelector(0x5E, 0x01),
            EventSelector(0x6C, 0x01),
        ]
        kept = screen_channel_events(candidates, template, backend, victim)
        assert kept == [
            (EventSelector(0x6C, 0x01), 1.0),
            (EventSelector(0x6C, 0x03), 1.0),
        ]

    def test_screen_accuracy_threshold_is_inclusive(self):
        backend = load_backend()
        # a v1 gadget decodes every byte as zero, so accuracy equals the
        # fraction of zero bytes in the secret
        assert MIN_CHANNEL_ACCURACY == 0.8
        at_bar = SimVictim(b"\x00\x00\x00\x00A")  # 1 - 1/5 is exactly 0.8
        template = GadgetSpec(bound_selector=BOUND, secret_length=5, attack_kind=SPECTRE_V1)
        assert screen_channel_events([BOUND], template, backend, at_bar) == [(BOUND, 0.8)]
        below_bar = SimVictim(b"\x00\x00\x00A")
        template = GadgetSpec(bound_selector=BOUND, secret_length=4, attack_kind=SPECTRE_V1)
        assert screen_channel_events([BOUND], template, backend, below_bar) == []


class TestResultJson:
    def test_layout_and_determinism(self, tmp_path):
        spec = spec_with(secret_length=4, iterations=10)
        victim = SimVictim(b"PMU!")
        result = recover_secret(spec, load_backend(), victim)
        metrics = channel_metrics(result, victim.secret)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_result_json(BOUND, spec, result, metrics, a)
        write_result_json(BOUND, spec, result, metrics, b)
        raw = open(a, "rb").read()
        assert raw == open(b, "rb").read()
        assert raw.endswith(b"\n")
        doc = json.loads(raw)
        assert doc["attack"] == MELTDOWN
        assert doc["selector"] == "0x016C"
        assert doc["suppression"] == SIGNAL_HANDLER
        assert doc["iterations"] == 10
        assert doc["recovered_hex"] == b"PMU!".hex()
        assert doc["error_rate"] == 0.0
        assert doc["per_byte_confidence"] == [1.0] * 4
        assert math.isclose(doc["throughput_bps"], 497.49, rel_tol=1e-6)
        assert list(doc) == sorted(doc)

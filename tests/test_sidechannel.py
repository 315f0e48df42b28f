"""Covert-channel tests: trial mechanics, byte recovery, rates, screening.

The channel transmits through a bound counter: a matching candidate runs
the transmit instruction, so its accumulated score separates from the
noise floor.  All tests drive the deterministic simulated backend.
"""

import json
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pmu_prospector import backend as backend_module
from pmu_prospector import sidechannel
from pmu_prospector.backend import SimEventFamily, SimulatedPmu
from pmu_prospector.errors import CapabilityError
from pmu_prospector.sidechannel import (
    ATTACK_KINDS,
    MELTDOWN,
    MIN_CHANNEL_ACCURACY,
    SIGNAL_HANDLER,
    SPECTRE_V1,
    SPECTRE_V2,
    TRANSACTIONAL,
    ChannelMetrics,
    GadgetSpec,
    RecoveryResult,
    SimVictim,
    channel_metrics,
    recover_byte,
    recover_secret,
    screen_channel_events,
    trial_cost_seconds,
    write_result_json,
    _check_runnable,
    _fire_table,
    _gadget_classes,
)
from scalar_hash import point_fraction

LOAD_FAMILY = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))
BOUND = 0x016C


def load_backend(seed: int = 0, supports_tsx: bool = True) -> SimulatedPmu:
    return SimulatedPmu([LOAD_FAMILY], seed=seed, supports_tsx=supports_tsx)


def run_trial(spec, selector, guess, position, backend, victim, iteration=0) -> int:
    """One gadget round for one candidate byte; returns the delta of the
    counter bound to selector."""
    pmu = _check_runnable(spec, backend)
    if not 0 <= guess <= 0xFF:
        raise ValueError(f"guess out of byte range: {guess!r}")
    if not 0 <= position < len(victim.secret):
        raise IndexError(f"position {position} outside the {len(victim.secret)}-byte secret")
    fires = _fire_table(spec, victim, position, np.array([guess]), np.array([iteration]))
    ((_, _, index, deltas),) = pmu.measure_counts([selector], _gadget_classes(spec, pmu, fires))
    return int(deltas[0, 0]) if len(index) else 0


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
            GadgetSpec(iterations=0)
        with pytest.raises(ValueError):
            GadgetSpec(secret_length=0)
        with pytest.raises(ValueError):
            GadgetSpec(suppression="polling")
        with pytest.raises(ValueError):
            GadgetSpec(attack_kind="rowhammer")
        with pytest.raises(ValueError):
            GadgetSpec(transmit_class="")

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
        assert run_trial(GadgetSpec(), BOUND, ord("A"), 0, backend, victim) == 1
        assert run_trial(GadgetSpec(), BOUND, ord("B"), 0, backend, victim) == 0

    def test_increment_scales_the_delta(self):
        family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}), increment=3)
        backend = SimulatedPmu([family])
        assert run_trial(GadgetSpec(), BOUND, ord("A"), 0, backend, SimVictim(b"A")) == 3

    def test_scaffold_counter_cannot_carry_the_signal(self):
        # bound event reacts to the scaffold class itself: every trial looks
        # identical, so the channel through this selector is useless
        family = SimEventFamily(0x5E, 0x01, frozenset({"alu"}))
        backend = SimulatedPmu([family])
        bound = 0x015E
        victim = SimVictim(b"A")
        assert run_trial(GadgetSpec(), bound, ord("A"), 0, backend, victim) == 1
        assert run_trial(GadgetSpec(), bound, ord("B"), 0, backend, victim) == 1

    def test_spectre_v1_never_reaches_transmit(self):
        victim = SimVictim(b"A")
        spec = GadgetSpec(attack_kind=SPECTRE_V1)
        assert run_trial(spec, BOUND, ord("A"), 0, load_backend(), victim) == 0

    def test_false_fire_follows_the_indexed_draw(self):
        victim = SimVictim(b"A", false_fire_prob=0.5, noise_seed=77)
        spec = GadgetSpec()
        backend = load_backend()
        for guess in (0, 10, 200):
            for iteration in (0, 3):
                expected = point_fraction(77, 0, guess, iteration) < 0.5
                delta = run_trial(spec, BOUND, guess, 0, backend, victim, iteration)
                assert delta == int(expected)

    def test_guess_and_position_validated(self):
        victim = SimVictim(b"AB")
        with pytest.raises(ValueError, match="guess out of byte range"):
            run_trial(GadgetSpec(), BOUND, 256, 0, load_backend(), victim)
        with pytest.raises(IndexError):
            run_trial(GadgetSpec(), BOUND, 0, 2, load_backend(), victim)

    def test_requires_simulated_backend(self):
        class FakeNative:
            """A backend that exposes no simulated PMU."""

        with pytest.raises(CapabilityError):
            run_trial(GadgetSpec(), BOUND, 0, 0, FakeNative(), SimVictim(b"A"))

    def test_transactional_needs_backend_support(self):
        spec = GadgetSpec(suppression=TRANSACTIONAL)
        with pytest.raises(CapabilityError):
            run_trial(spec, BOUND, 0, 0, load_backend(supports_tsx=False), SimVictim(b"A"))
        assert run_trial(spec, BOUND, ord("A"), 0, load_backend(), SimVictim(b"A")) == 1


class TestRecoverByte:
    def test_noise_free_byte_is_exact(self):
        victim = SimVictim(b"K")
        (best,), (scores,) = recover_byte(GadgetSpec(), 0, [BOUND], load_backend(), victim)
        assert best == ord("K")
        assert scores[ord("K")] == 10  # iterations x increment
        assert sum(scores) == 10

    def test_scores_match_accumulated_single_trials(self):
        victim = SimVictim(bytes([200]), false_fire_prob=0.35, noise_seed=9)
        spec = GadgetSpec(iterations=4)
        backend = load_backend()
        manual = [
            sum(run_trial(spec, BOUND, candidate, 0, backend, victim, it) for it in range(4))
            for candidate in range(256)
        ]
        (best,), (scores,) = recover_byte(spec, 0, [BOUND], backend, victim)
        assert scores.tolist() == manual
        assert best == max(range(256), key=lambda c: (scores[c], -c))

    def test_all_zero_scores_decode_low_byte(self):
        victim = SimVictim(b"Z")
        (best,), (scores,) = recover_byte(GadgetSpec(attack_kind=SPECTRE_V1), 0, [BOUND],
                                          load_backend(), victim)
        assert best == 0
        assert scores.tolist() == [0] * 256

    def test_position_validated(self):
        with pytest.raises(IndexError):
            recover_byte(GadgetSpec(), 5, [BOUND], load_backend(), SimVictim(b"AB"))


class TestRecoverSecret:
    def test_noise_free_recovery_is_exact(self, secret_path):
        secret = Path(secret_path).read_bytes()
        assert len(secret) == 16
        result = recover_secret(GadgetSpec(), BOUND, load_backend(), SimVictim(secret))
        assert result.recovered_bytes == secret
        assert channel_metrics(result, secret).error_rate == 0.0
        assert result.confidences() == [1.0] * 16

    def test_elapsed_is_trials_times_cost(self):
        spec = GadgetSpec(secret_length=4, iterations=7)
        result = recover_secret(spec, BOUND, load_backend(), SimVictim(b"ABCD"))
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
            spec = GadgetSpec(attack_kind=kind, suppression=suppression)
            result = recover_secret(spec, BOUND, load_backend(), SimVictim(secret))
            metrics = channel_metrics(result, secret)
            assert math.isclose(metrics.throughput_bps, rate, rel_tol=1e-9)
            assert metrics.error_rate == 0.0

    def test_spectre_v1_recovers_nothing_with_zero_confidence(self):
        secret = b"HIDDEN!"
        spec = GadgetSpec(attack_kind=SPECTRE_V1, secret_length=7)
        result = recover_secret(spec, BOUND, load_backend(), SimVictim(secret))
        assert result.recovered_bytes == b"\x00" * 7
        assert result.confidences() == [0.0] * 7
        assert channel_metrics(result, secret).error_rate == 1.0

    def test_more_iterations_never_add_byte_errors(self):
        # the first 10 iterations of the 20-round loop fire identically, so
        # any byte still wrong at 20 was already wrong at 10
        secret = bytes(range(32, 48))
        for seed in (1, 2, 3, 4, 5):
            victim = SimVictim(secret, false_fire_prob=0.6, noise_seed=seed)
            short = recover_secret(GadgetSpec(iterations=10), BOUND, load_backend(), victim)
            long = recover_secret(GadgetSpec(iterations=20), BOUND, load_backend(), victim)
            wrong_short = {
                i for i, b in enumerate(short.recovered_bytes) if b != secret[i]
            }
            wrong_long = {
                i for i, b in enumerate(long.recovered_bytes) if b != secret[i]
            }
            assert wrong_long <= wrong_short

    def test_secret_length_cannot_exceed_victim(self):
        with pytest.raises(ValueError, match="victim holds"):
            recover_secret(GadgetSpec(secret_length=5), BOUND, load_backend(), SimVictim(b"AB"))


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
    def test_screen_keeps_working_channels_in_packed_order(self, caplog):
        families = [
            SimEventFamily(0x5E, 0x01, frozenset({"alu"})),        # scaffold counter
            SimEventFamily(0x6C, 0x01, frozenset({"memory-load"})),
        ]
        backend = SimulatedPmu(families)
        victim = SimVictim(b"PMU!")
        template = GadgetSpec(secret_length=4)
        candidates = [
            0x036C,
            0x015E,
            0x016C,
        ]
        with caplog.at_level(logging.INFO, logger="pmu_prospector.sidechannel"):
            kept = screen_channel_events(candidates, template, backend, victim)
        assert kept == [
            (0x016C, 1.0),
            (0x036C, 1.0),
        ]
        assert caplog.messages == [f"byte position {p}: 2 selectors still live" for p in range(4)]

    def test_screen_accuracy_threshold_is_inclusive(self):
        backend = load_backend()
        # a v1 gadget decodes every byte as zero, so accuracy equals the
        # fraction of zero bytes in the secret
        assert MIN_CHANNEL_ACCURACY == 0.8
        at_bar = SimVictim(b"\x00\x00\x00\x00A")  # 1 - 1/5 is exactly 0.8
        template = GadgetSpec(secret_length=5, attack_kind=SPECTRE_V1)
        assert screen_channel_events([BOUND], template, backend, at_bar) == [(BOUND, 0.8)]
        below_bar = SimVictim(b"\x00\x00\x00A")
        template = GadgetSpec(secret_length=4, attack_kind=SPECTRE_V1)
        assert screen_channel_events([BOUND], template, backend, below_bar) == []

    # cells of one measurement chunk, at 3 iterations of 256 candidates a row
    @pytest.mark.parametrize("cells", [1, 3 * 256 * 3, 4 * 256 * 3, 1 << 20],
                             ids=["one-per-chunk", "ragged-last-chunk",
                                  "early-stops-in-one-chunk", "one-chunk"])
    def test_screen_matches_per_selector_recovery_for_any_chunking(
        self, sim_model, monkeypatch, cells
    ):
        # 29 noisy 0x5E selectors, a 0x6C and a 0xD3 load counter and a quiet
        # selector, listed out of packed order: 32 selectors of which 31 are
        # armed, so 3 per chunk leaves a ragged last chunk.  The four left
        # after position 0 share one chunk of 4, and two of them stop there.
        candidates = [0x00C0, 0x02D3, 0x016C]
        candidates += [umask << 8 | 0x5E for umask in range(0, 256, 9)]
        spec = GadgetSpec(iterations=3, secret_length=3)
        victim = SimVictim(b"PMU", false_fire_prob=0.2)

        def reference(bar):
            backend = sim_model.make_backend(3)
            rows = []
            for selector in sorted(candidates):
                result = recover_secret(spec, selector, backend, victim)
                accuracy = 1.0 - channel_metrics(result, victim.secret).error_rate
                if accuracy >= bar:
                    rows.append((selector, accuracy))
            return rows

        decoded = []

        def counting_recover_byte(spec, position, selectors, *args):
            decoded.append((position, len(selectors)))
            return recover_byte(spec, position, selectors, *args)

        monkeypatch.setattr(backend_module, "VECTOR_CELLS", cells)
        monkeypatch.setattr(sidechannel, "recover_byte", counting_recover_byte)
        kept = screen_channel_events(candidates, spec, sim_model.make_backend(3), victim)
        # one call per position: 28 stop at position 0 and 2 at position 1
        assert decoded == [(0, 32), (1, 4), (2, 2)]
        assert kept == reference(MIN_CHANNEL_ACCURACY)
        assert kept == [(0x016C, 1.0), (0x02D3, 1.0)]
        # every accuracy, the noisy selectors' partial ones included
        monkeypatch.setattr(sidechannel, "MIN_CHANNEL_ACCURACY", 0.0)
        every = screen_channel_events(candidates, spec, sim_model.make_backend(3), victim)
        assert every == reference(0.0)
        assert {accuracy for _, accuracy in every} == {0.0, 1.0 - 2 / 3, 1.0}

    # every umask of the noisy 0x5E family, of the two load counters and of
    # 0x08, which the gadget never triggers, in packed order
    SCREENED = sorted(umask << 8 | code for code in (0x08, 0x5E, 0x6C, 0xD3)
                      for umask in range(256))

    SPEC = GadgetSpec(iterations=2)

    @pytest.fixture(scope="class")
    def every_cell(self, sim_model, secret_path):
        """The screen without its early stop, under false fires: the victim,
        the (selector, accuracy) rows at or above the bar from decoding each
        selector at every position, and the number of (selector, position)
        cells the early stop decodes."""
        victim = SimVictim(Path(secret_path).read_bytes(), false_fire_prob=0.02, noise_seed=6)
        length = self.SPEC.secret_length
        backend = sim_model.make_backend(3)
        decoded = np.stack([recover_byte(self.SPEC, position, self.SCREENED, backend, victim)[0]
                            for position in range(length)], axis=1)
        mismatches = np.cumsum(decoded != np.frombuffer(victim.secret[:length], np.uint8), axis=1)
        failing = 1.0 - mismatches / length < MIN_CHANNEL_ACCURACY
        accuracies = (1.0 - mismatches[:, -1] / length).tolist()
        rows = [(s, a) for s, a in zip(self.SCREENED, accuracies) if a >= MIN_CHANNEL_ACCURACY]
        cells = sum(int(f.argmax()) + 1 if f.any() else length for f in failing)
        return victim, rows, cells

    def test_early_stop_gives_the_rows_of_decoding_every_cell(self, sim_model, every_cell):
        victim, rows, _ = every_cell
        kept = screen_channel_events(self.SCREENED, self.SPEC, sim_model.make_backend(3), victim)
        assert kept == rows
        assert {s & 0xFF for s, _ in kept} == {0x6C, 0xD3}
        assert {accuracy for _, accuracy in kept} == {0.9375}  # a false fire costs one byte

    def test_early_stop_decodes_fewer_cells(self, sim_model, every_cell, monkeypatch):
        victim, _, cells = every_cell
        decoded = []

        def counting_recover_byte(spec, position, selectors, *args):
            decoded.append(len(selectors))
            return recover_byte(spec, position, selectors, *args)

        monkeypatch.setattr(sidechannel, "recover_byte", counting_recover_byte)
        screen_channel_events(self.SCREENED, self.SPEC, sim_model.make_backend(3), victim)
        assert sum(decoded) == cells < len(self.SCREENED) * self.SPEC.secret_length

    def test_peak_memory_does_not_grow_with_the_selectors(self, sim_model):
        # 16,384 trials per selector: a dense delta matrix for 256 selectors
        # would be 33 MB, eight times the one for 32
        spec = GadgetSpec(iterations=64, secret_length=1)

        def peak(selectors):
            backend = sim_model.make_backend(3)
            tracemalloc.start()
            try:
                screen_channel_events(selectors, spec, backend, SimVictim(b"P"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        noisy = [umask << 8 | 0x5E for umask in range(256)]
        few, many = peak(noisy[:32]), peak(noisy)
        assert many < 1.5 * few


class TestResultJson:
    def test_layout_and_determinism(self, tmp_path):
        spec = GadgetSpec(secret_length=4, iterations=10)
        victim = SimVictim(b"PMU!")
        result = recover_secret(spec, BOUND, load_backend(), victim)
        metrics = channel_metrics(result, victim.secret)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_result_json(BOUND, spec, result, metrics, a)
        write_result_json(BOUND, spec, result, metrics, b)
        raw = Path(a).read_bytes()
        assert raw == Path(b).read_bytes()
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

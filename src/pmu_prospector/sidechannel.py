"""Count-based covert channel: leak a secret byte through a bound event.

One trial resets the bound counter, lets the transiently executed gadget
compare a candidate byte against the secret, and runs the transmit
instruction only on a match; the counter delta afterwards says whether the
candidate fired.  Iterating all 256 candidates and taking the argmax of the
accumulated scores decodes one secret byte.

recover_byte is the one decode, through any number of bound selectors at
once: recover_secret binds one, and the channel screen every selector still
in the running.

The victim here is simulated, so trials are deterministic and elapsed time
comes from a cost model calibrated to measured channel rates.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .backend import CounterBackend, SimulatedPmu, simulation_of
from .errors import CapabilityError
from .events import format_selector
from .outputs import write_json
from .seeding import point_fractions

log = logging.getLogger(__name__)

MELTDOWN = "meltdown"
SPECTRE_V1 = "spectre_v1"
SPECTRE_V2 = "spectre_v2"
ATTACK_KINDS = (MELTDOWN, SPECTRE_V1, SPECTRE_V2)

SIGNAL_HANDLER = "signal-handler"
TRANSACTIONAL = "transactional"
EXEC_MODES = (SIGNAL_HANDLER, TRANSACTIONAL)  # how the gadget suppresses its transient fault

# Reference channel rates in bytes/s, measured with 10 iterations per
# candidate over the full 256-candidate ring.  Spectre variants pay for
# branch mistraining instead of exception handling, so their rate does not
# depend on the suppression mode.
_REFERENCE_RATES: dict[tuple[str, str], float] = {
    (MELTDOWN, TRANSACTIONAL): 789.86,
    (MELTDOWN, SIGNAL_HANDLER): 497.49,
    (SPECTRE_V2, TRANSACTIONAL): 148.68,
    (SPECTRE_V2, SIGNAL_HANDLER): 148.68,
    (SPECTRE_V1, TRANSACTIONAL): 148.68,
    (SPECTRE_V1, SIGNAL_HANDLER): 148.68,
}
_REFERENCE_TRIALS_PER_BYTE = 256 * 10

MIN_CHANNEL_ACCURACY = 0.8


def trial_cost_seconds(attack_kind: str, suppression: str) -> float:
    """Modeled cost of one trial for the given gadget flavour."""
    try:
        rate = _REFERENCE_RATES[(attack_kind, suppression)]
    except KeyError:
        raise ValueError(
            f"no rate calibration for attack {attack_kind!r} with {suppression!r}"
        ) from None
    return 1.0 / (rate * _REFERENCE_TRIALS_PER_BYTE)


@dataclass(frozen=True)
class GadgetSpec:
    """Shape of the transmitting gadget and its recovery loop."""

    transmit_class: str = "memory-load"
    iterations: int = 10
    suppression: str = SIGNAL_HANDLER
    secret_length: int = 16
    attack_kind: str = MELTDOWN

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.secret_length < 1:
            raise ValueError("secret_length must be at least 1")
        if self.suppression not in EXEC_MODES:
            raise ValueError(f"unknown suppression mode {self.suppression!r}")
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.attack_kind!r}")
        if not self.transmit_class:
            raise ValueError("transmit_class must be non-empty")


@dataclass(frozen=True)
class SimVictim:
    """Holds the secret and the channel's false-fire noise level.

    false_fire_prob is the chance that a non-matching candidate still runs
    the transmit instruction in one iteration.  Draws are indexed by
    (position, candidate, iteration), not by call order, so iteration 7 of
    a candidate fires identically whether the loop runs 10 or 20 rounds.
    """

    secret: bytes
    false_fire_prob: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not self.secret:
            raise ValueError("victim secret must be non-empty")
        if not 0.0 <= self.false_fire_prob < 1.0:
            raise ValueError("false_fire_prob must be in [0, 1)")


def _check_runnable(spec: GadgetSpec, backend: CounterBackend) -> SimulatedPmu:
    """The simulated PMU behind backend, which the gadget model drives."""
    pmu = simulation_of(backend)
    if pmu is None:
        raise CapabilityError("gadget simulation requires a simulated backend")
    if spec.suppression == TRANSACTIONAL and not pmu.supports_tsx:
        raise CapabilityError("backend does not support transactional suppression")
    return pmu


def _fire_table(
    spec: GadgetSpec, victim: SimVictim, position: int, guesses: np.ndarray, iterations: np.ndarray
) -> np.ndarray:
    """Per (guess, iteration) trial, paired by index: whether the gadget
    runs the transmit instruction."""
    # spectre_v1 mistraining never reaches the transmit gadget in this model
    if spec.attack_kind == SPECTRE_V1:
        return np.zeros(len(guesses), bool)
    fires = guesses == victim.secret[position]
    prob = victim.false_fire_prob
    if prob > 0.0:
        fires |= point_fractions(victim.noise_seed, position, guesses, iterations) < prob
    return fires


def _gadget_classes(spec: GadgetSpec, pmu: SimulatedPmu, fires: np.ndarray) -> np.ndarray:
    """Class counts of one gadget round per entry of fires, the repetitions
    of a measurement: the transient compare, then the transmit on a fire."""
    classes = np.zeros((len(fires), pmu.column_count), np.int64)
    classes[:, pmu.column("alu")] += 1  # the gadget's compare scaffold
    classes[:, pmu.column(spec.transmit_class)] += fires
    return classes


def recover_byte(
    spec: GadgetSpec, position: int, selectors: Sequence[int],
    backend: CounterBackend, victim: SimVictim,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one secret byte through each of the given bound selectors.

    Runs spec.iterations trials for each of the 256 candidates, in candidate
    order, and measures them through every selector at once.  Returns the
    decoded bytes, shape (n,), and the scores, shape (n, 256), of the n
    selectors.  Score ties resolve to the lowest byte value, so an all-zero
    round decodes as 0x00; treat zero top scores as no-confidence.
    """
    pmu = _check_runnable(spec, backend)
    if not 0 <= position < len(victim.secret):
        raise IndexError(f"position {position} outside the {len(victim.secret)}-byte secret")
    iterations = spec.iterations
    # trial i is iteration i % iterations of candidate i // iterations
    fires = _fire_table(spec, victim, position, *np.divmod(np.arange(256 * iterations), iterations))
    scores = np.zeros((len(selectors), 256), np.int64)
    for _, _, index, deltas in pmu.measure_counts(selectors, _gadget_classes(spec, pmu, fires)):
        scores[index] = deltas.reshape(len(index), 256, iterations).sum(axis=2)
    return scores.argmax(axis=1), scores  # argmax keeps the first maximum


@dataclass(frozen=True)
class RecoveryResult:
    recovered_bytes: bytes
    per_byte_scores: tuple[tuple[int, ...], ...]
    elapsed_seconds: float
    attack_kind: str

    def confidences(self) -> list[float]:
        """Per-byte relative margin of the winning score; 0.0 = no signal."""
        margins: list[float] = []
        for scores in self.per_byte_scores:
            runner_up, top = sorted(scores)[-2:]
            margins.append((top - runner_up) / top if top > 0 else 0.0)
        return margins


def _positions(spec: GadgetSpec, victim: SimVictim) -> range:
    """The secret positions spec recovers, checked against the victim."""
    if spec.secret_length > len(victim.secret):
        raise ValueError(
            f"spec wants {spec.secret_length} bytes but the victim holds {len(victim.secret)}"
        )
    return range(spec.secret_length)


def recover_secret(
    spec: GadgetSpec, selector: int, backend: CounterBackend, victim: SimVictim
) -> RecoveryResult:
    """Recover the first secret_length bytes of the victim's secret via selector.

    Elapsed time is modeled: executed trials times the calibrated per-trial
    cost for the gadget flavour, which keeps results reproducible.
    """
    recovered = bytearray()
    all_scores: list[tuple[int, ...]] = []
    for position in _positions(spec, victim):
        decoded, scores = recover_byte(spec, position, [selector], backend, victim)
        recovered.append(int(decoded[0]))
        all_scores.append(tuple(scores[0].tolist()))
    trials = spec.secret_length * 256 * spec.iterations
    return RecoveryResult(
        recovered_bytes=bytes(recovered),
        per_byte_scores=tuple(all_scores),
        elapsed_seconds=trials * trial_cost_seconds(spec.attack_kind, spec.suppression),
        attack_kind=spec.attack_kind,
    )


@dataclass(frozen=True)
class ChannelMetrics:
    throughput_bps: float
    error_rate: float


def channel_metrics(result: RecoveryResult, true_secret: bytes) -> ChannelMetrics:
    """Bytes per second and fraction of wrongly recovered bytes."""
    n = len(result.recovered_bytes)
    if len(true_secret) < n:
        raise ValueError("true secret shorter than the recovered prefix")
    mismatches = sum(got != want for got, want in zip(result.recovered_bytes, true_secret))
    return ChannelMetrics(
        throughput_bps=n / result.elapsed_seconds,
        error_rate=mismatches / n,
    )


def screen_channel_events(
    selectors: Iterable[int],
    spec: GadgetSpec,
    backend: CounterBackend,
    victim: SimVictim,
) -> list[tuple[int, float]]:
    """Try the channel through each selector and keep the usable ones.

    Accuracy is 1 - mismatches / secret_length against the victim's own
    secret, as channel_metrics gives it; selectors below
    MIN_CHANNEL_ACCURACY are dropped.  Results stay in packed order.

    Each byte position is one recover_byte call over the live selectors.
    After it, the selectors that already have too many mismatches to pass
    are dropped, and the screen stops once none is left.  Noise epochs are
    per selector, so dropping changes no accuracy.
    """
    live = sorted(selectors)
    mismatches = np.zeros(len(live), np.int64)
    for position in _positions(spec, victim):
        if not live:
            break
        decoded, _ = recover_byte(spec, position, live, backend, victim)
        mismatches += decoded != victim.secret[position]
        passing = 1.0 - mismatches / spec.secret_length >= MIN_CHANNEL_ACCURACY
        live = [s for s, ok in zip(live, passing.tolist()) if ok]
        mismatches = mismatches[passing]
        log.info("byte position %d: %d selectors still live", position, len(live))
    return list(zip(live, (1.0 - mismatches / spec.secret_length).tolist()))


def write_result_json(
    selector: int,
    spec: GadgetSpec,
    result: RecoveryResult,
    metrics: ChannelMetrics,
    path: str,
) -> None:
    doc = {
        "attack": result.attack_kind,
        "selector": format_selector(selector),
        "suppression": spec.suppression,
        "iterations": spec.iterations,
        "recovered_hex": result.recovered_bytes.hex(),
        "per_byte_confidence": [round(c, 6) for c in result.confidences()],
        "throughput_bps": round(metrics.throughput_bps, 6),
        "error_rate": round(metrics.error_rate, 6),
        "elapsed_seconds": round(result.elapsed_seconds, 9),
    }
    write_json(path, doc)

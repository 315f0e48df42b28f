"""Per-event attack detection with scalar logistic regression.

For each candidate event the pipeline synthesizes labeled count windows
from three scenario kinds (clean victim, attack-like-but-benign, attack),
trains a single-feature logistic model on a stratified 70/30 split, and
screens the resulting metrics.  Labels: 1 = attack running, 0 = not.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .backend import CounterBackend, simulation_of
from .errors import CapabilityError, DegenerateDataError, ReportParseError
from .events import format_selector
from .inputs import Field, read_json
from .outputs import write_csv, write_json
from .seeding import derive_seed

Sample = tuple[int, int]  # (count delta, label)

MAX_EPOCHS = 2000
GRAD_TOLERANCE = 1e-6
TRAIN_FRACTION = 0.7
THRESHOLD = 0.5  # a window is called an attack at this probability or above
# a usable detector clears all three bars strictly
MIN_ACCURACY = 0.8
MIN_F1 = 0.8
MIN_AUC = 0.7


class ScenarioKind(enum.Enum):
    CLEAN = "clean"
    NO_ATTACK = "no_attack"
    ATTACK = "attack"


@dataclass(frozen=True)
class ClassActivity:
    """Executions of one instruction class per window: base +/- jitter."""

    base: int
    jitter: int = 0

    def __post_init__(self) -> None:
        if self.base < 0 or self.jitter < 0:
            raise ValueError("activity counts must be non-negative")
        if self.jitter >= 1 << 31:  # _randint_draws reads a draw off one 32-bit word
            raise ValueError(f"jitter must be below 2**31, got {self.jitter}")


Profile = Mapping[str, ClassActivity]


@dataclass(frozen=True)
class ScenarioSpec:
    """One measurable workload scenario.

    Attack scenarios share the monitor's logical core, so their activity
    merges with the victim's into the one stream the backend counts.
    """

    kind: ScenarioKind
    attack_name: str | None
    workload_profile: Mapping[str, ClassActivity]

    def __post_init__(self) -> None:
        if self.kind is ScenarioKind.CLEAN and self.attack_name is not None:
            raise ValueError("clean scenarios carry no attack name")
        if self.kind is not ScenarioKind.CLEAN and not self.attack_name:
            raise ValueError(f"{self.kind.value} scenarios need an attack name")
        object.__setattr__(self, "workload_profile", dict(self.workload_profile))


@dataclass(frozen=True)
class AttackRecipe:
    """Scaffold activity (shared with benign lookalikes) plus the
    attack-primitive classes only the real attack executes."""

    scaffold: Mapping[str, ClassActivity]
    primitives: Mapping[str, ClassActivity]


VICTIM_PROFILE: Profile = {
    "alu": ClassActivity(40, 10),
    "branch": ClassActivity(18, 6),
    "memory-load": ClassActivity(30, 8),
    "memory-store": ClassActivity(12, 4),
}

DEFAULT_ATTACKS: Mapping[str, AttackRecipe] = {
    "spectre_v1": AttackRecipe(
        scaffold={"branch": ClassActivity(24, 6), "memory-load": ClassActivity(10, 3)},
        primitives={"transient-bounds-bypass": ClassActivity(10, 3)},
    ),
    "spectre_v2": AttackRecipe(
        scaffold={"branch": ClassActivity(36, 8), "alu": ClassActivity(8, 2)},
        primitives={
            "indirect-mistrain": ClassActivity(14, 4),
            "transient-gadget-load": ClassActivity(8, 3),
        },
    ),
    "meltdown": AttackRecipe(
        scaffold={"memory-load": ClassActivity(16, 4), "alu": ClassActivity(10, 3)},
        primitives={
            "fault-load": ClassActivity(12, 4),
            "exception-suppress": ClassActivity(6, 2),
        },
    ),
    "spectre_v4": AttackRecipe(
        scaffold={"memory-store": ClassActivity(14, 4), "memory-load": ClassActivity(10, 3)},
        primitives={"store-bypass-load": ClassActivity(10, 3)},
    ),
    "zombieload_v1": AttackRecipe(
        scaffold={"memory-load": ClassActivity(20, 5)},
        primitives={"fill-buffer-leak": ClassActivity(12, 4)},
    ),
    "zombieload_v2": AttackRecipe(
        scaffold={"memory-load": ClassActivity(18, 5), "alu": ClassActivity(6, 2)},
        primitives={"tsx-async-abort": ClassActivity(12, 4)},
    ),
}


def _merge_profiles(*profiles: Profile) -> dict[str, ClassActivity]:
    merged: dict[str, ClassActivity] = {}
    for profile in profiles:
        for tag, activity in profile.items():
            if tag in merged:
                merged[tag] = ClassActivity(
                    merged[tag].base + activity.base, merged[tag].jitter + activity.jitter
                )
            else:
                merged[tag] = activity
    return merged


def scenario_suite(attack_name: str) -> tuple[ScenarioSpec, ScenarioSpec, ScenarioSpec]:
    """The (clean, no-attack, attack) scenario triple for one attack of
    DEFAULT_ATTACKS, each running on top of VICTIM_PROFILE.

    The no-attack scenario is the attack scenario minus its primitive
    classes: same scaffold, no leak.
    """
    if attack_name not in DEFAULT_ATTACKS:
        raise ValueError(f"unknown attack {attack_name!r}; known: {sorted(DEFAULT_ATTACKS)}")
    recipe = DEFAULT_ATTACKS[attack_name]
    clean = ScenarioSpec(ScenarioKind.CLEAN, None, dict(VICTIM_PROFILE))
    no_attack = ScenarioSpec(
        ScenarioKind.NO_ATTACK, attack_name, _merge_profiles(VICTIM_PROFILE, recipe.scaffold)
    )
    attack = ScenarioSpec(
        ScenarioKind.ATTACK,
        attack_name,
        _merge_profiles(VICTIM_PROFILE, recipe.scaffold, recipe.primitives),
    )
    return clean, no_attack, attack


def collect_samples(
    selector: int,
    scenario: ScenarioSpec,
    n: int,
    backend: CounterBackend,
    seed: int = 0,
) -> list[Sample]:
    """Measure n windows of one scenario on one selector.

    Each window is one repetition of the scenario's jittered activity mix,
    read off the raw words of one seeded generator, equal to randint per
    window and class (_randint_draws), so the draws replay.  The windows go
    to the simulated PMU as one class-count matrix, so a simulated backend
    is required.
    """
    pmu = simulation_of(backend)
    if pmu is None:
        raise CapabilityError("scenario synthesis requires a simulated backend")
    rng = random.Random(
        derive_seed(
            seed, "collect", scenario.kind.value, scenario.attack_name or "", selector
        )
    )
    label = 1 if scenario.kind is ScenarioKind.ATTACK else 0
    activity = sorted(scenario.workload_profile.items())
    spans = [2 * act.jitter + 1 for _, act in activity if act.jitter]
    executed = np.tile(np.array([act.base for _, act in activity], np.int64), (n, 1))
    executed[:, [act.jitter > 0 for _, act in activity]] += _randint_draws(rng, spans, n)
    classes = np.zeros((n, pmu.column_count), np.int64)
    for j, (tag, _) in enumerate(activity):
        classes[:, pmu.column(tag)] += np.maximum(executed[:, j], 0)
    ((_, _, index, deltas),) = pmu.measure_counts((selector,), classes)
    counts = deltas[0] if len(index) else np.zeros(n, np.int64)  # an unarmed selector reads 0
    return [(delta, label) for delta in counts.tolist()]


def _randint_draws(rng: random.Random, spans: Sequence[int], n: int) -> np.ndarray:
    """n rounds of rng.randint(-j, j) per span 2j + 1 <= 2**32, in order, read
    off raw words: randint takes the top (2j + 1).bit_length() bits of the
    next 32-bit Mersenne Twister word, drawing again while they reach 2j + 1,
    and getrandbits(32 * m) returns the next m words, the first lowest."""
    shifts = [32 - span.bit_length() for span in spans]
    walk = itertools.cycle([span << shift for span, shift in zip(spans, shifts)])
    bound, kept = next(walk, None), []  # a word below bound is the next draw
    while (m := n * len(spans) - len(kept)) > 0:  # a block of as many words as draws remain
        block = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        for word in np.frombuffer(block, "<u4").tolist():
            if word < bound:
                kept.append(word)
                bound = next(walk)
    draws = np.array(kept, np.int64).reshape(n, len(spans)) >> np.array(shifts, np.int64)
    return draws - np.array(spans, np.int64) // 2


@dataclass(frozen=True)
class LabeledDataset:
    selector: int
    samples: tuple[Sample, ...]
    split_seed: int = 0


def build_dataset(
    selector: int,
    attack_name: str,
    backend: CounterBackend,
    samples_per_class: int,
    seed: int = 0,
) -> LabeledDataset:
    """Balanced dataset for one (selector, attack) pair.

    The negative class mixes clean and no-attack windows half and half, so
    the detector cannot get away with recognising the scaffold alone.
    """
    if samples_per_class < 2:  # a split of fewer windows leaves nothing to evaluate
        raise ValueError("samples_per_class must be at least 2")
    clean, no_attack, attack = scenario_suite(attack_name)
    clean_n = samples_per_class // 2
    samples = collect_samples(selector, clean, clean_n, backend, seed)
    samples += collect_samples(selector, no_attack, samples_per_class - clean_n, backend, seed)
    samples += collect_samples(selector, attack, samples_per_class, backend, seed)
    return LabeledDataset(
        selector=selector,
        samples=tuple(samples),
        split_seed=_split_seed(seed, selector),
    )


def _split_seed(seed: int, selector: int) -> int:
    """Seed of the train/test split of a selector's dataset under a run seed."""
    return derive_seed(seed, "split", selector)


def train_test_split(dataset: LabeledDataset) -> tuple[list[Sample], list[Sample]]:
    """Stratified TRAIN_FRACTION split preserving label balance within one
    sample per class."""
    rng = random.Random(dataset.split_seed)
    train: list[Sample] = []
    test: list[Sample] = []
    for label in (0, 1):
        group = [s for s in dataset.samples if s[1] == label]
        rng.shuffle(group)
        k = int(round(len(group) * TRAIN_FRACTION))
        train += group[:k]
        test += group[k:]
    return train, test


# while every |weight * z + bias| stays below this, neither clamp of _sigmoid binds
_CLAMP_FREE_BOUND = 25.0


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    # clamped away from exact 0/1 so probabilities stay in the open interval
    # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
    p = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(scores, -60.0), 60.0)))
    return np.minimum(np.maximum(p, 1e-12), 1.0 - 1e-12)


@dataclass(frozen=True)
class LogisticModel:
    """Trained scalar detector: standardization parameters plus weights."""

    weight: float
    bias: float
    feature_mean: float
    feature_stddev: float

    def predict_proba(self, deltas) -> np.ndarray:
        z = (np.asarray(deltas, dtype=float) - self.feature_mean) / self.feature_stddev
        return _sigmoid(self.weight * z + self.bias)


def _fraction_below_bound(w: float, b: float, dw: float, db: float, zmax: float) -> float:
    """The largest fraction t <= 1 of the step (dw, db) whose reach,
    abs(w - t * dw) * zmax + abs(b - t * db), stays below _CLAMP_FREE_BOUND or
    lands on it.  The reach starts below the bound and is convex and
    piecewise linear in t, kinked where a parameter crosses 0."""
    def reach(t: float) -> float:
        return abs(w - t * dw) * zmax + abs(b - t * db)

    knots = sorted({0.0, 1.0, *(v / d for v, d in ((w, dw), (b, db)) if d and 0.0 < v / d < 1.0)})
    for lo, hi in zip(knots, knots[1:]):
        if reach(hi) >= _CLAMP_FREE_BOUND:
            return lo + (hi - lo) * (_CLAMP_FREE_BOUND - reach(lo)) / (reach(hi) - reach(lo))
    return 1.0


def fit(deltas: Sequence[int], labels: Sequence[int]) -> tuple[LogisticModel, int]:
    """Single-feature logistic regression: (model, epochs run).

    Newton-Raphson steps (IRLS; Hastie, Tibshirani and Friedman, The Elements
    of Statistical Learning, 2nd ed., section 4.4.1) from zero weights, one
    epoch each, until both mean gradient components are below GRAD_TOLERANCE
    or MAX_EPOCHS steps ran.  Standardization is estimated from the fitted
    data, so fit on the training split only.  The same samples always give
    the same model.

    A step sums over distinct deltas, weighted by their window counts, and
    solves the 2x2 Hessian in closed form; a singular one (a constant
    feature) moves only the bias.  Separable data have no finite optimum, so
    a step that would take abs(weight) * max|z| + abs(bias) to
    _CLAMP_FREE_BOUND or past it stops on the bound: no probability then
    reaches _sigmoid's clamp, and scores keep their ranks.
    """
    x = np.asarray(deltas, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("deltas and labels must be equal-length 1-d sequences")
    present = set(np.unique(y))
    if not present <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(present)}")
    if len(present) < 2:
        raise DegenerateDataError("training data needs both labels present")
    mean = float(x.mean())
    stddev = float(x.std()) or 1.0  # constant feature: fall back to a pure shift
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    positives = np.bincount(inverse, weights=y)
    z = (values - mean) / stddev
    # gradient sums m[1:] @ p - target; Hessian sums m @ p(1 - p)
    m = np.stack([counts * z * z, counts * z, counts])
    target = np.array([positives @ z, positives.sum()])
    zmax = float(np.abs(z).max())
    weight = bias = 0.0
    epochs = 0
    for epochs in range(1, MAX_EPOCHS + 1):
        p = _sigmoid(weight * z + bias)
        grad_w, grad_b = (m[1:] @ p - target).tolist()
        if max(abs(grad_w), abs(grad_b)) / x.size < GRAD_TOLERANCE:
            break
        h_ww, h_wb, h_bb = (m @ (p * (1.0 - p))).tolist()
        det = h_ww * h_bb - h_wb * h_wb
        step_w = (h_bb * grad_w - h_wb * grad_b) / det if det > 0.0 else 0.0
        step_b = (h_ww * grad_b - h_wb * grad_w) / det if det > 0.0 else grad_b / h_bb
        t = _fraction_below_bound(weight, bias, step_w, step_b, zmax)
        weight -= t * step_w
        bias -= t * step_b
        if t < 1.0:
            break
    return LogisticModel(weight, bias, mean, stddev), epochs


@dataclass(frozen=True)
class TrainResult:
    model: LogisticModel
    train_samples: tuple[Sample, ...]
    test_samples: tuple[Sample, ...]
    epochs: int


def train(dataset: LabeledDataset) -> TrainResult:
    """Split at TRAIN_FRACTION, fit on the training side by Newton steps
    (see fit for MAX_EPOCHS, GRAD_TOLERANCE and the stop on the clamp-free
    bound), and keep the held-out test samples with the result."""
    train_samples, test_samples = train_test_split(dataset)
    model, epochs = fit([s[0] for s in train_samples], [s[1] for s in train_samples])
    return TrainResult(
        model=model,
        train_samples=tuple(train_samples),
        test_samples=tuple(test_samples),
        epochs=epochs,
    )


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    undefined: frozenset[str] = frozenset()


def confusion_ratios(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float, float, frozenset[str]]:
    """(accuracy, precision, recall, f1) from confusion counts.

    A zero denominator yields 0.0 and marks the metric undefined instead of
    raising; screening then treats it as a failing value.
    """
    undefined: set[str] = set()

    def ratio(name: str, numerator, denominator) -> float:
        if denominator:
            return numerator / denominator
        undefined.add(name)
        return 0.0

    accuracy = ratio("accuracy", tp + tn, tp + fp + fn + tn)
    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    f1 = ratio("f1", 2 * precision * recall, precision + recall)
    return accuracy, precision, recall, f1, frozenset(undefined)


def rank_auc(scores: Sequence[float], labels: Sequence[int]) -> tuple[float, bool]:
    """ROC AUC as the normalized rank sum of the positive class.

    Ties contribute half a pair through average ranks.  With only one class
    present the statistic is undefined: (0.0, False).
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.0, False
    # tie groups in sorted order; each NaN is a group of its own, as it equals nothing
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)  # one past each group's last 0-based sorted position
    ranks = ((2 * ends - counts + 1) / 2)[inverse]  # average rank, 1-based
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg), True


def compute_metrics(model: LogisticModel, samples: Sequence[Sample]) -> MetricsReport:
    """Evaluate a model on labeled samples, calling an attack at THRESHOLD."""
    if not samples:
        raise DegenerateDataError("cannot evaluate on an empty sample set")
    deltas = [s[0] for s in samples]
    labels = np.asarray([s[1] for s in samples])
    probs = model.predict_proba(deltas)
    predictions = probs >= THRESHOLD
    actual = labels == 1
    tp = int(np.sum(predictions & actual))
    fp = int(np.sum(predictions & ~actual))
    fn = int(np.sum(~predictions & actual))
    tn = int(np.sum(~predictions & ~actual))
    accuracy, precision, recall, f1, undefined = confusion_ratios(tp, fp, fn, tn)
    auc, auc_defined = rank_auc(probs, labels)
    if not auc_defined:
        undefined = undefined | {"auc"}
    return MetricsReport(tp, fp, fn, tn, accuracy, precision, recall, f1, auc, undefined)


_COUNTS = ("tp", "fp", "fn", "tn")
_METRICS = ("accuracy", "precision", "recall", "f1", "auc")


def passes_screen(
    report: MetricsReport, *, exclude_perfect: bool = False, exclude_f1_band: bool = False
) -> bool:
    """Whether a detector clears accuracy > MIN_ACCURACY, F1 > MIN_F1 and
    AUC > MIN_AUC, and is not dropped by exclude_perfect (any metric exactly
    1.0) or exclude_f1_band (F1 in the open band (0.9, 1))."""
    if not (report.accuracy > MIN_ACCURACY and report.f1 > MIN_F1 and report.auc > MIN_AUC):
        return False
    if exclude_perfect and any(getattr(report, name) == 1.0 for name in _METRICS):
        return False
    return not (exclude_f1_band and 0.9 < report.f1 < 1.0)


def screen(
    reports: Mapping[int, MetricsReport], *, exclude_perfect: bool = False,
    exclude_f1_band: bool = False,
) -> list[int]:
    """Selectors whose metrics clear passes_screen with the same flags, in packed order."""
    return sorted(sel for sel, rep in reports.items() if passes_screen(
        rep, exclude_perfect=exclude_perfect, exclude_f1_band=exclude_f1_band))


def write_dataset_csv(dataset: LabeledDataset, path: str) -> None:
    write_csv(path, ["delta", "label"], dataset.samples)


def load_dataset_csv(path: str, selector: int, seed: int = 0) -> LabeledDataset:
    """A dataset written by write_dataset_csv, with the split seed that
    build_dataset gives it under the run seed."""
    samples: list[Sample] = []
    deltas: dict[str, int] = {}  # a cell's text -> its value: windows repeat a few values
    labels: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row_no, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].strip().lower() == "delta":
                    continue
                if len(row) != 2:
                    raise ReportParseError(f"{path}:{row_no}: expected delta,label")
                delta, label = row
                if delta not in deltas:
                    deltas[delta] = Field(delta, f"{path}:{row_no}", "delta").integer(
                        -(1 << 63), (1 << 63) - 1, text=True)  # an int64, as measured
                if label not in labels:
                    labels[label] = Field(label, f"{path}:{row_no}", "label").integer(
                        0, 1, text=True)
                samples.append((deltas[delta], labels[label]))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ReportParseError(f"cannot read dataset {path}: {exc}") from exc
    if not samples:
        raise ReportParseError(f"{path}: no windows")
    return LabeledDataset(selector, tuple(samples), _split_seed(seed, selector))


def save_model_json(
    selector: int, model: LogisticModel, metrics: MetricsReport, path: str
) -> None:
    doc = {
        "selector": format_selector(selector),
        "weight": model.weight,
        "bias": model.bias,
        "feature_mean": model.feature_mean,
        "feature_stddev": model.feature_stddev,
        "threshold": THRESHOLD,
        "metrics": {
            **{name: getattr(metrics, name) for name in (*_COUNTS, *_METRICS)},
            "undefined": sorted(metrics.undefined),
        },
    }
    write_json(path, doc)


def load_model_json(path: str) -> tuple[int, LogisticModel, MetricsReport]:
    """A detector written by save_model_json: the fields README's "Input files" gives."""
    doc = read_json(path, "model").object(
        ("selector", "weight", "bias", "feature_mean", "feature_stddev", "metrics"),
        {"threshold": THRESHOLD},
    )
    doc["threshold"].number(0, 1)  # read for its check: the decision threshold is THRESHOLD
    m = doc["metrics"].object((*_COUNTS, *_METRICS), {"undefined": []})
    model = LogisticModel(
        *(doc[name].number() for name in ("weight", "bias", "feature_mean")),
        feature_stddev=doc["feature_stddev"].number(low=math.ulp(0.0)),  # a divisor
    )
    metrics = MetricsReport(
        *(m[name].integer(low=0) for name in _COUNTS),
        *(m[name].number(0, 1) for name in _METRICS),
        undefined=frozenset(m["undefined"].list_of(str, _METRICS)),
    )
    return doc["selector"].selector(), model, metrics


def write_screen_csv(
    reports: Mapping[int, MetricsReport],
    passed: Iterable[int],
    path: str,
) -> None:
    passed_set = set(passed)
    write_csv(path, ["selector", *_METRICS, "passed"], (
        [
            format_selector(selector),
            *(f"{getattr(rep, name):.6f}" for name in _METRICS),
            str(selector in passed_set).lower(),
        ]
        for selector, rep in sorted(reports.items())
    ))

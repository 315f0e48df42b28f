"""Expected outputs of the benchmark workloads, derived from the fixtures alone.

Every expectation here is independent of the workload seed: noise in the
simulated PMU is a truncated, non-negative over-count, so it can add hidden
instructions to a noisy family's selector but never create or remove a
selector, and the covert channel runs without false fires.  The fixture files
are parsed here directly rather than through the package's loaders, so a bug
in a loader cannot make its own output look right.

A check whose name is in KNOWN_DEFECTS is still run and still counts as a
failed operation when it fails; it only does not make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

SPACE = 1 << 16

# Failing checks that document a defect already on the roadmap.  Fixing the
# defect turns the check green; it is never skipped.
KNOWN_DEFECTS = {
    "umask.mask.0xD3": (
        "analyze-umask treats documented umasks as quiet and reports 0x01,false "
        "for 0xD3 where the model's relevance mask is 0x03 (ROADMAP item 4)"
    ),
}

# Modeled rate of a meltdown gadget with signal-handler suppression, in B/s.
MELTDOWN_SIGNAL_HANDLER_BPS = 497.49


def _num(value) -> int:
    # model integers are JSON numbers or "0x.." strings
    return int(value, 0) if isinstance(value, str) else int(value)


def gates(umask: int, mask: int) -> bool:
    return mask == 0 or (umask & mask) != 0


def selector_text(packed: int) -> str:
    return f"0x{packed >> 8:02X}{packed & 0xFF:02X}"


@dataclass(frozen=True)
class Family:
    code: int
    mask: int
    triggers: frozenset[str]
    increment: int
    noisy: bool

    def packed(self, umask: int) -> int:
        return (umask << 8) | self.code


@dataclass
class Fixtures:
    """The fixture inputs plus the outputs they imply."""

    data_dir: str
    pool_extensions: frozenset[str]
    ids: list[int] = field(default_factory=list)
    classes: dict[int, str] = field(default_factory=dict)
    extensions: dict[int, str] = field(default_factory=dict)
    catalog: set[int] = field(default_factory=set)
    families: list[Family] = field(default_factory=list)
    faults: dict[int, str] = field(default_factory=dict)
    model_extensions: frozenset[str] = frozenset()
    label: str = ""
    secret: bytes = b""

    def path(self, name: str) -> str:
        return os.path.join(self.data_dir, name)

    @classmethod
    def load(cls, data_dir: str, pool_extensions: frozenset[str]) -> "Fixtures":
        fx = cls(data_dir, frozenset(pool_extensions))
        with open(fx.path("corpus.tsv"), encoding="utf-8") as fh:
            for line in fh:
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                cols = [c.strip() for c in line.rstrip("\n").split("\t")]
                entry_id = int(cols[0])
                fx.ids.append(entry_id)
                fx.extensions[entry_id] = cols[3]
                fx.classes[entry_id] = cols[4]
        with open(fx.path("catalog.csv"), encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if row and row[0].strip().lower() != "event_code":
                    fx.catalog.add((int(row[1], 16) << 8) | int(row[0], 16))
        with open(fx.path("sim_model.json"), encoding="utf-8") as fh:
            model = json.load(fh)
        for raw in model["families"]:
            fx.families.append(
                Family(
                    code=_num(raw["event_code"]),
                    mask=_num(raw.get("relevance_mask", 0)),
                    triggers=frozenset(raw.get("trigger_classes", [])),
                    increment=_num(raw.get("increment", 1)),
                    noisy=float(raw.get("noise_stddev", 0.0)) > 0,
                )
            )
        fx.faults = {int(k): v for k, v in model.get("fault_instructions", {}).items()}
        fx.model_extensions = frozenset(model.get("supported_extensions", ["base"]))
        fx.label = str(model.get("microarchitecture", "sim"))
        with open(fx.path("secret.bin"), "rb") as fh:
            fx.secret = fh.read()
        return fx

    # -- what a scan does with the corpus -------------------------------

    @property
    def scanned(self) -> list[int]:
        """Instructions the register pool can instantiate."""
        return [i for i in self.ids if self.extensions[i] in self.pool_extensions]

    @property
    def skipped(self) -> list[int]:
        return [i for i in self.ids if self.extensions[i] not in self.pool_extensions]

    def outcome(self, entry_id: int) -> str:
        if self.extensions[entry_id] not in self.model_extensions:
            return "unsupported"
        return "fault" if entry_id in self.faults else "success"

    @property
    def executed(self) -> list[int]:
        """Scanned instructions that reach the simulated PMU."""
        return [i for i in self.scanned if self.outcome(i) == "success"]

    def family(self, code: int) -> Family | None:
        return next((f for f in self.families if f.code == code), None)

    def hidden(self) -> tuple[dict[int, tuple[set[int], set[int]]], set[int]]:
        """Planted hidden selectors.

        Returns ({packed: (required ids, allowed ids)}, optional selectors).
        A required selector must be reported with at least its required ids
        and at most its allowed ones; an optional selector (a noisy family
        no executed instruction triggers) may or may not show up.
        """
        must: dict[int, tuple[set[int], set[int]]] = {}
        may: set[int] = set()
        executed = self.executed
        for fam in self.families:
            required = (
                {i for i in executed if self.classes[i] in fam.triggers}
                if fam.increment >= 1 else set()
            )
            allowed = set(executed) if fam.noisy else required
            for umask in range(256):
                packed = fam.packed(umask)
                if not gates(umask, fam.mask) or packed in self.catalog:
                    continue
                if required:
                    must[packed] = (required, allowed)
                elif allowed:
                    may.add(packed)
        return must, may

    def record_expectations(self, entry_id: int) -> tuple[list[int], list[bool]]:
        """Per packed selector: the exact delta of one repetition for this
        instruction, and whether noise may add to it."""
        delta = [0] * SPACE
        noisy = [False] * SPACE
        if self.outcome(entry_id) != "success":
            return delta, noisy
        tag = self.classes[entry_id]
        for fam in self.families:
            hit = fam.increment if tag in fam.triggers else 0
            for umask in range(256):
                if gates(umask, fam.mask):
                    delta[fam.packed(umask)] = hit
                    noisy[fam.packed(umask)] = fam.noisy
        return delta, noisy

    # -- the covert channel ----------------------------------------------

    def channel_screen(self, scaffold: str, transmit: str) -> tuple[set[int], set[int]]:
        """(selectors that must carry a 1-byte, 1-iteration channel at
        accuracy 1.0, selectors that must not be kept) among the hidden ones.

        A noise-free family that counts the transmit class scores the
        secret byte strictly highest.  One that does not counts every
        candidate alike, so the tie decodes as 0x00.  Noisy families are
        left unconstrained.
        """
        must, _ = self.hidden()
        kept: set[int] = set()
        dropped: set[int] = set()
        for packed in must:
            fam = self.family(packed & 0xFF)
            if fam is None or fam.noisy:
                continue
            if transmit in fam.triggers and fam.increment >= 1:
                kept.add(packed)
            elif self.secret[0] != 0:
                dropped.add(packed)
        return kept, dropped

    # -- detection windows -------------------------------------------------

    def window_range(self, code: int, umask: int, profile) -> tuple[int, int | None]:
        """Bounds of one window's count for a scenario's activity profile
        (tag -> (base, jitter)); the upper bound is None for noisy families."""
        fam = self.family(code)
        if fam is None or not gates(umask, fam.mask):
            return 0, 0
        low = high = 0
        for tag, (base, jitter) in profile.items():
            if tag in fam.triggers:
                low += fam.increment * max(0, base - jitter)
                high += fam.increment * max(0, base + jitter)
        return low, None if fam.noisy else high


class Checks:
    """Named oracle checks of one workload body: the operations the run
    reports as attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.details: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            self.details[name] = detail
        return ok

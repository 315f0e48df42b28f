"""Toolkit for discovering and exploiting undocumented PMU events.

The pipeline scans the full 16-bit event-selector space against an
instruction corpus, analyzes which umask bits discovered events decode,
trains per-event logistic detectors for transient-execution attacks, and
drives a count-based covert channel.  All measurement goes through a
pluggable counter backend, so everything can run against a deterministic
simulated PMU.
"""

from .backend import (
    CounterBackend,
    CounterSlot,
    NativeMsrBackend,
    SimEventFamily,
    SimModel,
    SimulatedPmu,
    load_sim_model,
    measure,
)
from .collector import (
    ScanConfig,
    ScanRecord,
    ScanReport,
    full_scan,
    load_report,
    persist_report,
    scan_instruction,
)
from .corpus import (
    InstructionEntry,
    NativeExecutor,
    SimulatedExecutor,
    Snippet,
    instantiate,
    load_corpus_file,
    normalize_syntax,
    parse_corpus,
)
from .detection import (
    LabeledDataset,
    LogisticModel,
    MetricsReport,
    ScenarioSpec,
    ScreenCriteria,
    build_dataset,
    collect_samples,
    compute_metrics,
    scenario_suite,
    screen,
    train,
)
from .errors import ProspectorError
from .events import (
    EventCatalog,
    PerfEvtSelValue,
    decode_msr_value,
    format_selector,
    load_catalog,
    parse_selector,
    render_msr_value,
    scan_control,
    unpack_selector,
)
from .sidechannel import (
    ChannelMetrics,
    GadgetSpec,
    RecoveryResult,
    SimVictim,
    channel_metrics,
    recover_byte,
    recover_secret,
    screen_channel_events,
)
from .umask import (
    RelevanceMask,
    group_hidden_by_event_code,
    infer_relevance_mask,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

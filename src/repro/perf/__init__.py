"""Performance instrumentation and analytical machine/network models.

This package is the substitution layer for the paper's hardware (see
DESIGN.md §2): kernels *execute* the real algorithms and *count* the work a
tuned native implementation would perform; the models here turn counts into
modeled seconds on the paper's Table 1 machines and the Endeavor cluster
network.
"""

from .counters import (
    IDX_BYTES,
    PTR_BYTES,
    VAL_BYTES,
    KernelRecord,
    PerfLog,
    RecordTable,
    active_log,
    collect,
    count,
    count_batch,
    count_record,
    current_phase,
    make_record,
    make_records,
    phase,
    silent,
)
from .machine import HaswellModel, K40cModel, MachineModel
from .network import FDRInfinibandModel, MessageEvent, NetworkModel
from .report import (
    format_breakdown,
    format_fault_summary,
    format_service_report,
    format_shard_report,
    format_table,
    geomean,
)
from .trace import comm_to_trace, log_to_trace, write_trace

__all__ = [
    "IDX_BYTES",
    "PTR_BYTES",
    "VAL_BYTES",
    "KernelRecord",
    "PerfLog",
    "RecordTable",
    "active_log",
    "collect",
    "count",
    "count_batch",
    "count_record",
    "current_phase",
    "make_record",
    "make_records",
    "phase",
    "silent",
    "MachineModel",
    "HaswellModel",
    "K40cModel",
    "NetworkModel",
    "FDRInfinibandModel",
    "MessageEvent",
    "format_breakdown",
    "format_fault_summary",
    "format_service_report",
    "format_shard_report",
    "format_table",
    "geomean",
    "comm_to_trace",
    "log_to_trace",
    "write_trace",
]

"""Chrome-trace export of instrumentation data.

Converts a :class:`PerfLog` (or a :class:`SimComm`'s per-rank logs plus
message log) into the Trace Event JSON format that ``chrome://tracing`` /
Perfetto render — each kernel record becomes a duration event laid out on
its modeled timeline, each message a flow arrow between ranks.  Purely a
visualization aid; timings are the machine-model times.
"""

from __future__ import annotations

import json

from .counters import PerfLog
from .machine import MachineModel
from .network import NetworkModel

__all__ = ["log_to_trace", "comm_to_trace", "write_trace"]


def log_to_trace(
    log: PerfLog,
    machine: MachineModel,
    *,
    pid: int = 0,
    tid: int = 0,
    start_us: float = 0.0,
) -> list[dict]:
    """Serialize one log as sequential duration events (modeled times)."""
    events = []
    t = start_us
    for rec in log.records:
        dur = machine.record_time(rec) * 1e6
        events.append(
            {
                "name": rec.kernel,
                "cat": rec.phase,
                "ph": "X",
                "ts": round(t, 3),
                "dur": round(max(dur, 0.001), 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "flops": rec.flops,
                    "bytes": rec.bytes_total,
                    "branches": rec.branches,
                    "parallel": rec.parallel,
                },
            }
        )
        t += dur
    return events


def comm_to_trace(comm, machine: MachineModel, net: NetworkModel) -> list[dict]:
    """Serialize a SimComm run: one track per rank plus message counters."""
    events = []
    for p, log in enumerate(comm.rank_logs):
        events.extend(log_to_trace(log, machine, pid=0, tid=p))
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": p,
             "args": {"name": f"rank {p}"}}
        )
    # Message volume per (src -> dst) as instant events on the source track.
    cols, _ = comm.messages.columns()
    durs = (net.message_times(cols.src, cols.dst, cols.nbytes,
                              cols.persistent) * 1e6).tolist()
    t = 0.0
    for m, dur in zip(comm.messages, durs):
        events.append(
            {
                "name": f"msg {m.event.src}->{m.event.dst} "
                        f"({m.event.nbytes} B{', persistent' if m.event.persistent else ''})",
                "cat": "comm:" + (m.event.tag or "untagged"),
                "ph": "X",
                "ts": round(t, 3),
                "dur": round(max(dur, 0.001), 3),
                "pid": 1,
                "tid": m.event.src,
                "args": {"bytes": m.event.nbytes, "phase": m.phase},
            }
        )
        t += dur
    events.append({"name": "process_name", "ph": "M", "pid": 0,
                   "args": {"name": "compute (modeled)"}})
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "network (modeled)"}})
    return events


def write_trace(path, events: list[dict]) -> None:
    """Write events as a Trace Event JSON file (open in Perfetto)."""
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

"""Live asyncio cluster runtime.

Runs the same protocol objects the simulator runs -- unchanged, through
the :class:`~repro.runtime.env.RuntimeEnv` interface -- as real OS
processes talking over TCP, with file-backed stable storage and real
SIGKILL crashes:

- :mod:`repro.live.wire` / :mod:`repro.live.framing` -- the mesh wire
  format: binary frames with per-link FTVC delta chains, each in a
  length-prefixed, CRC32-checked frame;
- :mod:`repro.live.codec` -- the tagged-JSON value codec that traces
  and done reports use;
- :mod:`repro.live.storage` -- :class:`FileStableStorage`, persisting the
  durable half of a process's state through ``os.replace``;
- :mod:`repro.live.env` -- :class:`LiveEnv`, the event-loop-backed
  environment implementation, and the JSONL trace writer;
- :mod:`repro.live.transport` -- the reconnecting full-mesh transport
  with per-link sequencing and a durable outbox (reliable channels
  across crashes);
- :mod:`repro.live.node` -- one cluster member (``python -m
  repro.live.node --config ...``);
- :mod:`repro.live.supervisor` -- spawns the cluster, injects SIGKILL
  crashes per a :class:`LiveCrashPlan`, merges the trace;
- :mod:`repro.live.faults` -- :class:`LiveFaultPlan`, the live mirror of
  the simulator's failure vocabulary (partitions, asymmetric drops, gray
  links, disk faults, corrupt frames), enforced node-side;
- :mod:`repro.live.verify` -- recovery/no-orphan verdict over the merged
  trace;
- :mod:`repro.live.bench`, :mod:`repro.live.wirebench`,
  :mod:`repro.live.load` (with the open-loop load generator) and
  :mod:`repro.live.scalebench` -- the payloads of the ``live``,
  ``wire``, ``load`` and ``scale`` suites of ``python -m repro bench``.
"""

from repro.live.env import LiveEnv, LiveTrace
from repro.live.faults import (
    LiveCorruptFramePlan,
    LiveDiskFaultPlan,
    LiveFaultPlan,
    LiveGrayLinkPlan,
    LiveLinkDropPlan,
    LivePartitionPlan,
    NodeFaults,
)
from repro.live.load import LoadPipelineApp, OpenLoopSource, run_load_bench
from repro.live.storage import FileStableStorage
from repro.live.supervisor import LiveClusterSpec, LiveCrashPlan, run_cluster
from repro.live.verify import LiveVerdict, check_live_run

__all__ = [
    "FileStableStorage",
    "LiveClusterSpec",
    "LiveCorruptFramePlan",
    "LiveCrashPlan",
    "LiveDiskFaultPlan",
    "LiveEnv",
    "LiveFaultPlan",
    "LiveGrayLinkPlan",
    "LiveLinkDropPlan",
    "LivePartitionPlan",
    "LiveTrace",
    "LiveVerdict",
    "LoadPipelineApp",
    "NodeFaults",
    "OpenLoopSource",
    "check_live_run",
    "run_cluster",
]

"""Where the traced run puts its spans: the program calls each layer makes.

Every entry is ``(module, owner, attribute, span name, layer)``.  The
layers are the repository's own modules:

- ``service``: the KV application handler (:mod:`repro.service.kv`);
- ``protocol``: :mod:`repro.core` and :mod:`repro.protocols` -- message
  receive, app-send injection, checkpointing, stability, FTVC and
  history tests;
- ``wire``: :mod:`repro.live.wire` frame encode/decode;
- ``storage``: the public write calls of stable storage
  (:mod:`repro.live.storage` on the live engine, :mod:`repro.storage`
  in memory on the simulator);
- ``trace``: the live trace writer (:mod:`repro.live.env`);
- ``analysis``: the stress oracles (:mod:`repro.analysis`).

The simulator engine itself (``sim``) and the schedule generator
(``stress``) are timed by the sim-stress workload around its own calls.
"""

from __future__ import annotations

import importlib

from perfbench.spans import Recorder

#: Probes common to both engines.
CORE = [
    ("repro.core.recovery", "DamaniGargProcess", "on_network_message",
     "protocol.receive", "protocol"),
    ("repro.core.recovery", "DamaniGargProcess", "inject_app_send",
     "protocol.inject", "protocol"),
    ("repro.protocols.base", "BaseRecoveryProcess", "take_checkpoint",
     "protocol.checkpoint", "protocol"),
    ("repro.core.recovery", "DamaniGargProcess", "gossip_tick",
     "protocol.stability", "protocol"),
    ("repro.core.recovery", "DamaniGargProcess", "apply_stability",
     "protocol.stability", "protocol"),
    ("repro.core.ftvc", "FaultTolerantVectorClock", "__le__",
     "ftvc.compare", "protocol"),
    ("repro.core.ftvc", "FaultTolerantVectorClock", "__lt__",
     "ftvc.compare", "protocol"),
    ("repro.core.ftvc", "FaultTolerantVectorClock", "concurrent_with",
     "ftvc.compare", "protocol"),
    ("repro.core.ftvc", "FaultTolerantVectorClock", "merge",
     "ftvc.merge", "protocol"),
    ("repro.core.history", "History", "is_obsolete",
     "history.is_obsolete", "protocol"),
    ("repro.core.history", "History", "orphaned_by",
     "history.orphan_check", "protocol"),
    ("repro.core.history", "History", "survives_token",
     "history.orphan_check", "protocol"),
]

#: Stable storage's public write calls on the in-memory engine.
SIM_STORAGE = [
    ("repro.storage.checkpoint", "CheckpointStore", "take",
     "storage.write", "storage"),
    ("repro.storage.checkpoint", "CheckpointStore", "discard_after",
     "storage.write", "storage"),
    ("repro.storage.log", "MessageLog", "flush", "storage.write", "storage"),
    ("repro.storage.log", "MessageLog", "truncate",
     "storage.write", "storage"),
    ("repro.storage.stable", "StableStorage", "log_token",
     "storage.write", "storage"),
    ("repro.storage.stable", "StableStorage", "put", "storage.write",
     "storage"),
]

#: The same calls on the file engine, whose subclasses persist the image
#: inside them (so the base-class calls would miss the write).
LIVE_STORAGE = [
    ("repro.live.storage", "FileStableStorage", "put", "storage.write",
     "storage"),
    ("repro.live.storage", "FileStableStorage", "log_token",
     "storage.write", "storage"),
    ("repro.live.storage", "FileStableStorage", "sync", "storage.write",
     "storage"),
    ("repro.live.storage", "_NotifyingCheckpointStore", "take",
     "storage.write", "storage"),
    ("repro.live.storage", "_NotifyingCheckpointStore", "discard_after",
     "storage.write", "storage"),
    ("repro.live.storage", "_NotifyingMessageLog", "flush",
     "storage.write", "storage"),
    ("repro.live.storage", "_NotifyingMessageLog", "truncate",
     "storage.write", "storage"),
    ("repro.live.storage", "_NotifyingMessageLog", "discard_prefix",
     "storage.write", "storage"),
]

#: Probes only a live node runs.
LIVE = [
    ("repro.service.kv", "KVServiceApp", "handle", "service.kv.handle",
     "service"),
    ("repro.live.wire", "WireEncoder", "data_frame", "wire.encode", "wire"),
    ("repro.live.wire", "WireDecoder", "decode_data", "wire.decode", "wire"),
    ("repro.live.env", "LiveTrace", "record", "trace.write", "trace"),
    ("repro.live.env", "LiveTrace", "flush", "trace.write", "trace"),
]

#: Probes only the simulator run uses (the oracles behind check_case).
ANALYSIS = [
    ("repro.stress.oracles", None, "check_recovery",
     "analysis.check_recovery", "analysis"),
    ("repro.stress.oracles", None, "check_theorem1",
     "analysis.theorem1", "analysis"),
    ("repro.stress.oracles", None, "measure_overhead",
     "analysis.overhead", "analysis"),
    ("repro.analysis.consistency", None, "build_ground_truth",
     "analysis.ground_truth", "analysis"),
    ("repro.analysis.theorem", None, "build_ground_truth",
     "analysis.ground_truth", "analysis"),
]


#: Span names timed as leaves: called very often, wrapping nothing.
LEAVES = {"ftvc.compare", "ftvc.merge", "history.is_obsolete",
          "history.orphan_check"}


def install(recorder: Recorder, probes: list[tuple]) -> None:
    """Wrap every probe's callable with a span of ``recorder``."""
    for module_name, owner_name, attr, name, layer in probes:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        if attr not in vars(owner):
            raise AttributeError(f"probe {module_name}.{owner_name}.{attr} "
                                 "no longer exists")
        wrap = recorder.wrap_leaf if name in LEAVES else recorder.wrap
        wrap(owner, attr, name, layer)

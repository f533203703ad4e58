"""Start-up hook that traces a live node process (traced run only).

The traced KV run puts this directory on ``PYTHONPATH`` and names an
output directory in ``PERFBENCH_SPAN_DIR``; the cluster supervisor passes
both through to every node it spawns, and Python imports
``sitecustomize`` at start-up.  The hook then wraps the layer calls
listed in :mod:`perfbench.probes`, turns on the node's observability
counters, and at a clean exit writes one ``spans_<ospid>.json`` with the
span aggregates, the node's CPU time and its storage byte counts.

A SIGKILLed incarnation runs no exit handler, so its spans are lost;
only incarnations that exit cleanly report.
"""

import os

_SPAN_DIR = os.environ.get("PERFBENCH_SPAN_DIR")


def _install(span_dir: str) -> None:
    import atexit
    import resource
    import sys
    import time

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if root not in sys.path:
        sys.path.append(root)

    import pickle
    import types

    import repro.live.env as live_env
    import repro.live.storage as live_storage
    from perfbench import probes
    from perfbench.spans import Recorder
    from repro.obs.tracer import Tracer

    started_wall = time.time()
    recorder = Recorder()
    probes.install(recorder, probes.CORE + probes.LIVE_STORAGE + probes.LIVE)
    node: dict = {"pickled_bytes": 0, "pickles": 0}

    # The storage constructor loads the durable image on a restart.
    storage_init = live_storage.FileStableStorage.__init__

    def init_storage(self, *args, **kwargs):
        begin = time.perf_counter_ns()
        storage_init(self, *args, **kwargs)
        node["image_open_ns"] = time.perf_counter_ns() - begin
        node["storage"] = self

    live_storage.FileStableStorage.__init__ = init_storage
    recorder.sample(
        "storage.write",
        lambda: node["storage"].persist_count if "storage" in node else 0,
    )

    # Observability counters (dg.wire_* among them) need a tracer.
    env_init = live_env.LiveEnv.__init__

    def init_env(self, *args, **kwargs):
        if kwargs.get("tracer") is None:
            kwargs["tracer"] = Tracer()
        node["tracer"] = kwargs["tracer"]
        env_init(self, *args, **kwargs)

    live_env.LiveEnv.__init__ = init_env

    # Every durable image goes through pickle.dump in the storage module:
    # count its bytes and time serialisation apart from the fsyncs.
    def counting_dump(obj, fh, *args, **kwargs):
        start = fh.tell()
        pickle.dump(obj, fh, *args, **kwargs)
        node["pickled_bytes"] += fh.tell() - start
        node["pickles"] += 1

    counting = types.ModuleType("pickle")
    counting.__dict__.update(vars(pickle))
    counting.dump = counting_dump
    live_storage.pickle = counting
    recorder.wrap(counting, "dump", "storage.pickle", "storage")
    recorder.wrap(os, "fsync", "storage.fsync", "storage")

    def dump() -> None:
        storage = node.get("storage")
        tracer = node.get("tracer")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        recorder.dump(
            os.path.join(span_dir, f"spans_{os.getpid()}.json"),
            pid=storage.pid if storage is not None else None,
            boot=storage.get("node_boots", 0) if storage is not None else 0,
            started_wall=started_wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            image_open_ns=node.get("image_open_ns"),
            pickled_bytes=node["pickled_bytes"],
            pickles=node["pickles"],
            obs=dict(tracer.counters) if tracer is not None else {},
        )

    atexit.register(dump)


if _SPAN_DIR:
    _install(_SPAN_DIR)

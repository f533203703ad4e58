"""Run hygiene: fresh work directories and no node left behind."""

from __future__ import annotations

import os
import shutil
import signal
import time

NODE_MODULE = "repro.live.node"


def node_processes(work_root: str) -> list[int]:
    """OS pids of live node processes whose config lies under ``work_root``."""
    found = []
    marker = os.path.abspath(work_root) + os.sep
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue   # exited while we looked
        args = [a.decode("utf-8", "replace") for a in argv]
        if NODE_MODULE in args and any(a.startswith(marker) for a in args):
            found.append(int(entry))
    return found


def kill_nodes(work_root: str, timeout: float = 10.0) -> int:
    """SIGKILL every node under ``work_root`` and wait until all are gone.

    Returns how many were found.  A node spawned by this process is
    reaped by its supervisor thread; one left by an earlier run belongs
    to init, so this polls ``/proc`` instead of waiting on it.
    """
    pids = node_processes(work_root)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while node_processes(work_root):
        if time.monotonic() > deadline:
            raise RuntimeError(f"node processes under {work_root} survive")
        time.sleep(0.05)
    return len(pids)


def fresh_dir(path: str) -> str:
    """An empty directory at ``path`` (whatever was there is removed)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

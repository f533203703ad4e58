"""The parallel execution engine: a crash-isolated worker pool.

:class:`ParallelRunner` fans a list of :class:`~repro.exec.tasks.Task`
descriptors out over ``jobs`` worker processes and merges the outcomes
back **in submission order**, so a parallel sweep reports results in
exactly the order the serial loop would -- the determinism contract that
the parallel-vs-serial equivalence tests pin down.

Worker model (see ``docs/PARALLELISM.md``):

- the parent posts every pending task to a shared queue, plus one ``None``
  sentinel per worker;
- each worker loops ``get -> announce start -> run -> report done``,
  reporting over a lock-serialised pipe whose writes complete *before*
  the next instruction runs -- so a worker that dies mid-task has always
  durably announced which task it was running;
- a worker that *dies* (segfault, OOM-kill, ``os._exit``) takes down only
  that announced task: the parent drains the report pipe, notices the
  dead process, records a ``crashed`` outcome for the one task, and
  spawns a replacement worker that keeps draining the queue.  One
  pathological schedule therefore fails one task, never the pool;
- a worker exits cleanly only by consuming a sentinel, so once every
  sentinel is consumed the task queue is provably empty and any still
  unresolved task (lost in the dequeue-to-announce window) can be
  re-posted without risking double execution.

``jobs <= 1`` runs everything inline in the parent (no processes, no
pickling) through the same cache and outcome plumbing, which is also the
degenerate case the equivalence oracle compares against.

Results are cached per task when a :class:`~repro.exec.cache.ResultCache`
is supplied: hits skip execution entirely, and only *successful* values
are ever written back (errors and crashes may be environmental and must
stay retryable).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import traceback
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.tasks import Task, TaskOutcome, resolve_fn, task_key

#: Progress callback: (number of tasks finished so far, outcome just done).
ProgressFn = Callable[[int, TaskOutcome], None]


@dataclass(frozen=True)
class ProcessBudget:
    """Admission cap for slot-weighted scheduling (see PARALLELISM.md).

    ``slots`` is the total number of OS processes the runner may have
    working at once.  Every :class:`~repro.exec.tasks.Task` declares its
    weight (``Task.slots``); the pool admits tasks in submission order
    while their combined weight fits.  This is what lets one runner mix
    ordinary one-process simulations (1 slot) with live-cluster tasks
    that each spawn an n-node mesh (``n + 1`` slots) without
    oversubscribing the machine: an n=64 ``bench scale`` scenario takes 65
    slots, so on a 64-core host nothing else is admitted beside it,
    while sixteen n=4 scenarios (5 slots each) would need 80 and are
    throttled to twelve at a time.

    A task *heavier than the whole budget* is still admitted -- alone --
    once nothing else holds slots: progress beats strictness, and the
    alternative (rejecting it) would make ``n + 1 > slots`` un-runnable
    rather than merely slow.

    ``ProcessBudget.default()`` sizes the budget to the machine
    (``os.cpu_count()``).
    """

    slots: int

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"budget slots must be >= 1, got {self.slots}")

    @classmethod
    def default(cls) -> "ProcessBudget":
        return cls(max(os.cpu_count() or 1, 1))


def _worker_main(
    worker_id: int,
    sys_path: list[str],
    task_queue: Any,
    report: Any,
    report_lock: Any,
) -> None:
    """Worker loop: run tasks until a ``None`` sentinel arrives.

    ``sys_path`` replays the parent's import path so the ``spawn`` start
    method (no inherited interpreter state) finds the repro package even
    when it was made importable via ``PYTHONPATH=src``.  Reports go over
    ``report`` (one pipe writer shared by all workers) under
    ``report_lock``; ``Connection.send`` returns only once the message is
    in the pipe, which is what makes crash attribution exact.
    """
    for entry in reversed(sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    def send(kind: str, index: int, payload: Any = None) -> None:
        with report_lock:
            report.send((kind, worker_id, index, payload))

    while True:
        item = task_queue.get()
        if item is None:
            send("exit", -1)
            return
        index, fn_ref, payload = item
        send("start", index)
        started = perf_counter()
        try:
            value = resolve_fn(fn_ref)(payload)
            result = (value, None, perf_counter() - started)
        except BaseException:
            result = (
                None,
                traceback.format_exc(limit=20),
                perf_counter() - started,
            )
        send("done", index, result)


class ParallelRunner:
    """Run independent tasks across worker processes, deterministically.

    Parameters:

    - ``jobs`` -- worker process count; ``<= 1`` executes inline;
    - ``cache`` -- optional :class:`ResultCache` consulted per task;
    - ``budget`` -- optional :class:`ProcessBudget`; when set, tasks are
      *admitted* to the worker queue only while their combined
      ``Task.slots`` weight fits, so multi-process tasks cannot
      oversubscribe the machine.  ``None`` (the default) admits
      everything up front -- the historical behaviour;
    - ``start_method`` -- multiprocessing start method; defaults to
      ``fork`` where available (cheap on Linux) and ``spawn`` elsewhere.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: ResultCache | None = None,
        budget: ProcessBudget | None = None,
        start_method: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.budget = budget
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def map(
        self,
        tasks: Sequence[Task],
        *,
        progress: ProgressFn | None = None,
    ) -> list[TaskOutcome]:
        """Run every task; return outcomes in submission order."""
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        done_count = 0

        def finish(outcome: TaskOutcome) -> None:
            nonlocal done_count
            outcomes[outcome.index] = outcome
            done_count += 1
            if progress is not None:
                progress(done_count, outcome)

        pending: list[int] = []
        for index, task in enumerate(tasks):
            hit_outcome = self._try_cache(index, task)
            if hit_outcome is not None:
                finish(hit_outcome)
            else:
                pending.append(index)

        if self.jobs <= 1 or len(pending) <= 1:
            for index in pending:
                finish(self._run_inline(index, tasks[index]))
        else:
            for outcome in self._run_pool(tasks, pending):
                finish(outcome)

        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _try_cache(self, index: int, task: Task) -> TaskOutcome | None:
        if self.cache is None or not task.cacheable:
            return None
        hit, value = self.cache.get(task_key(task))
        if not hit:
            return None
        return TaskOutcome(
            index=index, value=value, cached=True, label=task.label
        )

    def _store(self, task: Task, outcome: TaskOutcome) -> None:
        if (
            self.cache is not None
            and task.cacheable
            and outcome.ok
            and not outcome.cached
        ):
            self.cache.put(task_key(task), outcome.value)

    # ------------------------------------------------------------------
    # Inline (jobs=1) path
    # ------------------------------------------------------------------
    def _run_inline(self, index: int, task: Task) -> TaskOutcome:
        started = perf_counter()
        try:
            value = resolve_fn(task.fn)(task.payload)
            outcome = TaskOutcome(
                index=index,
                value=value,
                wall_s=perf_counter() - started,
                label=task.label,
            )
        except Exception:
            outcome = TaskOutcome(
                index=index,
                error=traceback.format_exc(limit=20),
                wall_s=perf_counter() - started,
                label=task.label,
            )
        self._store(task, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Worker-pool path
    # ------------------------------------------------------------------
    def _run_pool(self, tasks: Sequence[Task], pending: list[int]):
        """Yield outcomes for ``pending`` task indices as they complete."""
        task_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        report_lock = self._ctx.Lock()
        worker_count = min(self.jobs, len(pending))
        slots_cap = self.budget.slots if self.budget is not None else None
        if slots_cap is not None:
            # Each admitted task holds >= 1 slot, so concurrency can
            # never exceed the budget; extra workers would only idle.
            worker_count = max(1, min(worker_count, slots_cap))
        sentinels_posted = 0
        clean_exits = 0

        # Admission control.  Without a budget, the first admit() call
        # posts every task followed by the sentinels -- exactly the old
        # up-front behaviour.  With a budget, tasks become visible to the
        # workers in submission order only while their combined slot
        # weight fits, and the sentinels follow the last admission; slots
        # are released as tasks resolve (done, crashed, or failed).
        to_post: deque[int] = deque(pending)
        admitted: dict[int, int] = {}       # task index -> held slots
        admitted_slots = 0
        sentinels_armed = True
        # Flush mode guards against the silent-loss window *while
        # admission is still blocked*: a worker that dies between
        # dequeuing a task and announcing it leaves the task's slots
        # held forever, and with ``to_post`` non-empty the end-of-run
        # sentinel proof would never run.  Entering flush posts the
        # sentinels immediately (pausing admission); once every sentinel
        # is consumed the queue is provably empty, so any admitted task
        # still unresolved was lost and can safely rejoin ``to_post``.
        flushing = False

        def admit() -> None:
            nonlocal admitted_slots, sentinels_armed, sentinels_posted
            while to_post and not flushing:
                index = to_post[0]
                need = tasks[index].slots
                if (
                    slots_cap is not None
                    and admitted_slots > 0
                    and admitted_slots + need > slots_cap
                ):
                    # Oversized tasks (need > slots_cap) still pass the
                    # admitted_slots > 0 guard eventually: they run
                    # alone, they are never starved.
                    break
                to_post.popleft()
                admitted[index] = need
                admitted_slots += need
                task_queue.put(
                    (index, tasks[index].fn, tasks[index].payload)
                )
            if (not to_post or flushing) and sentinels_armed:
                for _ in range(worker_count):
                    task_queue.put(None)
                sentinels_posted += worker_count
                sentinels_armed = False

        def enter_flush() -> None:
            nonlocal flushing
            if flushing or not to_post:
                # With to_post empty the sentinels are already behind the
                # last task, so the normal end-of-run proof covers loss.
                return
            flushing = True
            admit()     # posts the sentinel round now

        def release(index: int) -> None:
            nonlocal admitted_slots
            held = admitted.pop(index, None)
            if held is not None:
                admitted_slots -= held

        workers: dict[int, Any] = {}
        in_flight: dict[int, int | None] = {}      # worker id -> task index
        next_worker_id = 0
        # Every crash consumes one respawn; the bound is far above anything
        # a healthy run needs, purely so a machine that kills every child
        # (e.g. an aggressive OOM killer) terminates instead of spinning.
        respawn_budget = 2 * len(pending) + 4 * worker_count

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            proc = self._ctx.Process(
                target=_worker_main,
                args=(wid, list(sys.path), task_queue, writer, report_lock),
                daemon=True,
            )
            proc.start()
            workers[wid] = proc
            in_flight[wid] = None

        unresolved = set(pending)
        try:
            while unresolved:
                admit()
                # Keep the pool at strength while work remains.
                target = min(worker_count, len(unresolved))
                while len(workers) < target and respawn_budget > 0:
                    respawn_budget -= 1
                    spawn()
                if not workers:
                    # Respawn budget exhausted: fail leftovers, don't hang.
                    for index in sorted(unresolved):
                        release(index)
                        yield TaskOutcome(
                            index=index,
                            crashed=True,
                            error="worker pool exhausted its respawn "
                            "budget before this task completed",
                            label=tasks[index].label,
                        )
                    unresolved.clear()
                    break
                if reader.poll(0.2):
                    kind, wid, index, payload = reader.recv()
                    if kind == "start":
                        in_flight[wid] = index
                    elif kind == "done":
                        in_flight[wid] = None
                        release(index)
                        if index in unresolved:
                            unresolved.discard(index)
                            value, error, wall_s = payload
                            outcome = TaskOutcome(
                                index=index,
                                value=value,
                                error=error,
                                wall_s=wall_s,
                                label=tasks[index].label,
                            )
                            self._store(tasks[index], outcome)
                            yield outcome
                    elif kind == "exit":
                        clean_exits += 1
                        proc = workers.pop(wid, None)
                        in_flight.pop(wid, None)
                        if proc is not None:
                            proc.join(timeout=5.0)
                    continue
                # Pipe drained: dead workers have no unread announcements,
                # so attributing their in-flight task as crashed is exact.
                # A death *without* an announced task may have silently
                # consumed one -- if admission is still blocked, enter
                # flush mode so its slots cannot deadlock the pool.
                for outcome in self._reap_dead(
                    workers,
                    in_flight,
                    tasks,
                    unresolved,
                    on_unannounced=enter_flush,
                ):
                    release(outcome.index)
                    yield outcome
                # A worker can die *between* dequeuing a task and
                # announcing it; such a task is silently lost.  Once every
                # sentinel has been consumed the queue is provably empty,
                # so leftovers can be re-posted without double execution.
                # Re-posting goes back through admit(): leftovers rejoin
                # the admission queue (slots released first) and a fresh
                # round of sentinels is armed behind them.
                busy = any(index is not None for index in in_flight.values())
                if (
                    clean_exits == sentinels_posted
                    and sentinels_posted > 0
                    and unresolved
                    and not busy
                ):
                    if flushing:
                        # Queue proven empty: every admitted-but-undone
                        # task was lost.  Return it to the admission
                        # queue in submission order and resume.
                        lost = sorted(set(to_post) | set(admitted))
                        for index in list(admitted):
                            release(index)
                        to_post.clear()
                        to_post.extend(lost)
                        flushing = False
                        sentinels_armed = True
                    elif not to_post:
                        for index in sorted(unresolved):
                            release(index)
                            to_post.append(index)
                        sentinels_armed = True
        finally:
            for proc in workers.values():
                proc.terminate()
            for proc in workers.values():
                proc.join(timeout=5.0)
            writer.close()
            reader.close()
            task_queue.close()
            task_queue.cancel_join_thread()

    def _reap_dead(
        self,
        workers: dict[int, Any],
        in_flight: dict[int, int | None],
        tasks: Sequence[Task],
        unresolved: set[int],
        on_unannounced: Callable[[], None] | None = None,
    ):
        """Attribute dead workers' announced tasks as crashed outcomes.

        ``on_unannounced`` fires for each dead worker with no announced
        task -- the caller's hook for the silent-loss window (the worker
        may have dequeued a task it never got to announce).
        """
        for wid in list(workers):
            proc = workers[wid]
            if proc.is_alive():
                continue
            exitcode = proc.exitcode
            workers.pop(wid)
            index = in_flight.pop(wid, None)
            if index is None:
                if on_unannounced is not None:
                    on_unannounced()
                continue
            if index in unresolved:
                unresolved.discard(index)
                yield TaskOutcome(
                    index=index,
                    crashed=True,
                    error=(
                        f"worker process died (exit code {exitcode}) while "
                        f"running task {index} "
                        f"({tasks[index].label or tasks[index].fn})"
                    ),
                    label=tasks[index].label,
                )

"""Cooperative scheduler with global instants and broadcast valued events.

Time advances in discrete *instants*. During the active phase of an instant,
runnable behaviors take micro-steps until every behavior is suspended or
finished; everything that happens inside one instant counts as simultaneous.
The end-of-instant phase then snapshots the values collected on each event,
clears all event buffers, and schedules newly spawned behaviors, after which
the clock advances.

A behavior is a generator. It suspends by yielding a command:

    yield Await(e)     resume as soon as e is generated (immediately if it
                       already was this instant)
    yield Collect(e)   resume at the start of the next instant with the list
                       of values generated on e during the current instant
    yield COOPERATE    resume at the start of the next instant

and it acts without suspending by calling ``Scheduler.generate(e, value)``
(broadcast a value on an event, waking every awaiter this same instant) or
``Scheduler.spawn(gen)`` (the new behavior takes its first step at the start
of the next instant).

Dispatch is deterministic: behaviors that become runnable together are
ordered by their spawn id, so two runs of the same program produce identical
event traces. Resumptions due at an instant's start sort as ``(bid, task,
value)`` entries by the unique spawn id; behaviors spawned since the last
instant started follow them all, in spawn order, as spawn ids only grow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Generator

Behavior = Generator  # a behavior is any generator yielding kernel commands

DEFAULT_MICROSTEP_BUDGET = 1_000_000


class KernelError(Exception):
    pass


class PhaseError(KernelError):
    """An operation was used outside the active phase of an instant."""


class DivergenceError(KernelError):
    """An instant exceeded its micro-step budget and will never finish."""

    def __init__(self, instant: int, budget: int):
        super().__init__(
            f"instant {instant} exceeded the micro-step budget of {budget}; "
            "some behavior loops without suspending"
        )
        self.instant = instant
        self.budget = budget


class Event:
    """A broadcast channel. Values are scoped to one instant; the event is
    present in an instant once a value has been generated on it."""

    __slots__ = ("eid", "values", "waiters")

    def __init__(self, eid: int):
        self.eid = eid
        self.values: list = []
        self.waiters: list[_Task] = []

    @property
    def present(self) -> bool:
        return bool(self.values)

    def __repr__(self):
        return f"Event({self.eid}, present={self.present}, values={self.values!r})"


class Await:
    """Suspend until the event is generated; no-op if already present."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class Collect:
    """Suspend to the next instant; resume with this instant's value list."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class _Cooperate:
    __slots__ = ()

    def __repr__(self):
        return "COOPERATE"


COOPERATE = _Cooperate()


class _Task:
    __slots__ = ("bid", "gen", "value")

    def __init__(self, bid: int, gen: Behavior):
        self.bid = bid
        self.gen = gen
        self.value: Any = None


_task_bid = attrgetter("bid")


@dataclass(frozen=True)
class InstantReport:
    instant: int
    alive: int
    terminated: int
    generated: int


class Scheduler:
    """Drives behaviors through instants; owns all events it hands out."""

    def __init__(self, microstep_budget: int = DEFAULT_MICROSTEP_BUDGET):
        self.microstep_budget = microstep_budget
        self._clock = 0
        self._active = False  # in the active phase of an instant
        self._queue: deque[_Task] = deque()
        # (bid, task, value) entries to run at the next instant's start
        self._resume: list[tuple[int, _Task, Any]] = []
        self._pending_spawns: list[_Task] = []
        self._collectors: list[tuple[_Task, Event]] = []
        self._touched: list[Event] = []
        self._next_bid = 0
        self._next_eid = 0
        self.alive = 0
        self.terminated = 0
        self._generated = 0

    @property
    def clock(self) -> int:
        """Index of the next instant to run (completed instants so far)."""
        return self._clock

    def new_event(self) -> Event:
        e = Event(self._next_eid)
        self._next_eid += 1
        return e

    def spawn(self, gen: Behavior) -> int:
        """Queue a behavior; it takes its first step next instant."""
        task = _Task(self._next_bid, gen)
        self._next_bid += 1
        self._pending_spawns.append(task)
        self.alive += 1
        return task.bid

    def generate(self, event: Event, value: Any = None) -> None:
        """Broadcast a value on an event; wakes all awaiters this instant.

        Only legal during the active phase: generation at the end of an
        instant, or between instants, would make "all values of the instant"
        ill-defined and is rejected.
        """
        if not self._active:
            raise PhaseError(
                "generate is only allowed during the active phase of an instant"
            )
        values = event.values
        if not values:
            self._touched.append(event)
        values.append(value)
        self._generated += 1
        waiters = event.waiters
        if waiters:
            if len(waiters) > 1:
                waiters.sort(key=_task_bid)
            for task in waiters:
                task.value = None
            self._queue.extend(waiters)
            waiters.clear()

    def run_instant(self) -> InstantReport:
        """Execute one full instant (active phase, then end-of-instant)."""
        instant = self._clock
        self._active = True
        self._generated = 0

        # Admit everything scheduled for this instant, in spawn-id order.
        ready = self._resume
        self._resume = resume = []
        ready.sort()
        queue = self._queue
        for _, task, value in ready:
            task.value = value
            queue.append(task)
        queue.extend(self._pending_spawns)
        self._pending_spawns = []

        steps = 0
        budget = self.microstep_budget
        while queue:
            task = queue.popleft()
            gen = task.gen
            value = task.value
            task.value = None
            while True:
                steps += 1
                if steps > budget:
                    raise DivergenceError(instant, budget)
                try:
                    cmd = gen.send(value)
                except StopIteration:
                    self.alive -= 1
                    self.terminated += 1
                    break
                if cmd is COOPERATE:
                    resume.append((task.bid, task, None))
                    break
                cls = cmd.__class__
                if cls is Collect:
                    self._collectors.append((task, cmd.event))
                    break
                if cls is Await:
                    event = cmd.event
                    if event.values:
                        value = None
                        continue
                    event.waiters.append(task)
                    break
                raise KernelError(f"behavior yielded a non-command: {cmd!r}")

        # End of instant: collectors see exactly this instant's values,
        # then every touched event buffer is reset.
        self._active = False
        for task, event in self._collectors:
            resume.append((task.bid, task, list(event.values)))
        self._collectors = []
        for event in self._touched:
            event.values.clear()
        self._touched = []

        self._clock += 1
        return InstantReport(instant, self.alive, self.terminated, self._generated)

    def is_quiet(self) -> bool:
        """True when nothing can ever run again without external input.

        Behaviors parked on never-generated events do not count: only a
        runnable behavior could wake them, and there is none.
        """
        return not (self._resume or self._pending_spawns or self._queue)

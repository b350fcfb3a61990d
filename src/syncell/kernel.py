"""Cooperative scheduler with global instants and broadcast valued events.

Time advances in discrete *instants*. During the active phase of an instant,
runnable behaviors take micro-steps until every behavior is suspended or
finished; everything that happens inside one instant counts as simultaneous.
The end-of-instant phase then snapshots the values collected on each event
and puts every event back at rest, after which the clock advances. During
the active phase, ``e.values`` holds the values generated on ``e`` so far in
the instant, in order; it is empty while ``e`` is absent.

A behavior is a generator. It suspends by yielding a command, a description
the kernel only reads, so any behavior may yield one command object again:

    yield Await(e)     resume as soon as e is generated (immediately if it
                       already was this instant)
    yield Collect(e)   resume at the start of the next instant with the values
                       generated on e during the current instant, a tuple
                       shared by every collector of e in it; () if e was absent
    yield AwaitCollect(e)
                       Await, then Collect with no step between: resume at
                       the start of the instant after the one e is generated
                       in, with that instant's values on e (ReactiveML's
                       valued ``await e(x) in ...``)
    yield COOPERATE    resume at the start of the next instant

and it acts without suspending by calling ``Scheduler.generate(e, value)``
(broadcast a value on an event, waking every awaiter this same instant) or
``Scheduler.spawn(gen)`` (start a behavior; ``spawn(gen, bid)`` gives it an
id from ``Scheduler.reserve`` that no live behavior holds, not a fresh one).

Dispatch is deterministic: behaviors that become runnable together are
ordered by their spawn id, so two runs of the same program produce identical
event traces. An instant runs one list of ``(bid, gen, value)`` entries:
first the start list, the resumptions due at its start and the behaviors
spawned between instants, sorted by the unique spawn id; then, in the order
they happen, the awaiters woken and the behaviors spawned during the instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

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
    """A broadcast channel: its values and its waiters, no identity besides the
    object. Values are scoped to one instant; the event is present in an
    instant once a value has been generated on it. Each open site of a world
    is one, a ``world.Cell``.

    At rest both fields are the shared empty tuple: ``values`` is a list only
    while the running instant has generated on the event, ``waiters`` only
    while behaviors are parked on it. Test them by truth, not by type."""

    __slots__ = ("values", "waiters")

    def __init__(self):
        self.values: list | tuple = ()
        # parked behaviors: (bid, gen, None) awaits, (bid, gen, self) collects
        self.waiters: list[tuple] | tuple = ()

    def __repr__(self):
        return f"Event(present={bool(self.values)}, values={self.values!r})"


class Await:
    """Suspend until the event is generated; no-op if already present."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class Collect:
    """Suspend to the next instant; resume with this instant's values: a tuple
    shared by every collector of the event in that instant; ``()`` if absent."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class AwaitCollect:
    """Suspend until the event is generated, then collect that instant's
    values: ``Await`` then ``Collect`` without the step between them."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class _Cooperate:
    __slots__ = ()

    def __repr__(self):
        return "COOPERATE"


COOPERATE = _Cooperate()


@dataclass(frozen=True)
class InstantReport:
    instant: int
    alive: int  # started, not yet finished (a world's cells from their first trigger on)
    generated: int
    steps: int  # micro-steps: behavior resumptions in this instant


class Scheduler:
    """Drives behaviors through instants.

    ``clock``, the next instant to run, and ``active`` are read-only, set by ``run_instant``."""

    def __init__(self, microstep_budget: int = DEFAULT_MICROSTEP_BUDGET):
        self.microstep_budget = microstep_budget
        self.clock = 0
        self.active = False  # in the active phase of an instant
        # (bid, gen, value) entries to run in this instant, and the start list
        self._run: list[tuple[int, Behavior, Any]] = []
        self._resume: list[tuple[int, Behavior, Any]] = []
        self._collectors: list[tuple[int, Behavior, Event]] = []  # resume with values
        self._touched: list[Event] = []
        # one byte per spawn id given out: 0 fresh, 1 reserved and free, 2 held
        self._ids = bytearray()
        self.alive = 0

    def reserve(self, n: int) -> range:
        """Set aside ``n`` consecutive spawn ids for ``spawn(gen, bid)``; each is
        free again once the behavior spawned under it finishes."""
        first = len(self._ids)
        self._ids.extend(b"\1" * n)
        return range(first, first + n)

    def spawn(self, gen: Behavior, bid: Optional[int] = None) -> int:
        """Start a behavior, later in the running instant if any (queued like a
        wake-up), else in the start list; ``bid`` picks a reserved id not held."""
        ids = self._ids
        if bid is None:
            bid = len(ids)
            ids.append(0)
        elif 0 <= bid < len(ids) and ids[bid] == 1:
            ids[bid] = 2
        else:
            raise KernelError(f"spawn id {bid} is not a reserved id free for use")
        (self._run if self.active else self._resume).append((bid, gen, None))
        self.alive += 1
        return bid

    def generate(self, event: Event, value: Any = None) -> None:
        """Broadcast a value on an event; wakes all awaiters this instant.

        Only legal during the active phase: generation at the end of an
        instant, or between instants, would make "all values of the instant"
        ill-defined and is rejected. The first value of the instant gives the
        event a fresh values list; waking its waiters hands their list to the
        run and leaves the event with none.
        """
        if not self.active:
            raise PhaseError(
                "generate is only allowed during the active phase of an instant"
            )
        values = event.values
        if values:
            values.append(value)
        else:
            event.values = [value]
            self._touched.append(event)
        waiters = event.waiters
        if waiters:
            event.waiters = ()
            if len(waiters) > 1:
                waiters.sort()  # by spawn id, which is unique
            for entry in waiters:
                (self._run if entry[2] is None else self._collectors).append(entry)

    def run_instant(self) -> InstantReport:
        """Execute one full instant (active phase, then end-of-instant)."""
        instant = self.clock
        self.active = True

        run = self._resume
        run.sort()
        self._run = run
        self._resume = resume = []
        collectors = self._collectors

        steps = 0
        budget = self.microstep_budget
        # generate appends woken awaiters to run while it is iterated
        for bid, gen, value in run:
            while True:
                steps += 1
                if steps > budget:
                    raise DivergenceError(instant, budget)
                try:
                    cmd = gen.send(value)
                except StopIteration:
                    self.alive -= 1
                    if self._ids[bid]:  # a reserved id is free again
                        self._ids[bid] = 1
                    break
                if cmd is COOPERATE:
                    resume.append((bid, gen, None))
                    break
                cls = cmd.__class__
                if cls is AwaitCollect:
                    event = cmd.event
                    if event.values:
                        collectors.append((bid, gen, event))
                    elif event.waiters:
                        event.waiters.append((bid, gen, event))
                    else:
                        event.waiters = [(bid, gen, event)]
                    break
                if cls is Collect:
                    collectors.append((bid, gen, cmd.event))
                    break
                if cls is Await:
                    event = cmd.event
                    if event.values:
                        value = None
                        continue
                    if event.waiters:
                        event.waiters.append((bid, gen, None))
                    else:
                        event.waiters = [(bid, gen, None)]
                    break
                raise KernelError(f"behavior yielded a non-command: {cmd!r}")

        # End of instant: every collector of an event gets one shared tuple of
        # its values (() if absent), then each touched event is put at rest.
        self.active = False
        self._run = []
        generated = 0
        for event in self._touched:
            event.values = values = tuple(event.values)
            generated += len(values)
        for bid, gen, event in collectors:
            resume.append((bid, gen, event.values))
        collectors.clear()
        for event in self._touched:
            event.values = ()
        self._touched = []

        self.clock = instant + 1
        return InstantReport(instant, self.alive, generated, steps)

    def is_quiet(self) -> bool:
        """True when nothing can ever run again without external input.

        Behaviors parked on never-generated events do not count: only a
        runnable behavior could wake them, and there is none.
        """
        return not self._resume

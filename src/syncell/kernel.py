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
event traces. Each behavior has one kernel record for its whole life: its
spawn id, its generator and the value it resumes with. Every suspension
queues that same record again, so an instant runs one list of records:
first the start list, the resumptions due at its start and the behaviors
spawned between instants, sorted by the unique spawn id; then, in the order
they happen, the awaiters woken and the behaviors spawned during the instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
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
    while the running instant has generated on the event. ``waiters`` is the
    parked behavior's kernel record while one behavior waits on the event,
    and a list of records once a second one parks. Test them by truth, not by
    type."""

    __slots__ = ("values", "waiters")

    def __init__(self):
        self.values: list | tuple = ()
        # parked records: value None awaits, value self collects
        self.waiters: _Entry | list[_Entry] | tuple = ()

    def __repr__(self):
        return f"Event(present={bool(self.values)}, values={self.values!r})"


class _Entry:
    """A behavior's one kernel record for its whole life: its spawn id, its
    generator and the value it resumes with. While it waits, ``value`` is the
    event it collects, whose values the end of the instant swaps in, or None."""

    __slots__ = ("bid", "gen", "value")

    def __init__(self, bid: int, gen: Behavior):
        self.bid = bid
        self.gen = gen
        self.value: Any = None


_by_bid = attrgetter("bid")


def _park(event: Event, entry: _Entry) -> None:
    """Park a second or later waiter: a lone parked record becomes a list."""
    waiters = event.waiters
    if waiters.__class__ is list:
        waiters.append(entry)
    else:
        event.waiters = [waiters, entry]


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
        # the records to run in this instant, and the start list
        self._run: list[_Entry] = []
        self._resume: list[_Entry] = []
        self._collectors: list[_Entry] = []  # value is the event, swapped for its values
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
        (self._run if self.active else self._resume).append(_Entry(bid, gen))
        self.alive += 1
        return bid

    def generate(self, event: Event, value: Any = None) -> None:
        """Broadcast a value on an event; wakes all awaiters this instant.

        Only legal during the active phase: generation at the end of an
        instant, or between instants, would make "all values of the instant"
        ill-defined and is rejected. The first value of the instant gives the
        event a fresh values list; waking its waiters hands their records to
        the run, or to the collectors, and leaves the event with none.
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
            if waiters.__class__ is list:
                waiters.sort(key=_by_bid)  # spawn ids are unique
                for entry in waiters:
                    (self._run if entry.value is None else self._collectors).append(entry)
            else:  # a lone parked record
                (self._run if waiters.value is None else self._collectors).append(waiters)

    def run_instant(self) -> InstantReport:
        """Execute one full instant (active phase, then end-of-instant)."""
        instant = self.clock
        self.active = True

        run = self._resume
        run.sort(key=_by_bid)
        self._run = run
        self._resume = resume = []
        collectors = self._collectors

        steps = 0
        budget = self.microstep_budget
        # generate appends woken awaiters to run while it is iterated
        for entry in run:
            gen = entry.gen
            value = entry.value
            while True:
                steps += 1
                if steps > budget:
                    raise DivergenceError(instant, budget)
                try:
                    cmd = gen.send(value)
                except StopIteration:
                    self.alive -= 1
                    if self._ids[entry.bid]:  # a reserved id is free again
                        self._ids[entry.bid] = 1
                    break
                if cmd is COOPERATE:
                    entry.value = None
                    resume.append(entry)
                    break
                cls = cmd.__class__
                if cls is AwaitCollect:
                    entry.value = event = cmd.event
                    if event.values:
                        collectors.append(entry)
                    elif event.waiters:
                        _park(event, entry)
                    else:
                        event.waiters = entry
                    break
                if cls is Collect:
                    entry.value = cmd.event
                    collectors.append(entry)
                    break
                if cls is Await:
                    event = cmd.event
                    if event.values:
                        value = None
                        continue
                    entry.value = None
                    if event.waiters:
                        _park(event, entry)
                    else:
                        event.waiters = entry
                    break
                raise KernelError(f"behavior yielded a non-command: {cmd!r}")

        # End of instant: every collector of an event gets one shared tuple of
        # its values (() if absent) in place of the event, and joins the start
        # list; then each touched event is put at rest.
        self.active = False
        self._run = []
        generated = 0
        for event in self._touched:
            event.values = values = tuple(event.values)
            generated += len(values)
        for entry in collectors:
            entry.value = entry.value.values
        resume += collectors
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

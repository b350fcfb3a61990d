"""A naive reference scheduler, written from the ``syncell.kernel`` docstring.

It follows the documented rules one by one, with plain lists and dicts and no
shortcut:

- ``Await(e)`` resumes as soon as ``e`` is generated, at once if it already
  was in this instant; ``Collect(e)`` resumes at the next instant's start with
  this instant's values on ``e``, one tuple shared by every collector of ``e``
  in that instant, ``()`` if ``e`` was absent; ``AwaitCollect(e)`` is
  ``Await`` then ``Collect`` with no step between; ``COOPERATE`` resumes at
  the next start.
- ``generate`` is only legal during an instant and wakes every awaiter of the
  event in that instant; behaviors that become runnable together are ordered
  by spawn id.
- An instant runs one list: first the start list, sorted by spawn id (the
  resumptions due at its start and the behaviors spawned between instants),
  then, in the order they happen, the awaiters woken and the behaviors spawned
  during the instant.
- ``reserve(n)`` sets ``n`` consecutive ids aside. ``spawn(gen, bid)`` takes
  one of them that no live behavior holds, and it is free again once that
  behavior finishes; any other ``bid`` is a ``KernelError``.
- A micro-step is one resumption; the step past the budget raises
  ``DivergenceError`` in that instant.

It keeps its own state for each event: the behaviors parked on it and the
values of the running instant, in dicts keyed by the event. The one thing it
writes on an event is what the docstring promises behaviors can read: from
the first ``generate`` of an instant on, ``e.values`` is a list of the values
so far, and ``()`` again once the instant ends. It never touches
``e.waiters``.

It speaks the ``Scheduler`` API that a program uses, down to the read-only
``clock`` and ``active``, so one program can drive both and their traces can
be compared. That program may be a whole world: a test that sets
``syncell.world.Scheduler`` to this class runs every ``World`` it builds on
the engine's own events, cells and behaviors.
"""

from syncell.kernel import (
    DEFAULT_MICROSTEP_BUDGET,
    Await,
    AwaitCollect,
    COOPERATE,
    Collect,
    DivergenceError,
    InstantReport,
    KernelError,
    PhaseError,
)


class ReferenceScheduler:
    def __init__(self, microstep_budget=DEFAULT_MICROSTEP_BUDGET):
        self.microstep_budget = microstep_budget
        self.clock = 0
        self.alive = 0
        self.active = False
        self.ids = []  # per spawn id: "plain", "reserved" (free) or "held"
        self.start_list = []  # [bid, gen, value] to run at the next instant's start
        self.run_list = []  # the running instant's list, extended while it runs
        self.waiting = {}  # event -> [bid, gen, then_collect] parked on it, in park order
        self.collecting = []  # [bid, gen, event] resumed next instant with values
        self.values = {}  # event -> its values of this instant, once generated on

    def reserve(self, n):
        first = len(self.ids)
        for _ in range(n):
            self.ids.append("reserved")
        return range(first, first + n)

    def spawn(self, gen, bid=None):
        if bid is None:
            bid = len(self.ids)
            self.ids.append("plain")
        elif bid < 0 or bid >= len(self.ids) or self.ids[bid] != "reserved":
            raise KernelError(f"spawn id {bid} is not a free reserved id")
        else:
            self.ids[bid] = "held"
        self.alive += 1
        if self.active:
            self.run_list.append([bid, gen, None])
        else:
            self.start_list.append([bid, gen, None])
        return bid

    def generate(self, event, value=None):
        if not self.active:
            raise PhaseError("generate outside an instant")
        if event not in self.values:
            self.values[event] = event.values = []
        self.values[event].append(value)
        woken = sorted(self.waiting.pop(event, []), key=lambda w: w[0])
        for bid, gen, then_collect in woken:
            if then_collect:
                self.collecting.append([bid, gen, event])
            else:
                self.run_list.append([bid, gen, None])

    def run_instant(self):
        instant = self.clock
        self.active = True
        self.run_list = sorted(self.start_list, key=lambda entry: entry[0])
        self.start_list = []
        steps = 0
        i = 0
        while i < len(self.run_list):
            bid, gen, value = self.run_list[i]
            i += 1
            while True:
                steps += 1
                if steps > self.microstep_budget:
                    raise DivergenceError(instant, self.microstep_budget)
                try:
                    cmd = gen.send(value)
                except StopIteration:
                    self.alive -= 1
                    if self.ids[bid] == "held":
                        self.ids[bid] = "reserved"
                    break
                value = None
                if cmd is COOPERATE:
                    self.start_list.append([bid, gen, None])
                    break
                if isinstance(cmd, Collect):
                    self.collecting.append([bid, gen, cmd.event])
                    break
                if isinstance(cmd, Await):
                    if cmd.event in self.values:
                        continue
                    self.waiting.setdefault(cmd.event, []).append([bid, gen, False])
                    break
                if isinstance(cmd, AwaitCollect):
                    if cmd.event in self.values:
                        self.collecting.append([bid, gen, cmd.event])
                    else:
                        self.waiting.setdefault(cmd.event, []).append([bid, gen, True])
                    break
                raise KernelError(f"behavior yielded a non-command: {cmd!r}")
        self.active = False
        snapshots = {}  # event -> the one tuple of its values every collector gets
        generated = 0
        for event, values in self.values.items():
            snapshots[event] = tuple(values)
            generated += len(values)
            event.values = ()
        for bid, gen, event in self.collecting:
            self.start_list.append([bid, gen, snapshots.get(event, ())])
        self.collecting = []
        self.values = {}
        self.clock += 1
        return InstantReport(instant, self.alive, generated, steps)

    def is_quiet(self):
        return not self.start_list

"""What each instant of a run shows, and the collapse checks read off it.

The engine keeps no record of what a superposition's cells did. A collapse is
checked from outside instead: ``InstantLog``, installed as ``World.run``'s
``on_instant``, keeps after every instant the context serials that are
visible, those that became visible in it, and the serials reduced in it.
"""

from collections import defaultdict

from syncell.measure import REDUCE_WINDOW


class InstantLog:
    """Per-instant record of a run watched from its first instant on."""

    def __init__(self):
        self.visible = []  # per instant: serials with a visible cell at its end
        self.appeared = []  # per instant: serials with a cell that became visible in it
        self.reduced = []  # per instant: serials reduced in it, in record order
        self._cells = {}  # visible cell -> its serial, at the end of the last instant
        self._reductions = 0

    def __call__(self, world, report):
        assert report.instant == len(self.visible), "the log missed an instant"
        cells = {c: c.ctx.serial for c in world.visible}
        self.visible.append(set(cells.values()))
        self.appeared.append({k for c, k in cells.items() if self._cells.get(c) != k})
        self._cells = cells
        new = world.stats.reductions[self._reductions :]
        self._reductions += len(new)
        self.reduced.append([r.ctx_serial for r in new])


def assert_collapses(log: InstantLog, measured) -> None:
    """Check each ``(serial, t)`` of ``measured``, a superposition measured in
    instant ``t``: no cell of it becomes visible after ``t`` (no member
    transmitted), none is visible from the end of ``t + REDUCE_WINDOW`` on,
    and it is reduced exactly once, in ``t + REDUCE_WINDOW``."""
    last_appeared, last_visible, reduced = {}, {}, defaultdict(list)
    for instant, (visible, appeared, serials) in enumerate(
        zip(log.visible, log.appeared, log.reduced)
    ):
        for k in appeared:
            last_appeared[k] = instant
        for k in visible:
            last_visible[k] = instant
        for k in serials:
            reduced[k].append(instant)
    for serial, t in measured:
        end = t + REDUCE_WINDOW
        assert end < len(log.visible), f"the run ended inside the window of {serial}"
        assert last_appeared.get(serial, -1) <= t, f"{serial}: a member transmitted after {t}"
        assert last_visible.get(serial, -1) < end, f"{serial}: members survived the collapse"
        assert reduced[serial] == [end], f"{serial}: reduced at {reduced[serial]}, not [{end}]"

"""The kill-and-push :class:`Timer`, as it ran before re-arms moved a stamp.

Every :meth:`EagerTimer.start` on an armed timer kills its pending heap
entry and pushes a new one, so the queue never holds a stale entry for it:
its stamp ``(_when, _seq)`` is always its own entry's key, the two
attributes the queue reads off a timer.  ``tests/sim/test_stamps.py`` holds
the stamped :class:`repro.sim.Timer` to this one: the same fired
``(when, seq, label)`` stream and the same queue state after every step.
"""

from typing import Optional

from repro.errors import SchedulingError


class EagerTimer:
    """A drop-in for ``sim.timer(callback, label, *args)``."""

    __slots__ = ("_sim", "_callback", "_label", "_args", "_arm", "_when", "_seq")

    def __init__(self, sim, callback, label: str, *args) -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._args = args
        self._arm: Optional[list] = None

    @property
    def armed(self) -> bool:
        return self._arm is not None

    def start(self, delay: int) -> None:
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        queue = self._sim.queue
        if self._arm is not None:
            queue.kill(self._arm)
        arm = self._arm = [self]
        self._when = self._sim.now + delay
        self._seq = queue.push(self._when, arm, _fire, (arm,), self._label)

    def stop(self) -> None:
        if self._arm is not None:
            self._sim.queue.kill(self._arm)
            self._arm = None


def _fire(arm: list) -> None:
    timer = arm[0]
    timer._arm = None
    timer._callback(*timer._args)

"""A block observer for the tests that read the states a run hands over."""

from types import SimpleNamespace

import numpy as np

from pdhglab import TableAccumulator, run
from pdhglab.engine import max_recorded_rows

STATES = ("k", "x", "y", "x_next", "y_next")


class RecordingObserver:
    """A block observer that copies every block it is handed, since a
    hand-over is valid only during the call, and then passes the block on
    to ``then``, if given."""

    def __init__(self, then=None):
        self.blocks = []
        self.then = then

    def __call__(self, *block):
        self.blocks.append(tuple(np.array(a) for a in block))
        if self.then is not None:
            self.then(*block)

    def states(self):
        """The recorded ``k``, ``x``, ``y``, ``x_next`` and ``y_next`` of
        every block, each one array by row."""
        return SimpleNamespace(
            **{name: np.concatenate(column) for name, column in zip(STATES, zip(*self.blocks))}
        )


def recorded_run(problem, schedule, init, saddle=None, **run_args):
    """:func:`run` of one schedule through a :class:`RecordingObserver`
    that feeds a :class:`TableAccumulator` against ``saddle``, if given.
    Returns the trajectory, its recorded states, and its table (None
    without a saddle)."""
    table = None
    if saddle is not None:
        rows = max_recorded_rows(run_args["budget"], run_args.get("record_every", 1))
        table = TableAccumulator(schedule, problem, saddle, init, rows)
    recorder = RecordingObserver(table)
    traj = run(problem, schedule, init, observer=recorder, **run_args)
    return traj, recorder.states(), None if table is None else table.table(traj)

"""Module-level task functions for the distributed-backend tests.

A TASK names its function as ``module:qualname``, so anything a remote
worker executes must live at module scope in an importable module.  The killers in here
are the fault injectors for the fleet's own failure model: one takes out
its slot process, the other its whole worker server.
"""

import os
import signal
import time


def ok_task(task):
    return {"index": task.index, "seed": task.seed, "passed": True}


def params_repr_task(task):
    """The cell's params as it sees them: types and key order included."""
    return {"params": repr(task.params), "passed": True}


#: keep in sync with tests/sweep/_durable_helper.py's kill window.
DURABLE_SLOW_SLEEP_S = 0.35


def durable_grid_task(task):
    """The durability campaign's cell: the first two are instant (a
    journal exists quickly), the rest sleep real time (a wide window to
    kill the parent mid-campaign).  Lives here — not in the helper's
    ``__main__`` — so tcp workers can import it by name."""
    if task.index >= 2:
        time.sleep(DURABLE_SLOW_SLEEP_S)
    return {"index": task.index, "seed": task.seed, "passed": True}


def sleepy_task(task):
    time.sleep(task.param("sleep_s", 0.3))
    return {"index": task.index, "passed": True}


def slot_killer_task(task):
    """Hard-kill the executing slot process: no exception, no cleanup.

    Worker-side this costs that one slot: whoever owns it reports the
    casualty upstream (ERROR frame) and forks the slot again.
    """
    os._exit(13)


def server_killer_task(task):
    """SIGKILL the worker *server* that owns this slot.

    Only meaningful when the worker runs as its own process (``repro
    worker`` subprocess): the server forks its slots, so the slot's parent
    pid is the server.  The parent sees the TCP connection drop mid-task —
    the socket-death arm of the failure model.
    """
    os.kill(os.getppid(), signal.SIGKILL)
    time.sleep(30)  # never reached; keeps the slot busy until the kill lands
    return {"unreachable": True}


def sigint_self_task(task):
    """SIGINT the executing process, as a terminal Ctrl-C reaches every
    process in the group: a slot ignores it, so the cell lands OK."""
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.05)  # the handler, if any, runs here
    return {"index": task.index, "passed": True}

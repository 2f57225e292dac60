"""Sweep task functions the tracer test runs only in a forked slot or only
in a ``repro worker``'s slot, never in the process that runs the sweep."""


def in_parallel_slot(task):
    return {"index": task.index, "passed": True}


def in_worker_slot(task):
    return {"index": task.index, "passed": True}

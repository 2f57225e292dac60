"""Segment input without the established-state fast path.

``TcpConnection.handle_segment`` short-circuits the steady state (an
ESTABLISHED connection receiving a plain ACK, with or without data) and
defers everything else to the per-state handler table.
:func:`general_handle_segment` is the entry point as it was before that
short cut existed — RST check, then the handler of the current state, for
every segment — and :func:`general_tcp_path` patches it over the class so
whole scenarios run on it.
"""

from contextlib import contextmanager
from unittest import mock

from repro.tcp.connection import _SEGMENT_HANDLERS, TcpConnection


def general_handle_segment(conn, seg) -> None:
    """Every segment through the per-state handler."""
    conn.segments_received += 1
    if seg.is_rst:
        conn._handle_rst(seg)
        return
    handler = _SEGMENT_HANDLERS.get(conn.state)
    if handler is not None:
        handler(conn, seg)


@contextmanager
def general_tcp_path():
    """Connections inside the block take no fast path; restores on exit."""
    with mock.patch.object(TcpConnection, "handle_segment", general_handle_segment):
        yield

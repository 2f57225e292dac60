"""VirtualWire itself: the paper's primary contribution.

FSL (the Fault Specification Language), the six-table compiler, the
per-node Fault Injection and Analysis Engine, the raw-Ethernet control
plane, the programming front-end, and the :class:`Testbed` facade.
"""

"""Reference implementations that left ``src/`` when the data path became one.

``classifiers`` holds the paper's linear filter scan (and the index walk
without match programs); ``codec`` holds the object-per-layer frame codec
(``EthernetFrame``, ``RllFrame``, the header serialisers, the frame
builders and the reference trace view and digest); ``reference_layers``
holds the object-per-layer arms of the IP, UDP, TCP and RLL layers;
``eager_timer`` holds the kill-and-push timer every re-arm once was.
``classifiers`` and ``reference_layers`` offer a context manager that
patches their oracle over the production code for the duration of a
block, so whole scenarios run on it.  Nothing here is imported by
``src/``.
"""

"""Reference implementations that left ``src/`` when the data path became one.

``classifiers`` holds the paper's linear filter scan (and the index walk
without match programs); ``reference_layers`` holds the object-per-layer
arms of the IP, UDP, TCP and RLL layers.  Each module offers a context
manager that patches its oracle over the production code for the duration
of a block, so whole scenarios run on it.  Nothing here is imported by
``src/``.
"""

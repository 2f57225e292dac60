"""The classifiers ``repro.core.classify`` shipped before it kept only one.

:class:`LinearClassifier` is the paper's linear scan in file order — the
definition of a correct ``(packet type, scanned)`` answer.
:class:`IndexedClassifier` walks the production :class:`FilterIndex` chains
with the interpreted matcher, so a production-vs-linear mismatch can be
pinned on the index or on the match programs.
"""

from contextlib import contextmanager
from typing import Optional, Tuple
from unittest import mock

from repro.core import engine as engine_module
from repro.core.classify import ClassifierBase
from repro.core.tables import FilterTable


class LinearClassifier(ClassifierBase):
    """The paper-faithful reference: a linear scan in file order."""

    def classify(self, data: bytes) -> Tuple[Optional[str], int]:
        scanned = 0
        for entry in self.filters.entries:
            scanned += 1
            self.entries_examined_total += 1
            bindings = self._match(entry, data)
            if bindings is not None:
                return self._matched(entry, bindings, scanned)
        return None, scanned


class IndexedClassifier(ClassifierBase):
    """Classify via the table's compiled ``FilterIndex``, matching interpreted."""

    def __init__(self, filters: FilterTable) -> None:
        super().__init__(filters)
        self._index = filters.index

    def classify(self, data: bytes) -> Tuple[Optional[str], int]:
        index = self._index
        for position, entry in index.chain_for(data):
            self.entries_examined_total += 1
            bindings = self._match(entry, data)
            if bindings is not None:
                return self._matched(entry, bindings, position + 1)
        return None, index.size


@contextmanager
def linear_engines():
    """Engines that install a program inside the block classify with the
    linear scan: the name ``repro.core.engine`` imports is patched."""
    with mock.patch.object(engine_module, "Classifier", LinearClassifier):
        yield

"""Test-only oracle: an LRU whose bulk touch *is* its definition.

``LruPageCache.touch_many`` promises the misses and the final recency
order of one ``touch`` per page, in order.  :class:`LoopLruPageCache`
does literally that, so a cache or a whole session driven through it
is what the bulk path must reproduce at every capacity.
"""

from repro.graphdb.metrics import LruPageCache


class LoopLruPageCache(LruPageCache):
    def touch_many(self, kind, pages, last=None, first=None) -> int:
        # ``last`` / ``first`` are orders derived from ``pages``: the
        # definition needs neither.
        touch = self.touch
        return sum(not touch((kind, page)) for page in pages)

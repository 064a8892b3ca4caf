"""Test-only oracles for page charging.

``LruPageCache.touch_many`` promises the misses and the final recency
order of one ``touch`` per page, in order.  :class:`LoopLruPageCache`
does literally that, so a cache or a whole session driven through it
is what the bulk path must reproduce at every capacity.

A compiled batch pipeline does not hand its vids to ``touch_many``
on every run: a repeat run settles its calls from the traces the
first run recorded.  :class:`PerRowSession` is the reference for that:
every run of every pipeline charges each row (or run start) the
kernels produce with one ``_touch_page``, from the vids themselves.
"""

from repro.graphdb.metrics import LruPageCache
from repro.graphdb.session import GraphSession


class LoopLruPageCache(LruPageCache):
    def touch_many(self, pages, last=None, first=None) -> int:
        # ``last`` / ``first`` are orders derived from ``pages``: the
        # definition needs neither.
        touch = self.touch
        return sum(not touch(page) for page in pages)


def touch_rows(session, kind, vids, dedup):
    """One ``_touch_page`` per row of ``vids``, or per run start."""
    if kind == "v":
        size, bit = session._vertices_per_page, 0
    else:
        size, bit = session._adjacency_per_page, 1
    last = None
    for vid in vids:
        page = vid // size
        if not (dedup and page == last):
            session._touch_page(page * 2 + bit)
        last = page


class _PerRowRun:
    """A pipeline run's charges, touched row by row, nothing kept."""

    def __init__(self, session):
        self.session = session

    @property
    def metrics(self):
        return self.session.metrics

    def charge_pages(self, kind, vids, dedup):
        touch_rows(self.session, kind, vids.tolist(), dedup)

    def settled(self, chunks):
        return chunks


class PerRowSession(GraphSession):
    """A session whose batch-path runs touch page by page, every run."""

    def page_run(self, pages):
        return _PerRowRun(self)

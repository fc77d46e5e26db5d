"""Cell-keyed LRU result cache with second-hit admission.

ACT answers are constant within a grid cell at the index's boundary
level: every covering cell sits at a level at or above ``boundary_level``
(boundary cells are refined *to* that level, interior cells are coarser,
and conflict push-down never descends past it), so all leaf cells sharing
a boundary-level ancestor decode to the same reference set. Caching the
classified :class:`~repro.act.index.QueryResult` under
``(index_name, generation, parent(leaf, boundary_level))`` therefore
serves repeat traffic on hot locations with one dict lookup and zero
trie descents — exact-mode refinement still runs per point on top of
the cached cell result, so caching never weakens exactness.

A cell enters the cache on its *second* miss, not its first: the CDN
"cache on second hit" rule, with a Bloom-filter doorkeeper keeping
one-hit objects out (Maggs & Sitaraman, "Algorithmic Nuggets in Content
Delivery", SIGCOMM CCR 2015). The first ``put`` of a key sets two bits
of one 32-bit doorkeeper word, both picked by the key's hash, counts one
``rejected`` and returns; a ``put`` that finds both bits set caches the
key. The doorkeeper forgets everything after ``capacity`` rejections, so
a cell is admitted when it recurs within about one cache-capacity of
first misses — under LRU a cell that recurs later than that is evicted
before its reuse anyway. Cells that are missed once (a scan, a cold
working set larger than the cache) therefore never enter, evict or
occupy a slot; a hot cell pays one extra miss.

The doorkeeper is one word a slot, 4 bytes (256 KiB at the default
65 536), and holds at most ``capacity`` keys, one a word on average, so
at most 1/16 of its bits are set: a key not seen in the window is
admitted by mistake with probability 0.7 % at the window's end and about
0.3 % over a window (a blocked Bloom filter: one word read per key).

The *generation* component is what makes zero-downtime reloads safe: a
request pinned to the old index generation that completes after the
swap writes its result under the old generation's keyspace, where
new-generation queries can never read it — there is no window in which
a stale answer can be served, no matter how requests and the reload
interleave. :meth:`CellResultCache.invalidate_index` then reclaims the
dead generations' memory; the doorkeeper's bits for them age out within
a window.

The cache takes no lock. Each ``OrderedDict`` call it makes is atomic
under the GIL, its compound steps tolerate every interleaving of those
calls, and its counters and doorkeeper bits are approximate under
contention — the contract is spelled out on :class:`CellResultCache`.
The values it holds are the shared per-entry results of
:meth:`~repro.act.core.ACTCore.decode_entry`, so an entry costs a dict
slot and its key, not a private result object.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..act.index import QueryResult

#: Cache key: (index name, index generation, boundary-level cell id).
CacheKey = Tuple[str, int, int]

#: Cell-cache entries a service holds unless configured otherwise
#: (``ServeConfig.cache_capacity``, ``repro-act serve --cache-capacity``).
DEFAULT_CAPACITY = 65536

#: The doorkeeper's per-key masks: entry ``j`` sets bits ``j % 32`` and
#: ``j // 32`` of a 32-bit word (one bit when the two coincide). A table
#: lookup costs a put less than shifting out the two bits.
_PAIR_MASKS = tuple(1 << (j & 31) | 1 << (j >> 5) for j in range(1024))


class CellResultCache:
    """LRU mapping boundary-level cells to query results, without a lock.

    ``capacity <= 0`` disables the cache (every ``get`` misses, ``put``
    is a no-op, no doorkeeper is allocated) so callers can keep one code
    path. Otherwise ``put`` caches a key only on its second call within
    the doorkeeper's window (see the module docstring); a key already
    cached is rewritten and moved to the recent end.

    **Thread safety.** Any number of threads may call any method at any
    time; none of them takes a lock. That rests on three things:

    * every ``OrderedDict`` method used here (``get``, ``__setitem__``,
      ``__contains__``, ``move_to_end``, ``popitem``, ``pop``,
      ``clear``, ``len``, ``list(od)``) is one C call that runs no
      Python code for ``(str, int, int)`` keys — hashing and comparing
      ``str`` and ``int`` never re-enter the interpreter — so each is
      atomic under the GIL and the map is never seen half-updated;
    * the compound steps tolerate every interleaving of those calls.
      ``move_to_end`` or ``popitem`` on a key (or a map) another thread
      just emptied is a caught ``KeyError``; a ``get`` that loses that
      race still returns the value it read, which is the right answer
      for its key (results are immutable, and a key maps to one answer
      for as long as its generation lives). Every write is followed by
      its own capacity check, which evicts at most one entry: between
      the two the map may hold one entry per concurrent writer above
      ``capacity``, and it is back within ``capacity`` once the writers
      are done. Whole-map walks (``invalidate_index``,
      ``entries_by_generation``) filter a ``list(...)`` snapshot and
      delete with ``pop``; an entry written under a stale generation
      while a sweep runs survives until the next sweep or its eviction
      — memory hygiene, never a wrong answer, since new requests do not
      read old generations' keys;
    * the doorkeeper decides only *whether* a result is stored, never
      which. Setting a key's bits is a read-modify-write of one word,
      and a window's close swaps in fresh words: bits lost to a racing
      writer, or written into words just swapped out, make their key's
      next ``put`` a rejection again — one extra miss, never a wrong
      answer.

    ``hits``, ``misses``, ``evictions``, ``invalidations`` and
    ``rejected`` are plain ``+=``: exact with one client; when threads
    collide an increment may be lost, never added (the convention
    ``ACTCore.descent_*`` uses).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, QueryResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejected = 0
        self._forget()

    def _forget(self) -> array:
        """Open a new doorkeeper window: ``capacity`` clear 32-bit words
        (none when disabled), ``capacity`` more rejections until the
        next window."""
        self._words = words = array("I", [0]) * max(self.capacity, 0)
        self._window_end = self.rejected + self.capacity
        return words

    def get(self, key: CacheKey) -> Optional[QueryResult]:
        if self.capacity <= 0:
            return None
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        try:
            self._entries.move_to_end(key)
        except KeyError:
            pass  # evicted or swept since the read; the answer stands
        self.hits += 1
        return result

    def put(self, key: CacheKey, result: QueryResult) -> None:
        if self.capacity <= 0:
            return
        entries = self._entries
        known = key in entries
        if not known:
            # the doorkeeper: a key whose two bits are not both set is
            # remembered, not cached
            h = hash(key)
            i = h % self.capacity
            mask = _PAIR_MASKS[h >> 40 & 1023]
            words = self._words
            word = words[i]
            if word & mask != mask:
                if self.rejected >= self._window_end:
                    words, word = self._forget(), 0
                words[i] = word | mask
                self.rejected += 1
                return
        entries[key] = result  # a new key lands at the recent end
        if known:
            # a rewrite keeps its place in the order: refresh it
            try:
                entries.move_to_end(key)
            except KeyError:
                pass
        # every write is followed by its own check, so whatever the
        # interleaving the map is back within capacity at quiescence
        if len(entries) > self.capacity:
            try:
                entries.popitem(last=False)
            except KeyError:
                return  # cleared under us
            self.evictions += 1

    def invalidate_index(self, index_name: str,
                         keep_generation: Optional[int] = None) -> int:
        """Drop entries for one index (after a reload or unregister).

        With ``keep_generation`` set, entries of exactly that generation
        survive — a reload invalidates every *older* generation while
        keeping whatever the new one has already warmed. Returns the
        number of entries removed. The doorkeeper is left alone: the
        dropped keys' bits age out within a window.
        """
        entries = self._entries
        removed = 0
        for key in list(entries):
            if (key[0] == index_name
                    and (keep_generation is None
                         or key[1] != keep_generation)
                    # None: another thread dropped it first
                    and entries.pop(key, None) is not None):
                removed += 1
        self.invalidations += removed
        return removed

    def entries_by_generation(self) -> Dict[Tuple[str, int], int]:
        """Live entry counts keyed by ``(index name, generation)``.

        The observability layer exports these as per-index,
        per-generation gauges, which is how an operator watches a
        reload's cache warm-up land (old generation's count drains to
        zero, new one grows).
        """
        counts: Dict[Tuple[str, int], int] = {}
        for name, generation, _cell in list(self._entries):
            key = (name, generation)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop every entry and open a new doorkeeper window, so traffic
        replayed after a clear meets the state a new cache would."""
        self._entries.clear()
        self._forget()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
        }

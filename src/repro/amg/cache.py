"""Hierarchy-reuse cache and the (matrix, config) fingerprints.

AMG setup is the expensive half of the algorithm (Fig. 4: strength,
coarsening, interpolation, and the Galerkin product dominate until the
cycle count grows).  Workloads that solve against the *same* matrix many
times — time stepping with a frozen operator, multiple right-hand sides
arriving one at a time, parameter sweeps over ``b`` — should pay for setup
once.  :class:`HierarchyCache` memoizes built hierarchies in **two tiers**:

* **Exact tier** — keyed by :func:`fingerprint`, which combines a
  **matrix fingerprint** (shape plus a SHA-256 over the raw
  ``indptr`` / ``indices`` / ``data`` buffers, so any structural or
  numerical change misses) with a digest of the
  :class:`~repro.config.AMGConfig` (a frozen dataclass with a
  deterministic ``repr`` — different flag sets build different
  hierarchies).  An exact hit returns the cached hierarchy as-is.
* **Pattern tier** — keyed by :func:`pattern_fingerprint`, which hashes
  the *sparsity structure only* (shape + ``indptr`` + ``indices``, no
  values) plus the config digest.  When the exact tier misses but a cached
  hierarchy was built for a matrix with the **same pattern** (a time step,
  a Newton iteration), the cache runs the numeric-only
  :meth:`Hierarchy.refresh <repro.amg.setup.Hierarchy.refresh>` resetup
  path (§3.1.1 pattern reuse) instead of a cold build and inserts the
  resulting **new** hierarchy under the new exact fingerprint.  Refresh
  never mutates its input, so the seed entry stays cached — still valid
  for, and exact-hittable by, the operator it was built with.
  Pattern-tier hits are counted in ``.pattern_hits`` (see
  :meth:`HierarchyCache.stats`).

The exact fingerprint is also the *coalescing key* of the solve service
(:mod:`repro.serve`): requests whose operators share a fingerprint can be
batched through one hierarchy.  :func:`repro.api.fingerprint` is the
public spelling (it additionally coerces scipy/dense inputs).

Entries are evicted LRU: the cache is bounded by ``max_entries``,
evictions are counted in ``.evictions`` and logged on the ``repro.amg.cache`` logger so long-running
sweeps can see hierarchies being dropped.  All bookkeeping (entry map,
pattern index, hit/miss/eviction counters) is guarded by one lock, so a
cache shared by the service worker and submitting threads stays consistent
and the eviction counter stays exact.  Fingerprinting is deliberately
**not** counted against the performance model: it is an artifact of the
simulation (a real code would compare pointers or version counters), and
keeping it silent means a cache hit shows *zero* setup-phase kernel
records — which is exactly how the tests assert reuse.
"""

from __future__ import annotations

import hashlib
import logging
import threading

from collections import OrderedDict

logger = logging.getLogger("repro.amg.cache")

from ..config import AMGConfig
from ..sparse.csr import CSRMatrix
from .setup import Hierarchy, build_hierarchy

__all__ = ["matrix_fingerprint", "pattern_fingerprint", "fingerprint",
           "HierarchyCache", "DEFAULT_CACHE"]


def matrix_fingerprint(A: CSRMatrix) -> str:
    """SHA-256 fingerprint of a CSR matrix's structure **and values**.

    Keys the cache's exact tier: two matrices share it iff their
    ``indptr``/``indices``/``data`` buffers are bit-identical.  See
    :func:`pattern_fingerprint` for the values-blind companion.
    """
    h = hashlib.sha256()
    h.update(f"{A.nrows}x{A.ncols}:{A.nnz};".encode())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    h.update(A.data.tobytes())
    return h.hexdigest()


def pattern_fingerprint(A: CSRMatrix) -> str:
    """SHA-256 fingerprint of a CSR matrix's sparsity structure only.

    Hashes shape + ``indptr`` + ``indices`` and deliberately ignores
    ``data``: two operators from successive time steps (or Newton
    iterations) with updated coefficients but an unchanged stencil share
    this fingerprint while their :func:`matrix_fingerprint` differs.  The
    hierarchy cache uses it as the second-tier key that routes same-pattern
    updates through the numeric-only :meth:`Hierarchy.refresh
    <repro.amg.setup.Hierarchy.refresh>` path instead of a cold setup.
    """
    h = hashlib.sha256()
    h.update(f"p:{A.nrows}x{A.ncols}:{A.nnz};".encode())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    return h.hexdigest()


def _config_digest(config: AMGConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def fingerprint(A: CSRMatrix, config: AMGConfig | None = None) -> str:
    """Stable identity of a (matrix, config) pair.

    This is the *one* keying function in the library: the hierarchy cache
    keys entries with it and the solve service coalesces requests on it.
    With ``config=None`` it degenerates to the matrix fingerprint alone.
    ``AMGConfig`` is a frozen dataclass whose ``repr`` lists every field
    (including the optimization flags), so the digest changes whenever any
    hierarchy-shaping parameter does.
    """
    mfp = matrix_fingerprint(A)
    if config is None:
        return mfp
    return f"{mfp}:{_config_digest(config)}"


class HierarchyCache:
    """Bounded LRU cache of built AMG hierarchies, keyed by (matrix, config).

    ``max_entries`` bounds the number of retained hierarchies.  Evictions
    bump ``.evictions`` and emit a log record on ``repro.amg.cache``.

    Two lookup tiers (see the module docstring): the exact tier keys on
    :func:`fingerprint` and returns the hierarchy untouched; the pattern
    tier keys on :func:`pattern_fingerprint` + config digest and, on a hit,
    derives a **new** hierarchy from the cached one's captured
    :class:`~repro.amg.resetup.SetupPlan` (numeric-only refresh) and
    inserts it under the new exact fingerprint.  ``get``/``put`` speak the
    exact tier only; ``get_or_build`` orchestrates both.

    The cache is safe for concurrent use: a single internal lock guards the
    entry map, the pattern index, and every counter, so
    ``get``/``put``/``get_or_build`` may be called from multiple threads
    (the solve service shares one cache between its worker and
    submitters).  ``get_or_build`` builds and refreshes *outside* the
    lock — two threads missing on the same key may both build, but the
    second ``put`` just replaces the first entry without distorting the
    eviction count.  Cached hierarchies are frozen once handed out:
    :meth:`Hierarchy.refresh <repro.amg.setup.Hierarchy.refresh>` returns
    a fresh object and never mutates the entry it read, so references
    returned by earlier lookups — including solves in flight on other
    threads — are never rewired to different numerics.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: exact key -> (hierarchy, pattern key)
        self._entries: OrderedDict[str, tuple[Hierarchy, str]] = OrderedDict()
        #: pattern key -> exact key of the most recent same-pattern entry
        self._patterns: dict[str, str] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pattern_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key(self, A: CSRMatrix, config: AMGConfig) -> str:
        """Exact-tier cache key for (A, config) — the shared :func:`fingerprint`."""
        return fingerprint(A, config)

    def pattern_key(self, A: CSRMatrix, config: AMGConfig) -> str:
        """Pattern-tier key: :func:`pattern_fingerprint` + config digest."""
        return f"{pattern_fingerprint(A)}:{_config_digest(config)}"

    def stats(self) -> dict[str, int]:
        """Consistent snapshot of the counters (one lock acquisition).

        ``hits``/``misses`` count the exact tier; ``pattern_hits`` counts
        same-pattern refreshes served by the second tier.  Under
        ``reuse="auto"`` every pattern hit is also an exact miss; the
        ``reuse="pattern"`` policy skips the exact tier entirely, so its
        lookups touch ``pattern_hits`` only.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pattern_hits": self.pattern_hits,
            }

    def has_pattern(self, pattern_key: str) -> bool:
        """Peek: is a refreshable entry cached under *pattern_key*?

        *pattern_key* is a :meth:`pattern_key` string.  Touches no counters
        and moves no LRU state — this is the warmness probe the sharded
        solve service uses to break routing ties toward ranks whose cache
        already holds a same-pattern hierarchy.
        """
        with self._lock:
            exact = self._patterns.get(pattern_key)
            return exact is not None and exact in self._entries

    def get(self, A: CSRMatrix, config: AMGConfig) -> Hierarchy | None:
        """Exact-tier lookup: the cached hierarchy for (A, config), or None."""
        key = self.key(A, config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, A: CSRMatrix, config: AMGConfig, hierarchy: Hierarchy) -> None:
        self.seed(self.key(A, config), self.pattern_key(A, config), hierarchy)

    def seed(self, exact_key: str, pattern_key: str,
             hierarchy: Hierarchy) -> None:
        """Insert a pre-built hierarchy under explicit keys.

        The state-transfer spelling of :meth:`put`: the sharded service's
        cache re-warm copies hot entries from a surviving replica into a
        rejoining rank's cache without re-deriving the keys from a matrix
        it does not hold (the wire cost is charged separately through the
        network model).  Cached hierarchies are frozen, so sharing one
        object between two ranks' caches is safe.
        """
        with self._lock:
            self._entries[exact_key] = (hierarchy, pattern_key)
            self._entries.move_to_end(exact_key)
            self._patterns[pattern_key] = exact_key
            while len(self._entries) > self.max_entries:
                evicted_key, (_, evicted_pkey) = self._entries.popitem(last=False)
                if self._patterns.get(evicted_pkey) == evicted_key:
                    del self._patterns[evicted_pkey]
                self.evictions += 1
                logger.info("evicted hierarchy %s (cache bound %d reached)",
                            evicted_key[:12], self.max_entries)

    def peek_pattern(self, pattern_key: str) -> tuple[str, Hierarchy] | None:
        """The newest ``(exact key, hierarchy)`` entry under *pattern_key*.

        Touches no counters and moves no LRU state — the donor-side probe
        of the cache re-warm: a rejoining rank copies the hot entry a
        surviving replica holds, keyed exactly as the survivor keys it.
        """
        with self._lock:
            exact = self._patterns.get(pattern_key)
            if exact is None:
                return None
            entry = self._entries.get(exact)
            if entry is None:
                return None
            return exact, entry[0]

    def drop_all(self) -> None:
        """Forget every entry but keep the hit/miss/eviction counters.

        Models state loss (a crashed service rank loses its in-memory
        hierarchies) without rewriting history: unlike :meth:`clear`, the
        counters keep accumulating across the crash, so a rank's metrics
        snapshot still reflects everything it did before dying.
        """
        with self._lock:
            self._entries.clear()
            self._patterns.clear()

    def _pattern_lookup(self, A: CSRMatrix, config: AMGConfig) -> Hierarchy | None:
        """Find a refreshable same-pattern entry, or None on a pattern miss.

        The entry *stays in the cache* under its own exact key:
        :meth:`Hierarchy.refresh <repro.amg.setup.Hierarchy.refresh>` never
        mutates the hierarchy it reads, so the cached object remains valid
        for the operator it was built with and keeps serving exact hits
        (and should a refresh fail, nothing is lost).  The caller ``put``\\ s
        the refreshed hierarchy under the new fingerprint, which also
        repoints the pattern index at the most recent same-pattern entry.
        """
        pkey = self.pattern_key(A, config)
        with self._lock:
            exact = self._patterns.get(pkey)
            if exact is None:
                return None
            entry = self._entries.get(exact)
            if entry is None:  # stale index entry
                del self._patterns[pkey]
                return None
            hierarchy, _ = entry
            if hierarchy.plan is None:
                # Built without plan capture: not refreshable.
                return None
            self._entries.move_to_end(exact)
            self.pattern_hits += 1
            return hierarchy

    def get_or_build(self, A: CSRMatrix, config: AMGConfig, *,
                     reuse: str = "auto") -> Hierarchy:
        """Cached hierarchy for (A, config); refreshes or builds on a miss.

        ``reuse`` selects the lookup policy:

        * ``"auto"`` (default) — exact tier, then pattern tier (numeric
          refresh), then cold build.
        * ``"pattern"`` — skip the exact tier and force the pattern tier:
          a same-pattern entry seeds a refresh even if an exact entry
          exists (useful for benchmarking the resetup path); cold build
          otherwise.
        * ``"never"`` — bypass both lookup tiers and build from scratch.
          The result is still ``put`` so later requests can reuse it.
        """
        if reuse not in ("auto", "pattern", "never"):
            raise ValueError(f"reuse must be auto|pattern|never, got {reuse!r}")
        if reuse != "never":
            if reuse == "auto":
                h = self.get(A, config)
                if h is not None:
                    return h
            seed = self._pattern_lookup(A, config)
            if seed is not None:
                # Refreshed outside the lock, like builds: the numeric
                # resetup is the long pole and must not serialize gets.
                # refresh() returns a new hierarchy (seed stays frozen in
                # the cache), so a failure here loses no cached state.
                h = seed.refresh(A)
                self.put(A, config, h)
                return h
        # Built outside the lock: hierarchy construction is the long
        # pole and must not serialize unrelated gets.
        h = build_hierarchy(A, config, capture_plan=True)
        self.put(A, config, h)
        return h

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._patterns.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.pattern_hits = 0


#: Process-wide cache used by :mod:`repro.api` unless a private one is given.
DEFAULT_CACHE = HierarchyCache()

"""EPC (Enclave Page Cache) manager: limited memory, LRU paging.

SGX enclaves share a small protected memory region; when an enclave's working
set exceeds it, pages are encrypted and evicted to untrusted memory (EWB) and
reloaded on demand (ELD).  The paper's Section III-B names this paging both a
performance cliff and a side-channel vector; the manager therefore exposes an
event log that :mod:`repro.sgx.sidechannel` treats as adversary-observable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro import faults
from repro.errors import EnclaveMemoryError
from repro.obs import metrics
from repro.sgx.clock import SimClock
from repro.sgx.costmodel import PAGE_SIZE, SgxCostModel


@dataclass
class PagingStats:
    """Counters of architecturally visible paging events."""

    evictions: int = 0  # EWB: page encrypted + written out
    loads: int = 0  # ELD: page decrypted + brought back
    faults: int = 0  # page faults observed by the (untrusted) OS

    def reset(self) -> None:
        self.evictions = 0
        self.loads = 0
        self.faults = 0


@dataclass
class _Allocation:
    pages: int
    resident_pages: set = field(default_factory=set)


class EpcManager:
    """Tracks page residency for every allocation of one enclave.

    Allocations are identified by opaque integer handles.  Touching an
    allocation makes its pages resident, evicting the least recently used
    pages of other allocations when the EPC is full.

    Args:
        cost_model: provides the EPC size and per-fault costs.
        clock: charged for every paging event.
    """

    def __init__(self, cost_model: SgxCostModel, clock: SimClock) -> None:
        self.cost_model = cost_model
        self.clock = clock
        self.stats = PagingStats()
        self._capacity_pages = cost_model.epc_bytes // PAGE_SIZE
        self._allocations: dict[int, _Allocation] = {}
        # LRU over (handle, page_index) pairs; most-recently-used at the end.
        self._resident: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._next_handle = 1
        # Stats totals already mirrored into the metrics registry; deltas
        # are published at the end of each public entry point, so nested
        # paths (evict_all inside touch) are counted exactly once.
        self._published = (0, 0, 0)

    def _publish_paging(self) -> None:
        current = (self.stats.evictions, self.stats.loads, self.stats.faults)
        if current == self._published:
            return  # hot path: nothing paged since the last publish
        if not metrics.registry().enabled:
            return
        previous = self._published
        if any(now < before for now, before in zip(current, previous)):
            previous = (0, 0, 0)  # stats were reset; re-baseline
        names = (
            "repro_sgx_epc_evictions_total",
            "repro_sgx_epc_loads_total",
            "repro_sgx_epc_faults_total",
        )
        for name, now, before in zip(names, current, previous):
            if now > before:
                metrics.family(name).inc(now - before)
        self._published = current

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * PAGE_SIZE

    @property
    def allocated_bytes(self) -> int:
        return sum(a.pages for a in self._allocations.values()) * PAGE_SIZE

    def allocate(self, byte_count: int) -> int:
        """Reserve an allocation and return its handle (pages not yet resident)."""
        if byte_count < 0:
            raise EnclaveMemoryError(f"cannot allocate {byte_count} bytes")
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = _Allocation(pages=self.cost_model.pages_for(byte_count))
        return handle

    def free(self, handle: int) -> None:
        allocation = self._allocations.pop(handle, None)
        if allocation is None:
            return
        for page in allocation.resident_pages:
            self._resident.pop((handle, page), None)

    def evict_all(self) -> int:
        """Evict every resident page (the OS reclaiming the EPC under
        memory pressure); returns the page count.  Subsequent touches fault
        everything back in -- results are unchanged, paging costs accrue."""
        evicted = len(self._resident)
        for handle, page in list(self._resident):
            allocation = self._allocations.get(handle)
            if allocation is not None:
                allocation.resident_pages.discard(page)
        self._resident.clear()
        self.stats.evictions += evicted
        if evicted:
            self.clock.charge(self.cost_model.paging_overhead_s(evicted), "epc_paging")
        self._publish_paging()
        return evicted

    def touch(self, handle: int) -> None:
        """Access every page of an allocation (full read or write pass).

        Non-resident pages fault in; LRU pages are evicted to make room.
        """
        allocation = self._allocations.get(handle)
        if allocation is None:
            raise EnclaveMemoryError(f"unknown allocation handle {handle}")
        if faults.is_armed():
            event = faults.poll(
                "sgx.epc.touch", pages=allocation.pages, resident=len(self._resident)
            )
            if event is not None:
                if event.rule.error is not None:
                    raise event.rule.error(
                        f"injected EPC fault (hit {event.hit}, fire {event.fire})"
                    )
                self.evict_all()
        if allocation.pages > self._capacity_pages:
            # A single object larger than the EPC thrashes: every pass evicts
            # and reloads the whole object.
            thrash = allocation.pages
            self.stats.faults += thrash
            self.stats.loads += thrash
            self.stats.evictions += thrash
            self.clock.charge(
                self.cost_model.paging_overhead_s(2 * thrash), "epc_paging"
            )
            self._publish_paging()
            return
        for page in range(allocation.pages):
            key = (handle, page)
            if key in self._resident:
                self._resident.move_to_end(key)
                continue
            self._fault_in(key, allocation)
        self._publish_paging()

    def _fault_in(self, key: tuple[int, int], allocation: _Allocation) -> None:
        while len(self._resident) >= self._capacity_pages:
            victim, _ = self._resident.popitem(last=False)
            victim_alloc = self._allocations.get(victim[0])
            if victim_alloc is not None:
                victim_alloc.resident_pages.discard(victim[1])
            self.stats.evictions += 1
            self.clock.charge(self.cost_model.paging_overhead_s(1), "epc_paging")
        self._resident[key] = None
        allocation.resident_pages.add(key[1])
        self.stats.faults += 1
        self.stats.loads += 1
        self.clock.charge(self.cost_model.paging_overhead_s(1), "epc_paging")

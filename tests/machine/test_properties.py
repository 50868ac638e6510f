"""Property-based tests (hypothesis) for machine-layer invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, PageEntry, Permissions
from repro.machine.address_space import AddressSpace
from repro.machine.faults import OutOfMemoryError, PageFault
from repro.machine.memory import PAGE_SIZE, PhysicalMemory, page_align_up
from repro.machine.mpk import (
    MPK_NUM_KEYS,
    pkru_for_keys,
    pkru_readable,
    pkru_writable,
)

keys = st.integers(min_value=0, max_value=MPK_NUM_KEYS - 1)


@given(writable=st.sets(keys), readable=st.sets(keys))
def test_pkru_for_keys_is_exactly_what_was_asked(writable, readable):
    """pkru_for_keys grants precisely the requested rights.

    Keys in ``writable`` win over ``readable`` (writable implies
    readable); everything else is fully denied.
    """
    pkru = pkru_for_keys(writable=writable, readable=readable)
    for key in range(MPK_NUM_KEYS):
        if key in writable:
            assert pkru_writable(pkru, key)
            assert pkru_readable(pkru, key)
        elif key in readable:
            assert pkru_readable(pkru, key)
            assert not pkru_writable(pkru, key)
        else:
            assert not pkru_readable(pkru, key)
            assert not pkru_writable(pkru, key)


@given(pkru=st.integers(min_value=0, max_value=2**32 - 1), key=keys)
def test_writable_implies_readable_for_any_pkru(pkru, key):
    if pkru_writable(pkru, key):
        assert pkru_readable(pkru, key)


@given(size=st.integers(min_value=1, max_value=5 * PAGE_SIZE))
def test_page_align_up_properties(size):
    aligned = page_align_up(size)
    assert aligned >= size
    assert aligned % PAGE_SIZE == 0
    assert aligned - size < PAGE_SIZE


@settings(max_examples=30, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=3 * PAGE_SIZE - 1),
    payload=st.binary(min_size=1, max_size=PAGE_SIZE),
)
def test_store_load_roundtrip_any_offset(offset, payload):
    """Whatever is stored at any (possibly page-straddling) offset is
    loaded back verbatim, and neighbouring bytes are untouched."""
    machine = Machine()
    space = machine.new_address_space("main")
    vaddr = space.map_new(4 * PAGE_SIZE)
    machine.boot_context(space)
    machine.store(vaddr + offset, payload)
    assert machine.load(vaddr + offset, len(payload)) == payload
    if offset > 0:
        assert machine.load(vaddr + offset - 1, 1) == b"\x00"
    end = offset + len(payload)
    assert machine.load(vaddr + end, 1) == b"\x00"


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=4 * PAGE_SIZE), max_size=8))
def test_mappings_never_overlap(sizes):
    """Distinct map_new calls return disjoint virtual ranges."""
    phys = PhysicalMemory(256 * PAGE_SIZE)
    machine = Machine()
    space = machine.new_address_space("main")
    ranges = []
    for size in sizes:
        vaddr = space.map_new(size, perms=Permissions.RW)
        ranges.append((vaddr, page_align_up(size)))
    ranges.sort()
    for (a_start, a_size), (b_start, _) in zip(ranges, ranges[1:]):
        assert a_start + a_size <= b_start
    assert phys.frames_allocated == 0  # machine has its own phys


class PageTableModel:
    """A page table as one dict entry per page over a per-frame
    allocator: the definition :class:`AddressSpace` must match.

    Frames are recycled most recently freed first, then taken fresh;
    a request that does not fit takes none.  Every change walks its
    range in page order, so ``protect`` and ``unmap`` keep what they
    did to the pages before a hole and fault at the hole, while a
    mapping that overlaps checks every page first and maps nothing.
    """

    def __init__(self, name: str, base: int, limit: int, num_frames: int) -> None:
        self.name = name
        self.pages: dict[int, PageEntry] = {}
        self.next_va = base
        self.limit = limit
        self.free: list[int] = []
        self.next_frame = 0
        self.num_frames = num_frames

    @property
    def frames_allocated(self) -> int:
        return self.next_frame - len(self.free)

    def alloc_frames(self, count: int) -> list[int]:
        if count > len(self.free) + self.num_frames - self.next_frame:
            raise OutOfMemoryError("physical memory exhausted")
        frames = []
        for _ in range(count):
            if self.free:
                frames.append(self.free.pop())
            else:
                frames.append(self.next_frame)
                self.next_frame += 1
        return frames

    def map_new(self, size, perms, pkey, vaddr=None) -> int:
        size = page_align_up(size)
        if vaddr is None:
            if size <= 0:
                raise ValueError("reservation size must be positive")
            if self.next_va + size > self.limit:
                raise OutOfMemoryError(
                    f"virtual address space exhausted in {self.name}"
                )
            vaddr = self.next_va
            self.next_va += size
        elif vaddr % PAGE_SIZE:
            raise ValueError("fixed mapping address must be page aligned")
        self._check_unmapped(vaddr // PAGE_SIZE, size // PAGE_SIZE)
        self.map_frames(vaddr, self.alloc_frames(size // PAGE_SIZE), perms, pkey)
        return vaddr

    def _check_unmapped(self, vpn: int, npages: int) -> None:
        for page in range(vpn, vpn + npages):
            if page in self.pages:
                raise ValueError(
                    f"{self.name}: page {page * PAGE_SIZE:#x} already mapped"
                )

    def map_frames(self, vaddr, frames, perms, pkey) -> None:
        vpn = vaddr // PAGE_SIZE
        self._check_unmapped(vpn, len(frames))
        for index, frame in enumerate(frames):
            self.pages[vpn + index] = PageEntry(frame, perms, pkey)

    def _range(self, vaddr: int, size: int) -> range:
        vpn = vaddr // PAGE_SIZE
        return range(vpn, vpn + page_align_up(size) // PAGE_SIZE)

    def protect(self, vaddr, size, perms=None, pkey=None) -> None:
        for page in self._range(vaddr, size):
            entry = self.pages.get(page)
            if entry is None:
                raise PageFault(page * PAGE_SIZE, "protect", "not mapped")
            self.pages[page] = PageEntry(
                entry.frame,
                entry.perms if perms is None else perms,
                entry.pkey if pkey is None else pkey,
            )

    def unmap(self, vaddr, size, free_frames=True) -> None:
        for page in self._range(vaddr, size):
            entry = self.pages.pop(page, None)
            if entry is None:
                raise PageFault(page * PAGE_SIZE, "unmap", "not mapped")
            if free_frames:
                self.free.append(entry.frame)

    def frames_of(self, vaddr, size) -> list[int]:
        frames = []
        for page in self._range(vaddr, size):
            if page not in self.pages:
                raise PageFault(page * PAGE_SIZE, "read", "not mapped")
            frames.append(self.pages[page].frame)
        return frames

    def entry(self, vaddr: int) -> PageEntry:
        entry = self.pages.get(vaddr // PAGE_SIZE)
        if entry is None:
            raise PageFault(vaddr, "access", f"not mapped in {self.name}")
        return entry

    def translate(self, vaddr: int) -> int:
        return self.entry(vaddr).frame * PAGE_SIZE + vaddr % PAGE_SIZE

    def iter_range(self, vaddr: int, size: int) -> list:
        chunks = []
        offset = vaddr
        while offset < vaddr + size:
            chunk = min(vaddr + size, (offset // PAGE_SIZE + 1) * PAGE_SIZE) - offset
            chunks.append((offset, chunk, self.entry(offset)))
            offset += chunk
        return chunks

    def is_mapped(self, vaddr: int) -> bool:
        return vaddr // PAGE_SIZE in self.pages


#: The window the page-table property maps into: fixed placements land
#: anywhere in it, fresh reservations run out of VA near its end, and
#: physical memory holds fewer frames than the window has pages.
_WINDOW = 18
_BASE = AddressSpace.DEFAULT_BASE
#: An operation names a page by a selector: one below ``_WINDOW`` is
#: that window page, a larger one picks a mapped page for ``protect``
#: and ``unmap`` and an unmapped one for a fixed mapping or an alias's
#: target, so most operations get past their first page.
_selectors = st.integers(min_value=0, max_value=3 * _WINDOW)
_sizes = st.builds(
    lambda pages, extra: pages * PAGE_SIZE + extra,
    st.integers(min_value=0, max_value=5),
    st.sampled_from((0, 1, PAGE_SIZE - 1)),
)
_perms = st.sampled_from(
    (Permissions.NONE, Permissions.READ, Permissions.RW, Permissions.RX)
)
_pkeys = st.integers(min_value=0, max_value=15)
_offsets = st.sampled_from((0, 9, PAGE_SIZE - 1))
_page_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map_new"), st.none() | _selectors, _sizes, _perms, _pkeys),
        st.tuples(
            st.just("alias"),
            _selectors,
            st.lists(_selectors, min_size=1, max_size=5),
            _perms,
            _pkeys,
        ),
        st.tuples(
            st.just("protect"),
            _selectors,
            _offsets,
            _sizes,
            st.none() | _perms,
            st.none() | _pkeys,
        ),
        st.tuples(st.just("unmap"), _selectors, _offsets, _sizes, st.booleans()),
    ),
    max_size=14,
)


def _resolve(op: tuple, model: PageTableModel) -> tuple:
    """Turn an operation's selector into a window page (None stays a
    fresh reservation) and an alias's sources into mapped pages' frames."""
    mapped = sorted(page - _BASE // PAGE_SIZE for page in model.pages)
    unmapped = sorted(set(range(_WINDOW)).difference(mapped))
    kind, selector, *args = op
    pool = mapped if kind in ("protect", "unmap") else unmapped
    if selector is not None:
        if selector < _WINDOW or not pool:
            selector %= _WINDOW
        else:
            selector = pool[selector % len(pool)]
    if kind == "alias":
        sources, perms, pkey = args
        frames = [
            model.pages[_BASE // PAGE_SIZE + mapped[source % len(mapped)]].frame
            for source in sources
            if mapped
        ]
        args = (frames, perms, pkey)
    return (kind, selector, *args)


def _outcome(call):
    """A call's value, or the type and message of what it raised (the
    message names the faulting address)."""
    try:
        return ("ok", call())
    except (PageFault, OutOfMemoryError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def _page_table_view(table, frames_allocated: int, free: list[int]) -> dict:
    """Everything a caller can read from a page table over the window,
    with the allocator's count and free list (which fixes the frames
    the next mappings get)."""
    view = {"frames_allocated": frames_allocated, "free": free}
    for page in range(_WINDOW):
        vaddr = _BASE + page * PAGE_SIZE
        view[page] = (
            table.is_mapped(vaddr + 5),
            _outcome(lambda: table.entry(vaddr + 5)),
            _outcome(lambda: table.translate(vaddr + 5)),
            [
                _outcome(lambda: table.frames_of(vaddr + 5, pages * PAGE_SIZE))
                for pages in (1, 3, 7)
            ],
            [
                _outcome(lambda: list(table.iter_range(vaddr + 5, size)))
                for size in (0, 2 * PAGE_SIZE, 5 * PAGE_SIZE - 5)
            ],
        )
    return view


def _apply(table, op):
    """Run one resolved operation on an :class:`AddressSpace` or the
    model."""
    kind, page, *args = op
    vaddr = None if page is None else _BASE + page * PAGE_SIZE
    if kind == "map_new":
        size, perms, pkey = args
        return table.map_new(size, perms, pkey, vaddr=vaddr)
    if kind == "alias":
        frames, perms, pkey = args
        return table.map_frames(vaddr, frames, perms, pkey)
    offset, size, *rest = args
    if kind == "protect":
        return table.protect(vaddr + offset, size, *rest)
    return table.unmap(vaddr + offset, size, *rest)


@settings(max_examples=120, deadline=None)
@given(ops=_page_table_ops)
def test_page_table_matches_a_per_page_model(ops):
    """Extents answer every lookup, fault and frame count exactly as one
    dict entry per page would, after every operation: fresh and fixed
    mappings (overlapping ones included), aliases over scattered frame
    lists, and ``protect``/``unmap`` across holes."""
    limit = _BASE + 16 * PAGE_SIZE
    phys = PhysicalMemory(10 * PAGE_SIZE)
    space = AddressSpace("oracle", phys, base=_BASE, limit=limit)
    model = PageTableModel("oracle", _BASE, limit, phys.num_frames)
    for op in ops:
        op = _resolve(op, model)
        assert _outcome(lambda: _apply(space, op)) == _outcome(
            lambda: _apply(model, op)
        ), op
        assert _page_table_view(
            space, phys.frames_allocated, phys._free_frames
        ) == _page_table_view(model, model.frames_allocated, model.free), op

//! The page-level heap: block acquisition, object allocation, sweeping.

use crate::freelist::FreeList;
use crate::sweep::{survivor_census, BlockSweep};
use crate::{
    Block, BlockId, BlockShape, FreeListPolicy, HeapError, ObjRef, ObjectKind, SizeClass,
    GRANULE_BYTES,
};
use gc_vmspace::{Addr, AddressSpace, PageIdx, SegmentKind, SegmentSpec, PAGE_BYTES};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Flat page-index → block-id map covering the whole 2^20-page space.
#[derive(Debug)]
struct PageMap {
    slots: Vec<u32>,
    /// Bumped on every mutation; [`PageResolveCache`] entries are valid
    /// only for the epoch they were filled under.
    epoch: u64,
}

impl PageMap {
    const NONE: u32 = u32::MAX;

    fn new() -> Self {
        PageMap {
            slots: vec![Self::NONE; 1 << 20],
            epoch: 0,
        }
    }

    #[inline]
    fn get(&self, page: PageIdx) -> Option<BlockId> {
        let v = self.slots[page.raw() as usize];
        (v != Self::NONE).then_some(BlockId(v))
    }

    fn set(&mut self, page: PageIdx, id: BlockId) {
        self.slots[page.raw() as usize] = id.0;
        self.epoch += 1;
    }

    fn clear(&mut self, page: PageIdx) {
        self.slots[page.raw() as usize] = Self::NONE;
        self.epoch += 1;
    }
}

/// Number of direct-mapped entries in a [`PageResolveCache`]; a power of
/// two so the index is a mask.
const RESOLVE_CACHE_ENTRIES: usize = 256;

/// A small direct-mapped page → block cache for the mark phase's candidate
/// step ([`Heap::mark_candidate`]).
///
/// Candidate pointers cluster heavily by page — a block's objects are
/// contiguous, and the mark stack drains neighbours together — so most
/// lookups hit the page the cache already resolved. An entry caches the
/// page-map answer *including* "no block here" (misses are as clustered as
/// hits: think integers just past the heap break).
///
/// Correctness does not depend on any invalidation callback: every entry
/// records the page-map **epoch** it was filled under, and the page map
/// bumps its epoch on every mutation (block creation, growth, release).
/// A lookup whose stored epoch disagrees with the heap's current epoch is
/// treated as a miss and refilled, so a cache may be carried across
/// collections, sweeps, and heap growth without ever returning a stale
/// block. During a mark phase the heap is frozen, so the epoch is constant
/// and every repeat lookup hits.
///
/// A [`disabled`](PageResolveCache::disabled) cache keeps nothing and
/// counts nothing: every lookup walks the page map, and both counters stay
/// 0. It lets one candidate kernel serve collectors with the cache off.
#[derive(Debug)]
pub struct PageResolveCache {
    /// `false` for a cache that keeps nothing and counts nothing.
    enabled: bool,
    /// Cached page index per entry; `u32::MAX` = empty (pages are < 2^20).
    tags: [u32; RESOLVE_CACHE_ENTRIES],
    /// Cached raw block id per entry; `u32::MAX` = "page has no block".
    vals: [u32; RESOLVE_CACHE_ENTRIES],
    /// Page-map epoch the entries were filled under.
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl Default for PageResolveCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PageResolveCache {
    /// An empty cache; usable with any heap (it adopts the heap's epoch on
    /// first lookup).
    pub fn new() -> Self {
        PageResolveCache {
            enabled: true,
            tags: [u32::MAX; RESOLVE_CACHE_ENTRIES],
            vals: [u32::MAX; RESOLVE_CACHE_ENTRIES],
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache that keeps nothing and counts nothing: every lookup walks
    /// the page map.
    pub fn disabled() -> Self {
        PageResolveCache {
            enabled: false,
            ..Self::new()
        }
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to walk the page map (including epoch flushes).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The page-map answer for `page`, from the cache when current.
    #[inline]
    fn block_for(&mut self, page: PageIdx, map: &PageMap) -> Option<BlockId> {
        if !self.enabled {
            return map.get(page);
        }
        if self.epoch != map.epoch {
            self.tags = [u32::MAX; RESOLVE_CACHE_ENTRIES];
            self.epoch = map.epoch;
        }
        let slot = page.raw() as usize & (RESOLVE_CACHE_ENTRIES - 1);
        if self.tags[slot] == page.raw() {
            self.hits += 1;
            let v = self.vals[slot];
            return (v != PageMap::NONE).then_some(BlockId(v));
        }
        self.misses += 1;
        let id = map.get(page);
        self.tags[slot] = page.raw();
        self.vals[slot] = id.map_or(PageMap::NONE, |b| b.0);
        id
    }
}

/// How [`Heap::mark_candidate`] sets a mark bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkMode {
    /// A plain load and store: only correct while one thread marks, where
    /// the locked read-modify-write would be pure overhead.
    Single,
    /// An atomic test-and-set: across racing mark workers, exactly one
    /// sees the bit newly set.
    Atomic,
}

/// How a candidate page would be used, passed to placement predicates.
///
/// The collector's blacklist rules differ by use (§3 of the paper): a
/// blacklisted page may still hold small *pointer-free* objects; a large
/// object must not *span* a blacklisted page when interior pointers are
/// honoured, and must not *start* on one otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageUse {
    /// The page would become a small-object block of the given kind.
    SmallBlock(ObjectKind),
    /// The page would hold the first page of a large object.
    LargeFirst(ObjectKind),
    /// The page would hold a non-first page of a large object.
    LargeBody(ObjectKind),
}

/// A placement predicate: may this page be used in this way?
///
/// The collector passes its blacklist here; `true` means the page is usable.
pub type PagePredicate<'a> = &'a mut dyn FnMut(PageIdx, PageUse) -> bool;

/// Configuration of the heap substrate.
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Address where the heap begins (like the post-BSS `sbrk` break).
    pub heap_base: Addr,
    /// Hard limit on mapped heap bytes.
    pub max_heap_bytes: u64,
    /// Expansion increment in pages; the paper notes blacklisting losses are
    /// "dominated by the heap expansion increment" (observation 6).
    pub growth_pages: u32,
    /// Free-list ordering policy.
    pub freelist_policy: FreeListPolicy,
    /// Deferred-sweep work bound: how many pending blocks one allocation's
    /// slow path may sweep while reloading a free list (lazy sweeping).
    /// Values below 1 behave as 1 — an allocation that finds its free list
    /// empty must be allowed to sweep at least one block to make progress.
    pub sweep_budget: u32,
    /// Allocation fast path: fresh small blocks keep their never-used
    /// slots behind a per-(class, kind) bump cursor instead of
    /// prepopulating the free list, and allocations into never-written
    /// pages skip the explicit zero fill (the pages were zeroed when
    /// mapped). Behaviourally invisible — allocation addresses, zeroing,
    /// and collection triggers are identical either way; `false` restores
    /// the old prepopulate-and-always-fill shapes for differential
    /// testing. Cursors only apply under the address-ordered free-list
    /// policy (LIFO's pop order cannot be expressed as a cursor); the
    /// zero-once fill elision applies under both.
    pub bump_alloc: bool,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 512 << 20,
            growth_pages: 256,
            freelist_policy: FreeListPolicy::AddressOrdered,
            sweep_budget: 64,
            bump_alloc: true,
        }
    }
}

/// Statistics of one sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepStats {
    /// Bytes reclaimed.
    pub bytes_freed: u64,
    /// Objects reclaimed.
    pub objects_freed: u64,
    /// Whole blocks released back to the page pool.
    pub blocks_released: u32,
    /// Objects that survived (marked, or old during a young-only sweep).
    pub objects_live: u64,
    /// Bytes that survived.
    pub bytes_live: u64,
    /// Young objects promoted to the old generation by this sweep.
    pub objects_promoted: u64,
    /// Bytes promoted.
    pub bytes_promoted: u64,
    /// Blocks whose free-list reconstruction was deferred to the
    /// allocator's slow path (lazy sweeping). Always 0 for an eager sweep.
    /// The freed/live/promoted tallies above are exact either way: a lazy
    /// snapshot decides every slot's fate up front and defers only the
    /// mutation work.
    pub blocks_deferred: u32,
}

impl SweepStats {
    /// Adds one block's sweep counts, for objects of `obj_bytes` bytes.
    fn add(&mut self, counts: BlockSweep, obj_bytes: u64) {
        let (live, freed, promoted) = (
            u64::from(counts.live),
            u64::from(counts.freed),
            u64::from(counts.promoted),
        );
        self.objects_live += live;
        self.bytes_live += live * obj_bytes;
        self.objects_freed += freed;
        self.bytes_freed += freed * obj_bytes;
        self.objects_promoted += promoted;
        self.bytes_promoted += promoted * obj_bytes;
    }
}

/// Cumulative accounting of *realized* deferred sweep work: everything the
/// allocation slow path, [`Heap::finish_sweep`], and the explicit-free path
/// have swept since the heap was created.
///
/// The freed/promoted tallies here overlap the per-collection
/// [`SweepStats`]: a lazy snapshot already reported each slot's fate; these
/// totals say when the reclamation work actually ran (and what it yielded),
/// not how much garbage existed. By the time every pending block is swept,
/// `objects_freed`/`bytes_freed` equal the sum of the snapshots' counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LazySweepStats {
    /// Pending blocks swept outside a collection pause.
    pub blocks_swept: u64,
    /// Of those, blocks released back to the page pool.
    pub blocks_released: u64,
    /// Objects reclaimed by deferred sweeps.
    pub objects_freed: u64,
    /// Bytes reclaimed by deferred sweeps.
    pub bytes_freed: u64,
    /// Young survivors tenured by deferred sweeps.
    pub objects_promoted: u64,
    /// Bytes tenured by deferred sweeps.
    pub bytes_promoted: u64,
    /// Wall-clock time spent in deferred sweeping.
    pub sweep_time: Duration,
}

/// Aggregate heap statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HeapStats {
    /// Pages currently mapped as heap.
    pub mapped_pages: u32,
    /// Pages mapped but not part of any object block.
    pub free_pages: u32,
    /// Longest run of contiguous free pages.
    pub largest_free_run: u32,
    /// Live object bytes.
    pub bytes_live: u64,
    /// Cumulative bytes ever allocated.
    pub bytes_allocated_total: u64,
    /// Bytes allocated since the last collection.
    pub bytes_since_collect: u64,
    /// Number of live object blocks.
    pub blocks: u32,
}

/// A layout descriptor for *typed* objects: which words may hold pointers.
///
/// The paper's introduction notes that implementations "vary greatly in
/// their degree of conservativism. Some maintain complete information on
/// the location of pointers in the heap, and only scan the stack
/// conservatively" (Scheme→C, Cedar, KCL). A descriptor provides that
/// complete information for one object layout; objects allocated with one
/// are scanned exactly — their non-pointer words can never be
/// misidentified.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Descriptor {
    /// `word_is_pointer[i]` — may word `i` hold a pointer?
    pub word_is_pointer: Vec<bool>,
}

impl Descriptor {
    /// A descriptor with pointers at the given word offsets, `words` long.
    ///
    /// # Panics
    ///
    /// Panics if an offset is out of range.
    pub fn with_pointers_at(words: u32, offsets: &[u32]) -> Descriptor {
        let mut word_is_pointer = vec![false; words as usize];
        for &o in offsets {
            assert!(
                o < words,
                "pointer offset {o} out of range for a {words}-word descriptor"
            );
            word_is_pointer[o as usize] = true;
        }
        Descriptor { word_is_pointer }
    }

    /// The word offsets that may hold pointers, in **strictly ascending**
    /// order — a structural guarantee of the bitmap representation (input
    /// order and duplicates in [`with_pointers_at`](Self::with_pointers_at)
    /// cannot affect it). Scan loops rely on it: once an offset lands past
    /// an object's end, every later offset does too, so they may stop at
    /// the first out-of-range offset without skipping a valid pointer word.
    pub fn pointer_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        self.word_is_pointer
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| i as u32)
    }
}

/// Identifier of a registered [`Descriptor`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DescriptorId(u32);

/// The page-level heap substrate.
///
/// `Heap` owns all block metadata out-of-band and carves object blocks out
/// of simulated heap pages mapped into an [`AddressSpace`]. It has no
/// marking logic of its own — the collector drives it — but provides the
/// object map ([`Heap::object_containing`]), mark bits, sweeping, and
/// blacklist-aware block placement via [`PagePredicate`]s.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    blocks: Vec<Option<Block>>,
    /// Flat page → block map (4 MiB for the full 2^20-page space); flat
    /// indexing keeps the mark phase's candidate lookups cheap.
    page_map: PageMap,
    /// Mapped, block-free page runs: first page index → run length, coalesced.
    free_runs: BTreeMap<u32, u32>,
    /// Pages a placement predicate rejected, parked off the free-run path
    /// so repeated searches do not rescan them — the paper's footnote-3
    /// fix ("blacklisted blocks were kept on a list of free pages
    /// indefinitely, increasing the overhead of page-level allocation").
    /// Atomic small-object acquisition may still draw from here
    /// (observation 6); [`Heap::note_collection`] returns the rest to the
    /// free runs, since blacklist entries age.
    quarantined: Vec<u32>,
    /// Atomic-reclaim scan cursor into `quarantined`: every entry below it
    /// was already rejected for atomic small-block use since the last
    /// collection. Sound because the collector's predicate (the blacklist)
    /// only grows between collections — a rejected page stays rejected —
    /// and [`Heap::note_collection`] resets the cursor when the predicate
    /// may relent. Keeps repeated atomic misses from rescanning the whole
    /// list.
    quarantine_scan: usize,
    /// Free lists indexed by `class.index() * 2 + kind`, holding only
    /// *recycled* slots under the bump-allocation fast path (never-used
    /// tails stay behind `cursors`).
    free_lists: Vec<FreeList>,
    /// Bump cursors indexed like `free_lists`: the current block whose
    /// never-used tail (`bump..slots`) serves fresh allocations for that
    /// (class, kind). At most one block per index ever has a never-used
    /// tail, so the union of the free list and the cursor tail is exactly
    /// the slot set the prepopulated free list used to hold, and popping
    /// `min(list head, tail head)` preserves the address-ordered
    /// allocation order bit for bit.
    cursors: Vec<Option<BlockId>>,
    /// Pages mapped but in no free run and no block (the free-run total,
    /// maintained incrementally so `stats()` is O(1)).
    free_run_pages: u32,
    /// Multiset of free-run lengths (length → count), kept in lockstep
    /// with `free_runs` so `largest_free_run` is a `last_key_value` away
    /// instead of a full scan.
    run_lengths: BTreeMap<u32, u32>,
    /// Live block count, maintained incrementally.
    block_count: u32,
    /// One bit per page: set while the page has never been written since
    /// the address space mapped (and zero-initialized) it. Cleared when a
    /// block is created over the page; blocks created entirely on clean
    /// pages skip the per-allocation zero fill for never-used slots.
    clean_pages: Vec<u64>,
    next_expansion: Addr,
    /// The most recent heap segment and its end, for contiguous in-place
    /// extension (a multi-page object may span expansion increments, so
    /// contiguous heap memory must live in one segment).
    last_segment: Option<(gc_vmspace::SegmentId, Addr)>,
    heap_lo: Option<Addr>,
    heap_hi: Addr,
    mapped_pages: u32,
    bytes_live: u64,
    bytes_allocated_total: u64,
    bytes_since_collect: u64,
    objects_allocated_total: u64,
    descriptors: Vec<Descriptor>,
    /// Deferred-sweep queues for small blocks, indexed like `free_lists`:
    /// blocks whose free-list reconstruction the last lazy snapshot left to
    /// the allocator. Entries may be stale (block already swept via
    /// `finish_sweep` or released); the per-block `pending` flag decides.
    pending_small: Vec<VecDeque<BlockId>>,
    /// Deferred-sweep queue for large (whole-page) blocks.
    pending_large: VecDeque<BlockId>,
    /// Blocks currently awaiting their deferred sweep.
    pending_blocks: u32,
    /// Whether the outstanding snapshot came from a *minor* collection
    /// (old objects survive regardless of marks).
    pending_minor: bool,
    /// Bumped by every lazy snapshot: the mark-bitmap epoch. A block whose
    /// `pending` flag is set holds mark bits from this epoch.
    sweep_epoch: u64,
    /// Realized deferred-sweep work, cumulatively.
    lazy_totals: LazySweepStats,
}

fn fl_index(class: SizeClass, kind: ObjectKind) -> usize {
    class.index() * 2
        + match kind {
            ObjectKind::Composite => 0,
            ObjectKind::Atomic => 1,
        }
}

impl Heap {
    /// Creates an empty heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let heap_base = config.heap_base.align_up(PAGE_BYTES);
        let free_lists = (0..SizeClass::COUNT * 2)
            .map(|_| FreeList::new(config.freelist_policy))
            .collect();
        let pending_small = (0..SizeClass::COUNT * 2).map(|_| VecDeque::new()).collect();
        Heap {
            next_expansion: heap_base,
            last_segment: None,
            heap_lo: None,
            heap_hi: heap_base,
            config,
            blocks: Vec::new(),
            page_map: PageMap::new(),
            free_runs: BTreeMap::new(),
            quarantined: Vec::new(),
            quarantine_scan: 0,
            free_lists,
            cursors: vec![None; SizeClass::COUNT * 2],
            free_run_pages: 0,
            run_lengths: BTreeMap::new(),
            block_count: 0,
            clean_pages: vec![0; (1 << 20) / 64],
            mapped_pages: 0,
            bytes_live: 0,
            bytes_allocated_total: 0,
            bytes_since_collect: 0,
            objects_allocated_total: 0,
            descriptors: Vec::new(),
            pending_small,
            pending_large: VecDeque::new(),
            pending_blocks: 0,
            pending_minor: false,
            sweep_epoch: 0,
            lazy_totals: LazySweepStats::default(),
        }
    }

    /// Registers an object-layout descriptor for typed allocation.
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.descriptors.push(descriptor);
        DescriptorId(self.descriptors.len() as u32 - 1)
    }

    /// Allocates a typed object: scanned *exactly* via its descriptor
    /// instead of conservatively word-by-word.
    ///
    /// # Errors
    ///
    /// As [`Heap::alloc`]; additionally the descriptor must cover the
    /// object (`bytes >= 4 * descriptor words` is not required — extra
    /// object words are treated as non-pointer).
    pub fn alloc_typed(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        desc: DescriptorId,
        pred: PagePredicate<'_>,
    ) -> Result<Addr, HeapError> {
        let (addr, id, slot) = self.alloc_slot(space, bytes, ObjectKind::Composite, pred)?;
        self.block_mut(id).set_descriptor(slot, desc.0);
        Ok(addr)
    }

    /// The descriptor of the live typed object based at `base`, if any.
    pub fn descriptor_of(&self, base: Addr) -> Option<&Descriptor> {
        let obj = self.object_containing(base).filter(|o| o.base == base)?;
        self.descriptor(obj)
    }

    /// The descriptor of a live object, if it was allocated typed — the
    /// mark phase's lookup: a block index and a table read, and no table
    /// at all for blocks that never held a typed object.
    #[inline]
    pub fn descriptor(&self, obj: ObjRef) -> Option<&Descriptor> {
        let id = self.block(obj.block)?.descriptor(obj.index)?;
        Some(&self.descriptors[id as usize])
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Lowest mapped heap address, if any heap memory exists.
    pub fn lo(&self) -> Option<Addr> {
        self.heap_lo
    }

    /// One past the highest mapped heap address (equals the base before any
    /// expansion).
    pub fn hi(&self) -> Addr {
        self.heap_hi
    }

    /// Returns `true` if `addr` is in the current heap address range
    /// (mapped heap pages, including free runs).
    pub fn in_heap_range(&self, addr: Addr) -> bool {
        match self.heap_lo {
            Some(lo) => addr >= lo && addr < self.heap_hi,
            None => false,
        }
    }

    /// Allocates an object of `bytes` bytes and `kind`, placing new blocks
    /// only on pages accepted by `pred`.
    ///
    /// The predicate is consulted *only* when allocation from a new page
    /// begins, exactly as in the paper ("the blacklist is only examined when
    /// allocation from a new page is begun") — free-list hits bypass it.
    ///
    /// The returned object's memory is zeroed.
    ///
    /// Under lazy sweeping this is the demand-driven slow path: when the
    /// free list (or page pool) is empty, up to
    /// [`sweep_budget`](HeapConfig::sweep_budget) pending blocks of the
    /// requested size class are swept first, and a genuine out-of-memory
    /// report is preceded by a [`finish_sweep`](Heap::finish_sweep) — the
    /// lazy heap never refuses an allocation the eager heap could satisfy.
    ///
    /// # Errors
    ///
    /// [`HeapError::ZeroSized`] for `bytes == 0`;
    /// [`HeapError::OutOfMemory`] if no acceptable placement exists within
    /// the configured heap limit.
    pub fn alloc(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<Addr, HeapError> {
        self.alloc_slot(space, bytes, kind, pred)
            .map(|(addr, _, _)| addr)
    }

    /// [`alloc`](Heap::alloc), also returning the object's block and slot.
    fn alloc_slot(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        if bytes == 0 {
            return Err(HeapError::ZeroSized);
        }
        match self.alloc_sized(space, bytes, kind, &mut *pred) {
            Err(HeapError::OutOfMemory { .. }) if self.pending_blocks > 0 => {
                // Unswept blocks may still hold the slots or pages this
                // request needs; complete the deferred sweep before
                // reporting a real out-of-memory condition.
                self.finish_sweep();
                self.alloc_sized(space, bytes, kind, pred)
            }
            result => result,
        }
    }

    fn alloc_sized(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        match SizeClass::for_bytes(bytes) {
            Some(class) => self.alloc_small(space, class, kind, pred),
            None => self.alloc_large(space, bytes, kind, pred),
        }
    }

    /// Whether fresh small blocks keep their never-used slots behind a
    /// bump cursor (the allocation fast path). LIFO free lists keep the
    /// prepopulated shape: their pop order is not expressible as a cursor.
    fn bump_enabled(&self) -> bool {
        self.config.bump_alloc && self.config.freelist_policy == FreeListPolicy::AddressOrdered
    }

    /// Pops the next small slot for `fli`, merging the recycled free list
    /// with the bump cursor's never-used tail so the global allocation
    /// order is exactly what a prepopulated free list would produce.
    /// Returns `(addr, block, slot, fresh)`; `fresh` means the slot's
    /// memory has never been written (allocation may skip the zero fill).
    fn pop_small_slot(&mut self, fli: usize) -> Option<(Addr, BlockId, u32, bool)> {
        let tail = self.cursors[fli].map(|id| {
            let b = self.blocks[id.0 as usize]
                .as_ref()
                .expect("cursor block is live");
            debug_assert!(b.bump < b.slots(), "cursor block has a never-used tail");
            (b.slot_base(b.bump), id, b.bump)
        });
        let recycled = self.free_lists[fli].peek(&self.blocks);
        let take_list = match (recycled, tail) {
            (Some((l, _, _)), Some((t, _, _))) => l < t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_list {
            let (addr, id, slot) = recycled.expect("recycled slot selected");
            let b = self.blocks[id.0 as usize]
                .as_ref()
                .expect("listed block is live");
            self.free_lists[fli].take(b, slot);
            Some((addr, id, slot, false))
        } else {
            let (addr, id, slot) = tail.expect("cursor tail selected");
            let b = self.block_mut(id);
            b.bump += 1;
            let fresh = b.zeroed;
            if b.bump == b.slots() {
                self.cursors[fli] = None;
            }
            Some((addr, id, slot, fresh))
        }
    }

    /// Is a slot available for `fli` without taking a fresh page?
    fn small_slot_available(&self, fli: usize) -> bool {
        !self.free_lists[fli].is_empty() || self.cursors[fli].is_some()
    }

    fn alloc_small(
        &mut self,
        space: &mut AddressSpace,
        class: SizeClass,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        let fli = fl_index(class, kind);
        if let Some((addr, id, slot, fresh)) = self.pop_small_slot(fli) {
            return self.finish_alloc(space, addr, id, slot, class.bytes(), fresh);
        }
        // Lazy-sweep slow path: reload this class's free list from blocks
        // the last collection left pending before taking a fresh page.
        if self.sweep_pending_small(fli) {
            if let Some((addr, id, slot, fresh)) = self.pop_small_slot(fli) {
                return self.finish_alloc(space, addr, id, slot, class.bytes(), fresh);
            }
        }
        let mut denied = 0u32;
        // Quarantined (predicate-rejected) pages are still usable by small
        // *atomic* blocks (observation 6's exemption); pointer-containing
        // acquisitions never look at them again — that is the point of the
        // quarantine. The scan resumes past the already-rejected prefix
        // (`quarantine_scan`), so repeated atomic misses are O(new pages),
        // not O(quarantine).
        let reclaimed = if kind == ObjectKind::Atomic {
            let start = self.quarantine_scan.min(self.quarantined.len());
            let hit = self.quarantined[start..]
                .iter()
                .position(|&p| pred(PageIdx::new(p), PageUse::SmallBlock(kind)))
                .map(|i| start + i);
            // Everything scanned before the hit (or the whole tail) was
            // rejected; the accepted entry is replaced by the unscanned
            // last element, so the rejected prefix ends at the hit index.
            self.quarantine_scan = hit.unwrap_or(self.quarantined.len());
            hit
        } else {
            None
        };
        let page = if let Some(i) = reclaimed {
            PageIdx::new(self.quarantined.swap_remove(i))
        } else {
            self.take_one_page(
                space,
                &mut |p| pred(p, PageUse::SmallBlock(kind)),
                &mut denied,
            )?
            .ok_or(HeapError::OutOfMemory {
                requested: class.bytes(),
                pages_denied: denied,
            })?
        };
        let id = BlockId(self.blocks.len() as u32);
        let mut block = Block::new_small(id, page.base(), class, kind);
        block.zeroed = self.config.bump_alloc && self.pages_clean(page, 1);
        self.page_map.set(page, id);
        self.clear_pages_clean(page, 1);
        let addr = block.slot_base(0);
        let fresh = block.zeroed;
        let prepopulate = !self.bump_enabled();
        if prepopulate {
            block.bump = block.slots();
        } else {
            block.bump = 1;
            if block.bump < block.slots() {
                self.cursors[fli] = Some(id);
            }
        }
        self.blocks.push(Some(block));
        self.block_count += 1;
        let result = self.finish_alloc(space, addr, id, 0, class.bytes(), fresh);
        if prepopulate {
            // Every slot but the one just taken is recycled from the start.
            let block = self.blocks[id.0 as usize]
                .as_ref()
                .expect("fresh block is live");
            self.free_lists[fli].add_block(block);
        }
        result
    }

    fn alloc_large(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        let obj_bytes = bytes.div_ceil(GRANULE_BYTES) * GRANULE_BYTES;
        let npages = obj_bytes.div_ceil(PAGE_BYTES);
        // Lazy-sweep slow path: sweeping pending large blocks releases the
        // dead ones' pages, which may satisfy this request without growing
        // the heap.
        self.sweep_pending_large();
        let mut denied = 0u32;
        let mut check = |p: PageIdx, first: bool| {
            let use_ = if first {
                PageUse::LargeFirst(kind)
            } else {
                PageUse::LargeBody(kind)
            };
            pred(p, use_)
        };
        let first_page = self
            .take_pages(space, npages, &mut check, &mut denied)?
            .ok_or(HeapError::OutOfMemory {
                requested: bytes,
                pages_denied: denied,
            })?;
        let id = BlockId(self.blocks.len() as u32);
        let mut block = Block::new_large(id, first_page.base(), obj_bytes, kind);
        block.zeroed = self.config.bump_alloc && self.pages_clean(first_page, block.npages());
        for i in 0..block.npages() {
            self.page_map.set(PageIdx::new(first_page.raw() + i), id);
        }
        self.clear_pages_clean(first_page, block.npages());
        let addr = block.base();
        let fresh = block.zeroed;
        block.bump = 1;
        self.blocks.push(Some(block));
        self.block_count += 1;
        self.finish_alloc(space, addr, id, 0, obj_bytes, fresh)
    }

    /// Books one allocated slot. The caller resolved `(id, slot)` already
    /// (the bump and fresh-block paths know them outright; free-list pops
    /// do one page-map lookup), so no redundant `slot_of` walk happens
    /// here. `fresh` slots — never written since their pages were mapped —
    /// skip the zero fill: the mapping already zeroed them.
    fn finish_alloc(
        &mut self,
        space: &mut AddressSpace,
        addr: Addr,
        id: BlockId,
        slot: u32,
        obj_bytes: u32,
        fresh: bool,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        let b = self.block_mut(id);
        b.allocated.set(slot);
        // Fresh objects are born young, whatever the slot's previous
        // occupant was.
        b.old.clear(slot);
        if !fresh {
            space.fill(addr, obj_bytes, 0)?;
        }
        self.bytes_live += u64::from(obj_bytes);
        self.bytes_allocated_total += u64::from(obj_bytes);
        self.bytes_since_collect += u64::from(obj_bytes);
        self.objects_allocated_total += 1;
        Ok((addr, id, slot))
    }

    /// Is every page of `[first, first+n)` still in its never-written,
    /// zero-initialized state?
    fn pages_clean(&self, first: PageIdx, n: u32) -> bool {
        (first.raw()..first.raw() + n)
            .all(|p| self.clean_pages[p as usize / 64] >> (p % 64) & 1 == 1)
    }

    fn set_pages_clean(&mut self, first: PageIdx, n: u32) {
        for p in first.raw()..first.raw() + n {
            self.clean_pages[p as usize / 64] |= 1 << (p % 64);
        }
    }

    fn clear_pages_clean(&mut self, first: PageIdx, n: u32) {
        for p in first.raw()..first.raw() + n {
            self.clean_pages[p as usize / 64] &= !(1 << (p % 64));
        }
    }

    /// Takes one acceptable page, parking rejected pages in the quarantine
    /// so they are never rescanned on this path (the footnote-3 fix).
    fn take_one_page(
        &mut self,
        space: &mut AddressSpace,
        accept: &mut dyn FnMut(PageIdx) -> bool,
        denied: &mut u32,
    ) -> Result<Option<PageIdx>, HeapError> {
        loop {
            let Some((&run_start, _)) = self.free_runs.iter().next() else {
                if !self.expand(space, 1)? {
                    return Ok(None);
                }
                continue;
            };
            let page = PageIdx::new(run_start);
            self.carve_run(page, 1);
            if accept(page) {
                return Ok(Some(page));
            }
            *denied += 1;
            self.quarantined.push(page.raw());
        }
    }

    /// Finds `npages` contiguous acceptable pages among free runs, expanding
    /// the heap as needed. Returns `Ok(None)` when the heap limit is
    /// exhausted without an acceptable window.
    fn take_pages(
        &mut self,
        space: &mut AddressSpace,
        npages: u32,
        accept: &mut dyn FnMut(PageIdx, bool) -> bool,
        denied: &mut u32,
    ) -> Result<Option<PageIdx>, HeapError> {
        loop {
            if let Some(first) = self.search_free_runs(npages, accept, denied) {
                self.carve_run(first, npages);
                return Ok(Some(first));
            }
            if !self.expand(space, npages)? {
                return Ok(None);
            }
        }
    }

    /// Scans the free runs for an acceptable window of `npages`.
    fn search_free_runs(
        &self,
        npages: u32,
        accept: &mut dyn FnMut(PageIdx, bool) -> bool,
        denied: &mut u32,
    ) -> Option<PageIdx> {
        for (&run_start, &run_len) in &self.free_runs {
            if run_len < npages {
                continue;
            }
            let mut start = run_start;
            'window: while start + npages <= run_start + run_len {
                for i in 0..npages {
                    if !accept(PageIdx::new(start + i), i == 0) {
                        *denied += 1;
                        // Restart the window past the rejected page.
                        start += i + 1;
                        continue 'window;
                    }
                }
                return Some(PageIdx::new(start));
            }
        }
        None
    }

    /// Inserts a free run, keeping the page total and length multiset (the
    /// O(1)-stats counters) in lockstep with the run map.
    fn runs_insert(&mut self, start: u32, len: u32) {
        self.free_runs.insert(start, len);
        self.free_run_pages += len;
        *self.run_lengths.entry(len).or_insert(0) += 1;
    }

    /// Removes the free run starting at `start`, returning its length.
    fn runs_remove(&mut self, start: u32) -> u32 {
        let len = self.free_runs.remove(&start).expect("removed run exists");
        self.free_run_pages -= len;
        match self.run_lengths.get_mut(&len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.run_lengths.remove(&len);
            }
        }
        len
    }

    /// Removes `[first, first+npages)` from the free runs.
    fn carve_run(&mut self, first: PageIdx, npages: u32) {
        let (&run_start, &run_len) = self
            .free_runs
            .range(..=first.raw())
            .next_back()
            .expect("carved window lies in a free run");
        assert!(
            run_start <= first.raw() && first.raw() + npages <= run_start + run_len,
            "carved window exceeds its free run"
        );
        self.runs_remove(run_start);
        if run_start < first.raw() {
            self.runs_insert(run_start, first.raw() - run_start);
        }
        let tail_start = first.raw() + npages;
        if tail_start < run_start + run_len {
            self.runs_insert(tail_start, run_start + run_len - tail_start);
        }
    }

    /// Returns pages to the free-run pool, coalescing with neighbours.
    fn release_pages(&mut self, first: PageIdx, npages: u32) {
        let mut start = first.raw();
        let mut len = npages;
        if let Some((&prev_start, &prev_len)) = self.free_runs.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.runs_remove(prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free_runs.get(&(first.raw() + npages)) {
            self.runs_remove(first.raw() + npages);
            len += next_len;
        }
        self.runs_insert(start, len);
    }

    /// Maps one more expansion increment of heap pages. Returns `false`
    /// when the heap limit has been reached.
    fn expand(&mut self, space: &mut AddressSpace, min_pages: u32) -> Result<bool, HeapError> {
        let limit_pages = (self.config.max_heap_bytes / u64::from(PAGE_BYTES)) as u32;
        if self.mapped_pages >= limit_pages {
            return Ok(false);
        }
        let want = min_pages
            .max(self.config.growth_pages)
            .min(limit_pages - self.mapped_pages);
        if want < min_pages {
            return Ok(false);
        }
        // Find a gap: skip over any foreign segments sitting in the way.
        let mut base = self.next_expansion.align_up(PAGE_BYTES);
        loop {
            let len = u64::from(want) * u64::from(PAGE_BYTES);
            if u64::from(base.raw()) + len > 1 << 32 {
                return Ok(false);
            }
            // Contiguous growth extends the previous heap segment in place,
            // so objects may span expansion increments.
            if let Some((seg, end)) = self.last_segment {
                if end == base {
                    match space.extend(seg, len as u32) {
                        Ok(()) => {
                            self.last_segment = Some((seg, base + len as u32));
                            break;
                        }
                        Err(gc_vmspace::VmError::Overlap { .. }) => {
                            // A foreign segment moved in right behind the
                            // heap; fall through to the mapping path.
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            match space.map(SegmentSpec::new(
                "heap",
                SegmentKind::Heap,
                base,
                len as u32,
            )) {
                Ok(seg) => {
                    self.last_segment = Some((seg, base + len as u32));
                    break;
                }
                Err(gc_vmspace::VmError::Overlap { .. }) => {
                    // Jump past whichever segment occupies some page in the
                    // window, then retry. Fall back to one page if the
                    // occupant sits between our page-granular probes.
                    let mut jumped = base + PAGE_BYTES;
                    for i in 0..want {
                        if let Some(seg) = space.find(base + i * PAGE_BYTES) {
                            jumped = Addr::new(seg.end() as u32).align_up(PAGE_BYTES);
                            break;
                        }
                    }
                    base = jumped.max(base + PAGE_BYTES);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.release_pages(base.page(), want);
        // `map`/`extend` zero-initialize, so the new pages start clean:
        // the first block carved from them may skip per-allocation fills.
        self.set_pages_clean(base.page(), want);
        self.mapped_pages += want;
        self.heap_lo = Some(self.heap_lo.map_or(base, |lo| lo.min(base)));
        let end = base + want * PAGE_BYTES;
        self.heap_hi = self.heap_hi.max(end);
        self.next_expansion = end;
        Ok(true)
    }

    fn block_mut(&mut self, id: BlockId) -> &mut Block {
        self.blocks[id.0 as usize].as_mut().expect("block is live")
    }

    /// The live block with the given id, if any.
    #[inline]
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.0 as usize)?.as_ref()
    }

    fn slot_of(&self, addr: Addr) -> Option<(&Block, u32)> {
        let id = self.page_map.get(addr.page())?;
        let block = self.block(id)?;
        let slot = block.slot_containing(addr)?;
        Some((block, slot))
    }

    /// Decides a slot's liveness, honouring any outstanding lazy-sweep
    /// snapshot: a pending block's unmarked (and, outside minor snapshots,
    /// unmarked-or-young) slots are already condemned — the deferred sweep
    /// only realizes the decision. This keeps lazy sweeping transparent:
    /// every liveness view agrees with what an eager sweep would have left.
    #[inline(always)]
    fn slot_live(&self, block: &Block, slot: u32) -> bool {
        block.allocated.get(slot)
            && (!block.pending
                || block.marked.get(slot)
                || (self.pending_minor && block.old.get(slot)))
    }

    /// Resolves an address to the live object whose extent contains it.
    ///
    /// This is the collector's "valid object address" test (fig. 2): any
    /// interior address resolves; the caller applies its interior-pointer
    /// policy using [`ObjRef::base`].
    pub fn object_containing(&self, addr: Addr) -> Option<ObjRef> {
        let (block, slot) = self.slot_of(addr)?;
        if !self.slot_live(block, slot) {
            return None;
        }
        Some(ObjRef {
            block: block.id(),
            index: slot,
            base: block.slot_base(slot),
            bytes: block.obj_bytes(),
            kind: block.kind(),
        })
    }

    /// Figure 2's candidate step in one block lookup: resolves `addr`
    /// through `cache`, applies the caller's pointer policy, and marks.
    ///
    /// The page → block step goes through `cache` (a
    /// [`disabled`](PageResolveCache::disabled) one walks the page map),
    /// then the block is read once:
    ///
    /// 1. the slot containing `addr` is found without a division;
    /// 2. the slot must be live, honouring a pending lazy-sweep snapshot
    ///    exactly as [`object_containing`](Heap::object_containing) does;
    /// 3. `accept` gets the object's base and may refuse the candidate
    ///    (the interior-pointer policy);
    /// 4. in `minor` mode an old object (see [`is_old`](Heap::is_old)) is
    ///    a generation boundary and is left unmarked;
    /// 5. otherwise the mark bit is set as `mode` says.
    ///
    /// Returns `None` when `addr` is not a valid object address (steps 1–3
    /// fail), else the object and whether this call newly set its mark
    /// bit. Equivalent to `object_containing`, the policy check, `is_old`
    /// and [`set_marked`](Heap::set_marked) in sequence, but usable through
    /// a shared reference by the parallel mark workers.
    ///
    /// Always inlined, like the bitmap accessors and `slot_live` it calls:
    /// it runs once per candidate word, and the inliner left these as
    /// calls in some mark loops.
    #[inline(always)]
    pub fn mark_candidate(
        &self,
        addr: Addr,
        cache: &mut PageResolveCache,
        mode: MarkMode,
        minor: bool,
        accept: impl FnOnce(Addr) -> bool,
    ) -> Option<(ObjRef, bool)> {
        let id = cache.block_for(addr.page(), &self.page_map)?;
        let block = self.block(id)?;
        let slot = block.slot_containing(addr)?;
        if !self.slot_live(block, slot) {
            return None;
        }
        let base = block.slot_base(slot);
        if !accept(base) {
            return None;
        }
        let obj = ObjRef {
            block: id,
            index: slot,
            base,
            bytes: block.obj_bytes(),
            kind: block.kind(),
        };
        if minor && (block.pending || block.old.get(slot)) {
            return Some((obj, false));
        }
        let newly = match mode {
            MarkMode::Single => block.marked.set_relaxed(slot),
            MarkMode::Atomic => block.marked.set_atomic(slot),
        };
        Some((obj, newly))
    }

    /// Returns `true` if `addr` is the base address of a live object.
    pub fn is_object_base(&self, addr: Addr) -> bool {
        self.object_containing(addr).is_some_and(|o| o.base == addr)
    }

    /// Returns the mark bit of an object.
    pub fn is_marked(&self, obj: ObjRef) -> bool {
        self.block(obj.block)
            .is_some_and(|b| b.is_marked(obj.index))
    }

    /// Sets the mark bit of an object. Returns `true` if it was newly set.
    pub fn set_marked(&mut self, obj: ObjRef) -> bool {
        let block = self.block_mut(obj.block);
        if block.marked.get(obj.index) {
            false
        } else {
            block.marked.set(obj.index);
            true
        }
    }

    /// Clears every mark bit (start of a collection).
    ///
    /// Realizes any outstanding lazy-sweep snapshot first: pending blocks'
    /// reclamation decisions live in their mark bits, so wiping the bits
    /// without sweeping would resurrect condemned objects. (The collector
    /// drains pending blocks before starting a cycle anyway — this keeps
    /// the invariant even for direct heap users.)
    pub fn clear_marks(&mut self) {
        self.finish_sweep();
        for block in self.blocks.iter_mut().flatten() {
            block.marked.clear_all();
        }
    }

    /// Sweeps after a *full* collection: reclaims every
    /// allocated-but-unmarked object, tenures every survivor, rebuilds the
    /// object free lists, and releases fully empty blocks.
    pub fn sweep(&mut self) -> SweepStats {
        self.sweep_impl(false)
    }

    /// Sweeps after a *minor* (young-only) collection: old objects are
    /// retained regardless of mark bits; unmarked young objects are
    /// reclaimed; marked young objects are promoted (sticky mark bits, as
    /// in the PCR generational collector the paper builds on).
    pub fn sweep_young(&mut self) -> SweepStats {
        self.sweep_impl(true)
    }

    fn sweep_impl(&mut self, minor: bool) -> SweepStats {
        // An eager sweep supersedes any outstanding lazy snapshot: it
        // visits every block with the same (fresh) mark bits the deferred
        // sweeps would have used.
        self.reset_sweep_queues();
        let mut stats = SweepStats::default();
        for idx in 0..self.blocks.len() {
            let Some(block) = self.blocks[idx].as_mut() else {
                continue;
            };
            block.pending = false;
            let id = block.id;
            let (counts, ob) = self.sweep_block_now(id, minor);
            stats.add(counts, ob);
            if counts.live == 0 {
                stats.blocks_released += 1;
            }
        }
        self.bytes_live = stats.bytes_live;
        stats
    }

    /// Empties every free list, bump cursor and deferred-sweep queue: the
    /// start of a sweep, eager or lazy, which rebuilds them block by block.
    fn reset_sweep_queues(&mut self) {
        for fl in &mut self.free_lists {
            fl.clear();
        }
        self.cursors.fill(None);
        for q in &mut self.pending_small {
            q.clear();
        }
        self.pending_large.clear();
        self.pending_blocks = 0;
    }

    /// Sweeps live block `id` now with the word kernel, then rebuilds its
    /// share of the free list and bump cursor, or releases it if nothing
    /// survived. Returns the kernel's counts and the block's object size.
    fn sweep_block_now(&mut self, id: BlockId, minor: bool) -> (BlockSweep, u64) {
        let block = self.blocks[id.0 as usize]
            .as_mut()
            .expect("swept block is live");
        let counts = block.sweep(minor);
        let ob = u64::from(block.obj_bytes());
        if counts.live == 0 {
            self.release_block(id);
        } else if let BlockShape::Small { class } = block.shape {
            let fli = fl_index(class, block.kind);
            if block.bump < block.slots() && self.cursors[fli].is_some() {
                // Another block already owns this list's cursor (only
                // possible after a budget-exhausted partial lazy sweep
                // forced a fresh block while a tail was still pending);
                // retire this tail into the free list.
                block.bump = block.slots();
            }
            // Recycled slots go to the free list; the never-used tail
            // (>= bump) stays behind the cursor.
            self.free_lists[fli].add_block(block);
            if block.bump < block.slots() {
                self.cursors[fli] = Some(id);
            }
        }
        (counts, ob)
    }

    /// Lazy counterpart of [`Heap::sweep`]: decides every slot's fate
    /// against the current mark bits (so all counts in the returned stats
    /// are exact and `bytes_live` is re-based, exactly as after an eager
    /// sweep) but defers the per-slot mutation work — free-list
    /// reconstruction, bit clearing, tenuring, block release — to the
    /// allocator's slow path, [`Heap::finish_sweep`], or the explicit-free
    /// path. All object free lists are cleared: a pending block's slots
    /// become allocatable only once that block is actually swept.
    ///
    /// The caller (the collector) must complete any previous snapshot
    /// *before* clearing mark bits for the next cycle — pending blocks'
    /// reclamation decisions live in those bits.
    pub fn sweep_lazy(&mut self) -> SweepStats {
        self.sweep_lazy_impl(false)
    }

    /// Lazy counterpart of [`Heap::sweep_young`]; see [`Heap::sweep_lazy`].
    pub fn sweep_young_lazy(&mut self) -> SweepStats {
        self.sweep_lazy_impl(true)
    }

    fn sweep_lazy_impl(&mut self, minor: bool) -> SweepStats {
        // Cursors park too: a pending block's never-used tail must not
        // serve allocations before the block's deferred sweep realizes the
        // snapshot (a tail allocation would set an `allocated` bit the
        // sweep would then condemn). The deferred sweep re-establishes the
        // cursor.
        self.reset_sweep_queues();
        self.pending_minor = minor;
        self.sweep_epoch += 1;
        let mut stats = SweepStats::default();
        for block in self.blocks.iter_mut().flatten() {
            stats.add(survivor_census(block, minor), u64::from(block.obj_bytes()));
            block.pending = true;
            match block.shape {
                BlockShape::Small { class } => {
                    self.pending_small[fl_index(class, block.kind)].push_back(block.id);
                }
                BlockShape::Large { .. } => self.pending_large.push_back(block.id),
            }
            self.pending_blocks += 1;
        }
        stats.blocks_deferred = self.pending_blocks;
        self.bytes_live = stats.bytes_live;
        stats
    }

    /// Realizes the deferred sweep of one pending block: frees condemned
    /// slots, tenures survivors, rebuilds its share of the free list, and
    /// releases it entirely if nothing survived. Returns `false` for stale
    /// queue entries (block already swept or released).
    fn sweep_pending_block(&mut self, id: BlockId) -> bool {
        match self.blocks.get_mut(id.0 as usize).and_then(Option::as_mut) {
            Some(block) if block.pending => block.pending = false,
            _ => return false,
        }
        let (counts, ob) = self.sweep_block_now(id, self.pending_minor);
        // `bytes_live` was already re-based by the snapshot; only the
        // realized-work totals move here.
        self.pending_blocks -= 1;
        let t = &mut self.lazy_totals;
        t.blocks_swept += 1;
        t.blocks_released += u64::from(counts.live == 0);
        t.objects_freed += u64::from(counts.freed);
        t.bytes_freed += u64::from(counts.freed) * ob;
        t.objects_promoted += u64::from(counts.promoted);
        t.bytes_promoted += u64::from(counts.promoted) * ob;
        true
    }

    /// Sweeps pending blocks of one small (class, kind) pair until its free
    /// list has a slot or the per-allocation budget is spent. Returns
    /// `true` if the free list is now non-empty.
    fn sweep_pending_small(&mut self, fli: usize) -> bool {
        if self.pending_small[fli].is_empty() {
            return false;
        }
        let t0 = Instant::now();
        let mut budget = self.config.sweep_budget.max(1);
        while budget > 0 && !self.small_slot_available(fli) {
            let Some(id) = self.pending_small[fli].pop_front() else {
                break;
            };
            if self.sweep_pending_block(id) {
                budget -= 1;
            }
        }
        self.lazy_totals.sweep_time += t0.elapsed();
        self.small_slot_available(fli)
    }

    /// Sweeps up to one budget's worth of pending large blocks, releasing
    /// dead ones' pages back to the pool.
    fn sweep_pending_large(&mut self) {
        if self.pending_large.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut budget = self.config.sweep_budget.max(1);
        while budget > 0 {
            let Some(id) = self.pending_large.pop_front() else {
                break;
            };
            if self.sweep_pending_block(id) {
                budget -= 1;
            }
        }
        self.lazy_totals.sweep_time += t0.elapsed();
    }

    /// Completes any outstanding lazy-sweep snapshot, sweeping every
    /// pending block now. Returns the number of blocks swept by this call.
    ///
    /// The escape hatch for code that needs the post-sweep heap in full —
    /// exact page/block accounting before a census or dump, and the
    /// collector before it clears mark bits for the next cycle. A no-op
    /// (returning 0) when nothing is pending, so callers need not check.
    pub fn finish_sweep(&mut self) -> u32 {
        if self.pending_blocks == 0 {
            return 0;
        }
        let t0 = Instant::now();
        let mut swept = 0;
        let ids: Vec<BlockId> = self
            .blocks
            .iter()
            .flatten()
            .filter(|b| b.pending)
            .map(|b| b.id)
            .collect();
        for id in ids {
            if self.sweep_pending_block(id) {
                swept += 1;
            }
        }
        for q in &mut self.pending_small {
            q.clear();
        }
        self.pending_large.clear();
        debug_assert_eq!(self.pending_blocks, 0, "every pending block swept");
        self.lazy_totals.sweep_time += t0.elapsed();
        swept
    }

    /// Blocks currently awaiting their deferred sweep (0 outside lazy mode
    /// or once the allocator has caught up).
    pub fn pending_sweep_blocks(&self) -> u32 {
        self.pending_blocks
    }

    /// The mark-bitmap epoch: how many lazy snapshots this heap has taken.
    /// Pending blocks hold mark bits from the current epoch.
    pub fn sweep_epoch(&self) -> u64 {
        self.sweep_epoch
    }

    /// Cumulative realized deferred-sweep work; see [`LazySweepStats`].
    pub fn lazy_sweep_totals(&self) -> LazySweepStats {
        self.lazy_totals
    }

    /// The live objects whose block owns `page` (the card-scanning helper
    /// for generational mode: a dirty page's old composite objects must be
    /// rescanned at a minor collection).
    /// Allocation-free: yields objects straight off the block's bitmaps,
    /// so per-page scans (dirty-card rescans run one per dirty page, every
    /// minor collection) build no intermediate `Vec`.
    pub fn objects_on_page(&self, page: PageIdx) -> impl Iterator<Item = ObjRef> + '_ {
        self.page_map
            .get(page)
            .and_then(|id| self.block(id))
            .into_iter()
            .flat_map(move |block| {
                block
                    .allocated
                    .iter_ones()
                    .filter(|&slot| self.slot_live(block, slot))
                    .map(|slot| ObjRef {
                        block: block.id(),
                        index: slot,
                        base: block.slot_base(slot),
                        bytes: block.obj_bytes(),
                        kind: block.kind(),
                    })
            })
    }

    /// Is the object in the old generation?
    ///
    /// Survivors on pending (lazily unswept) blocks count as old: every
    /// sweep survivor is tenured, so the deferred sweep will make it so.
    pub fn is_old(&self, obj: ObjRef) -> bool {
        self.block(obj.block)
            .is_some_and(|b| b.is_old(obj.index) || b.pending)
    }

    /// Counts (young, old) live objects — a full pass, for diagnostics.
    ///
    /// Pending (lazily unswept) blocks report their survivors as old: every
    /// sweep survivor is tenured, so the deferred sweep will leave exactly
    /// that census behind.
    pub fn generation_census(&self) -> (u64, u64) {
        let mut young = 0;
        let mut old = 0;
        for block in self.blocks() {
            for slot in block.allocated.iter_ones() {
                if !self.slot_live(block, slot) {
                    continue;
                }
                if block.pending || block.old.get(slot) {
                    old += 1;
                } else {
                    young += 1;
                }
            }
        }
        (young, old)
    }

    fn release_block(&mut self, id: BlockId) {
        let block = self.blocks[id.0 as usize]
            .take()
            .expect("released block is live");
        self.block_count -= 1;
        for i in 0..block.npages() {
            self.page_map
                .clear(PageIdx::new(block.base().page().raw() + i));
        }
        // Drop the block from its free list (explicit-free path; a sweep
        // never lists a block it releases).
        if let BlockShape::Small { class } = block.shape {
            let fli = fl_index(class, block.kind);
            self.free_lists[fli].remove_block(&block);
            if self.cursors[fli] == Some(id) {
                self.cursors[fli] = None;
            }
        }
        self.release_pages(block.base().page(), block.npages());
    }

    /// Explicitly frees the object based at `addr` (the `malloc/free`
    /// baseline path; a garbage-collected program calls [`Heap::sweep`]
    /// instead).
    ///
    /// # Errors
    ///
    /// [`HeapError::NotAnObject`] if `addr` is not an object base;
    /// [`HeapError::DoubleFree`] if the slot is already free.
    pub fn free_object(&mut self, addr: Addr) -> Result<(), HeapError> {
        // A pending block must realize its deferred sweep first: the
        // slot's fate was decided at the snapshot, and explicit free is
        // defined against the post-sweep state (freeing an object the
        // collector already condemned reports `NotAnObject`).
        if let Some((b, _)) = self.slot_of(addr) {
            if b.pending {
                let id = b.id();
                let t0 = Instant::now();
                self.sweep_pending_block(id);
                self.lazy_totals.sweep_time += t0.elapsed();
            }
        }
        let (block, slot) = match self.slot_of(addr) {
            Some((b, s)) if b.slot_base(s) == addr => (b.id(), s),
            _ => return Err(HeapError::NotAnObject { addr }),
        };
        let (obj_bytes, unused, small) = {
            let b = self.block_mut(block);
            if !b.allocated.get(slot) {
                return Err(HeapError::DoubleFree { addr });
            }
            b.allocated.clear(slot);
            b.marked.clear(slot);
            b.clear_descriptor(slot);
            let small = match b.shape {
                BlockShape::Small { class } => Some((class, b.kind)),
                BlockShape::Large { .. } => None,
            };
            (b.obj_bytes(), b.is_unused(), small)
        };
        self.bytes_live -= u64::from(obj_bytes);
        if unused {
            self.release_block(block);
        } else if let Some((class, kind)) = small {
            let b = self.blocks[block.0 as usize]
                .as_ref()
                .expect("block is live");
            self.free_lists[fl_index(class, kind)].add_slot(b, slot);
        }
        Ok(())
    }

    /// Iterates over live blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        self.blocks.iter().flatten()
    }

    /// Iterates over all live objects.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.blocks().flat_map(move |b| {
            b.allocated
                .iter_ones()
                .filter(move |&slot| self.slot_live(b, slot))
                .map(move |slot| ObjRef {
                    block: b.id(),
                    index: slot,
                    base: b.slot_base(slot),
                    bytes: b.obj_bytes(),
                    kind: b.kind(),
                })
        })
    }

    /// Live objects in one block, honouring any pending lazy-sweep
    /// snapshot (a pending block's allocation bits still include condemned
    /// objects; this counts only the survivors).
    pub fn live_objects_in(&self, block: &Block) -> u32 {
        if !block.pending {
            return block.live_objects();
        }
        survivor_census(block, self.pending_minor).live
    }

    /// Marks the start of a collection cycle for allocation-rate
    /// accounting, and returns quarantined pages to the free runs (their
    /// blacklist entries may have aged out; they will be re-quarantined on
    /// the next denial otherwise).
    pub fn note_collection(&mut self) {
        self.bytes_since_collect = 0;
        for page in std::mem::take(&mut self.quarantined) {
            self.release_pages(PageIdx::new(page), 1);
        }
        // The placement predicate (the blacklist) may relent now; the
        // rejected-prefix cursor is only sound within one collection epoch.
        self.quarantine_scan = 0;
    }

    /// Pages currently parked in the quarantine.
    pub fn quarantined_pages(&self) -> u32 {
        self.quarantined.len() as u32
    }

    /// Aggregate statistics. Constant-time: every field is maintained
    /// incrementally (the free-run total and length multiset move on
    /// carve/coalesce, the block count on block creation/release), so the
    /// allocation hot path may consult this without walking runs or
    /// blocks. [`Heap::recomputed_stats`] is the from-scratch cross-check.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            mapped_pages: self.mapped_pages,
            free_pages: self.free_run_pages + self.quarantined.len() as u32,
            largest_free_run: self.run_lengths.last_key_value().map_or(0, |(&len, _)| len),
            bytes_live: self.bytes_live,
            bytes_allocated_total: self.bytes_allocated_total,
            bytes_since_collect: self.bytes_since_collect,
            blocks: self.block_count,
        }
    }

    /// Pages currently mapped as heap — the narrow O(1) accessor for the
    /// allocation hot path's growth check.
    pub fn mapped_pages(&self) -> u32 {
        self.mapped_pages
    }

    /// Bytes allocated since the last collection — the narrow O(1)
    /// accessor for the collection-trigger check.
    pub fn bytes_since_collect(&self) -> u64 {
        self.bytes_since_collect
    }

    /// [`Heap::stats`] recomputed from scratch by walking the free runs
    /// and blocks — the validation oracle for the incremental counters
    /// (the heap proptests assert both agree after arbitrary traces).
    pub fn recomputed_stats(&self) -> HeapStats {
        HeapStats {
            mapped_pages: self.mapped_pages,
            free_pages: self.free_runs.values().sum::<u32>() + self.quarantined.len() as u32,
            largest_free_run: self.free_runs.values().copied().max().unwrap_or(0),
            bytes_live: self.bytes_live,
            bytes_allocated_total: self.bytes_allocated_total,
            bytes_since_collect: self.bytes_since_collect,
            blocks: self.blocks().count() as u32,
        }
    }

    /// Total objects ever allocated.
    pub fn objects_allocated_total(&self) -> u64 {
        self.objects_allocated_total
    }

    /// Aggregates live blocks into a per-size-class census, ordered by
    /// object size then kind (composite before atomic, small before large).
    /// Large-object blocks of the same object size share one row.
    pub fn size_class_census(&self) -> Vec<SizeClassCensus> {
        let mut rows: std::collections::BTreeMap<(u32, bool, bool), SizeClassCensus> =
            std::collections::BTreeMap::new();
        for b in self.blocks() {
            let large = matches!(b.shape(), BlockShape::Large { .. });
            let atomic = b.kind() == ObjectKind::Atomic;
            let row = rows
                .entry((b.obj_bytes(), large, atomic))
                .or_insert(SizeClassCensus {
                    obj_bytes: b.obj_bytes(),
                    kind: b.kind(),
                    large,
                    blocks: 0,
                    pages: 0,
                    live_objects: 0,
                    free_slots: 0,
                });
            let live = self.live_objects_in(b);
            row.blocks += 1;
            row.pages += b.npages();
            row.live_objects += live;
            row.free_slots += b.slots().saturating_sub(live);
        }
        rows.into_values().collect()
    }
}

/// One row of [`Heap::size_class_census`]: the live blocks of one object
/// size and kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeClassCensus {
    /// Object size in bytes (the size class for small blocks, the exact
    /// rounded size for large ones).
    pub obj_bytes: u32,
    /// Composite or atomic.
    pub kind: ObjectKind,
    /// Whether these are large-object blocks (one object per block).
    pub large: bool,
    /// Live blocks of this class.
    pub blocks: u32,
    /// Pages those blocks span.
    pub pages: u32,
    /// Allocated objects.
    pub live_objects: u32,
    /// Unallocated slots available without mapping new pages.
    pub free_slots: u32,
}

/// Accepts every page; the placement predicate used when blacklisting is
/// disabled.
pub fn accept_all(_page: PageIdx, _use_: PageUse) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    #[test]
    fn small_alloc_and_object_map() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(a.page(), b.page(), "same size class shares a block");
        let obj = heap
            .object_containing(a + 4)
            .expect("interior address resolves");
        assert_eq!(obj.base, a);
        assert_eq!(obj.bytes, 8);
        assert!(heap.is_object_base(a));
        assert!(!heap.is_object_base(a + 4));
        assert!(heap.object_containing(Addr::new(0x10)).is_none());
    }

    #[test]
    fn alloc_zeroes_memory() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        space.write_u32(a, 0xdeadbeef).unwrap();
        heap.free_object(a).unwrap();
        let b = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(b, a, "address-ordered free list reuses the slot");
        assert_eq!(space.read_u32(b).unwrap(), 0, "allocation zeroes");
    }

    #[test]
    fn kinds_use_separate_blocks() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Atomic, &mut accept_all)
            .unwrap();
        assert_ne!(
            a.page(),
            b.page(),
            "atomic and composite never share a block"
        );
        assert_eq!(
            heap.object_containing(a).unwrap().kind,
            ObjectKind::Composite
        );
        assert_eq!(heap.object_containing(b).unwrap().kind, ObjectKind::Atomic);
    }

    #[test]
    fn large_alloc_spans_pages() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 100_000, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let obj = heap
            .object_containing(a + 99_999)
            .expect("interior of large object");
        assert_eq!(obj.base, a);
        assert_eq!(obj.bytes, 100_000);
        // Every spanned page resolves to the object.
        for p in 0..(100_000u32.div_ceil(PAGE_BYTES)) {
            assert!(heap.object_containing(a + p * PAGE_BYTES).is_some());
        }
        assert!(
            heap.object_containing(a + 100_000).is_none(),
            "past the end"
        );
    }

    #[test]
    fn predicate_steers_placement() {
        let (mut space, mut heap) = setup();
        // Forbid the first 4 pages of the heap.
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut pred = |p: PageIdx, _u: PageUse| p.raw() >= base_page + 4;
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert!(a.page().raw() >= base_page + 4);
    }

    #[test]
    fn predicate_distinguishes_page_use() {
        let (mut space, mut heap) = setup();
        let mut uses = Vec::new();
        let mut pred = |_p: PageIdx, u: PageUse| {
            uses.push(u);
            true
        };
        heap.alloc(&mut space, 2 * PAGE_BYTES, ObjectKind::Atomic, &mut pred)
            .unwrap();
        assert_eq!(
            uses[..2],
            [
                PageUse::LargeFirst(ObjectKind::Atomic),
                PageUse::LargeBody(ObjectKind::Atomic)
            ]
        );
    }

    #[test]
    fn out_of_memory_reports_denied_pages() {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            max_heap_bytes: 64 << 10, // 16 pages
            growth_pages: 4,
            ..HeapConfig::default()
        });
        let mut deny_all = |_p: PageIdx, _u: PageUse| false;
        let err = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut deny_all)
            .unwrap_err();
        match err {
            HeapError::OutOfMemory {
                requested: 8,
                pages_denied,
            } => {
                assert!(
                    pages_denied >= 16,
                    "every mapped page was denied: {pages_denied}"
                )
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn sweep_reclaims_unmarked() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        let obj_a = heap.object_containing(a).unwrap();
        assert!(heap.set_marked(obj_a));
        assert!(!heap.set_marked(obj_a), "second mark reports already-set");
        let stats = heap.sweep();
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_live, 1);
        assert!(heap.object_containing(a).is_some());
        assert!(heap.object_containing(b).is_none(), "b was reclaimed");
    }

    #[test]
    fn heap_is_sync() {
        // Parallel mark workers share `&Heap` across scoped threads.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Heap>();
    }

    #[test]
    fn shared_marking_agrees_with_exclusive() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        let obj = heap.object_containing(a).unwrap();
        let mut cache = PageResolveCache::new();
        let mut mark = |mode| heap.mark_candidate(a + 4, &mut cache, mode, false, |_| true);
        assert_eq!(
            mark(MarkMode::Atomic),
            Some((obj, true)),
            "first shared mark wins"
        );
        assert_eq!(mark(MarkMode::Atomic), Some((obj, false)), "already marked");
        assert_eq!(
            mark(MarkMode::Single),
            Some((obj, false)),
            "single-worker path agrees"
        );
        assert!(!heap.set_marked(obj), "exclusive path sees the shared mark");
        assert!(heap.is_marked(obj));
        let stats = heap.sweep();
        assert_eq!(stats.objects_live, 1);
    }

    #[test]
    fn sweep_releases_empty_blocks() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(
                &mut space,
                2 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(heap.stats().blocks, 1);
        heap.clear_marks();
        let stats = heap.sweep();
        assert_eq!(stats.blocks_released, 1);
        assert_eq!(heap.stats().blocks, 0);
        assert!(heap.object_containing(a).is_none());
        // The pages are reusable.
        let b = heap
            .alloc(
                &mut space,
                2 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(b, a, "released pages are reused lowest-first");
    }

    #[test]
    fn explicit_free_and_double_free() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 32, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.free_object(a).unwrap();
        assert_eq!(heap.free_object(a), Err(HeapError::NotAnObject { addr: a }));
        assert_eq!(
            heap.free_object(Addr::new(1)),
            Err(HeapError::NotAnObject { addr: Addr::new(1) })
        );
    }

    #[test]
    fn double_free_detected_when_block_survives() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let _b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.free_object(a).unwrap();
        assert_eq!(heap.free_object(a), Err(HeapError::DoubleFree { addr: a }));
    }

    #[test]
    fn stats_track_liveness() {
        let (mut space, mut heap) = setup();
        assert_eq!(heap.stats().bytes_live, 0);
        let a = heap
            .alloc(&mut space, 100, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let s = heap.stats();
        assert_eq!(s.bytes_live, 128, "100 bytes rounds to the 128-byte class");
        assert_eq!(s.bytes_allocated_total, 128);
        assert_eq!(s.bytes_since_collect, 128);
        heap.note_collection();
        assert_eq!(heap.stats().bytes_since_collect, 0);
        heap.free_object(a).unwrap();
        assert_eq!(heap.stats().bytes_live, 0);
        assert_eq!(heap.objects_allocated_total(), 1);
    }

    #[test]
    fn heap_range_grows() {
        let (mut space, mut heap) = setup();
        assert!(!heap.in_heap_range(Addr::new(0x0003_0000)));
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert!(heap.in_heap_range(Addr::new(0x0003_0000)));
        assert_eq!(heap.lo(), Some(Addr::new(0x0003_0000)));
        assert_eq!(heap.hi(), Addr::new(0x0003_0000) + 16 * PAGE_BYTES);
    }

    #[test]
    fn expansion_skips_foreign_segments() {
        let (mut space, mut heap) = setup();
        // Drop a foreign segment right where the heap wants to grow.
        space
            .map(SegmentSpec::new(
                "lib",
                SegmentKind::Data,
                Addr::new(0x0003_0000),
                PAGE_BYTES,
            ))
            .unwrap();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert!(
            a.raw() >= 0x0003_1000,
            "heap skipped the occupied page, got {a}"
        );
    }

    #[test]
    fn live_objects_enumeration() {
        let (mut space, mut heap) = setup();
        let mut addrs: Vec<Addr> = (0..5)
            .map(|_| {
                heap.alloc(&mut space, 24, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        let mut live: Vec<Addr> = heap.live_objects().map(|o| o.base).collect();
        addrs.sort_unstable();
        live.sort_unstable();
        assert_eq!(addrs, live);
    }

    #[test]
    fn free_run_coalescing_allows_large_reuse() {
        let (mut space, mut heap) = setup();
        // Two adjacent large objects.
        let a = heap
            .alloc(
                &mut space,
                3 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        let b = heap
            .alloc(
                &mut space,
                3 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        heap.free_object(a).unwrap();
        heap.free_object(b).unwrap();
        // The coalesced 6-page run satisfies a 6-page request in place.
        let c = heap
            .alloc(
                &mut space,
                6 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(c, a.min(b));
    }
}

#[cfg(test)]
mod lazy_sweep_tests {
    use super::*;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    fn mark(heap: &mut Heap, addr: Addr) {
        let obj = heap.object_containing(addr).expect("marked object is live");
        heap.set_marked(obj);
    }

    /// The torture suite's census-consistency invariant, checkable while
    /// blocks are pending: the object walk, the `bytes_live` counter, the
    /// generation census, and the size-class census all describe the same
    /// heap.
    fn assert_census_consistent(heap: &Heap) {
        let (mut objs, mut bytes) = (0u64, 0u64);
        for o in heap.live_objects() {
            objs += 1;
            bytes += u64::from(o.bytes);
        }
        assert_eq!(heap.stats().bytes_live, bytes, "bytes_live vs object walk");
        let (young, old) = heap.generation_census();
        assert_eq!(young + old, objs, "generation census vs object walk");
        let by_class: u64 = heap
            .size_class_census()
            .iter()
            .map(|r| u64::from(r.live_objects))
            .sum();
        assert_eq!(by_class, objs, "size-class census vs object walk");
    }

    #[test]
    fn snapshot_defers_work_but_reports_exact_counts() {
        let (mut space, mut heap) = setup();
        let addrs: Vec<Addr> = (0..8)
            .map(|_| {
                heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                mark(&mut heap, a);
            }
        }
        let stats = heap.sweep_lazy();
        assert_eq!(stats.objects_freed, 4);
        assert_eq!(stats.bytes_freed, 4 * 16);
        assert_eq!(stats.objects_live, 4);
        assert_eq!(stats.blocks_deferred, 1);
        assert_eq!(heap.pending_sweep_blocks(), 1);
        assert_eq!(heap.sweep_epoch(), 1);
        // No reclamation work has run yet...
        assert_eq!(heap.lazy_sweep_totals().objects_freed, 0);
        // ...yet every liveness view already shows the post-sweep heap.
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(heap.object_containing(a).is_some(), i % 2 == 0);
        }
        assert_census_consistent(&heap);
    }

    #[test]
    fn allocation_slow_path_reloads_the_free_list() {
        let (mut space, mut heap) = setup();
        let addrs: Vec<Addr> = (0..8)
            .map(|_| {
                heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        for &a in addrs.iter().skip(4) {
            mark(&mut heap, a);
        }
        heap.sweep_lazy();
        assert_eq!(heap.pending_sweep_blocks(), 1);
        // The next allocation of this class sweeps the pending block and
        // recycles the lowest condemned slot (address-ordered policy).
        let fresh = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(fresh, addrs[0], "condemned slot recycled");
        assert_eq!(heap.pending_sweep_blocks(), 0);
        let totals = heap.lazy_sweep_totals();
        assert_eq!(totals.blocks_swept, 1);
        assert_eq!(totals.objects_freed, 4);
        assert_census_consistent(&heap);
    }

    #[test]
    fn finish_sweep_completes_and_matches_eager() {
        // The same trace through an eager heap and a lazy heap ends in the
        // same state: identical sweep tallies, live sets, and page counts.
        let trace = |lazy: bool| {
            let (mut space, mut heap) = setup();
            let mut addrs = Vec::new();
            for i in 0..60u32 {
                let bytes = 8 + (i % 5) * 24;
                let kind = if i % 7 == 0 {
                    ObjectKind::Atomic
                } else {
                    ObjectKind::Composite
                };
                addrs.push(
                    heap.alloc(&mut space, bytes, kind, &mut accept_all)
                        .unwrap(),
                );
            }
            // A couple of large objects, one condemned.
            addrs.push(
                heap.alloc(&mut space, 20_000, ObjectKind::Composite, &mut accept_all)
                    .unwrap(),
            );
            addrs.push(
                heap.alloc(&mut space, 9_000, ObjectKind::Atomic, &mut accept_all)
                    .unwrap(),
            );
            for (i, &a) in addrs.iter().enumerate() {
                if i % 3 == 0 {
                    mark(&mut heap, a);
                }
            }
            let stats = if lazy {
                heap.sweep_lazy()
            } else {
                heap.sweep()
            };
            let swept = if lazy { heap.finish_sweep() } else { 0 };
            let mut live: Vec<u32> = heap.live_objects().map(|o| o.base.raw()).collect();
            live.sort_unstable();
            (stats, swept, live, heap.stats(), heap.lazy_sweep_totals())
        };
        let (eager, _, eager_live, eager_heap, _) = trace(false);
        let (lazy, swept, lazy_live, lazy_heap, totals) = trace(true);
        assert_eq!(lazy.objects_freed, eager.objects_freed);
        assert_eq!(lazy.bytes_freed, eager.bytes_freed);
        assert_eq!(lazy.objects_live, eager.objects_live);
        assert_eq!(lazy.bytes_live, eager.bytes_live);
        assert_eq!(lazy.objects_promoted, eager.objects_promoted);
        assert_eq!(u32::try_from(totals.blocks_swept).unwrap(), swept);
        assert_eq!(totals.blocks_released, u64::from(eager.blocks_released));
        assert_eq!(totals.objects_freed, eager.objects_freed);
        assert_eq!(totals.bytes_freed, eager.bytes_freed);
        assert_eq!(lazy_live, eager_live);
        assert_eq!(lazy_heap, eager_heap);
    }

    #[test]
    fn slow_path_only_sweeps_the_requested_class() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 100, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        mark(&mut heap, b);
        heap.sweep_lazy();
        assert_eq!(heap.pending_sweep_blocks(), 2);
        heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(
            heap.pending_sweep_blocks(),
            1,
            "the other class's block stays pending"
        );
        assert_census_consistent(&heap);
    }

    #[test]
    fn out_of_memory_finishes_the_sweep_before_failing() {
        let space = &mut AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 16 * u64::from(PAGE_BYTES),
            growth_pages: 4,
            ..HeapConfig::default()
        });
        // Fill 12 pages with small garbage (16-byte class, 256 slots/page).
        for _ in 0..(12 * 256) {
            heap.alloc(space, 16, ObjectKind::Composite, &mut accept_all)
                .unwrap();
        }
        heap.sweep_lazy();
        assert_eq!(heap.pending_sweep_blocks(), 12);
        // An 8-page object does not fit in the 4 never-used pages; the
        // allocator must complete the deferred sweep instead of reporting
        // out-of-memory.
        let big = heap
            .alloc(
                space,
                8 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .expect("finish_sweep releases the pages this request needs");
        assert!(heap.object_containing(big).is_some());
        assert_eq!(heap.pending_sweep_blocks(), 0);
        assert_eq!(heap.lazy_sweep_totals().blocks_released, 12);
    }

    #[test]
    fn explicit_free_realizes_the_pending_sweep_first() {
        let (mut space, mut heap) = setup();
        let keep = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let doomed = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, keep);
        heap.sweep_lazy();
        // Freeing an object the collector already condemned reports the
        // same error an eager sweep would: the slot is gone.
        assert_eq!(
            heap.free_object(doomed),
            Err(HeapError::DoubleFree { addr: doomed })
        );
        assert_eq!(heap.pending_sweep_blocks(), 0, "the block got swept");
        heap.free_object(keep).expect("survivor frees cleanly");
        assert_eq!(heap.stats().bytes_live, 0);
    }

    #[test]
    fn minor_snapshot_defers_promotion_but_censuses_agree() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        heap.sweep(); // tenure `a`
        let young_survivor = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let young_garbage = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        mark(&mut heap, young_survivor);
        let stats = heap.sweep_young_lazy();
        assert_eq!(stats.objects_live, 2, "old `a` + marked young");
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_promoted, 1);
        assert!(heap.object_containing(a).is_some());
        assert!(heap.object_containing(young_survivor).is_some());
        assert!(heap.object_containing(young_garbage).is_none());
        // Pending survivors census as old: that is what the deferred sweep
        // leaves behind.
        assert_eq!(heap.generation_census(), (0, 2));
        assert_census_consistent(&heap);
        heap.finish_sweep();
        assert_eq!(heap.generation_census(), (0, 2));
        assert_eq!(heap.lazy_sweep_totals().objects_promoted, 1);
        let obj = heap.object_containing(young_survivor).unwrap();
        assert!(heap.is_old(obj), "deferred sweep tenured the survivor");
    }

    #[test]
    fn eager_sweep_supersedes_a_pending_snapshot() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        heap.sweep_lazy();
        assert_eq!(heap.pending_sweep_blocks(), 1);
        let stats = heap.sweep();
        assert_eq!(heap.pending_sweep_blocks(), 0);
        assert_eq!(stats.objects_live, 1);
        assert_eq!(stats.blocks_deferred, 0);
        assert_census_consistent(&heap);
    }
}

#[cfg(test)]
mod quarantine_tests {
    use super::*;
    use crate::accept_all;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    #[test]
    fn denied_pages_are_quarantined_not_rescanned() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        // Deny the first 8 pages for composite use.
        let denials = std::cell::Cell::new(0u32);
        let mut pred = |p: PageIdx, u: PageUse| {
            if p.raw() < base_page + 8 && matches!(u, PageUse::SmallBlock(ObjectKind::Composite)) {
                denials.set(denials.get() + 1);
                false
            } else {
                true
            }
        };
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert!(a.page().raw() >= base_page + 8);
        assert_eq!(heap.quarantined_pages(), 8);
        let first_round = denials.get();
        assert_eq!(first_round, 8, "each denied page was checked exactly once");
        // Exhaust the block so the next allocation needs a fresh page: the
        // quarantined pages are NOT re-examined (footnote 3's fix).
        for _ in 0..1024 {
            heap.alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
                .unwrap();
        }
        assert_eq!(
            denials.get(),
            first_round,
            "quarantined pages never rescanned"
        );
    }

    #[test]
    fn atomic_allocation_reuses_quarantined_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        // Composite is denied on page 0; atomic is allowed anywhere
        // (observation 6's exemption).
        let mut pred = |p: PageIdx, u: PageUse| {
            p.raw() != base_page || matches!(u, PageUse::SmallBlock(ObjectKind::Atomic))
        };
        let c = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert_ne!(c.page().raw(), base_page);
        assert_eq!(heap.quarantined_pages(), 1);
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Atomic, &mut pred)
            .unwrap();
        assert_eq!(a.page().raw(), base_page, "atomic drew from the quarantine");
        assert_eq!(heap.quarantined_pages(), 0);
    }

    #[test]
    fn note_collection_requeues_quarantined_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut deny_first = |p: PageIdx, _u: PageUse| p.raw() != base_page;
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut deny_first)
            .unwrap();
        assert_eq!(heap.quarantined_pages(), 1);
        heap.note_collection();
        assert_eq!(heap.quarantined_pages(), 0);
        // The page is usable again once the predicate (blacklist) relents.
        let b = heap
            .alloc(&mut space, 2048, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let _ = b;
        let mut seen_first = false;
        for _ in 0..64 {
            let x = heap
                .alloc(&mut space, 2048, ObjectKind::Composite, &mut accept_all)
                .unwrap();
            if x.page().raw() == base_page {
                seen_first = true;
            }
        }
        assert!(seen_first, "requeued page returned to service");
    }

    #[test]
    fn quarantine_counts_in_free_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut deny_first = |p: PageIdx, _u: PageUse| p.raw() != base_page;
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut deny_first)
            .unwrap();
        let stats = heap.stats();
        assert_eq!(stats.mapped_pages, 16);
        // 16 mapped - 1 block page = 15 free, of which 1 quarantined.
        assert_eq!(stats.free_pages, 15);
        assert_eq!(heap.quarantined_pages(), 1);
    }

    #[test]
    fn descriptor_offsets_always_ascend() {
        // Scan loops stop at the first out-of-range offset, which is only
        // sound if pointer_offsets is strictly ascending — pin that down
        // even for unsorted, duplicated constructor input.
        let desc = Descriptor::with_pointers_at(8, &[5, 1, 3, 1, 5]);
        let offsets: Vec<u32> = desc.pointer_offsets().collect();
        assert_eq!(offsets, vec![1, 3, 5]);
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]),
            "offsets are strictly ascending"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn descriptor_rejects_out_of_range_offsets() {
        let _ = Descriptor::with_pointers_at(2, &[2]);
    }

    #[test]
    fn resolve_cache_matches_uncached_lookups() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 24, ObjectKind::Atomic, &mut accept_all)
            .unwrap();
        let mut cache = PageResolveCache::new();
        // Valid bases, interiors, the gap between objects, and addresses
        // far outside the heap must all resolve identically.
        // (Distinct cache slots: a direct-mapped conflict would make the
        // warm-pass assertion below count evictions, not correctness.)
        let probes = [
            a,
            a + 4,
            a + 8,
            b,
            b + 20,
            Addr::new(0x10),
            Addr::new(0x712_3000),
        ];
        let resolve = |addr, cache: &mut PageResolveCache| {
            heap.mark_candidate(addr, cache, MarkMode::Single, false, |_| true)
                .map(|(obj, _)| obj)
        };
        for addr in probes {
            assert_eq!(
                heap.object_containing(addr),
                resolve(addr, &mut cache),
                "cached resolution diverged at {addr}"
            );
        }
        let misses_after_first_pass = cache.misses();
        assert!(misses_after_first_pass > 0, "cold cache misses");
        assert_eq!(cache.hits() + cache.misses(), probes.len() as u64);
        // A second pass over the same pages is all hits (the heap is
        // unchanged, so the page-map epoch is unchanged).
        for addr in probes {
            assert_eq!(heap.object_containing(addr), resolve(addr, &mut cache));
        }
        assert_eq!(
            cache.misses(),
            misses_after_first_pass,
            "warm pass never misses"
        );
        assert!(cache.hits() >= probes.len() as u64);
    }

    #[test]
    fn resolve_cache_flushes_when_the_page_map_changes() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let mut cache = PageResolveCache::new();
        let resolve = |heap: &Heap, cache: &mut PageResolveCache| {
            heap.mark_candidate(a, cache, MarkMode::Single, false, |_| true)
                .map(|(obj, _)| obj)
        };
        resolve(&heap, &mut cache).unwrap();
        resolve(&heap, &mut cache).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Mapping a block of a new size class mutates the page map and
        // bumps its epoch: the next lookup must flush and re-walk, not
        // serve the stale entry.
        heap.alloc(&mut space, 2048, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let resolved = resolve(&heap, &mut cache);
        assert_eq!(resolved, heap.object_containing(a));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 2),
            "epoch change forces a page-map walk"
        );
        // Freeing every object releases pages (another epoch bump): a
        // cached "this page has block X" must not outlive the block.
        heap.clear_marks();
        heap.sweep();
        assert_eq!(
            resolve(&heap, &mut cache),
            None,
            "released block is not resurrected by the cache"
        );
        assert_eq!(heap.object_containing(a), None);
    }
}

//! The conservative mark phase with blacklisting — figure 2 of the paper.
//!
//! ```text
//! mark(p) {
//!     if p is not a valid object address
//!         if p is in the vicinity of the heap
//!             add p to blacklist
//!         return
//!     if p is marked return
//!     set mark bit for p
//!     for each field q in the object referenced by p
//!         mark(q)
//! }
//! ```
//!
//! The recursion is replaced by an explicit mark stack; "valid object
//! address" is the heap's object map filtered by the configured
//! [`PointerPolicy`](crate::PointerPolicy); "vicinity of the heap" is the
//! current heap address range plus a growth window, since such addresses
//! "could conceivably become valid object addresses as a result of later
//! allocation".

use crate::{Blacklist, GcConfig, PointerPolicy, RootClass};
use gc_heap::{Heap, MarkMode, ObjRef, ObjectKind, PageResolveCache};
use gc_vmspace::{Addr, AddressSpace, Endian, PageIdx, Segment, SegmentHint, PAGE_BYTES};

/// Counters produced by one mark phase.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MarkOutcome {
    pub root_words: u64,
    pub heap_words: u64,
    pub candidates_in_range: u64,
    pub valid_pointers: u64,
    pub false_refs_near_heap: u64,
    pub objects_marked: u64,
    pub bytes_marked: u64,
    /// Candidate resolutions answered by the page-resolve cache.
    pub resolve_hits: u64,
    /// Cached resolutions that had to walk the page map anyway (cold
    /// entry, conflict eviction, or epoch flush). Both counters stay 0
    /// with the cache disabled.
    pub resolve_misses: u64,
}

impl MarkOutcome {
    /// Adds another outcome's counters into this one (accumulating across
    /// marker instances, increments, or parallel workers).
    pub(crate) fn merge(&mut self, other: MarkOutcome) {
        self.root_words += other.root_words;
        self.heap_words += other.heap_words;
        self.candidates_in_range += other.candidates_in_range;
        self.valid_pointers += other.valid_pointers;
        self.false_refs_near_heap += other.false_refs_near_heap;
        self.objects_marked += other.objects_marked;
        self.bytes_marked += other.bytes_marked;
        self.resolve_hits += other.resolve_hits;
        self.resolve_misses += other.resolve_misses;
    }
}

/// Where figure 2's "add p to blacklist" goes: straight into the
/// [`Blacklist`] on the serial path, into a worker's page list (merged in
/// page order after the join) on the parallel one.
pub(crate) trait FalseRefs {
    fn note(&mut self, page: PageIdx, source: RootClass);
}

impl FalseRefs for Blacklist {
    #[inline]
    fn note(&mut self, page: PageIdx, source: RootClass) {
        self.note_false_ref(page, source);
    }
}

impl FalseRefs for Vec<u32> {
    #[inline]
    fn note(&mut self, page: PageIdx, _source: RootClass) {
        self.push(page.raw());
    }
}

/// Everything figure 2's candidate step reads and never writes, shared by
/// the serial [`Marker`] and every parallel mark worker.
#[derive(Clone, Copy)]
pub(crate) struct MarkKernel<'a> {
    space: &'a AddressSpace,
    heap: &'a Heap,
    endian: Endian,
    stride: usize,
    policy: PointerPolicy,
    blacklisting: bool,
    resolve_cache: bool,
    /// Vicinity of the heap: `[vic_lo, vic_hi)` as 64-bit bounds.
    vic_lo: u64,
    vic_hi: u64,
    /// Minor mode: old objects are generation boundaries — never marked or
    /// traced; the young reachable set is found from roots plus dirty old
    /// objects.
    minor: bool,
    pub(crate) mode: MarkMode,
}

impl<'a> MarkKernel<'a> {
    /// The blacklist vicinity is deliberately **asymmetric**: it extends
    /// [`growth_window_pages`](GcConfig::growth_window_pages) *above* the
    /// heap break but not below `lo`. §2 blacklists invalid candidates
    /// that "could conceivably become valid object addresses as a result
    /// of later allocation" — and the heap only ever expands upward
    /// (`next_expansion` starts at `heap_base` and is monotone; released
    /// pages are recycled in place, never mapped below `lo`), so an
    /// address below the heap can never become a valid object address.
    /// Extending the window below would only blacklist pages the
    /// allocator can never use — with the default 8192-page window it
    /// would reach address 0 and blacklist every small integer, inflating
    /// the blacklist without preventing a single false retention. The
    /// dual-heap oracle confirms Table 1 is unchanged either way: `vic_lo`
    /// only gates blacklist insertion, never candidate resolution (see
    /// EXPERIMENTS.md).
    pub(crate) fn new(space: &'a AddressSpace, heap: &'a Heap, config: &GcConfig) -> Self {
        let base = config.heap.heap_base;
        let lo = heap.lo().unwrap_or(base).min(base);
        let hi = u64::from(heap.hi().raw())
            + u64::from(config.growth_window_pages) * u64::from(PAGE_BYTES);
        MarkKernel {
            space,
            heap,
            endian: space.endian(),
            stride: config.scan_alignment.stride() as usize,
            policy: config.pointer_policy,
            blacklisting: config.blacklisting,
            resolve_cache: config.resolve_cache,
            vic_lo: u64::from(lo.raw()),
            vic_hi: hi.min(1 << 32),
            minor: false,
            mode: MarkMode::Single,
        }
    }

    /// A fresh loop state with this kernel's kind of resolve cache
    /// ([`GcConfig::resolve_cache`]; off = one that keeps and counts
    /// nothing).
    pub(crate) fn state(&self, stack: Vec<ObjRef>) -> MarkState {
        MarkState {
            out: MarkOutcome::default(),
            cache: if self.resolve_cache {
                PageResolveCache::new()
            } else {
                PageResolveCache::disabled()
            },
            hint: SegmentHint::new(),
            stack,
        }
    }

    /// Figure 2's `mark(p)` for a single candidate word: the one candidate
    /// step of every scan — roots, drains, dirty pages, finalizer
    /// resurrection and the parallel workers.
    #[inline(always)]
    fn consider<F: FalseRefs>(
        &self,
        value: u32,
        source: RootClass,
        out: &mut MarkOutcome,
        cache: &mut PageResolveCache,
        stack: &mut Vec<ObjRef>,
        false_refs: &mut F,
    ) {
        let v = u64::from(value);
        if v < self.vic_lo || v >= self.vic_hi {
            return;
        }
        out.candidates_in_range += 1;
        let addr = Addr::new(value);
        let policy = self.policy;
        let hit =
            self.heap
                .mark_candidate(addr, cache, self.mode, self.minor, |base| match policy {
                    PointerPolicy::AllInterior => true,
                    PointerPolicy::FirstPage => addr.offset_from(base) < PAGE_BYTES,
                    PointerPolicy::BaseOnly => addr == base,
                });
        match hit {
            Some((obj, newly)) => {
                out.valid_pointers += 1;
                if newly {
                    push_marked(obj, out, stack);
                }
            }
            None => {
                // p is not a valid object address but is in the vicinity of
                // the heap: blacklist it.
                out.false_refs_near_heap += 1;
                if self.blacklisting {
                    false_refs.note(addr.page(), source);
                }
            }
        }
    }

    /// Scans one marked composite object, feeding each field word to
    /// [`consider`](Self::consider) and counting the words examined.
    ///
    /// This is **the** object-scan kernel: the serial drain, the budgeted
    /// incremental drain, the dirty-page rescan, and the parallel workers
    /// all route through it, so every scan path agrees on
    ///
    /// * the typed fast path — an object with a registered
    ///   [`Descriptor`](gc_heap::Descriptor) has only its declared pointer
    ///   offsets read (the "less conservative" end of the paper's
    ///   spectrum); its data words can never be misidentified as pointers,
    ///   on *any* path (dirty-page rescans included);
    /// * the short-object guard — objects under one word (`bytes < 4`)
    ///   scan zero words, typed or not;
    /// * the early stop — descriptor offsets ascend (guaranteed by
    ///   [`Descriptor::pointer_offsets`](gc_heap::Descriptor::pointer_offsets)),
    ///   so the first offset past the object's end proves no later one
    ///   fits.
    ///
    /// The object's memory is fetched through the loop's own
    /// [`SegmentHint`] rather than the address space's shared one-entry
    /// cache, so concurrent scans cannot evict each other's segment.
    ///
    /// Always inlined, with `consider` and [`Heap::mark_candidate`]: the
    /// whole candidate step then sits in the drain loop's body, where the
    /// counters and stack live in registers. Left to the inliner, both
    /// the scan and the candidate step stayed out of line and the mark
    /// phase ran slower than the unfused code.
    #[inline(always)]
    pub(crate) fn trace<F: FalseRefs>(
        &self,
        obj: ObjRef,
        out: &mut MarkOutcome,
        cache: &mut PageResolveCache,
        hint: &mut SegmentHint,
        stack: &mut Vec<ObjRef>,
        false_refs: &mut F,
    ) {
        let bytes = self
            .space
            .bytes_at_hinted(obj.base, obj.bytes, hint)
            .expect("live object memory is mapped");
        if bytes.len() < 4 {
            return;
        }
        let source = RootClass::Heap;
        if let Some(desc) = self.heap.descriptor(obj) {
            for off in desc.pointer_offsets() {
                let byte_off = (off as usize) * 4;
                if byte_off + 4 > bytes.len() {
                    break;
                }
                out.heap_words += 1;
                let value = self.endian.read_u32(&bytes[byte_off..byte_off + 4]);
                self.consider(value, source, out, cache, stack, false_refs);
            }
            return;
        }
        // The word count is the loop's trip count; adding it up front keeps
        // a counter increment out of the hot scan loop.
        out.heap_words += ((bytes.len() - 4) / self.stride + 1) as u64;
        for off in (0..=bytes.len() - 4).step_by(self.stride) {
            let value = self.endian.read_u32(&bytes[off..off + 4]);
            self.consider(value, source, out, cache, stack, false_refs);
        }
    }

    /// Traces up to `budget` objects off `st`'s stack; returns `true` when
    /// the stack is empty. The counters, hint and stack are held in locals
    /// for the whole loop and written back once, so the loop does not
    /// reload them around every call it cannot see into.
    pub(crate) fn drain<F: FalseRefs>(
        &self,
        st: &mut MarkState,
        false_refs: &mut F,
        budget: u64,
    ) -> bool {
        let (mut out, mut hint, mut stack) = (st.out, st.hint, std::mem::take(&mut st.stack));
        let cache = &mut st.cache;
        let mut traced = 0;
        while traced < budget {
            let Some(obj) = stack.pop() else {
                break;
            };
            traced += 1;
            self.trace(obj, &mut out, cache, &mut hint, &mut stack, false_refs);
        }
        let done = stack.is_empty();
        (st.out, st.hint, st.stack) = (out, hint, stack);
        done
    }
}

/// Counts a newly marked object and queues it for scanning if it may
/// hold pointers.
#[inline(always)]
fn push_marked(obj: ObjRef, out: &mut MarkOutcome, stack: &mut Vec<ObjRef>) {
    out.objects_marked += 1;
    out.bytes_marked += u64::from(obj.bytes);
    if obj.kind == ObjectKind::Composite {
        stack.push(obj);
    }
}

/// One mark loop's private working state: its counters, its resolve
/// cache, its segment hint (see [`MarkKernel::trace`]) and its mark
/// stack. The serial marker owns one; so does each parallel worker.
pub(crate) struct MarkState {
    pub(crate) out: MarkOutcome,
    pub(crate) cache: PageResolveCache,
    pub(crate) hint: SegmentHint,
    pub(crate) stack: Vec<ObjRef>,
}

impl MarkState {
    /// The loop's counters with the resolve cache's hit/miss totals folded
    /// in (both 0 with the cache off).
    pub(crate) fn outcome(&self) -> MarkOutcome {
        MarkOutcome {
            resolve_hits: self.cache.hits(),
            resolve_misses: self.cache.misses(),
            ..self.out
        }
    }
}

/// One serial mark phase over a frozen address space.
///
/// The heap is held by shared reference: marking's only heap write is the
/// mark bit, set by [`Heap::mark_candidate`] in [`MarkMode::Single`] (the
/// non-atomic shared-reference path — exactly equivalent to `&mut`
/// marking while one thread marks, which is always the case here). That
/// is what lets the scan loops borrow descriptors and page iterators
/// straight from the heap with no per-object allocation.
pub(crate) struct Marker<'a> {
    k: MarkKernel<'a>,
    blacklist: &'a mut Blacklist,
    st: MarkState,
}

impl<'a> Marker<'a> {
    pub(crate) fn new(
        space: &'a AddressSpace,
        heap: &'a Heap,
        blacklist: &'a mut Blacklist,
        config: &'a GcConfig,
    ) -> Self {
        let k = MarkKernel::new(space, heap, config);
        Marker {
            k,
            blacklist,
            st: k.state(Vec::new()),
        }
    }

    /// The phase's counters with the resolve cache's hit/miss totals
    /// folded in — what the collector should read.
    pub(crate) fn outcome(&self) -> MarkOutcome {
        self.st.outcome()
    }

    /// Switches the marker to minor (young-only) mode.
    pub(crate) fn minor(mut self) -> Self {
        self.k.minor = true;
        self
    }

    /// The candidate kernel this marker runs, for handing to a parallel
    /// drain over the same frozen heap.
    pub(crate) fn kernel(&self) -> MarkKernel<'a> {
        self.k
    }

    /// Scans the fields of the composite objects in the blocks that own
    /// the given pages, leaving what they reference on the mark stack for
    /// the drain: with `only_old`, the old objects only (a minor
    /// collection's remembered set), otherwise every live object (the
    /// incremental finish's dirty rescan).
    ///
    /// Each block is scanned once, whole, however many of its pages are
    /// dirty: pages in ascending order put a large object's pages next to
    /// each other. A pointer-free block is skipped with one check.
    pub(crate) fn scan_pages(&mut self, pages: impl IntoIterator<Item = PageIdx>, only_old: bool) {
        let (k, heap, st) = (self.k, self.k.heap, &mut self.st);
        let mut last = None;
        for page in pages {
            let Some(block) = heap.block_on_page(page) else {
                continue;
            };
            if block.kind() == ObjectKind::Atomic || last == Some(block.id()) {
                continue;
            }
            last = Some(block.id());
            for obj in heap.block_live_objects(block) {
                if only_old && !heap.is_old(obj) {
                    continue;
                }
                k.trace(
                    obj,
                    &mut st.out,
                    &mut st.cache,
                    &mut st.hint,
                    &mut st.stack,
                    &mut *self.blacklist,
                );
            }
        }
    }

    /// Scans every root segment, leaving the objects found on the mark
    /// stack for the drain.
    pub(crate) fn scan_roots(&mut self) {
        for seg in self.k.space.roots() {
            self.scan_root_segment(seg);
        }
    }

    /// Drains the mark stack to empty, tracing everything reachable from
    /// the objects currently on it.
    pub(crate) fn drain_all(&mut self) {
        self.k.drain(&mut self.st, &mut *self.blacklist, u64::MAX);
    }

    /// Seeds the mark stack (resuming an incremental cycle).
    pub(crate) fn set_stack(&mut self, stack: Vec<ObjRef>) {
        self.st.stack = stack;
    }

    /// Surrenders the remaining mark stack (pausing an incremental cycle).
    pub(crate) fn take_stack(&mut self) -> Vec<ObjRef> {
        std::mem::take(&mut self.st.stack)
    }

    /// Traces up to `budget` objects off the mark stack; returns `true`
    /// when the stack is empty (tracing complete).
    pub(crate) fn drain_budget(&mut self, budget: u32) -> bool {
        self.k
            .drain(&mut self.st, &mut *self.blacklist, u64::from(budget))
    }

    /// Read access to the heap mid-mark (for finalization queries).
    pub(crate) fn heap(&self) -> &Heap {
        self.k.heap
    }

    /// Marks the object containing `addr` and everything reachable from
    /// it (used to resurrect finalizable objects). The pointer policy does
    /// not apply, and the lookup bypasses the resolve cache so its
    /// counters measure candidate resolution only.
    pub(crate) fn mark_object(&mut self, addr: Addr) {
        let mut cache = PageResolveCache::disabled();
        let k = &self.k;
        if let Some((obj, true)) = k
            .heap
            .mark_candidate(addr, &mut cache, k.mode, k.minor, |_| true)
        {
            push_marked(obj, &mut self.st.out, &mut self.st.stack);
        }
        self.drain_all();
    }

    fn scan_root_segment(&mut self, seg: &Segment) {
        let source = RootClass::of_segment(seg.kind());
        let (k, stride) = (self.k, self.k.stride);
        // Scan only the effective root range (e.g. the live part of a
        // stack, between sp and the stack top).
        let (lo, end) = seg.scan_range();
        let from = (lo - seg.base()) as usize;
        let to = (end - u64::from(seg.base().raw())) as usize;
        let bytes = &seg.bytes()[from..to];
        // Candidates are read at machine offsets, so start at the first
        // in-range address aligned to the stride.
        let misalign = (lo.raw() % stride as u32) as usize;
        let start = (stride - misalign) % stride;
        if bytes.len() < 4 || start > bytes.len() - 4 {
            return;
        }
        let st = &mut self.st;
        for off in (start..=bytes.len() - 4).step_by(stride) {
            let value = k.endian.read_u32(&bytes[off..off + 4]);
            st.out.root_words += 1;
            k.consider(
                value,
                source,
                &mut st.out,
                &mut st.cache,
                &mut st.stack,
                &mut *self.blacklist,
            );
        }
    }
}

//! Property-based tests for the heap substrate's structural invariants.

use gc_heap::{
    accept_all, sweep_block, AtomicBitmap, Bitmap, BlockShape, BlockSweep, ExplicitHeap,
    FreeListPolicy, Heap, HeapConfig, ObjectKind, SizeClass,
};
use gc_vmspace::{Addr, AddressSpace, Endian, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

fn heap(policy: FreeListPolicy) -> (AddressSpace, Heap) {
    let space = AddressSpace::new(Endian::Big);
    let heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        max_heap_bytes: 64 << 20,
        growth_pages: 16,
        freelist_policy: policy,
        ..HeapConfig::default()
    });
    (space, heap)
}

/// Structural invariants that must hold after any operation sequence.
fn check_invariants(heap: &Heap) {
    // 1. Live object extents never overlap, and every interior address
    //    resolves back to its object.
    let mut extents: Vec<(u32, u32)> = Vec::new();
    for obj in heap.live_objects() {
        extents.push((obj.base.raw(), obj.base.raw() + obj.bytes));
        // Base and last byte resolve to the same object.
        let via_base = heap.object_containing(obj.base).expect("base resolves");
        assert_eq!(via_base.base, obj.base);
        let via_last = heap
            .object_containing(obj.base + obj.bytes - 1)
            .expect("interior resolves");
        assert_eq!(via_last.base, obj.base);
    }
    extents.sort_unstable();
    for pair in extents.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "live objects overlap: {pair:?}");
    }
    // 2. bytes_live accounting agrees with enumeration.
    let sum: u64 = heap.live_objects().map(|o| u64::from(o.bytes)).sum();
    assert_eq!(
        heap.stats().bytes_live,
        sum,
        "bytes_live accounting drifted"
    );
    // 3. Every block's pages are inside the heap range.
    for block in heap.blocks() {
        assert!(heap.in_heap_range(block.base()));
        let end = block.base() + block.npages() * PAGE_BYTES - 1;
        assert!(heap.in_heap_range(end));
        match block.shape() {
            BlockShape::Small { .. } => assert_eq!(block.npages(), 1),
            BlockShape::Large { obj_bytes } => {
                assert!(obj_bytes.div_ceil(PAGE_BYTES) == block.npages())
            }
        }
    }
}

/// The lazy heap's aggregate views must agree with a full object walk even
/// while sweeps are pending: `bytes_live`, the generation census and the
/// size-class census all answer from the same (pending-aware) liveness.
fn check_lazy_census_consistency(heap: &Heap) {
    let walk_bytes: u64 = heap.live_objects().map(|o| u64::from(o.bytes)).sum();
    assert_eq!(heap.stats().bytes_live, walk_bytes);
    let walk_count = heap.live_objects().count() as u64;
    let (young, old) = heap.generation_census();
    assert_eq!(young + old, walk_count);
    let census_count: u64 = heap
        .size_class_census()
        .iter()
        .map(|row| u64::from(row.live_objects))
        .sum();
    assert_eq!(census_count, walk_count);
}

/// The per-slot sweep the word kernel replaced, kept as its oracle: frees
/// every allocated slot that is neither marked nor (in a minor sweep) old,
/// and tenures every marked young survivor. Returns the counts and the
/// freed slots.
fn reference_sweep(
    allocated: &mut [bool],
    marked: &[bool],
    old: &mut [bool],
    minor: bool,
) -> (BlockSweep, Vec<u32>) {
    let mut out = BlockSweep::default();
    let mut freed = Vec::new();
    for slot in 0..allocated.len() {
        if !allocated[slot] {
            continue;
        }
        let (was_old, was_marked) = (old[slot], marked[slot]);
        if (minor && was_old) || was_marked {
            out.live += 1;
            if was_marked && !was_old {
                old[slot] = true;
                out.promoted += 1;
            }
        } else {
            allocated[slot] = false;
            old[slot] = false;
            out.freed += 1;
            freed.push(slot as u32);
        }
    }
    (out, freed)
}

fn bits_of(words: &[u64], nbits: u32) -> Vec<bool> {
    (0..nbits)
        .map(|i| words[(i / 64) as usize] >> (i % 64) & 1 == 1)
        .collect()
}

fn bitmap_of(bits: &[bool]) -> Bitmap {
    let mut b = Bitmap::new(bits.len() as u32);
    for (i, _) in bits.iter().enumerate().filter(|(_, &on)| on) {
        b.set(i as u32);
    }
    b
}

/// A reference model of the address-ordered small-object allocator: one
/// `BTreeSet<Addr>` of available slots per (size, kind), popped lowest
/// first — the per-slot free list the block-granular list replaced. It
/// follows the heap from what the test itself decides (which objects live
/// and die); the only thing it reads back is which pending blocks the heap
/// chose to sweep, since that is the sweep budget's business.
#[derive(Default)]
struct FreeListModel {
    /// Available slots per (object size, atomic).
    free: BTreeMap<(u32, bool), BTreeSet<u32>>,
    /// Live objects: base → (object size, atomic).
    live: BTreeMap<u32, (u32, bool)>,
    /// Small blocks: base → (object size, atomic, sweep pending).
    blocks: BTreeMap<u32, (u32, bool, bool)>,
    bytes_allocated_total: u64,
}

impl FreeListModel {
    fn slots(base: u32, size: u32) -> impl Iterator<Item = u32> {
        (0..PAGE_BYTES / size).map(move |k| base + k * size)
    }

    fn live_in(&self, base: u32) -> usize {
        self.live.range(base..base + PAGE_BYTES).count()
    }

    /// Block `base`'s sweep is realized: it is released if nothing in it
    /// lives, and otherwise every slot not live becomes available.
    fn realize(&mut self, base: u32) {
        let (size, atomic, _) = self.blocks[&base];
        if self.live_in(base) == 0 {
            self.blocks.remove(&base);
            return;
        }
        self.blocks.insert(base, (size, atomic, false));
        let free: Vec<u32> = Self::slots(base, size)
            .filter(|a| !self.live.contains_key(a))
            .collect();
        self.free.entry((size, atomic)).or_default().extend(free);
    }

    /// Realizes the pending blocks the heap has swept since the last
    /// check.
    fn realize_swept(&mut self, heap: &Heap) {
        let swept: Vec<u32> = self
            .blocks
            .iter()
            .filter(|(&base, b)| {
                b.2 && !heap
                    .blocks()
                    .any(|hb| hb.base().raw() == base && hb.is_pending_sweep())
            })
            .map(|(&base, _)| base)
            .collect();
        for base in swept {
            self.realize(base);
        }
    }

    /// [`realize_swept`](Self::realize_swept), then checks that the heap
    /// and the model hold the same blocks, pending alike.
    fn sync(&mut self, heap: &Heap) {
        self.realize_swept(heap);
        let heap_blocks: BTreeMap<u32, bool> = heap
            .blocks()
            .map(|b| (b.base().raw(), b.is_pending_sweep()))
            .collect();
        let model_blocks: BTreeMap<u32, bool> =
            self.blocks.iter().map(|(&base, b)| (base, b.2)).collect();
        assert_eq!(heap_blocks, model_blocks, "block sets diverged");
    }

    /// A sweep with `survivors` marked: eager realizes every block now,
    /// lazy defers them all.
    fn sweep(&mut self, survivors: &BTreeSet<u32>, lazy: bool) {
        self.live.retain(|a, _| survivors.contains(a));
        self.free.clear();
        let bases: Vec<u32> = self.blocks.keys().copied().collect();
        for base in bases {
            self.blocks.get_mut(&base).expect("model block").2 = true;
            if !lazy {
                self.realize(base);
            }
        }
    }

    fn bytes_live(&self) -> u64 {
        self.live.values().map(|&(size, _)| u64::from(size)).sum()
    }
}

/// An operation of the free-list equivalence trace.
#[derive(Debug, Clone)]
enum FlOp {
    Alloc { class: usize, atomic: bool },
    Free(usize),
    Sweep { seed: u64, lazy: bool },
}

fn arb_fl_op() -> impl Strategy<Value = FlOp> {
    prop_oneof![
        12 => (0usize..5, any::<bool>()).prop_map(|(class, atomic)| FlOp::Alloc { class, atomic }),
        4 => any::<usize>().prop_map(FlOp::Free),
        1 => (any::<u64>(), any::<bool>()).prop_map(|(seed, lazy)| FlOp::Sweep { seed, lazy }),
    ]
}

/// An operation in a random allocator trace.
#[derive(Debug, Clone)]
enum Op {
    Alloc { bytes: u32, atomic: bool },
    FreeIdx(usize),
    SweepNothingMarked,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u32..6000, any::<bool>()).prop_map(|(bytes, atomic)| Op::Alloc { bytes, atomic }),
        3 => any::<usize>().prop_map(Op::FreeIdx),
        1 => Just(Op::SweepNothingMarked),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants hold across arbitrary alloc/free/sweep traces under both
    /// free-list policies.
    #[test]
    fn invariants_hold_across_traces(
        ops in proptest::collection::vec(arb_op(), 1..120),
        lifo: bool,
    ) {
        let policy = if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered };
        let (mut space, mut heap) = heap(policy);
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { bytes, atomic } => {
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let addr = heap.alloc(&mut space, bytes, kind, &mut accept_all).unwrap();
                    live.push(addr);
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(i % live.len());
                        heap.free_object(addr).unwrap();
                    }
                }
                Op::SweepNothingMarked => {
                    // Mark everything we consider live, then sweep: nothing
                    // of ours may be reclaimed.
                    heap.clear_marks();
                    for &a in &live {
                        let obj = heap.object_containing(a).expect("tracked object is live");
                        heap.set_marked(obj);
                    }
                    let stats = heap.sweep();
                    prop_assert_eq!(stats.objects_live, live.len() as u64);
                }
            }
            check_invariants(&heap);
        }
        // Every tracked address is still a distinct live object.
        let bases: HashSet<u32> = heap.live_objects().map(|o| o.base.raw()).collect();
        for a in &live {
            prop_assert!(bases.contains(&a.raw()));
        }
        prop_assert_eq!(bases.len(), live.len());
    }

    /// Allocation never returns overlapping or duplicate addresses, and
    /// usable sizes are at least the request.
    #[test]
    fn allocations_are_disjoint_and_big_enough(
        sizes in proptest::collection::vec(1u32..10_000, 1..80),
    ) {
        let (mut space, mut heap) = heap(FreeListPolicy::AddressOrdered);
        let mut seen: HashMap<u32, u32> = HashMap::new();
        for bytes in sizes {
            let addr = heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all).unwrap();
            prop_assert!(!seen.contains_key(&addr.raw()), "duplicate address {addr}");
            let obj = heap.object_containing(addr).expect("fresh object resolves");
            prop_assert!(obj.bytes >= bytes, "usable {} < requested {bytes}", obj.bytes);
            seen.insert(addr.raw(), obj.bytes);
        }
        check_invariants(&heap);
    }

    /// A random trace swept lazily is indistinguishable from the same
    /// trace swept eagerly: identical snapshot accounting, identical
    /// liveness at every point — including while blocks are still pending
    /// and after a *partial* drain via the allocation slow path — and an
    /// identical settled heap once the deferred work is realized.
    #[test]
    fn lazy_sweep_is_equivalent_to_eager(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u32..4000, any::<bool>()), 1..60),
                any::<u64>(),
            ),
            1..4,
        ),
        drain in 0usize..8,
        budget in 1u32..5,
    ) {
        let build = |sweep_budget| {
            let space = AddressSpace::new(Endian::Big);
            let heap = Heap::new(HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 64 << 20,
                growth_pages: 16,
                sweep_budget,
                ..HeapConfig::default()
            });
            (space, heap)
        };
        let (mut es, mut eager) = build(64);
        let (mut ls, mut lazy) = build(budget);
        // Parallel handle vectors: index i is the same logical object in
        // both heaps (addresses may legitimately diverge once demand-order
        // free-list rebuilding kicks in).
        let mut handles: Vec<(Addr, Addr)> = Vec::new();
        for (allocs, mark_seed) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                let e = eager.alloc(&mut es, bytes, kind, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, bytes, kind, &mut accept_all).unwrap();
                handles.push((e, l));
            }
            // Mark the same logical subset in both heaps.
            eager.clear_marks();
            lazy.clear_marks();
            let survives = |i: usize| {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed)
                    .count_ones()
                    .is_multiple_of(2)
            };
            let mut survivors = Vec::new();
            for (i, &(e, l)) in handles.iter().enumerate() {
                if survives(i) {
                    let eo = eager.object_containing(e).expect("tracked object");
                    eager.set_marked(eo);
                    let lo = lazy.object_containing(l).expect("tracked object");
                    lazy.set_marked(lo);
                    survivors.push((e, l));
                }
            }
            let se = eager.sweep();
            let sl = lazy.sweep_lazy();
            // The lazy snapshot reports the identical reclamation up
            // front; only the block-release work differs until realized.
            prop_assert_eq!(se.objects_freed, sl.objects_freed);
            prop_assert_eq!(se.bytes_freed, sl.bytes_freed);
            prop_assert_eq!(se.objects_live, sl.objects_live);
            prop_assert_eq!(se.bytes_live, sl.bytes_live);
            prop_assert_eq!(se.objects_promoted, sl.objects_promoted);
            prop_assert_eq!(se.bytes_promoted, sl.bytes_promoted);
            prop_assert_eq!(eager.stats().bytes_live, lazy.stats().bytes_live);
            handles = survivors;
            // Liveness views agree while blocks are pending, and the lazy
            // heap's censuses stay self-consistent.
            check_lazy_census_consistency(&lazy);
            for &(e, l) in &handles {
                prop_assert!(eager.object_containing(e).is_some());
                prop_assert!(lazy.object_containing(l).is_some());
            }
            // Partially drain the pending queue through the slow path —
            // the same allocations land in the eager heap so the traces
            // stay identical.
            for _ in 0..drain {
                let e = eager.alloc(&mut es, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                handles.push((e, l));
            }
            check_lazy_census_consistency(&lazy);
        }
        // Realizing the leftovers settles the lazy heap. Page/block
        // geometry (mapped pages, block count, free runs) legitimately
        // diverges once free-list rebuild order differs — equivalence is
        // about the objects and the accounting, not object placement.
        lazy.finish_sweep();
        prop_assert_eq!(lazy.pending_sweep_blocks(), 0);
        let (e, l) = (eager.stats(), lazy.stats());
        prop_assert_eq!(e.bytes_live, l.bytes_live);
        prop_assert_eq!(e.bytes_allocated_total, l.bytes_allocated_total);
        check_lazy_census_consistency(&lazy);
        let eager_sizes: Vec<u32> = {
            let mut v: Vec<u32> = eager.live_objects().map(|o| o.bytes).collect();
            v.sort_unstable();
            v
        };
        let lazy_sizes: Vec<u32> = {
            let mut v: Vec<u32> = lazy.live_objects().map(|o| o.bytes).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(eager_sizes, lazy_sizes);
    }

    /// `Heap::stats()` answers from incrementally maintained counters;
    /// this pins them to the from-scratch recomputation
    /// ([`Heap::recomputed_stats`]) after every step of a randomized
    /// alloc/free/sweep trace — eager and lazy, both free-list policies,
    /// with and without the bump-cursor fast path.
    #[test]
    fn incremental_stats_match_recomputation(
        ops in proptest::collection::vec(arb_op(), 1..120),
        lifo: bool,
        lazy: bool,
        bump: bool,
    ) {
        let policy = if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered };
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            freelist_policy: policy,
            bump_alloc: bump,
            sweep_budget: 2,
        });
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { bytes, atomic } => {
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let addr = heap.alloc(&mut space, bytes, kind, &mut accept_all).unwrap();
                    live.push(addr);
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(i % live.len());
                        heap.free_object(addr).unwrap();
                    }
                }
                Op::SweepNothingMarked => {
                    heap.clear_marks();
                    for &a in &live {
                        let obj = heap.object_containing(a).expect("tracked object is live");
                        heap.set_marked(obj);
                    }
                    if lazy { heap.sweep_lazy(); } else { heap.sweep(); }
                }
            }
            prop_assert_eq!(heap.stats(), heap.recomputed_stats());
        }
        heap.finish_sweep();
        prop_assert_eq!(heap.stats(), heap.recomputed_stats());
    }

    /// The bump-cursor fast path is *address-identical* to the old
    /// prepopulated-free-list path: the same trace run on a `bump_alloc`
    /// and a non-`bump_alloc` heap returns the same address for every
    /// allocation — in eager mode and at every lazy sweep budget 1..=4,
    /// with partial drains leaving cursors and pending blocks active —
    /// so every liveness view (`live_objects`, `object_containing`,
    /// censuses) coincides exactly.
    #[test]
    fn bump_cursor_is_address_identical_to_prepopulated(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u32..4000, any::<bool>()), 1..60),
                any::<u64>(),
            ),
            1..4,
        ),
        drain in 0usize..8,
        budget in 1u32..5,
        lazy: bool,
    ) {
        let build = |bump_alloc| {
            let space = AddressSpace::new(Endian::Big);
            let heap = Heap::new(HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 64 << 20,
                growth_pages: 16,
                sweep_budget: budget,
                bump_alloc,
                ..HeapConfig::default()
            });
            (space, heap)
        };
        let (mut bs, mut bumpy) = build(true);
        let (mut ps, mut plain) = build(false);
        let mut live: Vec<Addr> = Vec::new();
        for (allocs, mark_seed) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                let b = bumpy.alloc(&mut bs, bytes, kind, &mut accept_all).unwrap();
                let p = plain.alloc(&mut ps, bytes, kind, &mut accept_all).unwrap();
                prop_assert_eq!(b, p, "allocation order diverged");
                live.push(b);
            }
            bumpy.clear_marks();
            plain.clear_marks();
            let survives = |i: usize| {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed)
                    .count_ones()
                    .is_multiple_of(2)
            };
            let mut survivors = Vec::new();
            for (i, &a) in live.iter().enumerate() {
                if survives(i) {
                    let bo = bumpy.object_containing(a).expect("tracked object");
                    bumpy.set_marked(bo);
                    let po = plain.object_containing(a).expect("tracked object");
                    plain.set_marked(po);
                    survivors.push(a);
                }
            }
            if lazy {
                bumpy.sweep_lazy();
                plain.sweep_lazy();
            } else {
                bumpy.sweep();
                plain.sweep();
            }
            live = survivors;
            // Partial drain through the slow path: cursors and pending
            // blocks are both in play while these land.
            for _ in 0..drain {
                let b = bumpy.alloc(&mut bs, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                let p = plain.alloc(&mut ps, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                prop_assert_eq!(b, p, "post-sweep allocation order diverged");
                live.push(b);
            }
            // Identical addresses ⇒ the views must agree exactly.
            let bl: Vec<(u32, u32)> = bumpy.live_objects().map(|o| (o.base.raw(), o.bytes)).collect();
            let pl: Vec<(u32, u32)> = plain.live_objects().map(|o| (o.base.raw(), o.bytes)).collect();
            prop_assert_eq!(bl, pl, "live object walks diverged");
            for &a in &live {
                prop_assert_eq!(
                    bumpy.object_containing(a).map(|o| o.base),
                    plain.object_containing(a).map(|o| o.base)
                );
            }
            prop_assert_eq!(bumpy.generation_census(), plain.generation_census());
            check_lazy_census_consistency(&bumpy);
        }
        bumpy.finish_sweep();
        plain.finish_sweep();
        prop_assert_eq!(bumpy.stats(), plain.stats(), "settled accounting diverged");
    }

    /// free + realloc round trips: the explicit heap recycles without
    /// leaking or corrupting accounting.
    #[test]
    fn explicit_heap_recycles(rounds in 1usize..30, batch in 1usize..40, bytes in 1u32..512) {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = ExplicitHeap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            growth_pages: 16,
            ..HeapConfig::default()
        });
        let mut peak_pages = 0;
        for _ in 0..rounds {
            let ptrs: Vec<Addr> =
                (0..batch).map(|_| heap.malloc(&mut space, bytes).unwrap()).collect();
            peak_pages = peak_pages.max(heap.stats().mapped_pages);
            for p in ptrs {
                heap.free(p).unwrap();
            }
            prop_assert_eq!(heap.stats().bytes_live, 0);
        }
        // Steady state: memory does not grow without bound across rounds.
        prop_assert_eq!(heap.stats().mapped_pages, peak_pages);
    }

    /// The word-at-a-time sweep kernel decides exactly what the per-slot
    /// loop decided, for random allocation, mark and generation bits
    /// (allocated or not, so old bits on free slots are covered too), in
    /// full and minor sweeps, with partial last words.
    #[test]
    fn sweep_kernel_matches_per_slot_reference(
        nbits in 1u32..600,
        words in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 10..11),
        minor: bool,
    ) {
        let mut allocated = bits_of(&words.iter().map(|w| w.0).collect::<Vec<_>>(), nbits);
        let marked = bits_of(&words.iter().map(|w| w.1).collect::<Vec<_>>(), nbits);
        let mut old = bits_of(&words.iter().map(|w| w.2).collect::<Vec<_>>(), nbits);
        let mut alloc_map = bitmap_of(&allocated);
        let mark_map = AtomicBitmap::new(nbits);
        for (i, _) in marked.iter().enumerate().filter(|(_, &on)| on) {
            mark_map.set_atomic(i as u32);
        }
        let mut old_map = bitmap_of(&old);
        let mut freed_by_kernel = Vec::new();
        let counts = sweep_block(&mut alloc_map, &mark_map, &mut old_map, minor, |w, mut mask| {
            prop_assert_ne!(mask, 0, "the kernel reports only words that freed something");
            while mask != 0 {
                freed_by_kernel.push(w as u32 * 64 + mask.trailing_zeros());
                mask &= mask - 1;
            }
        });
        let (want, freed) = reference_sweep(&mut allocated, &marked, &mut old, minor);
        prop_assert_eq!(counts, want);
        prop_assert_eq!(freed_by_kernel, freed);
        prop_assert_eq!(alloc_map, bitmap_of(&allocated));
        prop_assert_eq!(old_map, bitmap_of(&old));
        prop_assert_eq!(mark_map.iter_ones().collect::<Vec<_>>(),
            (0..nbits).filter(|&i| marked[i as usize]).collect::<Vec<_>>());
    }

    /// The block-granular address-ordered free list pops exactly what a
    /// per-slot `BTreeSet<Addr>` would, across random allocations,
    /// explicit frees, eager sweeps and lazy sweeps drained partially by
    /// the allocation slow path — with and without the bump cursor — and
    /// the heap's stats match the model's after every step.
    #[test]
    fn address_ordered_free_list_matches_btreeset_model(
        ops in proptest::collection::vec(arb_fl_op(), 1..400),
        bump: bool,
        budget in 1u32..4,
    ) {
        const SIZES: [u32; 5] = [8, 12, 48, 700, 2048];
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            bump_alloc: bump,
            sweep_budget: budget,
            ..HeapConfig::default()
        });
        let mut model = FreeListModel::default();
        for op in ops {
            match op {
                FlOp::Alloc { class, atomic } => {
                    let size = SizeClass::for_bytes(SIZES[class]).expect("small").bytes();
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let addr = heap.alloc(&mut space, size, kind, &mut accept_all).unwrap().raw();
                    model.realize_swept(&heap);
                    let free = model.free.entry((size, atomic)).or_default();
                    let want = match free.pop_first() {
                        Some(a) => a,
                        None => {
                            // Nothing available: a fresh block, from its
                            // first slot up.
                            prop_assert_eq!(addr % PAGE_BYTES, 0, "fresh blocks start at slot 0");
                            free.extend(FreeListModel::slots(addr, size).skip(1));
                            model.blocks.insert(addr, (size, atomic, false));
                            addr
                        }
                    };
                    prop_assert_eq!(addr, want, "allocation order diverged from the model");
                    model.live.insert(addr, (size, atomic));
                    model.bytes_allocated_total += u64::from(size);
                }
                FlOp::Free(i) => {
                    if model.live.is_empty() {
                        continue;
                    }
                    let (&addr, &(size, atomic)) =
                        model.live.iter().nth(i % model.live.len()).expect("in range");
                    heap.free_object(Addr::new(addr)).unwrap();
                    // Freeing realizes a pending block's sweep first.
                    let base = addr - addr % PAGE_BYTES;
                    if model.blocks[&base].2 {
                        model.realize(base);
                    }
                    model.live.remove(&addr);
                    let emptied = model.live_in(base) == 0;
                    let free = model.free.entry((size, atomic)).or_default();
                    if emptied {
                        for a in FreeListModel::slots(base, size) {
                            free.remove(&a);
                        }
                        model.blocks.remove(&base);
                    } else {
                        free.insert(addr);
                    }
                }
                FlOp::Sweep { seed, lazy } => {
                    heap.clear_marks();
                    model.sync(&heap);
                    let survivors: BTreeSet<u32> = model
                        .live
                        .keys()
                        .copied()
                        .filter(|&a| (u64::from(a).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed).count_ones() % 2 == 0)
                        .collect();
                    for &a in &survivors {
                        let obj = heap.object_containing(Addr::new(a)).expect("tracked object");
                        heap.set_marked(obj);
                    }
                    if lazy { heap.sweep_lazy(); } else { heap.sweep(); }
                    model.sweep(&survivors, lazy);
                }
            }
            model.sync(&heap);
            let stats = heap.stats();
            prop_assert_eq!(stats.bytes_live, model.bytes_live());
            prop_assert_eq!(stats.blocks as usize, model.blocks.len());
            prop_assert_eq!(stats.bytes_allocated_total, model.bytes_allocated_total);
            prop_assert_eq!(stats, heap.recomputed_stats());
        }
    }
}

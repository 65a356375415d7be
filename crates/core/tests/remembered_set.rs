//! The remembered-set scan: the card table's dirty pages name blocks, and
//! a minor collection (or an incremental cycle's finish) scans each block
//! that can hold pointers exactly once, whole, however many of its pages
//! are dirty. Pointer-free blocks on dirty pages cost nothing.
//!
//! Every check runs twice: through a generational minor collection, and
//! through the finish of an incremental cycle. The configurations leave
//! the `GC_MARK_THREADS` / `GC_LAZY_SWEEP` / `GC_RESOLVE_CACHE`
//! environment defaults alone: the counts checked here must not depend on
//! them.

use gc_core::{CollectReason, CollectionStats, Collector, GcConfig};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec, PAGE_BYTES};

const ROOT: Addr = Addr::new(0x1_0000);
/// A large composite object of 16 pages: the size of cache_churn's record
/// table.
const TABLE_BYTES: u32 = 16 * PAGE_BYTES;
const TABLE_WORDS: u64 = (TABLE_BYTES / 4) as u64;

#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Generational: tenure with one minor collection, then mutate and run
    /// another.
    Minor,
    /// Incremental: start a cycle, mutate, then step it to its finish.
    Incremental,
}

const MODES: [Mode; 2] = [Mode::Minor, Mode::Incremental];

/// A collector over one 4 KB static segment at `ROOT`, with a heap at
/// 0x10_0000 and no automatic collections.
fn collector(mode: Mode) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new("globals", SegmentKind::Data, ROOT, 4096))
        .unwrap();
    let config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 16 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        min_bytes_between_gcs: u64::MAX,
        generational: matches!(mode, Mode::Minor),
        incremental: matches!(mode, Mode::Incremental),
        incremental_budget: 32,
        ..GcConfig::default()
    };
    Collector::new(space, config)
}

/// Allocates an object and roots it in static slot `slot`.
fn rooted(gc: &mut Collector, slot: u32, bytes: u32, kind: ObjectKind) -> Addr {
    let obj = gc.alloc(bytes, kind).unwrap();
    gc.space_mut()
        .write_u32(ROOT + 4 * slot, obj.raw())
        .unwrap();
    obj
}

/// Makes what is allocated so far old (generational) or pre-cycle
/// (incremental), runs `mutate` (which returns the addresses it stored
/// to), passes those stores through the write barrier, and completes the
/// collection that must rescan them.
fn collect_after(
    gc: &mut Collector,
    mode: Mode,
    mutate: impl FnOnce(&mut Collector) -> Vec<Addr>,
) -> CollectionStats {
    match mode {
        Mode::Minor => {
            gc.collect_minor();
            for addr in mutate(gc) {
                gc.record_write(addr);
            }
            gc.collect_minor()
        }
        Mode::Incremental => {
            assert!(gc.collect_increment(CollectReason::Explicit).is_none());
            for addr in mutate(gc) {
                gc.record_write(addr);
            }
            loop {
                if let Some(stats) = gc.collect_increment(CollectReason::Explicit) {
                    return stats;
                }
            }
        }
    }
}

/// The heap words a collection scans because of the stores `dirty`
/// returns: the same heap is collected once with those stores recorded
/// and once without, and the difference is the remembered set's share.
fn dirty_scan_words(
    mode: Mode,
    build: impl Fn(&mut Collector),
    dirty: impl Fn(&Collector) -> Vec<Addr>,
) -> u64 {
    let words = |record: bool| {
        let mut gc = collector(mode);
        build(&mut gc);
        collect_after(
            &mut gc,
            mode,
            |gc| if record { dirty(gc) } else { Vec::new() },
        )
        .heap_words_scanned
    };
    words(true) - words(false)
}

/// Every page of the object based at static slot `slot`'s target.
fn all_pages(gc: &Collector, slot: u32, bytes: u32) -> Vec<Addr> {
    let base = Addr::new(gc.space().read_u32(ROOT + 4 * slot).unwrap());
    (0..bytes.div_ceil(PAGE_BYTES))
        .map(|p| base + p * PAGE_BYTES)
        .collect()
}

/// (a) A large composite object with all 16 pages dirty is scanned once:
/// its 16,384 words, not 16 × 16,384.
#[test]
fn multi_page_object_is_scanned_once() {
    for mode in MODES {
        let words = dirty_scan_words(
            mode,
            |gc| {
                rooted(gc, 0, TABLE_BYTES, ObjectKind::Composite);
            },
            |gc| all_pages(gc, 0, TABLE_BYTES),
        );
        assert_eq!(words, TABLE_WORDS, "{mode:?}: one scan of the table");
    }
    // A minor collection scans nothing else: the roots' targets are old.
    let mut gc = collector(Mode::Minor);
    rooted(&mut gc, 0, TABLE_BYTES, ObjectKind::Composite);
    let stats = collect_after(&mut gc, Mode::Minor, |gc| all_pages(gc, 0, TABLE_BYTES));
    assert_eq!(stats.heap_words_scanned, TABLE_WORDS);
}

/// (b) Dirty pages of pointer-free blocks, small and large, add nothing
/// to the words scanned.
#[test]
fn dirty_atomic_pages_are_not_scanned() {
    const SMALL: u32 = 600;
    for mode in MODES {
        let words = dirty_scan_words(
            mode,
            |gc| {
                rooted(gc, 0, 3 * PAGE_BYTES, ObjectKind::Atomic);
                for i in 1..=SMALL {
                    rooted(gc, i, 16, ObjectKind::Atomic);
                }
            },
            |gc| {
                let mut dirty = all_pages(gc, 0, 3 * PAGE_BYTES);
                dirty.extend(
                    (1..=SMALL).map(|i| Addr::new(gc.space().read_u32(ROOT + 4 * i).unwrap())),
                );
                dirty
            },
        );
        assert_eq!(words, 0, "{mode:?}: pointer-free blocks skipped");
    }
}

/// (c), generational: a pointer to a young object stored on the *last*
/// page of an old multi-page object keeps it alive through a minor
/// collection.
#[test]
fn store_on_last_page_of_old_object_retains_young_target() {
    let mut gc = collector(Mode::Minor);
    let table = rooted(&mut gc, 0, TABLE_BYTES, ObjectKind::Composite);
    let mut young = Addr::new(0);
    collect_after(&mut gc, Mode::Minor, |gc| {
        let table_obj = gc.object_containing(table).unwrap();
        assert!(gc.heap().is_old(table_obj), "the table was tenured");
        young = gc.alloc(8, ObjectKind::Composite).unwrap();
        let slot = table + TABLE_BYTES - 4;
        gc.space_mut().write_u32(slot, young.raw()).unwrap();
        vec![slot]
    });
    assert!(gc.is_live(young), "the last page's pointer was traced");
}

/// (c), incremental: an object the cycle has not reached yet, whose only
/// pointer moves onto the last page of an already-scanned multi-page
/// object, survives the cycle through the finish's dirty rescan.
#[test]
fn store_on_last_page_of_scanned_object_retains_unreached_target() {
    let mut gc = collector(Mode::Incremental);
    // Slot 0: a 2,000-cell chain whose deepest cell points at `hidden`.
    // Slot 1: the table, popped first off the mark stack and so scanned
    // by the first increment, long before the chain's end is reached.
    let hidden = gc.alloc(8, ObjectKind::Composite).unwrap();
    let mut head = hidden;
    let mut deepest = None;
    for _ in 0..2_000 {
        let cell = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(cell, head.raw()).unwrap();
        deepest.get_or_insert(cell);
        head = cell;
    }
    let deepest = deepest.unwrap();
    gc.space_mut().write_u32(ROOT, head.raw()).unwrap();
    let table = rooted(&mut gc, 1, TABLE_BYTES, ObjectKind::Composite);
    collect_after(&mut gc, Mode::Incremental, |gc| {
        for _ in 0..3 {
            assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        }
        let hidden_obj = gc.object_containing(hidden).unwrap();
        assert!(!gc.heap().is_marked(hidden_obj), "not reached yet");
        let slot = table + TABLE_BYTES - 4;
        gc.space_mut().write_u32(slot, hidden.raw()).unwrap();
        gc.space_mut().write_u32(deepest, 0).unwrap();
        vec![slot, deepest]
    });
    assert!(gc.is_live(hidden), "the last page's pointer was traced");
}

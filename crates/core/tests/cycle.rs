//! The collection cycle seen from outside: the exact event sequence each
//! kind of collection emits, and the allocation driver's behaviour for
//! typed allocation (incremental stepping, allocate-black, telemetry).
//!
//! Every configuration pins `mark_threads`, `lazy_sweep` and
//! `resolve_cache`, so the `GC_MARK_THREADS` / `GC_LAZY_SWEEP` /
//! `GC_RESOLVE_CACHE` environment defaults cannot change what is checked.

use gc_core::{
    observer, BlacklistKind, CollectKind, CollectReason, Collector, GcConfig, GcEvent,
    RingBufferSink,
};
use gc_heap::{Descriptor, HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
use std::sync::{Arc, Mutex};

const ROOT: Addr = Addr::new(0x1_0000);

type Events = Arc<Mutex<RingBufferSink>>;

/// A collector over one 4 KB static segment at `ROOT`, with a heap at
/// 0x10_0000, no automatic collections, serial eager marking, and an
/// event recorder installed.
fn collector(configure: impl FnOnce(&mut GcConfig)) -> (Collector, Events) {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new("globals", SegmentKind::Data, ROOT, 4096))
        .unwrap();
    let events = observer(RingBufferSink::new(100_000));
    let mut config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 32 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        min_bytes_between_gcs: u64::MAX,
        mark_threads: 1,
        mark_threads_force: false,
        lazy_sweep: false,
        resolve_cache: true,
        observer: Some(events.clone()),
        ..GcConfig::default()
    };
    configure(&mut config);
    (Collector::new(space, config), events)
}

/// Each event as `tag`, `tag#gc_no`, or for collection boundaries
/// `tag#gc_no kind`.
fn labels(events: &Events) -> Vec<String> {
    let events = events.lock().unwrap();
    assert_eq!(events.dropped(), 0, "the recorder kept every event");
    events
        .events()
        .iter()
        .map(|e| match *e {
            GcEvent::CollectionBegin { gc_no, kind, .. }
            | GcEvent::CollectionEnd { gc_no, kind, .. } => {
                format!("{}#{gc_no} {kind}", e.tag())
            }
            GcEvent::BlacklistGrow { gc_no, .. }
            | GcEvent::IncrementalPause { gc_no, .. }
            | GcEvent::FinalizersReady { gc_no, .. }
            | GcEvent::MarkWorker { gc_no, .. } => format!("{}#{gc_no}", e.tag()),
            _ => e.tag().to_string(),
        })
        .collect()
}

/// Startup, then a small scene that exercises every end-of-cycle event:
/// a rooted chain, a static junk word on a fresh page past the heap
/// (blacklist growth), and an unreachable object with a finalizer.
fn scene(gc: &mut Collector) {
    let mut head = 0u32;
    for _ in 0..40 {
        let cell = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(cell, head).unwrap();
        head = cell.raw();
    }
    gc.space_mut().write_u32(ROOT, head).unwrap();
    let doomed = gc.alloc(16, ObjectKind::Composite).unwrap();
    gc.register_finalizer(doomed, 7).unwrap();
    gc.space_mut().write_u32(ROOT + 8, 0x10_9040).unwrap();
}

fn strs(expected: &[&str]) -> Vec<String> {
    expected.iter().map(|s| s.to_string()).collect()
}

const STARTUP: [&str; 4] = [
    "collection_begin#1 full",
    "collection_end#1 full",
    "heap_grow",
    "alloc_slow_path",
];

#[test]
fn full_collection_event_sequence_is_pinned() {
    for lazy in [false, true] {
        let (mut gc, events) = collector(|c| c.lazy_sweep = lazy);
        scene(&mut gc);
        gc.collect();
        gc.collect();
        let mut expected = strs(&STARTUP);
        expected.extend(strs(&[
            "collection_begin#2 full",
            "blacklist_grow#2",
            "finalizers_ready#2",
            "collection_end#2 full",
        ]));
        if lazy {
            // The second cycle first realizes the first one's deferred sweep.
            expected.push("lazy_sweep".into());
        }
        expected.extend(strs(&["collection_begin#3 full", "collection_end#3 full"]));
        assert_eq!(labels(&events), expected, "lazy_sweep: {lazy}");
    }
}

#[test]
fn minor_collection_event_sequence_is_pinned() {
    let (mut gc, events) = collector(|c| c.generational = true);
    scene(&mut gc);
    gc.collect_minor();
    let old = gc.alloc(16, ObjectKind::Composite).unwrap();
    gc.space_mut().write_u32(ROOT + 4, old.raw()).unwrap();
    gc.collect_minor();
    let young = gc.alloc(16, ObjectKind::Composite).unwrap();
    gc.space_mut().write_u32(old, young.raw()).unwrap();
    gc.record_write(old);
    let stats = gc.collect_minor();
    assert_eq!(stats.kind, CollectKind::Minor);
    assert!(
        gc.is_live(young),
        "the dirty old object kept its young child"
    );
    let mut expected = strs(&STARTUP);
    expected.extend(strs(&[
        "collection_begin#2 minor",
        "blacklist_grow#2",
        "finalizers_ready#2",
        "collection_end#2 minor",
        "collection_begin#3 minor",
        "collection_end#3 minor",
        "collection_begin#4 minor",
        "collection_end#4 minor",
    ]));
    assert_eq!(labels(&events), expected);
}

#[test]
fn forced_parallel_collection_event_sequence_is_pinned() {
    let (mut gc, events) = collector(|c| {
        c.mark_threads = 4;
        c.mark_threads_force = true;
    });
    scene(&mut gc);
    let stats = gc.collect();
    assert_eq!(stats.parallel_mark.map(|p| p.workers()), Some(4));
    let workers = |gc_no: u32| (0..4).map(move |_| format!("mark_worker#{gc_no}"));
    let mut expected = vec!["collection_begin#1 full".to_string()];
    expected.extend(workers(1));
    expected.extend(strs(&[
        "collection_end#1 full",
        "heap_grow",
        "alloc_slow_path",
    ]));
    expected.push("collection_begin#2 full".into());
    expected.extend(workers(2));
    expected.extend(strs(&[
        "blacklist_grow#2",
        "finalizers_ready#2",
        "collection_end#2 full",
    ]));
    assert_eq!(labels(&events), expected);
}

#[test]
fn incremental_cycle_event_sequence_is_pinned() {
    let (mut gc, events) = collector(|c| {
        c.incremental = true;
        c.incremental_budget = 8;
    });
    scene(&mut gc);
    // Start: the root scan.
    assert!(gc.collect_increment(CollectReason::Explicit).is_none());
    // An allocation mid-cycle steps the cycle from the slow path.
    gc.alloc(16, ObjectKind::Composite).unwrap();
    let mut calls = 2;
    let stats = loop {
        calls += 1;
        if let Some(stats) = gc.collect_increment(CollectReason::Explicit) {
            break stats;
        }
    };
    assert_eq!(stats.gc_no, 2);
    assert_eq!(gc.stats().increments, calls);
    let mut expected = strs(&STARTUP);
    expected.extend(strs(&[
        "collection_begin#2 full",
        "incremental_pause#2",
        "incremental_pause#2",
        "alloc_slow_path",
    ]));
    // Every further call is one pause; the finishing call emits two: its
    // last tracing step and the stop-the-world finish.
    for _ in 2..calls {
        expected.push("incremental_pause#2".into());
    }
    expected.extend(strs(&[
        "incremental_pause#2",
        "blacklist_grow#2",
        "finalizers_ready#2",
        "collection_end#2 full",
    ]));
    assert_eq!(labels(&events), expected);
}

/// A collector with a descriptor for 16-byte records whose first word is
/// their only pointer.
fn typed_collector(
    configure: impl FnOnce(&mut GcConfig),
) -> (Collector, Events, gc_heap::DescriptorId) {
    let (mut gc, events) = collector(configure);
    let desc = gc.register_descriptor(Descriptor::with_pointers_at(4, &[0]));
    (gc, events, desc)
}

/// Allocates `n` typed records, each pointing at the previous one, with
/// the newest rooted at `ROOT`.
fn typed_chain(gc: &mut Collector, desc: gc_heap::DescriptorId, n: u32) {
    let mut head = 0u32;
    for _ in 0..n {
        let rec = gc.alloc_typed(16, desc).unwrap();
        gc.space_mut().write_u32(rec, head).unwrap();
        head = rec.raw();
        gc.space_mut().write_u32(ROOT, head).unwrap();
    }
}

#[test]
fn typed_allocation_steps_incremental_cycles() {
    let (mut gc, events, desc) = typed_collector(|c| {
        c.incremental = true;
        c.incremental_budget = 64;
        c.min_bytes_between_gcs = 32 << 10;
        c.free_space_divisor = 1 << 24;
    });
    for _ in 0..20_000 {
        gc.alloc_typed(16, desc).unwrap();
    }
    assert!(
        gc.stats().increments > 0,
        "typed allocation steps the cycle"
    );
    assert!(gc.gc_count() > 1, "cycles complete");
    // Every cycle after startup ends through an incremental finish: its
    // end is directly preceded by that cycle's finishing pause.
    let labels = labels(&events);
    let ends: Vec<usize> = (0..labels.len())
        .filter(|&i| {
            labels[i].starts_with("collection_end#") && !labels[i].starts_with("collection_end#1 ")
        })
        .collect();
    assert!(!ends.is_empty());
    for i in ends {
        let gc_no = labels[i]["collection_end#".len()..]
            .split(' ')
            .next()
            .unwrap();
        assert_eq!(
            labels[i - 1],
            format!("incremental_pause#{gc_no}"),
            "{labels:?}"
        );
    }
}

#[test]
fn typed_objects_allocated_mid_cycle_are_black() {
    let (mut gc, _events, desc) = typed_collector(|c| {
        c.incremental = true;
        c.incremental_budget = 8;
    });
    typed_chain(&mut gc, desc, 200);
    assert!(gc.collect_increment(CollectReason::Explicit).is_none());
    let fresh = gc.alloc_typed(16, desc).unwrap();
    assert!(
        gc.stats().increments >= 2,
        "the allocation stepped the cycle"
    );
    let obj = gc.object_containing(fresh).unwrap();
    assert!(gc.heap().is_marked(obj), "allocated black");
}

#[test]
fn typed_allocation_reports_growth_and_slow_paths() {
    let (mut gc, events, desc) = typed_collector(|c| {
        c.min_bytes_between_gcs = 64 << 10;
        c.free_space_divisor = 1 << 24;
    });
    typed_chain(&mut gc, desc, 20_000);
    let stats = gc.stats();
    assert!(stats.slow_path_allocs > 1, "collections ran");
    assert_eq!(stats.alloc_slow_path.count(), stats.slow_path_allocs);
    let labels = labels(&events);
    let count = |tag: &str| labels.iter().filter(|l| l.as_str() == tag).count() as u64;
    assert_eq!(count("alloc_slow_path"), stats.slow_path_allocs);
    assert!(
        gc.heap().mapped_pages() > 16,
        "the heap grew more than once"
    );
    assert!(
        count("heap_grow") > 1,
        "typed growth is reported: {}",
        count("heap_grow")
    );
}

#[test]
fn abandoned_incremental_cycle_keeps_the_hashed_blacklist() {
    let run = |abandon: bool| {
        let (mut gc, _events) = collector(|c| {
            c.incremental = true;
            c.blacklist_kind = BlacklistKind::Hashed { bits: 16 };
        });
        let junk = Addr::new(0x10_9040);
        gc.space_mut().write_u32(ROOT + 8, junk.raw()).unwrap();
        gc.start();
        assert!(
            gc.blacklist().contains(junk.page()),
            "startup blacklists it"
        );
        gc.space_mut().write_u32(ROOT + 8, 0).unwrap();
        if abandon {
            assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        }
        gc.collect();
        gc.blacklist().contains(junk.page())
    };
    assert!(run(false), "one cycle later the page is still listed");
    assert!(
        run(true),
        "an abandoned cycle does not age the blacklist twice"
    );
}

//! Counts repeat exactly: two collectors built in one process, driven by
//! the same trace, report the same resolve-cache counts and drain the same
//! finalizations in the same order. The orders that feed those counts
//! (doomed finalizer registrations, dirty pages) are address orders, not
//! hash orders that differ from one map instance to the next.
//!
//! Resolve counts only depend on order when pages collide in the
//! direct-mapped resolve cache, so both heaps span more pages than the
//! cache has entries. Every configuration pins the mark workers and the
//! resolve cache.

use gc_core::{Collector, GcConfig};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

const ROOT: Addr = Addr::new(0x1_0000);
const ROOT_BYTES: u32 = 16 * 1024;

fn collector(generational: bool) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            ROOT,
            ROOT_BYTES,
        ))
        .unwrap();
    let config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 32 << 20,
            growth_pages: 64,
            ..HeapConfig::default()
        },
        min_bytes_between_gcs: u64::MAX,
        mark_threads: 1,
        mark_threads_force: false,
        resolve_cache: true,
        generational,
        ..GcConfig::default()
    };
    Collector::new(space, config)
}

/// A fixed pseudo-random sequence (an LCG), the same in every collector.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }
}

/// 200 unreachable two-page objects, each registered for finalization
/// and pointing at three others, collected once.
fn finalize_trace() -> (Vec<(Addr, u64)>, u64, u64) {
    const N: u32 = 200;
    let mut gc = collector(false);
    let mut rng = Lcg(7);
    let objs: Vec<Addr> = (0..N)
        .map(|_| gc.alloc(8000, ObjectKind::Composite).unwrap())
        .collect();
    for (token, &obj) in objs.iter().enumerate() {
        for field in 0..3 {
            let to = objs[rng.below(N) as usize];
            gc.space_mut().write_u32(obj + 4 * field, to.raw()).unwrap();
        }
        gc.register_finalizer(obj, token as u64).unwrap();
    }
    let stats = gc.collect();
    assert_eq!(stats.finalizers_ready, N);
    (
        gc.drain_finalized(),
        stats.resolve_hits,
        stats.resolve_misses,
    )
}

#[test]
fn finalization_order_and_resolve_counts_repeat() {
    let first = finalize_trace();
    let second = finalize_trace();
    assert_eq!(first.0.len(), 200);
    assert!(
        first.0.windows(2).all(|w| w[0].0 < w[1].0),
        "finalizations drain in address order"
    );
    assert_eq!(first, second);
}

/// 1,200 rooted 2 KB objects (about 600 pages), tenured, then ten rounds
/// of young allocations stored into random old objects through the write
/// barrier, each followed by a minor collection.
fn minor_trace() -> Vec<(u64, u64)> {
    const OLD: u32 = 1_200;
    let mut gc = collector(true);
    let mut rng = Lcg(11);
    let old: Vec<Addr> = (0..OLD)
        .map(|i| {
            let obj = gc.alloc(2000, ObjectKind::Composite).unwrap();
            gc.space_mut().write_u32(ROOT + 4 * i, obj.raw()).unwrap();
            obj
        })
        .collect();
    for &obj in &old {
        let to = old[rng.below(OLD) as usize];
        gc.space_mut().write_u32(obj, to.raw()).unwrap();
    }
    gc.collect_minor();
    (0..10)
        .map(|_| {
            for _ in 0..400 {
                let young = gc.alloc(16, ObjectKind::Composite).unwrap();
                let slot = old[rng.below(OLD) as usize] + 4 * (1 + rng.below(400));
                gc.space_mut().write_u32(slot, young.raw()).unwrap();
                gc.record_write(slot);
            }
            let stats = gc.collect_minor();
            (stats.resolve_hits, stats.resolve_misses)
        })
        .collect()
}

#[test]
fn minor_collection_resolve_counts_repeat() {
    let first = minor_trace();
    assert!(first.iter().all(|&(hits, misses)| hits + misses > 0));
    assert_eq!(first, minor_trace());
}

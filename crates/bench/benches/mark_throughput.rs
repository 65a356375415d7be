//! The mark layer of the bench ladder, behind `BENCH_mark.json`.
//!
//! Times full collections of fixed, fully live heaps, so the figure is
//! the mark phase's throughput (root scan plus transitive drain; the sweep
//! of an all-live heap is excluded). Four shapes:
//!
//! * `pointer_dense_chain` — one list of 100,000 16-byte composite cells:
//!   every word scanned, a pointer chased per cell;
//! * `atomic_objects` — 100,000 16-byte atomic objects, each pointed at
//!   from one composite array: marked but never scanned, the cost
//!   structure behind the paper's advice to allocate large pointer-free
//!   objects atomically (§2);
//! * `program_t_lists` — the Program T shape: 200 cyclic lists of 5,000
//!   4-byte cells, each list rooted from a static slot;
//! * `gcbench_tree` — the GCBench shape: a depth-16 binary tree of
//!   16-byte nodes (`[left, right, i, j]`) built top-down.
//!
//! Runs standalone (`cargo bench -p gc-bench --bench mark_throughput`).
//! `--json <path>` also writes the machine-readable report, in the schema
//! of `BENCH_alloc.json` plus the host's core count; the committed
//! baseline is `BENCH_mark.json` at the repository root. Each case reports
//! its fastest root-scan-plus-mark time over the samples.

use criterion::{Criterion, Throughput};
use gc_bench::{json_array, json_object, json_str, JsonOut};
use gc_core::{Collector, GcConfig};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
use std::cell::Cell;
use std::time::Duration;

const SAMPLES: usize = 20;
const STATICS: Addr = Addr::new(0x1_0000);

/// A serial, eagerly sweeping collector with the resolve cache on, that
/// never collects on its own, over one page of static roots. Every knob
/// the environment could set is pinned.
fn collector() -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            STATICS,
            4096,
        ))
        .expect("maps");
    Collector::new(
        space,
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                ..HeapConfig::default()
            },
            min_bytes_between_gcs: u64::MAX,
            mark_threads: 1,
            resolve_cache: true,
            lazy_sweep: false,
            ..GcConfig::default()
        },
    )
}

/// One list of `cells` 16-byte composite cells, each pointing at the
/// previous one; the head sits in a static slot.
fn chain(cells: u32) -> Collector {
    let mut gc = collector();
    let mut head = 0u32;
    for _ in 0..cells {
        let cell = gc.alloc(16, ObjectKind::Composite).expect("heap has room");
        gc.space_mut().write_u32(cell, head).expect("mapped");
        head = cell.raw();
    }
    gc.space_mut().write_u32(STATICS, head).expect("mapped");
    gc
}

/// `n` 16-byte atomic objects, each pointed at from one composite array
/// whose base sits in a static slot.
fn atomic_fan(n: u32) -> Collector {
    let mut gc = collector();
    let array = gc
        .alloc(4 * n, ObjectKind::Composite)
        .expect("heap has room");
    gc.space_mut()
        .write_u32(STATICS, array.raw())
        .expect("mapped");
    for i in 0..n {
        let obj = gc.alloc(16, ObjectKind::Atomic).expect("heap has room");
        gc.space_mut()
            .write_u32(array + 4 * i, obj.raw())
            .expect("mapped");
    }
    gc
}

/// `lists` cyclic lists of `cells` 4-byte cells; static slot `i` holds
/// list `i`'s head.
fn cyclic_lists(lists: u32, cells: u32) -> Collector {
    let mut gc = collector();
    for i in 0..lists {
        let first = gc.alloc(4, ObjectKind::Composite).expect("heap has room");
        let mut prev = first;
        for _ in 1..cells {
            let cell = gc.alloc(4, ObjectKind::Composite).expect("heap has room");
            gc.space_mut().write_u32(prev, cell.raw()).expect("mapped");
            prev = cell;
        }
        gc.space_mut().write_u32(prev, first.raw()).expect("mapped");
        gc.space_mut()
            .write_u32(STATICS + 4 * i, first.raw())
            .expect("mapped");
    }
    gc
}

/// A complete binary tree of 16-byte `[left, right, i, j]` nodes, `depth`
/// levels below the root, allocated parent before children; the root sits
/// in a static slot.
fn tree(depth: u32) -> Collector {
    let mut gc = collector();
    let root = gc.alloc(16, ObjectKind::Composite).expect("heap has room");
    gc.space_mut()
        .write_u32(STATICS, root.raw())
        .expect("mapped");
    let mut todo = vec![(root, depth)];
    while let Some((node, d)) = todo.pop() {
        if d == 0 {
            continue;
        }
        for field in [0, 4] {
            let child = gc.alloc(16, ObjectKind::Composite).expect("heap has room");
            gc.space_mut()
                .write_u32(node + field, child.raw())
                .expect("mapped");
            todo.push((child, d - 1));
        }
    }
    gc
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);

    let cases: [(&str, Collector); 4] = [
        ("pointer_dense_chain", chain(100_000)),
        ("atomic_objects", atomic_fan(100_000)),
        ("program_t_lists", cyclic_lists(200, 5_000)),
        ("gcbench_tree", tree(16)),
    ];
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("mark_phase");
    group.sample_size(SAMPLES);
    let mut rows = Vec::new();
    for (name, mut gc) in cases {
        // Untimed warm-up: settles the heap and sizes the mark stack.
        let warm = gc.collect();
        let (objects, bytes) = (warm.objects_marked, warm.bytes_marked);
        group.throughput(Throughput::Elements(objects));
        let best = Cell::new(Duration::MAX);
        group.bench_function(name, |b| {
            b.iter(|| {
                let stats = gc.collect();
                assert_eq!(stats.objects_marked, objects, "{name}: live set moved");
                let mark = stats.phases.root_scan + stats.phases.mark;
                best.set(best.get().min(mark));
                stats
            })
        });
        let elapsed = best.get().as_secs_f64().max(1e-9);
        rows.push(json_object(&[
            ("name", json_str(name)),
            ("objects", objects.to_string()),
            ("bytes", bytes.to_string()),
            ("elapsed_ns", best.get().as_nanos().to_string()),
            (
                "objects_per_sec",
                format!("{:.2}", objects as f64 / elapsed),
            ),
            (
                "mb_per_sec",
                format!("{:.2}", bytes as f64 / f64::from(1 << 20) / elapsed),
            ),
            ("collections", "1".into()),
        ]));
    }
    group.finish();

    if json_out.enabled() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = json_object(&[
            ("v", "1".into()),
            ("bench", json_str("mark")),
            ("host_cores", cores.to_string()),
            ("reps", SAMPLES.to_string()),
            ("results", json_array(&rows)),
        ]);
        json_out.write(&doc).expect("JSON report written");
    }
}

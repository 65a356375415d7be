//! The sweep layer of the bench ladder, behind `BENCH_sweep.json`.
//!
//! Times one eager [`Heap::sweep`] of a fixed heap of small blocks: 512
//! pages of 16-byte objects, every slot allocated, with a given fraction
//! marked. Survivor densities of 0, 10, 50 and 90% run for composite,
//! atomic and typed objects (typed blocks carry a descriptor table, so
//! their sweep also clears the freed slots' entries). Survivors are
//! spread by a hash of the slot index, not clustered, so every bitmap
//! word holds a mix.
//!
//! Runs standalone (`cargo bench -p gc-bench --bench sweep`). `--json
//! <path>` also writes the machine-readable report, in the schema of
//! `BENCH_alloc.json` plus the host's core count; the committed baseline
//! is `BENCH_sweep.json` at the repository root. Each case reports its
//! fastest sweep; the heap is rebuilt, untimed, before every sample.

use criterion::{BatchSize, BenchmarkId, Criterion, Throughput};
use gc_bench::{json_array, json_object, json_str, JsonOut};
use gc_heap::{accept_all, Descriptor, Heap, HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, PAGE_BYTES};
use std::cell::Cell;
use std::time::{Duration, Instant};

const OBJ_BYTES: u32 = 16;
const PAGES: u32 = 512;
const OBJECTS: u32 = PAGES * (PAGE_BYTES / OBJ_BYTES);
const SAMPLES: usize = 10;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Composite,
    Atomic,
    Typed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Composite => "composite",
            Kind::Atomic => "atomic",
            Kind::Typed => "typed",
        }
    }
}

/// A full heap of `OBJECTS` objects with `percent`% of them marked.
fn marked_heap(kind: Kind, percent: u64) -> Heap {
    let mut space = AddressSpace::new(Endian::Big);
    let mut heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        ..HeapConfig::default()
    });
    let desc = heap.register_descriptor(Descriptor::with_pointers_at(4, &[0, 2]));
    let mut addrs = Vec::with_capacity(OBJECTS as usize);
    for _ in 0..OBJECTS {
        let addr = match kind {
            Kind::Composite => heap.alloc(
                &mut space,
                OBJ_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            ),
            Kind::Atomic => heap.alloc(&mut space, OBJ_BYTES, ObjectKind::Atomic, &mut accept_all),
            Kind::Typed => heap.alloc_typed(&mut space, OBJ_BYTES, desc, &mut accept_all),
        };
        addrs.push(addr.expect("heap has room"));
    }
    for (i, &addr) in addrs.iter().enumerate() {
        if ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < percent {
            let obj = heap.object_containing(addr).expect("allocated");
            heap.set_marked(obj);
        }
    }
    heap
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("eager_sweep");
    group
        .sample_size(SAMPLES)
        .throughput(Throughput::Elements(u64::from(OBJECTS)));
    let mut rows = Vec::new();
    for kind in [Kind::Composite, Kind::Atomic, Kind::Typed] {
        for percent in [0u64, 10, 50, 90] {
            let best = Cell::new(Duration::MAX);
            group.bench_with_input(BenchmarkId::new(kind.name(), percent), &percent, |b, &p| {
                b.iter_batched_ref(
                    || marked_heap(kind, p),
                    |heap| {
                        let t0 = Instant::now();
                        let stats = heap.sweep();
                        best.set(best.get().min(t0.elapsed()));
                        stats
                    },
                    BatchSize::PerIteration,
                )
            });
            let elapsed = best.get().as_secs_f64().max(1e-9);
            let bytes = u64::from(OBJECTS) * u64::from(OBJ_BYTES);
            rows.push(json_object(&[
                ("name", json_str(&format!("{}_{percent}", kind.name()))),
                ("objects", OBJECTS.to_string()),
                ("bytes", bytes.to_string()),
                ("elapsed_ns", best.get().as_nanos().to_string()),
                (
                    "objects_per_sec",
                    format!("{:.2}", f64::from(OBJECTS) / elapsed),
                ),
                (
                    "mb_per_sec",
                    format!("{:.2}", bytes as f64 / f64::from(1 << 20) / elapsed),
                ),
                ("collections", "1".into()),
            ]));
        }
    }
    group.finish();

    if json_out.enabled() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = json_object(&[
            ("v", "1".into()),
            ("bench", json_str("sweep")),
            ("host_cores", cores.to_string()),
            ("reps", SAMPLES.to_string()),
            ("results", json_array(&rows)),
        ]);
        json_out.write(&doc).expect("JSON report written");
    }
}

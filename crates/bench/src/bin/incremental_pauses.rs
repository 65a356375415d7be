//! Pause-time profile of incremental marking vs. stop-the-world
//! collection — the property the paper's reference \[8\] (Boehm–Demers–
//! Shenker, "Mostly Parallel Garbage Collection") exists to provide:
//! "concurrent collectors that greatly reduce client pause times".
//!
//! The same live heap is collected both ways; stop-the-world pays one
//! pause proportional to the live set, while the incremental cycle's
//! longest mutator pause is bounded by the root scan, one tracing
//! increment, or the dirty-rescan finish.
//!
//! It doubles as a differential check of the incremental pipeline: the
//! incremental cycle must mark and free exactly what the stop-world
//! collection of the same heap does (objects and bytes), or the process
//! exits nonzero. `valid_pointers` is not compared: the finish rescans the
//! roots, so each root reference is counted once more.

use gc_analysis::TextTable;
use gc_bench::{finish_args, json_array, json_object, json_str, JsonOut};
use gc_core::{CollectReason, CollectionStats, Collector, GcConfig};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

fn collector(incremental: bool, budget: u32) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(0x1_0000),
            4096,
        ))
        .expect("maps");
    Collector::new(
        space,
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 256 << 20,
                ..HeapConfig::default()
            },
            incremental,
            incremental_budget: budget,
            min_bytes_between_gcs: u64::MAX,
            ..GcConfig::default()
        },
    )
}

fn build_live_chain(gc: &mut Collector, cells: u32) {
    let mut head = 0u32;
    for _ in 0..cells {
        let cell = gc.alloc(16, ObjectKind::Composite).expect("heap has room");
        gc.space_mut().write_u32(cell, head).expect("mapped");
        head = cell.raw();
        gc.space_mut()
            .write_u32(Addr::new(0x1_0000), head)
            .expect("mapped");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    finish_args(&args, "Usage: incremental_pauses [--json <path>]");
    let mut runs: Vec<String> = Vec::new();
    let mut table = TextTable::new(vec![
        "Live cells".into(),
        "Stop-world pause".into(),
        "Incremental max pause".into(),
        "Increments".into(),
        "Pause ratio".into(),
    ]);
    let mut agree = true;
    for cells in [50_000u32, 200_000, 800_000] {
        // Stop the world.
        let mut gc = collector(false, 0);
        build_live_chain(&mut gc, cells);
        let stop_world = gc.collect();
        let full = stop_world.duration;

        // Incremental, budget 2048 objects per increment.
        let mut gc = collector(true, 2048);
        build_live_chain(&mut gc, cells);
        let mut increments = 0u64;
        let incremental = loop {
            increments += 1;
            if let Some(stats) = gc.collect_increment(CollectReason::Explicit) {
                break stats;
            }
        };
        let counts = |c: &CollectionStats| {
            (
                c.objects_marked,
                c.bytes_marked,
                c.sweep.objects_freed,
                c.sweep.bytes_freed,
            )
        };
        if counts(&incremental) != counts(&stop_world) {
            eprintln!(
                "{cells} cells: incremental (marked, bytes marked, freed, bytes freed) {:?} != stop-world {:?}",
                counts(&incremental),
                counts(&stop_world)
            );
            agree = false;
        }
        let max_pause = gc.stats().max_increment_pause;
        let ratio = full.as_secs_f64() / max_pause.as_secs_f64().max(1e-9);
        table.row(vec![
            cells.to_string(),
            format!("{full:?}"),
            format!("{max_pause:?}"),
            increments.to_string(),
            format!("{ratio:.1}x"),
        ]);
        if json_out.enabled() {
            runs.push(json_object(&[
                ("live_cells", cells.to_string()),
                ("stop_world_pause_ns", full.as_nanos().to_string()),
                ("incremental_max_pause_ns", max_pause.as_nanos().to_string()),
                ("increments", increments.to_string()),
                ("incremental_metrics", gc.metrics_json()),
            ]));
        }
    }
    println!("{table}");
    println!("Stop-the-world pauses grow with the live set; the incremental");
    println!("cycle's worst mutator pause is bounded by its budget and the");
    println!("finish phase, as in the mostly-parallel collector ([8]).");
    let document = json_object(&[
        ("benchmark", json_str("incremental_pauses")),
        ("results", table.to_json()),
        ("runs", json_array(&runs)),
    ]);
    json_out.write(&document).expect("write JSON report");
    if !agree {
        std::process::exit(1);
    }
}

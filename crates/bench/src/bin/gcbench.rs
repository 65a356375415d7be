//! GCBench — the classic stress benchmark distributed with the collector
//! the paper describes — run under all three collector modes as a
//! whole-system throughput check.
//!
//! With `--mark-threads <n>` (n > 1), additionally runs the stop-world
//! configuration twice — serial and parallel marking — and reports the
//! mark-phase wall-clock of each plus the speedup. The two runs must agree
//! exactly on `objects_marked` (the parallel marker is equivalent to the
//! serial one by construction); a mismatch makes the process exit nonzero,
//! which is what the CI smoke test keys on.
//!
//! With `--lazy-sweep`, runs the three-mode table with lazy sweeping on
//! and adds an eager-vs-lazy differential: the same stop-world workload
//! with both sweep strategies. The two runs must agree exactly on
//! `objects_freed`, `bytes_freed` and the final live heap (lazy sweeping
//! is transparent by construction); the collection pause (mark + sweep
//! phases) should drop under lazy sweeping, with the deferred free-list
//! work showing up in the realized-batch total instead. Divergence makes
//! the process exit nonzero.
//!
//! With `--json <path>`, also writes a machine-readable report combining
//! the result rows with each mode's full collector metrics snapshot.

use gc_analysis::TextTable;
use gc_bench::{
    finish_args, json_array, json_object, json_str, take_flag, take_mark_threads, JsonOut,
};
use gc_core::{observer, GcEvent, GcObserver};
use gc_platforms::{BuildOptions, Platform, Profile};
use gc_workloads::GcBench;
use std::time::Duration;

/// Sums per-collection phase times and reclamation totals over every
/// collection a run performs (the per-run `GcStats` only retains the last
/// collection), plus any lazily realized sweep batches.
#[derive(Clone, Copy, Debug, Default)]
struct RunTotals {
    mark_time: Duration,
    sweep_time: Duration,
    objects_marked: u64,
    objects_freed: u64,
    bytes_freed: u64,
    collections: u64,
    lazy_batch_time: Duration,
    lazy_blocks_swept: u64,
}

impl RunTotals {
    /// The stop-the-world mark + sweep cost of the run's collections —
    /// the pause component the lazy sweep is meant to shrink.
    fn pause_work(&self) -> Duration {
        self.mark_time + self.sweep_time
    }
}

impl GcObserver for RunTotals {
    fn on_event(&mut self, event: &GcEvent) {
        match event {
            GcEvent::CollectionEnd {
                phases,
                objects_marked,
                objects_freed,
                bytes_freed,
                ..
            } => {
                self.mark_time += phases.mark;
                self.sweep_time += phases.sweep;
                self.objects_marked += objects_marked;
                self.objects_freed += objects_freed;
                self.bytes_freed += bytes_freed;
                self.collections += 1;
            }
            GcEvent::LazySweep {
                blocks_swept,
                duration,
                ..
            } => {
                self.lazy_batch_time += *duration;
                self.lazy_blocks_swept += blocks_swept;
            }
            _ => {}
        }
    }
}

fn build(
    mark_threads: u32,
    lazy_sweep: bool,
    with_totals: bool,
) -> (Platform, std::sync::Arc<std::sync::Mutex<RunTotals>>) {
    let totals = observer(RunTotals::default());
    let handle = totals.clone();
    let mut profile = Profile::synthetic();
    profile.max_heap_bytes = 512 << 20;
    let platform = profile.build_custom(BuildOptions::default(), |gc| {
        gc.mark_threads = mark_threads;
        gc.lazy_sweep = lazy_sweep;
        if with_totals {
            gc.observer = Some(handle);
        }
    });
    (platform, totals)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    let mark_threads = take_mark_threads(&mut args);
    let lazy_sweep = take_flag(&mut args, "--lazy-sweep");
    let classic = take_flag(&mut args, "classic");
    finish_args(
        &args,
        "Usage: gcbench [--json <path>] [--mark-threads <n>] [--lazy-sweep] [classic]",
    );
    let shape = if classic {
        GcBench::classic()
    } else {
        GcBench::scaled()
    };
    println!(
        "GCBench ({}): long-lived depth {}, short-lived depths {}..{} step 2{}\n",
        if classic { "classic" } else { "scaled" },
        shape.long_lived_depth,
        shape.min_depth,
        shape.max_depth,
        if lazy_sweep { ", lazy sweeping" } else { "" },
    );
    let mut table = TextTable::new(vec![
        "Collector mode".into(),
        "Elapsed".into(),
        "GCs".into(),
        "Final heap pages".into(),
    ]);
    let mut mode_reports: Vec<String> = Vec::new();
    for mode in ["stop-world", "generational", "incremental"] {
        let mut profile = Profile::synthetic();
        profile.max_heap_bytes = 512 << 20;
        let mut platform = profile.build_custom(BuildOptions::default(), |gc| {
            gc.mark_threads = mark_threads;
            gc.lazy_sweep = lazy_sweep;
            match mode {
                "generational" => {
                    gc.generational = true;
                    gc.full_gc_every = 6;
                }
                "incremental" => {
                    gc.incremental = true;
                    gc.incremental_budget = 2048;
                }
                _ => {}
            }
        });
        let r = shape.run(&mut platform.machine);
        table.row(vec![
            mode.into(),
            format!("{:?}", r.elapsed),
            r.collections.to_string(),
            r.final_heap_pages.to_string(),
        ]);
        if json_out.enabled() {
            let gc = platform.machine.gc();
            let objs = gc.heap().objects_allocated_total();
            let throughput = objs as f64 / r.elapsed.as_secs_f64().max(1e-9);
            mode_reports.push(json_object(&[
                ("mode", json_str(mode)),
                ("elapsed_ns", r.elapsed.as_nanos().to_string()),
                ("collections", r.collections.to_string()),
                ("final_heap_pages", r.final_heap_pages.to_string()),
                ("alloc_throughput_objs_per_sec", format!("{throughput:.2}")),
                (
                    "alloc_fast_path_hits",
                    gc.stats().fast_path_allocs.to_string(),
                ),
                ("metrics", gc.metrics_json()),
            ]));
        }
    }
    println!("{table}");

    // Serial-vs-parallel differential run: same workload, stop-world mode,
    // marking with 1 thread and with `mark_threads`.
    let mut parallel_report = "null".to_string();
    let mut marks_agree = true;
    if mark_threads > 1 {
        // Three alternating pairs, scored by each configuration's *best*
        // total mark time: preemption and cache pressure only ever add
        // time, so the minimum over repeats is the robust estimate of the
        // true cost on a shared machine. The workload is deterministic, so
        // every repeat must mark the identical object count.
        let mut serial = RunTotals::default();
        let mut par = RunTotals::default();
        serial.mark_time = Duration::MAX;
        par.mark_time = Duration::MAX;
        let mut last_par_platform = None;
        for (i, threads) in [1, mark_threads, 1, mark_threads, 1, mark_threads]
            .into_iter()
            .enumerate()
        {
            let (mut platform, totals) = build(threads, lazy_sweep, true);
            shape.run(&mut platform.machine);
            let t = *totals.lock().expect("run totals");
            let acc = if threads == 1 { &mut serial } else { &mut par };
            acc.mark_time = acc.mark_time.min(t.mark_time);
            if i < 2 {
                acc.objects_marked = t.objects_marked;
                acc.collections = t.collections;
            } else {
                assert_eq!(
                    acc.objects_marked, t.objects_marked,
                    "repeats of the same deterministic workload mark the same objects"
                );
            }
            if threads != 1 {
                last_par_platform = Some(platform);
            }
        }
        let par_platform = last_par_platform.expect("parallel run happened");

        let speedup = serial.mark_time.as_secs_f64() / par.mark_time.as_secs_f64().max(1e-9);
        let mut cmp = TextTable::new(vec![
            "Mark phase".into(),
            "Threads".into(),
            "Best mark time".into(),
            "GCs".into(),
            "Objects marked".into(),
        ]);
        cmp.row(vec![
            "serial".into(),
            "1".into(),
            format!("{:?}", serial.mark_time),
            serial.collections.to_string(),
            serial.objects_marked.to_string(),
        ]);
        cmp.row(vec![
            "parallel".into(),
            mark_threads.to_string(),
            format!("{:?}", par.mark_time),
            par.collections.to_string(),
            par.objects_marked.to_string(),
        ]);
        println!("{cmp}");
        println!("mark-phase speedup: {speedup:.2}x");
        marks_agree = serial.objects_marked == par.objects_marked;
        if !marks_agree {
            eprintln!(
                "ERROR: parallel mark diverged from serial: {} objects marked vs {}",
                par.objects_marked, serial.objects_marked
            );
        } else {
            println!(
                "parallel mark matches serial: {} objects marked over {} GCs",
                par.objects_marked, par.collections
            );
        }
        parallel_report = json_object(&[
            ("mark_threads", mark_threads.to_string()),
            ("serial_mark_ns", serial.mark_time.as_nanos().to_string()),
            ("parallel_mark_ns", par.mark_time.as_nanos().to_string()),
            ("speedup", format!("{speedup:.4}")),
            ("serial_objects_marked", serial.objects_marked.to_string()),
            ("parallel_objects_marked", par.objects_marked.to_string()),
            ("marks_agree", marks_agree.to_string()),
            ("parallel_metrics", par_platform.machine.gc().metrics_json()),
        ]);
    }

    // Eager-vs-lazy differential run: same workload, stop-world mode,
    // sweeping eagerly inside the pause and lazily at allocation time.
    let mut lazy_report = "null".to_string();
    let mut sweeps_agree = true;
    if lazy_sweep {
        // Alternating pairs scored by best pause work (mark + sweep phase
        // time), exactly like the mark differential above. Lazy sweeping
        // must be *transparent*: every repeat, eager or lazy, reclaims the
        // identical objects and bytes and retains the identical live heap.
        let mut eager = RunTotals::default();
        let mut lazy = RunTotals::default();
        eager.mark_time = Duration::MAX;
        eager.sweep_time = Duration::ZERO;
        lazy.mark_time = Duration::MAX;
        lazy.sweep_time = Duration::ZERO;
        let mut eager_pause = Duration::MAX;
        let mut lazy_pause = Duration::MAX;
        let mut eager_live = 0u64;
        let mut lazy_live = 0u64;
        let mut last_lazy_platform = None;
        for (i, lazy_mode) in [false, true, false, true, false, true]
            .into_iter()
            .enumerate()
        {
            let (mut platform, totals) = build(mark_threads, lazy_mode, true);
            shape.run(&mut platform.machine);
            // Settle any still-pending blocks so the realized-batch total
            // accounts for every deferred block, then read the live heap.
            platform.machine.gc_mut().finish_sweep();
            let t = *totals.lock().expect("run totals");
            let bytes_live = platform.machine.gc().heap().stats().bytes_live;
            let (acc, pause, live) = if lazy_mode {
                (&mut lazy, &mut lazy_pause, &mut lazy_live)
            } else {
                (&mut eager, &mut eager_pause, &mut eager_live)
            };
            *pause = (*pause).min(t.pause_work());
            if i < 2 {
                *acc = t;
                *live = bytes_live;
            } else {
                assert_eq!(
                    acc.objects_freed, t.objects_freed,
                    "repeats of the same deterministic workload free the same objects"
                );
                assert_eq!(acc.bytes_freed, t.bytes_freed, "and the same bytes");
                assert_eq!(*live, bytes_live, "and retain the same live heap");
                acc.lazy_batch_time = acc.lazy_batch_time.min(t.lazy_batch_time);
            }
            if lazy_mode {
                last_lazy_platform = Some(platform);
            }
        }
        let lazy_platform = last_lazy_platform.expect("lazy run happened");

        let pause_ratio = eager_pause.as_secs_f64() / lazy_pause.as_secs_f64().max(1e-9);
        let mut cmp = TextTable::new(vec![
            "Sweep".into(),
            "Best mark+sweep pause".into(),
            "Deferred batches".into(),
            "GCs".into(),
            "Objects freed".into(),
            "Bytes freed".into(),
        ]);
        cmp.row(vec![
            "eager".into(),
            format!("{eager_pause:?}"),
            "-".into(),
            eager.collections.to_string(),
            eager.objects_freed.to_string(),
            eager.bytes_freed.to_string(),
        ]);
        cmp.row(vec![
            "lazy".into(),
            format!("{lazy_pause:?}"),
            format!(
                "{:?} ({} blocks)",
                lazy.lazy_batch_time, lazy.lazy_blocks_swept
            ),
            lazy.collections.to_string(),
            lazy.objects_freed.to_string(),
            lazy.bytes_freed.to_string(),
        ]);
        println!("{cmp}");
        println!("mark+sweep pause reduction: {pause_ratio:.2}x");
        sweeps_agree = eager.objects_freed == lazy.objects_freed
            && eager.bytes_freed == lazy.bytes_freed
            && eager_live == lazy_live;
        if !sweeps_agree {
            eprintln!(
                "ERROR: lazy sweep diverged from eager: {}/{} objects/bytes freed vs {}/{}, {} bytes live vs {}",
                lazy.objects_freed,
                lazy.bytes_freed,
                eager.objects_freed,
                eager.bytes_freed,
                lazy_live,
                eager_live,
            );
        } else {
            println!(
                "lazy sweep matches eager: {} objects / {} bytes freed, {} bytes retained",
                lazy.objects_freed, lazy.bytes_freed, lazy_live
            );
        }
        lazy_report = json_object(&[
            ("eager_pause_ns", eager_pause.as_nanos().to_string()),
            ("lazy_pause_ns", lazy_pause.as_nanos().to_string()),
            ("pause_ratio", format!("{pause_ratio:.4}")),
            ("lazy_batch_ns", lazy.lazy_batch_time.as_nanos().to_string()),
            ("lazy_blocks_swept", lazy.lazy_blocks_swept.to_string()),
            ("eager_objects_freed", eager.objects_freed.to_string()),
            ("lazy_objects_freed", lazy.objects_freed.to_string()),
            ("eager_bytes_freed", eager.bytes_freed.to_string()),
            ("lazy_bytes_freed", lazy.bytes_freed.to_string()),
            ("eager_bytes_live", eager_live.to_string()),
            ("lazy_bytes_live", lazy_live.to_string()),
            ("sweeps_agree", sweeps_agree.to_string()),
            ("lazy_metrics", lazy_platform.machine.gc().metrics_json()),
        ]);
    }

    let document = json_object(&[
        ("benchmark", json_str("gcbench")),
        (
            "variant",
            json_str(if classic { "classic" } else { "scaled" }),
        ),
        ("mark_threads", mark_threads.to_string()),
        ("lazy_sweep", lazy_sweep.to_string()),
        ("results", table.to_json()),
        ("modes", json_array(&mode_reports)),
        ("parallel_mark", parallel_report),
        ("lazy_sweep_differential", lazy_report),
    ]);
    json_out.write(&document).expect("write JSON report");
    if !marks_agree || !sweeps_agree {
        std::process::exit(1);
    }
}

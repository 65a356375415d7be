//! Metric definitions and the result line.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names, units and directions, and a test
//! keeps the two in step.

use crate::client::Rig;
use crate::clock;
use crate::{RunResult, Trial};
use gc_core::CollectKind;
use std::fmt::Write as _;
use std::time::Duration;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("gc_s", "s", "lower"),
    def("pause_p50_ms", "ms", "lower"),
    def("pause_p90_ms", "ms", "lower"),
    def("peak_heap_mb", "MB", "lower"),
    def("ok_frac", "fraction", "higher"),
];

/// Reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    def("platforms.build_ms", "ms", "lower"),
    def("platforms.tick_calls", "count", "lower"),
    def("platforms.tick_ms", "ms", "lower"),
    def("machine.alloc_calls", "count", "higher"),
    def("machine.alloc_fast_ns", "ns", "lower"),
    def("machine.alloc_slow_calls", "count", "lower"),
    def("machine.alloc_slow_ms", "ms", "lower"),
    def("machine.collect_calls", "count", "lower"),
    def("machine.collect_ms", "ms", "lower"),
    def("machine.word_ops", "count", "higher"),
    def("machine.mutator_ms", "ms", "lower"),
    def("core.collections", "count", "lower"),
    def("core.minor_collections", "count", "higher"),
    def("core.root_scan_ms", "ms", "lower"),
    def("core.mark_ms", "ms", "lower"),
    def("core.finalize_ms", "ms", "lower"),
    def("core.sweep_ms", "ms", "lower"),
    def("core.objects_marked", "count", "lower"),
    def("core.mark_mb_per_s", "MB/s", "higher"),
    def("core.resolve_hit_frac", "fraction", "higher"),
    def("core.fast_path_frac", "fraction", "higher"),
    def("core.false_refs_near_heap", "count", "lower"),
    def("core.blacklist_pages", "pages", "lower"),
    def("core.unattributed_ms", "ms", "lower"),
    def("heap.peak_pages", "pages", "lower"),
    def("heap.grow_events", "count", "lower"),
    def("heap.objects_freed", "count", "higher"),
    def("heap.bytes_freed", "bytes", "higher"),
    def("heap.lazy_sweep_ms", "ms", "lower"),
    def("heap.lazy_blocks", "count", "lower"),
    def("heap.free_pages", "pages", "lower"),
    def("heap.largest_free_run_pages", "pages", "higher"),
    def("heap.quarantined_pages", "pages", "lower"),
    def("heap.retained_kb", "KB", "lower"),
    def("vmspace.root_words", "words", "lower"),
    def("vmspace.heap_words", "words", "lower"),
    def("trace.overhead_ratio", "ratio", "higher"),
];

const MB: f64 = (1 << 20) as f64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact percentile of the samples, interpolated linearly between the two
/// nearest ranks (so the median of an even count is the mean of the middle
/// two). Program T's pauses form one cluster per collection of its fixed
/// schedule; interpolating keeps its median from flipping between the
/// clusters on either side.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    let mut v = samples.to_vec();
    v.sort();
    assert!(!v.is_empty(), "percentile of no samples");
    let h = p * (v.len() - 1) as f64;
    let (lo, hi) = (v[h.floor() as usize], v[h.ceil() as usize]);
    lo + (hi - lo).mul_f64(h - h.floor())
}

/// Allocation calls per second of the trial's CPU time, at reference speed.
pub fn ops_per_s(t: &Trial) -> f64 {
    t.tally.allocs as f64 / clock::at_reference(t.run_cpu, t.probe).as_secs_f64()
}

/// The trial's collector pauses in CPU time, at reference speed.
pub fn pauses(t: &Trial) -> impl Iterator<Item = Duration> + '_ {
    t.pause_cpu.iter().map(|&p| clock::at_reference(p, t.probe))
}

/// The per-layer metrics of a traced trial, read right after its
/// operations: `collections` is how many collection records they produced.
pub fn layer_metrics(
    s: &Rig,
    setup: Duration,
    run_time: Duration,
    collections: usize,
) -> Vec<(&'static str, f64)> {
    let tracer = s.ctx.tracer.as_ref().expect("traced trial");
    let tally = s.ctx.tally;
    let gc = s.gc();
    let stats = gc.stats();
    let heap = gc.heap().stats();
    let rec = s.recorder();
    let timed = &rec.collections[..collections];

    let fast = tracer.aggregate("machine.alloc");
    let (slow_calls, slow_time) = tracer.kept("machine.alloc_slow");
    let (collect_calls, collect_time) = tracer.kept("machine.collect");
    let (kept_ticks, kept_tick_time) = tracer.kept("platforms.tick");
    let ticks = tracer.aggregate("platforms.tick");
    let tick_time = ticks.total + kept_tick_time;
    debug_assert_eq!(ticks.count + kept_ticks, tally.ticks);

    let sum = |f: &dyn Fn(&crate::trace::CollectionRecord) -> Duration| {
        timed.iter().map(f).sum::<Duration>()
    };
    let pause_total = sum(&|c| c.duration);
    let mark = sum(&|c| c.phases.mark);
    let hits: u64 = timed.iter().map(|c| c.resolve_hits).sum();
    let misses: u64 = timed.iter().map(|c| c.resolve_misses).sum();
    // Calls that did collection work, timed from outside; the collector's
    // own pause times must fit inside them.
    let outside = slow_time + collect_time + kept_tick_time;

    vec![
        ("platforms.build_ms", ms(setup)),
        ("platforms.tick_calls", tally.ticks as f64),
        ("platforms.tick_ms", ms(tick_time)),
        ("machine.alloc_calls", tally.allocs as f64),
        (
            "machine.alloc_fast_ns",
            ratio(fast.total.as_nanos() as f64, fast.count as f64),
        ),
        ("machine.alloc_slow_calls", slow_calls as f64),
        ("machine.alloc_slow_ms", ms(slow_time)),
        ("machine.collect_calls", collect_calls as f64),
        ("machine.collect_ms", ms(collect_time)),
        ("machine.word_ops", tally.word_ops as f64),
        (
            "machine.mutator_ms",
            ms(run_time.saturating_sub(fast.total + slow_time + collect_time + tick_time)),
        ),
        ("core.collections", timed.len() as f64),
        (
            "core.minor_collections",
            timed
                .iter()
                .filter(|c| c.kind == CollectKind::Minor)
                .count() as f64,
        ),
        ("core.root_scan_ms", ms(sum(&|c| c.phases.root_scan))),
        ("core.mark_ms", ms(mark)),
        ("core.finalize_ms", ms(sum(&|c| c.phases.finalize))),
        ("core.sweep_ms", ms(sum(&|c| c.phases.sweep))),
        (
            "core.objects_marked",
            timed.iter().map(|c| c.objects_marked).sum::<u64>() as f64,
        ),
        (
            "core.mark_mb_per_s",
            ratio(s.ctx.bytes_marked as f64 / MB, mark.as_secs_f64()),
        ),
        (
            "core.resolve_hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "core.fast_path_frac",
            ratio(
                stats.fast_path_allocs as f64,
                (stats.fast_path_allocs + stats.slow_path_allocs) as f64,
            ),
        ),
        ("core.false_refs_near_heap", stats.total_false_refs as f64),
        ("core.blacklist_pages", f64::from(gc.blacklist().len())),
        ("core.unattributed_ms", ms(outside) - ms(pause_total)),
        ("heap.peak_pages", f64::from(s.ctx.peak_pages)),
        ("heap.grow_events", rec.heap_grows as f64),
        (
            "heap.objects_freed",
            timed.iter().map(|c| c.objects_freed).sum::<u64>() as f64,
        ),
        (
            "heap.bytes_freed",
            timed.iter().map(|c| c.bytes_freed).sum::<u64>() as f64,
        ),
        ("heap.lazy_sweep_ms", ms(rec.lazy_sweep)),
        ("heap.lazy_blocks", rec.lazy_blocks as f64),
        ("heap.free_pages", f64::from(heap.free_pages)),
        (
            "heap.largest_free_run_pages",
            f64::from(heap.largest_free_run),
        ),
        (
            "heap.quarantined_pages",
            f64::from(gc.heap().quarantined_pages()),
        ),
        ("vmspace.root_words", stats.total_root_words as f64),
        ("vmspace.heap_words", s.ctx.heap_words as f64),
    ]
}

/// A percentile of one trial's pauses. Taken per trial, not over the
/// pauses of every trial pooled: pooled, Program T's median falls exactly
/// between two clusters of its schedule (7 of its 14 pauses per trial lie
/// below it), where it is the mean of the slowest pause of one cluster and
/// the fastest of the next, over all trials.
fn pause_percentile_ms(t: &Trial, p: f64) -> f64 {
    ms(percentile(&pauses(t).collect::<Vec<_>>(), p))
}

/// End-to-end metrics, from the run's untraced trials.
fn end_to_end(r: &RunResult) -> Vec<(&'static str, f64)> {
    let per_trial = |f: &dyn Fn(&Trial) -> f64| median(&r.plain.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = r.setups.iter().map(Duration::as_secs_f64).collect();
    let (attempted, failed) = totals(r);
    vec![
        ("setup_s", median(&setups)),
        ("ops_per_s", per_trial(&ops_per_s)),
        (
            "gc_s",
            per_trial(&|t| pauses(t).sum::<Duration>().as_secs_f64()),
        ),
        ("pause_p50_ms", per_trial(&|t| pause_percentile_ms(t, 0.5))),
        ("pause_p90_ms", per_trial(&|t| pause_percentile_ms(t, 0.9))),
        (
            "peak_heap_mb",
            per_trial(&|t| f64::from(t.peak_pages) * 4096.0 / MB),
        ),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64),
    ]
}

/// Per-layer metrics: the median over traced trials, plus the ratio of
/// traced to untraced throughput.
fn per_layer(r: &RunResult) -> Vec<(&'static str, f64)> {
    let first = &r
        .traced
        .first()
        .expect("a traced run has traced trials")
        .layers;
    let mut out: Vec<(&'static str, f64)> = first
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = r
                .traced
                .iter()
                .flat_map(|t| t.layers.iter().filter(|(n, _)| *n == name))
                .map(|&(_, v)| v)
                .collect();
            (name, median(&values))
        })
        .collect();
    let traced = median(&r.traced.iter().map(ops_per_s).collect::<Vec<_>>());
    let plain = median(&r.plain.iter().map(ops_per_s).collect::<Vec<_>>());
    out.push(("trace.overhead_ratio", traced / plain));
    out
}

/// Attempted and failed operations over every trial and run-level check.
pub fn totals(r: &RunResult) -> (u64, u64) {
    let trials = r.plain.iter().chain(&r.traced);
    let attempted = trials.clone().map(|t| t.tally.attempted()).sum::<u64>() + r.checks;
    let failed = trials.map(|t| t.tally.failed()).sum::<u64>() + r.check_failures;
    (attempted, failed)
}

/// The metrics a run reports, in table order, with their units.
pub fn metrics(r: &RunResult, traced: bool) -> Vec<(&'static MetricDef, f64)> {
    let (table, values) = if traced {
        (PER_LAYER, per_layer(r))
    } else {
        (END_TO_END, end_to_end(r))
    };
    assert_eq!(table.len(), values.len(), "every metric is computed once");
    table
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("{} is computed", def.name))
                .1;
            (def, value)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(r: &RunResult, metrics: &[(&MetricDef, f64)]) -> String {
    let (attempted, failed) = totals(r);
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        assert!(value.is_finite(), "{} is not finite", def.name);
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

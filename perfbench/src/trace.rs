//! What the benchmark records: the collector's own event stream (always)
//! and spans taken around each call into the machine (traced runs only).
//!
//! Spans are kept in memory and written out once, when the run ends.
//! Calls that did collection work and explicit collections are kept as
//! individual spans; hot calls that did none are kept as per-name
//! aggregates, so tracing a five-million-allocation run stays cheap.

use crate::clock::thread_cpu;
use gc_core::{CollectKind, GcEvent, GcObserver, PhaseTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One collection, as the collector's `CollectionEnd` event reported it.
#[derive(Clone, Copy, Debug)]
pub struct CollectionRecord {
    pub kind: CollectKind,
    pub duration: Duration,
    pub phases: PhaseTimes,
    pub objects_marked: u64,
    pub objects_freed: u64,
    pub bytes_freed: u64,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
    /// When the event arrived; the collection spans `[ended - duration, ended]`.
    pub ended: Instant,
    /// CPU time of the collecting thread from `CollectionBegin` to
    /// `CollectionEnd`: the pause, less time the thread was not running.
    pub cpu: Duration,
}

/// The observer installed on every collector the benchmark builds.
#[derive(Debug, Default)]
pub struct Recorder {
    pub collections: Vec<CollectionRecord>,
    /// Thread CPU time at the last `CollectionBegin`.
    cpu_begin: Duration,
    pub heap_grows: u64,
    pub lazy_sweep: Duration,
    pub lazy_blocks: u64,
}

impl GcObserver for Recorder {
    fn on_event(&mut self, event: &GcEvent) {
        match *event {
            GcEvent::CollectionBegin { .. } => self.cpu_begin = thread_cpu(),
            GcEvent::CollectionEnd {
                kind,
                phases,
                duration,
                objects_marked,
                objects_freed,
                bytes_freed,
                resolve_hits,
                resolve_misses,
                ..
            } => self.collections.push(CollectionRecord {
                kind,
                duration,
                phases,
                objects_marked,
                objects_freed,
                bytes_freed,
                resolve_hits,
                resolve_misses,
                ended: Instant::now(),
                cpu: thread_cpu().saturating_sub(self.cpu_begin),
            }),
            GcEvent::HeapGrow { .. } => self.heap_grows += 1,
            GcEvent::LazySweep {
                blocks_swept,
                duration,
                ..
            } => {
                self.lazy_sweep += duration;
                self.lazy_blocks += blocks_swept;
            }
            _ => {}
        }
    }
}

/// One kept span. Times are offsets from the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The operation (tree build, list, request) the span belongs to.
    pub op: u64,
}

/// Calls of one name that were not kept individually.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total: Duration,
    /// `total` minus the time of calls made inside these spans.
    pub self_time: Duration,
}

#[derive(Debug)]
struct OpFrame {
    name: &'static str,
    id: u64,
    start: Instant,
    child_time: Duration,
    kept_children: Vec<usize>,
}

/// In-memory span store for one traced trial.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub aggregates: BTreeMap<&'static str, Aggregate>,
    op: Option<OpFrame>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: BTreeMap::new(),
            op: None,
        }
    }
}

impl Tracer {
    /// Opens an operation. Operations do not nest.
    pub fn begin_op(&mut self, name: &'static str, id: u64) {
        assert!(self.op.is_none(), "operation {name} opened inside another");
        self.op = Some(OpFrame {
            name,
            id,
            start: Instant::now(),
            child_time: Duration::ZERO,
            kept_children: Vec::new(),
        });
    }

    /// Closes the open operation. It is kept as a span when one of its
    /// calls was kept, and otherwise folded into its name's aggregate.
    pub fn end_op(&mut self) {
        let op = self.op.take().expect("end_op without begin_op");
        let end = Instant::now();
        if op.kept_children.is_empty() {
            let total = end - op.start;
            let agg = self.aggregates.entry(op.name).or_default();
            agg.count += 1;
            agg.total += total;
            agg.self_time += total.saturating_sub(op.child_time);
        } else {
            let index = self.spans.len();
            self.spans.push(Span {
                name: op.name,
                start: op.start - self.epoch,
                end: end - self.epoch,
                parent: None,
                op: op.id,
            });
            for child in op.kept_children {
                self.spans[child].parent = Some(index);
            }
        }
    }

    /// Records one call into a layer. Returns the span's index when it is
    /// kept individually.
    pub fn call(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        keep: bool,
    ) -> Option<usize> {
        let duration = end - start;
        let op_id = self.op.as_ref().map_or(0, |op| op.id);
        if let Some(op) = &mut self.op {
            op.child_time += duration;
        }
        if !keep {
            let agg = self.aggregates.entry(name).or_default();
            agg.count += 1;
            agg.total += duration;
            agg.self_time += duration;
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: start - self.epoch,
            end: end - self.epoch,
            parent: None,
            op: op_id,
        });
        if let Some(op) = &mut self.op {
            op.kept_children.push(index);
        }
        Some(index)
    }

    /// Records a span nested in the kept span `parent`.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant, parent: usize) {
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end - self.epoch,
            parent: Some(parent),
            op,
        });
    }

    /// Kept spans whose name is `name`: count and summed duration.
    pub fn kept(&self, name: &str) -> (u64, Duration) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, Duration::ZERO), |(n, t), s| {
                (n + 1, t + (s.end - s.start))
            })
    }

    /// Aggregated calls of `name`.
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// JSON Lines: one line per kept span, then one per aggregate.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op
            );
        }
        for (name, a) in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"aggregate\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count,
                a.total.as_nanos(),
                a.self_time.as_nanos()
            );
        }
        out
    }
}

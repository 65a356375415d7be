//! The conservative mark-sweep collector.

use crate::{
    mark::{MarkOutcome, Marker},
    par_mark,
    telemetry::{self, GcEvent, PhaseTimes},
    Blacklist, CollectKind, CollectReason, CollectRequest, CollectionStats, Finalizers, GcConfig,
    GcError, GcStats, ParallelMarkStats, Retainer, RootClass, MAX_MARK_THREADS,
};
use gc_heap::{
    Descriptor, DescriptorId, Heap, HeapError, LazySweepStats, ObjRef, ObjectKind, PageUse,
};
use gc_vmspace::{Addr, AddressSpace, PageIdx, PAGE_BYTES};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A conservative mark-sweep garbage collector with page-level blacklisting,
/// reproducing the collector of Boehm's *Space Efficient Conservative
/// Garbage Collection* (PLDI 1993).
///
/// The collector owns the simulated [`AddressSpace`]: all mutator state
/// (stacks, registers, static data) lives in mapped segments, which the
/// collector scans conservatively at every collection. There is no exact
/// pointer information anywhere — any bit pattern that resolves to a live
/// object under the configured
/// [`PointerPolicy`](crate::PointerPolicy) retains that object.
///
/// # Example
///
/// ```
/// use gc_core::{Collector, GcConfig};
/// use gc_heap::ObjectKind;
/// use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
///
/// # fn main() -> Result<(), gc_core::GcError> {
/// let mut space = AddressSpace::new(Endian::Big);
/// let data = space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 4096))?;
/// let mut gc = Collector::new(space, GcConfig::default());
///
/// let obj = gc.alloc(8, ObjectKind::Composite)?;
/// // Store the only reference in scanned static data: the object survives.
/// let slot = gc.space().segment(data).base();
/// gc.space_mut().write_u32(slot, obj.raw())?;
/// gc.collect();
/// assert!(gc.is_live(obj));
///
/// // Clear the reference: the object is reclaimed.
/// gc.space_mut().write_u32(slot, 0)?;
/// gc.collect();
/// assert!(!gc.is_live(obj));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Collector {
    space: AddressSpace,
    heap: Heap,
    config: GcConfig,
    blacklist: Blacklist,
    finalizers: Finalizers,
    stats: GcStats,
    startup_done: bool,
    /// Dirty pages (card table, page granularity), used by generational
    /// minor collections and by incremental marking's finish phase.
    cards: HashSet<u32>,
    minors_since_full: u32,
    /// In-progress incremental marking cycle.
    inc: Option<IncState>,
    /// Disappearing links: slot address → target object base. When the
    /// target becomes unreachable, the slot is zeroed (the weak-reference
    /// facility of the paper-era collectors; PCR used it alongside
    /// finalization).
    weak_links: HashMap<Addr, Addr>,
    /// The heap's realized deferred-sweep totals at the last point they
    /// were reported to telemetry; the difference to the current totals is
    /// the batch a [`GcEvent::LazySweep`] describes.
    lazy_reported: LazySweepStats,
    /// Cumulative fast/slow allocation counts at the end of the previous
    /// collection, so each [`CollectionStats`] can report the deltas
    /// accumulated since then.
    allocs_at_last_collect: (u64, u64),
}

/// A collection cycle between [`Collector::begin`] and
/// [`Collector::finish`]: what it is, and what its marking has counted so
/// far.
#[derive(Debug)]
struct Cycle {
    gc_no: u64,
    kind: CollectKind,
    reason: CollectReason,
    /// An incremental cycle records its finish as one more
    /// [`GcEvent::IncrementalPause`]; a stop-world one as a single pause.
    incremental: bool,
    blacklist_before: u32,
    started: Instant,
    /// Phase time accumulated so far (across increments, if incremental).
    phases: PhaseTimes,
    out: MarkOutcome,
    parallel_mark: Option<ParallelMarkStats>,
}

/// An incremental cycle paused between increments.
#[derive(Debug)]
struct IncState {
    cycle: Cycle,
    stack: Vec<ObjRef>,
}

impl Collector {
    /// Creates a collector over `space` with the given configuration.
    ///
    /// No collection runs yet; the startup collection (if configured)
    /// happens on the first allocation or an explicit [`Collector::start`],
    /// so the embedder can finish mapping static segments first.
    pub fn new(space: AddressSpace, config: GcConfig) -> Self {
        assert!(
            !(config.generational && config.incremental),
            "generational and incremental modes are mutually exclusive"
        );
        Collector {
            heap: Heap::new(config.heap.clone()),
            blacklist: Blacklist::new(config.blacklist_kind, config.blacklist_ttl),
            finalizers: Finalizers::default(),
            stats: GcStats::default(),
            startup_done: false,
            cards: HashSet::new(),
            minors_since_full: 0,
            inc: None,
            weak_links: HashMap::new(),
            lazy_reported: LazySweepStats::default(),
            allocs_at_last_collect: (0, 0),
            space,
            config,
        }
    }

    /// Runs the startup collection if it has not happened yet.
    ///
    /// "…at least one (normally very fast) garbage collection occurring
    /// just after system start up before any allocation has taken place"
    /// (§3) — this is what guarantees static data's false references are
    /// blacklisted before they can pin anything.
    pub fn start(&mut self) {
        if !self.startup_done {
            self.startup_done = true;
            if self.config.initial_collect {
                self.collect_stop_world(CollectKind::Full, CollectReason::Startup);
            }
        }
    }

    /// Allocates `bytes` bytes of the given kind, collecting as needed.
    ///
    /// # Errors
    ///
    /// Returns [`GcError::Heap`] when the heap limit is exhausted even
    /// after a forced collection, or for zero-sized requests.
    pub fn alloc(&mut self, bytes: u32, kind: ObjectKind) -> Result<Addr, GcError> {
        self.alloc_with(bytes, kind, None)
    }

    /// The allocation driver behind [`alloc`](Collector::alloc) and
    /// [`alloc_typed`](Collector::alloc_typed) (`desc` given): the startup
    /// collection, incremental stepping or automatic collection, the heap
    /// call, allocate-black, one retry after a full collection when the
    /// heap is exhausted, and the allocation telemetry.
    fn alloc_with(
        &mut self,
        bytes: u32,
        kind: ObjectKind,
        desc: Option<DescriptorId>,
    ) -> Result<Addr, GcError> {
        // Fast-path discipline: no clock reads and no heap walks. The heap
        // probes below are the O(1) narrow accessors, and `Instant::now()`
        // is stamped lazily at the first slow-path entry, so an allocation
        // that triggers no collection work pays for neither.
        let mut t0: Option<Instant> = None;
        let mapped_before = self.heap.mapped_pages();
        let work_before = self.stats.collections + self.stats.increments;
        if !self.startup_done {
            t0 = Some(Instant::now());
            self.start();
        }
        if self.config.incremental {
            // Keep an in-progress cycle moving; start one at the usual
            // threshold.
            if self.inc.is_some() || self.should_collect() {
                t0.get_or_insert_with(Instant::now);
                self.collect_increment(CollectReason::Automatic);
            }
        } else if self.should_collect() {
            t0.get_or_insert_with(Instant::now);
            self.collect_stop_world(self.auto_collect_kind(), CollectReason::Automatic);
        }
        let result = match self.try_alloc(bytes, kind, desc) {
            Ok(addr) => Ok(addr),
            Err(HeapError::OutOfMemory { .. }) => {
                t0.get_or_insert_with(Instant::now);
                // Out-of-memory retries always use a full collection. It
                // realizes and reports any deferred sweep work itself, so
                // account this attempt's share first.
                self.note_lazy_sweep();
                self.collect_stop_world(CollectKind::Full, CollectReason::OutOfMemory);
                Ok(self.try_alloc(bytes, kind, desc)?)
            }
            Err(e) => Err(e.into()),
        };
        if let Ok(addr) = result {
            self.allocate_black(addr);
        }
        self.note_lazy_sweep();
        let mapped_after = self.heap.mapped_pages();
        if mapped_after > mapped_before {
            self.emit(|| GcEvent::HeapGrow {
                grown_pages: mapped_after - mapped_before,
                mapped_pages: mapped_after,
            });
        }
        // Slow path: the allocation triggered collection work (a
        // stop-the-world cycle, an incremental step, or the startup
        // collection) before returning.
        let slow = self.stats.collections + self.stats.increments > work_before;
        if result.is_ok() {
            if slow {
                self.stats.slow_path_allocs += 1;
            } else {
                self.stats.fast_path_allocs += 1;
            }
        }
        if slow {
            let duration = t0.expect("collection work stamps the clock").elapsed();
            self.stats.alloc_slow_path.record_duration(duration);
            self.emit(|| GcEvent::AllocSlowPath { bytes, duration });
        }
        result
    }

    /// Reports deferred sweep work realized since the last report: one
    /// [`GcEvent::LazySweep`] describing the batch, and one sample in the
    /// lazy-sweep pause histogram. No-op when nothing was realized, so
    /// callers invoke it unconditionally after anything that may sweep.
    fn note_lazy_sweep(&mut self) {
        let totals = self.heap.lazy_sweep_totals();
        let blocks_swept = totals.blocks_swept - self.lazy_reported.blocks_swept;
        if blocks_swept == 0 {
            return;
        }
        let duration = totals.sweep_time - self.lazy_reported.sweep_time;
        let objects_freed = totals.objects_freed - self.lazy_reported.objects_freed;
        let bytes_freed = totals.bytes_freed - self.lazy_reported.bytes_freed;
        self.lazy_reported = totals;
        self.stats.lazy_sweep_pauses.record_duration(duration);
        let pending_blocks = self.heap.pending_sweep_blocks();
        self.emit(|| GcEvent::LazySweep {
            blocks_swept,
            objects_freed,
            bytes_freed,
            pending_blocks,
            duration,
        });
    }

    /// Completes any deferred (lazy) sweep work now, returning the number
    /// of blocks swept.
    ///
    /// After a collection with [`GcConfig::lazy_sweep`], free-list
    /// reconstruction and empty-block release trickle in from the
    /// allocation slow path; whole-heap analyses (census walks, page
    /// accounting, fragmentation measurements, `dump`) that must see the
    /// settled heap call this first. Always a no-op in eager mode or when
    /// no blocks are pending.
    pub fn finish_sweep(&mut self) -> u32 {
        let swept = self.heap.finish_sweep();
        self.note_lazy_sweep();
        swept
    }

    /// During an incremental cycle, fresh objects are allocated *black*
    /// (already marked): the tracer never needs to revisit them, and their
    /// future contents are covered by the card table.
    fn allocate_black(&mut self, addr: Addr) {
        if self.inc.is_some() {
            if let Some(obj) = self.heap.object_containing(addr) {
                self.heap.set_marked(obj);
            }
        }
    }

    fn auto_collect_kind(&self) -> CollectKind {
        if self.config.generational && self.minors_since_full < self.config.full_gc_every {
            CollectKind::Minor
        } else {
            CollectKind::Full
        }
    }

    /// Records a mutator write to `addr` in the card table (generational
    /// write barrier). Cheap no-op outside the heap or when generational
    /// mode is off. The simulated machine calls this from its store path;
    /// embedders writing heap memory directly must do the same, or a minor
    /// collection may miss an old→young pointer.
    pub fn record_write(&mut self, addr: Addr) {
        if (self.config.generational || self.inc.is_some()) && self.heap.in_heap_range(addr) {
            self.cards.insert(addr.page().raw());
        }
    }

    /// Number of dirty cards currently recorded.
    pub fn dirty_cards(&self) -> usize {
        self.cards.len()
    }

    /// Registers an object-layout descriptor for typed allocation — the
    /// "complete information on the location of pointers in the heap" end
    /// of the paper's conservativism spectrum.
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.heap.register_descriptor(descriptor)
    }

    /// Allocates a typed object: only its declared pointer words are
    /// scanned, so its data words can never be misidentified as pointers.
    ///
    /// # Errors
    ///
    /// As [`Collector::alloc`].
    ///
    /// # Example
    ///
    /// ```
    /// use gc_core::{Collector, GcConfig};
    /// use gc_heap::{Descriptor, ObjectKind};
    /// use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
    ///
    /// # fn main() -> Result<(), gc_core::GcError> {
    /// let mut space = AddressSpace::new(Endian::Big);
    /// space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 64))?;
    /// let mut gc = Collector::new(space, GcConfig::default());
    /// // Layout: [pointer, data]; the data word is never scanned.
    /// let desc = gc.register_descriptor(Descriptor::with_pointers_at(2, &[0]));
    /// let victim = gc.alloc(8, ObjectKind::Composite)?;
    /// let rec = gc.alloc_typed(8, desc)?;
    /// gc.space_mut().write_u32(Addr::new(0x1_0000), rec.raw())?;
    /// gc.space_mut().write_u32(rec + 4, victim.raw())?; // data word
    /// gc.collect();
    /// assert!(!gc.is_live(victim), "exact layout: no misidentification");
    /// # Ok(())
    /// # }
    /// ```
    pub fn alloc_typed(&mut self, bytes: u32, desc: DescriptorId) -> Result<Addr, GcError> {
        self.alloc_with(bytes, ObjectKind::Composite, Some(desc))
    }

    /// Delivers an event to the configured observer, if any. The closure
    /// defers event construction so the no-observer case stays free.
    fn emit(&self, event: impl FnOnce() -> GcEvent) {
        if let Some(observer) = &self.config.observer {
            let event = event();
            if let Ok(mut sink) = observer.lock() {
                sink.on_event(&event);
            }
        }
    }

    /// Reports that the mutator cleared `bytes` bytes of dead stack (the
    /// paper's §3.1 stack-hygiene measure). Pure telemetry: forwards a
    /// [`GcEvent::StackClear`] to the observer.
    pub fn note_stack_clear(&self, bytes: u32) {
        if bytes > 0 {
            self.emit(|| GcEvent::StackClear { bytes });
        }
    }

    /// Renders a versioned JSON snapshot of the collector's metrics:
    /// cumulative and last-collection statistics (with the per-phase
    /// breakdown), pause and allocation-latency histograms, a per-size-class
    /// heap census, and the blacklist state. Schema version:
    /// [`telemetry::METRICS_SCHEMA_VERSION`](crate::METRICS_SCHEMA_VERSION).
    pub fn metrics_json(&self) -> String {
        telemetry::metrics_json(self)
    }

    fn try_alloc(
        &mut self,
        bytes: u32,
        kind: ObjectKind,
        desc: Option<DescriptorId>,
    ) -> Result<Addr, HeapError> {
        let blacklist = &self.blacklist;
        let config = &self.config;
        let mut pred = |page: PageIdx, use_: PageUse| page_usable(blacklist, config, page, use_);
        match desc {
            None => self.heap.alloc(&mut self.space, bytes, kind, &mut pred),
            Some(desc) => self
                .heap
                .alloc_typed(&mut self.space, bytes, desc, &mut pred),
        }
    }

    fn should_collect(&self) -> bool {
        let mapped = u64::from(self.heap.mapped_pages()) * u64::from(PAGE_BYTES);
        let threshold = (mapped / u64::from(self.config.free_space_divisor))
            .max(self.config.min_bytes_between_gcs);
        self.heap.bytes_since_collect() >= threshold
    }

    /// Fast/slow allocation-path counts accumulated since the previous
    /// collection, advancing the snapshot to now.
    fn take_alloc_path_deltas(&mut self) -> (u64, u64) {
        let now = (self.stats.fast_path_allocs, self.stats.slow_path_allocs);
        let (fast0, slow0) = std::mem::replace(&mut self.allocs_at_last_collect, now);
        (now.0 - fast0, now.1 - slow0)
    }

    /// Runs a collection described by `request` — the unified entry point
    /// behind [`collect`](Collector::collect),
    /// [`collect_minor`](Collector::collect_minor) and
    /// [`collect_increment`](Collector::collect_increment).
    ///
    /// [`CollectRequest::Full`] and [`CollectRequest::Minor`] always
    /// complete a cycle and return `Some`;
    /// [`CollectRequest::Increment`] advances an incremental cycle by one
    /// bounded step and returns `Some` only from the step that finishes
    /// the cycle.
    pub fn run(&mut self, request: CollectRequest) -> Option<CollectionStats> {
        self.startup_done = true;
        match request {
            CollectRequest::Full => {
                Some(self.collect_stop_world(CollectKind::Full, CollectReason::Explicit))
            }
            CollectRequest::Minor => {
                Some(self.collect_stop_world(CollectKind::Minor, CollectReason::Explicit))
            }
            CollectRequest::Increment(reason) => self.increment(reason),
        }
    }

    /// Runs a full collection now.
    pub fn collect(&mut self) -> CollectionStats {
        self.run(CollectRequest::Full)
            .expect("a full collection always completes")
    }

    /// Runs a minor (young-generation) collection now.
    ///
    /// Only meaningful with [`GcConfig::generational`]; without it, every
    /// object is young and this degenerates to a full collection.
    ///
    /// # Example
    ///
    /// ```
    /// use gc_core::{Collector, GcConfig};
    /// use gc_heap::ObjectKind;
    /// use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
    ///
    /// # fn main() -> Result<(), gc_core::GcError> {
    /// let mut space = AddressSpace::new(Endian::Big);
    /// space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 64))?;
    /// let mut gc = Collector::new(space, GcConfig { generational: true, ..GcConfig::default() });
    ///
    /// let keeper = gc.alloc(8, ObjectKind::Composite)?;
    /// gc.space_mut().write_u32(Addr::new(0x1_0000), keeper.raw())?;
    /// gc.collect_minor(); // keeper survives and is tenured
    /// let garbage = gc.alloc(8, ObjectKind::Composite)?;
    /// gc.collect_minor(); // sweeps only the young generation
    /// assert!(gc.is_live(keeper) && !gc.is_live(garbage));
    /// # Ok(())
    /// # }
    /// ```
    pub fn collect_minor(&mut self) -> CollectionStats {
        self.run(CollectRequest::Minor)
            .expect("a minor collection always completes")
    }

    /// Advances incremental marking by one bounded step, starting a cycle
    /// if none is in progress; returns the cycle's statistics when this
    /// step finished it.
    ///
    /// Each call pauses the mutator for at most one of: the root scan, one
    /// tracing increment of
    /// [`incremental_budget`](GcConfig::incremental_budget) objects, or
    /// the stop-the-world finish (roots + dirty-page rescan + sweep).
    pub fn collect_increment(&mut self, reason: CollectReason) -> Option<CollectionStats> {
        self.run(CollectRequest::Increment(reason))
    }

    // Every collection is one pipeline: `begin` a cycle, seed the mark
    // stack from the kind's mark sources, drain it, and `finish`
    // (finalize, disappearing links, sweep, account). The kinds differ
    // only in their sources:
    //
    // * full: the roots;
    // * minor: the roots plus the old objects on dirty pages;
    // * incremental start: the roots, drained later in budgeted steps;
    // * incremental finish: every object on a dirty page plus the roots.

    /// Begins a cycle: numbers and announces it, opens a blacklist
    /// generation and clears the mark bits. Pending blocks' reclamation
    /// decisions live in the previous cycle's marks, so deferred sweep work
    /// is realized first, outside the cycle's measured time.
    fn begin(&mut self, kind: CollectKind, reason: CollectReason, incremental: bool) -> Cycle {
        self.finish_sweep();
        let started = Instant::now();
        let gc_no = self.stats.collections + 1;
        self.emit(|| GcEvent::CollectionBegin {
            gc_no,
            kind,
            reason,
        });
        let blacklist_before = self.blacklist.len();
        self.blacklist.begin_cycle(gc_no);
        self.heap.clear_marks();
        Cycle {
            gc_no,
            kind,
            reason,
            incremental,
            blacklist_before,
            started,
            phases: PhaseTimes::default(),
            out: MarkOutcome::default(),
            parallel_mark: None,
        }
    }

    /// The dirty cards, as pages to rescan.
    fn dirty_pages(&self) -> Vec<PageIdx> {
        self.cards.iter().map(|&p| PageIdx::new(p)).collect()
    }

    /// Workers for a stop-world drain: `None` for the serial marker, which
    /// keeps its resolve cache warm from the root scan into the drain.
    /// Otherwise the configured count, never more than the machine's cores
    /// unless forced: a stop-world mark is pure CPU, so extra workers only
    /// time-slice against each other. A parallel mark clamped to one core
    /// still drains through [`par_mark::par_drain`], which runs it inline
    /// and reports one worker, so telemetry keeps its shape across hosts.
    fn mark_workers(&self) -> Option<usize> {
        let requested = self.config.mark_threads.clamp(1, MAX_MARK_THREADS) as usize;
        if requested == 1 {
            return None;
        }
        if self.config.mark_threads_force {
            return Some(requested);
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Some(requested.min(cores))
    }

    /// A stop-the-world full or minor collection. It abandons any
    /// in-progress incremental cycle, whose partial marks `begin` clears.
    fn collect_stop_world(&mut self, kind: CollectKind, reason: CollectReason) -> CollectionStats {
        self.inc = None;
        let mut cycle = self.begin(kind, reason, false);
        let minor = kind == CollectKind::Minor;
        let dirty = if minor {
            self.dirty_pages()
        } else {
            Vec::new()
        };
        let workers = self.mark_workers();
        let mut marker = Marker::new(&self.space, &self.heap, &mut self.blacklist, &self.config);
        if minor {
            marker = marker.minor();
        }
        // Root scan: always serial, because roots carry provenance (which
        // segment class blacklists a page).
        let t_phase = Instant::now();
        marker.scan_roots();
        cycle.phases.root_scan = t_phase.elapsed();
        // Mark: the remembered set joins the seeds, then one drain reaches
        // the transitive fixed point.
        let t_phase = Instant::now();
        marker.scan_pages(dirty, true);
        if let Some(workers) = workers {
            let seeds = marker.take_stack();
            let kernel = marker.kernel();
            cycle.out = marker.outcome();
            let par = par_mark::par_drain(kernel, seeds, workers);
            cycle.out.merge(par.out);
            // Merge the workers' blacklist candidates in page order:
            // deterministic regardless of how work was scheduled.
            for &(page, count) in &par.false_pages {
                self.blacklist
                    .note_false_refs(PageIdx::new(page), RootClass::Heap, count);
            }
            for (i, w) in par.workers.iter().enumerate() {
                self.emit(|| GcEvent::MarkWorker {
                    gc_no: cycle.gc_no,
                    worker: i as u32,
                    objects_marked: w.objects_marked,
                    bytes_marked: w.bytes_marked,
                    stolen: w.stolen,
                    duration: w.duration,
                });
            }
            cycle.parallel_mark = Some(ParallelMarkStats::new(&par.workers));
        } else {
            marker.drain_all();
            cycle.out = marker.outcome();
        }
        cycle.phases.mark = t_phase.elapsed();
        let started = cycle.started;
        self.finish(cycle, started)
    }

    /// One incremental step: the start (a new cycle's root scan), one
    /// budgeted tracing increment, or, once tracing is done, the
    /// stop-the-world finish. Tracing is always serial.
    fn increment(&mut self, reason: CollectReason) -> Option<CollectionStats> {
        let (mut state, t0, done) = match self.inc.take() {
            None => {
                let mut cycle = self.begin(CollectKind::Full, reason, true);
                self.cards.clear();
                let mut marker =
                    Marker::new(&self.space, &self.heap, &mut self.blacklist, &self.config);
                marker.scan_roots();
                cycle.out = marker.outcome();
                let stack = marker.take_stack();
                cycle.phases.root_scan = cycle.started.elapsed();
                let t0 = cycle.started;
                (IncState { cycle, stack }, t0, false)
            }
            Some(mut state) => {
                let t0 = Instant::now();
                let mut marker =
                    Marker::new(&self.space, &self.heap, &mut self.blacklist, &self.config);
                marker.set_stack(std::mem::take(&mut state.stack));
                let done = marker.drain_budget(self.config.incremental_budget);
                state.stack = marker.take_stack();
                state.cycle.out.merge(marker.outcome());
                state.cycle.phases.mark += t0.elapsed();
                (state, t0, done)
            }
        };
        self.stats.increments += 1;
        self.record_increment_pause(state.cycle.gc_no, t0.elapsed());
        if !done {
            self.inc = Some(state);
            return None;
        }
        // The finish: rescan dirty pages and roots, covering every mutation
        // since the cycle began. It all counts as marking: it completes the
        // tracing the increments started.
        let t0 = Instant::now();
        let dirty = self.dirty_pages();
        let mut marker = Marker::new(&self.space, &self.heap, &mut self.blacklist, &self.config);
        marker.scan_pages(dirty, false);
        marker.scan_roots();
        marker.drain_all();
        state.cycle.out.merge(marker.outcome());
        state.cycle.phases.mark += t0.elapsed();
        Some(self.finish(state.cycle, t0))
    }

    /// Records one incremental mutator pause.
    fn record_increment_pause(&mut self, gc_no: u64, pause: Duration) {
        self.stats.max_increment_pause = self.stats.max_increment_pause.max(pause);
        self.stats.pause_times.record_duration(pause);
        self.emit(|| GcEvent::IncrementalPause {
            gc_no,
            duration: pause,
        });
    }

    /// Ends a cycle whose marking is done: finalization, disappearing
    /// links, the sweep, the per-cycle resets, the statistics record and
    /// the end events. `pause_start` is when the current mutator pause
    /// began: the cycle's start for a stop-world collection, the finish
    /// step's start for an incremental one.
    fn finish(&mut self, mut c: Cycle, pause_start: Instant) -> CollectionStats {
        let minor = c.kind == CollectKind::Minor;
        // Finalize: unreachable registered objects are queued and
        // resurrected for one more cycle. A minor collection treats the
        // whole old generation as live. Resurrection marking is serial.
        let t_phase = Instant::now();
        let finalizers_ready = {
            let mut marker =
                Marker::new(&self.space, &self.heap, &mut self.blacklist, &self.config);
            if minor {
                marker = marker.minor();
            }
            let doomed = {
                let heap = marker.heap();
                self.finalizers.collect_unreachable(|addr| {
                    heap.object_containing(addr)
                        .is_some_and(|o| heap.is_marked(o) || (minor && heap.is_old(o)))
                })
            };
            for &addr in &doomed {
                marker.mark_object(addr);
            }
            c.out.merge(marker.outcome());
            doomed.len() as u32
        };
        self.clear_dead_links(minor);
        c.phases.finalize = t_phase.elapsed();
        let t_phase = Instant::now();
        let sweep = match (self.config.lazy_sweep, minor) {
            (true, true) => self.heap.sweep_young_lazy(),
            (true, false) => self.heap.sweep_lazy(),
            (false, true) => self.heap.sweep_young(),
            (false, false) => self.heap.sweep(),
        };
        c.phases.sweep = t_phase.elapsed();
        self.cards.clear();
        self.minors_since_full = if minor { self.minors_since_full + 1 } else { 0 };
        self.blacklist.end_cycle();
        self.heap.note_collection();
        let now = Instant::now();
        if c.incremental {
            self.record_increment_pause(c.gc_no, now - pause_start);
        } else {
            self.stats.pause_times.record_duration(now - pause_start);
        }
        let (fast_path_allocs, slow_path_allocs) = self.take_alloc_path_deltas();
        let out = c.out;
        let stats = CollectionStats {
            gc_no: c.gc_no,
            kind: c.kind,
            reason: c.reason,
            root_words_scanned: out.root_words,
            heap_words_scanned: out.heap_words,
            candidates_in_range: out.candidates_in_range,
            valid_pointers: out.valid_pointers,
            false_refs_near_heap: out.false_refs_near_heap,
            newly_blacklisted: self.blacklist.len().saturating_sub(c.blacklist_before),
            blacklist_pages: self.blacklist.len(),
            objects_marked: out.objects_marked,
            bytes_marked: out.bytes_marked,
            resolve_hits: out.resolve_hits,
            resolve_misses: out.resolve_misses,
            finalizers_ready,
            fast_path_allocs,
            slow_path_allocs,
            sweep,
            phases: c.phases,
            parallel_mark: c.parallel_mark,
            duration: now - c.started,
        };
        self.stats.record(stats);
        self.emit_collection_end(&stats);
        stats
    }

    /// Emits the events a finished collection produces: blacklist growth,
    /// finalizer readiness, and the end-of-collection record itself.
    fn emit_collection_end(&self, c: &CollectionStats) {
        if c.newly_blacklisted > 0 {
            self.emit(|| GcEvent::BlacklistGrow {
                gc_no: c.gc_no,
                newly_blacklisted: c.newly_blacklisted,
                total_pages: c.blacklist_pages,
            });
        }
        if c.finalizers_ready > 0 {
            self.emit(|| GcEvent::FinalizersReady {
                gc_no: c.gc_no,
                count: c.finalizers_ready,
            });
        }
        self.emit(|| GcEvent::CollectionEnd {
            gc_no: c.gc_no,
            kind: c.kind,
            phases: c.phases,
            duration: c.duration,
            objects_marked: c.objects_marked,
            objects_freed: c.sweep.objects_freed,
            bytes_freed: c.sweep.bytes_freed,
            resolve_hits: c.resolve_hits,
            resolve_misses: c.resolve_misses,
        });
    }

    /// Registers `token` to be queued when the object based at `addr`
    /// becomes unreachable (PCR-style finalization).
    ///
    /// # Errors
    ///
    /// [`GcError::NotAnObject`] if `addr` is not a live object base.
    pub fn register_finalizer(&mut self, addr: Addr, token: u64) -> Result<(), GcError> {
        if !self.heap.is_object_base(addr) {
            return Err(GcError::NotAnObject { addr });
        }
        self.finalizers.register(addr, token);
        Ok(())
    }

    /// Removes a finalizer registration; returns its token if one existed.
    pub fn unregister_finalizer(&mut self, addr: Addr) -> Option<u64> {
        self.finalizers.unregister(addr)
    }

    /// Registers a *disappearing link* (the `GC_general_register_
    /// disappearing_link` analogue): when the object based at `target`
    /// becomes unreachable, the word at `slot` is atomically zeroed by the
    /// collection that discovers it — weak-reference semantics. The slot
    /// itself does **not** keep the target alive only if the slot is not
    /// scanned… in a conservative collector every scanned slot is a strong
    /// reference, so the slot should live in *unscanned* memory (an atomic
    /// object or a non-root segment) to act as a true weak pointer.
    ///
    /// A registration is dropped when it fires, when the slot no longer
    /// holds `target`, or via [`Collector::unregister_disappearing_link`].
    ///
    /// # Errors
    ///
    /// [`GcError::NotAnObject`] if `target` is not a live object base.
    ///
    /// # Example
    ///
    /// ```
    /// use gc_core::{Collector, GcConfig};
    /// use gc_heap::ObjectKind;
    /// use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
    ///
    /// # fn main() -> Result<(), gc_core::GcError> {
    /// let mut space = AddressSpace::new(Endian::Big);
    /// space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 64))?;
    /// let mut gc = Collector::new(space, GcConfig::default());
    /// // A weak cache slot lives in a pointer-free (unscanned) object.
    /// let slot_holder = gc.alloc(8, ObjectKind::Atomic)?;
    /// gc.space_mut().write_u32(Addr::new(0x1_0000), slot_holder.raw())?;
    /// let target = gc.alloc(8, ObjectKind::Composite)?;
    /// gc.space_mut().write_u32(slot_holder, target.raw())?;
    /// gc.register_disappearing_link(slot_holder, target)?;
    /// gc.collect(); // target unreachable (the atomic slot is not scanned)
    /// assert_eq!(gc.space().read_u32(slot_holder)?, 0, "weak slot was cleared");
    /// # Ok(())
    /// # }
    /// ```
    pub fn register_disappearing_link(&mut self, slot: Addr, target: Addr) -> Result<(), GcError> {
        if !self.heap.is_object_base(target) {
            return Err(GcError::NotAnObject { addr: target });
        }
        self.weak_links.insert(slot, target);
        Ok(())
    }

    /// Removes a disappearing-link registration; returns its target if one
    /// existed.
    pub fn unregister_disappearing_link(&mut self, slot: Addr) -> Option<Addr> {
        self.weak_links.remove(&slot)
    }

    /// Number of live disappearing-link registrations.
    pub fn disappearing_links(&self) -> usize {
        self.weak_links.len()
    }

    /// Clears registered slots whose targets died; called after marking,
    /// before sweeping.
    fn clear_dead_links(&mut self, minor: bool) {
        if self.weak_links.is_empty() {
            return;
        }
        let heap = &self.heap;
        let space = &mut self.space;
        self.weak_links.retain(|&slot, &mut target| {
            // Stale registration: the slot was overwritten or unmapped.
            let Ok(current) = space.read_u32(slot) else {
                return false;
            };
            if current != target.raw() {
                return false;
            }
            let alive = heap
                .object_containing(target)
                .is_some_and(|o| heap.is_marked(o) || (minor && heap.is_old(o)));
            if !alive {
                space
                    .write_u32(slot, 0)
                    .expect("registered slot is writable");
                return false;
            }
            true
        });
    }

    /// Number of live finalizer registrations.
    pub fn finalizers_registered(&self) -> usize {
        self.finalizers.registered_count()
    }

    /// Number of queued-but-undrained finalizations.
    pub fn finalizers_pending(&self) -> usize {
        self.finalizers.ready_count()
    }

    /// Drains the (address, token) pairs whose objects were found
    /// unreachable by collections since the last drain.
    pub fn drain_finalized(&mut self) -> Vec<(Addr, u64)> {
        self.finalizers.drain_ready()
    }

    /// Returns `true` if `addr` lies inside a live (allocated) object.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.heap.object_containing(addr).is_some()
    }

    /// Resolves an address to the live object containing it, if any.
    pub fn object_containing(&self, addr: Addr) -> Option<ObjRef> {
        self.heap.object_containing(addr)
    }

    /// Finds every root word that (conservatively) retains any of
    /// `targets`, for leak debugging. Call after a collection.
    ///
    /// # Example
    ///
    /// ```
    /// use gc_core::{Collector, GcConfig, RootClass};
    /// use gc_heap::ObjectKind;
    /// use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
    ///
    /// # fn main() -> Result<(), gc_core::GcError> {
    /// let mut space = AddressSpace::new(Endian::Big);
    /// space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 64))?;
    /// let mut gc = Collector::new(space, GcConfig::default());
    /// let leaked = gc.alloc(8, ObjectKind::Composite)?;
    /// gc.space_mut().write_u32(Addr::new(0x1_0010), leaked.raw())?; // forgotten pointer
    /// gc.collect();
    /// let retainers = gc.find_retainers(&[leaked]);
    /// assert_eq!(retainers[0].root_addr, Addr::new(0x1_0010));
    /// assert_eq!(retainers[0].class, RootClass::Static);
    /// # Ok(())
    /// # }
    /// ```
    pub fn find_retainers(&self, targets: &[Addr]) -> Vec<Retainer> {
        crate::trace::find_retainers(
            &self.space,
            &self.heap,
            self.config.pointer_policy,
            self.config.scan_alignment.stride(),
            targets,
        )
    }

    /// The simulated address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the simulated address space (the mutator writes
    /// through this).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The heap substrate.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The page blacklist.
    pub fn blacklist(&self) -> &Blacklist {
        &self.blacklist
    }

    /// The collector configuration.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Renders a human-readable report of the collector's current state —
    /// heap blocks by size, the blacklist with per-page provenance, root
    /// segments and their scan windows — the `GC_dump` analogue used for
    /// the paper's style of by-hand diagnosis (observation 7, appendix B).
    pub fn dump(&self) -> String {
        crate::dump::dump(self)
    }

    /// Number of collections run so far.
    pub fn gc_count(&self) -> u64 {
        self.stats.collections
    }
}

/// The paper's allocate-around-the-blacklist rules.
///
/// * Pages never observed as false-reference targets are always usable.
/// * Blacklisted pages may still hold small pointer-free objects (if
///   configured), "because the objects are small and known not to contain
///   pointers".
/// * Composite small blocks and the first page of any large object never go
///   on a blacklisted page.
/// * Under [`PointerPolicy::AllInterior`](crate::PointerPolicy) a large
///   object must not *span* a blacklisted page at all.
fn page_usable(blacklist: &Blacklist, config: &GcConfig, page: PageIdx, use_: PageUse) -> bool {
    if !config.blacklisting || !blacklist.contains(page) {
        return true;
    }
    match use_ {
        PageUse::SmallBlock(ObjectKind::Atomic) => config.allow_atomic_on_blacklist,
        PageUse::SmallBlock(ObjectKind::Composite) => false,
        PageUse::LargeFirst(_) => false,
        PageUse::LargeBody(_) => config.pointer_policy != crate::PointerPolicy::AllInterior,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlacklistKind, PointerPolicy, RootClass, ScanAlignment};
    use gc_heap::HeapConfig;
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    /// A space with one scanned static segment at 0x1_0000.
    fn setup(config: GcConfig) -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        Collector::new(space, config)
    }

    fn small_config() -> GcConfig {
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 16 << 20,
                growth_pages: 16,
                ..HeapConfig::default()
            },
            ..GcConfig::default()
        }
    }

    /// The `i`-th word of the static segment mapped by `setup`.
    fn root_slot(i: u32) -> Addr {
        Addr::new(0x1_0000) + i * 4
    }

    #[test]
    fn reachable_objects_survive_unreachable_die() {
        let mut gc = setup(small_config());
        let kept = gc.alloc(16, ObjectKind::Composite).unwrap();
        let dropped = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), kept.raw()).unwrap();
        let stats = gc.collect();
        assert!(gc.is_live(kept));
        assert!(!gc.is_live(dropped));
        assert_eq!(stats.sweep.objects_freed, 1);
        assert!(stats.valid_pointers >= 1);
    }

    #[test]
    fn transitive_reachability() {
        let mut gc = setup(small_config());
        // Chain a -> b -> c.
        let a = gc.alloc(8, ObjectKind::Composite).unwrap();
        let b = gc.alloc(8, ObjectKind::Composite).unwrap();
        let c = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(a, b.raw()).unwrap();
        gc.space_mut().write_u32(b, c.raw()).unwrap();
        gc.space_mut().write_u32(root_slot(0), a.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(a) && gc.is_live(b) && gc.is_live(c));
        // Cut a -> b: b and c die.
        gc.space_mut().write_u32(a, 0).unwrap();
        gc.collect();
        assert!(gc.is_live(a));
        assert!(!gc.is_live(b) && !gc.is_live(c));
    }

    #[test]
    fn atomic_objects_are_not_scanned() {
        let mut gc = setup(small_config());
        let atomic = gc.alloc(8, ObjectKind::Atomic).unwrap();
        let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
        // The atomic object "points" at the victim, but atomic contents are
        // ignored by the marker.
        gc.space_mut().write_u32(atomic, victim.raw()).unwrap();
        gc.space_mut()
            .write_u32(root_slot(0), atomic.raw())
            .unwrap();
        gc.collect();
        assert!(gc.is_live(atomic));
        assert!(!gc.is_live(victim));
    }

    #[test]
    fn cycles_are_collected() {
        let mut gc = setup(small_config());
        let a = gc.alloc(8, ObjectKind::Composite).unwrap();
        let b = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(a, b.raw()).unwrap();
        gc.space_mut().write_u32(b, a.raw()).unwrap();
        gc.space_mut().write_u32(root_slot(0), a.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(a) && gc.is_live(b));
        gc.space_mut().write_u32(root_slot(0), 0).unwrap();
        gc.collect();
        assert!(!gc.is_live(a) && !gc.is_live(b));
    }

    #[test]
    fn integer_that_looks_like_pointer_retains() {
        // The basic misidentification phenomenon (§2): an integer variable
        // happening to hold an object's address pins the object.
        let mut gc = setup(small_config());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        // Pretend this is an integer that just happens to equal the address.
        gc.space_mut().write_u32(root_slot(3), obj.raw()).unwrap();
        gc.collect();
        assert!(
            gc.is_live(obj),
            "the collector cannot tell integers from pointers"
        );
    }

    #[test]
    fn interior_pointer_policies() {
        for (policy, expect_live) in [
            (PointerPolicy::AllInterior, true),
            (PointerPolicy::FirstPage, false),
            (PointerPolicy::BaseOnly, false),
        ] {
            let mut config = small_config();
            config.pointer_policy = policy;
            let mut gc = setup(config);
            // A large object spanning several pages, referenced only through
            // a pointer into its third page.
            let obj = gc.alloc(3 * PAGE_BYTES, ObjectKind::Composite).unwrap();
            let interior = obj + 2 * PAGE_BYTES + 40;
            gc.space_mut()
                .write_u32(root_slot(0), interior.raw())
                .unwrap();
            gc.collect();
            assert_eq!(gc.is_live(obj), expect_live, "policy {policy}");
        }
    }

    #[test]
    fn first_page_policy_accepts_first_page_interiors() {
        let mut config = small_config();
        config.pointer_policy = PointerPolicy::FirstPage;
        let mut gc = setup(config);
        let obj = gc.alloc(3 * PAGE_BYTES, ObjectKind::Composite).unwrap();
        gc.space_mut()
            .write_u32(root_slot(0), (obj + 100).raw())
            .unwrap();
        gc.collect();
        assert!(gc.is_live(obj));
    }

    #[test]
    fn base_only_policy_requires_exact_base() {
        let mut config = small_config();
        config.pointer_policy = PointerPolicy::BaseOnly;
        let mut gc = setup(config);
        let obj = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut()
            .write_u32(root_slot(0), (obj + 4).raw())
            .unwrap();
        gc.collect();
        assert!(!gc.is_live(obj), "interior pointer ignored under BaseOnly");
    }

    #[test]
    fn startup_collection_blacklists_static_junk() {
        let mut gc = setup(small_config());
        // A static word holds an integer that lands inside the future heap.
        let junk = 0x10_2040u32;
        gc.space_mut().write_u32(root_slot(5), junk).unwrap();
        // First allocation triggers the startup collection.
        let _ = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert!(gc.blacklist().contains(Addr::new(junk).page()));
        assert_eq!(
            gc.blacklist().source_of(Addr::new(junk).page()),
            Some(RootClass::Static)
        );
        // And nothing composite is ever placed on the junk page.
        for _ in 0..2000 {
            let a = gc.alloc(64, ObjectKind::Composite).unwrap();
            assert_ne!(a.page(), Addr::new(junk).page());
        }
    }

    #[test]
    fn blacklist_vicinity_is_asymmetric_above_only() {
        // §2 blacklists candidates that "could conceivably become valid
        // object addresses as a result of later allocation". The heap only
        // ever expands upward from `heap_base`, so the vicinity extends
        // `growth_window_pages` above the break but **not** below the
        // lowest heap address: a below-heap integer can never become
        // valid, and blacklisting its page would only poison allocator-
        // irrelevant pages (with the default window, all the way down to
        // address 0). See `Marker::new` and EXPERIMENTS.md.
        let mut gc = setup(small_config());
        let below = 0x10_0000u32 - 2 * PAGE_BYTES + 16;
        let above = 0x10_0000u32 + 64 * PAGE_BYTES + 16;
        gc.space_mut().write_u32(root_slot(0), below).unwrap();
        gc.space_mut().write_u32(root_slot(1), above).unwrap();
        gc.collect();
        assert!(
            gc.blacklist().contains(Addr::new(above).page()),
            "a candidate above the break, within the growth window, could \
             become valid and must be blacklisted"
        );
        assert!(
            !gc.blacklist().contains(Addr::new(below).page()),
            "a candidate below the heap can never become valid and must \
             not be blacklisted"
        );
        // The asymmetry gates only blacklist insertion; the below-heap
        // word is simply not in the vicinity at all.
        let stats = gc.stats().last.expect("collected");
        assert!(stats.false_refs_near_heap >= 1);
    }

    #[test]
    fn without_blacklisting_junk_pins_memory() {
        let mut config = small_config().without_blacklisting();
        config.min_bytes_between_gcs = 1 << 20;
        let mut gc = setup(config);
        // Bootstrap the heap so we know where objects will land, then plant
        // a "random integer" equal to a heap address.
        let probe = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(7), probe.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(probe), "false reference retains the object");
        assert!(gc.stats().last.expect("collected").false_refs_near_heap == 0);
    }

    #[test]
    fn atomic_small_objects_may_use_blacklisted_pages() {
        let mut gc = setup(small_config());
        // Blacklist the first pages of the heap via static junk.
        let heap_base = 0x10_0000u32;
        for i in 0..16 {
            gc.space_mut()
                .write_u32(root_slot(i), heap_base + i * PAGE_BYTES + 12)
                .unwrap();
        }
        gc.start();
        assert!(gc.blacklist().len() >= 16);
        // Composite allocation avoids those pages…
        let c = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert!(c.raw() >= heap_base + 16 * PAGE_BYTES);
        // …but atomic small objects may use them ("the loss is usually
        // zero" in PCedar, observation 6).
        let a = gc.alloc(8, ObjectKind::Atomic).unwrap();
        assert!(a.raw() < heap_base + 16 * PAGE_BYTES);
    }

    #[test]
    fn large_objects_do_not_span_blacklisted_pages_under_all_interior() {
        let mut gc = setup(small_config());
        let heap_base = 0x10_0000u32;
        // Blacklist page 3 of the heap.
        gc.space_mut()
            .write_u32(root_slot(0), heap_base + 3 * PAGE_BYTES + 4)
            .unwrap();
        gc.start();
        // A 6-page object cannot use pages 0..6 (it would span page 3).
        let a = gc.alloc(6 * PAGE_BYTES, ObjectKind::Composite).unwrap();
        assert!(
            a.raw() >= heap_base + 4 * PAGE_BYTES,
            "object at {a} would span the blacklisted page"
        );
    }

    #[test]
    fn large_objects_may_span_blacklist_under_first_page_policy() {
        let mut config = small_config();
        config.pointer_policy = PointerPolicy::FirstPage;
        let mut gc = setup(config);
        let heap_base = 0x10_0000u32;
        gc.space_mut()
            .write_u32(root_slot(0), heap_base + 3 * PAGE_BYTES + 4)
            .unwrap();
        gc.start();
        let a = gc.alloc(6 * PAGE_BYTES, ObjectKind::Composite).unwrap();
        assert_eq!(
            a.raw(),
            heap_base,
            "body pages may be blacklisted under first-page"
        );
    }

    #[test]
    fn finalization_enqueues_unreachable_objects() {
        let mut gc = setup(small_config());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.register_finalizer(obj, 42).unwrap();
        gc.space_mut().write_u32(root_slot(0), obj.raw()).unwrap();
        gc.collect();
        assert!(gc.drain_finalized().is_empty(), "still reachable");
        gc.space_mut().write_u32(root_slot(0), 0).unwrap();
        let stats = gc.collect();
        assert_eq!(stats.finalizers_ready, 1);
        assert_eq!(gc.drain_finalized(), vec![(obj, 42)]);
        // Resurrected this cycle, reclaimed by the next.
        assert!(gc.is_live(obj));
        gc.collect();
        assert!(!gc.is_live(obj));
    }

    #[test]
    fn finalizer_registration_validates_address() {
        let mut gc = setup(small_config());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert!(gc.register_finalizer(obj, 1).is_ok());
        assert_eq!(
            gc.register_finalizer(obj + 4, 1),
            Err(GcError::NotAnObject { addr: obj + 4 })
        );
        assert_eq!(gc.finalizers_registered(), 1);
        assert_eq!(gc.unregister_finalizer(obj), Some(1));
        assert_eq!(gc.finalizers_registered(), 0);
        gc.collect();
        assert_eq!(
            gc.finalizers_pending(),
            0,
            "unregistered object is not finalized"
        );
    }

    #[test]
    fn automatic_collection_triggers() {
        let mut config = small_config();
        config.min_bytes_between_gcs = 8 << 10;
        config.free_space_divisor = 1 << 20; // effectively: use min threshold
        let mut gc = setup(config);
        for _ in 0..10_000 {
            gc.alloc(8, ObjectKind::Composite).unwrap();
        }
        assert!(
            gc.gc_count() > 2,
            "allocation pressure must trigger collections, got {}",
            gc.gc_count()
        );
    }

    #[test]
    fn oom_forces_collection_and_retry() {
        let mut config = small_config();
        config.heap.max_heap_bytes = 64 << 10; // 16 pages
        config.heap.growth_pages = 4;
        config.min_bytes_between_gcs = u64::MAX; // never auto-collect
        let mut gc = setup(config);
        // Fill the heap with garbage; each alloc drops the previous ref.
        for i in 0..10_000 {
            let r = gc.alloc(256, ObjectKind::Composite);
            assert!(r.is_ok(), "allocation {i} failed: {r:?}");
        }
        assert!(gc.gc_count() > 0, "OOM retries must have collected");
    }

    #[test]
    fn hashed_blacklist_end_to_end() {
        let mut config = small_config();
        config.blacklist_kind = BlacklistKind::Hashed { bits: 14 };
        let mut gc = setup(config);
        let junk = 0x10_0040u32;
        gc.space_mut().write_u32(root_slot(5), junk).unwrap();
        gc.start();
        assert!(gc.blacklist().contains(Addr::new(junk).page()));
        let a = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert_ne!(a.page(), Addr::new(junk).page());
    }

    #[test]
    fn halfword_scanning_finds_figure_1_concatenation() {
        // Figure 1: two small integers 0x0009 and 0x000a stored as
        // halfwords; with halfword alignment the collector sees 0x00090000.
        let mut config = small_config();
        config.heap.heap_base = Addr::new(0x0009_0000);
        config.scan_alignment = ScanAlignment::HalfWord;
        let mut gc = setup(config);
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert_eq!(obj.raw(), 0x0009_0000, "heap starts at figure 1's address");
        let slot = root_slot(0);
        gc.space_mut().write_u16(slot, 0x0000).unwrap();
        gc.space_mut().write_u16(slot + 2, 0x0009).unwrap();
        gc.space_mut().write_u16(slot + 4, 0x0000).unwrap();
        gc.space_mut().write_u16(slot + 6, 0x000a).unwrap();
        gc.collect();
        assert!(
            gc.is_live(obj),
            "halfword scan misreads integers as 0x00090000"
        );

        // With word alignment the same bytes are harmless.
        let mut config = small_config();
        config.heap.heap_base = Addr::new(0x0009_0000);
        let mut gc = setup(config);
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        let slot = root_slot(0);
        gc.space_mut().write_u16(slot, 0x0000).unwrap();
        gc.space_mut().write_u16(slot + 2, 0x0009).unwrap();
        gc.space_mut().write_u16(slot + 4, 0x0000).unwrap();
        gc.space_mut().write_u16(slot + 6, 0x000a).unwrap();
        gc.collect();
        assert!(
            !gc.is_live(obj),
            "word-aligned scan sees 0x00000009 and 0x0000000a"
        );
    }

    #[test]
    fn retainer_tracing_explains_retention() {
        let mut gc = setup(small_config());
        let head = gc.alloc(8, ObjectKind::Composite).unwrap();
        let tail = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(head, tail.raw()).unwrap();
        let slot = root_slot(9);
        gc.space_mut().write_u32(slot, head.raw()).unwrap();
        gc.collect();
        let retainers = gc.find_retainers(&[tail]);
        assert_eq!(retainers.len(), 1);
        let r = &retainers[0];
        assert_eq!(r.root_addr, slot);
        assert_eq!(r.class, RootClass::Static);
        assert_eq!(r.pins, head);
        assert_eq!(r.target, tail);
        assert_eq!(r.value, head.raw());
        assert!(r.to_string().contains("static data"));
    }

    #[test]
    fn stats_populate() {
        let mut gc = setup(small_config());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), obj.raw()).unwrap();
        let c = gc.collect();
        assert!(c.root_words_scanned >= 1024, "whole data segment scanned");
        assert_eq!(c.objects_marked, 1);
        assert_eq!(c.bytes_marked, 8);
        assert!(gc.stats().collections >= 1);
        assert!(gc.stats().total_gc_time.as_nanos() > 0);
    }

    #[test]
    fn unreachable_finalizable_object_missing_is_still_queued() {
        // Degenerate: register, then the registration address dies in the
        // same cycle; the token must still be delivered exactly once.
        let mut gc = setup(small_config());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.register_finalizer(obj, 7).unwrap();
        gc.collect();
        assert_eq!(gc.drain_finalized(), vec![(obj, 7)]);
        gc.collect();
        assert!(gc.drain_finalized().is_empty());
    }
}

#[cfg(test)]
mod generational_tests {
    use super::*;
    use crate::CollectKind;
    use gc_heap::HeapConfig;
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    fn gen_collector() -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                generational: true,
                min_bytes_between_gcs: u64::MAX,
                ..GcConfig::default()
            },
        )
    }

    fn root_slot(i: u32) -> Addr {
        Addr::new(0x1_0000) + i * 4
    }

    #[test]
    fn minor_reclaims_young_garbage_and_promotes_survivors() {
        let mut gc = gen_collector();
        let kept = gc.alloc(8, ObjectKind::Composite).unwrap();
        let dropped = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), kept.raw()).unwrap();
        let stats = gc.collect_minor();
        assert_eq!(stats.kind, CollectKind::Minor);
        assert!(gc.is_live(kept));
        assert!(!gc.is_live(dropped));
        assert_eq!(stats.sweep.objects_promoted, 1, "the survivor was tenured");
        let obj = gc.object_containing(kept).unwrap();
        assert!(gc.heap().is_old(obj));
    }

    #[test]
    fn minor_keeps_old_objects_without_roots() {
        let mut gc = gen_collector();
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), obj.raw()).unwrap();
        gc.collect_minor(); // promotes obj
        gc.space_mut().write_u32(root_slot(0), 0).unwrap();
        gc.collect_minor();
        assert!(
            gc.is_live(obj),
            "a minor collection treats the whole old generation as live"
        );
        // A full collection reclaims the tenured garbage.
        gc.collect();
        assert!(!gc.is_live(obj));
    }

    #[test]
    fn write_barrier_preserves_old_to_young_pointers() {
        let mut gc = gen_collector();
        let old = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), old.raw()).unwrap();
        gc.collect_minor(); // tenure `old`
                            // Drop the static root; `old` survives minors as old-generation.
        gc.space_mut().write_u32(root_slot(0), old.raw()).unwrap();
        // Create a young object referenced ONLY from the old one.
        let young = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(old, young.raw()).unwrap();
        gc.record_write(old); // the write barrier
        assert!(gc.dirty_cards() > 0);
        gc.collect_minor();
        assert!(
            gc.is_live(young),
            "dirty-card scan found the old→young pointer"
        );
        assert_eq!(gc.dirty_cards(), 0, "cards are cleared by the collection");
    }

    #[test]
    fn missing_write_barrier_loses_young_objects() {
        // Lock in the hazard the barrier exists for: an unrecorded
        // old→young store is invisible to a minor collection.
        let mut gc = gen_collector();
        let old = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), old.raw()).unwrap();
        gc.collect_minor();
        let young = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(old, young.raw()).unwrap();
        // No record_write: the card stays clean.
        gc.collect_minor();
        assert!(
            !gc.is_live(young),
            "unrecorded store is the documented hazard"
        );
    }

    #[test]
    fn automatic_policy_interleaves_minor_and_full() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                generational: true,
                full_gc_every: 4,
                min_bytes_between_gcs: 32 << 10,
                free_space_divisor: 1 << 20,
                ..GcConfig::default()
            },
        );
        for _ in 0..40_000 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        let s = gc.stats();
        assert!(
            s.minor_collections > 0,
            "minors ran: {}",
            s.minor_collections
        );
        assert!(
            s.collections > s.minor_collections,
            "full collections interleave: {} total vs {} minor",
            s.collections,
            s.minor_collections
        );
    }

    #[test]
    fn finalizers_respect_the_old_generation_in_minors() {
        let mut gc = gen_collector();
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(root_slot(0), obj.raw()).unwrap();
        gc.register_finalizer(obj, 5).unwrap();
        gc.collect_minor(); // tenures obj
        gc.space_mut().write_u32(root_slot(0), 0).unwrap();
        gc.collect_minor();
        assert!(
            gc.drain_finalized().is_empty(),
            "old objects are not finalized by minor collections"
        );
        gc.collect();
        assert_eq!(gc.drain_finalized(), vec![(obj, 5)]);
    }

    #[test]
    fn non_generational_collector_ignores_cards() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut gc = Collector::new(space, GcConfig::default());
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.record_write(obj);
        assert_eq!(
            gc.dirty_cards(),
            0,
            "barrier is a no-op without generational mode"
        );
    }
}

#[cfg(test)]
mod typed_tests {
    use super::*;
    use gc_heap::{Descriptor, HeapConfig};
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    fn collector() -> Collector {
        collector_with(GcConfig::default().lazy_sweep)
    }

    fn collector_with(lazy_sweep: bool) -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                min_bytes_between_gcs: u64::MAX,
                lazy_sweep,
                ..GcConfig::default()
            },
        )
    }

    const ROOT: Addr = Addr::new(0x1_0000);

    #[test]
    fn typed_data_words_never_misidentify() {
        let mut gc = collector();
        // Descriptor: [pointer, data, data].
        let desc = gc.register_descriptor(Descriptor::with_pointers_at(3, &[0]));
        let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
        let rec = gc.alloc_typed(12, desc).unwrap();
        gc.space_mut().write_u32(ROOT, rec.raw()).unwrap();
        // A data word holding exactly the victim's address…
        gc.space_mut().write_u32(rec + 4, victim.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(rec));
        assert!(!gc.is_live(victim), "typed data word is not a pointer");

        // …while the same value in the *pointer* word retains.
        let victim2 = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(rec, victim2.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(victim2), "typed pointer word is traced");
    }

    #[test]
    fn typed_objects_chain_transitively() {
        let mut gc = collector();
        let desc = gc.register_descriptor(Descriptor::with_pointers_at(2, &[0]));
        let a = gc.alloc_typed(8, desc).unwrap();
        let b = gc.alloc_typed(8, desc).unwrap();
        let c = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(a, b.raw()).unwrap();
        gc.space_mut().write_u32(b, c.raw()).unwrap();
        gc.space_mut().write_u32(ROOT, a.raw()).unwrap();
        gc.collect();
        assert!(gc.is_live(a) && gc.is_live(b) && gc.is_live(c));
    }

    #[test]
    fn descriptor_mapping_dies_with_the_object() {
        for lazy_sweep in [false, true] {
            let mut gc = collector_with(lazy_sweep);
            let desc = gc.register_descriptor(Descriptor::with_pointers_at(2, &[1]));
            // A rooted typed neighbour keeps the block, and its descriptor
            // table, alive: the slot itself is reused, not a fresh page.
            let keep = gc.alloc_typed(8, desc).unwrap();
            let rec = gc.alloc_typed(8, desc).unwrap();
            gc.space_mut().write_u32(ROOT, keep.raw()).unwrap();
            assert!(gc.heap().descriptor_of(rec).is_some());
            gc.collect(); // rec is garbage
            assert!(!gc.is_live(rec));
            let block = gc.heap().object_containing(keep).expect("keep lives").block;
            assert_eq!(
                gc.heap().block(block).unwrap().is_pending_sweep(),
                lazy_sweep,
                "under lazy sweep the condemned object's block is still unswept"
            );
            assert!(
                gc.heap().descriptor_of(rec).is_none(),
                "a condemned object reports no descriptor (lazy: {lazy_sweep})"
            );
            assert!(gc.heap().descriptor_of(keep).is_some());
            // Reallocate the same slot as a plain composite: it must be
            // conservatively scanned again, not filtered by a stale
            // descriptor.
            let again = gc.alloc(8, ObjectKind::Composite).unwrap();
            assert_eq!(again, rec, "address-ordered free list reuses the slot");
            assert!(
                gc.heap().descriptor_of(again).is_none(),
                "no stale descriptor (lazy: {lazy_sweep})"
            );
            let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
            gc.space_mut().write_u32(again, victim.raw()).unwrap();
            gc.space_mut().write_u32(ROOT + 4, again.raw()).unwrap();
            gc.collect();
            assert!(
                gc.is_live(victim),
                "composite reuse is scanned conservatively (lazy: {lazy_sweep})"
            );
        }
    }

    #[test]
    fn typed_objects_work_with_finalization_and_interior_pointers() {
        let mut gc = collector();
        let desc = gc.register_descriptor(Descriptor::with_pointers_at(4, &[0, 2]));
        let rec = gc.alloc_typed(16, desc).unwrap();
        gc.register_finalizer(rec, 9).unwrap();
        // Rooted via an interior pointer (conservative roots still apply).
        gc.space_mut().write_u32(ROOT, (rec + 8).raw()).unwrap();
        gc.collect();
        assert!(gc.drain_finalized().is_empty());
        gc.space_mut().write_u32(ROOT, 0).unwrap();
        gc.collect();
        assert_eq!(gc.drain_finalized(), vec![(rec, 9)]);
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::{CollectKind, CollectReason};
    use gc_heap::HeapConfig;
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    fn inc_collector(budget: u32) -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 32 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                incremental: true,
                incremental_budget: budget,
                min_bytes_between_gcs: u64::MAX,
                ..GcConfig::default()
            },
        )
    }

    const ROOT: Addr = Addr::new(0x1_0000);

    /// Builds a chain of `n` cells rooted at ROOT; returns all addresses.
    fn build_chain(gc: &mut Collector, n: u32) -> Vec<Addr> {
        let mut cells = Vec::new();
        let mut head = 0u32;
        for _ in 0..n {
            let cell = gc.alloc(8, ObjectKind::Composite).unwrap();
            gc.space_mut().write_u32(cell, head).unwrap();
            head = cell.raw();
            gc.space_mut().write_u32(ROOT, head).unwrap();
            cells.push(cell);
        }
        cells
    }

    fn run_cycle(gc: &mut Collector) -> CollectionStats {
        for _ in 0..100_000 {
            if let Some(stats) = gc.collect_increment(CollectReason::Explicit) {
                return stats;
            }
        }
        panic!("incremental cycle did not terminate");
    }

    #[test]
    fn incremental_cycle_matches_stop_world_liveness() {
        let mut gc = inc_collector(64);
        let cells = build_chain(&mut gc, 2000);
        let garbage = gc.alloc(8, ObjectKind::Composite).unwrap();
        let stats = run_cycle(&mut gc);
        assert_eq!(stats.kind, CollectKind::Full);
        assert!(stats.objects_marked >= 2000);
        for &c in &cells {
            assert!(gc.is_live(c), "chained cell {c} survives");
        }
        assert!(!gc.is_live(garbage), "unreachable cell is reclaimed");
        assert!(gc.stats().increments > 3, "tracing really was split up");
    }

    #[test]
    fn mutation_during_marking_is_caught_by_cards() {
        let mut gc = inc_collector(32);
        let cells = build_chain(&mut gc, 1200);
        // Start the cycle (root scan) and run a few increments.
        assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        for _ in 0..3 {
            assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        }
        // Mutator hides a young object behind an already-scanned cell: the
        // write barrier dirties the page, the finish phase rescans it.
        let hidden = gc.alloc(8, ObjectKind::Composite).unwrap();
        let target = cells[0]; // deepest cell, likely scanned already
        gc.space_mut().write_u32(target + 4, hidden.raw()).unwrap();
        gc.record_write(target + 4);
        run_cycle(&mut gc);
        assert!(
            gc.is_live(hidden),
            "dirty-page rescan found the hidden pointer"
        );
    }

    #[test]
    fn allocate_black_protects_fresh_objects() {
        let mut gc = inc_collector(16);
        build_chain(&mut gc, 800);
        assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        // Allocate mid-cycle and root it immediately.
        let fresh = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT, fresh.raw()).unwrap();
        run_cycle(&mut gc);
        assert!(
            gc.is_live(fresh),
            "mid-cycle allocation survives its own cycle"
        );
    }

    #[test]
    fn automatic_incremental_cycles_reclaim_garbage() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 32 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                incremental: true,
                incremental_budget: 256,
                min_bytes_between_gcs: 32 << 10,
                free_space_divisor: 1 << 24,
                ..GcConfig::default()
            },
        );
        for _ in 0..30_000 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        assert!(gc.gc_count() >= 1, "cycles completed: {}", gc.gc_count());
        assert!(
            gc.heap().stats().mapped_pages < 2048,
            "garbage is reclaimed, heap stays bounded: {} pages",
            gc.heap().stats().mapped_pages
        );
    }

    #[test]
    fn stop_world_collect_abandons_incremental_cycle() {
        let mut gc = inc_collector(8);
        let cells = build_chain(&mut gc, 400);
        assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        let stats = gc.collect(); // stop the world mid-cycle
        assert_eq!(stats.kind, CollectKind::Full);
        for &c in &cells {
            assert!(gc.is_live(c));
        }
        // A new incremental cycle starts cleanly afterwards.
        assert!(gc.collect_increment(CollectReason::Explicit).is_none());
        run_cycle(&mut gc);
    }

    #[test]
    fn incremental_blacklists_like_stop_world() {
        let mut gc = inc_collector(64);
        let junk = 0x10_3040u32;
        gc.space_mut().write_u32(ROOT + 16, junk).unwrap();
        build_chain(&mut gc, 200);
        run_cycle(&mut gc);
        assert!(gc.blacklist().contains(Addr::new(junk).page()));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn generational_plus_incremental_rejected() {
        let space = AddressSpace::new(Endian::Big);
        let _ = Collector::new(
            space,
            GcConfig {
                generational: true,
                incremental: true,
                ..GcConfig::default()
            },
        );
    }
}

#[cfg(test)]
mod weak_link_tests {
    use super::*;
    use gc_heap::HeapConfig;
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    fn collector() -> Collector {
        collector_with(GcConfig::default().lazy_sweep)
    }

    fn collector_with(lazy_sweep: bool) -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                min_bytes_between_gcs: u64::MAX,
                lazy_sweep,
                ..GcConfig::default()
            },
        )
    }

    const ROOT: Addr = Addr::new(0x1_0000);

    #[test]
    fn link_survives_while_target_lives() {
        let mut gc = collector();
        let holder = gc.alloc(8, ObjectKind::Atomic).unwrap();
        gc.space_mut().write_u32(ROOT, holder.raw()).unwrap();
        let target = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT + 4, target.raw()).unwrap(); // strong ref
        gc.space_mut().write_u32(holder, target.raw()).unwrap();
        gc.register_disappearing_link(holder, target).unwrap();
        gc.collect();
        assert_eq!(
            gc.space().read_u32(holder).unwrap(),
            target.raw(),
            "target alive"
        );
        assert_eq!(gc.disappearing_links(), 1);
        // Drop the strong ref: the weak slot clears exactly once.
        gc.space_mut().write_u32(ROOT + 4, 0).unwrap();
        gc.collect();
        assert_eq!(gc.space().read_u32(holder).unwrap(), 0, "weak slot cleared");
        assert_eq!(gc.disappearing_links(), 0);
        assert!(!gc.is_live(target));
    }

    #[test]
    fn overwritten_slot_drops_registration() {
        let mut gc = collector();
        let holder = gc.alloc(8, ObjectKind::Atomic).unwrap();
        gc.space_mut().write_u32(ROOT, holder.raw()).unwrap();
        let target = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(holder, target.raw()).unwrap();
        gc.register_disappearing_link(holder, target).unwrap();
        // The program reuses the slot for something else.
        gc.space_mut().write_u32(holder, 0xABCD).unwrap();
        gc.collect();
        assert_eq!(
            gc.space().read_u32(holder).unwrap(),
            0xABCD,
            "slot untouched"
        );
        assert_eq!(gc.disappearing_links(), 0, "stale registration dropped");
    }

    #[test]
    fn registration_validates_target() {
        let mut gc = collector();
        let obj = gc.alloc(8, ObjectKind::Composite).unwrap();
        assert_eq!(
            gc.register_disappearing_link(Addr::new(0x1_0020), obj + 4),
            Err(GcError::NotAnObject { addr: obj + 4 })
        );
        assert!(gc
            .register_disappearing_link(Addr::new(0x1_0020), obj)
            .is_ok());
        assert_eq!(
            gc.unregister_disappearing_link(Addr::new(0x1_0020)),
            Some(obj)
        );
        assert_eq!(gc.unregister_disappearing_link(Addr::new(0x1_0020)), None);
    }

    #[test]
    fn minor_collections_respect_old_targets() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                generational: true,
                min_bytes_between_gcs: u64::MAX,
                ..GcConfig::default()
            },
        );
        let holder = gc.alloc(8, ObjectKind::Atomic).unwrap();
        gc.space_mut().write_u32(ROOT, holder.raw()).unwrap();
        let target = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT + 4, target.raw()).unwrap();
        gc.space_mut().write_u32(holder, target.raw()).unwrap();
        gc.register_disappearing_link(holder, target).unwrap();
        gc.collect_minor(); // tenures both
        gc.space_mut().write_u32(ROOT + 4, 0).unwrap();
        gc.collect_minor();
        assert_eq!(
            gc.space().read_u32(holder).unwrap(),
            target.raw(),
            "old targets are live to a minor collection"
        );
        gc.collect(); // the full collection fires the link
        assert_eq!(gc.space().read_u32(holder).unwrap(), 0);
    }

    #[test]
    fn links_fire_in_incremental_cycles() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                incremental: true,
                incremental_budget: 8,
                min_bytes_between_gcs: u64::MAX,
                ..GcConfig::default()
            },
        );
        let holder = gc.alloc(8, ObjectKind::Atomic).unwrap();
        gc.space_mut().write_u32(ROOT, holder.raw()).unwrap();
        let target = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(holder, target.raw()).unwrap();
        gc.register_disappearing_link(holder, target).unwrap();
        while gc.collect_increment(CollectReason::Explicit).is_none() {}
        assert_eq!(
            gc.space().read_u32(holder).unwrap(),
            0,
            "cleared at the finish"
        );
    }
}

#[cfg(test)]
mod lazy_sweep_tests {
    use super::*;
    use crate::{observer, CollectRequest, RingBufferSink};
    use gc_heap::HeapConfig;
    use gc_vmspace::{Endian, SegmentKind, SegmentSpec};

    fn lazy_collector(configure: impl FnOnce(&mut GcConfig)) -> Collector {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        let mut config = GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 16 << 20,
                growth_pages: 16,
                ..HeapConfig::default()
            },
            lazy_sweep: true,
            min_bytes_between_gcs: u64::MAX,
            ..GcConfig::default()
        };
        configure(&mut config);
        Collector::new(space, config)
    }

    const ROOT: Addr = Addr::new(0x1_0000);

    #[test]
    fn lazy_collection_is_observably_eager() {
        let mut gc = lazy_collector(|_| {});
        let kept = gc.alloc(16, ObjectKind::Composite).unwrap();
        let dropped = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT, kept.raw()).unwrap();
        let stats = gc.collect();
        // The snapshot decided — and reported — every slot's fate already.
        assert_eq!(stats.sweep.objects_freed, 1);
        assert!(stats.sweep.blocks_deferred > 0, "the sweep was deferred");
        assert!(gc.is_live(kept));
        assert!(!gc.is_live(dropped), "condemned before the block is swept");
        assert!(gc.heap().pending_sweep_blocks() > 0);
    }

    #[test]
    fn allocation_drains_pending_blocks() {
        let mut gc = lazy_collector(|_| {});
        for _ in 0..64 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        gc.collect();
        let pending = gc.heap().pending_sweep_blocks();
        assert!(pending > 0);
        // The slow path sweeps pending 16-byte blocks to satisfy this.
        gc.alloc(16, ObjectKind::Composite).unwrap();
        assert!(gc.heap().pending_sweep_blocks() < pending);
        assert!(gc.heap().lazy_sweep_totals().blocks_swept > 0);
    }

    #[test]
    fn finish_sweep_drains_everything_and_feeds_the_histogram() {
        let mut gc = lazy_collector(|_| {});
        for _ in 0..64 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        gc.collect();
        assert!(gc.heap().pending_sweep_blocks() > 0);
        let swept = gc.finish_sweep();
        assert!(swept > 0, "the escape hatch realized the deferred work");
        assert_eq!(gc.heap().pending_sweep_blocks(), 0);
        assert!(
            gc.stats().lazy_sweep_pauses.count() > 0,
            "realized batches are sampled"
        );
        assert_eq!(gc.finish_sweep(), 0, "idempotent once drained");
    }

    #[test]
    fn lazy_sweep_events_report_realized_batches_exactly_once() {
        let events = observer(RingBufferSink::new(256));
        let handle = events.clone();
        let mut gc = lazy_collector(move |c| c.observer = Some(handle));
        for _ in 0..64 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        gc.collect();
        while gc.heap().pending_sweep_blocks() > 0 {
            gc.alloc(16, ObjectKind::Composite).unwrap();
        }
        gc.finish_sweep();
        let (mut blocks, mut freed) = (0u64, 0u64);
        for event in events.lock().unwrap().events() {
            if let GcEvent::LazySweep {
                blocks_swept,
                objects_freed,
                ..
            } = event
            {
                assert!(blocks_swept > 0, "empty batches are not emitted");
                blocks += blocks_swept;
                freed += objects_freed;
            }
        }
        let totals = gc.heap().lazy_sweep_totals();
        assert_eq!(blocks, totals.blocks_swept, "each batch reported once");
        assert_eq!(freed, totals.objects_freed);
    }

    #[test]
    fn run_full_matches_the_collect_wrapper() {
        let mut gc = lazy_collector(|_| {});
        gc.alloc(16, ObjectKind::Composite).unwrap();
        let stats = gc.run(CollectRequest::Full).expect("full always completes");
        assert_eq!(stats.kind, CollectKind::Full);
        assert_eq!(stats.reason, CollectReason::Explicit);
        let next = gc.collect();
        assert_eq!(next.gc_no, stats.gc_no + 1, "wrapper shares the sequence");
    }

    #[test]
    fn run_minor_matches_the_collect_minor_wrapper() {
        let mut gc = lazy_collector(|c| c.generational = true);
        let obj = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT, obj.raw()).unwrap();
        let stats = gc
            .run(CollectRequest::Minor)
            .expect("minor always completes");
        assert_eq!(stats.kind, CollectKind::Minor);
        assert!(gc.is_live(obj));
        let next = gc.collect_minor();
        assert_eq!(next.gc_no, stats.gc_no + 1);
    }

    #[test]
    fn run_increment_steps_an_incremental_cycle() {
        let mut gc = lazy_collector(|c| {
            c.incremental = true;
            c.incremental_budget = 4;
        });
        let obj = gc.alloc(16, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(ROOT, obj.raw()).unwrap();
        let mut steps = 0u32;
        let stats = loop {
            steps += 1;
            assert!(steps < 1_000, "incremental cycle terminates");
            if let Some(stats) = gc.run(CollectRequest::Increment(CollectReason::Explicit)) {
                break stats;
            }
        };
        assert_eq!(stats.kind, CollectKind::Full);
        assert!(steps > 1, "the budget forced multiple increments");
        assert!(gc.is_live(obj));
    }

    #[test]
    fn lazy_and_eager_collectors_agree_on_a_shared_trace() {
        let run = |lazy: bool| {
            let mut gc = lazy_collector(|c| c.lazy_sweep = lazy);
            let mut survivors = Vec::new();
            for i in 0..200u32 {
                let a = gc.alloc(8 + (i % 5) * 16, ObjectKind::Composite).unwrap();
                if i % 3 == 0 {
                    gc.space_mut()
                        .write_u32(ROOT + (i / 3) * 4, a.raw())
                        .unwrap();
                    survivors.push(a);
                }
            }
            let stats = gc.collect();
            let live: Vec<bool> = survivors.iter().map(|&a| gc.is_live(a)).collect();
            (
                stats.sweep.objects_freed,
                stats.sweep.bytes_freed,
                stats.sweep.objects_live,
                live,
                gc.heap().stats().bytes_live,
            )
        };
        let eager = run(false);
        let lazy = run(true);
        assert_eq!(eager, lazy, "lazy sweeping is transparent");
    }
}

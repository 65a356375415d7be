//! The benchmark's handle on one platform: every operation a workload
//! makes goes through [`Client`], which calls the public API of
//! `gc-platforms` and `gc-machine` and, in a traced trial, times each call
//! from outside.

use crate::clock::thread_cpu;
use crate::trace::{Recorder, Tracer};
use gc_core::{Collector, GcConfig, GcError, SharedObserver};
use gc_heap::{DescriptorId, ObjectKind};
use gc_machine::Machine;
use gc_platforms::{BuildOptions, Platform, PlatformHooks, Profile};
use gc_vmspace::Addr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The collector knobs a workload pins. Every one is set explicitly at
/// build time and read back afterwards, so environment defaults
/// (`GC_MARK_THREADS`, `GC_LAZY_SWEEP`, `GC_RESOLVE_CACHE`) cannot change
/// what is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pins {
    pub mark_threads: u32,
    pub mark_threads_force: bool,
    pub lazy_sweep: bool,
    pub resolve_cache: bool,
    pub bump_alloc: bool,
    pub blacklisting: bool,
    pub generational: bool,
    pub full_gc_every: u32,
}

impl Pins {
    fn apply(&self, gc: &mut GcConfig) {
        gc.mark_threads = self.mark_threads;
        gc.mark_threads_force = self.mark_threads_force;
        gc.lazy_sweep = self.lazy_sweep;
        gc.resolve_cache = self.resolve_cache;
        gc.heap.bump_alloc = self.bump_alloc;
        gc.blacklisting = self.blacklisting;
        gc.generational = self.generational;
        gc.full_gc_every = self.full_gc_every;
    }

    fn read(gc: &GcConfig) -> Pins {
        Pins {
            mark_threads: gc.mark_threads,
            mark_threads_force: gc.mark_threads_force,
            lazy_sweep: gc.lazy_sweep,
            resolve_cache: gc.resolve_cache,
            bump_alloc: gc.heap.bump_alloc,
            blacklisting: gc.blacklisting,
            generational: gc.generational,
            full_gc_every: gc.full_gc_every,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"mark_threads\":{},\"mark_threads_force\":{},\"lazy_sweep\":{},\"resolve_cache\":{},\"bump_alloc\":{},\"blacklisting\":{},\"generational\":{},\"full_gc_every\":{}}}",
            self.mark_threads,
            self.mark_threads_force,
            self.lazy_sweep,
            self.resolve_cache,
            self.bump_alloc,
            self.blacklisting,
            self.generational,
            self.full_gc_every
        )
    }
}

/// Operations attempted and checks made, counted at the client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub allocs: u64,
    pub alloc_failures: u64,
    pub checks: u64,
    pub check_failures: u64,
    pub word_ops: u64,
    pub ticks: u64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.allocs + self.checks
    }

    pub fn failed(&self) -> u64 {
        self.alloc_failures + self.check_failures
    }
}

/// Client state that outlives the borrows of one [`Client`].
#[derive(Debug)]
pub struct Ctx {
    recorder: Arc<Mutex<Recorder>>,
    pub tracer: Option<Tracer>,
    pub tally: Tally,
    pub peak_pages: u32,
    /// Collection records already attached to spans.
    attached: usize,
    last_gc_no: u64,
    /// Summed from the `CollectionStats` of each collection a traced call
    /// returned from.
    pub heap_words: u64,
    pub bytes_marked: u64,
}

/// A built platform plus the client state for one trial.
#[derive(Debug)]
pub struct Rig {
    pub platform: Platform,
    pub ctx: Ctx,
}

impl Rig {
    /// Builds `profile` with `pins` applied, times the build on the CPU
    /// clock, and checks
    /// that the collector's effective configuration is the pinned one.
    pub fn build(
        profile: &Profile,
        seed: u64,
        pins: Pins,
        traced: bool,
    ) -> Result<(Rig, Duration), String> {
        let recorder = Arc::new(Mutex::new(Recorder::default()));
        let observer: SharedObserver = recorder.clone();
        // The collector knobs are set in one place, `Pins::apply`.
        let opts = BuildOptions {
            seed,
            ..BuildOptions::default()
        };
        let start = thread_cpu();
        let platform = profile.build_custom(opts, |gc| {
            pins.apply(gc);
            gc.observer = Some(observer);
        });
        let setup = thread_cpu() - start;
        let effective = Pins::read(platform.machine.gc().config());
        if effective != pins {
            return Err(format!(
                "collector configuration differs from the pinned one: pinned {}, effective {}",
                pins.to_json(),
                effective.to_json()
            ));
        }
        let ctx = Ctx {
            recorder,
            tracer: traced.then(Tracer::default),
            tally: Tally::default(),
            peak_pages: 0,
            attached: 0,
            last_gc_no: 0,
            heap_words: 0,
            bytes_marked: 0,
        };
        Ok((Rig { platform, ctx }, setup))
    }

    pub fn client(&mut self) -> Client<'_> {
        Client {
            m: &mut self.platform.machine,
            hooks: &mut self.platform.hooks,
            ctx: &mut self.ctx,
        }
    }

    pub fn recorder(&self) -> MutexGuard<'_, Recorder> {
        self.ctx
            .recorder
            .lock()
            .expect("observer lock is not poisoned")
    }

    pub fn gc(&self) -> &Collector {
        self.platform.machine.gc()
    }
}

/// Collection work done so far: cycles plus incremental steps.
fn work(m: &Machine) -> u64 {
    let s = m.gc().stats();
    s.collections + s.increments
}

/// The calls a workload may make. Heap addresses a workload holds in Rust
/// are not roots: it keeps live pointers in machine-visible places.
pub struct Client<'a> {
    m: &'a mut Machine,
    hooks: &'a mut PlatformHooks,
    ctx: &'a mut Ctx,
}

impl Client<'_> {
    /// Runs `f` as one call into a layer. In a traced trial the call is
    /// timed; it is kept as its own span (under `kept`) when it did
    /// collection work or `always_keep` is set, and otherwise aggregated
    /// under `fast`.
    fn timed<R>(
        &mut self,
        fast: &'static str,
        kept: &'static str,
        always_keep: bool,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if self.ctx.tracer.is_none() {
            return f(self);
        }
        let work_before = work(self.m);
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        let worked = work(self.m) > work_before;
        let keep = always_keep || worked;
        let tracer = self.ctx.tracer.as_mut().expect("traced trial");
        let name = if keep { kept } else { fast };
        if let Some(parent) = tracer.call(name, start, end, keep) {
            self.attach_collections(parent);
        }
        r
    }

    /// Nests the collections that ended since the last call under the
    /// kept span `parent`, and sums the per-collection stats the collector
    /// returned.
    fn attach_collections(&mut self, parent: usize) {
        let recorder = self.ctx.recorder.lock().expect("observer lock");
        let tracer = self.ctx.tracer.as_mut().expect("traced trial");
        for c in &recorder.collections[self.ctx.attached..] {
            tracer.child("core.collection", c.ended - c.duration, c.ended, parent);
        }
        self.ctx.attached = recorder.collections.len();
        drop(recorder);
        if let Some(last) = self.m.gc().stats().last {
            if last.gc_no > self.ctx.last_gc_no {
                self.ctx.last_gc_no = last.gc_no;
                self.ctx.heap_words += last.heap_words_scanned;
                self.ctx.bytes_marked += last.bytes_marked;
            }
        }
    }

    pub fn begin_op(&mut self, name: &'static str, id: u64) {
        if let Some(t) = &mut self.ctx.tracer {
            t.begin_op(name, id);
        }
    }

    /// Closes an operation; the heap's mapped size is sampled here.
    pub fn end_op(&mut self) {
        if let Some(t) = &mut self.ctx.tracer {
            t.end_op();
        }
        self.sample_heap();
    }

    pub fn sample_heap(&mut self) {
        let pages = self.m.gc().heap().mapped_pages();
        self.ctx.peak_pages = self.ctx.peak_pages.max(pages);
    }

    /// One allocation call; `None` (counted as a failed operation) on error.
    fn counted_alloc(
        &mut self,
        f: impl FnOnce(&mut Machine) -> Result<Addr, GcError>,
    ) -> Option<Addr> {
        self.ctx.tally.allocs += 1;
        let r = self.timed("machine.alloc", "machine.alloc_slow", false, |d| f(d.m));
        self.ctx.tally.alloc_failures += u64::from(r.is_err());
        r.ok()
    }

    /// `Machine::alloc`.
    pub fn alloc(&mut self, bytes: u32, kind: ObjectKind) -> Option<Addr> {
        self.counted_alloc(|m| m.alloc(bytes, kind))
    }

    /// `Machine::alloc_typed`.
    pub fn alloc_typed(&mut self, bytes: u32, desc: DescriptorId) -> Option<Addr> {
        self.counted_alloc(|m| m.alloc_typed(bytes, desc))
    }

    pub fn load(&mut self, addr: Addr) -> u32 {
        self.ctx.tally.word_ops += 1;
        self.m.load(addr)
    }

    pub fn store(&mut self, addr: Addr, value: u32) {
        self.ctx.tally.word_ops += 1;
        self.m.store(addr, value);
    }

    /// `Machine::call`: runs `f` in a fresh frame of `locals` words.
    pub fn call<R>(&mut self, locals: u32, f: impl FnOnce(&mut Client<'_>) -> R) -> R {
        let (hooks, ctx) = (&mut *self.hooks, &mut *self.ctx);
        self.m.call(locals, |m| f(&mut Client { m, hooks, ctx }))
    }

    pub fn set_local(&mut self, i: u32, value: u32) {
        self.m.set_local(i, value);
    }

    /// `Machine::collect`: an explicit full collection.
    pub fn collect(&mut self) {
        self.timed("machine.collect", "machine.collect", true, |d| {
            d.m.collect();
        });
    }

    /// One unit of platform background activity (`PlatformHooks::tick`).
    pub fn tick(&mut self) {
        self.ctx.tally.ticks += 1;
        self.timed("platforms.tick", "platforms.tick", false, |d| {
            d.hooks.tick(d.m)
        });
    }

    /// Records one read-back check.
    pub fn check(&mut self, ok: bool) {
        self.ctx.tally.checks += 1;
        self.ctx.tally.check_failures += u64::from(!ok);
    }

    /// A root word in scanned static data.
    pub fn alloc_static(&mut self, words: u32) -> Addr {
        self.m.alloc_static(words)
    }

    pub fn register_descriptor(&mut self, words: u32, pointer_offsets: &[u32]) -> DescriptorId {
        self.m
            .gc_mut()
            .register_descriptor(gc_heap::Descriptor::with_pointers_at(
                words,
                pointer_offsets,
            ))
    }

    /// Registers a finalizer token; a refusal counts as a failed check.
    pub fn register_finalizer(&mut self, addr: Addr, token: u64) {
        if self.m.gc_mut().register_finalizer(addr, token).is_err() {
            self.check(false);
        }
    }

    pub fn collections(&self) -> u64 {
        self.m.gc().gc_count()
    }

    /// Stores 0 into each root, then collects until a collection delivers
    /// no finalizers (at most five times), and settles any deferred sweep.
    /// Returns the finalizer tokens delivered.
    pub fn drop_roots_and_settle(&mut self, roots: &[Addr]) -> Vec<u64> {
        for &r in roots {
            self.store(r, 0);
        }
        let mut tokens = Vec::new();
        for _ in 0..5 {
            self.collect();
            let newly = self.m.gc_mut().drain_finalized();
            if newly.is_empty() {
                break;
            }
            tokens.extend(newly.iter().map(|&(_, t)| t));
        }
        self.m.gc_mut().finish_sweep();
        tokens
    }
}

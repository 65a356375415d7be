//! The parallel mark phase: a work-stealing drain over a frozen heap.
//!
//! Marking over the simulated address space is pure — the heap is frozen,
//! candidate resolution is a read-only query, and the only write is the
//! atomic test-and-set of a mark bit — so a parallel drain can be made
//! *bit-identical* to the serial one:
//!
//! * Each object's mark bit transitions 0→1 exactly once
//!   ([`Heap::mark_candidate`](gc_heap::Heap::mark_candidate) in
//!   [`MarkMode::Atomic`] reports it newly set to exactly one racing
//!   worker), so `objects_marked`/`bytes_marked` totals match serial.
//! * Each marked composite object is scanned exactly once (only the
//!   winning worker pushes it), so `heap_words`, `candidates_in_range`,
//!   `valid_pointers` and `false_refs_near_heap` totals match serial.
//! * Blacklist candidates are buffered per worker and merged sorted by
//!   page after the join. Every drain-phase false reference has heap
//!   provenance, and within one cycle the blacklist's per-page state is
//!   insensitive to noting order, so the merged result — and hence
//!   `dump()` output — is independent of scheduling.
//!
//! Every worker runs the serial marker's candidate kernel
//! ([`MarkKernel`]): the same `consider` and object scan, with false
//! references going to a per-worker page list instead of the blacklist.
//!
//! Workers own one [`StealDeque`] each (LIFO locally, FIFO for thieves)
//! and terminate via the [`InFlight`] counter; see
//! [`worksteal`](crate::worksteal) for the protocol.
//!
//! The unit of exchange is a *batch* of objects, not a single object:
//! each worker drains a private stack and only spills its overflow to the
//! shared deque, one [`BATCH`]-sized chunk at a time, so the lock and
//! counter are touched once per batch rather than once per (often
//! 16-byte) object. The in-flight counter counts batches; a worker's
//! current batch is retired only after its entire local drain — including
//! the children it did not spill — so the counter never under-reports
//! outstanding work.

use crate::mark::{MarkKernel, MarkOutcome};
use crate::stats::MarkWorkerStats;
use crate::worksteal::{InFlight, StealDeque};
use gc_heap::{MarkMode, ObjRef};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Objects per work batch. Large enough to amortize the deque lock and
/// counter update, small enough that an idle worker finds stealable work
/// quickly on bushy graphs.
const BATCH: usize = 64;

/// Smallest local stack worth splitting for a starving thief. A depth-first
/// stack this deep holds the roots of substantial unexplored subgraphs at
/// its bottom.
const SPILL_MIN: usize = 8;

/// A batch of marked composite objects awaiting scanning.
type Batch = Vec<ObjRef>;

/// One worker's private results, merged deterministically after the join.
struct WorkerResult {
    out: MarkOutcome,
    stolen: u64,
    duration: std::time::Duration,
    /// Pages of false references seen while draining (heap provenance).
    false_pages: Vec<u32>,
}

/// The merged result of a parallel drain.
pub(crate) struct ParallelOutcome {
    /// Summed counters, equal to what a serial drain of the same seeds
    /// would have produced (`root_words` stays 0 — roots are scanned
    /// serially before the drain).
    pub out: MarkOutcome,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<MarkWorkerStats>,
    /// False-reference pages with their note counts, ascending by page.
    pub false_pages: Vec<(u32, u64)>,
}

/// Drains `seeds` (already-marked composite objects) to the transitive
/// fixed point using `nworkers` scoped threads, each running the serial
/// marker's candidate kernel `k` with atomic mark bits.
pub(crate) fn par_drain(
    mut k: MarkKernel<'_>,
    seeds: Vec<ObjRef>,
    nworkers: usize,
) -> ParallelOutcome {
    let nworkers = nworkers.max(1);
    let results: Vec<WorkerResult> = if nworkers == 1 {
        // One worker: run the serial drain inline on the calling thread.
        // Spawning a thread to immediately join it buys nothing, and
        // sharing machinery (batches, deques, termination counter) is pure
        // per-object overhead with nobody to share with.
        vec![drain_single(k, seeds)]
    } else {
        k.mode = MarkMode::Atomic;
        let queues: Vec<StealDeque<Batch>> = (0..nworkers).map(|_| StealDeque::new()).collect();
        let seed_batches: Vec<Batch> = seeds.chunks(BATCH).map(<[ObjRef]>::to_vec).collect();
        let inflight = InFlight::new(seed_batches.len() as u64);
        for (i, batch) in seed_batches.into_iter().enumerate() {
            queues[i % nworkers].push(batch);
        }
        let hungry = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..nworkers)
                .map(|w| {
                    let k = &k;
                    let queues = &queues;
                    let inflight = &inflight;
                    let hungry = &hungry;
                    s.spawn(move || worker_loop(k, w, queues, inflight, hungry))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mark worker panicked"))
                .collect()
        })
    };

    let mut out = MarkOutcome::default();
    let mut workers = Vec::with_capacity(nworkers);
    let mut pages: BTreeMap<u32, u64> = BTreeMap::new();
    for r in results {
        workers.push(MarkWorkerStats {
            objects_marked: r.out.objects_marked,
            bytes_marked: r.out.bytes_marked,
            stolen: r.stolen,
            duration: r.duration,
        });
        out.merge(r.out);
        for page in r.false_pages {
            *pages.entry(page).or_insert(0) += 1;
        }
    }
    ParallelOutcome {
        out,
        workers,
        false_pages: pages.into_iter().collect(),
    }
}

/// The one-worker drain: the serial mark loop, with false references
/// buffered like a parallel worker's.
fn drain_single(k: MarkKernel<'_>, seeds: Vec<ObjRef>) -> WorkerResult {
    let start = Instant::now();
    let mut st = k.state(seeds);
    let mut false_pages = Vec::new();
    k.drain(&mut st, &mut false_pages, u64::MAX);
    WorkerResult {
        out: st.outcome(),
        stolen: 0,
        duration: start.elapsed(),
        false_pages,
    }
}

fn worker_loop(
    k: &MarkKernel<'_>,
    me: usize,
    queues: &[StealDeque<Batch>],
    inflight: &InFlight,
    hungry: &AtomicUsize,
) -> WorkerResult {
    let start = Instant::now();
    // A private resolve cache and segment hint per worker: concurrent
    // workers sharing one would ping-pong its entries. The counters, hint
    // and stack stay in locals for the whole loop.
    let mut st = k.state(Vec::new());
    let (mut out, mut hint, mut local) = (st.out, st.hint, Vec::new());
    let mut false_pages = Vec::new();
    let mut stolen = 0;
    let mut am_hungry = false;
    let n = queues.len();
    loop {
        let mut batch = queues[me].pop();
        if batch.is_none() {
            // Steal round: visit victims in a fixed rotation starting past
            // ourselves, so contention spreads instead of piling onto
            // worker 0.
            for j in 1..n {
                if let Some(items) = queues[(me + j) % n].steal() {
                    stolen += 1;
                    batch = Some(items);
                    break;
                }
            }
        }
        match batch {
            Some(items) => {
                if am_hungry {
                    am_hungry = false;
                    hungry.fetch_sub(1, Ordering::Relaxed);
                }
                local.extend(items);
                while let Some(obj) = local.pop() {
                    k.trace(
                        obj,
                        &mut out,
                        &mut st.cache,
                        &mut hint,
                        &mut local,
                        &mut false_pages,
                    );
                    // Spill the *bottom* of the stack (the older entries —
                    // roots of the largest unexplored subgraphs) when the
                    // stack is overfull, or as soon as any worker is
                    // starving: on narrow graphs (deep trees, lists) the
                    // stack never grows large, and starvation-driven
                    // splitting is what spreads the work.
                    let spill_len = if local.len() >= 2 * BATCH {
                        BATCH
                    } else if local.len() >= SPILL_MIN && hungry.load(Ordering::Relaxed) > 0 {
                        local.len() / 2
                    } else {
                        continue;
                    };
                    let rest = local.split_off(spill_len);
                    let spill = std::mem::replace(&mut local, rest);
                    inflight.add_one();
                    queues[me].push(spill);
                }
                // Retire only after the whole local drain: children that
                // were not spilled are covered by this batch's token.
                inflight.finish_one();
            }
            None => {
                if inflight.is_idle() {
                    break;
                }
                if !am_hungry {
                    am_hungry = true;
                    hungry.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }
    }
    if am_hungry {
        hungry.fetch_sub(1, Ordering::Relaxed);
    }
    st.out = out;
    WorkerResult {
        out: st.outcome(),
        stolen,
        duration: start.elapsed(),
        false_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GcConfig;
    use gc_heap::{accept_all, Heap, HeapConfig, ObjectKind};
    use gc_vmspace::{AddressSpace, Endian};

    #[test]
    fn parallel_drain_reaches_the_transitive_closure() {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig::default());
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let c = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        space.write_u32(a, b.raw()).unwrap();
        space.write_u32(b + 4, c.raw()).unwrap();
        heap.clear_marks();
        let obj_a = heap.object_containing(a).unwrap();
        assert!(heap.set_marked(obj_a), "seed premarked, as after root scan");

        let config = GcConfig::default();
        let k = MarkKernel::new(&space, &heap, &config);
        let result = par_drain(k, vec![obj_a], 4);
        for addr in [b, c] {
            let obj = heap.object_containing(addr).unwrap();
            assert!(heap.is_marked(obj), "{addr} reached through the chain");
        }
        // The seed was marked before the drain; the drain marked b and c.
        assert_eq!(result.out.objects_marked, 2);
        assert_eq!(result.out.bytes_marked, 16);
        assert_eq!(result.out.root_words, 0, "roots are not the drain's job");
        assert_eq!(result.workers.len(), 4);
        let per_worker: u64 = result.workers.iter().map(|w| w.objects_marked).sum();
        assert_eq!(per_worker, result.out.objects_marked);
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig::default());
        let config = GcConfig::default();
        let result = par_drain(MarkKernel::new(&space, &heap, &config), Vec::new(), 8);
        assert_eq!(result.out.objects_marked, 0);
        assert_eq!(result.out.heap_words, 0);
        assert!(result.false_pages.is_empty());
        assert_eq!(result.workers.len(), 8);
    }
}

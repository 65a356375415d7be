//! `program_t`: the paper's appendix-A Program T at paper scale (200 lists
//! of 25,000 4-byte cells) on the statically linked SPARC profile, with
//! blacklisting on and the platform's tick called once per list.
//!
//! The operations are made here, through the client, in exactly the
//! order `gc_workloads::ProgramT::run` makes them, so both retain the
//! same lists for the same seed; [`reference_retained`] runs the library's
//! Program T to prove it. Polluted statics drive root scan and blacklist
//! placement, the 200 finalizer representatives drive the finalize phase,
//! and five million tiny allocations stress the allocation fast path.

use crate::client::{Client, Pins, Rig};
use gc_heap::ObjectKind;
use gc_platforms::Profile;
use gc_vmspace::Addr;
use gc_workloads::ProgramT;

pub fn profile() -> Profile {
    Profile::sparc_static(false)
}

pub fn pins() -> Pins {
    Pins {
        mark_threads: 1,
        mark_threads_force: false,
        lazy_sweep: false,
        resolve_cache: true,
        bump_alloc: true,
        blacklisting: true,
        generational: false,
        full_gc_every: 8,
    }
}

/// Runs Program T; returns how many lists were never finalized.
pub fn run(d: &mut Client<'_>, shape: ProgramT) -> u32 {
    let a = d.alloc_static(shape.lists);
    test(d, shape, a, shape.nodes_per_list, true);
    d.begin_op("program_t.collect", 0);
    d.collect();
    d.end_op();
    // test(2): "simulate further program execution to clear stack garbage".
    test(d, shape, a, 2, false);
    // "The garbage collector was manually invoked until no more lists were
    // finalized."
    d.begin_op("program_t.settle", 0);
    let finalized = d.drop_roots_and_settle(&[]);
    d.end_op();
    let mut reclaimed = vec![false; shape.lists as usize];
    for token in finalized {
        if let Some(r) = reclaimed.get_mut(token as usize) {
            *r = true;
        }
    }
    reclaimed.iter().filter(|&&r| !r).count() as u32
}

/// The paper's `test(n)`: `lists` cycles of `n` cells into the static
/// array `a`, then `a` cleared, both loops in one frame whose slot 2 is
/// the return-value temporary. The first call registers one finalizer per
/// list and ticks the platform after each list.
fn test(d: &mut Client<'_>, shape: ProgramT, a: Addr, n: u32, first: bool) {
    d.call(4, |d| {
        for i in 0..shape.lists {
            d.begin_op("program_t.list", u64::from(i));
            if let Some(head) = alloc_cycle(d, shape.cell_bytes, n) {
                d.set_local(2, head.raw());
                d.store(a + i * 4, head.raw());
                if first {
                    d.register_finalizer(head, u64::from(i));
                }
            }
            if first {
                d.tick();
            }
            d.end_op();
        }
        d.begin_op("program_t.clear", 0);
        for i in 0..shape.lists {
            d.set_local(0, i);
            d.store(a + i * 4, 0);
        }
        d.end_op();
    });
}

/// `alloc_cycle(n)`: a circular list of `n` cells, kept rooted through the
/// frame while it is built.
fn alloc_cycle(d: &mut Client<'_>, cell_bytes: u32, n: u32) -> Option<Addr> {
    d.call(2, |d| {
        let first = d.alloc(cell_bytes, ObjectKind::Composite)?;
        d.set_local(0, first.raw());
        let mut prev = first;
        for k in 1..n {
            let cell = d.alloc(cell_bytes, ObjectKind::Composite)?;
            if cell_bytes >= 8 {
                d.store(cell + 4, 0xFEED_0000 | (k & 0xFFFF));
            }
            d.store(prev, cell.raw());
            d.set_local(1, cell.raw());
            prev = cell;
        }
        d.store(prev, first.raw());
        Some(first)
    })
}

/// Retained lists by the library's own Program T, on a platform built the
/// same way from the same seed.
pub fn reference_retained(shape: ProgramT, seed: u64) -> Result<u32, String> {
    let (mut rig, _) = Rig::build(&profile(), seed, pins(), false)?;
    let platform = &mut rig.platform;
    let hooks = &mut platform.hooks;
    Ok(shape
        .run(&mut platform.machine, &mut |m| hooks.tick(m))
        .retained)
}

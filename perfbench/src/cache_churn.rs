//! `cache_churn`: a synthetic workload with reads beside writes, on a
//! clean machine with generational collection (a full collection after
//! every 8 minor ones) and lazy sweeping.
//!
//! A long-lived table of typed records (`[payload, previous payload, key,
//! tag]`, the first two words pointers) is updated in place. Each request
//! allocates a fresh pointer-free payload, mostly 16-272 bytes with about 1
//! in 256 of 8 KB or more, stores it into a record, occasionally replaces
//! the record itself, and reads back another record and its payload's tag.
//! Writes into old objects drive the write barrier and dirty-card minor
//! collections; sweep cost moves into allocation. The mix is chosen to
//! cover those layers, not measured from real traffic; `README.md` says
//! which numbers were chosen and why.

use crate::client::{Client, Pins};
use crate::Rng;
use gc_heap::{DescriptorId, ObjectKind};
use gc_platforms::Profile;
use gc_vmspace::Addr;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub records: u32,
    pub requests: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            records: 16_384,
            requests: 1_600_000,
        }
    }

    pub fn small() -> Size {
        Size {
            records: 1024,
            requests: 60_000,
        }
    }
}

pub fn profile() -> Profile {
    Profile::synthetic()
}

pub fn pins() -> Pins {
    Pins {
        mark_threads: 1,
        mark_threads_force: false,
        lazy_sweep: true,
        resolve_cache: true,
        bump_alloc: true,
        blacklisting: true,
        generational: true,
        full_gc_every: 8,
    }
}

const RECORD_BYTES: u32 = 16;
/// One request in `REPLACE_EVERY` also replaces the record it updates.
const REPLACE_EVERY: u32 = 32;

/// A fresh payload: `[tag, key, ...]`.
fn payload_bytes(rng: &mut Rng) -> u32 {
    let r = rng.next_u32();
    if r.is_multiple_of(256) {
        8192 + 4096 * ((r >> 8) % 4)
    } else {
        16 * (1 + (r >> 8) % 17)
    }
}

/// Tags are odd, so never word-aligned heap addresses; payloads are atomic,
/// so they are never scanned anyway.
fn fresh_tag(rng: &mut Rng) -> u32 {
    rng.next_u32() | 1
}

/// Builds the table, serves `size.requests` requests, then verifies every
/// record. Returns the static roots the workload owns.
pub fn run(d: &mut Client<'_>, seed: u64, size: Size) -> Vec<Addr> {
    let mut rng = Rng::new(seed);
    let desc = d.register_descriptor(RECORD_BYTES / 4, &[0, 1]);
    let root = d.alloc_static(1);
    d.begin_op("cache_churn.fill", 0);
    let Some(table) = d.alloc(size.records * 4, ObjectKind::Composite) else {
        d.end_op();
        return vec![root];
    };
    d.store(root, table.raw());
    for key in 0..size.records {
        if let Some(rec) = d.alloc_typed(RECORD_BYTES, desc) {
            d.store(table + key * 4, rec.raw());
            d.store(rec + 8, key);
            update(d, &mut rng, rec, key);
        }
    }
    d.end_op();

    for id in 0..size.requests {
        d.begin_op("cache_churn.request", id + 1);
        request(d, &mut rng, table, desc, size.records);
        d.end_op();
    }

    d.begin_op("cache_churn.verify", size.requests + 1);
    for key in 0..size.records {
        let ok = verify(d, table, key);
        d.check(ok);
    }
    d.end_op();
    vec![root]
}

fn request(d: &mut Client<'_>, rng: &mut Rng, table: Addr, desc: DescriptorId, records: u32) {
    let key = rng.next_u32() % records;
    if rng.next_u32().is_multiple_of(REPLACE_EVERY) {
        // Replace the record: copy it into a fresh one, then swap it in.
        if let Some(fresh) = d.alloc_typed(RECORD_BYTES, desc) {
            let old = Addr::new(d.load(table + key * 4));
            for w in 0..RECORD_BYTES / 4 {
                let v = d.load(old + w * 4);
                d.store(fresh + w * 4, v);
            }
            d.store(table + key * 4, fresh.raw());
        }
    }
    let rec = Addr::new(d.load(table + key * 4));
    update(d, rng, rec, key);
    // Read back another record and its payload's tag.
    let other = rng.next_u32() % records;
    let ok = verify(d, table, other);
    d.check(ok);
}

/// Gives record `rec` a fresh payload, keeping the previous one.
fn update(d: &mut Client<'_>, rng: &mut Rng, rec: Addr, key: u32) {
    let bytes = payload_bytes(rng);
    let tag = fresh_tag(rng);
    let Some(payload) = d.alloc(bytes, ObjectKind::Atomic) else {
        return;
    };
    d.store(payload, tag);
    d.store(payload + 4, key);
    let previous = d.load(rec);
    d.store(rec + 4, previous);
    d.store(rec, payload.raw());
    d.store(rec + 12, tag);
}

/// Whether record `key` carries its key and its payload the record's tag.
fn verify(d: &mut Client<'_>, table: Addr, key: u32) -> bool {
    let rec = Addr::new(d.load(table + key * 4));
    if rec.raw() == 0 || d.load(rec + 8) != key {
        return false;
    }
    let payload = Addr::new(d.load(rec));
    payload.raw() != 0 && d.load(payload) == d.load(rec + 12) && d.load(payload + 4) == key
}

//! Regression tests for the typed-object dirty-page scanning bug: the
//! card/remembered-set scan (`scan_pages_impl`) used to ignore descriptors
//! and scan *typed* composite objects fully conservatively, so an integer
//! in a declared data word could resurrect a dead young object during a
//! minor collection (or an incremental card catch-up) that a full
//! collection would reclaim. All object-field scanning now routes through
//! one shared kernel (`MarkKernel::trace`), so typed objects scan only
//! their declared pointer offsets on *every* path: the serial drain, the
//! budgeted incremental drain, the dirty-page scan, and the parallel
//! workers.

use sec_gc::core::{CollectReason, Collector, GcConfig};
use sec_gc::heap::{Descriptor, HeapConfig, ObjectKind};
use sec_gc::vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

const ROOT: Addr = Addr::new(0x1_0000);

fn collector(tweak: impl FnOnce(&mut GcConfig)) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new("globals", SegmentKind::Data, ROOT, 4096))
        .unwrap();
    let mut config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 16 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        min_bytes_between_gcs: u64::MAX,
        ..GcConfig::default()
    };
    tweak(&mut config);
    Collector::new(space, config)
}

/// The headline regression: a tenured *typed* object whose data word holds
/// a young object's address must not retain that object across a minor
/// collection, even though the store dirtied the card. Before the fix the
/// dirty-page scan was fully conservative and the victim survived; a full
/// collection of the same heap always reclaimed it.
#[test]
fn minor_collection_respects_typed_layout_on_dirty_pages() {
    let mut gc = collector(|c| c.generational = true);
    // Descriptor: [pointer, data, data].
    let desc = gc.register_descriptor(Descriptor::with_pointers_at(3, &[0]));
    let rec = gc.alloc_typed(12, desc).unwrap();
    gc.space_mut().write_u32(ROOT, rec.raw()).unwrap();
    gc.collect_minor(); // tenure rec
    let obj = gc.object_containing(rec).unwrap();
    assert!(gc.heap().is_old(obj), "rec was tenured");

    // A young object referenced ONLY from rec's *data* word, through the
    // write barrier (so the card is dirty and the minor collection scans
    // rec's page).
    let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
    gc.space_mut().write_u32(rec + 4, victim.raw()).unwrap();
    gc.record_write(rec + 4);
    assert!(gc.dirty_cards() > 0, "the store dirtied a card");
    gc.collect_minor();
    assert!(gc.is_live(rec), "rec itself stays live (rooted, old)");
    assert!(
        !gc.is_live(victim),
        "typed data word must not retain across a dirty-page scan \
         (minor and full collections must agree on typed layouts)"
    );

    // The same address in the declared *pointer* word does retain — the
    // fix must not have broken real old→young edges.
    let victim2 = gc.alloc(8, ObjectKind::Composite).unwrap();
    gc.space_mut().write_u32(rec, victim2.raw()).unwrap();
    gc.record_write(rec);
    gc.collect_minor();
    assert!(
        gc.is_live(victim2),
        "typed pointer word is traced by the dirty-page scan"
    );
}

/// The same layout contract through the incremental path: a mutation made
/// *during* marking is caught up via dirty cards at cycle finish, and that
/// catch-up scan must also honor the descriptor.
#[test]
fn incremental_card_catchup_respects_typed_layout() {
    let mut gc = collector(|c| {
        c.incremental = true;
        c.incremental_budget = 4;
    });
    let desc = gc.register_descriptor(Descriptor::with_pointers_at(3, &[0]));
    let rec = gc.alloc_typed(12, desc).unwrap();
    gc.space_mut().write_u32(ROOT, rec.raw()).unwrap();
    let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
    // A long chain keeps the cycle alive across many increments, so the
    // mid-cycle mutation below really lands between the increment that
    // scans rec and the stop-the-world finish.
    let mut head = 0u32;
    for _ in 0..400 {
        let cell = gc.alloc(8, ObjectKind::Composite).unwrap();
        gc.space_mut().write_u32(cell, head).unwrap();
        head = cell.raw();
    }
    gc.space_mut().write_u32(ROOT + 4, head).unwrap();

    // Start the cycle (root scan) and run a couple of increments so rec is
    // already marked and scanned.
    assert!(gc.collect_increment(CollectReason::Explicit).is_none());
    assert!(gc.collect_increment(CollectReason::Explicit).is_none());
    // Mid-cycle mutation: the victim's address lands in rec's data word.
    gc.space_mut().write_u32(rec + 4, victim.raw()).unwrap();
    gc.record_write(rec + 4);
    for _ in 0..100_000 {
        if gc.collect_increment(CollectReason::Explicit).is_some() {
            break;
        }
    }
    assert!(gc.is_live(rec));
    assert!(
        !gc.is_live(victim),
        "incremental card catch-up must scan typed objects by descriptor"
    );
}

/// Full vs minor equivalence over a small typed+untyped mixed heap: after
/// quiescing, the minor fixpoint and a stop-the-world collection agree on
/// every typed object's edges.
#[test]
fn typed_live_sets_agree_full_vs_minor() {
    let run = |minor: bool| -> [bool; 5] {
        let mut gc = collector(|c| c.generational = minor);
        let desc = gc.register_descriptor(Descriptor::with_pointers_at(4, &[1, 3]));
        // rec: [data, ptr, data, ptr]
        let rec = gc.alloc_typed(16, desc).unwrap();
        gc.space_mut().write_u32(ROOT, rec.raw()).unwrap();
        if minor {
            gc.collect_minor(); // tenure rec
        }
        let kept_a = gc.alloc(8, ObjectKind::Composite).unwrap();
        let kept_b = gc.alloc(8, ObjectKind::Composite).unwrap();
        let lost_a = gc.alloc(8, ObjectKind::Composite).unwrap();
        let lost_b = gc.alloc(8, ObjectKind::Composite).unwrap();
        for (off, val) in [
            (0u32, lost_a), // data word
            (4, kept_a),    // pointer word
            (8, lost_b),    // data word
            (12, kept_b),   // pointer word
        ] {
            gc.space_mut().write_u32(rec + off, val.raw()).unwrap();
            gc.record_write(rec + off);
        }
        if minor {
            gc.collect_minor();
        } else {
            gc.collect();
        }
        [
            gc.is_live(rec),
            gc.is_live(kept_a),
            gc.is_live(kept_b),
            gc.is_live(lost_a),
            gc.is_live(lost_b),
        ]
    };
    let full = run(false);
    let minor = run(true);
    assert_eq!(
        full, minor,
        "typed pointer layout must produce the same live set whether the \
         edges are seen by a full trace or a dirty-page minor scan"
    );
    assert_eq!(full, [true, true, true, false, false]);
}

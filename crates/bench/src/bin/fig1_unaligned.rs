//! Regenerates **Figure 1**: two small integers concatenate into a heap
//! address under unaligned (halfword) scanning.
//!
//! The paper: storing the small integers 0x0009 and 0x000a as consecutive
//! words lets a collector that must consider halfword alignments read the
//! bit pattern 0x00090000 — a plausible heap address — out of their
//! concatenation.

use gc_bench::finish_args;
use gc_core::{Collector, GcConfig, ScanAlignment};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

fn run(alignment: ScanAlignment) -> (bool, u64) {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(0x1_0000),
            4096,
        ))
        .expect("static segment maps");
    // Figure 1's two integers, stored exactly as the figure shows.
    space
        .write_u32(Addr::new(0x1_0000), 0x0000_0009)
        .expect("mapped");
    space
        .write_u32(Addr::new(0x1_0004), 0x0000_000a)
        .expect("mapped");
    let mut gc = Collector::new(
        space,
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x0009_0000),
                ..HeapConfig::default()
            },
            scan_alignment: alignment,
            // Figure 1 illustrates the raw misidentification problem; with
            // blacklisting on, the startup collection would (correctly!)
            // blacklist 0x00090000 before the object could land there.
            blacklisting: false,
            ..GcConfig::default()
        },
    );
    let obj = gc.alloc(8, ObjectKind::Composite).expect("fresh heap");
    assert_eq!(
        obj.raw(),
        0x0009_0000,
        "heap starts at the figure's address"
    );
    let stats = gc.collect();
    (gc.is_live(obj), stats.candidates_in_range)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: fig1_unaligned");
    println!("Figure 1: memory holds the integers 0x00000009, 0x0000000a");
    println!("          an object lives at address 0x00090000\n");
    for alignment in [
        ScanAlignment::Word,
        ScanAlignment::HalfWord,
        ScanAlignment::Byte,
    ] {
        let (retained, candidates) = run(alignment);
        println!(
            "{alignment:>9}-aligned scan: object {} ({} candidate(s) in heap range)",
            if retained {
                "RETAINED — misidentification"
            } else {
                "collected"
            },
            candidates,
        );
    }
    println!("\nPaper: \"the concatenation of the low order half word of an");
    println!("integer with the high order half word of the next integer can");
    println!("easily be a valid heap address\" — hence aligned pointers matter.");
}

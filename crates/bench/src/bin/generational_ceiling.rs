//! Regenerates the **generational ceiling** observation (§3.1, closing
//! paragraph): "stray stack pointers can significantly lengthen the
//! lifetime of some objects, thus placing a ceiling on the effectiveness
//! of generational collection."
//!
//! The collector runs in sticky-mark-bit generational mode (the PCR
//! design, reference \[12\] of the paper) while a workload churns transient
//! chains through stack frames; garbage pinned by a stray pointer at any
//! minor collection is promoted and survives until a full collection.

use gc_analysis::generational::{compare, comparison_table, GenerationalRun};
use gc_bench::finish_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: generational_ceiling");
    let config = GenerationalRun::default();
    println!(
        "{} transient chains of {} cells, sticky-mark-bit generational GC\n",
        config.iterations, config.chain_len
    );
    let mut all = Vec::new();
    for seed in 1..=3u64 {
        all.extend(compare(&config, seed));
    }
    println!("{}", comparison_table(&all));
    println!("Tenured garbage is young garbage a stray pointer pinned at some");
    println!("minor collection; only a full collection reclaims it — the");
    println!("\"ceiling on the effectiveness of generational collection\".");
}

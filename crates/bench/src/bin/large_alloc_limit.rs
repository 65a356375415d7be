//! Regenerates **observation 7**: with all interior pointers honoured it is
//! hard to place objects larger than ~100 KB on the blacklist-riddled
//! SPARC-static image; under the first-page policy there is no problem.

use gc_analysis::large_alloc::{default_sizes, sweep};
use gc_bench::finish_args;
use gc_core::PointerPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: large_alloc_limit");
    let budget: u64 = 24 << 20; // confine the heap to the polluted region
    for policy in [PointerPolicy::AllInterior, PointerPolicy::FirstPage] {
        let mut max_ok = 0u32;
        let mut worst_denied = 0u32;
        println!(
            "--- policy: {policy}, heap confined to {} MB ---",
            budget >> 20
        );
        for seed in 1..=3u64 {
            let r = sweep(policy, budget, &default_sizes(), seed);
            max_ok = max_ok.max(r.max_placeable());
            for s in &r.samples {
                worst_denied = worst_denied.max(s.pages_denied);
            }
            if seed == 1 {
                println!("{r}");
            }
        }
        println!(
            "largest placeable object over 3 seeds: {} KB (worst search denied {} pages)\n",
            max_ok / 1024,
            worst_denied
        );
    }
    println!("Paper: \"difficult to allocate individual objects larger than");
    println!("about 100 Kbytes\" (all-interior); \"never a problem\" (first-page).");
}

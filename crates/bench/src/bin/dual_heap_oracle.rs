//! Regenerates **footnote 4**: running two copies of the program with heap
//! bases offset by n identifies root words that are provably not pointers,
//! eliminating (at substantial cost) the misidentification that
//! blacklisting addresses cheaply.

use gc_analysis::dual_heap;
use gc_bench::{finish_args, take_positional};
use gc_platforms::Profile;
use std::num::NonZeroU32;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_positional::<NonZeroU32>(&mut args).map_or(4, NonZeroU32::get);
    finish_args(&args, "Usage: dual_heap_oracle [scale]");
    println!(
        "SPARC(static) image, blacklisting OFF, heap copies offset by 64 KB (scale 1/{scale})\n"
    );
    for seed in 1..=3u64 {
        let r = dual_heap::run(&Profile::sparc_static(false), 64 << 10, seed, scale);
        println!("seed {seed}: {r}");
    }
    println!("\nPaper (footnote 4): \"more accurate techniques are possible at");
    println!("substantial performance cost … any two corresponding locations");
    println!("whose values do not differ by n are then known not to be pointers\".");
}

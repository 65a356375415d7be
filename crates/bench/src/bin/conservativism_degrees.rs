//! Regenerates the introduction's **degrees of conservativism** spectrum:
//! a fully conservative heap misreads random payload words as pointers;
//! pointer-free (atomic) payloads or exact typed descriptors eliminate the
//! misidentification — and blacklisting cannot substitute here, because
//! the payload values appear only after the victims' pages are allocated.

use gc_analysis::conservativism::{compare, comparison_table, ConservativismRun};
use gc_bench::finish_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: conservativism_degrees");
    let config = ConservativismRun::default();
    println!(
        "{} victim lists x {} cells dropped; {} live records x {} random payload words\n",
        config.victim_lists, config.victim_cells, config.records, config.payload_words
    );
    let mut all = Vec::new();
    for seed in 1..=3u64 {
        all.extend(compare(&config, seed));
    }
    println!("{}", comparison_table(&all));
    println!("Paper (intro/§2): implementations \"vary greatly in their degree of");
    println!("conservativism\"; \"it is essential to provide some way to communicate");
    println!("to the collector … that an entire large object contains no pointers\".");
}

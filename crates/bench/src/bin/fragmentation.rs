//! Regenerates the conclusions' **fragmentation claim**: address-ordered
//! free lists coalesce better than LIFO free lists.

use gc_analysis::fragmentation::{compare, comparison_table, FragmentationRun};
use gc_bench::finish_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: fragmentation");
    let config = FragmentationRun::default();
    let mut reports = Vec::new();
    for seed in 1..=3u64 {
        let (ao, lifo) = compare(&config, seed);
        reports.push(ao);
        reports.push(lifo);
    }
    println!(
        "{} alloc/free ops, live target {}, sizes {}-{} bytes, 3 seeds\n",
        config.operations, config.live_target, config.min_bytes, config.max_bytes
    );
    println!("{}", comparison_table(&reports));
    println!("Paper: address-sorted free lists increase \"the probability of");
    println!("large chunks of adjacent space becoming available in the future,");
    println!("decreasing fragmentation\".");
}

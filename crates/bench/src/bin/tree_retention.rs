//! Regenerates the **§4 balanced-tree claim**: the expected number of
//! vertices retained by one false reference approximately equals the tree
//! height.

use gc_analysis::TextTable;
use gc_bench::finish_args;
use gc_platforms::{BuildOptions, Profile};
use gc_workloads::TreeRun;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: tree_retention");
    let mut table = TextTable::new(vec![
        "Nodes".into(),
        "Height".into(),
        "Mean retained / false ref".into(),
        "Median".into(),
        "Worst".into(),
    ]);
    for height in [8, 10, 12, 14] {
        let mut m = Profile::synthetic().build(BuildOptions::default()).machine;
        // The subtree-size distribution is heavy-tailed, so the mean needs
        // many trials to stabilize near the height.
        let trials = 400;
        let r = TreeRun { height, trials }.run(&mut m, 42 + u64::from(height));
        table.row(vec![
            r.nodes.to_string(),
            height.to_string(),
            format!("{:.1}", r.mean_retained),
            r.median_retained.to_string(),
            r.max_retained.to_string(),
        ]);
    }
    println!("{table}");
    println!("Paper (§4): \"the expected number of vertices retained … is");
    println!("approximately equal to the height of the tree\".");
}

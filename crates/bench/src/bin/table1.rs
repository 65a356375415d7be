//! Regenerates **Table 1**: storage retention with and without blacklisting.
//!
//! Usage: `table1 [scale [seed...]]` — scale divides Program T's size
//! (default 1 = the paper's full 20 MB configuration; use e.g. 10 for a
//! quick pass). Default seeds: 1 2 3. With `--json <path>`, also writes
//! the result rows as a machine-readable report.

use gc_analysis::table1::{self, Table1Config};
use gc_bench::{finish_args, json_array, json_object, json_str, take_mark_threads, JsonOut};
use std::num::NonZeroU32;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    let mark_threads = take_mark_threads(&mut args);
    // Positionals: a nonzero scale divisor, then seeds. Anything that does
    // not parse is left behind for `finish_args` to reject.
    let mut scale: Option<NonZeroU32> = None;
    let mut seeds: Vec<u64> = Vec::new();
    args.retain(|a| match scale {
        None => a.parse().map(|s| scale = Some(s)).is_err(),
        Some(_) => a.parse().map(|seed| seeds.push(seed)).is_err(),
    });
    finish_args(
        &args,
        "Usage: table1 [--json <path>] [--mark-threads <n>] [scale [seed...]]",
    );
    let scale = scale.map_or(1, NonZeroU32::get);
    if seeds.is_empty() {
        seeds = vec![1, 2, 3];
    }
    let config = Table1Config {
        seeds,
        scale,
        mark_threads: Some(mark_threads),
    };
    eprintln!(
        "running Table 1 at scale 1/{} with seeds {:?} and {} mark thread(s)…",
        config.scale, config.seeds, mark_threads
    );
    let table = table1::run(&config);
    println!("{table}");
    println!("Paper's Table 1 for comparison:");
    println!("  SPARC(static)   no     79-79.5%    0-.5%");
    println!("  SPARC(static)   yes    78-78.5%    .5-1%");
    println!("  SPARC(dynamic)  no     8-9.5%      .5%");
    println!("  SPARC(dynamic)  yes    9-11.5%     0-.5%");
    println!("  SGI(static)     no     1.5-8%      0%");
    println!("  SGI(static)     yes    1-4%        0%");
    println!("  OS/2(static)    no     28%         3%");
    println!("  OS/2(static)    yes    26%         1%");
    println!("  PCR             mixed  44.5-55%    1.5-3.5%");
    let seeds_json: Vec<String> = config.seeds.iter().map(u64::to_string).collect();
    let document = json_object(&[
        ("benchmark", json_str("table1")),
        ("scale", config.scale.to_string()),
        ("seeds", json_array(&seeds_json)),
        ("mark_threads", mark_threads.to_string()),
        ("results", table.text_table().to_json()),
    ]);
    json_out.write(&document).expect("write JSON report");
}

//! Regenerates the conclusions' **Zorn comparison**: replacing explicit
//! deallocation with conservative GC increases memory consumption, mostly
//! because a tracing collector needs free headroom.

use gc_analysis::zorn::{run, table, ZornRun};
use gc_bench::finish_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish_args(&args, "Usage: zorn_compare");
    for divisor in [8, 4, 2] {
        let config = ZornRun {
            free_space_divisor: divisor,
            ..ZornRun::default()
        };
        let r = run(&config, 1);
        println!("free_space_divisor = {divisor}:");
        println!("{}", table(&r));
    }
    println!("Paper: \"any tracing garbage collector will require some fraction");
    println!("of the heap to be empty in order to avoid excessively frequent");
    println!("collections. This appears unavoidable without resorting to");
    println!("reference counting.\"");
}

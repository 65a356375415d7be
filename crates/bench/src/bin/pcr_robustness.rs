//! Regenerates **observation 2 / appendix B's robustness claim**: "the
//! approximate amount of retention appears robust across a variety of
//! client programs … The experiments were run with very different sized
//! Cedar address spaces, ranging from 1.5 to about 13 MB of other live
//! data … Interestingly, the number of loaded packages had minimal effect
//! on the amount of retained storage."

use gc_analysis::table1::run_once;
use gc_analysis::TextTable;
use gc_bench::{finish_args, take_positional};
use gc_platforms::Profile;
use std::num::NonZeroU32;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_positional::<NonZeroU32>(&mut args).map_or(1, NonZeroU32::get);
    finish_args(&args, "Usage: pcr_robustness [scale]");
    let mut table = TextTable::new(vec![
        "Cedar world".into(),
        "Concurrent client".into(),
        "No blacklisting".into(),
        "Blacklisting".into(),
    ]);
    for (mb, concurrent) in [(1, false), (4, false), (4, true), (13, false), (13, true)] {
        let profile = Profile::pcr(mb, concurrent);
        let off = run_once(&profile, 1, false, scale);
        let on = run_once(&profile, 1, true, scale);
        table.row(vec![
            format!("{mb} MB live"),
            if concurrent {
                "yes (+live data during test)"
            } else {
                "no"
            }
            .into(),
            format!("{:.1}%", 100.0 * off.fraction_retained()),
            format!("{:.1}%", 100.0 * on.fraction_retained()),
        ]);
    }
    println!("PCR Program T (12500 x 8-byte cells, finalization accounting), scale 1/{scale}\n");
    println!("{table}");
    println!("Paper: retention bands held across 1.5-13 MB worlds and across runs");
    println!("\"with concurrently running Cedar clients\" (one added 13 MB of live");
    println!("data during the test) — \"this seemed to produce minimal variation\".");
}

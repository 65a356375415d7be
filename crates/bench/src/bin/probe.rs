//! Single-row Table-1 probe: runs Program T at full scale on one platform
//! profile, both blacklisting toggles, for the given seeds. The
//! calibration tool behind the numbers in EXPERIMENTS.md.
//!
//! Usage: `probe [sparc_static|sparc_dynamic|sgi|os2|pcr] [seed...]` —
//! the row defaults to `sparc_static`, the seeds to 1 2.

use gc_analysis::table1;
use gc_bench::{finish_args, take_positional};
use gc_platforms::Profile;

/// The platform profile behind a Table-1 row name.
fn profile(row: &str) -> Option<Profile> {
    Some(match row {
        "sparc_static" => Profile::sparc_static(false),
        "sparc_dynamic" => Profile::sparc_dynamic(false),
        "sgi" => Profile::sgi(false),
        "os2" => Profile::os2(false),
        "pcr" => Profile::pcr(4, false),
        _ => return None,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let row = match args.first() {
        Some(a) if profile(a).is_some() => args.remove(0),
        _ => "sparc_static".to_string(),
    };
    let mut seeds = Vec::new();
    while let Some(seed) = take_positional::<u64>(&mut args) {
        seeds.push(seed);
    }
    finish_args(
        &args,
        "Usage: probe [sparc_static|sparc_dynamic|sgi|os2|pcr] [seed...]",
    );
    if seeds.is_empty() {
        seeds = vec![1, 2];
    }
    let profile = profile(&row).expect("row was checked above");
    for &seed in &seeds {
        let off = table1::run_once(&profile, seed, false, 1);
        let on = table1::run_once(&profile, seed, true, 1);
        println!(
            "{row} seed {seed}: no-bl {:.1}%  bl {:.1}%  (bl pages {})",
            100.0 * off.fraction_retained(),
            100.0 * on.fraction_retained(),
            on.blacklist_pages
        );
    }
}

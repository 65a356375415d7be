//! Command-line parsing. Anything the benchmark does not understand is an
//! error: an unknown flag, an unknown workload, a missing or non-numeric
//! value. Nothing runs unless the whole command line parses.

use crate::Workload;

pub const USAGE: &str = "usage: perfbench --workload <gcbench|program_t|cache_churn> --seed <u64> \
[--seconds <1..=600>] [--trace <0|1>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        *slot = Some(it.next().ok_or(format!("{flag} needs a value"))?);
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = Workload::from_name(&workload).ok_or(format!(
        "unknown workload `{workload}` (expected gcbench, program_t or cache_churn)"
    ))?;
    let seed = seed.ok_or("--seed is required")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed must be a non-negative integer, got `{seed}`"))?;
    let seconds = match seconds {
        None => 10,
        Some(s) => match s.parse::<u64>() {
            Ok(n @ 1..=600) => n,
            _ => {
                return Err(format!(
                    "--seconds must be an integer in 1..=600, got `{s}`"
                ))
            }
        },
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, got `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_full_command_line() {
        let a = parse_str("--workload cache_churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::CacheChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let b = parse_str("--seed 7 --workload gcbench").unwrap();
        assert_eq!(
            (b.workload, b.seconds, b.trace),
            (Workload::GcBench, 10, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--help",
            "--workload gcbench",
            "--workload nope --seed 1",
            "--workload gcbench --seed",
            "--workload gcbench --seed x1",
            "--workload gcbench --seed -1",
            "--workload gcbench --seed 1 --seconds 0",
            "--workload gcbench --seed 1 --trace 2",
            "--workload gcbench --seed 1 --seed 2",
            "--workload gcbench --seed 1 extra",
            "--workload=gcbench --seed=1",
        ] {
            assert!(parse_str(bad).is_err(), "accepted `{bad}`");
        }
    }
}

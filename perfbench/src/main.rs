//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Prints the run's configuration and each metric on its own line, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans under `traces/` in the
//! package directory. Exits 1 when any operation failed, after printing
//! the result.

use perfbench::{cli, clock, report, run, RunResult, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The configuration every report records.
fn header(workload: Workload, seed: u64, seconds: u64, trace: bool, r: &RunResult) -> String {
    let pauses: usize = r.plain.iter().map(|t| t.pauses.len()).sum();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"nproc\":{},\"config\":{},\"probe_reference_ms\":{},\"setups\":{},\"untraced_trials\":{},\"traced_trials\":{},\"pause_samples\":{pauses}}}",
        workload.name(),
        nproc(),
        workload.pins().to_json(),
        clock::PROBE_REFERENCE.as_millis(),
        r.setups.len(),
        r.plain.len(),
        r.traced.len(),
    )
}

fn write_spans(
    workload: Workload,
    seed: u64,
    header: &str,
    r: &RunResult,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    let spans = r
        .traced
        .last()
        .and_then(|t| t.spans.as_deref())
        .unwrap_or("");
    std::fs::write(&path, format!("{header}\n{spans}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let r = match run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = header(args.workload, args.seed, args.seconds, args.trace, &r);
    println!("{header}");
    if args.trace {
        match write_spans(args.workload, args.seed, &header, &r) {
            Ok(path) => println!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (i, t) in r.plain.iter().chain(&r.traced).enumerate() {
        println!(
            "trial {i}: traced={} wall_s={:.4} cpu_s={:.4} probe_ms={:.3} ops_per_s={:.0} gc_wall_s={:.4} gc_cpu_s={:.4} gc_s={:.4} collections={} peak_pages={} retained_bytes={}",
            !t.layers.is_empty(),
            t.run_time.as_secs_f64(),
            t.run_cpu.as_secs_f64(),
            t.probe.as_secs_f64() * 1e3,
            report::ops_per_s(t),
            t.pauses.iter().sum::<Duration>().as_secs_f64(),
            t.pause_cpu.iter().sum::<Duration>().as_secs_f64(),
            report::pauses(t).sum::<Duration>().as_secs_f64(),
            t.pauses.len(),
            t.peak_pages,
            t.retained_bytes
        );
    }
    let metrics = report::metrics(&r, args.trace);
    for (def, value) in &metrics {
        println!("{:<32} {value:>16.4} {}", def.name, def.unit);
    }
    println!("{}", report::result_json(&r, &metrics));
    let (_, failed) = report::totals(&r);
    if failed > 0 {
        eprintln!("perfbench: {failed} operations failed their checks");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

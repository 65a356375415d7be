//! The command line runs nothing unless it parses, and a run prints every
//! metric of its table, ending with the one-line JSON result.

use perfbench::report::{END_TO_END, PER_LAYER};
use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn bad_command_lines_exit_nonzero_without_running() {
    for args in [
        &["--help"][..],
        &["--workload", "gcbench"],
        &["--workload", "gc_bench", "--seed", "1"],
        &["--workload", "gcbench", "--seed", "one"],
        &["--workload", "gcbench", "--seed", "1", "--verbose"],
        &["--workload", "gcbench", "--seed", "1", "--trace", "yes"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

/// The metric names a `BENCHMARK.json` list declares, in order.
fn declared(json: &str, list: &str) -> Vec<String> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |t: &[perfbench::report::MetricDef]| {
        t.iter().map(|d| d.name.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(declared(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(PER_LAYER));
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

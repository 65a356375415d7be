//! The benchmark binaries reject arguments they do not understand, before
//! running anything: `--help` prints the usage and exits 0, and any
//! leftover argument exits 2.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

const BINS: [&str; 4] = [
    env!("CARGO_BIN_EXE_gcbench"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_incremental_pauses"),
    env!("CARGO_BIN_EXE_queue_growth"),
];

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("Usage: "), "{bin} {flag}: {stdout}");
            assert_eq!(stdout.lines().count(), 1, "{bin} {flag} ran: {stdout}");
        }
    }
}

#[test]
fn unknown_arguments_exit_two_before_running() {
    let cases: [(&str, &[&str]); 6] = [
        (BINS[0], &["--bogus"]),
        (BINS[0], &["--mark-threads", "4", "clasic"]),
        (BINS[1], &["40", "one"]),
        (BINS[1], &["0"]),
        (BINS[2], &["extra"]),
        (BINS[3], &["--json=x.json", "--verbose"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before rejecting");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognised argument"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(stderr.contains("Usage: "), "{bin} {args:?}: {stderr}");
    }
}

//! Every workload reports every metric of its table: end-to-end metrics
//! untraced, per-layer metrics (with the tracing overhead) traced.

use perfbench::report::{metrics, result_json, END_TO_END, PER_LAYER};
use perfbench::{run, Scale, Workload};

#[test]
fn every_workload_reports_every_metric() {
    for w in [Workload::GcBench, Workload::ProgramT, Workload::CacheChurn] {
        let r = run(w, 5, 1, true, Scale::Small).expect("runs");
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let m = metrics(&r, traced);
            assert_eq!(m.len(), table.len());
            let line = result_json(&r, &m);
            assert!(
                line.starts_with("{\"correct\":true,"),
                "{}: {line}",
                w.name()
            );
            for def in table {
                let key = format!("\"{}\":{{\"value\":", def.name);
                assert!(line.contains(&key), "{} lacks {}", w.name(), def.name);
            }
        }
        let e2e = metrics(&r, false);
        for (def, value) in &e2e {
            assert!(*value > 0.0, "{}: {} is {value}", w.name(), def.name);
        }
    }
}

//! Regenerates the **§4 queue experiment**: one false reference makes an
//! uncleared queue grow without bound; clearing the link on dequeue bounds
//! the damage to a single node.

use gc_analysis::TextTable;
use gc_bench::{finish_args, json_array, json_object, json_str, JsonOut};
use gc_platforms::{BuildOptions, Profile};
use gc_workloads::{QueueRun, StreamRun};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    finish_args(&args, "Usage: queue_growth [--json <path>]");
    let mut queue_metrics: Vec<String> = Vec::new();
    let mut table = TextTable::new(vec![
        "Configuration".into(),
        "Live window".into(),
        "Peak live".into(),
        "Final live".into(),
    ]);
    let configs = [
        (
            "clean (no false ref)",
            QueueRun {
                false_ref_at: None,
                ..QueueRun::paper(false)
            },
        ),
        ("false ref, links kept", QueueRun::paper(false)),
        ("false ref, links cleared", QueueRun::paper(true)),
    ];
    for (label, config) in configs {
        let mut m = Profile::synthetic().build(BuildOptions::default()).machine;
        let r = config.run(&mut m);
        table.row(vec![
            label.into(),
            r.window.to_string(),
            r.max_live_objects.to_string(),
            r.final_live_objects.to_string(),
        ]);
        if json_out.enabled() {
            queue_metrics.push(json_object(&[
                ("configuration", json_str(label)),
                ("metrics", m.gc().metrics_json()),
            ]));
        }
    }
    println!("{}", table);

    let mut stream_table = TextTable::new(vec![
        "Lazy-list configuration".into(),
        "Peak live".into(),
        "Final live".into(),
    ]);
    let stream_configs = [
        (
            "clean (no false ref)",
            StreamRun {
                false_ref_at: None,
                ..StreamRun::paper(false)
            },
        ),
        ("false ref, memoized links kept", StreamRun::paper(false)),
        (
            "false ref, links severed on advance",
            StreamRun::paper(true),
        ),
    ];
    for (label, config) in stream_configs {
        let mut m = Profile::synthetic().build(BuildOptions::default()).machine;
        let r = config.run(&mut m);
        stream_table.row(vec![
            label.into(),
            r.max_live_cells.to_string(),
            r.final_live_cells.to_string(),
        ]);
    }
    println!("{stream_table}");
    println!("Paper (§4): \"queues and lazy lists in particular have the problem");
    println!("that they grow without bound, but typically only a section of");
    println!("bounded length is accessible at any point\"; clearing/severing the");
    println!("link when an item is consumed restores the bound.");
    let document = json_object(&[
        ("benchmark", json_str("queue_growth")),
        ("queue_results", table.to_json()),
        ("stream_results", stream_table.to_json()),
        ("queue_metrics", json_array(&queue_metrics)),
    ]);
    json_out.write(&document).expect("write JSON report");
}

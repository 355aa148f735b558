//! End-to-end tests for `encore-detect`'s one-shot observability outputs:
//! the `--bench-json` perf record and the `--trace-out` Chrome trace.

use encore::obs::PipelineReport;
use std::process::{Command, Output, Stdio};

fn encore_detect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_encore-detect"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("failed to spawn encore-detect")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn bench_json_writes_a_parseable_perf_record() {
    let path = std::env::temp_dir().join("encore-detect-test-bench.json");
    let out = encore_detect(&[
        "--train",
        "10",
        "--targets",
        "4",
        "--bench-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{}", stdout(&out));
    let record =
        PipelineReport::parse_json(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    assert_eq!(record.phases.len(), 1);
    assert_eq!(record.phases[0].name, "bench");
    let counters = record.counters();
    // Image collection covers both the training fleet and the targets.
    assert_eq!(counters["bench.images.collected"], 14);
    assert_eq!(counters["bench.targets.checked"], 4);
    let gauges: std::collections::BTreeMap<_, _> = record.phases[0]
        .gauges
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();
    assert!(gauges.contains_key("bench.profile.release"));
    assert!(gauges.contains_key("bench.throughput.pairs_per_sec"));
}

#[test]
fn trace_out_writes_a_loadable_chrome_trace() {
    let path = std::env::temp_dir().join("encore-detect-test-trace.json");
    let _ = std::fs::remove_file(&path);
    let out = encore_detect(&[
        "--train",
        "10",
        "--targets",
        "4",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{}", stdout(&out));
    let text = std::fs::read_to_string(&path).expect("trace written");
    let parsed = encore::obs::json::parse(&text).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(encore::obs::json::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(encore::obs::json::Json::as_str))
        .collect();
    for phase in ["collect", "assemble", "infer", "stats", "filter", "detect"] {
        assert!(
            names.contains(&format!("phase:{phase}").as_str()),
            "missing phase lane for {phase} in {names:?}"
        );
    }
    for event in events {
        assert_eq!(
            event.get("ph").and_then(encore::obs::json::Json::as_str),
            Some("X")
        );
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
    }
    let _ = std::fs::remove_file(&path);
}

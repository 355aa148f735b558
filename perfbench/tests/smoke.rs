//! Tiny-size runs of every workload, and the served-reply verification.

use encore_serve::{CheckReply, Client};
use perfbench::check;
use perfbench::report::Tally;
use perfbench::serve;
use perfbench::trace::Tracer;
use perfbench::train;
use perfbench::workload::{Inputs, Workload, NAMES};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The value of `"key": "<value>"` inside one JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let rest = &object[object.find(&format!("\"{key}\""))?..];
    let rest = &rest[rest.find(':')? + 1..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let list = &text[start..];
    let list = &list[..list.find(']').expect("metric list closes")];
    list.split('}')
        .filter_map(|object| {
            Some((
                field(object, "name")?.to_string(),
                field(object, "unit")?.to_string(),
            ))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: bool) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.02"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_smoke(workload: &str, trace: bool) {
    let line = run_tiny(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = declared_metrics(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let unit_text = format!(", \"unit\": \"{unit}\"}}");
        let end = rest
            .find(&unit_text)
            .unwrap_or_else(|| panic!("{workload}: {name} lacks unit {unit}"));
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in NAMES {
        assert_smoke(workload, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in NAMES {
        assert_smoke(workload, true);
    }
}

#[test]
fn a_tampered_reply_body_counts_as_failed() {
    let workload = Workload::named("serve-batch", 0.02).expect("known workload");
    let inputs = Inputs::generate(&workload, 3).expect("inputs");
    let trained: Vec<_> = inputs
        .training
        .iter()
        .map(|(app, images)| train::train(*app, images).expect("trains"))
        .collect();
    let dir = repo_root()
        .join("perfbench/out")
        .join(format!("tamper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut served =
        serve::start(&dir, &trained, false, &mut Tracer::new()).expect("server starts");
    let apache = trained
        .iter()
        .position(|t| t.app == inputs.fleets[0].app)
        .expect("apache trained");
    let refs =
        vec![check::reference(&served.loaded[apache], &inputs.fleets[0]).expect("references")];
    let plan = serve::plan(&workload.traffic, &inputs.fleets);
    let planned = &plan[0][0];
    let encore_serve::Request::Check { app, targets } = &planned.request else {
        panic!("plans hold check requests");
    };
    let mut client = Client::connect(served.server.socket()).expect("connects");
    let reply = client.check(app, targets).expect("served");
    let CheckReply::Reports(mut reports) = reply.clone() else {
        panic!("not busy");
    };

    let mut tally = Tally::default();
    tally.check(serve::verify_reply(Ok(reply), planned, &refs).map(|_| ()));
    reports[0].1.push(' ');
    tally.check(serve::verify_reply(Ok(CheckReply::Reports(reports)), planned, &refs).map(|_| ()));
    tally.check(serve::verify_reply(Ok(CheckReply::Busy), planned, &refs).map(|_| ()));
    served.server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!((tally.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
}

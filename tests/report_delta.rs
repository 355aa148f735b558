//! Report deltas and the watched-directory target source, end to end: a
//! report diffed against itself is empty, a perturbed counter trips the
//! default policy with a violation naming the metric and its gate,
//! counter/histogram sections never differ across worker counts, and
//! `encore-serve` poll ticks re-check only added/changed watched targets
//! while appending one parseable heartbeat report per tick.

use encore::obs;
use encore::obs::{DeltaPolicy, PipelineReport, ReportDelta};
use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_serve::{ServeOptions, Server, SnapshotRegistry};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The observability sink and its metric statics are process-global;
/// every test in this binary toggles or reads them, so they serialize on
/// this gate (the harness runs tests on parallel threads).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Train on a small MySQL fleet and re-check it, returning the full
/// pipeline report for the run.  Callers hold the gate.
fn instrumented_run(workers: usize) -> PipelineReport {
    obs::reset();
    obs::enable();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(15, 3));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let detector = EnCore::learn(
        &training,
        &LearnOptions {
            workers: Some(workers),
            ..LearnOptions::default()
        },
    )
    .into_detector();
    let _ = detector.check_fleet(
        AppKind::Mysql,
        pop.images(),
        &FleetOptions {
            workers: Some(workers),
        },
    );
    let report = obs::pipeline_report();
    obs::disable();
    report
}

/// A unique, cleaned-up temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn self_diff_is_empty_and_passes_the_default_policy() {
    let _gate = gate();
    let report = instrumented_run(2);
    assert!(
        report.counters().values().any(|&v| v > 0),
        "the run recorded work"
    );
    let delta = ReportDelta::diff(&report, &report);
    assert!(delta.is_empty(), "self-diff: {}", delta.render_text());
    assert_eq!(delta.render_text(), "== report delta: no differences ==\n");
    assert!(DeltaPolicy::default().violations(&delta).is_empty());
}

#[test]
fn perturbed_counter_violation_names_the_metric_and_gate() {
    let _gate = gate();
    let base = instrumented_run(2);
    let mut current = base.clone();
    let (name, value) = {
        let phase = &mut current.phases[2]; // infer
        let counter = phase
            .counters
            .iter_mut()
            .find(|(name, _)| name == "infer.pairs.evaluated")
            .expect("infer.pairs.evaluated present");
        counter.1 += 1;
        counter.clone()
    };
    let delta = ReportDelta::diff(&base, &current);
    assert_eq!(delta.counters.len(), 1, "{}", delta.render_text());
    assert_eq!(delta.counters[0].name, name);
    assert_eq!(delta.counters[0].current, Some(value));

    let violations = DeltaPolicy::default().violations(&delta);
    assert_eq!(violations.len(), 1, "exact gate trips on the counter");
    let rendered = violations[0].to_string();
    assert!(rendered.contains(&name), "{rendered}");
    assert!(rendered.contains("exact"), "{rendered}");
}

#[test]
fn worker_count_never_changes_counters_or_histograms() {
    let _gate = gate();
    let reference = instrumented_run(1);
    for workers in [2usize, 4] {
        let report = instrumented_run(workers);
        let delta = ReportDelta::diff(&reference, &report);
        assert!(
            delta.counters.is_empty(),
            "workers={workers}: counter deltas\n{}",
            delta.render_text()
        );
        assert!(
            delta.histograms.is_empty(),
            "workers={workers}: histogram deltas\n{}",
            delta.render_text()
        );
        // Gauges and timers (worker load, wall time) may differ; the
        // default policy treats them as informational.
        assert!(DeltaPolicy::default().violations(&delta).is_empty());
    }
}

/// Serve a detector trained on a small MySQL fleet from
/// `dir/mysql.snap` and watch `dir` itself (the snapshot is not a
/// target).  Ticks happen only through [`Server::poll_now`]; each appends
/// one heartbeat line to `dir/.heartbeat.jsonl`.
fn watch_server(dir: &Path) -> Server {
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(12, 7));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let detector = EnCore::learn(&training, &LearnOptions::default()).into_detector();
    let snapshot = dir.join("mysql.snap");
    std::fs::write(&snapshot, detector.snapshot().render()).expect("write snapshot");
    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &snapshot)
        .expect("snapshot loads");
    let mut options = ServeOptions::new(dir.join(".serve.sock"));
    options.poll_interval = Duration::from_secs(600);
    options.heartbeat_path = Some(dir.join(".heartbeat.jsonl"));
    options.watch = vec![("mysql".to_string(), dir.to_path_buf())];
    Server::start(registry, options).expect("server starts")
}

fn labels(reports: &[(String, String)]) -> Vec<&str> {
    reports.iter().map(|(label, _)| label.as_str()).collect()
}

/// The heartbeat lines written so far, parsed.
fn heartbeat(dir: &Path) -> Vec<PipelineReport> {
    let text = std::fs::read_to_string(dir.join(".heartbeat.jsonl")).expect("heartbeat written");
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            obs::json::parse(line).unwrap_or_else(|e| panic!("line {}: {e:?}", i + 1));
            PipelineReport::parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1))
        })
        .collect()
}

#[test]
fn watch_cycles_recheck_only_changed_targets_and_emit_jsonl() {
    let _gate = gate();
    let dir = scratch_dir("watch-jsonl");
    std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(
        dir.join("b.cnf"),
        "[mysqld]\nport = 3307\nskip-networking\n",
    )
    .unwrap();
    // Neither dotfiles nor subdirectories are targets.
    std::fs::write(dir.join(".hidden.cnf"), "[mysqld]\nport = 1\n").unwrap();
    std::fs::create_dir(dir.join("conf.d")).unwrap();
    std::fs::write(dir.join("conf.d/c.cnf"), "[mysqld]\nport = 2\n").unwrap();

    obs::reset();
    obs::enable();
    let mut server = watch_server(&dir);
    assert_eq!(
        labels(&server.poll_now()),
        ["mysql/a.cnf", "mysql/b.cnf"],
        "both new targets checked; snapshot, dotfile, subdirectory are not"
    );
    std::fs::write(
        dir.join("b.cnf"),
        "[mysqld]\nport = 3307\nskip-networking\nmax_connections = 100\n",
    )
    .unwrap();
    assert_eq!(
        labels(&server.poll_now()),
        ["mysql/b.cnf"],
        "only the changed target re-checks"
    );
    assert!(server.poll_now().is_empty(), "quiet tick re-checks nothing");
    server.stop();
    obs::disable();

    let ticks = heartbeat(&dir);
    assert_eq!(ticks.len(), 3, "one JSONL line per tick");
    let column = |name: &str| -> Vec<u64> { ticks.iter().map(|r| r.counters()[name]).collect() };
    assert_eq!(column("serve.checks"), [1, 1, 0], "one batch per busy tick");
    assert_eq!(column("serve.targets_checked"), [2, 1, 0]);
    assert_eq!(column("detect.fleet.systems"), [2, 1, 0]);
    assert_eq!(column("serve.requests"), [0, 0, 0], "no socket traffic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_detects_same_size_rewrite_with_preserved_mtime() {
    let _gate = gate();
    let dir = scratch_dir("watch-same-size");
    let target = dir.join("a.cnf");
    std::fs::write(&target, "[mysqld]\nport = 3306\n").unwrap();

    let mut server = watch_server(&dir);
    assert_eq!(labels(&server.poll_now()), ["mysql/a.cnf"]);
    let mtime = std::fs::metadata(&target).unwrap().modified().unwrap();

    // Same byte length, different contents, original mtime restored: the
    // metadata signature is identical, so only the content fingerprint can
    // flag the rewrite.  Regression for missing in-place same-size edits
    // within the filesystem's mtime granularity.
    std::fs::write(&target, "[mysqld]\nport = 3307\n").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&target)
        .unwrap()
        .set_modified(mtime)
        .unwrap();
    assert_eq!(
        labels(&server.poll_now()),
        ["mysql/a.cnf"],
        "the rewritten target re-checks"
    );
    assert!(server.poll_now().is_empty());
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_quiet_cycles_produce_identical_counter_sections() {
    let _gate = gate();
    let dir = scratch_dir("watch-quiet");
    std::fs::write(dir.join("only.cnf"), "[mysqld]\nport = 3306\n").unwrap();

    obs::reset();
    obs::enable();
    let mut server = watch_server(&dir);
    for _ in 0..3 {
        server.poll_now();
    }
    server.stop();
    obs::disable();

    // Each tick's heartbeat must cover only that tick: were the lines
    // cumulative, the second quiet tick would read higher than the first.
    let ticks = heartbeat(&dir);
    let (quiet_a, quiet_b) = (&ticks[1], &ticks[2]);
    assert_eq!(quiet_a.counters(), quiet_b.counters());
    assert_eq!(ticks[0].counters()["serve.targets_checked"], 1);
    assert_eq!(quiet_a.counters()["serve.targets_checked"], 0);
    let delta = ReportDelta::diff(quiet_a, quiet_b);
    assert!(delta.counters.is_empty(), "{}", delta.render_text());
    assert!(delta.histograms.is_empty(), "{}", delta.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

//! Live telemetry end to end over `encore-serve` watching a directory:
//! `/readyz` tracking snapshot hot-reload health while the old detector
//! keeps checking watched targets, monotone Prometheus scrapes, and the
//! guarantee that a concurrent scraper never changes the heartbeat JSONL.

use encore::obs;
use encore::obs::expose;
use encore::obs::PipelineReport;
use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_serve::{ServeOptions, Server, SnapshotRegistry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The observability sink and its metric statics are process-global;
/// every test in this binary toggles or reads them, so they serialize on
/// this gate (the harness runs tests on parallel threads).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_detector() -> AnomalyDetector {
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(12, 7));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    EnCore::learn(&training, &LearnOptions::default()).into_detector()
}

/// Serve a small mysql detector from `dir/mysql.snap` and watch `dir`
/// itself (the snapshot is not a target).  The poll interval is far
/// beyond any test, so ticks happen only through [`Server::poll_now`];
/// each tick appends one heartbeat line to `dir/.heartbeat.jsonl`.
fn watch_server(dir: &Path) -> Server {
    let snapshot = dir.join("mysql.snap");
    std::fs::write(&snapshot, small_detector().snapshot().render()).expect("write snapshot");
    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &snapshot)
        .expect("snapshot loads");
    let mut options = ServeOptions::new(dir.join(".serve.sock"));
    options.workers = Some(1);
    options.poll_interval = Duration::from_secs(600);
    options.heartbeat_path = Some(dir.join(".heartbeat.jsonl"));
    options.metrics_addr = Some("127.0.0.1:0".to_string());
    options.watch = vec![("mysql".to_string(), dir.to_path_buf())];
    Server::start(registry, options).expect("server starts")
}

fn labels(reports: &[(String, String)]) -> Vec<&str> {
    reports.iter().map(|(label, _)| label.as_str()).collect()
}

/// One raw HTTP/1.0 GET: returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of an exposition sample (no labels), e.g.
/// `sample_value(&text, "encore_serve_checks_total")`.
fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(|v| v.parse().expect("sample value parses"))
    })
}

#[test]
fn readyz_flips_on_failed_hot_reload_while_the_old_detector_serves() {
    let _gate = gate();
    obs::reset();
    encore_serve::obs::reset();
    obs::enable();
    let dir = scratch_dir("telemetry-readyz");
    let target = dir.join("a.cnf");
    std::fs::write(&target, "[mysqld]\nport = 3306\n").unwrap();
    let mut server = watch_server(&dir);
    let metrics = server.metrics_addr().expect("metrics enabled");
    let snapshot_path = dir.join("mysql.snap");
    let good_snapshot = std::fs::read_to_string(&snapshot_path).unwrap();
    let old = AnomalyDetector::from_snapshot(DetectorSnapshot::parse(&good_snapshot).unwrap());

    let (status, body) = http_get(metrics, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "mysql ready\n");
    assert_eq!(labels(&server.poll_now()), ["mysql/a.cnf"]);

    // A bad deploy: the snapshot file is replaced with garbage.  The
    // server keeps checking with the old detector but advertises
    // not-ready so an orchestrator stops routing new work to it.
    std::fs::write(&snapshot_path, "not a snapshot at all\n").unwrap();
    let changed = "[mysqld]\nport = 3307\nold_unknown_key = 1\n";
    std::fs::write(&target, changed).unwrap();
    let second = server.poll_now();
    assert_eq!(labels(&second), ["mysql/a.cnf"], "the old detector serves");
    let image = encore::watch::target_image(AppKind::Mysql, "a.cnf", changed);
    let expected = old.check_fleet(AppKind::Mysql, &[image], &FleetOptions::default())[0]
        .as_ref()
        .expect("assembles")
        .render();
    assert_eq!(second[0].1, expected, "checked with the previous rules");
    let (status, body) = http_get(metrics, "/readyz");
    assert!(status.contains("503"), "{status}");
    assert_eq!(body, "mysql not-ready\n");

    // Nothing changed on disk: no retry storm, nothing re-checked, still
    // not ready.
    assert!(server.poll_now().is_empty());
    let (status, _) = http_get(metrics, "/readyz");
    assert!(status.contains("503"), "not-ready latches: {status}");

    // The fixed deploy lands: ready again, and every target re-checks
    // under the new rules.
    std::fs::write(&snapshot_path, format!("{good_snapshot}\n# fixed\n")).unwrap();
    assert_eq!(labels(&server.poll_now()), ["mysql/a.cnf"]);
    let (status, _) = http_get(metrics, "/readyz");
    assert!(
        status.contains("200"),
        "recovery flips ready back: {status}"
    );
    assert_eq!(encore_serve::obs::SNAPSHOT_RELOADS.get(), 1);
    assert_eq!(encore_serve::obs::RELOAD_FAILURES.get(), 1);
    server.stop();
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prometheus_scrapes_of_a_running_watcher_are_monotone() {
    let _gate = gate();
    obs::reset();
    obs::enable();
    let dir = scratch_dir("telemetry-scrape");
    std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(dir.join("b.cnf"), "[mysqld]\nport = 3307\n").unwrap();
    let mut server = watch_server(&dir);
    let metrics = server.metrics_addr().expect("metrics enabled");

    let mut last_checked = 0.0;
    let mut last_systems = 0.0;
    // Round 2 changes one target; rounds 1 and 3 add two and none.
    for (round, want_checked) in [(1, 2.0), (2, 3.0), (3, 3.0)] {
        if round == 2 {
            std::fs::write(dir.join("b.cnf"), "[mysqld]\nport = 3308\n").unwrap();
        }
        server.poll_now();
        let (_, scrape) = http_get(metrics, "/metrics");
        expose::validate(&scrape).unwrap_or_else(|e| panic!("scrape {round}: {e}"));
        let checked =
            sample_value(&scrape, "encore_serve_targets_checked_total").expect("targets sample");
        let systems =
            sample_value(&scrape, "encore_detect_fleet_systems_total").expect("fleet sample");
        assert_eq!(checked, want_checked, "round {round}");
        assert!(
            checked >= last_checked && systems >= last_systems,
            "monotone"
        );
        assert_eq!(
            systems, checked,
            "every watched target went through check_fleet"
        );
        (last_checked, last_systems) = (checked, systems);
    }
    assert_eq!(
        server
            .stats()
            .targets_checked
            .load(std::sync::atomic::Ordering::Relaxed),
        3,
        "the stats verb reads the same numbers"
    );
    server.stop();
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run a fixed three-tick watch script (add two targets, change one,
/// quiet tick) and return the parsed heartbeat lines.  When `scrape` is
/// set, a scraper thread hammers `/metrics` for the whole run — which
/// must not perturb the per-tick reports.
fn watch_script(tag: &str, scrape: bool) -> Vec<PipelineReport> {
    obs::reset();
    obs::enable();
    let dir = scratch_dir(tag);
    std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(dir.join("b.cnf"), "[mysqld]\nport = 3307\n").unwrap();
    let mut server = watch_server(&dir);
    let metrics = server.metrics_addr().expect("metrics enabled");
    let done = Arc::new(AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut scrapes = 0u32;
            while !done.load(Ordering::Relaxed) || scrapes == 0 {
                let (_, body) = http_get(metrics, "/metrics");
                expose::validate(&body).expect("concurrent scrape validates");
                scrapes += 1;
            }
            scrapes
        })
    });

    server.poll_now();
    std::fs::write(
        dir.join("b.cnf"),
        "[mysqld]\nport = 3307\nmax_connections = 100\n",
    )
    .unwrap();
    server.poll_now();
    server.poll_now();
    done.store(true, Ordering::Relaxed);
    if let Some(scraper) = scraper {
        assert!(scraper.join().expect("scraper thread") > 0);
    }
    server.stop();
    obs::disable();

    let heartbeat = std::fs::read_to_string(dir.join(".heartbeat.jsonl")).expect("heartbeat");
    let reports = heartbeat
        .lines()
        .map(|line| PipelineReport::parse_json(line).expect("line parses"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

#[test]
fn concurrent_scraping_never_changes_the_jsonl_reports() {
    let _gate = gate();
    let plain = watch_script("telemetry-jsonl-plain", false);
    let scraped = watch_script("telemetry-jsonl-scraped", true);
    assert_eq!(plain.len(), 3);
    assert_eq!(scraped.len(), 3);
    // Counters and work histograms are deterministic per tick; timers,
    // gauges and the µs latency histograms are wall-clock noise even
    // between two plain runs.
    let work_histograms = |report: &PipelineReport| {
        let mut histograms = report.histograms();
        histograms.retain(|name, _| !name.ends_with("_us"));
        histograms
    };
    for (tick, (p, s)) in plain.iter().zip(&scraped).enumerate() {
        assert_eq!(
            p.counters(),
            s.counters(),
            "tick {}: scraping changed the counter section",
            tick + 1
        );
        assert_eq!(
            work_histograms(p),
            work_histograms(s),
            "tick {}: scraping changed the histogram section",
            tick + 1
        );
    }
    let targets: Vec<u64> = plain
        .iter()
        .map(|r| r.counters()["serve.targets_checked"])
        .collect();
    assert_eq!(targets, [2, 1, 0]);
}

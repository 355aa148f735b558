//! One benchmark run: set-up, the timed phase, verification, and (with
//! `--trace 1`) the traced phase that yields the per-layer metrics.

use crate::check::{self, Quality, Reference};
use crate::report::{self, check_counts, Counts, Metric, Outcome, Tally};
use crate::serve::{self, Planned, Served, Slice};
use crate::trace::Tracer;
use crate::train::{self, TrainTrace, Trained};
use crate::workload::{CheckPath, Fleet, Inputs, Workload, WORKERS};
use encore::AnomalyDetector;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Rounds of the timed phase, at least.
const MIN_ROUNDS: usize = 3;
/// Latency samples per run, at least: ten of 1100 lie beyond p99.
const MIN_SAMPLES: usize = 1100;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed traffic at the start of each served check slice, refilling the
/// caches the round's training passes evicted.
const SLICE_WARMUP: Duration = Duration::from_millis(100);
/// Requests of the untimed server warm-up.
const WARMUP_REQUESTS: usize = 50;
/// Targets per fleet split into assemble / check / render spans.
const TRACED_TARGETS: usize = 500;
/// Requests sent through the traced client, at least.
const TRACED_REQUESTS: usize = 400;
/// Traced training passes over each training set; the training layers'
/// figures are per-pass means, and coverage is taken over all of them.
const TRACED_PASSES: usize = 3;
/// Share of the traced training passes the named layers must cover.
const MIN_COVERAGE: f64 = 0.95;
/// Frames encoded and decoded by the protocol probe.
const PROTOCOL_SAMPLES: usize = 1000;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Input-size multiplier (1 for the benchmark, smaller for smoke tests).
    pub scale: f64,
}

/// Where snapshots, the server socket, recorded counts and traces go,
/// relative to the repository root the benchmark runs from.  Relative, so
/// the socket path stays short whatever the checkout's location.
const OUT: &str = "perfbench/out";

/// A per-process scratch directory under [`OUT`], removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = Path::new(OUT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Train every training set of the workload once, in order.
fn train_all(inputs: &Inputs) -> Result<Vec<Trained>, String> {
    inputs
        .training
        .iter()
        .map(|(app, images)| train::train(*app, images))
        .collect()
}

/// A training pass must reproduce the first pass exactly.
fn same_training(first: &Trained, again: &Trained) -> Result<(), String> {
    if again.rules != first.rules || again.stats != first.stats {
        return Err(format!(
            "{}: training pass learned a different rule set",
            first.app.name()
        ));
    }
    Ok(())
}

/// The trained app each fleet is checked against.
fn trained_index(trained: &[Trained], fleet: &Fleet) -> Result<usize, String> {
    trained
        .iter()
        .position(|t| t.app == fleet.app)
        .ok_or_else(|| format!("no training set for {}", fleet.app.name()))
}

/// What the traced phase compares against: the untraced primary time.
enum Baseline {
    TrainPassUs(f64),
    RoundTripUs(f64),
}

/// Everything the timed phase needs, built before any timer starts:
/// inputs, the first (reference) training pass, the server with its
/// snapshots, the reference reports, and a warmed-up serve path.
struct Setup {
    inputs: Inputs,
    trained: Vec<Trained>,
    /// Index into `trained` of each fleet's app.
    fleet_trained: Vec<usize>,
    served: Option<Served>,
    refs: Vec<Reference>,
    plan: Vec<Vec<Planned>>,
}

impl Setup {
    fn new(
        workload: &Workload,
        args: &Args,
        dir: &Path,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Setup, String> {
        let inputs = Inputs::generate(workload, args.seed)?;
        let trained = train_all(&inputs)?;
        let fleet_trained = inputs
            .fleets
            .iter()
            .map(|f| trained_index(&trained, f))
            .collect::<Result<Vec<_>, _>>()?;
        let served = match workload.path {
            CheckPath::Served => Some(serve::start(dir, &trained, args.trace, tracer)?),
            CheckPath::Direct => None,
        };
        let mut setup = Setup {
            plan: serve::plan(&workload.traffic, &inputs.fleets),
            inputs,
            trained,
            fleet_trained,
            served,
            refs: Vec::new(),
        };
        setup.refs = setup
            .inputs
            .fleets
            .iter()
            .zip(setup.detectors())
            .map(|(fleet, detector)| check::reference(detector, fleet))
            .collect::<Result<_, _>>()?;
        if let Some(s) = &setup.served {
            let warmup = serve::client_loop(
                s.server.socket(),
                &workload.traffic,
                &setup.plan,
                &setup.refs,
                Slice {
                    min_requests: WARMUP_REQUESTS,
                    ..Slice::default()
                },
                None,
            )?;
            tally.merge(warmup.tally);
        }
        Ok(setup)
    }

    /// The detector each fleet is checked with: the trained one on the
    /// direct path, the one parsed from the server's snapshot on the served
    /// path.
    fn detectors(&self) -> Vec<&AnomalyDetector> {
        self.fleet_trained
            .iter()
            .map(|&i| match &self.served {
                Some(s) => &s.loaded[i],
                None => &self.trained[i].detector,
            })
            .collect()
    }
}

/// Run one workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (unknown workload,
/// generator, server start).  Verification failures are reported in the
/// outcome instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = Workload::named(&args.workload, args.scale)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let run_dir = RunDir::create()?;
    let mut tally = Tally::default();

    // ---- set-up, repeated so that `setup_s` is a median; the last one
    // stays.  The previous one is dropped (server stopped) first.
    let mut setup_times = Vec::new();
    let mut last: Option<(Setup, Tracer)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        let mut tracer = Tracer::new();
        let setup = Setup::new(&workload, args, &run_dir.0, &mut tracer, &mut tally)?;
        setup_times.push(started.elapsed().as_secs_f64());
        last = Some((setup, tracer));
    }
    let (mut setup, mut tracer) = last.expect("at least one set-up");
    let setup_s = report::median(&setup_times);
    let detectors = setup.detectors();
    let (inputs, trained, refs) = (&setup.inputs, &setup.trained, &setup.refs);

    // ---- timed phase: rounds of training passes plus one check slice, so
    // every metric samples the whole run rather than one stretch of it.
    let total = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let (mut pass_s, mut latencies_ms) = (Vec::new(), Vec::new());
    // Targets in verified check results and the wall time of the check
    // calls or client loops that produced them, summed over the rounds.
    let (mut checked, mut check_s) = (0, 0.0);
    let mut cursor = 0;
    // A round starts only while at least half of it still fits, so a run
    // ends within half a round of `--seconds`.
    let (mut rounds, mut round) = (0, Duration::ZERO);
    while rounds < MIN_ROUNDS
        || timed.elapsed() + round / 2 < total
        || latencies_ms.len() < MIN_SAMPLES
    {
        let round_started = Instant::now();
        rounds += 1;
        for _ in 0..workload.passes {
            let t = Instant::now();
            let pass = train_all(inputs)?;
            pass_s.push(t.elapsed().as_secs_f64());
            for (first, again) in trained.iter().zip(&pass) {
                tally.check(same_training(first, again));
            }
        }
        match &setup.served {
            None => {
                let (targets, seconds) =
                    check::fleet_pass(&detectors, &inputs.fleets, refs, &mut tally);
                checked += targets;
                check_s += seconds;
                latencies_ms.extend(check::latency_slice(
                    &detectors,
                    &inputs.fleets,
                    refs,
                    workload.slice,
                    &mut cursor,
                    &mut tally,
                ));
            }
            Some(s) => {
                let slice = Slice {
                    warmup: SLICE_WARMUP,
                    budget: workload.slice,
                    min_requests: 0,
                    first: cursor,
                };
                let result = serve::client_loop(
                    s.server.socket(),
                    &workload.traffic,
                    &setup.plan,
                    refs,
                    slice,
                    None,
                )?;
                cursor += result.latencies_ms.len();
                checked += result.targets;
                check_s += result.wall_s;
                latencies_ms.extend(result.latencies_ms);
                tally.merge(result.tally);
            }
        }
        round = round.max(round_started.elapsed());
    }
    let targets_per_s = checked as f64 / check_s;
    let train_s = report::median(&pass_s);
    let peak_rss_mb = report::peak_rss_mb().unwrap_or(0.0);
    if report::beyond(&latencies_ms, 0.99) < 10 {
        tally.fail("fewer than 10 latency samples beyond p99");
    }

    // ---- verification: the snapshot-loaded and the trained detector give
    // the same reports on the evaluation fleets.
    for ((fleet, expected), &i) in inputs.fleets.iter().zip(refs).zip(&setup.fleet_trained) {
        let reloaded;
        let other = match &setup.served {
            Some(_) => &trained[i].detector,
            None => {
                let text = trained[i].detector.snapshot().render();
                let snapshot = encore::DetectorSnapshot::parse(&text)
                    .map_err(|e| format!("snapshot parse: {e}"))?;
                reloaded = AnomalyDetector::from_snapshot(snapshot);
                &reloaded
            }
        };
        match check::reference(other, fleet) {
            Ok(other) => check::verify_bodies(fleet, expected, &other.bodies, &mut tally),
            Err(e) => tally.fail(e),
        }
    }

    let mut quality = Quality::default();
    for (fleet, reference) in inputs.fleets.iter().zip(refs) {
        quality.add(Quality::of(fleet, reference));
    }
    let mut counts = base_counts(trained, inputs, &quality);

    let traced = if args.trace {
        let baseline = match workload.path {
            CheckPath::Served => Baseline::RoundTripUs(report::mean(&latencies_ms) * 1e3),
            CheckPath::Direct => Baseline::TrainPassUs(train_s * 1e6),
        };
        let traced = TracedPhase {
            workload: &workload,
            inputs,
            trained,
            detectors: &detectors,
            refs,
            run_dir: &run_dir.0,
            seconds: args.seconds,
        }
        .run(setup.served.as_ref(), &mut tracer, &mut tally, &mut counts)?;
        let (pass_us, unattributed_us) = train_attribution(&tracer, &traced.train);
        if unattributed_us > (1.0 - MIN_COVERAGE) * pass_us {
            tally.fail(format!(
                "named layers cover {:.3} of the traced training pass, below {MIN_COVERAGE}",
                1.0 - unattributed_us / pass_us
            ));
        }
        let trace_dir = Path::new(OUT).join("traces");
        let trace_path = trace_dir.join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&trace_dir).and_then(|()| tracer.write_jsonl(&trace_path))
        {
            eprintln!("perfbench: could not write {}: {e}", trace_path.display());
        }
        Some((baseline, traced))
    } else {
        None
    };

    // Keyed by the build, so that only runs of the same code are compared.
    let counted = report::build_id().and_then(|build| {
        let key = format!(
            "{}-seed{}-scale{}-{build}",
            workload.name, args.seed, args.scale
        );
        check_counts(&Path::new(OUT).join("counts"), &key, &counts)
    });
    tally.check(counted);

    let metrics = match &traced {
        Some((baseline, traced)) => per_layer_metrics(
            &tracer,
            traced,
            trained,
            &quality,
            baseline,
            &latencies_ms,
            &tally,
        ),
        None => {
            let m = |name, value, unit| Metric { name, value, unit };
            vec![
                m("setup_s", setup_s, "s"),
                m("train_s", train_s, "s"),
                m("check_targets_per_s", targets_per_s, "1/s"),
                m("latency_p50_ms", report::median(&latencies_ms), "ms"),
                m("recall", quality.recall(), "ratio"),
                m(
                    "false_alarms_per_clean_target",
                    quality.false_alarms_per_clean_target(),
                    "count",
                ),
                m("peak_rss_mb", peak_rss_mb, "MiB"),
            ]
        }
    };
    drop(detectors);
    if let Some(s) = &mut setup.served {
        s.server.stop();
    }
    eprintln!(
        "perfbench: {} seed {}: {} training passes, {} latency samples ({} beyond p99), nproc {}, workers {}",
        workload.name,
        args.seed,
        pass_s.len(),
        latencies_ms.len(),
        report::beyond(&latencies_ms, 0.99),
        nproc(),
        WORKERS
    );
    for reason in &tally.reasons {
        eprintln!("perfbench: FAILED: {reason}");
    }
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(Outcome {
        correct,
        tally,
        metrics,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The deterministic counts every run of one (workload, seed) must repeat.
fn base_counts(trained: &[Trained], inputs: &Inputs, quality: &Quality) -> Counts {
    let mut counts = Counts::new();
    for t in trained {
        let app = t.app.name();
        counts.insert(format!("{app}.systems"), t.systems as u64);
        counts.insert(format!("{app}.candidates"), t.stats.candidates as u64);
        counts.insert(format!("{app}.rules_kept"), t.stats.kept as u64);
    }
    let targets: usize = inputs.fleets.iter().map(|f| f.images.len()).sum();
    counts.insert("targets_checked".into(), targets as u64);
    counts.insert("seeded".into(), quality.seeded);
    counts.insert("seeded_detected".into(), quality.detected);
    counts.insert("clean_warnings".into(), quality.clean_warnings);
    for (kind, n) in WARNING_KINDS.iter().zip(quality.kinds) {
        counts.insert(format!("warnings.{kind}"), n);
    }
    counts
}

const WARNING_KINDS: [&str; 4] = ["unknown_entry", "correlation", "type", "suspicious_value"];

/// Inputs of the traced phase.
struct TracedPhase<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    trained: &'a [Trained],
    detectors: &'a [&'a AnomalyDetector],
    refs: &'a [Reference],
    run_dir: &'a Path,
    seconds: f64,
}

/// Numbers of the traced phase that are not span durations.
struct Traced {
    /// The obs sink's figures of the traced training passes, summed over
    /// the workload's training sets.
    train: TrainTrace,
    snapshot_bytes: usize,
    /// Mean client round trip of the traced requests, µs.
    rtt_us: f64,
    stages: ServerStages,
    /// `Server::stats()` of the served path: busy and error replies.
    busy: u64,
    errors: u64,
}

/// Mean server-side stage times (µs) of the traced requests, read from what
/// the server already exports: the queue-wait and request-duration
/// histograms, and the parse / respond fragments its slow-request capture
/// puts in the obs trace ring.
#[derive(Debug, Default)]
struct ServerStages {
    parse_us: f64,
    queue_us: f64,
    check_us: f64,
    respond_us: f64,
    queue_p50_us: f64,
    queue_p99_us: f64,
    check_p50_us: f64,
}

impl ServerStages {
    fn read() -> ServerStages {
        let hist_mean = |h: &encore_obs::Histogram| h.sum() as f64 / h.total().max(1) as f64;
        let (events, _) = encore_obs::trace::snapshot();
        let ring_mean = |name: &str| {
            let durations: Vec<f64> = events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.dur_micros as f64)
                .collect();
            report::mean(&durations)
        };
        let (queue, check) = (
            &encore_serve::obs::QUEUE_WAIT,
            &encore_serve::obs::REQUEST_DURATION,
        );
        ServerStages {
            parse_us: ring_mean("serve.slow.parse"),
            queue_us: hist_mean(queue),
            check_us: hist_mean(check),
            respond_us: ring_mean("serve.slow.respond"),
            queue_p50_us: queue.quantile(0.5),
            queue_p99_us: queue.quantile(0.99),
            check_p50_us: check.quantile(0.5),
        }
    }
}

impl TracedPhase<'_> {
    fn run(
        &self,
        served: Option<&Served>,
        tracer: &mut Tracer,
        tally: &mut Tally,
        counts: &mut Counts,
    ) -> Result<Traced, String> {
        encore::obs::enable();
        let mut train = TrainTrace::default();
        for _ in 0..TRACED_PASSES {
            for ((app, images), first) in self.inputs.training.iter().zip(self.trained) {
                let (again, layer) = train::train_traced(*app, images, tracer)?;
                tally.check(same_training(first, &again));
                for (name, n) in [
                    ("pairs_evaluated", layer.pairs_evaluated),
                    ("columns", layer.columns),
                ] {
                    let key = format!("{}.{name}", app.name());
                    if counts.insert(key.clone(), n).is_some_and(|old| old != n) {
                        tally.fail(format!("{key} differs between traced passes"));
                    }
                }
                train.add(&layer);
            }
        }
        check::traced_checks(
            self.detectors,
            &self.inputs.fleets,
            self.refs,
            TRACED_TARGETS,
            tracer,
            tally,
        );

        // The served path.  A direct workload starts a probe server with
        // its trained detectors and sends the fleets' config-only form.
        let probe: Served;
        let probe_fleets: Vec<Fleet>;
        let probe_refs: Vec<Reference>;
        let (s, fleets, refs) = match served {
            Some(s) => (s, &self.inputs.fleets[..], self.refs),
            None => {
                probe = serve::start(self.run_dir, self.trained, true, tracer)?;
                probe_fleets = self.inputs.fleets.iter().map(Fleet::config_only).collect();
                probe_refs = probe_fleets
                    .iter()
                    .map(|f| {
                        let i = trained_index(self.trained, f)?;
                        check::reference(&probe.loaded[i], f)
                    })
                    .collect::<Result<_, _>>()?;
                (&probe, &probe_fleets[..], &probe_refs[..])
            }
        };
        let plan = serve::plan(&self.workload.traffic, fleets);
        encore_serve::obs::reset();
        encore_obs::trace::start_recording(1 << 18);
        let serve_loop = serve::client_loop(
            s.server.socket(),
            &self.workload.traffic,
            &plan,
            refs,
            Slice {
                budget: Duration::from_secs_f64(self.seconds * 0.2),
                min_requests: TRACED_REQUESTS,
                ..Slice::default()
            },
            Some(tracer),
        )?;
        encore_obs::trace::stop_recording();
        let stages = ServerStages::read();
        tally.merge(serve_loop.tally);
        serve::protocol_probe(&plan, refs, PROTOCOL_SAMPLES, tracer, tally);
        encore::obs::disable();
        let stats = s.server.stats();
        Ok(Traced {
            busy: stats.rejected_busy.load(Ordering::Relaxed),
            errors: stats.errors.load(Ordering::Relaxed),
            train,
            snapshot_bytes: s.snapshot_bytes,
            rtt_us: report::mean(&serve_loop.latencies_ms) * 1e3,
            stages,
        })
    }
}

/// Wall time of the traced training passes and the part of it no named
/// layer accounts for (µs).  The layers are the benchmark's `assemble` and
/// `detect.build` spans and, inside `infer`, the obs sink's stats build,
/// candidate generation and filter timers of the same passes.  The dataset
/// copy inside `infer` has no timer, so the standalone `stats.dataset`
/// span (the same copy made and dropped on the same training set) stands
/// in for it; the glue between calls stays unattributed.
fn train_attribution(tracer: &Tracer, train: &TrainTrace) -> (f64, f64) {
    let pass_us = tracer.total_us("train.pass");
    let named_us = ["assemble", "stats.dataset", "detect.build"]
        .iter()
        .map(|name| tracer.total_us(name))
        .sum::<f64>()
        + train.infer_named_us();
    (pass_us, pass_us - named_us)
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    tracer: &Tracer,
    traced: &Traced,
    trained: &[Trained],
    quality: &Quality,
    baseline: &Baseline,
    latencies_ms: &[f64],
    tally: &Tally,
) -> Vec<Metric> {
    let ms = |name: &str| tracer.total_us(name) / 1e3;
    let p50_us = |name: &str| report::median(&tracer.durations_us(name));
    let (pass_us, train_unattributed_us) = train_attribution(tracer, &traced.train);
    // Training layers: mean per traced pass.
    let passes = TRACED_PASSES as f64;
    let pass_ms = |name: &str| ms(name) / passes;
    let t = &traced.train;
    let s = &traced.stages;
    let rtt_us = traced.rtt_us;
    let named_us = report::mean(&tracer.durations_us("protocol.request_write"))
        + s.parse_us
        + s.queue_us
        + s.check_us
        + s.respond_us
        + report::mean(&tracer.durations_us("protocol.response_read"));
    let serve_unattributed_us = rtt_us - named_us;
    let overhead = match baseline {
        Baseline::TrainPassUs(untraced) => pass_us / passes / untraced,
        Baseline::RoundTripUs(untraced) => rtt_us / untraced,
    };
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let systems: usize = trained.iter().map(|t| t.systems).sum();
    let candidates: usize = trained.iter().map(|t| t.stats.candidates).sum();
    let kept: usize = trained.iter().map(|t| t.stats.kept).sum();
    vec![
        m("assemble.train_ms", pass_ms("assemble"), "ms"),
        m("assemble.systems", systems as f64, "count"),
        m("stats.dataset_ms", pass_ms("stats.dataset"), "ms"),
        m("columns.build_ms", t.columns_build_us / 1e3 / passes, "ms"),
        m("columns.count", t.columns as f64 / passes, "count"),
        m("stats.build_ms", t.stats_build_us / 1e3 / passes, "ms"),
        m("infer.ms", pass_ms("infer"), "ms"),
        m(
            "infer.self_ms",
            pass_ms("infer") - t.stats_build_us / 1e3 / passes,
            "ms",
        ),
        m("infer.candidates_ms", t.candidates_us / 1e3 / passes, "ms"),
        m("filter.ms", t.filter_us / 1e3 / passes, "ms"),
        m(
            "infer.pairs_evaluated",
            t.pairs_evaluated as f64 / passes,
            "count",
        ),
        m("infer.candidates", candidates as f64, "count"),
        m("filter.rules_kept", kept as f64, "count"),
        m(
            "filter.accept_ratio",
            kept as f64 / candidates.max(1) as f64,
            "ratio",
        ),
        m("detect.build_ms", pass_ms("detect.build"), "ms"),
        m(
            "train.unattributed_ms",
            train_unattributed_us / 1e3 / passes,
            "ms",
        ),
        m(
            "train.coverage_ratio",
            1.0 - train_unattributed_us / pass_us,
            "ratio",
        ),
        m("detect.fleet_ms", ms("detect.fleet"), "ms"),
        m("detect.assemble_us", p50_us("detect.assemble"), "us"),
        m("detect.check_us", p50_us("detect.check"), "us"),
        m("detect.render_us", p50_us("detect.render"), "us"),
        m(
            "detect.warnings.unknown_entry",
            quality.kinds[0] as f64,
            "count",
        ),
        m(
            "detect.warnings.correlation",
            quality.kinds[1] as f64,
            "count",
        ),
        m("detect.warnings.type", quality.kinds[2] as f64, "count"),
        m(
            "detect.warnings.suspicious_value",
            quality.kinds[3] as f64,
            "count",
        ),
        m("snapshot.render_ms", ms("snapshot.render"), "ms"),
        m("snapshot.parse_ms", ms("snapshot.parse"), "ms"),
        m("snapshot.bytes", traced.snapshot_bytes as f64, "bytes"),
        m("registry.load_ms", ms("registry.load"), "ms"),
        m(
            "protocol.request_encode_us",
            p50_us("protocol.request_encode"),
            "us",
        ),
        m(
            "protocol.request_decode_us",
            p50_us("protocol.request_decode"),
            "us",
        ),
        m(
            "protocol.response_encode_us",
            p50_us("protocol.response_encode"),
            "us",
        ),
        m(
            "protocol.response_decode_us",
            p50_us("protocol.response_decode"),
            "us",
        ),
        m("queue.wait_us_p50", s.queue_p50_us, "us"),
        m("queue.wait_us_p99", s.queue_p99_us, "us"),
        m("server.check_us_p50", s.check_p50_us, "us"),
        m("serve.parse_us", s.parse_us, "us"),
        m("serve.respond_us", s.respond_us, "us"),
        m("serve.unattributed_us", serve_unattributed_us, "us"),
        m("serve.coverage_ratio", named_us / rtt_us, "ratio"),
        m("serve.busy", traced.busy as f64, "count"),
        m("serve.errors", traced.errors as f64, "count"),
        m("latency.p99_ms", report::quantile(latencies_ms, 0.99), "ms"),
        m("latency.samples", latencies_ms.len() as f64, "count"),
        m("trace.overhead_ratio", overhead, "ratio"),
        m("failed_ratio", tally.failed_ratio(), "ratio"),
        m("host.nproc", nproc() as f64, "count"),
        m("host.workers", WORKERS as f64, "count"),
    ]
}

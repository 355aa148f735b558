//! Serve-phase instruments and the service's scrape surface.
//!
//! The service appends one `serve` phase section to the core crate's
//! scrape roll-up, following the determinism discipline of DESIGN.md §9:
//! counters and histograms count protocol work (requests, targets,
//! rejections — identical for a given request stream), while anything
//! scheduling-dependent (queue depth at scrape time, wall-clock request
//! latency) is a gauge or timer-style histogram over microseconds.
//!
//! The request counters (`serve.requests`, `serve.checks`,
//! `serve.targets_checked`, `serve.rejected_busy`, `serve.errors`) are
//! not obs instruments: the phase renders them from the server's own
//! [`ServeStats`], the same atomics the `stats` verb reads, so `/metrics`,
//! the heartbeat, and `stats` report one set of numbers.

use crate::server::ServeStats;
use encore_obs::{Counter, Gauge, Histogram, PhaseReport, PipelineReport};

/// Successful snapshot reloads across all registered apps.
pub static SNAPSHOT_RELOADS: Counter = Counter::new("serve.snapshot_reloads");
/// Failed snapshot reloads (the old detector kept serving).
pub static RELOAD_FAILURES: Counter = Counter::new("serve.reload_failures");
/// Queue depth when the last request was enqueued (point-in-time).
pub static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");
/// Configured queue capacity.
pub static QUEUE_CAPACITY: Gauge = Gauge::new("serve.queue.capacity");
/// Registered apps.
pub static APPS: Gauge = Gauge::new("serve.apps");
/// Registered apps currently ready.
pub static APPS_READY: Gauge = Gauge::new("serve.apps_ready");
/// Event-log lines written since install (point-in-time view of the
/// writer thread, synced from [`encore_obs::event::health`] at scrape).
pub static EVENTS_WRITTEN: Gauge = Gauge::new("serve.events.written");
/// Event-log lines dropped (full queue or failed write) since install.
pub static EVENTS_DROPPED: Gauge = Gauge::new("serve.events.dropped");
/// Rendered event lines currently awaiting the writer thread.
pub static EVENTS_QUEUE_DEPTH: Gauge = Gauge::new("serve.events.queue_depth");

/// Latency bounds, microseconds: wire-speed admin verbs (tens of µs) up
/// to sub-minute fleet checks.  Millisecond buckets quantized every
/// admin verb into the first bucket; µs end to end restores resolution.
static LATENCY_BOUNDS_US: [u64; 15] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000, 30_000_000,
];
/// End-to-end time from dequeue to response, microseconds.
pub static REQUEST_DURATION: Histogram =
    Histogram::new("serve.request_duration_us", &LATENCY_BOUNDS_US);
/// Time a request waited in the queue before dispatch, microseconds.
pub static QUEUE_WAIT: Histogram = Histogram::new("serve.queue_wait_us", &LATENCY_BOUNDS_US);

/// Sync the event-log health gauges from the writer thread's counters;
/// called before every scrape/heartbeat snapshot so the exposition and
/// the JSONL delta both carry current log health.
pub fn sync_event_gauges() {
    let health = encore_obs::event::health();
    EVENTS_WRITTEN.set(health.written);
    EVENTS_DROPPED.set(health.dropped);
    EVENTS_QUEUE_DEPTH.set(health.queue_depth);
}

/// Snapshot of the `serve` phase, request counters read from `stats`.
pub fn serve_phase(stats: &ServeStats) -> PhaseReport {
    let mut phase = PhaseReport::new("serve");
    phase.counters = stats
        .counters()
        .iter()
        .map(|(name, value)| (format!("serve.{name}"), *value))
        .collect();
    phase
        .counter(&SNAPSHOT_RELOADS)
        .counter(&RELOAD_FAILURES)
        .gauge(&QUEUE_DEPTH)
        .gauge(&QUEUE_CAPACITY)
        .gauge(&APPS)
        .gauge(&APPS_READY)
        .gauge(&EVENTS_WRITTEN)
        .gauge(&EVENTS_DROPPED)
        .gauge(&EVENTS_QUEUE_DEPTH)
        .histogram(&REQUEST_DURATION)
        .histogram(&QUEUE_WAIT)
}

/// The service's scrape view: the core pipeline phases with the `serve`
/// section appended.
pub fn scrape_report(stats: &ServeStats) -> PipelineReport {
    sync_event_gauges();
    let mut report = encore::obs::pipeline_report();
    report.phases.push(serve_phase(stats));
    report
}

/// Bucket bounds for every histogram in [`scrape_report`].
pub fn histogram_bounds(name: &str) -> Option<&'static [u64]> {
    match name {
        "serve.request_duration_us" => Some(REQUEST_DURATION.bounds()),
        "serve.queue_wait_us" => Some(QUEUE_WAIT.bounds()),
        _ => encore::obs::histogram_bounds(name),
    }
}

/// Render the service scrape view in the Prometheus exposition format.
pub fn render_prometheus(stats: &ServeStats) -> String {
    encore_obs::expose::render(&scrape_report(stats), &histogram_bounds)
}

/// Reset every serve-phase instrument (tests only; a live service never
/// resets).
pub fn reset() {
    SNAPSHOT_RELOADS.reset();
    RELOAD_FAILURES.reset();
    for gauge in [
        &QUEUE_DEPTH,
        &QUEUE_CAPACITY,
        &APPS,
        &APPS_READY,
        &EVENTS_WRITTEN,
        &EVENTS_DROPPED,
        &EVENTS_QUEUE_DEPTH,
    ] {
        gauge.reset();
    }
    REQUEST_DURATION.reset();
    QUEUE_WAIT.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_report_appends_the_serve_phase() {
        let names: Vec<String> = scrape_report(&ServeStats::default())
            .phases
            .iter()
            .map(|p| p.name.clone())
            .collect();
        assert_eq!(names.last().map(String::as_str), Some("serve"));
        assert!(
            names.iter().any(|n| n == "detect"),
            "core phases are retained: {names:?}"
        );
    }

    #[test]
    fn histogram_bounds_covers_serve_and_delegates_to_core() {
        for phase in &scrape_report(&ServeStats::default()).phases {
            for (name, snap) in &phase.histograms {
                let bounds = histogram_bounds(name)
                    .unwrap_or_else(|| panic!("no bounds registered for `{name}`"));
                assert_eq!(bounds.len() + 1, snap.counts.len(), "mismatch for `{name}`");
            }
        }
    }

    #[test]
    fn prometheus_rendering_validates_and_includes_serve_samples() {
        let stats = ServeStats::default();
        stats
            .requests
            .store(3, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&stats);
        encore_obs::expose::validate(&text).expect("exposition validates");
        assert!(text.contains("# TYPE encore_serve_requests_total counter\n"));
        assert!(text.contains("\nencore_serve_requests_total 3\n"));
        assert!(text.contains("encore_serve_request_duration_us_bucket{le=\"30000000\"}"));
        assert!(text.contains("encore_serve_events_written"));
    }
}

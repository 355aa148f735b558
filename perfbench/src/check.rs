//! The direct check path: reference reports, `check_fleet` and one-target
//! loops, detection quality against the seeded ground truth.

use crate::report::Tally;
use crate::trace::Tracer;
use crate::workload::{Fleet, WORKERS};
use encore::{AnomalyDetector, FleetOptions, Report, WarningKind};
use encore_assemble::Assembler;
use std::time::{Duration, Instant};

/// The expected result for every target of one fleet.
#[derive(Debug, Clone)]
pub struct Reference {
    pub reports: Vec<Report>,
    /// `Report::render` of each report — what a served reply must carry.
    pub bodies: Vec<String>,
}

/// `check_fleet` over every image of `fleet`, rendered.
///
/// # Errors
///
/// Any image that fails to assemble (the workloads are chosen so none
/// does).
pub fn reference(detector: &AnomalyDetector, fleet: &Fleet) -> Result<Reference, String> {
    let reports = detector
        .check_fleet(
            fleet.app,
            &fleet.images,
            &FleetOptions::with_workers(WORKERS),
        )
        .into_iter()
        .zip(&fleet.images)
        .map(|(result, image)| result.map_err(|e| format!("{}: {e}", image.id())))
        .collect::<Result<Vec<_>, String>>()?;
    let bodies = reports.iter().map(Report::render).collect();
    Ok(Reference { reports, bodies })
}

/// Compare the bodies a detector produced with the reference, one tally
/// entry per target.
pub fn verify_bodies(fleet: &Fleet, expected: &Reference, got: &[String], tally: &mut Tally) {
    for (i, body) in got.iter().enumerate() {
        if *body == expected.bodies[i] {
            tally.ok();
        } else {
            tally.fail(format!(
                "{}: report differs from the reference",
                fleet.images[i].id()
            ));
        }
    }
}

/// Render `check_fleet` results, turning an assemble error into a body that
/// can never equal a reference.
fn render_results(results: Vec<Result<Report, encore_assemble::AssembleError>>) -> Vec<String> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(report) => report.render(),
            Err(e) => format!("assemble error: {e}\n"),
        })
        .collect()
}

/// One timed `check_fleet` call per fleet.  Returns the targets checked
/// and the seconds the calls took.
pub fn fleet_pass(
    detectors: &[&AnomalyDetector],
    fleets: &[Fleet],
    refs: &[Reference],
    tally: &mut Tally,
) -> (u64, f64) {
    let options = FleetOptions::with_workers(WORKERS);
    let (mut targets, mut seconds) = (0, 0.0);
    for ((detector, fleet), expected) in detectors.iter().zip(fleets).zip(refs) {
        let t = Instant::now();
        let results = detector.check_fleet(fleet.app, &fleet.images, &options);
        seconds += t.elapsed().as_secs_f64();
        targets += results.len() as u64;
        verify_bodies(fleet, expected, &render_results(results), tally);
    }
    (targets, seconds)
}

/// One-target direct checks (`check_image` + `Report::render`, the
/// `encore-detect` path) until `budget` is spent, walking the fleets from
/// target `*cursor` on.  Returns per-target latencies in ms.
pub fn latency_slice(
    detectors: &[&AnomalyDetector],
    fleets: &[Fleet],
    refs: &[Reference],
    budget: Duration,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let targets: Vec<(usize, usize)> = fleets
        .iter()
        .enumerate()
        .flat_map(|(f, fleet)| (0..fleet.images.len()).map(move |i| (f, i)))
        .collect();
    let mut latencies = Vec::new();
    let started = Instant::now();
    while latencies.is_empty() || started.elapsed() < budget {
        let (f, i) = targets[*cursor % targets.len()];
        *cursor += 1;
        let (fleet, image) = (&fleets[f], &fleets[f].images[i]);
        let t = Instant::now();
        let body = match detectors[f].check_image(fleet.app, image) {
            Ok(report) => report.render(),
            Err(e) => format!("assemble error: {e}\n"),
        };
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if body == refs[f].bodies[i] {
            tally.ok();
        } else {
            tally.fail(format!(
                "{}: direct check differs from the reference",
                image.id()
            ));
        }
    }
    latencies
}

/// The traced direct path: one `detect.fleet` span per fleet, then up to
/// `per_fleet` targets split into `detect.assemble` / `detect.check` /
/// `detect.render` under a `detect.target` span carrying the target index.
pub fn traced_checks(
    detectors: &[&AnomalyDetector],
    fleets: &[Fleet],
    refs: &[Reference],
    per_fleet: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let options = FleetOptions::with_workers(WORKERS);
    let assembler = Assembler::new();
    let mut index = 0u64;
    for ((detector, fleet), expected) in detectors.iter().zip(fleets).zip(refs) {
        let results = tracer.leaf("detect.fleet", None, None, || {
            detector.check_fleet(fleet.app, &fleet.images, &options)
        });
        verify_bodies(fleet, expected, &render_results(results), tally);
        for (i, image) in fleet.images.iter().enumerate().take(per_fleet) {
            let body = tracer.span("detect.target", None, Some(index), |t, target| {
                let row = t.leaf("detect.assemble", Some(target), Some(index), || {
                    assembler.assemble_image(fleet.app, image)
                });
                match row {
                    Ok(row) => {
                        let report = t.leaf("detect.check", Some(target), Some(index), || {
                            detector.check(&row, Some(image))
                        });
                        t.leaf("detect.render", Some(target), Some(index), || {
                            report.render()
                        })
                    }
                    Err(e) => format!("assemble error: {e}\n"),
                }
            });
            index += 1;
            if body == expected.bodies[i] {
                tally.ok();
            } else {
                tally.fail(format!(
                    "{}: traced check differs from the reference",
                    image.id()
                ));
            }
        }
    }
}

/// Detection quality of one fleet's reports against its ground truth.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub seeded: u64,
    pub detected: u64,
    pub clean_targets: u64,
    pub clean_warnings: u64,
    /// Warnings by kind: unknown entry, correlation, type, suspicious value.
    pub kinds: [u64; 4],
}

impl Quality {
    pub fn of(fleet: &Fleet, reference: &Reference) -> Quality {
        let mut q = Quality::default();
        for (image, report) in fleet.images.iter().zip(&reference.reports) {
            let seeded: Vec<_> = fleet
                .seeded
                .iter()
                .filter(|s| s.image_id == image.id())
                .collect();
            q.seeded += seeded.len() as u64;
            q.detected += seeded.iter().filter(|s| report.detects(&s.entry)).count() as u64;
            if seeded.is_empty() {
                q.clean_targets += 1;
                q.clean_warnings += report.len() as u64;
            }
            for w in report.warnings() {
                q.kinds[match w.kind() {
                    WarningKind::UnknownEntry => 0,
                    WarningKind::CorrelationViolation => 1,
                    WarningKind::TypeViolation => 2,
                    WarningKind::SuspiciousValue => 3,
                }] += 1;
            }
        }
        q
    }

    pub fn add(&mut self, other: Quality) {
        self.seeded += other.seeded;
        self.detected += other.detected;
        self.clean_targets += other.clean_targets;
        self.clean_warnings += other.clean_warnings;
        for (a, b) in self.kinds.iter_mut().zip(other.kinds) {
            *a += b;
        }
    }

    pub fn recall(&self) -> f64 {
        self.detected as f64 / self.seeded.max(1) as f64
    }

    pub fn false_alarms_per_clean_target(&self) -> f64 {
        self.clean_warnings as f64 / self.clean_targets.max(1) as f64
    }
}

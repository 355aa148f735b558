//! Training passes: `TrainingSet::assemble` + rule inference + detector
//! build, untraced (through `EnCore::learn`) or with one span per layer.

use crate::trace::Tracer;
use crate::workload::WORKERS;
use encore::{
    AnomalyDetector, EnCore, InferOptions, InferenceStats, LearnOptions, RuleInference, TrainingSet,
};
use encore_model::AppKind;
use encore_sysimage::SystemImage;

/// One app's training result.
#[derive(Debug)]
pub struct Trained {
    pub app: AppKind,
    pub detector: AnomalyDetector,
    /// `RuleSet::render` of the learned rules — every pass must match the
    /// first.
    pub rules: String,
    pub stats: InferenceStats,
    pub systems: usize,
}

fn learn_options() -> LearnOptions {
    LearnOptions {
        workers: Some(WORKERS),
        ..LearnOptions::default()
    }
}

/// One untraced training pass over `images`.
///
/// # Errors
///
/// Assembly failures (no image assembled).
pub fn train(app: AppKind, images: &[SystemImage]) -> Result<Trained, String> {
    let training = TrainingSet::assemble(app, images).map_err(|e| format!("assemble: {e}"))?;
    let engine = EnCore::learn(&training, &learn_options());
    let stats = engine.stats().clone();
    let detector = engine.into_detector();
    Ok(Trained {
        app,
        rules: detector.rules().render(),
        detector,
        stats,
        systems: training.len(),
    })
}

/// What the obs sink measured inside one traced pass (µs unless a count),
/// read from `encore::obs::pipeline_report()` after the pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrainTrace {
    /// `stats.cache.build`: `StatsCache::new` inside `try_infer_with`,
    /// column pivot included.
    pub stats_build_us: f64,
    /// `assemble.columns.time`: `column_store`, called by `StatsCache::new`.
    pub columns_build_us: f64,
    /// `assemble.columns.built`: columns of the interned column store.
    pub columns: u64,
    /// `infer.time`: template instantiation (candidate generation).
    pub candidates_us: f64,
    /// `filter.time`: judging the candidates.
    pub filter_us: f64,
    /// `infer.pairs.evaluated`.
    pub pairs_evaluated: u64,
}

impl TrainTrace {
    fn read() -> TrainTrace {
        let report = encore::obs::pipeline_report();
        let timer_us = |name: &str| {
            report
                .phases
                .iter()
                .flat_map(|p| &p.timers)
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, t)| t.nanos as f64 / 1e3)
        };
        let counters = report.counters();
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        TrainTrace {
            stats_build_us: timer_us("stats.cache.build"),
            columns_build_us: timer_us("assemble.columns.time"),
            columns: counter("assemble.columns.built"),
            candidates_us: timer_us("infer.time"),
            filter_us: timer_us("filter.time"),
            pairs_evaluated: counter("infer.pairs.evaluated"),
        }
    }

    /// Fold another app's pass into this one.
    pub fn add(&mut self, other: &TrainTrace) {
        self.stats_build_us += other.stats_build_us;
        self.columns_build_us += other.columns_build_us;
        self.columns += other.columns;
        self.candidates_us += other.candidates_us;
        self.filter_us += other.filter_us;
        self.pairs_evaluated += other.pairs_evaluated;
    }

    /// The pass's time inside `infer` that a named layer accounts for.
    pub fn infer_named_us(&self) -> f64 {
        self.stats_build_us + self.candidates_us + self.filter_us
    }
}

/// One traced pass: `train.pass` wraps exactly the calls `EnCore::learn`
/// makes (`assemble`, `infer`, `detect.build`), and the obs sink, reset
/// before the pass, times the layers inside `infer` in the same execution.
/// `infer` copies the dataset (`TrainingSet::dataset`, through
/// `TrainingSet::stats_cache`) and drops the copy with its stats cache;
/// neither has an obs timer, so `stats.dataset` times the same copy made
/// and dropped on the same training set right after the pass.
///
/// # Errors
///
/// Assembly or inference failures.
pub fn train_traced(
    app: AppKind,
    images: &[SystemImage],
    tracer: &mut Tracer,
) -> Result<(Trained, TrainTrace), String> {
    let options = learn_options();
    encore::obs::reset();
    let (training, stats, detector) = tracer.span("train.pass", None, None, |t, pass| {
        let training = t
            .leaf("assemble", Some(pass), None, || {
                TrainingSet::assemble(app, images)
            })
            .map_err(|e| format!("assemble: {e}"))?;
        let inference = RuleInference::new(options.templates.clone());
        let infer_options = InferOptions {
            workers: options.workers,
            ..InferOptions::default()
        };
        let (rules, stats) = t
            .leaf("infer", Some(pass), None, || {
                inference.try_infer_with(&training, &options.thresholds, &infer_options)
            })
            .map_err(|e| format!("infer: {e}"))?;
        let detector = t.leaf("detect.build", Some(pass), None, || {
            AnomalyDetector::new(&training, rules)
        });
        Ok::<_, String>((training, stats, detector))
    })?;
    let layer = TrainTrace::read();
    tracer.leaf("stats.dataset", None, None, || drop(training.dataset()));
    Ok((
        Trained {
            app,
            rules: detector.rules().render(),
            detector,
            stats,
            systems: training.len(),
        },
        layer,
    ))
}

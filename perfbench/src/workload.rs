//! The three workloads and the inputs each generates from its seed.
//!
//! * `train-apache-1000` — one full training pass over 1000 apache images
//!   is dominated by assembly, the stats/column pivot and template
//!   inference, so training-path changes show here; its check phase runs
//!   `check_fleet` over 1000 fresh EC2 images (21% seeded).
//! * `serve-single` — two closed-loop clients, one config-only target per
//!   request, alternating a mysql and an apache tenant: per-request
//!   overhead (framing, socket, dispatcher hand-off, rendering) dominates
//!   and the second client queues behind the single dispatcher.
//! * `serve-batch` — one closed-loop client, 16 apache targets per
//!   request: assemble + check dominate and per-request overhead is
//!   amortised 16×.

use encore_corpus::{Population, PopulationOptions, SeededMisconfig};
use encore_model::AppKind;
use encore_sysimage::SystemImage;
use std::time::Duration;

/// Worker threads for inference, fleet checks and the server's dispatcher
/// pool.  Pinned (never "all cores") so results do not depend on the host;
/// recorded next to `nproc` in the traced run.
pub const WORKERS: usize = 2;

/// Which check path the timed phase measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPath {
    /// `check_fleet` over the evaluation fleet plus a direct one-target
    /// loop for latency.
    Direct,
    /// Closed-loop clients against the in-process server.
    Served,
}

/// Closed-loop traffic against the server.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Client connections (each waits for its reply before sending again).
    pub clients: usize,
    /// Targets per `check` request.
    pub batch: usize,
    /// Apps the requests rotate through.
    pub apps: Vec<AppKind>,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Training sets: app and image count.  Every timed training pass trains
    /// all of them; each becomes a served snapshot.
    pub train: Vec<(AppKind, usize)>,
    /// Evaluation images per traffic app.
    pub eval: usize,
    pub path: CheckPath,
    /// Served traffic; on a `Direct` workload it drives only the traced
    /// run's served-path probe.
    pub traffic: Traffic,
    /// Training passes per round of the timed phase.
    pub passes: usize,
    /// Check-path time per round, after the round's training passes.  The
    /// served path gets long slices, so that switching between training and
    /// serving stays rare.
    pub slice: Duration,
}

pub const NAMES: [&str; 3] = ["train-apache-1000", "serve-single", "serve-batch"];

impl Workload {
    /// The workload called `name`, with every input size multiplied by
    /// `scale` (1.0 for the benchmark; smaller for smoke tests).
    pub fn named(name: &str, scale: f64) -> Option<Workload> {
        let n = |full: usize| ((full as f64 * scale).round() as usize).max(20);
        let served_training = vec![(AppKind::Mysql, n(300)), (AppKind::Apache, n(300))];
        let workload = match name {
            "train-apache-1000" => Workload {
                name: NAMES[0],
                train: vec![(AppKind::Apache, n(1000))],
                eval: n(1000),
                path: CheckPath::Direct,
                traffic: Traffic {
                    clients: 1,
                    batch: 16,
                    apps: vec![AppKind::Apache],
                },
                passes: 1,
                slice: Duration::from_millis(250),
            },
            "serve-single" => Workload {
                name: NAMES[1],
                train: served_training,
                eval: n(1000),
                path: CheckPath::Served,
                traffic: Traffic {
                    clients: 2,
                    batch: 1,
                    apps: vec![AppKind::Mysql, AppKind::Apache],
                },
                passes: 3,
                slice: Duration::from_secs(6),
            },
            "serve-batch" => Workload {
                name: NAMES[2],
                train: served_training,
                eval: n(1000),
                path: CheckPath::Served,
                traffic: Traffic {
                    clients: 1,
                    batch: 16,
                    apps: vec![AppKind::Apache],
                },
                passes: 3,
                slice: Duration::from_secs(6),
            },
            _ => return None,
        };
        Some(workload)
    }
}

/// One app's evaluation fleet with its ground truth.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub app: AppKind,
    pub images: Vec<SystemImage>,
    pub seeded: Vec<SeededMisconfig>,
    /// `(image id, config file contents)` — the served form of each image.
    pub targets: Vec<(String, String)>,
}

impl Fleet {
    /// The fleet as the served path sees it: each image reduced to its
    /// config file (`encore::watch::target_image`).
    pub fn config_only(&self) -> Fleet {
        Fleet {
            images: self
                .targets
                .iter()
                .map(|(id, config)| encore::watch::target_image(self.app, id, config))
                .collect(),
            ..self.clone()
        }
    }
}

/// Everything a run checks, generated from the seed before any timer.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub training: Vec<(AppKind, Vec<SystemImage>)>,
    pub fleets: Vec<Fleet>,
}

impl Inputs {
    /// # Errors
    ///
    /// An evaluation image without its app's config file (the generator
    /// always writes one, so this means the corpus changed).
    pub fn generate(workload: &Workload, seed: u64) -> Result<Inputs, String> {
        let training = workload
            .train
            .iter()
            .map(|&(app, n)| {
                let population = Population::training(app, &PopulationOptions::new(n, seed));
                (app, population.images().to_vec())
            })
            .collect();
        let eval_seed = seed ^ 0x0e7a_1f1e_e7b3_5eed;
        let fleets = workload
            .traffic
            .apps
            .iter()
            .map(|&app| {
                let population = Population::ec2_fresh(app, workload.eval, eval_seed);
                let targets = population
                    .images()
                    .iter()
                    .map(|img| {
                        let config = img.read_file(app.config_path()).ok_or_else(|| {
                            format!(
                                "{}: no {} in the generated image",
                                img.id(),
                                app.config_path()
                            )
                        })?;
                        Ok((img.id().to_string(), config.to_string()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let fleet = Fleet {
                    app,
                    images: population.images().to_vec(),
                    seeded: population.seeded().to_vec(),
                    targets,
                };
                // The served path sees config files only; the direct path
                // checks whole images.
                Ok(if workload.path == CheckPath::Served {
                    fleet.config_only()
                } else {
                    fleet
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Inputs { training, fleets })
    }
}

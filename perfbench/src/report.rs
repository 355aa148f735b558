//! Result bookkeeping: failure tallies, sample statistics, the recorded
//! deterministic counts, and the one-line JSON result.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// Attempted and failed operations of one run, with the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Record one operation that passed iff `result` is `Ok`.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(reason) => self.fail(reason),
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples strictly above the `q`-quantile — a percentile is reported only
/// when at least ten samples lie beyond it.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on a finite f64 prints every significant digit and
            // never an exponent, so the text is valid JSON.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic work and quality counts of one (workload, seed): they
/// must read the same on every run of the same code.
pub type Counts = BTreeMap<String, u64>;

/// A digest of the running executable's bytes.  Recorded counts are keyed
/// by it, so they are compared only between runs of the same build: a
/// change that legitimately moves a count starts a fresh record.
///
/// # Errors
///
/// The executable cannot be located or read.
pub fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut hasher = DefaultHasher::new();
    bytes.hash(&mut hasher);
    Ok(format!("{:016x}", hasher.finish()))
}

/// Compare `counts` with the counts an earlier run of the same key left in
/// `dir`, then store the union.  Keys only one side has are not compared
/// (traced runs add counts that only the obs sink measures).
///
/// # Errors
///
/// Names every count that differs from the recorded one, or the I/O
/// failure.
pub fn check_counts(dir: &Path, key: &str, counts: &Counts) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}.counts"));
    let mut recorded = Counts::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if let (Some(name), Some(Ok(n))) = (words.next(), words.next().map(str::parse)) {
                recorded.insert(name.to_string(), n);
            }
        }
    }
    let mismatches: Vec<String> = counts
        .iter()
        .filter_map(|(name, &n)| match recorded.get(name) {
            Some(&old) if old != n => Some(format!("{name} {n} (recorded {old})")),
            _ => None,
        })
        .collect();
    if !mismatches.is_empty() {
        return Err(format!(
            "counts differ from an earlier run: {}",
            mismatches.join(", ")
        ));
    }
    let mut merged = recorded;
    merged.extend(counts.iter().map(|(k, &v)| (k.clone(), v)));
    let text: String = merged.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert!((quantile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(beyond(&v, 0.9), 10);
    }

    #[test]
    fn counts_must_repeat_under_one_key_only() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("counts-test-{}", std::process::id()));
        let build = build_id().expect("the test binary is readable");
        assert_eq!(build_id(), Ok(build.clone()));
        let counts = Counts::from([("rules_kept".to_string(), 3)]);
        let moved = Counts::from([("rules_kept".to_string(), 4)]);
        assert_eq!(check_counts(&dir, &build, &counts), Ok(()));
        assert_eq!(check_counts(&dir, &build, &counts), Ok(()));
        assert!(check_counts(&dir, &build, &moved).is_err());
        assert_eq!(check_counts(&dir, "another-build", &moved), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_line_has_every_metric_with_its_unit() {
        let outcome = Outcome {
            correct: true,
            tally: Tally {
                attempted: 3,
                failed: 0,
                reasons: Vec::new(),
            },
            metrics: vec![
                Metric {
                    name: "latency_p50_ms",
                    value: 0.25,
                    unit: "ms",
                },
                Metric {
                    name: "recall",
                    value: 1.0,
                    unit: "ratio",
                },
            ],
        };
        assert_eq!(
            outcome.render_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}, \
             \"recall\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
    }
}

//! Sample summaries, the run tally and the final JSON line.

use std::fmt::Write as _;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len().max(1) as f64
}

/// Milliseconds between two instants.
pub fn ms(from: std::time::Instant, to: std::time::Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Operations attempted and failed; each failure's reason goes to stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: failure: {reason}");
    }

    /// Records a check that is not an operation of its own (it does not add
    /// to `attempted`): a failure marks the run incorrect.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", reason());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics in the order they are recorded.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Prints the metrics named in `names` (in that order) as readable
    /// lines, then the one-line JSON result; a named metric that is missing
    /// or not a number fails the run.  Returns whether the run is correct.
    pub fn print(&self, names: &[&str], tally: &mut Tally) -> bool {
        let mut json = String::new();
        for name in names {
            let found = self.0.iter().find(|(n, _, _)| n == name);
            let Some((_, value, unit)) = found.filter(|(_, v, _)| v.is_finite()) else {
                tally.check(false, || format!("metric {name} was not measured"));
                continue;
            };
            println!("  {name:<36} {value:>14.4} {unit}");
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = tally.failed == 0 && tally.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            tally.attempted.max(1),
            tally.failed
        );
        correct
    }
}

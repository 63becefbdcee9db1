//! Result bookkeeping: attempted/failed operations, output mismatches,
//! and the metric list printed as a table and as the final JSON line.

use crate::stats::{spread, Pct};

/// Operations attempted and failed, and output mismatches found.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    failures: Vec<String>,
}

impl Tally {
    /// A failed or refused operation: counted, and its message kept for
    /// the log (the first few only).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// An output that differs from its reference: the run is incorrect.
    pub fn mismatch(&mut self, msg: String) {
        if self.mismatches.len() < 32 {
            self.mismatches.push(msg);
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was taken over.
    pub n: usize,
    /// The percentile actually reported, for percentile metrics.
    pub q: Option<f64>,
    /// Interquartile range over median of the samples behind the value.
    pub spread: Option<f64>,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        self.0.push(Metric {
            name,
            unit,
            value,
            n,
            q: None,
            spread: None,
        });
    }

    /// A value summarizing `samples`, shown with their spread.
    pub fn add_samples(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) {
        self.add(name, unit, value, samples.len());
        if let Some(m) = self.0.last_mut() {
            m.spread = spread(samples);
        }
    }

    /// A percentile metric; no samples reads as `NaN`, which fails the run.
    pub fn pct(&mut self, name: &'static str, unit: &'static str, p: Option<Pct>) {
        self.0.push(Metric {
            name,
            unit,
            value: p.map_or(f64::NAN, |p| p.value),
            n: p.map_or(0, |p| p.n),
            q: p.map(|p| p.q),
            spread: None,
        });
    }

    pub fn print_table(&self) {
        for m in &self.0 {
            let q =
                m.q.map_or(String::new(), |q| format!("  p{:.1}", q * 100.0));
            let s = m
                .spread
                .map_or(String::new(), |s| format!("  iqr/median {s:.3}"));
            println!(
                "  {:<32} {:>16.6} {:<6} n={}{q}{s}",
                m.name, m.value, m.unit, m.n
            );
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit.
    pub fn json(&self, correct: bool, tally: &Tally) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            fields.join(", ")
        )
    }
}

/// Shortest round-trip decimal; non-finite values (which JSON cannot
/// carry) become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut m = Metrics::default();
        m.add("setup_s", "s", 0.25, 3);
        m.add("bad", "ms", f64::NAN, 0);
        let mut t = Tally {
            attempted: 10,
            ..Default::default()
        };
        t.fail("x".into());
        assert_eq!(
            m.json(true, &t),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}

//! Operation accounting and the run's output.

use mmdr_json::Value;

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer passed every check.
    Ok,
    /// Refused by admission control (`OVERLOADED`): not run.
    Refused,
    /// The call returned an error or timed out.
    Error,
    /// Answered, but the answer failed a correctness check.
    Mismatch,
}

/// Attempted and failed operation counts. A refused request counts as
/// failed: it missed every latency limit the caller had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted, including refused ones.
    pub attempted: u64,
    /// Refused, errored and mismatched operations.
    pub failed: u64,
    /// Of `failed`, the correctness-check mismatches.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Refused | Outcome::Error => self.failed += 1,
            Outcome::Mismatch => {
                self.failed += 1;
                self.mismatched += 1;
            }
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            let v = Value::object(vec![("value", m.value.into()), ("unit", m.unit.into())]);
            (m.name.to_string(), v)
        })
        .collect();
    Value::object(vec![
        ("correct", correct.into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        ("metrics", Value::Object(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_mismatched_ops_count_as_failed() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.record(Outcome::Ok);
        }
        t.record(Outcome::Refused);
        t.record(Outcome::Error);
        t.record(Outcome::Mismatch);
        t.record(Outcome::Ok);
        assert_eq!(t.attempted, 10);
        assert_eq!(t.failed, 3);
        assert_eq!(t.mismatched, 1);
        assert!((t.failed_frac() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn a_refused_request_alone_is_a_full_failure() {
        let mut t = Tally::default();
        t.record(Outcome::Refused);
        assert_eq!(t.failed_frac(), 1.0);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn tallies_merge() {
        let mut a = Tally::default();
        a.record(Outcome::Ok);
        let mut b = Tally::default();
        b.record(Outcome::Refused);
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (2, 1));
        assert_eq!(a.failed_frac(), 0.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        let line = result_line(
            true,
            t,
            &[Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }
}

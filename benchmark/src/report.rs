//! What one workload run produces: named metric summaries, the count of
//! operations attempted and failed, and the fixed pass counts it ran —
//! rendered for people, for the driver (one JSON line) and for `compare`.

use std::collections::BTreeMap;

use crate::catalog::{self, MetricDef};
use crate::json::{Json, JsonExt};
use crate::stats::Summary;

/// The result of one workload in one mode (end-to-end or traced).
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    metrics: BTreeMap<&'static str, Summary>,
    /// Operations attempted: requests, writes, and gate comparisons.
    pub attempted: u64,
    /// Errors, refusals and answers that failed the correctness check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Sizes and pass counts the run was made of. `compare` refuses two
    /// files whose counts differ.
    pub counts: Vec<(&'static str, u64)>,
    /// Free-text observations (the ledger check, the filesystem).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            counts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric; the name must be in the catalog.
    pub fn put(&mut self, name: &str, summary: Summary) {
        let def =
            catalog::find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.insert(&def.name, summary);
    }

    /// Records an exact value (a count, a size, a ratio of counts).
    pub fn exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics.get(name).copied()
    }

    /// Counts one attempted operation; `why` describes a failure.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Counts `n` operations that were verified in bulk.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn count(&mut self, key: &'static str, value: usize) {
        self.counts.push((key, value as u64));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric table this run reports: end-to-end with tracing off,
    /// per-layer for the traced run.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            &catalog::catalog().per_layer
        } else {
            &catalog::catalog().end_to_end
        }
    }

    /// Every metric of the run's table with its value. A per-layer metric
    /// the workload did not produce belongs to a layer it bypasses and
    /// reads 0; a missing end-to-end metric is a bug in the workload.
    pub fn rows(&self) -> Vec<(&'static MetricDef, Summary)> {
        self.table()
            .iter()
            .map(|def| {
                let summary = match self.metrics.get(def.name.as_str()) {
                    Some(s) => *s,
                    None if self.traced => Summary::exact(0.0),
                    None => panic!("{} did not report {}", self.workload, def.name),
                };
                (def, summary)
            })
            .collect()
    }

    /// Human-readable block: every metric by name with its unit.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "end-to-end"
            }
        );
        for (def, s) in self.rows() {
            let bypassed = self.traced && !self.metrics.contains_key(def.name.as_str());
            out.push_str(&format!(
                "{:<42} {:>16.4} {:<12} {}\n",
                def.name,
                s.value,
                def.unit,
                if bypassed {
                    "(layer bypassed)".to_string()
                } else if s.samples > 1 {
                    format!(
                        "[epochs {:.4} .. {:.4}, median {:.4}, n={}]",
                        s.min, s.max, s.median, s.samples
                    )
                } else {
                    String::new()
                }
            ));
        }
        out.push_str(&format!(
            "{:<42} {:>16.6} {:<12} ({} failed of {} attempted)\n",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failed,
            self.attempted
        ));
        for (key, value) in &self.counts {
            out.push_str(&format!("  count {key} = {value}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .rows()
            .into_iter()
            .map(|(def, s)| {
                (
                    def.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(s.value)),
                        ("unit", Json::str(&def.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The workload's section of a result file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .rows()
            .into_iter()
            .map(|(def, s)| {
                (
                    def.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(s.value)),
                        ("unit", Json::str(&def.unit)),
                        ("median", Json::Num(s.median)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                        ("spread", Json::Num(s.spread())),
                        ("samples", Json::Num(s.samples as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn full_report() -> Report {
        let mut r = Report::new("paper-string", false);
        for def in &catalog::catalog().end_to_end {
            r.put(&def.name, Summary::of_epochs(&[1.0, 1.5, 2.0], 30));
        }
        r
    }

    #[test]
    fn contract_line_has_exactly_the_required_keys() {
        let mut r = full_report();
        r.ops_ok(10);
        let line = parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), catalog::catalog().end_to_end.len());
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(setup.get("unit"), Some(&Json::str("s")));
    }

    #[test]
    fn a_wrong_answer_makes_the_run_incorrect() {
        let mut r = full_report();
        r.op(Ok(()));
        r.op(Err("document 3 (maximum 0.7) is not listed".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failed_share(), 0.5);
        let line = parse(&r.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(r.render_text().contains("FAILED: document 3"));
    }

    #[test]
    fn a_traced_run_reports_zero_for_bypassed_layers() {
        let mut r = Report::new("paper-string", true);
        r.exact("uncertain.expansion", 2.5);
        let rows = r.rows();
        assert_eq!(rows.len(), catalog::catalog().per_layer.len());
        let value = |name: &str| rows.iter().find(|(d, _)| d.name == name).unwrap().1.value;
        assert_eq!(value("uncertain.expansion"), 2.5);
        assert_eq!(value("net.rtt_p50_us"), 0.0);
    }
}

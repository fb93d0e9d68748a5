//! `compare A.json[,A2.json…] B.json[,B2.json…]`: two sets of result files,
//! one row per (metric, workload). A side's value is the median over its
//! files. The verdict is against the metric's bound from the catalog:
//! *same*, *better*, *worse*, or *unresolved* when a side's own spread —
//! the quartile distance of its runs when it has three or more, else what
//! its one run's epochs say of themselves (`Summary::spread`) — is wider
//! than the bound, so the bound
//! cannot be told from noise. Both sides have one seed, so an exact count
//! is held to 1 % whatever its bound in `BENCHMARK.json`. Files from
//! different boxes, seeds or pass counts are refused.

use crate::catalog::{self, Better};
use crate::fingerprint::COMPARED_KEYS;
use crate::json::{self, Json, JsonExt};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline, `b` the candidate; spreads are shares of the
/// side's own median.
pub fn verdict(
    better: Better,
    bound: f64,
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
) -> Verdict {
    if spread_a.max(spread_b) > bound {
        return Verdict::Unresolved;
    }
    if a == b {
        return Verdict::Same;
    }
    // Positive = worse, as a share of the baseline.
    let worsening = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side of the comparison: its parsed result files.
struct Side {
    files: Vec<Json>,
}

impl Side {
    fn load(list: &str) -> Result<Self, String> {
        let files = list
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self { files })
    }

    fn workload<'a>(file: &'a Json, workload: &str) -> Option<&'a Json> {
        file.get("workloads")?.get(workload)
    }

    /// The side's value and spread for one (workload, metric), or `None`
    /// when a file lacks it.
    fn value(&self, workload: &str, metric: &str) -> Option<(f64, f64)> {
        let mut values = Vec::new();
        let mut epoch_spread = 0.0f64;
        for file in &self.files {
            let m = Self::workload(file, workload)?
                .get("metrics")?
                .get(metric)?;
            epoch_spread = epoch_spread.max(m.get("spread")?.as_f64()?);
            values.push(m.get("value")?.as_f64()?);
        }
        let spread = if values.len() >= 3 {
            quartile_spread(&values)
        } else {
            epoch_spread
        };
        let mid = median(&values);
        Some((mid, spread))
    }
}

/// Why two result files cannot be compared, if they cannot.
fn refusal(a: &Json, b: &Json) -> Option<String> {
    for key in COMPARED_KEYS {
        let (fa, fb) = (
            a.get("fingerprint").and_then(|f| f.get(key)),
            b.get("fingerprint").and_then(|f| f.get(key)),
        );
        if fa != fb {
            return Some(format!(
                "fingerprints differ in {key}: {fa:?} against {fb:?}"
            ));
        }
    }
    for key in ["seed", "seconds", "traced"] {
        if a.get(key) != b.get(key) {
            return Some(format!(
                "{key} differs: {:?} against {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    for file in [a, b] {
        if file.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Some("a --quick result is not comparable".into());
        }
    }
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, section) in workloads {
        if let Some(other) = Side::workload(b, name) {
            if section.get("counts") != other.get("counts") {
                return Some(format!("pass counts of {name} differ"));
            }
        }
    }
    None
}

pub fn run(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    let first = &a.files[0];
    for other in a.files.iter().skip(1).chain(&b.files) {
        if let Some(why) = refusal(first, other) {
            return Err(format!("refusing to compare: {why}"));
        }
    }
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut any_worse = false;
    let workloads = first.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (workload, section) in workloads {
        let metrics = section.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, _) in metrics {
            let (Some((va, sa)), Some((vb, sb))) =
                (a.value(workload, metric), b.value(workload, metric))
            else {
                continue;
            };
            let def = catalog::find(metric);
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            // Per-layer metrics have no bound: they explain a change, they
            // do not gate it.
            let bounded = def.and_then(|d| d.same_seed_bound().map(|bound| (d.better, bound)));
            let (bound, word) = match bounded {
                Some((better, bound)) => {
                    let v = verdict(better, bound, va, vb, sa, sb);
                    any_worse |= v == Verdict::Worse;
                    (format!("{:.0}%", bound * 100.0), v.as_str())
                }
                None => ("-".to_string(), "info"),
            };
            println!(
                "{workload:<14} {metric:<40} {va:>14.4} {vb:>14.4} {:>7.1}% {bound:>7}  {word}",
                change * 100.0
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        // Latency: 5 % slower is within a 10 % bound, 15 % is not.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 105.0, 0.01, 0.01),
            Verdict::Same
        );
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 115.0, 0.01, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 85.0, 0.01, 0.01),
            Verdict::Better
        );
        // Throughput: the direction flips.
        assert_eq!(
            verdict(Higher, 0.10, 1000.0, 850.0, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.10, 1000.0, 1200.0, 0.0, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(Higher, 0.10, 1000.0, 950.0, 0.0, 0.0),
            Verdict::Same
        );
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_same() {
        // The runs disagree with themselves by 30 %: a 2 % difference
        // between the medians says nothing about a 10 % bound.
        assert_eq!(
            verdict(Better::Lower, 0.10, 100.0, 102.0, 0.30, 0.01),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, 100.0, 150.0, 0.01, 0.12),
            Verdict::Unresolved
        );
    }

    fn result(nproc: f64, seed: f64, passes: f64, value: f64) -> Json {
        Json::obj(vec![
            (
                "fingerprint",
                Json::Obj(
                    COMPARED_KEYS
                        .iter()
                        .map(|k| {
                            let v = if *k == "nproc" {
                                Json::Num(nproc)
                            } else {
                                Json::str("x")
                            };
                            (k.to_string(), v)
                        })
                        .collect(),
                ),
            ),
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
            ("traced", Json::Bool(false)),
            ("comparable", Json::Bool(true)),
            (
                "workloads",
                Json::obj(vec![(
                    "serve-wire",
                    Json::obj(vec![
                        ("counts", Json::obj(vec![("passes", Json::Num(passes))])),
                        (
                            "metrics",
                            Json::obj(vec![(
                                "threshold_p50_us",
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("spread", Json::Num(0.02)),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn other_boxes_seeds_and_pass_counts_are_refused() {
        let base = result(2.0, 43.0, 300.0, 60.0);
        assert_eq!(refusal(&base, &result(2.0, 43.0, 300.0, 61.0)), None);
        assert!(refusal(&base, &result(8.0, 43.0, 300.0, 60.0))
            .unwrap()
            .contains("nproc"));
        assert!(refusal(&base, &result(2.0, 44.0, 300.0, 60.0))
            .unwrap()
            .contains("seed"));
        assert!(refusal(&base, &result(2.0, 43.0, 150.0, 60.0))
            .unwrap()
            .contains("pass counts"));
    }

    #[test]
    fn a_side_is_the_median_of_its_runs_with_their_spread() {
        let side = Side {
            files: vec![
                result(2.0, 43.0, 300.0, 60.0),
                result(2.0, 43.0, 300.0, 66.0),
                result(2.0, 43.0, 300.0, 63.0),
            ],
        };
        let (value, spread) = side.value("serve-wire", "threshold_p50_us").unwrap();
        assert_eq!(value, 63.0);
        assert!((spread - 6.0 / 63.0).abs() < 1e-12);
        // One run: the spread of its own epochs.
        let single = Side {
            files: vec![result(2.0, 43.0, 300.0, 60.0)],
        };
        let (_, spread) = single.value("serve-wire", "threshold_p50_us").unwrap();
        assert!((spread - 0.02).abs() < 1e-9);
        assert!(side.value("serve-wire", "absent").is_none());
    }
}

//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root is the
//! one place they are written down; it is compiled in and read at start-up,
//! so the program cannot report a metric or run a workload the contract does
//! not name.

use std::sync::OnceLock;

use crate::json::{parse, Json, JsonExt};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Seed used when none is given (and for the committed first-run numbers).
pub const DEFAULT_SEED: u64 = 43;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may get worse; per-layer metrics carry no bound.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// Workloads the program runs that `BENCHMARK.json` does not list for the
/// driver. The driver refuses a benchmark whose metrics spread by more than
/// 25 % over ten runs; these two walk a 50 MB index per request, and what a
/// cache miss costs on the reference box drifts by a third over minutes
/// with the neighbours' memory traffic (their latencies spread 15-30 %
/// whatever the estimator; `README.md` has the figures). They report the
/// same metrics and `compare` judges them by the same bounds.
pub const UNGATED_WORKLOADS: [&str; 2] = ["serve-fanout", "live-churn"];

pub struct Catalog {
    /// Seconds of timed work a full run is sized for on the reference box.
    /// Pass counts scale linearly with `--seconds / run_seconds`.
    pub run_seconds: f64,
    /// Workload names, in the order a full run goes through them: the ones
    /// `BENCHMARK.json` lists, then [`UNGATED_WORKLOADS`].
    pub workloads: Vec<String>,
    /// What a caller of the system sees. Every workload reports every one
    /// of these (the driver's contract), so each is defined at the
    /// workload's own front door; `README.md` has the definitions.
    pub end_to_end: Vec<MetricDef>,
    /// One layer = one crate. A workload that bypasses a layer reports 0
    /// for that layer's metrics.
    pub per_layer: Vec<MetricDef>,
}

fn text(value: &Json, key: &str) -> String {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
        .to_string()
}

fn entries<'a>(file: &'a Json, key: &str) -> &'a [Json] {
    file.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not a list"))
}

fn metrics(file: &Json, key: &str) -> Vec<MetricDef> {
    entries(file, key)
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better is {other}"),
            },
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let file = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Catalog {
            run_seconds: file
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: entries(&file, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .chain(UNGATED_WORKLOADS.map(String::from))
                .collect(),
            end_to_end: metrics(&file, "end_to_end"),
            per_layer: metrics(&file, "per_layer"),
        }
    })
}

/// End-to-end metrics that are exact counts: identical between two runs of
/// one seed on one commit. Their bound in `BENCHMARK.json` has to cover how
/// much they move from seed to seed (the driver varies the seed); `compare`
/// only takes files of one seed, and holds them to this instead.
const EXACT_COUNTS: [&str; 2] = ["index_bytes_per_pos", "snapshot_bytes_per_pos"];
const EXACT_BOUND: f64 = 0.01;

impl MetricDef {
    /// The bound `compare` applies between two result sets of one seed.
    pub fn same_seed_bound(&self) -> Option<f64> {
        if EXACT_COUNTS.contains(&self.name.as_str()) {
            Some(EXACT_BOUND)
        } else {
            self.bound
        }
    }
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    let catalog = catalog();
    catalog
        .end_to_end
        .iter()
        .chain(&catalog.per_layer)
        .find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    fn keys(value: &Json) -> Vec<&str> {
        let pairs = value.as_obj().expect("an object");
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn benchmark_json_fits_the_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let file = parse(BENCHMARK_JSON).unwrap();
        assert_eq!(
            keys(&file),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in entries(&file, "workloads") {
            assert_eq!(keys(w), ["name", "why"]);
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        for m in entries(&file, "end_to_end") {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        }
        for m in entries(&file, "per_layer") {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }

        let catalog = catalog();
        assert!((1.0..=60.0).contains(&catalog.run_seconds) && catalog.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&entries(&file, "workloads").len()));
        assert!((1..=16).contains(&catalog.end_to_end.len()));
        assert!((1..=128).contains(&catalog.per_layer.len()));
        let mut seen = BTreeSet::new();
        for def in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            assert!(name_ok(&def.name), "name {}", def.name);
            assert!(unit_ok(&def.unit), "unit {} of {}", def.unit, def.name);
            assert!(seen.insert(&def.name), "duplicate name {}", def.name);
        }
        for w in &catalog.workloads {
            assert!(name_ok(w) && seen.insert(w), "workload {w}");
        }
        for def in &catalog.end_to_end {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", def.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = catalog
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn exact_counts_are_held_to_one_percent_between_runs_of_one_seed() {
        for name in EXACT_COUNTS {
            let def = find(name).expect("an exact count is an end-to-end metric");
            assert!(def.bound.is_some_and(|b| b > EXACT_BOUND));
            assert_eq!(def.same_seed_bound(), Some(EXACT_BOUND));
        }
        let latency = find("threshold_p50_us").unwrap();
        assert_eq!(latency.same_seed_bound(), latency.bound);
        assert_eq!(find("net.rtt_p50_us").unwrap().same_seed_bound(), None);
    }
}

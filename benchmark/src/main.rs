//! The repo's one benchmark: four workloads that drive the stack through
//! its public functions only, check every answer, and report end-to-end
//! metrics (tracing off) or a kernel-to-wire per-layer ledger (`--trace 1`).
//! See `README.md` for the metric glossary and `../BENCHMARK.json` for the
//! contract a later change is measured against.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! … -- compare A.json[,A2.json…] B.json[,B2.json…]
//! ```

#![forbid(unsafe_code)]

mod catalog;
mod check;
mod compare;
mod data;
mod fingerprint;
mod json;
mod layers;
mod ledger;
mod live_churn;
mod paper_string;
mod report;
mod serve;
mod stats;
mod steal;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::data::Scale;
use crate::json::{Json, JsonExt};
use crate::report::Report;

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    /// Scratch space for snapshot files and live directories: this run's
    /// own [`Scratch`] directory.
    pub work_dir: PathBuf,
    /// Where trace and result files go.
    pub out_dir: PathBuf,
}

/// Epochs per timed phase: one discarded warm-up pass, then this many
/// equal epochs, the reported value being the median of their values. Ten
/// short ones rather than the issue's five: a burst of interference on the
/// host (2-8 s here) then spoils a minority of them.
pub const EPOCHS: usize = 10;

const USAGE: &str = "usage:
  ustr-benchmark run [--workload paper-string|serve-fanout|serve-wire|live-churn]
                     [--seed N] [--seconds S] [--trace 0|1] [--quick]
                     [--work-dir DIR] [--out FILE]
  ustr-benchmark compare A.json[,A2.json...] B.json[,B2.json...]";

/// A directory of this run's own inside the directory `--work-dir` names,
/// removed with everything in it when the run ends, however it ends. The
/// named directory itself may be shared (`/tmp`, a mount point chosen to
/// measure another filesystem) and is never emptied.
struct Scratch(PathBuf);

impl Scratch {
    fn create_in(base: &Path) -> Result<Self, String> {
        let dir = base.join(format!("ustr-benchmark.{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    work_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::catalog().run_seconds,
        traced: false,
        quick: false,
        work_dir: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !catalog::catalog().workloads.contains(&name) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => parsed.quick = true,
            "--work-dir" => parsed.work_dir = Some(PathBuf::from(value()?)),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    // Files stay inside the benchmark's own directory unless told otherwise.
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let scratch = Scratch::create_in(args.work_dir.as_deref().unwrap_or(&out_dir))?;
    let run_seconds = catalog::catalog().run_seconds;
    let ctx = Ctx {
        seed: args.seed,
        scale: Scale {
            // `--quick` runs the same code over a tenth of the data and a
            // twentieth of the passes.
            passes: if args.quick {
                0.05
            } else {
                args.seconds / run_seconds
            },
            quick: args.quick,
        },
        traced: args.traced,
        work_dir: scratch.0.clone(),
        out_dir,
    };

    let mut reports: Vec<Report> = Vec::new();
    for workload in &catalog::catalog().workloads {
        if args.workload.as_ref().is_some_and(|w| w != workload) {
            continue;
        }
        let report = match workload.as_str() {
            "paper-string" => paper_string::run(&ctx),
            "serve-fanout" => serve::run(&ctx, &serve::FANOUT),
            "serve-wire" => serve::run(&ctx, &serve::WIRE),
            "live-churn" => live_churn::run(&ctx),
            other => return Err(format!("BENCHMARK.json names {other}, which has no runner")),
        }?;
        println!("{}", report.render_text());
        reports.push(report);
    }

    let result = Json::obj(vec![
        ("fingerprint", fingerprint::fingerprint(&ctx.work_dir)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(ctx.traced)),
        // A quick run measures too little to be a baseline.
        ("comparable", Json::Bool(!args.quick)),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.workload.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let out = args.out.unwrap_or_else(|| {
        ctx.out_dir.join(format!(
            "{}.{}.seed{}.json",
            args.workload.as_deref().unwrap_or("all"),
            if ctx.traced { "traced" } else { "e2e" },
            ctx.seed
        ))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    drop(scratch);

    // The driver reads the last line of standard output.
    for report in &reports {
        println!("{}", report.contract_line());
    }
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    if let Err(message) = &outcome {
        eprintln!("{message}");
    }
    ExitCode::from(exit_status(&outcome))
}

/// 0 only when every operation of every workload succeeded and every
/// answer passed the correctness check; 1 for a wrong answer or a failed
/// operation (or a `compare` that found a regression); 2 for a run that
/// could not be made at all.
fn exit_status(outcome: &Result<bool, String>) -> u8 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(_) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_exits_non_zero() {
        let mut report = Report::new("serve-wire", false);
        report.op(Ok(()));
        assert_eq!(exit_status(&Ok(report.failed == 0)), 0);
        report.op(Err(
            "request 3 answered differently from the gate's reference".into(),
        ));
        assert_eq!(exit_status(&Ok(report.failed == 0)), 1);
        assert_eq!(exit_status(&Err("bind loopback: refused".into())), 2);
    }

    #[test]
    fn the_driver_flags_parse() {
        let args: Vec<String> = "--workload live-churn --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run_args(&args).unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("live-churn"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.traced),
            (7, 10.0, true)
        );
        assert!(parse_run_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_run_args(&["--seconds".into(), "0".into()]).is_err());
    }

    #[test]
    fn only_the_runs_own_scratch_directory_is_removed() {
        let base = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/scratch-test"));
        std::fs::create_dir_all(&base).unwrap();
        let neighbour = base.join("someone-elses.file");
        std::fs::write(&neighbour, "kept").unwrap();

        let scratch = Scratch::create_in(&base).unwrap();
        let inside = scratch.0.clone();
        assert_eq!(inside.parent(), Some(base.as_path()));
        std::fs::write(inside.join("x.coll"), "gone").unwrap();
        drop(scratch);

        assert!(!inside.exists());
        assert_eq!(std::fs::read_to_string(&neighbour).unwrap(), "kept");
        std::fs::remove_dir_all(&base).unwrap();
    }
}

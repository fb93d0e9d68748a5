//! `net-soak` — a sustained connection-scaling soak against a running
//! `ustr serve-net` server, built for the CI `net-soak` job.
//!
//! ```text
//! net-soak gen-docs OUT N [SEED]
//! net-soak run HOST:PORT [--conns 256] [--seconds 30] [--batch 16] \
//!          [--out BENCH_net.json]
//! ```
//!
//! `gen-docs` writes a generated collection totalling `N` positions (the
//! paper's `n`) in the CLI's text format, one uncertain string per line,
//! so the job can feed the *release `serve-net` binary* a §8.1 protein
//! corpus (`generate_collection`). `run` opens `--conns` connections,
//! pipelines mixed-mode batches on every one of them until the deadline,
//! then closes each session with a `Goodbye`, and writes a JSON summary
//! to `--out`.
//!
//! The job's three assertions map to exit codes:
//! - **zero error frames** — any per-request error (or failed round trip)
//!   exits 1, and so does a run in which every answer was empty (a soak
//!   whose patterns match nothing exercises no result encoding at all);
//! - **no stuck connections** — a watchdog thread force-exits 3 if the
//!   load has not wound down within a grace period after the deadline
//!   (a connection wedged in a read would otherwise hang the job until
//!   the CI-level timeout, with no artifact);
//! - **clean draining shutdown** — every session ends with `Goodbye`, so
//!   a `--max-conns`-bounded server drains and exits 0 on its own; the
//!   job asserts that by waiting on the server process.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ustr_net::{NetClient, QueryRequest, QueryResponse};
use ustr_workload::{generate_collection, DatasetConfig};

/// Extra time the load gets to wind down (drain pipelined responses and
/// say `Goodbye`) after the deadline before the watchdog declares the run
/// stuck.
const WATCHDOG_GRACE: Duration = Duration::from_secs(60);

/// The mixed-mode request cycle every connection pipelines. `gen-docs`
/// writes upper-case protein text, so the patterns pair its two most
/// abundant residues (L 9.7%, A 8.3%): they occur in any corpus of a few
/// hundred positions, and the answers carry hits.
fn modes() -> Vec<QueryRequest> {
    vec![
        QueryRequest::Threshold {
            pattern: b"LA".to_vec(),
            tau: 0.3,
        },
        QueryRequest::TopK {
            pattern: b"LA".to_vec(),
            k: 5,
        },
        QueryRequest::Listing {
            pattern: b"AL".to_vec(),
            tau: 0.2,
        },
        QueryRequest::Approx {
            pattern: b"LA".to_vec(),
            tau: 0.3,
        },
    ]
}

fn is_non_empty(response: &QueryResponse) -> bool {
    match response {
        QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => !hits.is_empty(),
        QueryResponse::TopK(top) => !top.is_empty(),
        QueryResponse::Listing(listed) => !listed.is_empty(),
    }
}

#[derive(Default)]
struct ConnOutcome {
    answered: usize,
    non_empty: usize,
    errors: usize,
}

/// One soak connection: pipelined mixed-mode batches until `deadline`,
/// then a graceful `Goodbye`. Wire failures count as errors rather than
/// panicking, so one bad connection cannot hide the others' tallies.
fn drive(addr: &str, batch: &[QueryRequest], deadline: Instant) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("net-soak: connect {addr}: {e}");
            out.errors += 1;
            return out;
        }
    };
    while Instant::now() < deadline {
        match client.query_requests(batch) {
            Ok(answers) => {
                for a in &answers {
                    match a {
                        Ok(response) => {
                            out.answered += 1;
                            out.non_empty += usize::from(is_non_empty(response));
                        }
                        Err(_) => out.errors += 1,
                    }
                }
            }
            Err(e) => {
                eprintln!("net-soak: batch failed: {e}");
                out.errors += 1;
                return out;
            }
        }
    }
    let _ = client.goodbye();
    out
}

fn gen_docs(args: &[String]) -> Result<String, String> {
    let out_path = args.first().ok_or("gen-docs needs OUT and N")?;
    let n: usize = args
        .get(1)
        .ok_or("gen-docs needs OUT and N")?
        .parse()
        .map_err(|_| "invalid N".to_string())?;
    let seed: u64 = match args.get(2) {
        Some(raw) => raw.parse().map_err(|_| "invalid SEED".to_string())?,
        None => 43,
    };
    let docs = generate_collection(&DatasetConfig::new(n, 0.25, seed));
    let mut text = String::new();
    for d in &docs {
        text.push_str(&d.to_string());
        text.push('\n');
    }
    std::fs::write(out_path, text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(format!("wrote {} docs to {out_path}", docs.len()))
}

fn run_soak(args: &[String]) -> Result<String, String> {
    let addr = args.first().ok_or("run needs HOST:PORT")?.clone();
    let mut conns = 256usize;
    let mut seconds = 30u64;
    let mut batch_size = 16usize;
    let mut out_path = "BENCH_net.json".to_string();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--conns" => {
                conns = value("--conns")?
                    .parse()
                    .map_err(|_| "invalid --conns".to_string())?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "invalid --seconds".to_string())?;
            }
            "--batch" => {
                batch_size = value("--batch")?
                    .parse()
                    .map_err(|_| "invalid --batch".to_string())?;
            }
            "--out" => out_path = value("--out")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    let modes = modes();
    let batch: Vec<QueryRequest> = (0..batch_size.max(1))
        .map(|i| modes[i % modes.len()].clone())
        .collect();

    // The watchdog turns a wedged connection (stuck in a read, never
    // reaching its deadline) into a crisp exit code instead of a hung job.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        let limit = Duration::from_secs(seconds) + WATCHDOG_GRACE;
        std::thread::spawn(move || {
            std::thread::sleep(limit);
            // ordering: Relaxed — a plain completion flag; the watchdog
            // only ever reads it after a long sleep.
            if !done.load(Ordering::Relaxed) {
                eprintln!(
                    "net-soak: load did not finish within {}s after the deadline — \
                     stuck connection(s)",
                    WATCHDOG_GRACE.as_secs()
                );
                std::process::exit(3);
            }
        });
    }

    println!("net-soak: {conns} connection(s) against {addr} for {seconds}s");
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let addr = &addr;
                let batch = &batch;
                scope.spawn(move || drive(addr, batch, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(ConnOutcome {
                    errors: 1,
                    ..ConnOutcome::default()
                })
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    // ordering: Relaxed — same plain completion flag as above.
    done.store(true, Ordering::Relaxed);

    let answered: usize = outcomes.iter().map(|o| o.answered).sum();
    let non_empty: usize = outcomes.iter().map(|o| o.non_empty).sum();
    let errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let rps = answered as f64 / wall;
    let json = format!(
        "{{\n  \"soak\": {{\n    \"conns\": {conns},\n    \"seconds\": {seconds},\n    \
         \"wall_seconds\": {wall:.3},\n    \"requests\": {answered},\n    \
         \"non_empty_answers\": {non_empty},\n    \
         \"throughput_rps\": {rps:.1},\n    \"error_frames\": {errors}\n  }}\n}}\n",
    );
    let mut file =
        std::fs::File::create(&out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    file.write_all(json.as_bytes())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    print!("{json}");

    if errors > 0 {
        return Err(format!("{errors} error frame(s) during the soak"));
    }
    if non_empty == 0 {
        return Err(format!(
            "all {answered} answer(s) were empty: the soak moved no results"
        ));
    }
    Ok(format!(
        "{answered} request(s) ({non_empty} with hits) over {conns} connection(s) in \
         {wall:.1}s ({rps:.0} req/s), zero error frames"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-docs") => gen_docs(&args[1..]),
        Some("run") => run_soak(&args[1..]),
        _ => Err("usage: net-soak (gen-docs OUT N [SEED] | run HOST:PORT \
                  [--conns N] [--seconds S] [--batch B] [--out PATH])"
            .to_string()),
    };
    match result {
        Ok(summary) => {
            println!("net-soak: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("net-soak: {e}");
            ExitCode::FAILURE
        }
    }
}

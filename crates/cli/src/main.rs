//! `ustr` — command-line front end for the uncertain-strings workspace.
//!
//! ```text
//! ustr generate --n 10000 --theta 0.3 --seed 42 --out data.ustr
//! ustr search data.ustr PATTERN --tau 0.3 [--tau-min 0.1]
//! ustr search --index data.idx PATTERN --tau 0.3
//! ustr top data.ustr PATTERN --k 5 [--tau-min 0.1]
//! ustr list collection.ustr PATTERN --tau 0.3   (one document per line)
//! ustr stats data.ustr [--tau-min 0.1]
//! ustr stats --live HOST:PORT   (scrape a running serve-net server)
//! ustr build-index data.ustr --out data.idx [--tau-min 0.1]
//! ustr build-collection collection.ustr --out data.coll [--tau-min 0.05]
//! ustr serve-batch (LIVEDIR | FILE.coll | FILE) queries.txt --threads 4
//! ustr trace data.coll queries.txt --sample-rate 1.0 --out traces.json
//! ```
//!
//! Files hold uncertain strings in the text format of
//! [`UncertainString::parse`]; `generate` writes one. For `list`, each
//! non-empty line is one document. `build-index` snapshots a built §5
//! substring index to disk (`ustr-store` format), and `search --index`
//! loads one instead of rebuilding.
//! `build-collection` packs a whole collection (one substring index per
//! document) into one `.coll` snapshot. `serve-batch` answers a query file
//! over a live directory, a `.coll` collection snapshot or a plain
//! collection file, one request at a time, each fanned out over the shards
//! or segments; query lines are either the legacy
//! `PATTERN TAU` (threshold search) or mixed-mode
//! `search|top|list|approx PATTERN ARG` lines, where `ARG` is τ (or K for
//! `top`); an `approx` line is answered exactly, which keeps §7's
//! ε-sandwich for every ε. `--quiet` on any query command prints result
//! rows only, for scripting. A command refuses any option its usage line
//! does not name.

#![forbid(unsafe_code)]

mod args;

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;

use args::Args;
use ustr_core::{Index, ListingIndex};
use ustr_live::{LiveConfig, LiveService};
use ustr_service::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use ustr_store::{Snapshot, MAGIC};
use ustr_uncertain::UncertainString;
use ustr_workload::{generate_string, DatasetConfig};

/// `(subcommand, usage, one-line description)` for every command.
const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "generate",
        "ustr generate --n N --theta T --seed S [--out FILE]",
        "write a synthetic uncertain string",
    ),
    (
        "search",
        "ustr search (FILE | --index FILE.idx) PATTERN --tau T [--tau-min T0] [--quiet]",
        "probable occurrences of PATTERN",
    ),
    (
        "top",
        "ustr top FILE PATTERN --k K [--tau-min T0] [--quiet]",
        "the K most probable occurrences",
    ),
    (
        "list",
        "ustr list FILE PATTERN --tau T [--tau-min T0] [--quiet]",
        "documents containing PATTERN",
    ),
    (
        "stats",
        "ustr stats (FILE | --live HOST:PORT) [--tau-min T0] [--json]",
        "construction statistics, a .coll/.idx manifest, or a live server's telemetry",
    ),
    (
        "build-index",
        "ustr build-index FILE --out FILE.idx [--tau-min T0] [--quiet]",
        "build and snapshot a substring index",
    ),
    (
        "build-collection",
        "ustr build-collection FILE --out FILE.coll [--tau-min T0] [--quiet]",
        "pack a collection into one snapshot file",
    ),
    (
        "serve-batch",
        "ustr serve-batch (LIVEDIR | FILE.coll | FILE) QUERIES.txt [--threads N] [--shards S] \
         [--cache C] [--tau-min T0] [--seal-threshold N] [--compact-min N] \
         [--slow-query-us N] [--quiet]",
        "answer a (mixed-mode) query file, one request at a time, each fanned over the \
         shards or segments",
    ),
    (
        "ingest",
        "ustr ingest LIVEDIR FILE [--tau-min T0] [--seal-threshold N] [--compact-min N] \
         [--threads N] [--cache C] [--quiet]",
        "append documents to a live collection (WAL + memtable)",
    ),
    (
        "delete",
        "ustr delete LIVEDIR ID... [--quiet]",
        "tombstone live documents by stable id",
    ),
    (
        "compact",
        "ustr compact LIVEDIR [--quiet]",
        "seal the memtable and merge all segments into one",
    ),
    (
        "serve-net",
        "ustr serve-net (LIVEDIR | FILE.coll | FILE) --addr HOST:PORT \
         [--threads N] [--io-threads N] [--inflight N] [--max-conns N] [--port-file PATH] \
         [--metrics-addr HOST:PORT] [--trace-sample F] [--slow-query-us N] \
         [--idle-timeout-s N] [--error-budget N] [--shards S] [--cache C] [--tau-min T0] \
         [--seal-threshold N] [--compact-min N] [--quiet]",
        "serve queries over TCP (ustr-net wire protocol): --threads query workers in \
         all (default one per core) beside the --io-threads event loops",
    ),
    (
        "client",
        "ustr client HOST:PORT QUERIES.txt [--trace] [--timeout-ms N] [--retries N] [--quiet]",
        "answer a (mixed-mode) query batch over a TCP connection",
    ),
    (
        "trace",
        "ustr trace (LIVEDIR | FILE.coll | FILE) QUERIES.txt \
         [--sample-rate F] [--out FILE.json] [--threads N] [--shards S] [--cache C] \
         [--tau-min T0] [--seal-threshold N] [--compact-min N] [--slow-query-us N] [--quiet]",
        "answer a query file one request at a time with tracing on and export Chrome trace JSON",
    ),
];

/// Usage text for one subcommand, or the full listing for unknown input.
fn usage_for(command: Option<&str>) -> String {
    if let Some(cmd) = command {
        if let Some((_, usage, _)) = COMMANDS.iter().find(|(name, _, _)| *name == cmd) {
            return format!("usage: {usage}");
        }
    }
    let mut out = String::from("usage:\n");
    for (_, usage, what) in COMMANDS {
        out.push_str(&format!("  {usage}\n      {what}\n"));
    }
    out.push_str("  ustr help");
    out
}

/// Writes `text` and a newline to stdout. A reader that went away
/// (`ustr stats c.coll | head`) has all it wanted: that is not an error.
fn print_line(text: &str) -> io::Result<()> {
    match writeln!(io::stdout().lock(), "{text}") {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(output) if output.is_empty() => ExitCode::SUCCESS,
        Ok(output) => match print_line(&output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write to stdout: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            // Only the failing subcommand's usage, not the whole blob.
            let cmd = argv.first().map(|s| s.as_str());
            eprintln!("error: {e}\n{}", usage_for(cmd));
            ExitCode::FAILURE
        }
    }
}

/// Refuses an option or flag that the command's usage line in [`COMMANDS`]
/// does not name: a typo (`--tua`) or an option of another command must
/// not leave a default silently in force.
fn check_options(args: &Args) -> Result<(), String> {
    let command = &args.command;
    let Some((_, usage, _)) = COMMANDS.iter().find(|(name, _, _)| name == command) else {
        return Ok(());
    };
    let named = |option: &str| {
        let mut words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        words.any(|word| word.strip_prefix("--") == Some(option))
    };
    match args.names().find(|option| !named(option)) {
        Some(option) => Err(format!("unknown option --{option} for `ustr {command}`")),
        None => Ok(()),
    }
}

/// Dispatches a parsed command line; returns the text to print.
fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    check_options(&args)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "search" => cmd_search(&args),
        "top" => cmd_top(&args),
        "list" => cmd_list(&args),
        "stats" => cmd_stats(&args),
        "build-index" => cmd_build_index(&args),
        "build-collection" => cmd_build_collection(&args),
        "serve-batch" => cmd_serve_batch(&args),
        "ingest" => cmd_ingest(&args),
        "delete" => cmd_delete(&args),
        "compact" => cmd_compact(&args),
        "serve-net" => cmd_serve_net(&args),
        "client" => cmd_client(&args),
        "trace" => cmd_trace(&args),
        "help" | "--help" => Ok(usage_for(None)),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load_string(path: &str) -> Result<UncertainString, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Newlines are treated as whitespace so long strings can wrap.
    let joined = text.replace(['\n', '\r'], " ");
    UncertainString::parse(joined.trim()).map_err(|e| format!("{path}: {e}"))
}

fn load_collection(path: &str) -> Result<Vec<UncertainString>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .enumerate()
        .map(|(i, l)| UncertainString::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn cmd_generate(args: &Args) -> Result<String, String> {
    let n: usize = args.get_parsed("n", 10_000)?;
    let theta: f64 = args.get_parsed("theta", 0.2)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let s = generate_string(&DatasetConfig::new(n, theta, seed));
    let rendered = s.to_string().replace(" | ", " |\n");
    match args.get("out") {
        Some(path) => {
            fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "wrote {} positions (theta={theta}, seed={seed}) to {path}",
                s.len()
            ))
        }
        None => Ok(rendered),
    }
}

fn cmd_search(args: &Args) -> Result<String, String> {
    let quiet = args.flag("quiet");
    let tau: f64 = args.get_parsed("tau", 0.5)?;
    // With --index the snapshot supplies the text and tau_min; otherwise the
    // index is built from the uncertain-string file.
    let (index, pattern) = match args.get("index") {
        Some(_) if args.get("tau-min").is_some() => {
            return Err("--tau-min applies only when building from FILE; \
                 a snapshot carries its own tau_min"
                .to_string())
        }
        Some(idx_path) => {
            let index = Index::load(idx_path).map_err(|e| format!("{idx_path}: {e}"))?;
            (index, args.positional(0, "PATTERN")?.as_bytes().to_vec())
        }
        None => {
            let path = args.positional(0, "FILE")?;
            let pattern = args.positional(1, "PATTERN")?.as_bytes().to_vec();
            let tau_min: f64 = args.get_parsed("tau-min", tau.min(0.1))?;
            let s = load_string(path)?;
            let index = Index::build(&s, tau_min).map_err(|e| e.to_string())?;
            (index, pattern)
        }
    };
    let hits = index.query(&pattern, tau).map_err(|e| e.to_string())?;
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "{} occurrence(s) of {:?} with probability >= {tau}\n",
            hits.len(),
            String::from_utf8_lossy(&pattern)
        ));
    }
    for &(pos, p) in hits.hits() {
        if quiet {
            out.push_str(&format!("{pos} {p:.9}\n"));
        } else {
            out.push_str(&format!("  position {pos:>8}  p = {p:.6}\n"));
        }
    }
    Ok(out.trim_end().to_string())
}

fn cmd_build_index(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "FILE")?;
    let out_path = args
        .get("out")
        .ok_or_else(|| "missing required option --out".to_string())?;
    let tau_min: f64 = args.get_parsed("tau-min", 0.1)?;
    let index = Index::build(&load_string(path)?, tau_min).map_err(|e| e.to_string())?;
    index.save(out_path).map_err(|e| e.to_string())?;
    if args.flag("quiet") {
        return Ok(String::new());
    }
    let stats = index.stats();
    let bytes = fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "wrote {out_path}: {} source positions, {} factors, tau_min {tau_min}, \
         {bytes} bytes (built in {:?})",
        stats.source_len, stats.num_factors, stats.build_time
    ))
}

fn cmd_build_collection(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "FILE")?;
    let out_path = args
        .get("out")
        .ok_or_else(|| "missing required option --out".to_string())?;
    let tau_min: f64 = args.get_parsed("tau-min", 0.05)?;
    // The file records no shard plan: whoever loads it shards it.
    let config = ServiceConfig {
        threads: 1,
        shards: 1,
        cache_capacity: 0,
        epsilon: None,
    };
    let docs = load_collection(path)?;
    let service = QueryService::build(&docs, tau_min, config).map_err(|e| e.to_string())?;
    service
        .save_collection(out_path)
        .map_err(|e| e.to_string())?;
    if args.flag("quiet") {
        return Ok(String::new());
    }
    let bytes = fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "wrote {out_path}: {} document(s), {bytes} bytes",
        service.num_docs(),
    ))
}

/// Parses a (mixed-mode) queries file. Each non-comment line is either the
/// legacy `PATTERN TAU` (threshold search) or an explicit mode line:
/// `search PATTERN TAU`, `top PATTERN K`, `list PATTERN TAU`,
/// `approx PATTERN TAU`.
fn load_queries(path: &str) -> Result<Vec<QueryRequest>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let bad = |what: &str| format!("{path}:{}: invalid {what}", lineno + 1);
        let tau_of = |tok: &str| tok.parse::<f64>().map_err(|_| bad("TAU"));
        let request = match tokens.as_slice() {
            [pattern, tau] | ["search", pattern, tau] => QueryRequest::Threshold {
                pattern: pattern.as_bytes().to_vec(),
                tau: tau_of(tau)?,
            },
            ["top", pattern, k] => QueryRequest::TopK {
                pattern: pattern.as_bytes().to_vec(),
                k: k.parse().map_err(|_| bad("K"))?,
            },
            ["list", pattern, tau] => QueryRequest::Listing {
                pattern: pattern.as_bytes().to_vec(),
                tau: tau_of(tau)?,
            },
            ["approx", pattern, tau] => QueryRequest::Approx {
                pattern: pattern.as_bytes().to_vec(),
                tau: tau_of(tau)?,
            },
            _ => {
                return Err(format!(
                    "{path}:{}: expected 'PATTERN TAU' or 'search|top|list|approx PATTERN ARG'",
                    lineno + 1
                ))
            }
        };
        queries.push(request);
    }
    Ok(queries)
}

/// Human-readable one-line description of a request (for batch output).
fn describe_request(req: &QueryRequest) -> String {
    match req {
        QueryRequest::Threshold { pattern, tau } => {
            format!("search {:?} tau={tau}", String::from_utf8_lossy(pattern))
        }
        QueryRequest::TopK { pattern, k } => {
            format!("top {:?} k={k}", String::from_utf8_lossy(pattern))
        }
        QueryRequest::Listing { pattern, tau } => {
            format!("list {:?} tau={tau}", String::from_utf8_lossy(pattern))
        }
        QueryRequest::Approx { pattern, tau } => {
            format!("approx {:?} tau={tau}", String::from_utf8_lossy(pattern))
        }
    }
}

/// Detects a *static* source's shape (`.coll` snapshot or plain collection
/// text file), rejects `--tau-min` for snapshot sources (it would be
/// silently ignored — snapshots carry their own), and loads or builds the
/// service. Shared by `serve-batch` and `serve-net`.
fn load_static_service(source: &str, args: &Args) -> Result<QueryService, String> {
    let is_dir = fs::metadata(source)
        .map_err(|e| format!("cannot read {source}: {e}"))?
        .is_dir();
    if is_dir {
        return Err(format!(
            "{source} is a directory, not a collection: pack one with `ustr build-collection`"
        ));
    }
    let from_snapshots = file_magic(source) == MAGIC;
    if from_snapshots && args.get("tau-min").is_some() {
        return Err(
            "--tau-min applies only when building from a collection file; \
             snapshots carry their own tau_min"
                .to_string(),
        );
    }
    let config = ServiceConfig {
        threads: args.get_parsed("threads", 0usize)?,
        shards: args.get_parsed("shards", 0usize)?,
        cache_capacity: args.get_parsed("cache", 1024usize)?,
        epsilon: None,
    };
    if from_snapshots {
        QueryService::load_collection(source, config).map_err(|e| format!("{source}: {e}"))
    } else {
        let docs = load_collection(source)?;
        let tau_min: f64 = args.get_parsed("tau-min", 0.05)?;
        QueryService::build(&docs, tau_min, config).map_err(|e| e.to_string())
    }
}

/// Applies `--slow-query-us` (when given) to an engine's slow-query log.
fn apply_slow_query_threshold(args: &Args, log: &ustr_obs::SlowQueryLog) -> Result<(), String> {
    if args.get("slow-query-us").is_some() {
        log.set_threshold_us(args.get_parsed("slow-query-us", ustr_obs::DEFAULT_SLOW_QUERY_US)?);
    }
    Ok(())
}

/// `serve-batch`: opens the source through the same backend `serve-net`
/// serves, answers the query file in-process — one request at a time, each
/// fanned out over the shards or segments — and renders the answers under a
/// summary of the run.
fn cmd_serve_batch(args: &Args) -> Result<String, String> {
    let source = args.positional(0, "SOURCE")?;
    let queries_path = args.positional(1, "QUERIES.txt")?;
    let quiet = args.flag("quiet");
    let queries = load_queries(queries_path)?;
    let start = std::time::Instant::now();
    let (backend, what) = net_backend(source, args)?;
    let ready = start.elapsed();

    let t0 = std::time::Instant::now();
    let results: Vec<_> = queries.iter().map(|q| backend.answer(q, None).0).collect();
    let answered = t0.elapsed();

    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "{what}; ready in {ready:?}, {} query(ies) answered in {answered:?}\n",
            queries.len(),
        ));
        let snap = backend.metrics_snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        out.push_str(&cache_summary(
            count("service.cache.hits"),
            count("service.cache.misses"),
        ));
        let slow = backend.slow_queries(8);
        if !slow.is_empty() {
            out.push_str("slow queries (worst first):\n");
            for line in slow {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    render_results(&mut out, &queries, &results, quiet);
    Ok(out.trim_end().to_string())
}

/// One summary line for the result cache: hits, misses, and hit ratio.
/// The counters are lifetime totals for the service instance (its
/// `service.cache.*` metrics), which for a CLI invocation means totals
/// across its query file: a repeated line is a cache hit.
fn cache_summary(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    let ratio = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64 * 100.0
    };
    format!("cache: {hits} hit(s), {misses} miss(es), hit ratio {ratio:.1}%\n")
}

/// Renders batch answers (shared by `serve-batch` and `client` — the error
/// type is local for in-process serving and the transported `RemoteError`
/// for TCP answers).
fn render_results<E: std::fmt::Display>(
    out: &mut String,
    queries: &[QueryRequest],
    results: &[Result<QueryResponse, E>],
    quiet: bool,
) {
    for (q, (request, result)) in queries.iter().zip(results.iter()).enumerate() {
        match result {
            Ok(QueryResponse::Threshold(hits)) | Ok(QueryResponse::Approx(hits)) => {
                if !quiet {
                    out.push_str(&format!(
                        "query {q} {}: {} document(s)\n",
                        describe_request(request),
                        hits.len()
                    ));
                }
                for doc_hits in hits.iter() {
                    for &(pos, p) in &doc_hits.hits {
                        if quiet {
                            out.push_str(&format!("{q} {} {pos} {p:.9}\n", doc_hits.doc));
                        } else {
                            out.push_str(&format!(
                                "  doc {:>6} position {pos:>8} p = {p:.6}\n",
                                doc_hits.doc
                            ));
                        }
                    }
                }
            }
            Ok(QueryResponse::TopK(top)) => {
                if !quiet {
                    out.push_str(&format!(
                        "query {q} {}: {} occurrence(s)\n",
                        describe_request(request),
                        top.len()
                    ));
                }
                for (rank, hit) in top.iter().enumerate() {
                    if quiet {
                        out.push_str(&format!("{q} {} {} {:.9}\n", hit.doc, hit.pos, hit.prob));
                    } else {
                        out.push_str(&format!(
                            "  #{:<3} doc {:>6} position {:>8} p = {:.6}\n",
                            rank + 1,
                            hit.doc,
                            hit.pos,
                            hit.prob
                        ));
                    }
                }
            }
            Ok(QueryResponse::Listing(listed)) => {
                if !quiet {
                    out.push_str(&format!(
                        "query {q} {}: {} document(s)\n",
                        describe_request(request),
                        listed.len()
                    ));
                }
                for hit in listed.iter() {
                    if quiet {
                        out.push_str(&format!("{q} {} {:.9}\n", hit.doc, hit.relevance));
                    } else {
                        out.push_str(&format!(
                            "  doc {:>6} Rel_max = {:.6}\n",
                            hit.doc, hit.relevance
                        ));
                    }
                }
            }
            Err(e) => out.push_str(&format!(
                "query {q} {}: error: {e}\n",
                describe_request(request)
            )),
        }
    }
}

/// Builds a [`LiveConfig`] from the shared live-collection options. An
/// existing live directory keeps the τmin its manifest recorded, so over
/// one `--tau-min` is refused, not ignored.
fn live_config(dir: &str, args: &Args) -> Result<LiveConfig, String> {
    if require_live_dir(dir).is_ok() && args.get("tau-min").is_some() {
        return Err(format!(
            "--tau-min applies only when creating a live directory; \
             {dir} keeps the value it was created with"
        ));
    }
    Ok(LiveConfig {
        threads: args.get_parsed("threads", 0usize)?,
        cache_capacity: args.get_parsed("cache", 1024usize)?,
        tau_min: args.get_parsed("tau-min", 0.05)?,
        epsilon: None,
        seal_threshold: args.get_parsed("seal-threshold", 64usize)?,
        compact_min_segments: args.get_parsed("compact-min", 4usize)?,
    })
}

fn cmd_ingest(args: &Args) -> Result<String, String> {
    let dir = args.positional(0, "LIVEDIR")?;
    let file = args.positional(1, "FILE")?;
    let docs = load_collection(file)?;
    let live = LiveService::open(dir, live_config(dir, args)?).map_err(|e| e.to_string())?;
    let mut first = None;
    let mut last = None;
    for d in docs {
        let id = live.insert(d).map_err(|e| e.to_string())?;
        first.get_or_insert(id);
        last = Some(id);
    }
    live.wait_idle().map_err(|e| e.to_string())?;
    if args.flag("quiet") {
        return Ok(match (first, last) {
            (Some(a), Some(b)) => format!("{a} {b}"),
            _ => String::new(),
        });
    }
    Ok(match (first, last) {
        (Some(a), Some(b)) => format!(
            "ingested documents {a}..={b}: {} live document(s), {} sealed segment(s), \
             {} memtable document(s)",
            live.num_docs(),
            live.num_segments(),
            live.memtable_len(),
        ),
        _ => "nothing to ingest".to_string(),
    })
}

/// Ensures `dir` already holds a live collection. Administrative commands
/// (`delete`, `compact`) must not materialize a brand-new
/// live directory on a mistyped path — only `ingest` creates one.
fn require_live_dir(dir: &str) -> Result<(), String> {
    let p = std::path::Path::new(dir);
    if p.join(ustr_live::MANIFEST_FILE).exists() || p.join(ustr_live::WAL_FILE).exists() {
        Ok(())
    } else {
        Err(format!(
            "{dir} is not a live collection directory (no MANIFEST or wal.log); \
             create one with `ustr ingest`"
        ))
    }
}

fn cmd_delete(args: &Args) -> Result<String, String> {
    let dir = args.positional(0, "LIVEDIR")?;
    require_live_dir(dir)?;
    if args.positional.len() < 2 {
        return Err("missing argument: ID".to_string());
    }
    let ids: Vec<u64> = args.positional[1..]
        .iter()
        .map(|s| s.parse().map_err(|_| format!("invalid document id {s:?}")))
        .collect::<Result<_, _>>()?;
    let live = LiveService::open(dir, LiveConfig::default()).map_err(|e| e.to_string())?;
    for id in &ids {
        live.delete(*id).map_err(|e| e.to_string())?;
    }
    if args.flag("quiet") {
        return Ok(String::new());
    }
    Ok(format!(
        "tombstoned {} document(s); {} live document(s) remain",
        ids.len(),
        live.num_docs()
    ))
}

fn cmd_compact(args: &Args) -> Result<String, String> {
    let dir = args.positional(0, "LIVEDIR")?;
    require_live_dir(dir)?;
    let live = LiveService::open(dir, LiveConfig::default()).map_err(|e| e.to_string())?;
    let before = live.num_segments();
    live.flush().map_err(|e| e.to_string())?;
    live.compact().map_err(|e| e.to_string())?;
    live.wait_idle().map_err(|e| e.to_string())?;
    if args.flag("quiet") {
        return Ok(String::new());
    }
    Ok(format!(
        "compacted {before} segment(s) (+ memtable) into {}; {} live document(s)",
        live.num_segments(),
        live.num_docs()
    ))
}

/// Opens the query backend every serving command answers from — a live
/// directory, a `.coll` collection snapshot, or a plain collection text
/// file — and describes it for the command's summary line.
fn net_backend(
    source: &str,
    args: &Args,
) -> Result<(std::sync::Arc<dyn ustr_net::QueryBackend>, String), String> {
    use std::sync::Arc;
    // Flag validation is `live_config`'s for a live directory and
    // `load_static_service`'s for every static shape.
    if require_live_dir(source).is_ok() {
        let live =
            LiveService::open(source, live_config(source, args)?).map_err(|e| e.to_string())?;
        apply_slow_query_threshold(args, live.slow_log())?;
        let what = format!(
            "live directory {source} ({} live document(s): {} sealed segment(s) + {} memtable \
             document(s))",
            live.num_docs(),
            live.num_segments(),
            live.memtable_len(),
        );
        return Ok((Arc::new(live), what));
    }
    let service = load_static_service(source, args)?;
    apply_slow_query_threshold(args, service.slow_log())?;
    let what = format!(
        "{source} ({} document(s) in {} shard(s), {} thread(s))",
        service.num_docs(),
        service.num_shards(),
        service.threads(),
    );
    Ok((Arc::new(service), what))
}

/// Parses a sampling-fraction flag (`0.0..=1.0`) into the tracer's integer
/// parts-per-[`ustr_obs::SAMPLE_SCALE`] rate. The float is a CLI
/// convenience only: the tracer's sampling decision itself is pure integer
/// arithmetic (see INVARIANTS.md on deterministic samplers).
fn sample_permyriad(args: &Args, flag: &str) -> Result<u32, String> {
    let rate: f64 = args.get_parsed(flag, 1.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--{flag} must be within 0.0..=1.0, got {rate}"));
    }
    Ok((rate * f64::from(ustr_obs::SAMPLE_SCALE)).round() as u32)
}

/// A line a server prints while it runs: nobody reading it is no reason to
/// stop serving.
fn banner(text: &str) {
    let _ = print_line(text);
}

fn cmd_serve_net(args: &Args) -> Result<String, String> {
    let source = args.positional(0, "SOURCE")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let quiet = args.flag("quiet");
    let (backend, what) = net_backend(source, args)?;
    // --trace-sample turns the backend engine's tracer on before the first
    // connection lands, so every served query is eligible for sampling.
    if args.get("trace-sample").is_some() {
        let permyriad = sample_permyriad(args, "trace-sample")?;
        backend
            .tracer()
            .ok_or_else(|| "this backend has no tracer to sample".to_string())?
            .set_sample_permyriad(permyriad);
    }
    // --idle-timeout-s 0 (the default) keeps idle sessions forever;
    // --error-budget 0 (the default) never closes on failing requests.
    let idle_timeout_s = args.get_parsed("idle-timeout-s", 0u64)?;
    // --threads sized the backend's pool in `net_backend`: the one set of
    // query workers this process runs. The server adds event loops only.
    let config = ustr_net::ServerConfig {
        io_threads: args.get_parsed("io-threads", 0usize)?,
        inflight: args.get_parsed("inflight", 64usize)?,
        max_conns: args.get_parsed("max-conns", 0usize)?,
        idle_timeout: (idle_timeout_s > 0).then(|| std::time::Duration::from_secs(idle_timeout_s)),
        error_budget: args.get_parsed("error-budget", 0u32)?,
        ..ustr_net::ServerConfig::default()
    };
    let max_conns = config.max_conns;
    let server = ustr_net::NetServer::serve(addr, backend, config)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr();
    // The listening line (and optional port file) must land *before* the
    // server blocks, so scripts can discover an ephemeral port.
    if let Some(path) = args.get("port-file") {
        fs::write(path, format!("{bound}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Optional plaintext exposition endpoint: kernel totals + this
    // server's (and its backend's) instance metrics, scraped over HTTP
    // while the query port serves traffic. The same
    // endpoint serves the backend's finished traces as Chrome trace JSON
    // on /traces (an empty valid document until sampling is on).
    let _metrics_endpoint = match args.get("metrics-addr") {
        Some(maddr) => {
            let server_source = server.metrics_source();
            let source: ustr_obs::SnapshotFn = std::sync::Arc::new(move || {
                let mut snap = server_source();
                let k = ustr_uncertain::kstats::kernel_totals();
                snap.counters
                    .insert("kernel.candidates".into(), k.candidates);
                snap.counters.insert("kernel.verified".into(), k.verified);
                snap
            });
            let traces: ustr_obs::TextFn = std::sync::Arc::new(server.trace_source());
            let endpoint = ustr_obs::MetricsServer::serve_routes(maddr, source, Some(traces))
                .map_err(|e| format!("bind metrics {maddr}: {e}"))?;
            if !quiet {
                let at = endpoint.local_addr();
                banner(&format!(
                    "metrics on http://{at}/metrics\ntraces  on http://{at}/traces"
                ));
            }
            Some(endpoint)
        }
        None => None,
    };
    if !quiet {
        banner(&format!(
            "serving {what} on {bound} (ustr-net protocol v{})",
            ustr_net::PROTOCOL_VERSION
        ));
        if max_conns > 0 {
            banner(&format!("will shut down after {max_conns} connection(s)"));
        }
    }
    server.wait();
    server.shutdown();
    if quiet {
        return Ok(String::new());
    }
    let snap = server.metrics_snapshot();
    let total = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    Ok(format!(
        "served {what} on {bound}: {} connection(s), {} request(s), \
         {} bytes in, {} bytes out; shut down cleanly",
        total("net.conns_accepted"),
        total("net.requests"),
        total("net.bytes_in"),
        total("net.bytes_out"),
    ))
}

fn cmd_client(args: &Args) -> Result<String, String> {
    let addr = args.positional(0, "HOST:PORT")?;
    let queries_path = args.positional(1, "QUERIES.txt")?;
    let quiet = args.flag("quiet");
    let traced = args.flag("trace");
    // --timeout-ms puts one deadline on connect, reads, and writes;
    // --retries N allows N reconnect-and-retry rounds past the first try.
    let timeout_ms = args.get_parsed("timeout-ms", 0u64)?;
    let retries = args.get_parsed("retries", 0u32)?;
    if traced && retries > 0 {
        return Err("--retries applies to untraced batches only (drop --trace)".into());
    }
    let deadline = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let config = ustr_net::ClientConfig {
        connect_timeout: deadline,
        read_timeout: deadline,
        write_timeout: deadline,
        ..ustr_net::ClientConfig::default()
    };
    let queries = load_queries(queries_path)?;
    let t0 = std::time::Instant::now();
    // What a branch has to say besides the answers, under the header.
    let mut notes = String::new();
    let (info, results, answered) = if retries > 0 {
        let policy = ustr_net::RetryPolicy {
            max_attempts: retries + 1,
            ..ustr_net::RetryPolicy::default()
        };
        let mut client = ustr_net::ResilientClient::new(addr.to_string(), policy, config);
        let results = client
            .query_requests(&queries)
            .map_err(|e| format!("{addr}: {e}"))?;
        let info = client.server_info().map_err(|e| format!("{addr}: {e}"))?;
        let stats = client.stats();
        if stats.retries > 0 {
            notes = format!(
                "resilience: {} retry(ies), {} reconnect(s), {} timeout(s)\n",
                stats.retries, stats.reconnects, stats.timeouts,
            );
        }
        (info, results, t0.elapsed())
    } else {
        let mut client = ustr_net::NetClient::connect_with_config(addr, config)
            .map_err(|e| format!("{addr}: {e}"))?;
        let results = if traced {
            // Force-sampled contexts (one distinct trace id per query) so the
            // server keeps every trace and reports its per-stage timings.
            let contexts: Vec<ustr_obs::TraceContext> = (0..queries.len())
                .map(|q| ustr_obs::TraceContext {
                    trace_id: q as u128 + 1,
                    parent_span: 0,
                    sampled: true,
                })
                .collect();
            let timed = client
                .query_requests_traced(&queries, &contexts)
                .map_err(|e| format!("{addr}: {e}"))?;
            let (results, timings): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
            for (q, stages) in timings.iter().enumerate() {
                if stages.is_empty() {
                    continue;
                }
                let line: Vec<String> = stages
                    .iter()
                    .map(|(name, us)| format!("{name} {us}us"))
                    .collect();
                notes.push_str(&format!("query {q} server stages: {}\n", line.join(", ")));
            }
            results
        } else {
            client
                .query_requests(&queries)
                .map_err(|e| format!("{addr}: {e}"))?
        };
        let (info, answered) = (client.server_info(), t0.elapsed());
        let _ = client.goodbye();
        (info, results, answered)
    };
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "{} document(s) at {addr} (protocol v{}, tau_min {}); \
             {} query(ies) answered in {answered:?}\n",
            info.num_docs,
            info.protocol_version,
            info.tau_min,
            queries.len(),
        ));
        out.push_str(&notes);
    }
    render_results(&mut out, &queries, &results, quiet);
    Ok(out.trim_end().to_string())
}

/// `trace`: answer a query file in-process, one request at a time, with
/// tracing at `--sample-rate` (default 1.0 — every query, a repeated line
/// included), then export the finished traces as Chrome
/// `trace_event` JSON (`--out`, default `traces.json`) and print the span
/// trees. The same backend shapes as `serve-net` are accepted.
fn cmd_trace(args: &Args) -> Result<String, String> {
    let source = args.positional(0, "SOURCE")?;
    let queries_path = args.positional(1, "QUERIES.txt")?;
    let quiet = args.flag("quiet");
    let out_path = args.get("out").unwrap_or("traces.json");
    let queries = load_queries(queries_path)?;
    let (backend, what) = net_backend(source, args)?;
    let tracer = backend
        .tracer()
        .ok_or_else(|| "this backend has no tracer".to_string())?;
    tracer.set_sample_permyriad(sample_permyriad(args, "sample-rate")?);

    let t0 = std::time::Instant::now();
    let (results, summaries): (Vec<_>, Vec<_>) =
        queries.iter().map(|q| backend.answer(q, None)).unzip();
    let answered = t0.elapsed();

    let traces = tracer.traces();
    let json = ustr_obs::chrome_trace_json(&traces);
    fs::write(out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;

    let kept = summaries.iter().flatten().count();
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "traced {} query(ies) against {what} in {answered:?}; {kept} trace(s) kept\n\
             wrote Chrome trace JSON to {out_path}\n",
            queries.len(),
        ));
        for (i, tree) in traces.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("trace {:032x}\n", tree.trace_id));
            out.push_str(&ustr_obs::render_tree(tree));
        }
    }
    render_results(&mut out, &queries, &results, quiet);
    Ok(out.trim_end().to_string())
}

fn cmd_top(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "FILE")?;
    let pattern = args.positional(1, "PATTERN")?.as_bytes().to_vec();
    let k: usize = args.get_parsed("k", 5)?;
    let tau_min: f64 = args.get_parsed("tau-min", 0.05)?;
    let s = load_string(path)?;
    let index = Index::build(&s, tau_min).map_err(|e| e.to_string())?;
    let hits = index.query_top_k(&pattern, k).map_err(|e| e.to_string())?;
    let quiet = args.flag("quiet");
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "top {} occurrence(s) of {:?} (visibility floor tau_min = {tau_min})\n",
            hits.len(),
            String::from_utf8_lossy(&pattern)
        ));
    }
    for (rank, (pos, p)) in hits.iter().enumerate() {
        if quiet {
            out.push_str(&format!("{pos} {p:.9}\n"));
        } else {
            out.push_str(&format!(
                "  #{:<3} position {pos:>8}  p = {p:.6}\n",
                rank + 1
            ));
        }
    }
    Ok(out.trim_end().to_string())
}

fn cmd_list(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "FILE")?;
    let pattern = args.positional(1, "PATTERN")?.as_bytes().to_vec();
    let tau: f64 = args.get_parsed("tau", 0.5)?;
    let tau_min: f64 = args.get_parsed("tau-min", tau.min(0.1))?;
    let docs = load_collection(path)?;
    let index = ListingIndex::build(&docs, tau_min).map_err(|e| e.to_string())?;
    let hits = index.query(&pattern, tau).map_err(|e| e.to_string())?;
    let quiet = args.flag("quiet");
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "{} of {} document(s) contain {:?} with probability >= {tau}\n",
            hits.len(),
            docs.len(),
            String::from_utf8_lossy(&pattern)
        ));
    }
    for h in &hits {
        if quiet {
            out.push_str(&format!("{} {:.9}\n", h.doc, h.relevance));
        } else {
            out.push_str(&format!(
                "  document {:>6}  Rel_max = {:.6}\n",
                h.doc, h.relevance
            ));
        }
    }
    Ok(out.trim_end().to_string())
}

/// `stats` on a snapshot file — an `.idx`, a `.coll`, a live segment: the
/// manifest alone is read — document count, per-document section sizes and
/// checksums, then the totals per section kind — no index payload is loaded
/// or decoded. An `.idx` is a manifest of one document.
fn collection_stats(path: &str) -> Result<String, String> {
    let m = ustr_store::read_collection_manifest(path).map_err(|e| format!("{path}: {e}"))?;
    let total: u64 = m.entries.iter().map(|e| e.len).sum();
    let mut out = format!(
        "snapshot                 {path}\n\
         format version           {}\n\
         documents                {}\n\
         sections                 {} ({total} payload bytes)\n",
        ustr_store::FORMAT_VERSION,
        m.num_docs,
        m.entries.len(),
    );
    let kind_name = |kind| format!("{kind:?}").to_lowercase();
    // `(kind, sections, bytes)` in order of first appearance.
    let mut kinds: Vec<(ustr_store::SnapshotKind, usize, u64)> = Vec::new();
    for e in &m.entries {
        out.push_str(&format!(
            "  doc {:>6} {:<11} {:>10} bytes  fnv1a {:016x}\n",
            e.doc,
            kind_name(e.kind),
            e.len,
            e.checksum
        ));
        match kinds.iter_mut().find(|k| k.0 == e.kind) {
            Some(k) => (k.1, k.2) = (k.1 + 1, k.2 + e.len),
            None => kinds.push((e.kind, 1, e.len)),
        }
    }
    for (kind, sections, bytes) in kinds {
        out.push_str(&format!(
            "total {:<12} {sections:>6} section(s) {bytes:>12} bytes  {:>5.1} %\n",
            kind_name(kind),
            100.0 * bytes as f64 / total.max(1) as f64
        ));
    }
    Ok(out.trim_end().to_string())
}

/// The first 8 bytes of a file (for magic sniffing); empty on any error.
fn file_magic(path: &str) -> [u8; 8] {
    let mut prefix = [0u8; 8];
    let _ =
        std::fs::File::open(path).and_then(|mut f| std::io::Read::read_exact(&mut f, &mut prefix));
    prefix
}

/// `stats --live`: scrape a running `serve-net` server's telemetry over
/// the wire protocol — one `StatsRequest` round trip, answered as
/// exposition text or (with `--json`) as JSON.
fn live_server_stats(addr: &str, json: bool) -> Result<String, String> {
    let mut client = ustr_net::NetClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let scraped = if json {
        client.stats_json()
    } else {
        client.stats()
    };
    let text = scraped.map_err(|e| format!("{addr}: {e}"))?;
    let _ = client.goodbye();
    Ok(text.trim_end().to_string())
}

fn cmd_stats(args: &Args) -> Result<String, String> {
    if let Some(addr) = args.get("live") {
        return live_server_stats(addr, args.flag("json"));
    }
    if args.flag("json") {
        return Err("--json applies only to `stats --live` (the wire scrape)".to_string());
    }
    let path = args.positional(0, "FILE")?;
    // Snapshot files are inspected from their manifests, without loading
    // any index. Every binary file `ustr` writes starts with `USTR`: one
    // that is neither a WAL nor a snapshot of this build's format (an
    // older build's `.idx`, say) is refused by the snapshot reader, which
    // says why.
    let magic = file_magic(path);
    if magic.starts_with(b"USTR") && magic != ustr_store::WAL_MAGIC {
        return collection_stats(path);
    }
    let tau_min: f64 = args.get_parsed("tau-min", 0.1)?;
    let s = load_string(path)?;
    let index = Index::build(&s, tau_min).map_err(|e| e.to_string())?;
    let st = index.stats();
    let mut out = format!(
        "source positions      {}\n\
         uncertain fraction    {:.3}\n\
         total choices         {}\n\
         tau_min               {}\n\
         factors               {}\n\
         transformed length    {}\n\
         expansion             {:.2}x\n\
         build time            {:?}\n\
         index heap            {:.2} MiB",
        st.source_len,
        s.uncertain_fraction(),
        s.total_choices(),
        tau_min,
        st.num_factors,
        st.transformed_len,
        st.expansion(),
        st.build_time,
        st.heap_mib()
    );
    for (structure, bytes) in index.heap_breakdown() {
        let per_pos = bytes as f64 / st.source_len.max(1) as f64;
        out.push_str(&format!(
            "\n  {structure:<19} {bytes:>12} B {per_pos:>9.1} B/position"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(name);
        fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_search_round_trip() {
        let path = std::env::temp_dir().join("ustr_cli_gen.ustr");
        let path = path.to_string_lossy().into_owned();
        let msg = run(&argv(&format!(
            "generate --n 200 --theta 0.2 --seed 7 --out {path}"
        )))
        .unwrap();
        assert!(msg.contains("200 positions"));
        let stats = run(&argv(&format!("stats {path} --tau-min 0.1"))).unwrap();
        assert!(stats.contains("source positions      200"));
        assert!(stats.contains("  child table "), "{stats}");
    }

    #[test]
    fn search_finds_paper_example() {
        let path = write_temp(
            "ustr_cli_fig3.ustr",
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 |\n\
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        );
        let out = run(&argv(&format!("search {path} AT --tau 0.4 --tau-min 0.05"))).unwrap();
        assert!(out.contains("1 occurrence(s)"), "{out}");
        assert!(out.contains("position        8"), "{out}");
    }

    #[test]
    fn top_k_orders_by_probability() {
        let path = write_temp("ustr_cli_top.ustr", "a:.9,b:.1 | a | a:.5,b:.5 | a");
        let out = run(&argv(&format!("top {path} aa --k 3 --tau-min 0.05"))).unwrap();
        assert!(out.contains("#1"), "{out}");
        let first = out.lines().find(|l| l.contains("#1")).unwrap();
        assert!(first.contains("0.9000"), "{out}");
    }

    #[test]
    fn list_reports_matching_documents() {
        let path = write_temp(
            "ustr_cli_docs.ustr",
            "A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5\n\
             A:.6,C:.4 | B:.5,F:.3,E:.2 | B:.4,C:.3,P:.2,F:.1\n\
             # comment line is skipped\n\
             A:.4,F:.4,P:.2 | I:.3,L:.3,P:.3,T:.1 | A\n",
        );
        let out = run(&argv(&format!("list {path} BF --tau 0.1 --tau-min 0.05"))).unwrap();
        assert!(out.contains("1 of 3 document(s)"), "{out}");
        assert!(out.contains("document      0"), "{out}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&argv("bogus")).is_err());
        assert!(run(&argv("search missing_file.ustr AT --tau 0.4")).is_err());
        assert!(run(&[]).is_err());
        let help = run(&argv("help")).unwrap();
        assert!(help.contains("usage"));
    }

    #[test]
    fn usage_is_per_subcommand() {
        let u = usage_for(Some("search"));
        assert!(u.contains("ustr search"), "{u}");
        assert!(!u.contains("serve-batch"), "only the failing command: {u}");
        let full = usage_for(Some("not-a-command"));
        assert!(full.contains("serve-batch") && full.contains("generate"));
        assert!(usage_for(None).contains("build-index"));
    }

    #[test]
    fn build_index_then_search_via_snapshot() {
        let data = write_temp(
            "ustr_cli_snap.ustr",
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 |\n\
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        );
        let idx = std::env::temp_dir().join("ustr_cli_snap.idx");
        let idx = idx.to_string_lossy().into_owned();
        let msg = run(&argv(&format!(
            "build-index {data} --out {idx} --tau-min 0.05"
        )))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        // Snapshot search equals rebuild search.
        let from_snap = run(&argv(&format!("search --index {idx} AT --tau 0.4"))).unwrap();
        let from_file = run(&argv(&format!("search {data} AT --tau 0.4 --tau-min 0.05"))).unwrap();
        assert_eq!(from_snap, from_file);
        assert!(from_snap.contains("position        8"), "{from_snap}");
        // Missing --out is a clean error.
        assert!(run(&argv(&format!("build-index {data}"))).is_err());
    }

    #[test]
    fn quiet_prints_result_rows_only() {
        let data = write_temp("ustr_cli_quiet.ustr", "a:.9,b:.1 | a | a:.5,b:.5 | a");
        let out = run(&argv(&format!(
            "search {data} aa --tau 0.3 --tau-min 0.05 --quiet"
        )))
        .unwrap();
        for line in out.lines() {
            let mut parts = line.split_whitespace();
            parts.next().unwrap().parse::<usize>().expect("position");
            parts.next().unwrap().parse::<f64>().expect("probability");
            assert!(parts.next().is_none());
        }
        let top = run(&argv(&format!(
            "top {data} aa --k 2 --tau-min 0.05 --quiet"
        )))
        .unwrap();
        assert!(!top.contains("occurrence"), "{top}");
    }

    #[test]
    fn serve_batch_answers_from_a_collection_file_and_refuses_a_directory() {
        let docs = write_temp(
            "ustr_cli_serve_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let queries = write_temp("ustr_cli_serve_q.txt", "# comment\nAB 0.3\nC 0.9\nZZ 0.5\n");
        let out = run(&argv(&format!(
            "serve-batch {docs} {queries} --threads 4 --shards 2 --tau-min 0.05"
        )))
        .unwrap();
        assert!(out.contains("3 document(s)"), "{out}");
        assert!(
            out.contains("query 0 search \"AB\" tau=0.3: 2 document(s)"),
            "{out}"
        );

        let quiet = run(&argv(&format!(
            "serve-batch {docs} {queries} --threads 2 --tau-min 0.05 --quiet"
        )))
        .unwrap();
        // Quiet rows: `query doc pos prob`.
        assert!(quiet.lines().all(|l| l.split_whitespace().count() == 4));
        assert!(quiet.contains("0 0 0 0.9"), "{quiet}");

        // A directory is not a static source: the error names the fix.
        let dir = std::env::temp_dir().join("ustr_cli_serve_idx");
        fs::create_dir_all(&dir).unwrap();
        let err = run(&argv(&format!(
            "serve-batch {} {queries} --threads 2",
            dir.display()
        )))
        .unwrap_err();
        assert!(err.contains("build-collection"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A misspelt option, an option of another command and one the
    /// command no longer takes are refused, not left at their defaults; so
    /// is a τmin beside the snapshot that carries its own.
    #[test]
    fn unknown_options_are_refused() {
        let data = write_temp("ustr_cli_unknown.ustr", "a:.9,b:.1 | a | a:.5,b:.5 | a");
        let path = std::env::temp_dir().join("ustr_cli_unknown.idx");
        let _ = fs::remove_file(&path);
        let idx = path.display();
        for (cmd, option) in [
            (format!("search {data} aa --tua 0.3"), "--tua"),
            (format!("top {data} aa --tau 0.3"), "--tau"),
            (format!("list {data} aa --tau 0.3 --quite"), "--quite"),
            (
                format!("build-index {data} --out {idx} --kind approx"),
                "--kind",
            ),
            (
                format!("build-index {data} --out {idx} --epsilon 0.1"),
                "--epsilon",
            ),
            (
                format!("build-collection {data} --out {idx} --epsilon 0.1"),
                "--epsilon",
            ),
            (
                format!("serve-batch {data} {data} --epsilon 0.1"),
                "--epsilon",
            ),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(
                err.contains(&format!("unknown option {option} ")),
                "{cmd}: {err}"
            );
        }
        assert!(!path.exists(), "nothing was written");
        run(&argv(&format!(
            "build-index {data} --out {idx} --tau-min 0.05"
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "search --index {idx} aa --tau 0.3 --tau-min 0.05"
        )));
        assert!(err.unwrap_err().contains("--tau-min"));
        let _ = fs::remove_file(&path);
    }

    /// Every `--name` a usage line shows, as an option or as a flag, passes
    /// the check of its command.
    #[test]
    fn every_usage_option_is_accepted() {
        for (command, usage, _) in COMMANDS {
            let words = usage.split_whitespace();
            let names = words.map(|w| w.trim_matches(|c| "[]()|".contains(c)));
            for name in names.filter(|w| w.starts_with("--")) {
                for tail in [" 1", ""] {
                    let args = Args::parse(&argv(&format!("{command} {name}{tail}"))).unwrap();
                    check_options(&args).unwrap_or_else(|e| panic!("{usage}: {e}"));
                }
            }
        }
    }

    #[test]
    fn build_collection_then_serve_mixed_modes() {
        let docs = write_temp(
            "ustr_cli_coll_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let queries = write_temp(
            "ustr_cli_coll_q.txt",
            "# every mode in one batch\n\
             AB 0.3\n\
             search C 0.9\n\
             top AB 2\n\
             list AB 0.3\n\
             approx AB 0.3\n",
        );
        let coll = std::env::temp_dir().join("ustr_cli_coll.coll");
        let msg = run(&argv(&format!(
            "build-collection {docs} --out {} --tau-min 0.05",
            coll.display()
        )))
        .unwrap();
        assert!(msg.contains("3 document(s)"), "{msg}");

        let out = run(&argv(&format!(
            "serve-batch {} {queries} --threads 2",
            coll.display()
        )))
        .unwrap();
        assert!(
            out.contains("query 0 search \"AB\" tau=0.3: 2 document(s)"),
            "{out}"
        );
        assert!(
            out.contains("query 2 top \"AB\" k=2: 2 occurrence(s)"),
            "{out}"
        );
        assert!(
            out.contains("query 3 list \"AB\" tau=0.3: 2 document(s)"),
            "{out}"
        );
        // Answered exactly: the rows of the search at the same τ.
        assert!(
            out.contains("query 4 approx \"AB\" tau=0.3: 2 document(s)"),
            "{out}"
        );
        assert!(out.contains("#1"), "ranked output present: {out}");
        assert!(out.contains("Rel_max"), "listing output present: {out}");

        // --tau-min is rejected for snapshot sources: it only applies when
        // the service is built from a collection file.
        assert!(run(&argv(&format!(
            "serve-batch {} {queries} --tau-min 0.1",
            coll.display()
        )))
        .is_err());
        let _ = fs::remove_file(&coll);
    }

    #[test]
    fn serve_batch_reports_cache_effectiveness() {
        let docs = write_temp(
            "ustr_cli_cachestats_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\n",
        );
        // The same query three times: one miss, then cache hits.
        let queries = write_temp("ustr_cli_cachestats_q.txt", "AB 0.3\nAB 0.3\nAB 0.3\n");
        let out = run(&argv(&format!(
            "serve-batch {docs} {queries} --threads 2 --tau-min 0.05"
        )))
        .unwrap();
        assert!(out.contains("cache: 2 hit(s), 1 miss(es)"), "{out}");
        // --quiet suppresses the summary (result rows only).
        let quiet = run(&argv(&format!(
            "serve-batch {docs} {queries} --threads 2 --tau-min 0.05 --quiet"
        )))
        .unwrap();
        assert!(!quiet.contains("cache:"), "{quiet}");
    }

    #[test]
    fn stats_inspects_snapshots_without_loading_indexes() {
        let docs = write_temp(
            "ustr_cli_stats_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let coll = std::env::temp_dir().join("ustr_cli_stats.coll");
        run(&argv(&format!(
            "build-collection {docs} --out {} --tau-min 0.05",
            coll.display()
        )))
        .unwrap();
        let out = run(&argv(&format!("stats {}", coll.display()))).unwrap();
        assert!(out.contains("documents                3"), "{out}");
        assert!(out.contains("format version           15"), "{out}");
        assert!(out.contains("fnv1a"), "checksums listed: {out}");
        // The total per kind closes the listing: one kind, all the bytes.
        let total = out.lines().last().unwrap();
        assert!(total.starts_with("total index ") && total.contains(" 3 section(s)"));
        assert!(total.ends_with(" 100.0 %"), "{out}");

        let idx = std::env::temp_dir().join("ustr_cli_stats.idx");
        let single = write_temp("ustr_cli_stats_one.ustr", "a:.9,b:.1 | a");
        run(&argv(&format!(
            "build-index {single} --out {} --tau-min 0.05",
            idx.display()
        )))
        .unwrap();
        // An `.idx` is a manifest of one document with one index section.
        let out = run(&argv(&format!("stats {}", idx.display()))).unwrap();
        assert!(out.contains("documents                1\n"), "{out}");
        assert!(out.contains("\n  doc      0 index "), "{out}");
        let _ = fs::remove_file(&coll);
        let _ = fs::remove_file(&idx);
    }

    /// Files of earlier snapshot formats — a single-index file, a version-1
    /// collection, format-8 and format-9 collections with approx sections,
    /// and format-10 to format-14 collections, as earlier builds wrote
    /// them — are refused with their path and a message that says to
    /// rebuild them, by every command that opens one (`serve-net` loads
    /// through the same function as `serve-batch`).
    #[test]
    fn an_old_format_file_is_refused_by_path() {
        let queries = write_temp("ustr_cli_oldfmt_q.txt", "AB 0.3\n");
        let fixture = |name| {
            format!(
                "{}/../store/tests/fixtures/{name}",
                env!("CARGO_MANIFEST_DIR")
            )
        };
        let (idx, coll) = (fixture("format6.idx"), fixture("format6.coll"));
        let (approx8, approx9) = (fixture("format8.coll"), fixture("format9.coll"));
        let (coll10, coll11) = (fixture("format10.coll"), fixture("format11.coll"));
        let (coll12, coll13) = (fixture("format12.coll"), fixture("format13.coll"));
        let coll14 = fixture("format14.coll");
        for (cmd, path, says) in [
            (
                format!("serve-batch {approx8} {queries}"),
                &approx8,
                "version 8 (this build reads version 15)",
            ),
            (
                format!("serve-batch {approx9} {queries}"),
                &approx9,
                "version 9 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll10} {queries}"),
                &coll10,
                "version 10 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll11} {queries}"),
                &coll11,
                "version 11 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll12} {queries}"),
                &coll12,
                "version 12 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll13} {queries}"),
                &coll13,
                "version 13 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll14} {queries}"),
                &coll14,
                "version 14 (this build reads version 15)",
            ),
            (
                format!("serve-batch {coll} {queries}"),
                &coll,
                "version 1 (this build reads version 15)",
            ),
            (
                format!("stats {coll}"),
                &coll,
                "version 1 (this build reads version 15)",
            ),
            (format!("stats {idx}"), &idx, "bad magic"),
            (
                format!("search --index {idx} AB --tau 0.3"),
                &idx,
                "bad magic",
            ),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(err.starts_with(&format!("{path}: ")), "{cmd}: {err}");
            assert!(err.contains(says), "{cmd}: {err}");
            assert!(
                err.ends_with(": rebuild it from its source"),
                "{cmd}: {err}"
            );
        }
    }

    /// A collection file records no shard plan: `build-collection` builds on
    /// one thread, and the file is still served in as many shards as the
    /// loading command's threads, like the same documents built in process.
    #[test]
    fn a_collection_file_is_sharded_by_its_loader() {
        let docs = write_temp(
            "ustr_cli_shards_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\nB | C | A\n",
        );
        let queries = write_temp("ustr_cli_shards_q.txt", "AB 0.3\n");
        let coll = std::env::temp_dir().join("ustr_cli_shards.coll");
        run(&argv(&format!(
            "build-collection {docs} --out {} --tau-min 0.05",
            coll.display()
        )))
        .unwrap();
        for source in [coll.display().to_string(), docs.clone()] {
            let out = run(&argv(&format!(
                "serve-batch {source} {queries} --threads 4"
            )))
            .unwrap();
            assert!(
                out.contains(&format!(
                    "{source} (4 document(s) in 4 shard(s), 4 thread(s))"
                )),
                "{out}"
            );
        }
        let _ = fs::remove_file(&coll);
    }

    #[test]
    fn live_lifecycle_ingest_delete_compact_serve() {
        let docs = write_temp(
            "ustr_cli_live_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let more = write_temp("ustr_cli_live_more.ustr", "A | B | A:.6,C:.4\n");
        let queries = write_temp(
            "ustr_cli_live_q.txt",
            "AB 0.3\ntop AB 3\nlist B 0.5\napprox AB 0.3\n",
        );
        let dir = std::env::temp_dir().join("ustr_cli_live_dir");
        let _ = fs::remove_dir_all(&dir);

        // Ingest with a tiny seal threshold: two documents seal, one stays
        // in the memtable.
        let msg = run(&argv(&format!(
            "ingest {} {docs} --tau-min 0.05 --seal-threshold 2 --compact-min 0",
            dir.display()
        )))
        .unwrap();
        assert!(msg.contains("ingested documents 0..=2"), "{msg}");
        assert!(msg.contains("1 sealed segment(s)"), "{msg}");
        assert!(msg.contains("1 memtable document(s)"), "{msg}");

        // Serve mixed modes over segments + memtable.
        let out = run(&argv(&format!(
            "serve-batch {} {queries} --threads 2",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("3 live document(s)"), "{out}");
        assert!(
            out.contains("query 0 search \"AB\" tau=0.3: 2 document(s)"),
            "{out}"
        );
        assert!(out.contains("cache:"), "{out}");

        // The directory keeps the τmin it was created with: a command that
        // opens it refuses one instead of ignoring it.
        let traces = std::env::temp_dir().join("ustr_cli_live_traces.json");
        for cmd in [
            format!("serve-batch {} {queries} --tau-min 0.3", dir.display()),
            format!(
                "trace {} {queries} --tau-min 0.1 --out {}",
                dir.display(),
                traces.display()
            ),
            format!("ingest {} {more} --tau-min 0.3", dir.display()),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(
                err.contains("keeps the value it was created with"),
                "{cmd}: {err}"
            );
        }

        // Ingest more, tombstone one, compact everything into one segment.
        run(&argv(&format!("ingest {} {more} --quiet", dir.display()))).unwrap();
        let msg = run(&argv(&format!("delete {} 1", dir.display()))).unwrap();
        assert!(msg.contains("3 live document(s) remain"), "{msg}");
        let msg = run(&argv(&format!("compact {}", dir.display()))).unwrap();
        assert!(msg.contains("into 1"), "{msg}");

        // Deleted documents stay gone; the survivor ids are stable.
        let quiet = run(&argv(&format!(
            "serve-batch {} {queries} --quiet",
            dir.display()
        )))
        .unwrap();
        assert!(!quiet.contains("cache:"), "{quiet}");
        assert!(quiet.contains("0 0 0 0.9"), "doc 0 answers: {quiet}");
        assert!(quiet.contains("0 3 0"), "new doc 3 answers: {quiet}");
        for line in quiet.lines().filter(|l| l.starts_with("0 ")) {
            assert!(!line.starts_with("0 1 "), "doc 1 was deleted: {quiet}");
        }

        // Deleting a dead id is a clean error.
        assert!(run(&argv(&format!("delete {} 1", dir.display()))).is_err());
        let _ = fs::remove_dir_all(&dir);

        // Administrative commands refuse mistyped paths instead of
        // materializing a fresh live directory there.
        let typo = std::env::temp_dir().join("ustr_cli_live_typo");
        let _ = fs::remove_dir_all(&typo);
        for cmd in ["delete {} 0", "compact {}"] {
            let err = run(&argv(&cmd.replace("{}", &typo.display().to_string()))).unwrap_err();
            assert!(err.contains("not a live collection"), "{err}");
        }
        let err = run(&argv(&format!("serve-batch {} {queries}", typo.display()))).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert!(!typo.exists(), "no directory was created");
    }

    #[test]
    fn serve_net_then_client_matches_serve_batch() {
        let docs = write_temp(
            "ustr_cli_net_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let queries = write_temp(
            "ustr_cli_net_q.txt",
            "AB 0.3\ntop AB 2\nlist AB 0.3\napprox AB 0.3\nZZ 0.5\n",
        );
        let port_file = std::env::temp_dir().join("ustr_cli_net_port");
        let _ = fs::remove_file(&port_file);
        let serve_argv = format!(
            "serve-net {docs} --tau-min 0.05 --max-conns 1 --port-file {} --quiet",
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_argv)));
        // The port file appears once the listener is bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if addr.trim().contains(':') {
                    break addr.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let remote = run(&argv(&format!("client {addr} {queries} --quiet"))).unwrap();
        server.join().unwrap().unwrap();
        let local = run(&argv(&format!(
            "serve-batch {docs} {queries} --tau-min 0.05 --quiet"
        )))
        .unwrap();
        assert_eq!(remote, local, "TCP rows equal in-process rows");

        // The verbose client header names the server.
        let _ = fs::remove_file(&port_file);
        let err = run(&argv(&format!("client 127.0.0.1:1 {queries}"))).unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "{err}");

        // Snapshot sources reject --tau-min instead of silently ignoring
        // it, exactly like serve-batch.
        let coll = std::env::temp_dir().join("ustr_cli_net_flags.coll");
        run(&argv(&format!(
            "build-collection {docs} --out {} --tau-min 0.05",
            coll.display()
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "serve-net {} --tau-min 0.2 --max-conns 1",
            coll.display()
        )))
        .unwrap_err();
        assert!(err.contains("--tau-min"), "{err}");
        let _ = fs::remove_file(&coll);
    }

    #[test]
    fn resilience_flags_work_end_to_end() {
        let docs = write_temp("ustr_cli_resil_docs.ustr", "A:.9,B:.1 | B | C\nC | C | C\n");
        let queries = write_temp("ustr_cli_resil_q.txt", "AB 0.3\ntop AB 2\n");
        let port_file = std::env::temp_dir().join("ustr_cli_resil_port");
        let _ = fs::remove_file(&port_file);
        let serve_argv = format!(
            "serve-net {docs} --tau-min 0.05 --max-conns 1 --idle-timeout-s 30 \
             --error-budget 8 --port-file {} --quiet",
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_argv)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if addr.trim().contains(':') {
                    break addr.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let remote = run(&argv(&format!(
            "client {addr} {queries} --retries 2 --timeout-ms 5000 --quiet"
        )))
        .unwrap();
        server.join().unwrap().unwrap();
        let local = run(&argv(&format!(
            "serve-batch {docs} {queries} --tau-min 0.05 --quiet"
        )))
        .unwrap();
        assert_eq!(remote, local, "retried rows equal in-process rows");
        let _ = fs::remove_file(&port_file);

        // --retries rides the untraced path only.
        let err = run(&argv(&format!(
            "client 127.0.0.1:1 {queries} --trace --retries 1"
        )))
        .unwrap_err();
        assert!(err.contains("--retries"), "{err}");
    }

    #[test]
    fn stats_live_scrapes_a_running_server() {
        let docs = write_temp(
            "ustr_cli_statslive_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\n",
        );
        let queries = write_temp("ustr_cli_statslive_q.txt", "AB 0.3\n");
        let port_file = std::env::temp_dir().join("ustr_cli_statslive_port");
        let _ = fs::remove_file(&port_file);
        // Two connections: the query client, then the stats scrape.
        let serve_argv = format!(
            "serve-net {docs} --tau-min 0.05 --max-conns 2 --port-file {} --quiet",
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_argv)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if addr.trim().contains(':') {
                    break addr.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        run(&argv(&format!("client {addr} {queries} --quiet"))).unwrap();
        let stats = run(&argv(&format!("stats --live {addr}"))).unwrap();
        assert!(stats.contains("ustr_net_requests 1"), "{stats}");
        assert!(stats.contains("ustr_service_requests 1"), "{stats}");
        assert!(
            stats.contains("ustr_net_rtt_us_threshold_count 1"),
            "{stats}"
        );
        server.join().unwrap().unwrap();
        let _ = fs::remove_file(&port_file);
    }

    #[test]
    fn trace_exports_chrome_json_and_answers_match_untraced() {
        let docs = write_temp(
            "ustr_cli_trace_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\nA:.5,B:.5 | B | C\n",
        );
        let queries = write_temp("ustr_cli_trace_q.txt", "AB 0.3\ntop AB 2\nZZ 0.5\n");
        let json_path = std::env::temp_dir().join("ustr_cli_trace.json");
        let out = run(&argv(&format!(
            "trace {docs} {queries} --tau-min 0.05 --sample-rate 1.0 --out {}",
            json_path.display()
        )))
        .unwrap();
        assert!(out.contains("trace(s) kept"), "{out}");
        assert!(out.contains("request"), "span trees are printed: {out}");
        assert!(out.contains("segment_answer"), "{out}");
        let json = fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\": \"segment_answer\""), "{json}");
        assert!(json.contains("\"candidates\""), "{json}");

        // Tracing must not change a single answer byte: quiet rows at 100%
        // sampling equal the untraced serve-batch rows.
        let traced_rows = run(&argv(&format!(
            "trace {docs} {queries} --tau-min 0.05 --out {} --quiet",
            json_path.display()
        )))
        .unwrap();
        let untraced_rows = run(&argv(&format!(
            "serve-batch {docs} {queries} --tau-min 0.05 --quiet"
        )))
        .unwrap();
        assert_eq!(traced_rows, untraced_rows, "tracing changed an answer");

        // A repeated line is a request of its own: answered, and traced.
        let twice = write_temp("ustr_cli_trace_twice.txt", "AB 0.3\nAB 0.3\n");
        let out = run(&argv(&format!(
            "trace {docs} {twice} --tau-min 0.05 --out {}",
            json_path.display()
        )))
        .unwrap();
        assert!(out.contains("traced 2 query(ies)"), "{out}");
        assert!(out.contains("2 trace(s) kept"), "{out}");

        // Rate 0 keeps nothing but still writes a valid empty document.
        let out = run(&argv(&format!(
            "trace {docs} {queries} --tau-min 0.05 --sample-rate 0.0 --out {}",
            json_path.display()
        )))
        .unwrap();
        assert!(out.contains("0 trace(s) kept"), "{out}");
        assert!(fs::read_to_string(&json_path)
            .unwrap()
            .contains("\"traceEvents\""));
        // Out-of-range rates are a clean error.
        assert!(run(&argv(&format!(
            "trace {docs} {queries} --tau-min 0.05 --sample-rate 1.5"
        )))
        .is_err());
        let _ = fs::remove_file(&json_path);
    }

    #[test]
    fn client_trace_and_stats_json_against_a_sampled_server() {
        let docs = write_temp(
            "ustr_cli_ctrace_docs.ustr",
            "A:.9,B:.1 | B | C\nC | C | C\n",
        );
        let queries = write_temp("ustr_cli_ctrace_q.txt", "AB 0.3\n");
        let port_file = std::env::temp_dir().join("ustr_cli_ctrace_port");
        let _ = fs::remove_file(&port_file);
        // Two connections: the traced client, then the JSON stats scrape.
        let serve_argv = format!(
            "serve-net {docs} --tau-min 0.05 --trace-sample 1.0 --max-conns 2 \
             --port-file {} --quiet",
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_argv)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if addr.trim().contains(':') {
                    break addr.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let out = run(&argv(&format!("client {addr} {queries} --trace"))).unwrap();
        assert!(out.contains("server stages:"), "{out}");
        assert!(out.contains("cache_lookup"), "{out}");
        assert!(out.contains("merge"), "{out}");
        let json = run(&argv(&format!("stats --live {addr} --json"))).unwrap();
        assert!(json.contains("\"net.requests\": 1"), "{json}");
        assert!(json.contains("\"service.requests\": 1"), "{json}");
        server.join().unwrap().unwrap();
        let _ = fs::remove_file(&port_file);

        // --json without --live is refused.
        let err = run(&argv(&format!("stats {docs} --json"))).unwrap_err();
        assert!(err.contains("--live"), "{err}");
    }

    #[test]
    fn serve_batch_slow_query_log_lists_worst_queries() {
        let docs = write_temp("ustr_cli_slowq_docs.ustr", "A:.9,B:.1 | B | C\nC | C | C\n");
        let queries = write_temp("ustr_cli_slowq_q.txt", "AB 0.3\ntop AB 2\n");
        // Threshold 0: every query qualifies as slow.
        let out = run(&argv(&format!(
            "serve-batch {docs} {queries} --tau-min 0.05 --slow-query-us 0"
        )))
        .unwrap();
        assert!(out.contains("slow queries (worst first):"), "{out}");
        assert!(out.contains("threshold"), "{out}");
        assert!(out.contains("top_k"), "{out}");
        // At the default threshold these microsecond queries stay silent.
        let out = run(&argv(&format!(
            "serve-batch {docs} {queries} --tau-min 0.05"
        )))
        .unwrap();
        assert!(!out.contains("slow queries"), "{out}");
    }

    #[test]
    fn malformed_query_lines_are_rejected() {
        let docs = write_temp("ustr_cli_badq_docs.ustr", "A | B\n");
        let bad = write_temp("ustr_cli_badq.txt", "top AB 3 extra\n");
        let err = run(&argv(&format!("serve-batch {docs} {bad}"))).unwrap_err();
        assert!(err.contains("search|top|list|approx"), "{err}");
        let bad_k = write_temp("ustr_cli_badk.txt", "top AB notanumber\n");
        assert!(run(&argv(&format!("serve-batch {docs} {bad_k}"))).is_err());
        // A two-token line is always the legacy threshold form — even when
        // the pattern collides with a mode keyword.
        let twotok = write_temp("ustr_cli_twotok.txt", "top 0.5\n");
        let out = run(&argv(&format!("serve-batch {docs} {twotok}"))).unwrap();
        assert!(out.contains("search \"top\" tau=0.5"), "{out}");
    }
}

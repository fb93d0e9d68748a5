//! `serve-fanout` and `serve-wire`: a collection built into a
//! `QueryService`, saved as one `.coll` file, loaded back, and the *loaded*
//! service served by `NetServer` on loopback to closed-loop `NetClient`s.
//! The two workloads run the same code over different sizes: at 40 000
//! positions (~1.2k documents) the per-document executor loop, shard
//! fan-out and merge are most of a request; at 2 000 positions (62
//! documents, the historical `BENCH_net` shape) index work is tens of
//! microseconds and framing, event-loop wake-ups and the two pool
//! hand-offs are most of the round trip.
//!
//! Box and load: every service and server runs `threads: 2`,
//! `io_threads: 1`, result cache off; the generator uses at most two
//! client threads with one connection each, and every loop is closed (a
//! client sends its next request after the reply to the previous one).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ustr_net::{NetClient, NetServer, QueryBackend, ServerConfig};
use ustr_obs::TraceContext;
use ustr_service::{
    merge_partials, top_hit_order, DocHits, ListingHit, QueryRequest, QueryResponse, QueryService,
    Segment, SegmentSet, ServiceConfig, TopHit,
};
use ustr_uncertain::{kstats, UncertainString};
use ustr_workload::{generate_collection, DatasetConfig};

use crate::check::{truths, Truth};
use crate::data::{mode_index, pattern_of, positions, serve_pool, EPSILON, MODES, TAU_MIN};
use crate::layers::{self, CoreBuilds};
use crate::ledger::{EpochTable, Ledger};
use crate::report::Report;
use crate::stats::{epoch_percentile, median, percentile_of, self_times, Summary};
use crate::steal::undisturbed;
use crate::{Ctx, EPOCHS};

/// Fraction of uncertain positions.
const THETA: f64 = 0.25;
/// Requests per pipelined batch in the throughput phase (the 160-request
/// pool goes out as 10 batches).
const BATCH: usize = 16;

/// The sizes that tell the two serving workloads apart.
pub struct ServeSizes {
    pub name: &'static str,
    /// Total positions of the collection.
    positions: usize,
    /// Pool passes per epoch: latency phase (one client, one request per
    /// round trip) and the traced run's throughput phase (per client
    /// thread).
    latency_passes: usize,
    throughput_passes: usize,
    /// Set-up repetitions; the small collection builds in milliseconds, so
    /// it repeats more often for a steady median.
    setup_reps: usize,
    /// Traced run: passes per epoch through every boundary, repetitions
    /// of the build probes.
    ledger_passes: usize,
    probe_reps: usize,
}

pub const FANOUT: ServeSizes = ServeSizes {
    name: "serve-fanout",
    positions: 40_000,
    latency_passes: 8,
    throughput_passes: 1,
    setup_reps: 5,
    ledger_passes: 2,
    probe_reps: 1,
};

pub const WIRE: ServeSizes = ServeSizes {
    name: "serve-wire",
    positions: 2_000,
    latency_passes: 80,
    throughput_passes: 10,
    setup_reps: 25,
    ledger_passes: 12,
    probe_reps: 5,
};

fn service_config(cache_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        shards: 0,
        cache_capacity,
        epsilon: Some(EPSILON),
    }
}

/// One set-up: documents, the built service, its `.coll` file, the loaded
/// service behind a loopback server, and what each step took.
struct Stack {
    docs: Vec<UncertainString>,
    pool: Vec<QueryRequest>,
    built: QueryService,
    service: Arc<QueryService>,
    server: NetServer,
    coll_bytes: u64,
    build_s: f64,
    save_s: f64,
    /// `load_collection` → first answer.
    load_s: f64,
    total_s: f64,
}

fn set_up(n: usize, seed: u64, coll: &Path) -> Result<Stack, String> {
    let start = Instant::now();
    let docs = generate_collection(&DatasetConfig::new(n, THETA, seed));
    let pool = serve_pool(&docs, seed);
    let t = Instant::now();
    let built =
        QueryService::build(&docs, TAU_MIN, service_config(0)).map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    built.save_collection(coll).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    let coll_bytes = std::fs::metadata(coll).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let service = Arc::new(
        QueryService::load_collection(coll, service_config(0)).map_err(|e| e.to_string())?,
    );
    black_box(service.query_requests(&pool[..1]));
    let load_s = t.elapsed().as_secs_f64();
    let server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryBackend>,
        ServerConfig {
            threads: 2,
            io_threads: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind loopback: {e}"))?;
    Ok(Stack {
        docs,
        pool,
        built,
        service,
        server,
        coll_bytes,
        build_s,
        save_s,
        load_s,
        total_s: start.elapsed().as_secs_f64(),
    })
}

fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One request, one round trip.
fn round_trip(client: &mut NetClient, req: &QueryRequest) -> Result<QueryResponse, String> {
    client
        .query_requests(std::slice::from_ref(req))
        .map_err(|e| format!("session failed: {e}"))?
        .pop()
        .ok_or("empty reply")?
        .map_err(|e| format!("request refused: {e}"))
}

fn engine_answer(service: &QueryService, req: &QueryRequest) -> Result<QueryResponse, String> {
    service
        .query_requests(std::slice::from_ref(req))
        .pop()
        .ok_or("empty reply")?
        .map_err(|e| e.to_string())
}

/// The answer assembled by the benchmark from the segments' public
/// per-document executors: the fixed per-document cost with none of
/// `Segment::answer`'s own code, and an independent second opinion on it.
fn answer_via_executors(
    segments: &[Arc<Segment>],
    req: &QueryRequest,
) -> Result<QueryResponse, String> {
    let docs = segments.iter().flat_map(|s| s.docs.iter());
    let err = |e: ustr_core::Error| e.to_string();
    Ok(match req {
        QueryRequest::Threshold { pattern, tau } | QueryRequest::Approx { pattern, tau } => {
            let approx = matches!(req, QueryRequest::Approx { .. });
            let mut out = Vec::new();
            for (doc, d) in docs {
                let hits = if approx {
                    d.approx(pattern, *tau)
                } else {
                    d.threshold(pattern, *tau)
                }
                .map_err(err)?;
                if !hits.is_empty() {
                    out.push(DocHits { doc: *doc, hits });
                }
            }
            if approx {
                QueryResponse::Approx(Arc::new(out))
            } else {
                QueryResponse::Threshold(Arc::new(out))
            }
        }
        QueryRequest::TopK { pattern, k } => {
            let mut all = Vec::new();
            for (doc, d) in docs {
                for (pos, prob) in d.top_k(pattern, *k).map_err(err)? {
                    all.push(TopHit {
                        doc: *doc,
                        pos,
                        prob,
                    });
                }
            }
            all.sort_by(top_hit_order);
            all.truncate(*k);
            QueryResponse::TopK(Arc::new(all))
        }
        QueryRequest::Listing { pattern, tau } => {
            let mut out = Vec::new();
            for (doc, d) in docs {
                let hits = d.threshold(pattern, *tau).map_err(err)?;
                if let Some(relevance) = hits.iter().map(|&(_, p)| p).reduce(f64::max) {
                    out.push(ListingHit {
                        doc: *doc,
                        relevance,
                    });
                }
            }
            QueryResponse::Listing(Arc::new(out))
        }
    })
}

/// Each segment answered in turn on the caller's thread, then merged.
fn answer_via_segments(
    segments: &[Arc<Segment>],
    req: &QueryRequest,
) -> Result<QueryResponse, String> {
    let parts = segments
        .iter()
        .map(|s| s.answer(req))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(merge_partials(req, parts))
}

/// Before any timing: every pool request answered at every boundary —
/// kernel, executors, segments + merge, the built engine, the loaded
/// engine, the wire — each checked against the scanner's truth, and the
/// index-backed boundaries against each other. Returns the reference
/// answers later phases compare against.
fn gate(
    report: &mut Report,
    stack: &Stack,
    truth: &[Truth],
    client: &mut NetClient,
) -> Result<Vec<QueryResponse>, String> {
    let planes = layers::planes_of(&stack.docs);
    let segments = stack.service.segments();
    let mut reference = Vec::with_capacity(stack.pool.len());
    for (req, truth) in stack.pool.iter().zip(truth) {
        let check = |resp: &QueryResponse, at: &str| {
            truth
                .check(req, resp, TAU_MIN, EPSILON)
                .map_err(|why| format!("{at}: {req:?}: {why}"))
        };
        let (scanned, _) = layers::answer_via_kernel(&planes, req);
        report.op(check(&scanned, "kernel"));
        let wire = round_trip(client, req)?;
        report.op(check(&wire, "wire"));
        let others = [
            ("executors", answer_via_executors(&segments, req)),
            ("segments", answer_via_segments(&segments, req)),
            ("built engine", engine_answer(&stack.built, req)),
            ("loaded engine", engine_answer(&stack.service, req)),
        ];
        for (at, resp) in others {
            report.op(resp.and_then(|resp| {
                if resp == wire {
                    Ok(())
                } else {
                    Err(format!("{at} and wire answer {req:?} differently"))
                }
            }));
        }
        reference.push(wire);
    }
    Ok(reference)
}

/// Outcome of comparing a served answer with the gate's reference.
fn same(got: &QueryResponse, reference: &QueryResponse, i: usize) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "request {i} answered differently from the gate's reference"
        ))
    }
}

/// Runs `workers` side by side, one thread each, through one discarded
/// warm-up epoch and [`EPOCHS`] timed ones; every epoch starts at a barrier
/// and lasts as long as its slowest worker. A worker is called once per
/// epoch (`true` for the warm-up). One that fails keeps arriving at the
/// barrier until the epochs end, so it cannot strand its peers there.
fn epochs_in_lockstep<W>(workers: Vec<W>) -> Result<[f64; EPOCHS], String>
where
    W: FnMut(bool) -> Result<(), String> + Send,
{
    let barrier = Barrier::new(workers.len());
    let per_thread: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut worker| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut outcome = Ok(Vec::with_capacity(EPOCHS));
                    for epoch in 0..=EPOCHS {
                        barrier.wait();
                        let Ok(walls) = &mut outcome else { continue };
                        let t = Instant::now();
                        match worker(epoch == 0) {
                            Ok(()) if epoch > 0 => walls.push(t.elapsed().as_secs_f64()),
                            Ok(()) => {}
                            Err(why) => outcome = Err(why),
                        }
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut walls = [0.0f64; EPOCHS];
    for thread_walls in per_thread {
        for (wall, w) in walls.iter_mut().zip(thread_walls?) {
            *wall = wall.max(w);
        }
    }
    Ok(walls)
}

/// The throughput phase: `conns` client threads, one connection each,
/// pipelining the pool as batches of [`BATCH`]; `passes` pool passes per
/// epoch per thread after one warm-up pass. Counts every answer into
/// `report` and returns requests per second per epoch.
fn pipelined_rps(
    report: &mut Report,
    addr: SocketAddr,
    pool: &[QueryRequest],
    reference: &[QueryResponse],
    conns: usize,
    passes: usize,
) -> Result<Vec<f64>, String> {
    // Connected before any thread starts: a refused connection fails the
    // phase here.
    let mut clients = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let wrong = AtomicU64::new(0);
    let workers = clients
        .iter_mut()
        .map(|client| {
            let wrong = &wrong;
            move |warm_up: bool| {
                for _ in 0..if warm_up { 1 } else { passes } {
                    for (b, batch) in pool.chunks(BATCH).enumerate() {
                        let answers = client
                            .query_requests(batch)
                            .map_err(|e| format!("pipelined batch failed: {e}"))?;
                        for (j, answer) in answers.iter().enumerate() {
                            if answer.as_ref().ok() != Some(&reference[b * BATCH + j]) {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Ok(())
            }
        })
        .collect();
    let walls = epochs_in_lockstep(workers)?;
    for client in clients {
        let _ = client.goodbye();
    }
    let wrong = wrong.into_inner();
    let per_epoch = conns * passes * pool.len();
    report.ops_ok((per_epoch * EPOCHS) as u64 - wrong);
    for _ in 0..wrong {
        report.op(Err(
            "a pipelined answer differs from the gate's reference".into()
        ));
    }
    Ok(walls.iter().map(|w| per_epoch as f64 / w).collect())
}

pub fn run(ctx: &Ctx, sizes: &ServeSizes) -> Result<Report, String> {
    let mut report = Report::new(sizes.name, ctx.traced);
    let n = ctx.scale.size(sizes.positions);
    let coll = ctx.work_dir.join(format!("{}.coll", sizes.name));
    let (discarded, reps) = ctx.scale.setup_reps(sizes.setup_reps, ctx.traced);
    report.count("setup_reps", reps);
    report.count("epochs", EPOCHS);

    // Set-up, repeated; the last repetition's stack is the one measured.
    let mut stacks: Vec<Stack> = Vec::new();
    let (mut setup_s, mut build_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..discarded + reps {
        stacks.clear(); // shuts the previous repetition's server down
        let stack = set_up(n, ctx.seed, &coll)?;
        if rep >= discarded {
            setup_s.push(stack.total_s);
            build_s.push(stack.build_s);
            load_s.push(stack.load_s);
        }
        stacks.push(stack);
    }
    let stack = stacks.pop().expect("at least one set-up repetition");
    let total_positions = positions(&stack.docs);
    let num_docs = stack.docs.len();
    let pool = stack.pool.clone();
    let addr = stack.server.local_addr();
    report.count("positions", total_positions);
    report.count("documents", num_docs);
    report.count("pool_requests", pool.len());

    let docs_by_id: Vec<(usize, &UncertainString)> = stack.docs.iter().enumerate().collect();
    let truth = truths(&docs_by_id, &pool);
    let mut client = connect(addr)?;
    let reference = gate(&mut report, &stack, &truth, &mut client)?;

    // Demoted end-to-end metrics: only the traced run prints them.
    let per_pos = 1e6 / total_positions as f64;
    let build_us: Vec<f64> = build_s.iter().map(|s| s * per_pos).collect();
    report.put("e2e.build_us_per_pos", Summary::of_epochs(&build_us, reps));
    report.put("e2e.load_s", Summary::of_epochs(&load_s, reps));

    if !ctx.traced {
        report.put("setup_s", Summary::of_epochs(&setup_s, reps));
        report.exact(
            "snapshot_bytes_per_pos",
            stack.coll_bytes as f64 / total_positions as f64,
        );
        report.exact(
            "index_bytes_per_pos",
            layers::index_heap_bytes(&stack.service.segments()) as f64 / total_positions as f64,
        );

        // Latency phase: one client, one request per round trip; one
        // discarded warm-up pass, then the epochs.
        let passes = ctx.scale.passes(sizes.latency_passes);
        report.count("latency_passes_per_epoch", passes);
        let mut pool_pass = |per_mode: Option<&mut Vec<Vec<f64>>>| -> Result<(), String> {
            let mut per_mode = per_mode;
            for (i, req) in pool.iter().enumerate() {
                let t = Instant::now();
                let answer = round_trip(&mut client, req);
                let us = t.elapsed().as_secs_f64() * 1e6;
                if let Some(per_mode) = per_mode.as_deref_mut() {
                    per_mode[mode_index(req)].push(us);
                    report.op(answer.and_then(|a| same(&a, &reference[i], i)));
                }
            }
            Ok(())
        };
        pool_pass(None)?;
        let (epochs, sifter) = undisturbed(EPOCHS, EPOCHS / 2, || {
            let mut per_mode = vec![Vec::new(); MODES.len()];
            for _ in 0..passes {
                pool_pass(Some(&mut per_mode))?;
            }
            Ok(per_mode)
        })?;
        for (mode, key) in MODES.iter().enumerate() {
            let mut samples: Vec<Vec<f64>> = epochs.iter().map(|e| e[mode].clone()).collect();
            report.put(
                &format!("{key}_p50_us"),
                epoch_percentile(&mut samples, 0.5),
            );
        }
        report.notes.extend(sifter.note("latency phase"));
        let _ = client.goodbye();
        return Ok(report);
    }

    traced(ctx, sizes, &mut report, &stack, &reference, client)?;
    Ok(report)
}

/// Per-epoch values of the layer metrics the ledger yields.
fn ledger_metrics(
    table: &EpochTable,
    pool: &[QueryRequest],
    num_docs: usize,
) -> Vec<(String, f64, usize)> {
    let mut out = Vec::new();
    let doc_exec = table.per_request("core.doc_exec");
    let segment_sum = table.per_request("service.segment_sum");
    let slowest = table.per_request("service.segment_slowest");
    let merge = table.per_request("service.merge");
    let engine = table.per_request("service.engine");
    let rtt = table.per_request("net.round_trip");
    let of_mode = |values: &[f64], mode: usize| -> Vec<f64> {
        pool.iter()
            .zip(values)
            .filter(|(req, _)| mode_index(req) == mode)
            .map(|(_, v)| *v)
            .collect()
    };
    for (mode, key) in MODES.iter().enumerate() {
        out.push((
            format!("core.doc_exec_ns_per_doc.{key}"),
            median(&of_mode(doc_exec, mode)) * 1e3 / num_docs as f64,
            pool.len() / MODES.len(),
        ));
        out.push((
            format!("service.segment_answer_us.{key}"),
            median(&of_mode(segment_sum, mode)),
            pool.len() / MODES.len(),
        ));
    }
    let n = pool.len();
    let engine_added: Vec<f64> = (0..n).map(|i| engine[i] - slowest[i] - merge[i]).collect();
    let speedup: Vec<f64> = (0..n).map(|i| segment_sum[i] / engine[i]).collect();
    let net_added = median(&self_times(rtt, engine));
    out.push(("service.merge_us".into(), median(merge), n));
    out.push((
        "service.exec_added_us".into(),
        median(&self_times(segment_sum, doc_exec)),
        n,
    ));
    out.push(("service.engine_us".into(), median(engine), n));
    out.push(("service.engine_added_us".into(), median(&engine_added), n));
    out.push(("service.parallel_speedup".into(), median(&speedup), n));
    out.push(("net.added_us".into(), net_added, n));
    let mut raw_rtt = table.raw("net.round_trip");
    let rtt_p50 = percentile_of(&mut raw_rtt, 0.5);
    out.push(("net.rtt_p50_us".into(), rtt_p50, raw_rtt.len()));
    out.push((
        "e2e.query_p95_us".into(),
        percentile_of(&mut raw_rtt, 0.95),
        raw_rtt.len(),
    ));
    out.push((
        "net.rtt_p99_us".into(),
        percentile_of(&mut raw_rtt, 0.99),
        raw_rtt.len(),
    ));
    // The ledger's identity: the added costs, outermost to innermost, plus
    // the slowest segment and the merge should rebuild the round trip.
    let sum = net_added + median(&engine_added) + median(slowest) + median(merge);
    out.push(("ledger.sum_us".into(), sum, n));
    out.push(("ledger.gap_us".into(), (rtt_p50 - sum).abs(), n));
    out
}

/// Mean of a stage histogram's observations between two scrapes.
fn stage_mean(
    before: &ustr_obs::MetricsSnapshot,
    after: &ustr_obs::MetricsSnapshot,
    name: &str,
) -> f64 {
    let zero = ustr_obs::HistogramSnapshot::default();
    let a = after.histograms.get(name).unwrap_or(&zero);
    let b = before.histograms.get(name).unwrap_or(&zero);
    (a.sum - b.sum) as f64 / (a.count - b.count).max(1) as f64
}

fn counter(snapshot: &ustr_obs::MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// The traced run: every pool request through every boundary with spans,
/// then the probes that need their own phase.
fn traced(
    ctx: &Ctx,
    sizes: &ServeSizes,
    report: &mut Report,
    stack: &Stack,
    reference: &[QueryResponse],
    mut client: NetClient,
) -> Result<(), String> {
    let pool = &stack.pool;
    let service = &stack.service;
    let addr = stack.server.local_addr();
    let num_docs = stack.docs.len();
    let total_positions = positions(&stack.docs);
    let segments = service.segments();
    let planes = layers::planes_of(&stack.docs);

    // Build-side probes on this workload's own documents.
    let substrate = layers::probe_substrate(report, &stack.docs, sizes.probe_reps);
    let builds = CoreBuilds::measure(&stack.docs, &stack.docs, sizes.probe_reps);
    builds.report(report, substrate);
    let expansion = report.get("uncertain.expansion").map_or(1.0, |s| s.value);
    let mean_transformed = (expansion * total_positions as f64 / num_docs as f64) as usize;
    layers::probe_rmq(report, mean_transformed, ctx.seed, 3);
    let patterns: Vec<&[u8]> = pool.iter().map(pattern_of).collect();
    layers::probe_kernel(
        report,
        &stack.docs,
        &patterns,
        0.3,
        EPOCHS,
        ctx.scale.passes(sizes.ledger_passes),
    );
    report.exact("store.save_s", stack.save_s);
    report.exact(
        "store.load_mb_per_s",
        stack.coll_bytes as f64 / 1e6 / stack.load_s,
    );
    report.exact(
        "store.coll_bytes_per_doc",
        stack.coll_bytes as f64 / num_docs as f64,
    );

    // Kernel work per request, from the crate's own counters (exact: one
    // caller, one pass).
    let before = kstats::kernel_totals();
    for req in pool {
        black_box(engine_answer(service, req)?);
    }
    let work = kstats::kernel_totals().since(&before);
    report.exact(
        "uncertain.candidates_per_query",
        work.candidates as f64 / pool.len() as f64,
    );
    report.exact(
        "uncertain.verified_per_candidate",
        work.verified as f64 / work.candidates.max(1) as f64,
    );

    // Ledger passes.
    let passes = ctx.scale.passes(sizes.ledger_passes);
    report.count("ledger_passes_per_epoch", passes);
    let scrape_before = service.metrics_snapshot();
    let mut ledger = Ledger::new(pool.len());
    let mut per_epoch: BTreeMap<String, (Vec<f64>, usize)> = BTreeMap::new();
    for epoch in 0..=EPOCHS {
        for pass in 0..if epoch == 0 { 1 } else { passes } {
            ledger.keep_spans(epoch > 0 && pass == 0);
            for (i, req) in pool.iter().enumerate() {
                let root = ledger.open_request(i);
                ledger.span(
                    &root,
                    "uncertain.kernel",
                    || layers::answer_via_kernel(&planes, req),
                    |(_, candidates)| vec![("candidates", *candidates)],
                );
                // One unmeasured call first: the kernel scan above walked
                // other memory, and every boundary from here on must find
                // this request's index nodes equally warm, or the
                // differences between boundaries measure the cache.
                black_box(answer_via_executors(&segments, req)?);
                let before = kstats::thread_totals();
                let (assembled, _) = ledger.span(
                    &root,
                    "core.doc_exec",
                    || answer_via_executors(&segments, req),
                    |_| {
                        let work = kstats::thread_totals().since(&before);
                        vec![
                            ("docs", num_docs as u64),
                            ("candidates", work.candidates),
                            ("verified", work.verified),
                            ("kernel_ns", work.kernel_ns),
                        ]
                    },
                );
                let mut parts = Vec::with_capacity(segments.len());
                let (mut sum, mut slowest) = (0.0f64, 0.0f64);
                for segment in &segments {
                    let (part, us) = ledger.span_part(
                        &root,
                        "service.segment_answer",
                        || segment.answer(req),
                        |_| vec![("docs", segment.docs.len() as u64)],
                    );
                    parts.push(part.map_err(|e| e.to_string())?);
                    sum += us;
                    slowest = slowest.max(us);
                }
                ledger.note(&root, "service.segment_sum", sum);
                ledger.note(&root, "service.segment_slowest", slowest);
                ledger.span(
                    &root,
                    "service.merge",
                    || merge_partials(req, parts),
                    |_| vec![],
                );
                let (dispatched, _) = ledger.span(
                    &root,
                    "service.engine",
                    || engine_answer(service, req),
                    |_| vec![("segments", segments.len() as u64)],
                );
                let (answer, _) = ledger.span(
                    &root,
                    "net.round_trip",
                    || round_trip(&mut client, req),
                    |_| vec![],
                );
                ledger.close_request(root);
                if epoch > 0 {
                    // Answers at every boundary must be equal.
                    for at in [assembled, dispatched, answer] {
                        report.op(at.and_then(|a| same(&a, &reference[i], i)));
                    }
                }
            }
        }
        let table = ledger.end_epoch();
        if epoch > 0 {
            for (name, value, samples) in ledger_metrics(&table, pool, num_docs) {
                let slot = per_epoch.entry(name).or_default();
                slot.0.push(value);
                slot.1 += samples;
            }
        }
    }
    for (name, (values, samples)) in &per_epoch {
        report.put(name, Summary::of_epochs(values, *samples));
    }
    // The engine's own stage histograms over the same phase (means: the
    // histograms are log2-bucketed, so their quantiles are powers of two).
    let scrape_after = service.metrics_snapshot();
    for stage in [
        "cache_lookup_us",
        "fanout_us",
        "merge_us",
        "segment_answer_us",
    ] {
        let name = format!("service.stage.{stage}");
        report.exact(&name, stage_mean(&scrape_before, &scrape_after, &name));
    }
    let trace = ctx.out_dir.join(format!("{}.trace.json", sizes.name));
    ledger.write_chrome(&trace).map_err(|e| e.to_string())?;
    report.notes.push(format!(
        "{} spans written to {}",
        ledger.kept(),
        trace.display()
    ));

    // The whole pool as one batch through the engine: the per-request cost once
    // the hand-off is shared.
    let batch_passes = ctx.scale.passes(sizes.ledger_passes);
    let mut batch_epochs: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    for epoch in 0..=EPOCHS {
        for _ in 0..if epoch == 0 { 1 } else { batch_passes } {
            let t = Instant::now();
            black_box(service.query_requests(pool));
            if epoch > 0 {
                batch_epochs[epoch - 1].push(t.elapsed().as_secs_f64() * 1e6 / pool.len() as f64);
            }
        }
    }
    report.put(
        "service.batch_us_per_req",
        epoch_percentile(&mut batch_epochs, 0.5),
    );

    // The result cache, on a second in-process service over the same
    // file: the pool replayed twice, so the first replay misses and the
    // second hits. No end-to-end workload turns the cache on (a stated
    // gap); this prices it for the issue that adds one.
    let coll = ctx.work_dir.join(format!("{}.coll", sizes.name));
    let cached =
        QueryService::load_collection(&coll, service_config(1024)).map_err(|e| e.to_string())?;
    let (mut miss_added, mut hit_us) = (Vec::new(), Vec::new());
    for replay in 0..2 {
        for (i, req) in pool.iter().enumerate() {
            // First replay: the same request on the cache-off service just
            // before (twice, the first call warming the index nodes), so
            // the miss is priced against an equally warm plain answer.
            let mut plain_us = 0.0;
            if replay == 0 {
                black_box(engine_answer(service, req)?);
                let t = Instant::now();
                black_box(engine_answer(service, req)?);
                plain_us = t.elapsed().as_secs_f64() * 1e6;
            }
            let t = Instant::now();
            let answer = engine_answer(&cached, req);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if replay == 0 {
                miss_added.push(us - plain_us);
            } else {
                hit_us.push(us);
            }
            report.op(answer.and_then(|a| same(&a, &reference[i], i)));
        }
    }
    let (hits, misses) = cached.cache_stats();
    report.exact(
        "service.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.put(
        "service.cache.hit_us",
        Summary::of_epochs(&[median(&hit_us)], pool.len()),
    );
    report.put(
        "service.cache.miss_added_us",
        Summary::of_epochs(&[median(&miss_added)], pool.len()),
    );
    drop(cached);

    // Wire counters per request, from the server's own metrics (exact
    // with one client): one pool pass on a fresh connection, scraped
    // after the handshake.
    let mut probe = connect(addr)?;
    // The server counts a frame after writing it, so a reply can reach
    // the client before its count lands: read until two reads agree.
    let settled = || {
        let mut last = (stack.server.metrics_snapshot(), stack.server.loop_stats());
        loop {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let next = (stack.server.metrics_snapshot(), stack.server.loop_stats());
            if next == last {
                return next;
            }
            last = next;
        }
    };
    let (net_before, loops_before) = settled();
    for req in pool {
        black_box(round_trip(&mut probe, req)?);
    }
    let (net_after, loops_after) = settled();
    let _ = probe.goodbye();
    let per_request = |name: &str| {
        (counter(&net_after, name) - counter(&net_before, name)) as f64 / pool.len() as f64
    };
    report.exact(
        "net.bytes_per_request",
        per_request("net.bytes_in") + per_request("net.bytes_out"),
    );
    report.exact(
        "net.frames_per_request",
        per_request("net.frames_in") + per_request("net.frames_out"),
    );
    report.exact(
        "net.wakeups_per_request",
        (loops_after.wakeups - loops_before.wakeups) as f64 / pool.len() as f64,
    );
    report.exact(
        "net.ready_events_per_request",
        (loops_after.ready_events - loops_before.ready_events) as f64 / pool.len() as f64,
    );

    // Connect + handshake.
    let mut connects: Vec<f64> = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        let session = connect(addr)?;
        connects.push(t.elapsed().as_secs_f64() * 1e6);
        let _ = session.goodbye();
    }
    report.put(
        "net.connect_us",
        Summary::of_epochs(&[median(&connects[1..])], connects.len() - 1),
    );

    // Pipelined throughput at one and two connections.
    let thr_passes = ctx.scale.passes(sizes.throughput_passes);
    for (conns, name) in [
        (1, "net.pipelined_rps_1conn"),
        (2, "net.pipelined_rps_2conn"),
    ] {
        let rps = pipelined_rps(report, addr, pool, reference, conns, thr_passes)?;
        let summary = Summary::of_epochs(&rps, conns * thr_passes * pool.len() * EPOCHS);
        report.put(name, summary);
        if conns == 2 {
            // The demoted end-to-end throughput is this very number.
            report.put("e2e.throughput_rps", summary);
        }
    }

    // What tracing costs, and what the program's own stage timings leave
    // unexplained: plain passes with the backend tracer off alternate
    // with traced passes (tracer at 100 %, force-sampled contexts), so
    // both see the same box state.
    let obs_passes = ctx.scale.passes(sizes.ledger_passes);
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    let mut with_trace: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    let mut stage_sums: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    let mut unaccounted: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    let mut next_trace: u128 = 1;
    for epoch in 0..=EPOCHS {
        for _ in 0..if epoch == 0 { 1 } else { obs_passes } {
            service.tracer().set_sample_permyriad(0);
            for req in pool {
                let t = Instant::now();
                black_box(round_trip(&mut client, req)?);
                if epoch > 0 {
                    plain[epoch - 1].push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            service.tracer().set_sample_permyriad(10_000);
            for (i, req) in pool.iter().enumerate() {
                let context = TraceContext {
                    trace_id: next_trace,
                    parent_span: 0,
                    sampled: true,
                };
                next_trace += 1;
                let t = Instant::now();
                let reply = client
                    .query_requests_traced(
                        std::slice::from_ref(req),
                        std::slice::from_ref(&context),
                    )
                    .map_err(|e| format!("traced session failed: {e}"))?
                    .pop()
                    .ok_or("empty traced reply")?;
                let us = t.elapsed().as_secs_f64() * 1e6;
                let (answer, stages) = reply;
                if epoch > 0 {
                    let stage_sum: u64 = stages.iter().map(|(_, us)| us).sum();
                    with_trace[epoch - 1].push(us);
                    stage_sums[epoch - 1].push(stage_sum as f64);
                    unaccounted[epoch - 1].push(us - stage_sum as f64);
                    report.op(answer
                        .map_err(|e| format!("traced request refused: {e}"))
                        .and_then(|a| same(&a, &reference[i], i)));
                }
            }
        }
    }
    service.tracer().set_sample_permyriad(0);
    let _ = client.goodbye();
    let plain = epoch_percentile(&mut plain, 0.5);
    let with_trace = epoch_percentile(&mut with_trace, 0.5);
    report.exact(
        "obs.trace_overhead_share",
        (with_trace.value - plain.value) / plain.value,
    );
    report.put(
        "net.server_stage_sum_us",
        epoch_percentile(&mut stage_sums, 0.5),
    );
    let residual = epoch_percentile(&mut unaccounted, 0.5);
    report.put("net.unaccounted_us", residual);

    let (sum, gap, rtt) = (
        report.get("ledger.sum_us").map_or(0.0, |s| s.value),
        report.get("ledger.gap_us").map_or(0.0, |s| s.value),
        report.get("net.rtt_p50_us").map_or(0.0, |s| s.value),
    );
    report.notes.push(format!(
        "ledger: added costs sum to {sum:.1} us against an RTT p50 of {rtt:.1} us; gap {gap:.1} us is {} net.unaccounted_us ({:.1} us)",
        if gap <= residual.value { "within" } else { "ABOVE" },
        residual.value
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_client_thread_does_not_strand_its_peer() {
        // One worker fails in its third epoch; the other must still get
        // through every barrier, and the phase reports the failure.
        let calls = AtomicU64::new(0);
        let healthy = |_warm_up: bool| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let mut epoch = 0;
        let failing = move |_warm_up: bool| {
            epoch += 1;
            if epoch == 3 {
                Err("pipelined batch failed: connection reset".to_string())
            } else {
                Ok(())
            }
        };
        let workers: Vec<Box<dyn FnMut(bool) -> Result<(), String> + Send + '_>> =
            vec![Box::new(healthy), Box::new(failing)];
        let outcome = epochs_in_lockstep(workers);
        assert_eq!(
            outcome.unwrap_err(),
            "pipelined batch failed: connection reset"
        );
        assert_eq!(calls.into_inner(), EPOCHS as u64 + 1);
    }
}

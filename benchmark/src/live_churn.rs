//! `live-churn`: a `LiveService` in a fresh directory, in-process.
//!
//! 1. **Ingest** (this is the set-up): the `serve-fanout` collection
//!    inserted document by document (fsynced WAL), then `wait_idle`.
//! 2. **Quiescent**: one caller loops the request pool.
//! 3. **Churn**: a writer thread issues writes *open-loop*, one due every
//!    2 ms (alternately an insert from a second collection generated with
//!    seed + 1 and a delete of the oldest live document: a retention
//!    window sliding over a stream), each timed from its due time, with
//!    the writer's lateness reported; one reader thread loops the pool
//!    *closed-loop* until the last write is acknowledged. Background seals
//!    and compactions happen as configured.
//! 4. **Recovery**: `flush`, `compact`, drop, reopen → first answer; the
//!    reopened service must answer exactly as before the drop.
//!
//! The same executors and engine as the serving workloads, used
//! differently: scanned memtable documents beside built segments, view
//! snapshots under the writer's lock, WAL and seal work competing for the
//! two cores — so a read-path gain that costs writes, recovery or space
//! shows here. The collection keeps its size while it churns, and the
//! service goes through the same states once per compaction cycle, so one
//! cycle is one epoch (see [`EPOCH_WRITES`]).

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ustr_live::{LiveConfig, LiveService};
use ustr_service::{QueryRequest, QueryResponse, QueryService, SegmentSet, ServiceConfig};
use ustr_uncertain::{kstats, UncertainString};
use ustr_workload::{generate_collection, DatasetConfig};

use crate::check::{truths, Truth};
use crate::data::{mode_index, pattern_of, positions, serve_pool, EPSILON, MODES, TAU_MIN};
use crate::fingerprint::filesystem_of;
use crate::layers::{self, CoreBuilds};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::stats::{epoch_percentile, median, percentile_of, Summary};
use crate::steal::{await_quiet, Sifter, StealClock, PATIENCE};
use crate::{Ctx, EPOCHS};

/// The initial collection: the `serve-fanout` shape.
const POSITIONS: usize = 40_000;
const THETA: f64 = 0.25;
/// Documents sealed into a segment at a time, and the segment count that
/// triggers a compaction into one.
const SEAL_THRESHOLD: usize = 256;
const COMPACT_MIN_SEGMENTS: usize = 4;
/// Writes of one churn epoch: one whole compaction cycle. Every second
/// write inserts; a seal takes [`SEAL_THRESHOLD`] inserts, and the seal
/// that makes the fourth segment triggers the compaction that leaves one,
/// so every 3 seals = 768 inserts = 1 536 writes the service has been
/// through the same states (a memtable filling three times beside one to
/// three segments, one compaction) — 3.07 s at one write per 2 ms.
const EPOCH_WRITES: usize = 2 * SEAL_THRESHOLD * (COMPACT_MIN_SEGMENTS - 1);
/// Churn epochs at full scale, how many more the writer may add to make
/// up for disturbed ones (see [`crate::steal`]), and how far apart writes
/// are due.
const CHURN_EPOCHS: usize = 5;
const SPARE_EPOCHS: usize = 2;
const WRITE_INTERVAL: Duration = Duration::from_millis(2);
/// Pool passes per epoch of the quiescent phase.
const QUIESCENT_PASSES: usize = 2;
/// Set-up (ingest) repetitions, each into a fresh directory.
const SETUP_REPS: usize = 3;
/// Reopen repetitions of the traced run, which reports their median; the
/// end-to-end run reopens once, for the gate.
const REOPEN_REPS: usize = 3;

fn config(seal_threshold: usize, compact_min_segments: usize) -> LiveConfig {
    LiveConfig {
        threads: 2,
        cache_capacity: 0,
        tau_min: TAU_MIN,
        epsilon: None,
        seal_threshold,
        compact_min_segments,
    }
}

/// A static service over the same documents as one live segment.
const ONE_SHARD: ServiceConfig = ServiceConfig {
    threads: 2,
    shards: 1,
    cache_capacity: 0,
    epsilon: None,
};

fn live_err(e: ustr_live::LiveError) -> String {
    format!("live service: {e}")
}

/// Opens a fresh directory and inserts `docs` one by one; returns the
/// service, the insert wall time and the `wait_idle` time after it.
fn ingest(
    dir: &Path,
    cfg: LiveConfig,
    docs: &[UncertainString],
) -> Result<(LiveService, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let live = LiveService::open(dir, cfg).map_err(live_err)?;
    let t = Instant::now();
    for doc in docs {
        live.insert(doc.clone()).map_err(live_err)?;
    }
    let insert_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    live.wait_idle().map_err(live_err)?;
    Ok((live, insert_s, t.elapsed().as_secs_f64()))
}

fn one(live: &LiveService, req: &QueryRequest) -> Result<QueryResponse, String> {
    live.query_requests(std::slice::from_ref(req))
        .pop()
        .ok_or("empty reply")?
        .map_err(|e| e.to_string())
}

/// Every pool request checked against the scanner's truth.
fn gate(
    report: &mut Report,
    live: &LiveService,
    truth: &[Truth],
    pool: &[QueryRequest],
    at: &str,
) -> Vec<Option<QueryResponse>> {
    pool.iter()
        .zip(truth)
        .map(|(req, truth)| {
            let answer = one(live, req);
            report.op(answer.clone().and_then(|resp| {
                // ε none: approx requests are answered exactly, which the
                // sandwich admits.
                truth
                    .check(req, &resp, TAU_MIN, EPSILON)
                    .map_err(|why| format!("{at}: {req:?}: {why}"))
            }));
            answer.ok()
        })
        .collect()
}

/// Each pool request's median latency (µs) over `passes` passes, after one
/// warm-up pass.
fn per_request_us(
    pool: &[QueryRequest],
    passes: usize,
    mut call: impl FnMut(&QueryRequest) -> Result<QueryResponse, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = vec![Vec::with_capacity(passes); pool.len()];
    for pass in 0..=passes {
        for (i, req) in pool.iter().enumerate() {
            let t = Instant::now();
            black_box(call(req)?);
            if pass > 0 {
                samples[i].push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Ok(samples.iter().map(|s| median(s)).collect())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Heap bytes of the indexes in a closed live directory's segment files.
/// `LiveService` does not show its segments, so each `.coll` file is loaded
/// the way `QueryService` would serve it.
fn segment_index_heap(dir: &Path) -> Result<usize, String> {
    let mut heap = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "coll") {
            let segment = QueryService::load_collection(&path, ONE_SHARD)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            heap += layers::index_heap_bytes(&segment.segments());
        }
    }
    Ok(heap)
}

/// One acknowledged write of the churn phase.
struct Write {
    insert: bool,
    due: Instant,
    start: Instant,
    end: Instant,
}

/// What the writer did during churn.
struct Churned {
    log: Vec<Write>,
    /// Whether each epoch of `log` counts, and the tally behind that.
    counted: Vec<bool>,
    sifter: Sifter,
    /// `(stable id, index into the churn collection)` per insert.
    inserted: Vec<(u64, usize)>,
    deleted: Vec<u64>,
}

/// What the reader saw during churn.
#[derive(Default)]
struct Reads {
    /// `(mode, when it was sent, latency µs)` per request.
    samples: Vec<(usize, Instant, f64)>,
    errors: Vec<String>,
}

impl Reads {
    /// The `p`-percentile over the whole phase, all modes pooled.
    fn percentile(&self, p: f64) -> Summary {
        let mut us: Vec<f64> = self.samples.iter().map(|&(_, _, us)| us).collect();
        Summary::of_epochs(&[percentile_of(&mut us, p)], us.len())
    }

    /// Latencies by mode and epoch. Epoch `e` lasts from `bounds[e]` to
    /// `bounds[e + 1]`; a read belongs to the epoch it was sent in.
    fn by_epoch(&self, bounds: &[Instant]) -> Vec<Vec<Vec<f64>>> {
        let epochs = bounds.len() - 1;
        let mut latencies = vec![vec![Vec::new(); epochs]; MODES.len()];
        for &(mode, sent, us) in &self.samples {
            let epoch = bounds[1..]
                .partition_point(|end| *end <= sent)
                .min(epochs - 1);
            latencies[mode][epoch].push(us);
        }
        latencies
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new("live-churn", ctx.traced);
    let n = ctx.scale.size(POSITIONS);
    // `--quick` ingests a tenth of the documents and never seals: its
    // epoch is an eighth of a cycle, for the code path's sake.
    let epoch_writes = if ctx.scale.quick {
        EPOCH_WRITES / 8
    } else {
        EPOCH_WRITES
    };
    let churn_epochs = ctx.scale.passes(CHURN_EPOCHS);
    let writes = churn_epochs * epoch_writes;
    let most_writes = (churn_epochs + SPARE_EPOCHS) * epoch_writes;
    let dir = ctx.work_dir.join("live");
    report.notes.push(format!(
        "work dir {} is on {}",
        ctx.work_dir.display(),
        filesystem_of(&ctx.work_dir)
    ));
    report.count("churn_writes", writes);
    report.count("churn_epochs", churn_epochs);
    report.count("write_interval_us", WRITE_INTERVAL.as_micros() as usize);
    report.count("epochs", EPOCHS);

    // Phase 1, repeated: generation + ingest + wait_idle. The last
    // repetition's service is the one measured.
    let (discarded, reps) = ctx.scale.setup_reps(SETUP_REPS, ctx.traced);
    report.count("setup_reps", reps);
    let (mut setup_s, mut ingest_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..discarded + reps {
        drop(last.take()); // releases the directory lock before the next open
        let start = Instant::now();
        let docs = generate_collection(&DatasetConfig::new(n, THETA, ctx.seed));
        // Every second write inserts. 36 positions a document is a tenth
        // more than the generator's mean, so its last, short document is
        // not needed.
        let churn_positions = most_writes / 2 * 36;
        let churn_docs =
            generate_collection(&DatasetConfig::new(churn_positions, THETA, ctx.seed + 1));
        let pool = serve_pool(&docs, ctx.seed);
        let (live, insert_s, idle_s) =
            ingest(&dir, config(SEAL_THRESHOLD, COMPACT_MIN_SEGMENTS), &docs)?;
        if rep >= discarded {
            setup_s.push(start.elapsed().as_secs_f64());
            ingest_s.push((insert_s, idle_s));
        }
        last = Some((docs, churn_docs, pool, live));
    }
    let (docs, churn_docs, pool, live) = last.expect("at least one set-up repetition");
    let inserts = most_writes / 2;
    if churn_docs.len() < inserts {
        return Err(format!(
            "{} churn documents generated, {inserts} needed",
            churn_docs.len()
        ));
    }
    let initial_positions = positions(&docs);
    report.count("initial_documents", docs.len());
    report.count("initial_positions", initial_positions);
    report.count("pool_requests", pool.len());
    let after_ingest = live.metrics_snapshot();

    // Gate, before any timing.
    let by_id: Vec<(usize, &UncertainString)> = docs.iter().enumerate().collect();
    gate(
        &mut report,
        &live,
        &truths(&by_id, &pool),
        &pool,
        "after ingest",
    );

    // Phase 2: quiescent queries.
    let quiescent_passes = ctx.scale.passes(QUIESCENT_PASSES);
    report.count("quiescent_passes_per_epoch", quiescent_passes);
    let mut ledger = Ledger::new(pool.len());
    let mut quiescent: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    for epoch in 0..=EPOCHS {
        for pass in 0..if epoch == 0 { 1 } else { quiescent_passes } {
            ledger.keep_spans(ctx.traced && epoch > 0 && pass == 0);
            for (i, req) in pool.iter().enumerate() {
                let root = ledger.open_request(i);
                let (answer, us) = ledger.span(&root, "live.view", || one(&live, req), |_| vec![]);
                ledger.close_request(root);
                if epoch > 0 {
                    quiescent[epoch - 1].push(us);
                    report.op(answer.map(drop));
                }
            }
        }
        ledger.end_epoch();
    }
    let quiescent = epoch_percentile(&mut quiescent, 0.5);

    // Phase 3: churn, once the box is quiet.
    let mut patience = PATIENCE;
    await_quiet(&mut patience);
    let stop = AtomicBool::new(false);
    let churn_start = Instant::now();
    let (written, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Churned, String> {
            let mut log = Vec::with_capacity(most_writes);
            let (mut counted, mut sifter) = (Vec::new(), Sifter::new(SPARE_EPOCHS));
            let mut clock = StealClock::read();
            // Oldest first: the initial documents (ids 0.., as the gate
            // has checked), then the churn's own inserts.
            let mut surviving: VecDeque<u64> = (0..docs.len() as u64).collect();
            let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
            let mut next_doc = 0usize;
            let outcome = (|| {
                // One more epoch for every disturbed one thrown away.
                let mut w = 0;
                while w < epoch_writes * (churn_epochs + sifter.rerun) {
                    let insert = w % 2 == 0;
                    let body = insert.then(|| churn_docs[next_doc].clone());
                    let due = churn_start + WRITE_INTERVAL * w as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let start = Instant::now();
                    match body {
                        Some(body) => {
                            let id = live.insert(body).map_err(live_err)?;
                            surviving.push_back(id);
                            inserted.push((id, next_doc));
                            next_doc += 1;
                        }
                        None => {
                            let id = surviving.pop_front().ok_or("nothing left to delete")?;
                            live.delete(id).map_err(live_err)?;
                            deleted.push(id);
                        }
                    }
                    log.push(Write {
                        insert,
                        due,
                        start,
                        end: Instant::now(),
                    });
                    w += 1;
                    if w % epoch_writes == 0 {
                        counted.push(sifter.keeps(clock.stolen_share_since()));
                        clock = StealClock::read();
                    }
                }
                Ok(())
            })();
            // ordering: SeqCst — the reader must see the stop once the
            // last write is acknowledged (or the writer failed).
            stop.store(true, Ordering::SeqCst);
            outcome.map(|()| Churned {
                log,
                counted,
                sifter,
                inserted,
                deleted,
            })
        });
        let reader = scope.spawn(|| {
            let mut reads = Reads::default();
            // ordering: SeqCst — pairs with the writer's store.
            'churn: while !stop.load(Ordering::SeqCst) {
                for req in &pool {
                    if stop.load(Ordering::SeqCst) {
                        break 'churn;
                    }
                    let t = Instant::now();
                    let answer = one(&live, req);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    reads.samples.push((mode_index(req), t, us));
                    if let Err(e) = answer {
                        reads.errors.push(e);
                    }
                }
            }
            reads
        });
        (
            writer
                .join()
                .unwrap_or_else(|_| Err("writer thread panicked".into())),
            reader
                .join()
                .map_err(|_| "reader thread panicked".to_string()),
        )
    });
    let Churned {
        log,
        counted,
        mut sifter,
        inserted,
        deleted,
    } = written?;
    sifter.waited = PATIENCE - patience;
    report.notes.extend(sifter.note("churn"));
    let reads = reads?;
    let churn_s = log
        .last()
        .map_or(0.0, |w| w.end.duration_since(churn_start).as_secs_f64());
    live.wait_idle().map_err(live_err)?;
    let after_churn = live.metrics_snapshot();
    let (segments_at_end, memtable_at_end) = (live.num_segments(), live.memtable_len());

    let read_count = reads.samples.len();
    report.ops_ok((log.len() + read_count - reads.errors.len()) as u64);
    for e in &reads.errors {
        report.op(Err(format!("read during churn failed: {e}")));
    }

    // The state the churn must have produced, checked against the scanner.
    let mut survivors: BTreeMap<usize, &UncertainString> = docs.iter().enumerate().collect();
    for (id, doc) in &inserted {
        survivors.insert(*id as usize, &churn_docs[*doc]);
    }
    for id in &deleted {
        survivors.remove(&(*id as usize));
    }
    let survivors: Vec<(usize, &UncertainString)> = survivors.into_iter().collect();
    let live_positions: usize = survivors.iter().map(|(_, d)| d.len()).sum();
    let survivor_truth = truths(&survivors, &pool);
    gate(&mut report, &live, &survivor_truth, &pool, "after churn");

    // Phase 4: flush, compact, drop, reopen → first answer.
    let unsealed = live.memtable_len();
    let t = Instant::now();
    live.flush().map_err(live_err)?;
    let flush_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    live.compact().map_err(live_err)?;
    live.wait_idle().map_err(live_err)?;
    let compact_s = t.elapsed().as_secs_f64();
    let before_drop = gate(
        &mut report,
        &live,
        &survivor_truth,
        &pool,
        "after compaction",
    );
    let final_counters = live.metrics_snapshot();
    drop(live);
    let bytes = dir_bytes(&dir);
    let index_heap = segment_index_heap(&dir)?;
    let mut reopen_s = Vec::new();
    for _ in 0..if ctx.traced { REOPEN_REPS } else { 1 } {
        let t = Instant::now();
        let reopened = LiveService::open(&dir, config(SEAL_THRESHOLD, COMPACT_MIN_SEGMENTS))
            .map_err(live_err)?;
        let first = one(&reopened, &pool[0]);
        reopen_s.push(t.elapsed().as_secs_f64());
        report.op(first.and_then(|resp| {
            if Some(&resp) == before_drop[0].as_ref() {
                Ok(())
            } else {
                Err("first answer after reopen differs from before the drop".into())
            }
        }));
        for (i, req) in pool.iter().enumerate().skip(1) {
            report.op(one(&reopened, req).and_then(|resp| {
                if Some(&resp) == before_drop[i].as_ref() {
                    Ok(())
                } else {
                    Err(format!("request {i} answers differently after reopen"))
                }
            }));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let counter = |snap: &ustr_obs::MetricsSnapshot, name: &str| {
        snap.counters.get(name).copied().unwrap_or(0)
    };
    let ingest_docs_per_s: Vec<f64> = ingest_s
        .iter()
        .map(|(insert_s, _)| docs.len() as f64 / insert_s)
        .collect();

    // Demoted end-to-end metrics: only the traced run prints them.
    let build_us: Vec<f64> = ingest_s
        .iter()
        .map(|(insert_s, idle_s)| (insert_s + idle_s) * 1e6 / initial_positions as f64)
        .collect();
    report.put("e2e.build_us_per_pos", Summary::of_epochs(&build_us, reps));
    report.put("e2e.load_s", Summary::of_epochs(&reopen_s, reopen_s.len()));

    if !ctx.traced {
        report.put("setup_s", Summary::of_epochs(&setup_s, reps));
        report.exact(
            "snapshot_bytes_per_pos",
            bytes as f64 / live_positions as f64,
        );
        report.exact(
            "index_bytes_per_pos",
            index_heap as f64 / live_positions as f64,
        );
        // One epoch per compaction cycle, ending with its last write.
        let bounds: Vec<Instant> = std::iter::once(churn_start)
            .chain(
                log.chunks(epoch_writes)
                    .map(|cycle| cycle[cycle.len() - 1].end),
            )
            .collect();
        let mut latencies = reads.by_epoch(&bounds);
        for (mode, key) in MODES.iter().enumerate() {
            // Only the epochs that count.
            let mut kept: Vec<Vec<f64>> = std::mem::take(&mut latencies[mode])
                .into_iter()
                .zip(&counted)
                .filter_map(|(epoch, counts)| counts.then_some(epoch))
                .collect();
            report.put(&format!("{key}_p50_us"), epoch_percentile(&mut kept, 0.5));
        }
        return Ok(report);
    }

    // Traced run: the live layer's own numbers.
    let whole = |samples: &mut Vec<f64>, p: f64| {
        let v = percentile_of(samples, p);
        Summary::of_epochs(&[v], samples.len())
    };
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    let mut insert_us: Vec<f64> = log
        .iter()
        .filter(|w| w.insert)
        .map(|w| us(w.start, w.end))
        .collect();
    let mut delete_us: Vec<f64> = log
        .iter()
        .filter(|w| !w.insert)
        .map(|w| us(w.start, w.end))
        .collect();
    let mut write_us: Vec<f64> = log.iter().map(|w| us(w.due, w.end)).collect();
    let mut lateness: Vec<f64> = log.iter().map(|w| us(w.due, w.start)).collect();
    let churn_p50 = reads.percentile(0.5);
    report.put("e2e.query_p95_us", reads.percentile(0.95));
    report.put(
        "e2e.throughput_rps",
        Summary::of_epochs(&[read_count as f64 / churn_s], read_count),
    );
    report.put("live.query_quiescent_p50_us", quiescent);
    report.exact("live.churn_slowdown", churn_p50.value / quiescent.value);
    report.put("live.insert_p50_us", whole(&mut insert_us, 0.5));
    report.put("live.insert_p95_us", whole(&mut insert_us, 0.95));
    report.put("live.delete_p50_us", whole(&mut delete_us, 0.5));
    report.put("live.write_p50_us", whole(&mut write_us, 0.5));
    report.put("live.writer_lateness_p95_us", whole(&mut lateness, 0.95));
    report.put(
        "live.ingest_docs_per_s",
        Summary::of_epochs(&ingest_docs_per_s, docs.len()),
    );
    report.exact("live.seal_docs_per_s", unsealed as f64 / flush_s);
    report.exact("live.compact_s", compact_s);
    report.put(
        "live.reopen_s",
        Summary::of_epochs(&reopen_s, reopen_s.len()),
    );
    // End-of-churn state: two runs are comparable only if these match.
    report.exact("live.seals", counter(&after_churn, "live.seals") as f64);
    report.exact(
        "live.compactions",
        counter(&after_churn, "live.compactions") as f64,
    );
    report.exact("live.segments_at_end", segments_at_end as f64);
    report.exact("live.memtable_at_end", memtable_at_end as f64);
    report.count(
        "compactions_after_phase_4",
        counter(&final_counters, "live.compactions") as usize,
    );

    // WAL cost of phase 1, from the service's own counters.
    let fsync = after_ingest
        .histograms
        .get("live.wal.append_fsync_us")
        .cloned()
        .unwrap_or_default();
    report.exact(
        "store.wal_bytes_per_doc",
        counter(&after_ingest, "live.wal.appended_bytes") as f64 / docs.len() as f64,
    );
    report.exact(
        "store.wal_append_mean_us",
        fsync.sum as f64 / fsync.count.max(1) as f64,
    );
    let (insert_s, _) = ingest_s[ingest_s.len() - 1];
    report.exact("live.wal_fsync_share", fsync.sum as f64 / 1e6 / insert_s);

    // Spans: the writer's, taken on its own thread, join the quiescent
    // reader's.
    for (w, write) in log.iter().enumerate() {
        ledger.add_finished(
            if write.insert {
                "live.insert"
            } else {
                "live.delete"
            },
            w,
            write.start,
            write.end,
            vec![("late_us", us(write.due, write.start) as u64)],
        );
    }
    let trace = ctx.out_dir.join("live-churn.trace.json");
    ledger.write_chrome(&trace).map_err(|e| e.to_string())?;
    report.notes.push(format!(
        "{} spans written to {}",
        ledger.kept(),
        trace.display()
    ));

    // What the live view adds over a static service, and what a memtable
    // scan costs: a second, small service holding only the initial
    // documents — first all in the memtable, then flushed to one segment —
    // against a one-shard `QueryService` over the same documents.
    let probe_dir = ctx.work_dir.join("live-probe");
    let (probe, _, _) = ingest(&probe_dir, config(0, 0), &docs)?;
    let probe_passes = ctx.scale.passes(QUIESCENT_PASSES);
    let scanned = per_request_us(&pool, probe_passes, |req| one(&probe, req))?;
    report.put(
        "live.memtable_scan_ns_per_doc",
        Summary::of_epochs(
            &[median(&scanned) * 1e3 / docs.len() as f64],
            pool.len() * probe_passes,
        ),
    );
    let before = kstats::kernel_totals();
    for req in &pool {
        black_box(one(&probe, req)?);
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
    probe.flush().map_err(live_err)?;
    let fixed = QueryService::build(&docs, TAU_MIN, ONE_SHARD).map_err(|e| e.to_string())?;
    // The two services answer each request back to back, the order
    // swapping every pass, so neither is always the one with warm caches.
    let mut added = vec![Vec::with_capacity(probe_passes); pool.len()];
    for pass in 0..=probe_passes {
        for (i, req) in pool.iter().enumerate() {
            let time = |live_first: bool| -> Result<f64, String> {
                let t = Instant::now();
                if live_first {
                    black_box(one(&probe, req)?);
                } else {
                    black_box(fixed.query_requests(std::slice::from_ref(req)));
                }
                Ok(t.elapsed().as_secs_f64() * 1e6)
            };
            let live_first = pass % 2 == 0;
            let (first, second) = (time(live_first)?, time(!live_first)?);
            if pass > 0 {
                added[i].push(if live_first {
                    first - second
                } else {
                    second - first
                });
            }
        }
    }
    let per_request: Vec<f64> = added.iter().map(|a| median(a)).collect();
    report.put(
        "live.view_added_us",
        Summary::of_epochs(&[median(&per_request)], pool.len() * probe_passes),
    );
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);
    drop(fixed);

    // Build-side probes on the initial documents.
    let substrate = layers::probe_substrate(&mut report, &docs, 1);
    CoreBuilds::measure(&docs, &docs, 1).report(&mut report, substrate);
    let expansion = report.get("uncertain.expansion").map_or(1.0, |s| s.value);
    layers::probe_rmq(
        &mut report,
        (expansion * initial_positions as f64 / docs.len() as f64) as usize,
        ctx.seed,
        3,
    );
    let patterns: Vec<&[u8]> = pool.iter().map(pattern_of).collect();
    layers::probe_kernel(&mut report, &docs, &patterns, 0.3, EPOCHS, probe_passes);
    Ok(report)
}

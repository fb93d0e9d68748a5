//! `paper-string`: one uncertain string of 100 000 positions (θ = 0.3)
//! queried in-process and single-threaded through `Index`, `ApproxIndex`
//! and — over the same positions cut into documents — `ListingIndex`. The
//! paper's own axes (Figs. 7–9): query time against m and τ, construction
//! time, index space. `service`, `live`, `net` do no work here, so a
//! serving change must leave every number of this workload alone.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ustr_core::{ApproxIndex, Index, ListingIndex};
use ustr_service::{DocHits, QueryRequest, QueryResponse, TopHit};
use ustr_store::Snapshot;
use ustr_uncertain::{kstats, UncertainString};
use ustr_workload::{
    generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode,
};

use crate::check::Truth;
use crate::data::{paper_pool, PaperQuery, EPSILON, MODES, PAPER_K, PAPER_LENGTHS, TAU_MIN};
use crate::layers::{self, CoreBuilds};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::stats::{epoch_percentile, median, percentile_of, quietest_epoch_percentile, Summary};
use crate::steal::undisturbed;
use crate::{Ctx, EPOCHS};

/// Positions of the string (the paper's n).
const N: usize = 100_000;
/// Fraction of uncertain positions.
const THETA: f64 = 0.3;
/// Patterns per length in the pool (5 lengths → 600 queries; with 40 per
/// length the pass mean moved by 15 % from one seed's patterns to the
/// next's).
const PER_LENGTH: usize = 120;
/// Pool passes per mode per epoch at full scale (~0.4 s an epoch). One
/// latency sample is the mean per-query time of one pass: single queries
/// take 0.2–10 µs, too close to the clock's own cost to time one by one.
const PASSES: usize = 15;
/// Epochs of the end-to-end timed phase: four times the usual, half as
/// long. What slows this workload (a busy neighbour on the core's other
/// hyper-thread, by every sign) comes and goes within seconds, a shorter
/// epoch fits into a shorter gap, and a longer phase meets more gaps.
const TIMED_EPOCHS: usize = 4 * EPOCHS;
/// Timed executions of each query after one untimed execution, in the
/// end-to-end phase. The index is 150 MB and a query's first execution is
/// a chain of cache misses, whose cost on this box doubles for minutes at
/// a time with the host's memory traffic (the approx index: 2.3x over four
/// consecutive runs, while a pure arithmetic loop moved 2 %). The repeats
/// find the query's lines in cache and time the work the algorithms do;
/// the cold cost stays visible, without a bound, in `core.threshold_us.*`.
const HOT_REPEATS: usize = 3;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 3;
/// Snapshot loads of the traced run, which reports their median; the
/// end-to-end run loads once, for the gate.
const LOAD_REPS: usize = 5;

/// Everything set-up builds.
struct Built {
    s: UncertainString,
    docs: Vec<UncertainString>,
    index: Index,
    listing: ListingIndex,
    approx: ApproxIndex,
    index_s: f64,
    approx_s: f64,
    listing_s: f64,
    total_s: f64,
}

fn set_up(n: usize, seed: u64) -> Result<Built, String> {
    let start = Instant::now();
    let cfg = DatasetConfig::new(n, THETA, seed);
    let s = generate_string(&cfg);
    // Same configuration and seed: the same positions, cut into documents.
    let docs = generate_collection(&cfg);
    let t = Instant::now();
    let index = Index::build(&s, TAU_MIN).map_err(|e| e.to_string())?;
    let index_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let listing = ListingIndex::build(&docs, TAU_MIN).map_err(|e| e.to_string())?;
    let listing_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let approx = ApproxIndex::build(&s, TAU_MIN, EPSILON).map_err(|e| e.to_string())?;
    let approx_s = t.elapsed().as_secs_f64();
    Ok(Built {
        s,
        docs,
        index,
        listing,
        approx,
        index_s,
        approx_s,
        listing_s,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// One query in one mode, as the request/response pair the gate checks.
fn answer(
    index: &Index,
    built: &Built,
    q: &PaperQuery,
    mode: usize,
) -> Result<(QueryRequest, QueryResponse), String> {
    let pattern = q.pattern.clone();
    let one_doc = |hits: Vec<(usize, f64)>| {
        Arc::new(if hits.is_empty() {
            Vec::new()
        } else {
            vec![DocHits { doc: 0, hits }]
        })
    };
    Ok(match mode {
        0 => (
            QueryRequest::Threshold {
                pattern,
                tau: q.tau,
            },
            QueryResponse::Threshold(one_doc(
                index
                    .query(&q.pattern, q.tau)
                    .map_err(|e| e.to_string())?
                    .into_hits(),
            )),
        ),
        1 => (
            QueryRequest::TopK {
                pattern,
                k: PAPER_K,
            },
            QueryResponse::TopK(Arc::new(
                index
                    .query_top_k(&q.pattern, PAPER_K)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|(pos, prob)| TopHit { doc: 0, pos, prob })
                    .collect(),
            )),
        ),
        2 => (
            QueryRequest::Listing {
                pattern,
                tau: q.tau,
            },
            QueryResponse::Listing(Arc::new(
                built
                    .listing
                    .query(&q.pattern, q.tau)
                    .map_err(|e| e.to_string())?,
            )),
        ),
        _ => (
            QueryRequest::Approx {
                pattern,
                tau: q.tau,
            },
            QueryResponse::Approx(one_doc(
                built
                    .approx
                    .query(&q.pattern, q.tau)
                    .map_err(|e| e.to_string())?
                    .into_hits(),
            )),
        ),
    })
}

/// Before any timing: every pool query, in every mode, against the
/// scanner's truth; the snapshot-loaded index against the built one; the
/// bare kernel scan against the truth too.
fn gate(report: &mut Report, built: &Built, loaded: &Index, pool: &[PaperQuery]) {
    let planes = layers::planes_of(std::slice::from_ref(&built.s));
    for q in pool {
        let string_truth = Truth::scan([(0usize, &built.s)], &q.pattern);
        let docs_truth = Truth::scan(built.docs.iter().enumerate(), &q.pattern);
        for (mode, name) in MODES.iter().enumerate() {
            let truth = if mode == 2 {
                &docs_truth
            } else {
                &string_truth
            };
            let outcome = answer(&built.index, built, q, mode).and_then(|(req, resp)| {
                truth
                    .check(&req, &resp, TAU_MIN, EPSILON)
                    .map_err(|why| format!("{name} {:?} tau {}: {why}", q.pattern, q.tau))?;
                // Boundary against boundary: the snapshot round trip
                // must not change an answer.
                let (_, again) = answer(loaded, built, q, mode)?;
                if again == resp {
                    Ok(())
                } else {
                    Err(format!(
                        "{name} {:?}: loaded index answers differently",
                        q.pattern
                    ))
                }
            });
            report.op(outcome);
        }
        let req = QueryRequest::Threshold {
            pattern: q.pattern.clone(),
            tau: q.tau,
        };
        let (resp, _) = layers::answer_via_kernel(&planes, &req);
        report.op(string_truth
            .check(&req, &resp, TAU_MIN, EPSILON)
            .map_err(|why| format!("kernel scan {:?}: {why}", q.pattern)));
    }
}

/// One query in one mode, answer discarded.
fn ask(built: &Built, q: &PaperQuery, mode: usize) {
    match mode {
        0 => drop(black_box(built.index.query(&q.pattern, q.tau))),
        1 => drop(black_box(built.index.query_top_k(&q.pattern, PAPER_K))),
        2 => drop(black_box(built.listing.query(&q.pattern, q.tau))),
        _ => drop(black_box(built.approx.query(&q.pattern, q.tau))),
    }
}

/// Mean µs per query of one pass over `pool` in one mode, each query
/// finding the index as the previous queries left it (cold, mostly).
fn pass_us(built: &Built, pool: &[PaperQuery], mode: usize) -> f64 {
    let t = Instant::now();
    for q in pool {
        ask(built, q, mode);
    }
    t.elapsed().as_secs_f64() * 1e6 / pool.len() as f64
}

/// Mean µs per execution of one pass over `pool` in one mode, caches warm:
/// each query is asked once untimed, then [`HOT_REPEATS`] times timed.
fn hot_pass_us(built: &Built, pool: &[PaperQuery], mode: usize) -> f64 {
    let mut busy = std::time::Duration::ZERO;
    for q in pool {
        ask(built, q, mode);
        let t = Instant::now();
        for _ in 0..HOT_REPEATS {
            ask(built, q, mode);
        }
        busy += t.elapsed();
    }
    busy.as_secs_f64() * 1e6 / (HOT_REPEATS * pool.len()) as f64
}

/// Per-epoch p50 of pass means for the threshold mode over a sub-pool.
fn class_latency(built: &Built, class: &[PaperQuery], passes: usize) -> Summary {
    pass_us(built, class, 0);
    let mut epochs: Vec<Vec<f64>> = (0..EPOCHS)
        .map(|_| (0..passes).map(|_| pass_us(built, class, 0)).collect())
        .collect();
    epoch_percentile(&mut epochs, 0.5)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new("paper-string", ctx.traced);
    let n = ctx.scale.size(N);
    let passes = ctx.scale.passes(PASSES);
    report.count("positions", n);
    report.count("pool_queries", PER_LENGTH * PAPER_LENGTHS.len());
    report.count("passes_per_mode_per_epoch", passes);
    report.count("epochs", if ctx.traced { EPOCHS } else { TIMED_EPOCHS });

    // Set-up, repeated: generation and the three builds.
    let (discarded, reps) = ctx.scale.setup_reps(SETUP_REPS, ctx.traced);
    report.count("setup_reps", reps);
    let (mut setup_s, mut index_us, mut approx_us, mut listing_us) =
        (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for rep in 0..discarded + reps {
        drop(last.take()); // each repetition starts from the same heap
        let built = set_up(n, ctx.seed)?;
        if rep >= discarded {
            setup_s.push(built.total_s);
            index_us.push(built.index_s * 1e6 / n as f64);
            approx_us.push(built.approx_s * 1e6 / n as f64);
            listing_us.push(built.listing_s * 1e6 / n as f64);
        }
        last = Some(built);
    }
    let built = last.expect("at least one set-up repetition");
    let pool = paper_pool(&built.s, PER_LENGTH, ctx.seed);

    // Snapshot size and load → first answer.
    let path = ctx.work_dir.join("paper-string.idx");
    let t = Instant::now();
    built.index.save(&path).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut load_s = Vec::new();
    let mut loaded = None;
    for _ in 0..if ctx.traced { LOAD_REPS } else { 1 } {
        drop(loaded.take());
        let t = Instant::now();
        let index = Index::load(&path).map_err(|e| e.to_string())?;
        black_box(
            index
                .query(&pool[0].pattern, pool[0].tau)
                .map_err(|e| e.to_string())?,
        );
        load_s.push(t.elapsed().as_secs_f64());
        loaded = Some(index);
    }
    let loaded = loaded.expect("loaded at least once");

    gate(&mut report, &built, &loaded, &pool);
    drop(loaded);

    // Demoted end-to-end metrics: only the traced run prints them.
    report.put("e2e.build_us_per_pos", Summary::of_epochs(&index_us, reps));
    report.put("e2e.load_s", Summary::of_epochs(&load_s, load_s.len()));

    if !ctx.traced {
        report.put("setup_s", Summary::of_epochs(&setup_s, reps));
        report.exact("snapshot_bytes_per_pos", snapshot_bytes as f64 / n as f64);
        report.exact(
            "index_bytes_per_pos",
            built.index.heap_size() as f64 / n as f64,
        );

        // Timed phase: one discarded warm-up pass per mode, then epochs in
        // which the four modes alternate pass by pass.
        for mode in 0..MODES.len() {
            hot_pass_us(&built, &pool, mode);
        }
        let (epochs, sifter) = undisturbed(TIMED_EPOCHS, TIMED_EPOCHS / 2, || {
            let mut per_mode = vec![Vec::with_capacity(passes); MODES.len()];
            for _ in 0..passes {
                for (mode, samples) in per_mode.iter_mut().enumerate() {
                    samples.push(hot_pass_us(&built, &pool, mode));
                }
            }
            Ok(per_mode)
        })?;
        for (mode, key) in MODES.iter().enumerate() {
            let mut samples: Vec<Vec<f64>> = epochs.iter().map(|e| e[mode].clone()).collect();
            report.put(
                &format!("{key}_p50_us"),
                quietest_epoch_percentile(&mut samples, 0.5),
            );
        }
        report.notes.extend(sifter.note("timed phase"));
        let ran = TIMED_EPOCHS + sifter.rerun;
        report.ops_ok((ran * passes * MODES.len() * (1 + HOT_REPEATS) * pool.len()) as u64);
        return Ok(report);
    }

    // Traced run: the per-layer ledger.
    let string = std::slice::from_ref(&built.s);
    let substrate = layers::probe_substrate(&mut report, string, 1);
    CoreBuilds {
        index: Summary::of_epochs(&index_us, reps),
        approx: Summary::of_epochs(&approx_us, reps),
        listing: Summary::of_epochs(&listing_us, reps),
        index_heap: built.index.heap_size() as f64 / n as f64,
        approx_heap: built.approx.stats().heap_bytes as f64 / n as f64,
        listing_heap: built.listing.heap_size() as f64 / n as f64,
    }
    .report(&mut report, substrate);
    layers::probe_rmq(
        &mut report,
        built.index.stats().transformed_len,
        ctx.seed,
        3,
    );
    let patterns: Vec<&[u8]> = pool.iter().map(|q| q.pattern.as_slice()).collect();
    layers::probe_kernel(
        &mut report,
        string,
        &patterns,
        TAU_MIN,
        EPOCHS,
        ctx.scale.passes(3),
    );
    report.exact("store.save_s", save_s);
    report.exact(
        "store.load_mb_per_s",
        snapshot_bytes as f64 / 1e6 / median(&load_s),
    );

    // The paper's axes, class by class (threshold mode).
    let class_passes = ctx.scale.passes(30);
    for m in PAPER_LENGTHS {
        let class: Vec<PaperQuery> = pool
            .iter()
            .filter(|q| q.pattern.len() == m)
            .cloned()
            .collect();
        report.put(
            &format!("core.threshold_us.m{m}"),
            class_latency(&built, &class, class_passes),
        );
    }
    for tau in [0.1, 0.4] {
        let class: Vec<PaperQuery> = pool.iter().filter(|q| q.tau == tau).cloned().collect();
        report.put(
            &format!("core.threshold_us.tau{tau}"),
            class_latency(&built, &class, class_passes),
        );
    }
    // Output sensitivity: m = 2 at τmin reports hundreds of occurrences
    // per query; it stays out of the end-to-end pool so it cannot swamp it.
    let m2: Vec<PaperQuery> = sample_patterns(
        &built.s,
        2,
        PER_LENGTH,
        PatternMode::Probable,
        ctx.seed ^ (2 << 8),
    )
    .into_iter()
    .map(|pattern| PaperQuery {
        pattern,
        tau: TAU_MIN,
    })
    .collect();
    let occurrences: usize = m2
        .iter()
        .map(|q| built.index.query(&q.pattern, q.tau).map_or(0, |r| r.len()))
        .sum();
    let occ_per_query = occurrences as f64 / m2.len() as f64;
    let m2_latency = class_latency(&built, &m2, class_passes);
    report.put("core.threshold_us.m2", m2_latency);
    report.exact("core.occ_per_query.m2", occ_per_query);
    report.exact(
        "core.us_per_occ.m2",
        m2_latency.value / occ_per_query.max(1.0),
    );

    // Throughput (queries per second of one caller, all four modes) and
    // the tail over all four modes pooled (p95 of pass means). They were
    // end-to-end metrics until their run-to-run spread proved wider than
    // any bound the contract allows.
    let mut pooled: Vec<f64> = (0..class_passes * MODES.len())
        .map(|i| pass_us(&built, &pool, i % MODES.len()))
        .collect();
    report.put(
        "e2e.throughput_rps",
        Summary::of_epochs(
            &[1e6 / (pooled.iter().sum::<f64>() / pooled.len() as f64)],
            pooled.len(),
        ),
    );
    report.put(
        "e2e.query_p95_us",
        Summary::of_epochs(&[percentile_of(&mut pooled, 0.95)], pooled.len()),
    );

    // Kernel work per query, from the crate's own counters (exact: one
    // thread, one pass).
    let before = kstats::kernel_totals();
    pass_us(&built, &pool, 0);
    let delta = kstats::kernel_totals().since(&before);
    report.exact(
        "uncertain.candidates_per_query",
        delta.candidates as f64 / pool.len() as f64,
    );
    report.exact(
        "uncertain.verified_per_candidate",
        delta.verified as f64 / delta.candidates.max(1) as f64,
    );

    // Ledger passes: each request through the kernel and the index.
    let planes = layers::planes_of(string);
    let thresholds: Vec<QueryRequest> = pool
        .iter()
        .map(|q| QueryRequest::Threshold {
            pattern: q.pattern.clone(),
            tau: q.tau,
        })
        .collect();
    let mut ledger = Ledger::new(pool.len());
    let ledger_passes = ctx.scale.passes(2);
    for _ in 0..EPOCHS {
        for pass in 0..ledger_passes {
            ledger.keep_spans(pass == 0);
            for (i, q) in pool.iter().enumerate() {
                let root = ledger.open_request(i);
                ledger.span(
                    &root,
                    "uncertain.kernel",
                    || layers::answer_via_kernel(&planes, &thresholds[i]),
                    |(_, candidates)| vec![("candidates", *candidates)],
                );
                let before = kstats::thread_totals();
                let (result, _) = ledger.span(
                    &root,
                    "core.doc_exec",
                    || built.index.query(&q.pattern, q.tau),
                    |result| {
                        let work = kstats::thread_totals().since(&before);
                        vec![
                            ("hits", result.as_ref().map_or(0, |r| r.len()) as u64),
                            ("candidates", work.candidates),
                            ("verified", work.verified),
                            ("kernel_ns", work.kernel_ns),
                        ]
                    },
                );
                ledger.close_request(root);
                result.map_err(|e| e.to_string())?;
            }
        }
        ledger.end_epoch();
    }
    let trace = ctx.out_dir.join("paper-string.trace.json");
    ledger.write_chrome(&trace).map_err(|e| e.to_string())?;
    report.notes.push(format!(
        "{} spans written to {}",
        ledger.kept(),
        trace.display()
    ));
    report.ops_ok((EPOCHS * ledger_passes * pool.len() * 2) as u64);
    Ok(report)
}

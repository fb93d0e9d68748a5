//! One seeded checker for a live collection. Each seed draws a schedule of
//! inserts, deletes (of live ids and of ids that are not live), seals,
//! compactions, checkpoints and reopens with the fault plans' FNV mix and
//! runs it on a [`LiveService`], under `FaultPlan::from_seed(seed)` for
//! seeds `0..64` and fault-free for `64..128`. Even seeds run on one thread
//! with no background maintenance and the cache off; odd seeds on eight,
//! sealing at two documents and compacting at two segments in the
//! background, with the cache on. The model is the acknowledged history;
//! after every reopen and at every check the service must hold exactly it
//! and answer through every door as a static rebuild of it. A failure
//! panics with the seed, the plan and the op list.

mod fault;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use fault::{fnv_mix, Fault, FaultIo, FaultPlan};
use ustr_live::{LiveConfig, LiveError, LiveService};
use ustr_service::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use ustr_store::{RealIo, StoreIo};
use ustr_uncertain::UncertainString;

/// Seeds below this run under their fault plan; as many more fault-free.
const FAULT_SEEDS: u64 = 64;
const NUM_OPS: u64 = 40;
const TAU_MIN: f64 = 0.1;

/// A document of 1–10 positions over {a, b, c}, each with 1–3 choices of
/// integer weight, normalised.
fn document(r: u64) -> UncertainString {
    let rows = (1..=1 + fnv_mix(r, 0) % 10)
        .map(|p| {
            let mut row: Vec<(u8, u64)> = (1..=1 + fnv_mix(r, p << 8) % 3)
                .map(|c| fnv_mix(r, p << 8 | c))
                .map(|h| (b'a' + (h % 3) as u8, 1 + (h >> 8) % 99))
                .collect();
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            let total: u64 = row.iter().map(|&(_, w)| w).sum();
            (row.into_iter())
                .map(|(c, w)| (c, w as f64 / total as f64))
                .collect()
        })
        .collect();
    UncertainString::from_rows(rows).expect("normalised rows are valid")
}

/// The mixed-mode batch every check answers: all four modes.
fn batch() -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for p in [&b"a"[..], b"ab", b"ba", b"bc"] {
        let (pattern, tau) = (p.to_vec(), 0.3);
        out.push(QueryRequest::Threshold { pattern, tau });
        let (pattern, tau) = (p.to_vec(), 0.5);
        out.push(QueryRequest::Approx { pattern, tau });
        let (pattern, k) = (p.to_vec(), 3);
        out.push(QueryRequest::TopK { pattern, k });
        let (pattern, tau) = (p.to_vec(), 0.2);
        out.push(QueryRequest::Listing { pattern, tau });
    }
    out
}

fn config(seed: u64) -> LiveConfig {
    let (threads, cache_capacity, seal_threshold, compact_min_segments) = match seed % 2 {
        0 => (1, 0, 0, 0),
        _ => (8, 8, 2, 2),
    };
    LiveConfig {
        threads,
        cache_capacity,
        tau_min: TAU_MIN,
        epsilon: None,
        seal_threshold,
        compact_min_segments,
    }
}

/// One seed's run: the service's directory and faults, the model of its
/// acknowledged history, the op list a failure reports, and how it went.
#[derive(Default)]
struct Run {
    seed: u64,
    dir: PathBuf,
    faults: Option<Arc<FaultIo>>,
    model: BTreeMap<u64, UncertainString>,
    next_id: u64,
    ops: Vec<String>,
    /// The fault fired inside the first open (which then failed).
    faulted_open: bool,
    /// A mid-schedule reopen found the fault still unfired.
    reopened_unfired: bool,
    /// The last open failed with a typed error.
    typed_error: bool,
    /// The static rebuild's answers to the batch, until the model changes.
    want: Option<Vec<QueryResponse>>,
}

impl Run {
    /// The I/O every open but the final one goes through.
    fn io(&self) -> Arc<dyn StoreIo> {
        match &self.faults {
            Some(faults) => Arc::clone(faults) as Arc<dyn StoreIo>,
            None => Arc::new(RealIo),
        }
    }

    fn fired(&self) -> bool {
        (self.faults.as_ref()).is_some_and(|io| io.injection().is_some())
    }

    fn fail(&self, what: String) -> ! {
        let (seed, ops) = (self.seed, self.ops.join("\n  "));
        let plan = (self.faults.as_ref()).map(|io| (FaultPlan::from_seed(seed), io.injection()));
        panic!("seed {seed}, plan and firing {plan:?}: {what}\nops:\n  {ops}");
    }

    /// An error is acceptable only once the seed's fault has fired.
    fn allow_error(&self, e: &LiveError) {
        if !self.fired() {
            self.fail(format!("failed before any fault fired: {e}"));
        }
    }

    /// Logs an operation and accepts its error only once the fault fired.
    fn step(&mut self, what: String, result: Result<(), LiveError>) {
        self.ops.push(format!("{what} -> {result:?}"));
        if let Err(e) = result {
            self.allow_error(&e);
        }
    }

    fn open(&mut self, io: Arc<dyn StoreIo>) -> Result<LiveService, LiveError> {
        let opened = LiveService::open_with_io(&self.dir, config(self.seed), io);
        self.ops
            .push(format!("open -> {:?}", opened.as_ref().err()));
        opened
    }

    /// Opens the directory over the run's I/O and checks that it recovered
    /// the model. An open the fault fired inside is retried once; `None`
    /// when an open fails otherwise (a typed error) or the retry fails.
    fn reopen(&mut self) -> Option<LiveService> {
        let before = self.fired();
        let mut opened = self.open(self.io());
        if opened.is_err() && !before && self.fired() {
            opened = self.open(self.io());
        }
        if let Err(e) = &opened {
            self.allow_error(e);
            self.typed_error = true;
        }
        let live = opened.ok()?;
        self.reopened_unfired |= !self.fired();
        self.check(&live, "after a reopen");
        Some(live)
    }

    /// The service holds exactly the model, and answers every request
    /// through every door as the static rebuild of the model does.
    fn check(&mut self, live: &LiveService, when: &str) {
        let (n, docs) = (live.num_docs(), live.live_docs());
        if n != docs.len() || !docs.iter().map(|(id, d)| (id, d)).eq(&self.model) {
            let got: Vec<u64> = docs.iter().map(|d| d.0).collect();
            let want = self.model.keys();
            self.fail(format!("{when}: ids {got:?}, num_docs {n}, model {want:?}"));
        }
        let requests = batch();
        if self.want.is_none() {
            // One document per assigned id, so the static ids are the stable
            // ones: a dead id holds a document no pattern of the batch occurs in.
            let bodies: Vec<UncertainString> = (0..self.next_id)
                .map(|id| self.model.get(&id).cloned())
                .map(|d| d.unwrap_or_else(|| UncertainString::deterministic(b"z")))
                .collect();
            let config = ServiceConfig {
                threads: 1,
                shards: 1,
                ..ServiceConfig::default()
            };
            let stat = QueryService::build(&bodies, TAU_MIN, config)
                .unwrap_or_else(|e| self.fail(format!("static build failed: {e}")));
            let want = stat.query_requests_sequential(&requests).into_iter();
            let want = want.map(|w| w.unwrap_or_else(|e| self.fail(format!("static: {e}"))));
            self.want = Some(want.collect());
        }
        let want = self.want.as_ref().expect("the static answers are built");
        let parallel = live.query_requests(&requests);
        let sequential = live.query_requests_sequential(&requests);
        for (q, (request, want)) in requests.iter().zip(want).enumerate() {
            let single = live.answer(request, None).0;
            for (door, got) in [
                ("answer", &single),
                ("query_requests", &parallel[q]),
                ("query_requests_sequential", &sequential[q]),
            ] {
                if got.as_ref().ok() != Some(want) {
                    let what = format!("{request:?} through {door}: {got:?}, want {want:?}");
                    self.fail(format!("{when}: {what}"));
                }
            }
        }
    }
}

/// Runs one seed's schedule, panicking on any violation.
fn run_seed(seed: u64) -> Run {
    let faults = (seed < FAULT_SEEDS).then(|| Arc::new(FaultIo::new(FaultPlan::from_seed(seed))));
    let dir = std::env::temp_dir().join(format!("ustr_live_model_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = Run {
        seed,
        dir,
        faults,
        ..Run::default()
    };

    // A faulted first open must leave a directory that recovers empty.
    let mut live = (run.reopen()).unwrap_or_else(|| run.fail("the first open failed twice".into()));
    (run.faulted_open, run.reopened_unfired) = (run.fired(), false);

    for i in 0..NUM_OPS {
        // The op from the top bits: FNV-1a's low bits depend only on the seed's.
        let r = fnv_mix(seed, 0xB000 + i);
        match r >> 59 {
            0..=15 => {
                let body = document(fnv_mix(seed, 0xD000 + i));
                let result = live.insert(body.clone());
                run.ops.push(format!("insert {body} -> {result:?}"));
                match result {
                    Ok(id) if id == run.next_id => {
                        run.model.insert(id, body);
                        (run.next_id, run.want) = (id + 1, None);
                    }
                    Ok(id) => run.fail(format!("insert acknowledged id {id}: an id was consumed")),
                    Err(e) => run.allow_error(&e),
                }
            }
            16..=18 if !run.model.is_empty() => {
                let id = *(run.model.keys().nth((r >> 8) as usize % run.model.len())).unwrap();
                // A reader races the delete: nothing it computes over the
                // state before the delete may be served after it.
                let (started, done) = (Barrier::new(2), AtomicBool::new(false));
                let result = std::thread::scope(|s| {
                    s.spawn(|| {
                        let requests = batch();
                        started.wait();
                        // ordering: Relaxed — a stop flag; the scope joins.
                        while !done.load(Ordering::Relaxed) {
                            live.query_requests(&requests);
                        }
                    });
                    started.wait();
                    let result = live.delete(id);
                    // ordering: Relaxed — as above.
                    done.store(true, Ordering::Relaxed);
                    result
                });
                if result.is_ok() {
                    run.model.remove(&id);
                    run.want = None;
                }
                run.step(format!("delete live {id}"), result);
                run.check(&live, "after a delete a reader raced");
            }
            16..=20 => {
                // Not live: deleted, or never assigned.
                let id = match (r >> 8) % (run.next_id + 1) {
                    id if run.model.contains_key(&id) => run.next_id,
                    id => id,
                };
                let result = live.delete(id);
                run.ops.push(format!("delete not live {id} -> {result:?}"));
                match result {
                    Err(LiveError::UnknownDocument { id: got }) if got == id => {}
                    Err(e @ LiveError::Background(_)) => run.allow_error(&e),
                    other => run.fail(format!("deleting {id} answered {other:?}")),
                }
            }
            21..=24 => run.step("seal".into(), live.seal()),
            25..=28 => run.step("compact".into(), live.compact()),
            29 => {
                run.ops.push("checkpoint".into());
                run.check(&live, "at a checkpoint");
            }
            _ => {
                run.ops.push("reopen".into());
                drop(live);
                live = match run.reopen() {
                    Some(live) => live,
                    None => return run,
                };
            }
        }
    }
    run.step("wait_idle".into(), live.wait_idle());
    run.check(&live, "quiesced");
    drop(live);

    // The final reopen, on the real filesystem.
    match run.open(Arc::new(RealIo)) {
        Ok(live) => run.check(&live, "after the final reopen"),
        Err(e) => {
            run.allow_error(&e);
            run.typed_error = true;
        }
    }
    let _ = std::fs::remove_dir_all(&run.dir);
    run
}

#[test]
fn fault_free_seeds_match_the_static_rebuild() {
    for seed in FAULT_SEEDS..2 * FAULT_SEEDS {
        run_seed(seed);
    }
}

/// Each seed's single fault either never fires, or the collection recovers
/// its acknowledged history, or a reopen reports a typed error. The sweep
/// must also cover what it claims to: every fault kind fires and recovers,
/// some fault fires inside the first open, and some after a mid-schedule
/// reopen.
#[test]
fn fault_seeds_recover_the_acknowledged_history() {
    let runs: Vec<Run> = (0..FAULT_SEEDS).map(run_seed).collect();
    let count = |f: &dyn Fn(&Run) -> bool| runs.iter().filter(|r| f(r)).count();
    let recovered = |kind: fn(Fault) -> bool| {
        count(&|r| r.fired() && !r.typed_error && kind(FaultPlan::from_seed(r.seed).fault))
    };
    let kinds = [
        recovered(|f| matches!(f, Fault::FailFsync { .. })),
        recovered(|f| matches!(f, Fault::TearWrite { .. })),
        recovered(|f| matches!(f, Fault::FailRename { .. })),
    ];
    let unfired = count(&|r| !r.fired());
    let first_open = count(&|r| r.faulted_open);
    let after_reopen = count(&|r| r.reopened_unfired && r.fired());
    println!(
        "{FAULT_SEEDS} fault seeds: {unfired} never fired, recovered (fsync/tear/rename) \
         {kinds:?}, {} typed errors; {first_open} fired in the first open, {after_reopen} \
         after a reopen",
        count(&|r| r.typed_error),
    );
    assert!(unfired <= 4, "{unfired} faults never fired: too little I/O");
    assert!(kinds.iter().all(|&n| n > 0), "a fault kind never recovered");
    assert!(first_open > 0, "no fault fired in a first open");
    assert!(after_reopen > 0, "no fault fired after a reopen");
}

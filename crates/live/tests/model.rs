//! One seeded checker for a live collection, held against an independent
//! reference through every front door. Each seed draws a list of inserts
//! (one document in four correlated, one certain position in four given
//! just above 1), deletes (of live ids and of ids that
//! are not live), seals, compactions, checkpoints and reopens, then runs it
//! under `FaultPlan::from_seed(seed)` for seeds `0..64` and fault-free for
//! `64..128`. Even seeds run on one thread with no background maintenance,
//! the cache off and one static shard; odd seeds on eight threads, sealing
//! at two documents and compacting at two segments in the background, with
//! the cache on and three static shards. One seed in four sets ε, which
//! the services ignore.
//!
//! At every check the service holds exactly the acknowledged history, and
//! the live `answer`, `query_requests` and `query_requests_sequential` and
//! a static [`QueryService`]'s `answer` and `query_requests_sequential`
//! answer a mixed batch plus boundary draws (τ = p, p·(1 + PROB_EPS/2),
//! p·(1 + 2·PROB_EPS) at known occurrences) bit for bit alike, and an
//! `Approx` request as the `Threshold` request at its pattern and τ. Every
//! answer keeps the threshold rule against each occurrence's probability:
//! the possible-world oracle's for an uncorrelated document, the static
//! door's for a correlated one (pr⁺ and pr⁻ do not form a distribution). A
//! failing list is shrunk; the panic names the seed, the plan and the
//! shrunk list.

mod fault;

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Once};

use fault::{fnv_mix, Fault, FaultIo, FaultPlan};
use ustr_baseline::PossibleWorldOracle;
use ustr_live::{LiveConfig, LiveError, LiveService};
use ustr_service::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use ustr_store::{RealIo, StoreIo};
use ustr_uncertain::{Correlation, CorrelationSet, UncertainChar, UncertainString, PROB_EPS};

/// Seeds below this run under their fault plan; as many more fault-free.
const FAULT_SEEDS: u64 = 64;
const NUM_OPS: u64 = 40;
const TAU_MIN: f64 = 0.1;
const EPSILON: f64 = 0.1;
const PATTERNS: [&[u8]; 4] = [b"a", b"ab", b"ba", b"bc"];

/// One scheduled operation. A seed's list is drawn before it runs, so that
/// a failing list can be shrunk.
#[derive(Clone, Debug)]
enum Op {
    Insert(UncertainString),
    /// Deletes the live id the number picks (one that is not, with none live).
    DeleteLive(u64),
    /// Deletes an id that is not live: a deleted one, or one never assigned.
    DeleteNotLive(u64),
    Seal,
    Compact,
    Checkpoint,
    Reopen,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Op::Insert(d) = self else {
            return write!(f, "{self:?}");
        };
        let corrs: Vec<&Correlation> = d.correlations().iter().collect();
        write!(f, "insert {d} {corrs:?}")
    }
}

/// A document of 1–10 positions over {a, b, c}, each with 1–3 choices of
/// integer weight, normalised. One single-choice row in four is given as
/// 1 + u·PROB_EPS, u in (0, 1] — rounding above certainty, which the model
/// admits and must store as 1, or a window could outweigh its prefix and
/// an early-exit walk answer apart from a full one. One document in four
/// conditions the first choice of an uncertain position on the first
/// choice of the position before it, pr⁺ above pr⁻ or below it (as
/// `tests/common::correlated` does).
fn document(r: u64) -> UncertainString {
    let rows = (1..=1 + fnv_mix(r, 0) % 10)
        .map(|p| {
            let mut row: Vec<(u8, u64)> = (1..=1 + fnv_mix(r, p << 8) % 3)
                .map(|c| fnv_mix(r, p << 8 | c))
                .map(|h| (b'a' + (h % 3) as u8, 1 + (h >> 8) % 99))
                .collect();
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            if let [(c, _)] = row[..] {
                if fnv_mix(r, p << 8 | 0xF0) >> 62 == 0 {
                    let u = ((fnv_mix(r, p << 8 | 0xF1) >> 11) + 1) as f64 / (1u64 << 53) as f64;
                    return vec![(c, 1.0 + u * PROB_EPS)];
                }
            }
            let total: u64 = row.iter().map(|&(_, w)| w).sum();
            (row.into_iter())
                .map(|(c, w)| (c, w as f64 / total as f64))
                .collect()
        })
        .collect();
    let s = UncertainString::from_rows(rows).expect("normalised rows are valid");
    let uncertain: Vec<usize> = (1..s.len())
        .filter(|&q| s.position(q).num_choices() > 1)
        .collect();
    if fnv_mix(r, 0xC0) >> 62 != 0 || uncertain.is_empty() {
        return s;
    }
    let q = uncertain[(fnv_mix(r, 0xC1) >> 8) as usize % uncertain.len()];
    let (subject_char, p) = s.position(q).choices()[0];
    let (high, low) = ((p * 1.5).min(1.0), p * 0.5);
    let (p_present, p_absent) = [(high, low), (low, high)][(fnv_mix(r, 0xC2) >> 63) as usize];
    let corr = Correlation {
        subject_pos: q,
        subject_char,
        cond_pos: q - 1,
        cond_char: s.position(q - 1).choices()[0].0,
        p_present,
        p_absent,
    };
    correlated(s.positions(), [corr].iter())
}

/// A document of `positions` and the correlations of `corrs` inside them.
fn correlated<'a>(
    positions: &[UncertainChar],
    corrs: impl Iterator<Item = &'a Correlation>,
) -> UncertainString {
    let mut s = UncertainString::new(positions.to_vec());
    let mut set = CorrelationSet::new();
    for c in corrs.filter(|c| c.subject_pos.max(c.cond_pos) < s.len()) {
        set.add(c.clone()).expect("a valid correlation");
    }
    s.set_correlations(set).expect("inside the document");
    s
}

/// The seed's op list. The op comes from the top bits: FNV-1a's low bits
/// depend only on the seed's.
fn schedule(seed: u64) -> Vec<Op> {
    let op = |i| match fnv_mix(seed, 0xB000 + i) {
        r if r >> 59 <= 15 => Op::Insert(document(fnv_mix(seed, 0xD000 + i))),
        r if r >> 59 <= 18 => Op::DeleteLive(r >> 8),
        r if r >> 59 <= 20 => Op::DeleteNotLive(r >> 8),
        r if r >> 59 <= 24 => Op::Seal,
        r if r >> 59 <= 28 => Op::Compact,
        r if r >> 59 == 29 => Op::Checkpoint,
        _ => Op::Reopen,
    };
    (0..NUM_OPS).map(op).collect()
}

/// The seed's live and static configurations. The cache holds a whole
/// check, so a stale entry would be hit.
fn configs(seed: u64) -> (LiveConfig, ServiceConfig) {
    let (threads, cache_capacity, seal_threshold, shards) =
        [(1, 0, 0, 1), (8, 64, 2, 3)][seed as usize % 2];
    let epsilon = (fnv_mix(seed, 0xE5) >> 62 == 0).then_some(EPSILON);
    let live = LiveConfig {
        threads,
        cache_capacity,
        tau_min: TAU_MIN,
        epsilon,
        seal_threshold,
        compact_min_segments: seal_threshold,
    };
    let service = ServiceConfig {
        threads,
        shards,
        cache_capacity,
        epsilon,
    };
    (live, service)
}

/// Threshold, Listing and Approx requests for `pattern` at τ.
fn at(pattern: &[u8], tau: f64) -> [QueryRequest; 3] {
    let p = || pattern.to_vec();
    [
        QueryRequest::Threshold { pattern: p(), tau },
        QueryRequest::Listing { pattern: p(), tau },
        QueryRequest::Approx { pattern: p(), tau },
    ]
}

/// The mixed batch every check answers: every mode, and the first request
/// again (a batch is its requests, each answered as if alone).
fn batch() -> Vec<QueryRequest> {
    let top = |p: &&[u8]| QueryRequest::TopK {
        pattern: p.to_vec(),
        k: 3,
    };
    let mut out: Vec<QueryRequest> = PATTERNS.iter().flat_map(|p| at(p, 0.3)).collect();
    out.extend(PATTERNS.iter().map(top));
    out.push(out[0].clone());
    out
}

/// Whether an occurrence of probability `p` must be reported at τ
/// (`Some(true)`), must not be (`Some(false)`), or is too close to call:
/// the threshold rule, with relative margins of at least `PROB_EPS/2`.
fn expect(p: f64, tau: f64) -> Option<bool> {
    let must = tau <= p * (1.0 + PROB_EPS / 2.0);
    (must || tau >= p * (1.0 + 2.0 * PROB_EPS)).then_some(must)
}

/// The `(doc, pos, prob)` hits of a response (a listed document at 0).
fn hit_list(response: &QueryResponse) -> Vec<(u64, usize, f64)> {
    match response {
        QueryResponse::Threshold(docs) | QueryResponse::Approx(docs) => (docs.iter())
            .flat_map(|d| d.hits.iter().map(|&(pos, p)| (d.doc as u64, pos, p)))
            .collect(),
        QueryResponse::Listing(docs) => {
            (docs.iter().map(|h| (h.doc as u64, 0, h.relevance))).collect()
        }
        QueryResponse::TopK(_) => Vec::new(),
    }
}

/// Per document, per pattern of [`PATTERNS`], its `(pos, prob)` occurrences.
type Occurrences = Vec<Vec<(usize, f64)>>;

/// One run of an op list: the service's directory and faults, the model of
/// its acknowledged history, the log a failure reports, and how it went.
#[derive(Default)]
struct Run {
    seed: u64,
    dir: PathBuf,
    faults: Option<Arc<FaultIo>>,
    model: BTreeMap<u64, UncertainString>,
    next_id: u64,
    log: Vec<String>,
    /// The fault fired inside the first open (which then failed).
    faulted_open: bool,
    /// A mid-schedule reopen found the fault still unfired.
    reopened_unfired: bool,
    /// The last open failed with a typed error.
    typed_error: bool,
    /// The static service over the model, until the model changes.
    stat: Option<QueryService>,
    /// The oracle's occurrences of each uncorrelated document, by id.
    oracle: HashMap<u64, Occurrences>,
    /// Checks so far: each draws its boundary occurrences afresh.
    checks: u64,
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
        panic!("{what}\nlog:\n  {}", self.log.join("\n  "));
    }

    /// An error is acceptable only once the seed's fault has fired.
    fn allow_error(&self, e: &LiveError) {
        if !self.fired() {
            self.fail(format!("failed before any fault fired: {e}"));
        }
    }

    /// Logs an operation and accepts its error only once the fault fired.
    fn step(&mut self, what: String, result: Result<(), LiveError>) {
        self.log.push(format!("{what} -> {result:?}"));
        if let Err(e) = result {
            self.allow_error(&e);
        }
    }

    fn open(&mut self, io: Arc<dyn StoreIo>) -> Result<LiveService, LiveError> {
        let opened = LiveService::open_with_io(&self.dir, configs(self.seed).0, io);
        self.log
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

    /// Every live document's occurrences: the oracle's (memoized) for an
    /// uncorrelated document, the static door's at τmin for a correlated
    /// one. The static service holds one document per assigned id, so its
    /// ids are the stable ones (a dead id's document holds no pattern).
    fn reference(&mut self) -> BTreeMap<u64, Occurrences> {
        let z = || UncertainString::deterministic(b"z");
        let body = |id| self.model.get(&id).cloned().unwrap_or_else(z);
        let build = || {
            let bodies: Vec<UncertainString> = (0..self.next_id).map(body).collect();
            QueryService::build(&bodies, TAU_MIN, configs(self.seed).1).expect("a static build")
        };
        let stat = self.stat.get_or_insert_with(build);
        let floor = |p: &&[u8]| hit_list(&stat.answer(&at(p, TAU_MIN)[0], None).0.expect("valid"));
        let at_floor: Vec<_> = PATTERNS.iter().map(floor).collect();
        let mut out = BTreeMap::new();
        for (&id, doc) in &self.model {
            let worlds = |p: &&[u8]| {
                let occs = PossibleWorldOracle::occurrence_probabilities(doc, p);
                let occs: BTreeMap<usize, f64> = occs.expect("few worlds").into_iter().collect();
                occs.into_iter().collect()
            };
            let mine = |hits: &Vec<(u64, usize, f64)>| {
                (hits.iter().filter(|h| h.0 == id))
                    .map(|h| (h.1, h.2))
                    .collect()
            };
            let occs = match doc.correlations().is_empty() {
                true => (self.oracle.entry(id))
                    .or_insert_with(|| PATTERNS.iter().map(worlds).collect())
                    .clone(),
                false => at_floor.iter().map(mine).collect(),
            };
            out.insert(id, occs);
        }
        out
    }

    /// Two boundary draws at occurrences the reference knows: Threshold,
    /// Listing and Approx at τ = p, p·(1 + PROB_EPS/2) and p·(1 + 2·PROB_EPS),
    /// clamped to [τmin, 1].
    fn boundary(&mut self, refs: &BTreeMap<u64, Occurrences>) -> Vec<QueryRequest> {
        let known: Vec<(usize, f64)> = (refs.values())
            .flat_map(|occs| occs.iter().enumerate())
            .flat_map(|(i, occs)| occs.iter().map(move |&(_, p)| (i, p)))
            .filter(|&(_, p)| p >= TAU_MIN)
            .collect();
        self.checks += 1;
        let pick =
            |salt| known.get(fnv_mix(self.seed, salt + self.checks) as usize % known.len().max(1));
        let taus = |&(i, p): &(usize, f64)| {
            let taus = [p, p * (1.0 + PROB_EPS / 2.0), p * (1.0 + 2.0 * PROB_EPS)];
            taus.map(|tau| at(PATTERNS[i], tau.clamp(TAU_MIN, 1.0)))
        };
        [0xA000, 0xA800]
            .into_iter()
            .filter_map(pick)
            .flat_map(taus)
            .flatten()
            .collect()
    }

    /// `response` keeps the threshold rule against the reference: every
    /// occurrence that must be reported is, and every reported one is a
    /// reference occurrence at its probability that may be reported.
    fn hold(
        &self,
        request: &QueryRequest,
        response: &QueryResponse,
        refs: &BTreeMap<u64, Occurrences>,
    ) {
        let (QueryRequest::Threshold { pattern, tau }
        | QueryRequest::Listing { pattern, tau }
        | QueryRequest::Approx { pattern, tau }) = request
        else {
            return;
        };
        let i = (PATTERNS.iter().position(|p| p == pattern)).expect("a batch pattern");
        let listing = matches!(request, QueryRequest::Listing { .. });
        let got = hit_list(response);
        let fail = |what: String| self.fail(format!("{request:?}: {what}; got {got:?}"));
        for (&id, occs) in refs {
            for &(pos, p) in occs[i]
                .iter()
                .filter(|&&(_, p)| expect(p, *tau) == Some(true))
            {
                if !got.iter().any(|h| h.0 == id && (listing || h.1 == pos)) {
                    fail(format!("doc {id} pos {pos} (p {p}) missing"));
                }
            }
        }
        for &(id, pos, q) in &got {
            let occs = refs.get(&id).map(|occs| &occs[i]);
            let p = match (occs, listing) {
                (Some(occs), true) => occs.iter().map(|o| o.1).reduce(f64::max),
                (Some(occs), false) => occs.iter().find(|o| o.0 == pos).map(|o| o.1),
                (None, _) => None,
            };
            let ok = p.is_some_and(|p| expect(p, *tau) != Some(false) && (q - p).abs() <= PROB_EPS);
            if !ok {
                fail(format!(
                    "doc {id} pos {pos} ({q}, reference {p:?}) reported"
                ));
            }
        }
    }

    /// The service holds exactly the model, every door answers the batch
    /// and the boundary draws bit for bit alike, an `Approx` request as the
    /// `Threshold` request at its pattern and τ, and the answers keep the
    /// threshold rule against the reference.
    fn check(&mut self, live: &LiveService, when: &str) {
        self.log.push(format!("check {when}"));
        let (n, docs) = (live.num_docs(), live.live_docs());
        if n != docs.len() || !docs.iter().map(|(id, d)| (id, d)).eq(&self.model) {
            let got: Vec<u64> = docs.iter().map(|d| d.0).collect();
            let want = self.model.keys();
            self.fail(format!("{when}: ids {got:?}, num_docs {n}, model {want:?}"));
        }
        let refs = self.reference();
        let mut requests = batch();
        requests.extend(self.boundary(&refs));
        let stat = self.stat.as_ref().expect("the reference built it");
        let batched = live.query_requests(&requests);
        let sequential = live.query_requests_sequential(&requests);
        let stat_sequential = stat.query_requests_sequential(&requests);
        let mut singles = Vec::with_capacity(requests.len());
        for (q, request) in requests.iter().enumerate() {
            let fail =
                |door, what| self.fail(format!("{when}: {request:?} through {door}: {what}"));
            let answer = |door, got: &Result<_, _>| {
                got.clone().unwrap_or_else(|e| fail(door, format!("{e}")))
            };
            let single = answer("answer", &live.answer(request, None).0);
            let doors = [
                ("query_requests", &batched[q]),
                ("sequential", &sequential[q]),
                ("static answer", &stat.answer(request, None).0),
                ("static sequential", &stat_sequential[q]),
            ];
            let doors = doors.map(|(door, got)| (door, answer(door, got)));
            if let Some((door, got)) = doors.iter().find(|(_, got)| *got != single) {
                fail(door, format!("{got:?}, not {single:?}"));
            }
            self.hold(request, &single, &refs);
            singles.push(single);
        }
        // An `Approx` answer is the `Threshold` answer at its pattern and τ.
        for (request, got) in requests.iter().zip(&singles) {
            let QueryRequest::Approx { pattern, tau } = request else {
                continue;
            };
            let twin = QueryRequest::Threshold {
                pattern: pattern.clone(),
                tau: *tau,
            };
            let at = (requests.iter()).position(|r| *r == twin);
            let exact = at.map(|t| hit_list(&singles[t]));
            if exact.as_ref() != Some(&hit_list(got)) {
                self.fail(format!("{when}: {request:?}: {got:?}, not {exact:?}"));
            }
        }
    }
}

/// Runs `ops` for `seed` from an empty directory, panicking on any violation.
fn run_ops(seed: u64, ops: &[Op], dir: PathBuf) -> Run {
    let faults = (seed < FAULT_SEEDS).then(|| Arc::new(FaultIo::new(FaultPlan::from_seed(seed))));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = Run {
        seed,
        dir,
        faults,
        ..Default::default()
    };

    // A faulted first open must leave a directory that recovers empty.
    let mut live = (run.reopen()).unwrap_or_else(|| run.fail("the first open failed twice".into()));
    (run.faulted_open, run.reopened_unfired) = (run.fired(), false);

    for op in ops {
        match op {
            Op::Insert(body) => {
                let result = live.insert(body.clone());
                run.log.push(format!("{op} -> {result:?}"));
                match result {
                    Ok(id) if id == run.next_id => {
                        run.model.insert(id, body.clone());
                        (run.next_id, run.stat) = (id + 1, None);
                    }
                    Ok(id) => run.fail(format!("insert acknowledged id {id}: an id was consumed")),
                    Err(e) => run.allow_error(&e),
                }
            }
            &Op::DeleteLive(r) if !run.model.is_empty() => {
                let id = *(run.model.keys().nth(r as usize % run.model.len())).unwrap();
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
                    run.stat = None;
                }
                run.step(format!("delete live {id}"), result);
                run.check(&live, "after a delete a reader raced");
            }
            &Op::DeleteLive(r) | &Op::DeleteNotLive(r) => {
                let id = match r % (run.next_id + 1) {
                    id if run.model.contains_key(&id) => run.next_id,
                    id => id,
                };
                let result = live.delete(id);
                run.log.push(format!("delete not live {id} -> {result:?}"));
                match result {
                    Err(LiveError::UnknownDocument { id: got }) if got == id => {}
                    Err(e @ LiveError::Background(_)) => run.allow_error(&e),
                    other => run.fail(format!("deleting {id} answered {other:?}")),
                }
            }
            Op::Seal => run.step("seal".into(), live.seal()),
            Op::Compact => run.step("compact".into(), live.compact()),
            Op::Checkpoint => run.check(&live, "at a checkpoint"),
            Op::Reopen => {
                run.log.push("reopen".into());
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
    run
}

/// Runs `ops` in a fresh directory: the run, or its panic message.
fn attempt(seed: u64, ops: &[Op]) -> Result<Run, String> {
    let dir = std::env::temp_dir().join(format!("ustr_live_model_{}_{seed}", std::process::id()));
    let result = catch_unwind(AssertUnwindSafe(|| run_ops(seed, ops, dir.clone())));
    let _ = std::fs::remove_dir_all(&dir);
    let text = |e: Box<dyn std::any::Any + Send>| {
        e.downcast::<String>()
            .map_or_else(|_| String::new(), |s| *s)
    };
    result.map_err(text)
}

thread_local!(static SHRINKING: Cell<bool> = const { Cell::new(false) });

/// Delta-debugs a failing list: drops halves, then ever shorter runs down
/// to single ops, then shortens inserted documents, keeping every cut that
/// still fails. The tries' panics print nothing on this thread.
fn shrink(seed: u64, mut ops: Vec<Op>) -> Vec<Op> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SHRINKING.get() {
                default(info)
            }
        }));
    });
    SHRINKING.set(true);
    let fails = |ops: &[Op]| attempt(seed, ops).is_err();
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 {
        let mut i = 0;
        while i < ops.len() {
            let mut cut = ops.clone();
            cut.drain(i..(i + chunk).min(ops.len()));
            (i, ops) = if fails(&cut) {
                (i, cut)
            } else {
                (i + chunk, ops)
            };
        }
        chunk /= 2;
    }
    for i in 0..ops.len() {
        while let Op::Insert(doc) = &ops[i] {
            let mut cut = ops.clone();
            let len = doc.len().saturating_sub(1).max(1);
            cut[i] = Op::Insert(correlated(
                &doc.positions()[..len],
                doc.correlations().iter(),
            ));
            if len == doc.len() || !fails(&cut) {
                break;
            }
            ops = cut;
        }
    }
    SHRINKING.set(false);
    ops
}

/// Runs one seed's schedule; on a violation, shrinks it and panics with
/// the seed, the plan, both lengths and the shrunk list.
fn run_seed(seed: u64) -> Run {
    let ops = schedule(seed);
    let what = match attempt(seed, &ops) {
        Ok(run) => return run,
        Err(what) => what,
    };
    let shrunk = shrink(seed, ops.clone());
    let (plan, eps) = (
        (seed < FAULT_SEEDS).then(|| FaultPlan::from_seed(seed)),
        configs(seed).0.epsilon,
    );
    let after = attempt(seed, &shrunk)
        .err()
        .unwrap_or_else(|| "passed on a rerun".into());
    let list: Vec<String> = shrunk.iter().map(Op::to_string).collect();
    let (what, before, list) = (
        what.lines().next().unwrap_or_default(),
        ops.len(),
        list.join("\n  "),
    );
    panic!(
        "seed {seed}, plan {plan:?}, ε {eps:?}: {what}\n{before} ops shrunk to {}:\n  {list}\n\
         the shrunk list fails with: {after}",
        shrunk.len(),
    );
}

#[test]
fn fault_free_seeds_match_the_reference() {
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

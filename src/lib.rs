//! # uncertain-strings
//!
//! Probabilistic threshold indexing for uncertain strings — a Rust
//! reproduction of Thankachan, Patil, Shah, Biswas,
//! *"Probabilistic Threshold Indexing for Uncertain Strings"* (EDBT 2016).
//!
//! An **uncertain string** assigns, at each position, a probability
//! distribution over characters. A deterministic pattern `p` *matches at
//! position i with threshold τ* when the product of the per-position
//! character probabilities along `p` is at least `τ`. This crate family
//! answers, in near-optimal time after linear-space preprocessing:
//!
//! * **Substring searching** ([`Index`]): all positions of an uncertain
//!   string where `p` matches with probability ≥ τ, for any `τ ≥ τmin`.
//! * **String listing** ([`ListingIndex`]): all strings in a collection
//!   containing at least one match of `p` with probability ≥ τ.
//! * **Approximate search** ([`ApproxIndex`]): O(m + occ) retrieval with an
//!   additive error ε on the probability threshold.
//!
//! Indexes are built once and served many times: [`Snapshot`] persists an
//! [`Index`] to a versioned, checksummed binary file (`.idx`) that loads
//! back with byte-identical query behaviour; a whole collection — one
//! index per document — packs into one *collection snapshot* (`.coll`) via
//! `QueryService::save_collection`. Both are one container: a manifest of
//! per-section lengths and checksums, then the bare payloads; and
//! [`QueryService`] serves batches mixing all four [`QueryRequest`] modes —
//! threshold, top-k, listing, approx — over a sharded collection with a
//! fixed thread pool, deterministic merge, and a per-mode LRU result cache.
//! It answers approx exactly, from each document's [`Index`]: the exact
//! answer keeps the ε-sandwich for every ε, and the exact index answers as
//! fast as the [`ApproxIndex`] links, which stay the paper's §7 artifact.
//!
//! Collections are **mutable** too: [`LiveService`] accepts inserts and
//! deletes at serving time — writes go through a checksummed, fsynced
//! write-ahead log into a scan-served memtable (immediately queryable,
//! answers bit-identical to a built index under the
//! [`DocExecutor`](ustr_service::DocExecutor) contract), a background
//! thread seals memtables into immutable `.coll` segments built with the
//! ordinary constructors, and a compactor merges small segments while
//! dropping tombstoned documents. Static and live serving share one
//! dispatcher (`ustr_service::Engine` over `SegmentSet`), so a live
//! collection answers byte-identically to a static rebuild at every point
//! of its lifecycle.
//!
//! # Quickstart
//!
//! ```
//! use uncertain_strings::{Index, UncertainString};
//!
//! // Figure 3 of the paper: a protein fragment with uncertain positions.
//! let s = UncertainString::parse(
//!     "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
//!      I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
//! )
//! .unwrap();
//!
//! let index = Index::build(&s, 0.1).unwrap();
//! let hits = index.query(b"AT", 0.4).unwrap();
//! // "AT" matches at position 8 with probability 1.0 * 0.5 = 0.5;
//! // the match at position 6 only reaches 0.4 * 0.1 < 0.4 and is excluded.
//! assert_eq!(hits.positions(), vec![8]);
//! ```
//!
//! # Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`UncertainString`], [`SpecialUncertainString`], correlation & transform | `ustr-uncertain` | data model, possible worlds, Lemma-2 factor transform |
//! | [`Index`], [`SpecialIndex`], [`ListingIndex`], [`ApproxIndex`] | `ustr-core` | the paper's indexes (§4–§7), each built from its input and `τmin` alone |
//! | [`Snapshot`], [`StoreError`], snapshot/collection/WAL formats | `ustr-store` | versioned binary persistence of what a server loads (an `Index`, the links over it); single-file collection snapshots; write-ahead log + live manifest |
//! | [`QueryService`], [`QueryRequest`], [`ServiceConfig`], [`DocHits`], [`TopHit`] | `ustr-service` | concurrent sharded serving: four typed query modes, one `Engine` dispatcher over `SegmentSet`s, deterministic merge, per-mode LRU cache |
//! | [`LiveService`], [`LiveConfig`] | `ustr-live` | mutable collections: WAL → memtable → sealed segments → compaction |
//! | [`NetServer`], [`NetClient`], [`ServerConfig`] | `ustr-net` | TCP serving: checksummed wire protocol, handshake, pipelined concurrent server, client |
//! | [`NaiveScanner`], [`SimpleIndex`], [`ScanIndex`], DP containment | `ustr-baseline` | baselines, test oracles, and the scan-backed memtable executor |
//! | suffix arrays / trees | `ustr-suffix` | SA-IS, LCP, suffix tree substrate |
//! | RMQ structures | `ustr-rmq` | Lemma-1 substrate |
//! | dataset generators | `ustr-workload` | §8.1 synthetic workloads |

#![forbid(unsafe_code)]

pub use ustr_baseline::{
    self as baseline, NaiveScanner, PossibleWorldOracle, ScanIndex, SimpleIndex,
};
pub use ustr_core::{
    self as core, ApproxIndex, Error, Index, ListingIndex, QueryResult, RelMetric, SpecialIndex,
};
pub use ustr_live::{self as live, LiveConfig, LiveError, LiveService};
pub use ustr_net::{self as net, NetClient, NetError, NetServer, ServerConfig};
pub use ustr_rmq as rmq;
pub use ustr_service::{
    self as service, DocHits, QueryRequest, QueryResponse, QueryService, ServiceConfig, TopHit,
};
pub use ustr_store::{self as store, Snapshot, SnapshotKind, StoreError};
pub use ustr_suffix::{self as suffix, SuffixArray, SuffixTree};
pub use ustr_uncertain::{
    self as uncertain, Correlation, CorrelationSet, SpecialUncertainString, Transformed,
    UncertainChar, UncertainString,
};
pub use ustr_workload as workload;

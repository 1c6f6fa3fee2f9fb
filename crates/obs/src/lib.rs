//! `drtm-obs` — observability for the DrTM+R engine.
//!
//! The paper's evaluation is built on decompositions (Table 6 per-phase
//! latencies, Figure 20 recovery timeline, §6 HTM abort attribution)
//! that require asking a live run "where did this transaction spend its
//! time, and why did it abort?". This crate answers that with three
//! pieces, none of which touch shared state on the hot path:
//!
//! * a **sharded metrics registry** ([`registry`]): each worker owns an
//!   `Arc<Shard>` of plain `drtm-base` counters/histograms; aggregation
//!   happens only at scrape time by merging shards into a [`Snapshot`];
//! * a **structured trace ring** ([`trace`]): fixed-size per-thread
//!   ring buffers of engine events with wall *and* virtual timestamps,
//!   exportable as chrome://tracing JSON;
//! * **exposition** ([`expo`]): Prometheus-style text, JSON, and human
//!   tables rendered from a [`Snapshot`] by walking one table of metric
//!   descriptors, so every format shows the same series and numbers;
//! * a **time-series ring** ([`timeseries`]): a bounded history of
//!   periodic server telemetry samples (queue depth, in-flight, abort
//!   mix) a live server scrapes into and exports alongside the trace.
//!
//! # Cost model when disabled
//!
//! Two switches, compile-time and runtime:
//!
//! * Building without the `rec` feature (`default-features = false`)
//!   turns every recording call into an inlined constant-false branch;
//!   the optimizer deletes the call sites and the shards/rings are
//!   never written. CI's `obs-overhead` job holds the *enabled* build
//!   to within 5% of this floor.
//! * At runtime, [`set_enabled`] flips one relaxed `AtomicBool` that
//!   every recording call checks first — one predictable load on the
//!   hot path when compiled in but toggled off.
//!
//! The crate deliberately depends only on `drtm-base`, so every other
//! layer (rdma, htm, cluster, core, chaos, cli, bench) can depend on it
//! without cycles.

#![deny(missing_docs)]

pub mod expo;
pub mod jsonlint;
pub mod registry;
pub mod timeseries;
pub mod trace;

pub use registry::{
    CacheStats, ContentionStats, HistSummary, MachineRow, NetStats, NicRow, PipelineStats,
    Registry, RouteStats, Shard, Snapshot,
};
pub use timeseries::{TsRing, TsSample};
pub use trace::{EvPhase, EventKind, TraceEvent, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime recording toggle (compiled-in builds only). On by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is active: the `rec` feature must be compiled in
/// *and* the runtime toggle must be on. With `rec` off this folds to
/// `false` at compile time and callers' recording branches vanish.
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "rec") && ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime toggle. A no-op (recording stays off) when the
/// `rec` feature is compiled out.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Commit-protocol phases, in protocol order. These are the span
/// boundaries of `commit_rw` in `drtm-core`: `Execute` covers the
/// transaction body, `Lock`..`Unlock` map onto the paper's C.1–C.6 and
/// R.1–R.2 steps (see DESIGN.md §6 for the exact mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Transaction body: reads, remote fetches, working-set buildup.
    Execute,
    /// C.1 — remote lock acquisition via RDMA CAS.
    Lock,
    /// C.2 — remote read validation of unlocked readers.
    Validate,
    /// C.3 + C.4 — the local HTM region (local validate + apply).
    Htm,
    /// R.1 — redo-log append to remote backups.
    Log,
    /// R.2 — makeup writes flipping odd seqs even on backups.
    Makeup,
    /// C.5 — remote primary write-back.
    Update,
    /// C.6 — remote unlock.
    Unlock,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 8] = [
        Phase::Execute,
        Phase::Lock,
        Phase::Validate,
        Phase::Htm,
        Phase::Log,
        Phase::Makeup,
        Phase::Update,
        Phase::Unlock,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in metric names and exposition.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::Lock => "lock",
            Phase::Validate => "validate",
            Phase::Htm => "htm",
            Phase::Log => "log",
            Phase::Makeup => "makeup",
            Phase::Update => "update",
            Phase::Unlock => "unlock",
        }
    }
}

/// Stable labels for the abort taxonomy, indexed by the reason codes
/// `drtm-core` passes to [`Shard::note_abort`]. The first six mirror
/// `drtm_core::AbortReason` variant order; `transport` is a verb-level
/// fault surfaced through a `WorkCompletion` (`TxnError::Transport` in
/// core); `user` is the explicit user-requested abort (a distinct
/// `TxnError` variant in core).
pub const ABORT_REASONS: [&str; 8] = [
    "lock_busy",
    "validation",
    "local_lock_busy",
    "remote_inconsistent",
    "fallback",
    "incarnation",
    "transport",
    "user",
];

/// Stable labels for HTM abort classes, mirroring the counters of
/// `drtm_htm::HtmStats` (in that order).
pub const HTM_CLASSES: [&str; 5] = ["conflict", "capacity", "explicit", "spurious", "fallback"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::COUNT, 8);
    }

    #[test]
    fn phase_names_are_unique() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
    }

    #[test]
    fn label_tables_are_unique() {
        let mut r = ABORT_REASONS.to_vec();
        r.sort_unstable();
        r.dedup();
        assert_eq!(r.len(), ABORT_REASONS.len());
        let mut c = HTM_CLASSES.to_vec();
        c.sort_unstable();
        c.dedup();
        assert_eq!(c.len(), HTM_CLASSES.len());
    }
}

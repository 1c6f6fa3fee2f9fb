//! The in-process workloads, `tpcc-repl` and `ycsb-b-cross`, and the
//! SmallBank probe of `serve-smallbank`: one OS thread per simulated
//! node drives a [`RoutinePool`] of that node's workers, and the main
//! thread times each phase from outside.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use drtm_base::SplitMix64;
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_core::{scrape_cluster, RoutinePool, TxnError, Worker};
use drtm_workloads::smallbank::{self, SbCfg, SbTxn};
use drtm_workloads::tpcc::{self, txns, TpccCfg};
use drtm_workloads::ycsb::{self, YcsbCfg, YcsbMix, Zipf};

use crate::hist::Hist;
use crate::host::{self, median, Mark};
use crate::layers::{self, flatten, Values};
use crate::spans::{Detail, Recorder, Span};
use crate::{Outcome, Setup, SETUP_REPEATS};

/// Simulated machines in both in-process workloads.
const NODES: usize = 2;
/// TPC-C transactions per node the dataset is sized for, per measured
/// second (about three times the rate of a 2-core host today). A phase
/// that reaches this cap ends early rather than overflow the region.
const TPCC_TXNS_PER_NODE_SECOND: usize = 15_000;
/// Untimed transactions per routine before measuring, so the location
/// and value caches fill first (YCSB's count also serves the SmallBank
/// probe, whose fresh workers start with empty caches).
const TPCC_WARMUP: u64 = 2_000;
const YCSB_WARMUP: u64 = 4_000;
/// A `tpcc-repl` worker applies its node's backup log every this many
/// transactions (the auxiliary log-truncation step of §5.1, folded into
/// the worker so the run uses no more load threads than nodes).
const TRUNCATE_EVERY: u64 = 16;
/// Marks a YCSB update stamp; load values (row numbers) never set it.
const STAMP_BIT: u64 = 1 << 63;

/// Transaction types of each workload, as the workload crate names them.
pub const TPCC_TYPES: [&str; 5] = [
    "new-order",
    "payment",
    "delivery",
    "order-status",
    "stock-level",
];
pub const YCSB_TYPES: [&str; 2] = ["read", "update"];

/// Which in-process workload runs.
#[derive(Clone)]
pub enum Kind {
    Tpcc(TpccCfg),
    Ycsb(YcsbCfg),
    /// The SmallBank zero-sum mix with `routines` routines per node,
    /// driven on the cluster a served run leaves behind.
    SmallBank {
        cfg: SbCfg,
        routines: usize,
    },
}

impl Kind {
    pub fn tpcc() -> Self {
        Kind::Tpcc(TpccCfg {
            nodes: NODES,
            warehouses_per_node: 1,
            districts: 10,
            customers: 300,
            items: 10_000,
            ..TpccCfg::default()
        })
    }

    pub fn ycsb() -> Self {
        Kind::Ycsb(YcsbCfg {
            nodes: NODES,
            records: 100_000,
            value_len: 96,
            theta: 0.6,
            cross_prob: 0.6,
            mix: YcsbMix::B,
        })
    }

    /// Routines per node: one worker per warehouse for TPC-C, eight
    /// in-flight transactions per worker for YCSB.
    fn routines(&self) -> usize {
        match self {
            Kind::Tpcc(_) => 1,
            Kind::Ycsb(_) => 8,
            Kind::SmallBank { routines, .. } => *routines,
        }
    }
}

/// One phase of the run, as every node thread executes it.
#[derive(Clone, Copy)]
enum Phase {
    /// A fixed number of transactions per routine, untimed.
    Warmup(u64),
    /// Transactions for `secs` wall seconds, optionally recording spans.
    Timed { secs: f64, traced: bool },
}

/// Per-type tallies of one phase.
#[derive(Default, Clone)]
struct TypeTally {
    vlat: Hist,
    host_ns: u64,
}

/// What one routine (then one node, then the cluster) did in a phase.
#[derive(Default)]
struct Tally {
    issued: u64,
    committed: u64,
    failed: u64,
    vlat: Hist,
    wall_lat: Hist,
    per_type: BTreeMap<&'static str, TypeTally>,
    /// Committed virtual throughput, summed over nodes.
    vtps: f64,
    /// Committed transactions per slice of a timed phase.
    slices: Vec<u64>,
    /// Committed `(key, stamp)` YCSB updates.
    writes: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.issued += o.issued;
        self.committed += o.committed;
        self.failed += o.failed;
        self.vlat.merge(&o.vlat);
        self.wall_lat.merge(&o.wall_lat);
        for (k, t) in o.per_type {
            let e = self.per_type.entry(k).or_default();
            e.vlat.merge(&t.vlat);
            e.host_ns += t.host_ns;
        }
        self.vtps += o.vtps;
        self.slices.resize(self.slices.len().max(o.slices.len()), 0);
        for (a, b) in self.slices.iter_mut().zip(&o.slices) {
            *a += b;
        }
        self.writes.extend(o.writes);
        self.spans.extend(o.spans);
    }
}

/// Generator state one routine carries across phases.
struct RoutineState {
    /// Routine index within its node's pool.
    id: u64,
    rng: SplitMix64,
    /// Transactions this routine has started, over all phases.
    seq: u64,
    /// Next TPC-C HISTORY key.
    hist_key: u64,
}

/// Shared, read-only context of one node thread.
struct NodeCtx<'a> {
    kind: &'a Kind,
    zipf: Option<&'a Zipf>,
    cluster: &'a Arc<DrtmCluster>,
    node: usize,
    origin: Instant,
    /// Per-routine cap on `RoutineState::seq`.
    seq_cap: u64,
}

fn engine_opts(kind: &Kind, seconds: u64) -> (EngineOpts, Vec<drtm_store::TableSpec>) {
    match kind {
        Kind::Tpcc(cfg) => {
            let opts = EngineOpts::builder()
                .replicas(2)
                .region_size(cfg.region_size(tpcc_cap(seconds) as usize))
                .read_mostly_tables(cfg.read_mostly_tables())
                .routines(1)
                .build();
            (opts, cfg.schema())
        }
        Kind::Ycsb(cfg) => {
            let opts = EngineOpts::builder()
                .region_size(cfg.region_size())
                .read_mostly_tables(cfg.read_mostly_tables())
                .routines(kind.routines())
                .build();
            (opts, cfg.schema())
        }
        Kind::SmallBank { .. } => unreachable!("the served cluster is built by the server"),
    }
}

fn tpcc_cap(seconds: u64) -> u64 {
    (TPCC_TXNS_PER_NODE_SECOND as u64) * seconds.max(1) + TPCC_WARMUP
}

/// Builds and loads the cluster `SETUP_REPEATS` times, keeping the last.
fn set_up(
    kind: &mut Kind,
    seconds: u64,
    rec: &mut Recorder,
    parent: u32,
) -> (Arc<DrtmCluster>, Setup) {
    if let Kind::Tpcc(cfg) = kind {
        // HISTORY is insert-only: one row per payment (43 % of the mix).
        cfg.history_buckets = (tpcc_cap(seconds) as usize).next_power_of_two();
    }
    let (opts, schema) = engine_opts(kind, seconds);
    let mut builds = Vec::new();
    let mut loads = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPEATS {
        drop(cluster.take());
        let span = rec.open("cluster.build", parent);
        let t0 = Instant::now();
        let c = DrtmCluster::new(NODES, &schema, opts.clone());
        let t1 = Instant::now();
        rec.close(span, None);
        let span = rec.open("store.load", parent);
        load(kind, &c);
        let t2 = Instant::now();
        rec.close(span, None);
        builds.push((t1 - t0).as_secs_f64());
        loads.push((t2 - t1).as_secs_f64());
        cluster = Some(c);
    }
    let total: Vec<f64> = builds.iter().zip(&loads).map(|(b, l)| b + l).collect();
    let setup = Setup {
        setup_s: median(&total),
        build_s: median(&builds),
        load_s: median(&loads),
    };
    (cluster.expect("at least one set-up"), setup)
}

fn load(kind: &Kind, cluster: &DrtmCluster) {
    match kind {
        Kind::Tpcc(cfg) => tpcc::load(cluster, cfg),
        Kind::Ycsb(cfg) => ycsb::load(cluster, cfg),
        Kind::SmallBank { .. } => unreachable!("the served cluster is loaded by the server"),
    }
}

/// Runs one transaction of the workload's mix on `w`. Returns its type
/// and outcome; committed YCSB updates are logged to `writes`.
async fn one_txn(
    ctx: &NodeCtx<'_>,
    w: &mut Worker,
    st: &mut RoutineState,
    writes: &mut Vec<(u64, u64)>,
) -> (&'static str, Result<(), TxnError>) {
    let seq = st.seq;
    st.seq += 1;
    let rng = &mut st.rng;
    match ctx.kind {
        Kind::Tpcc(cfg) => {
            let home_w = ctx.node as u64;
            let ttype = txns::TxnType::pick(rng);
            let res = match ttype {
                txns::TxnType::NewOrder => {
                    let inp = txns::gen_new_order(cfg, rng, home_w, cfg.cross_new_order);
                    w.run_async(async |t| txns::new_order(t, cfg, &inp, seq).await)
                        .await
                }
                txns::TxnType::Payment => {
                    st.hist_key += 1;
                    let inp = txns::gen_payment(cfg, rng, home_w, st.hist_key);
                    w.run_async(async |t| txns::payment(t, cfg, &inp).await)
                        .await
                }
                txns::TxnType::Delivery => {
                    let carrier = rng.range(1, 10);
                    w.run_async(async |t| txns::delivery(t, cfg, home_w, carrier, seq).await)
                        .await
                }
                txns::TxnType::OrderStatus => {
                    let d = rng.below(cfg.districts as u64);
                    let last = cfg.customers as u64 - 1;
                    let by = if rng.chance(0.6) {
                        txns::CustomerBy::LastName(tpcc::lastname_id(txns::nurand(
                            rng, 255, 0, last,
                        )))
                    } else {
                        txns::CustomerBy::Id(txns::nurand(rng, 1023, 0, last))
                    };
                    w.run_ro_async(async |t| txns::order_status(t, cfg, home_w, d, by).await)
                        .await
                }
                txns::TxnType::StockLevel => {
                    let d = rng.below(cfg.districts as u64);
                    let thr = rng.range(10, 20);
                    w.run_ro_async(async |t| {
                        txns::stock_level(t, cfg, home_w, d, thr).await.map(|_| ())
                    })
                    .await
                }
            };
            (ttype.name(), res)
        }
        Kind::Ycsb(cfg) => {
            let zipf = ctx.zipf.expect("YCSB runs carry a zipf sampler");
            let op = ycsb::gen(cfg, zipf, rng, ctx.node);
            if op.is_read {
                let res = w
                    .run_ro_async(async |t| ycsb::execute(t, cfg, &op, 0).await)
                    .await;
                ("read", res)
            } else {
                let stamp = STAMP_BIT | (ctx.node as u64) << 56 | st.id << 48 | seq;
                let res = w
                    .run_async(async |t| ycsb::execute(t, cfg, &op, stamp).await)
                    .await;
                if res.is_ok() {
                    writes.push((cfg.key(op.shard, op.row), stamp));
                }
                ("update", res)
            }
        }
        Kind::SmallBank { cfg, .. } => {
            let mut inp = smallbank::gen(cfg, rng, ctx.node);
            inp.txn = zero_sum_txn(rng);
            let res = if inp.txn.read_only() {
                w.run_ro_async(async |t| smallbank::execute(t, &inp).await)
                    .await
            } else {
                w.run_async(async |t| smallbank::execute(t, &inp).await)
                    .await
            };
            (inp.txn.name(), res)
        }
    }
}

/// The zero-sum SmallBank mix: send-payment (75 %) and balance (25 %),
/// which conserves the total of all balances.
pub fn zero_sum_txn(rng: &mut SplitMix64) -> SbTxn {
    if rng.chance(0.25) {
        SbTxn::Balance
    } else {
        SbTxn::SendPayment
    }
}

/// Runs one routine's share of `phase`.
async fn routine_phase(
    ctx: &NodeCtx<'_>,
    w: &mut Worker,
    state: &Cell<Option<RoutineState>>,
    phase: Phase,
    start: Instant,
    is_first: bool,
) -> (Tally, u64, u64) {
    let mut st = state
        .take()
        .expect("each routine's state is present between phases");
    let mut t = Tally::default();
    let v_start = w.clock.now();
    let (count, deadline, traced) = match phase {
        Phase::Warmup(n) => (n, None, false),
        Phase::Timed { secs, traced } => {
            t.slices = vec![0; host::SLICES];
            (
                u64::MAX,
                Some(start + Duration::from_secs_f64(secs)),
                traced,
            )
        }
    };
    while t.issued < count && st.seq < ctx.seq_cap {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        if matches!(ctx.kind, Kind::Tpcc(_)) && is_first && st.seq.is_multiple_of(TRUNCATE_EVERY) {
            ctx.cluster.truncate_step(ctx.node);
        }
        let aborted0 = w.stats.aborted;
        let v0 = w.clock.now();
        let h0 = Instant::now();
        let (ty, res) = one_txn(ctx, w, &mut st, &mut t.writes).await;
        let h1 = Instant::now();
        let v1 = w.clock.now();
        t.issued += 1;
        match res {
            Ok(()) | Err(TxnError::UserAbort) => {}
            Err(_) => t.failed += 1,
        }
        if res.is_err() {
            continue;
        }
        t.committed += 1;
        if let Phase::Timed { secs, .. } = phase {
            t.slices[host::slice_of(start, h1, secs)] += 1;
        }
        let vns = v1 - v0;
        let host_ns = (h1 - h0).as_nanos() as u64;
        t.vlat.record(vns);
        t.wall_lat.record(host_ns);
        let e = t.per_type.entry(ty).or_default();
        e.vlat.record(vns);
        e.host_ns += host_ns;
        if traced {
            let since = |i: Instant| i.duration_since(ctx.origin).as_nanos() as u64;
            t.spans.push(Span {
                name: "core.exec",
                parent: 0,
                wall: [since(h0), since(h1)],
                virt: [v0, v1],
                detail: Detail::Exec {
                    ty,
                    attempts: (1 + w.stats.aborted - aborted0) as u32,
                    node: ctx.node as u32,
                },
            });
        }
    }
    state.set(Some(st));
    (t, v_start, w.clock.now())
}

/// One node thread: runs every phase between two barrier waits.
fn node_thread(ctx: NodeCtx<'_>, seed: u64, phases: &[Phase], barrier: &Barrier) -> Vec<Tally> {
    let r = ctx.kind.routines();
    let node = ctx.node;
    let mut workers: Vec<Worker> = (0..r)
        .map(|id| {
            ctx.cluster
                .worker(node, seed ^ (node as u64) << 40 ^ (id as u64) << 8)
        })
        .collect();
    let states: Vec<Cell<Option<RoutineState>>> = (0..r)
        .map(|id| {
            Cell::new(Some(RoutineState {
                id: id as u64,
                rng: SplitMix64::new(seed ^ 0xBE4C_4000 ^ (node as u64) << 32 ^ (id as u64) << 12),
                seq: 0,
                hist_key: ((node as u64) << 24 | id as u64) << 32,
            }))
        })
        .collect();
    let mut out = Vec::new();
    for &phase in phases {
        barrier.wait();
        let start = Instant::now();
        let results = RoutinePool::run(workers, async |id, w| {
            routine_phase(&ctx, w, &states[id], phase, start, id == 0).await
        });
        let mut node_tally = Tally::default();
        let (mut v_lo, mut v_hi) = (u64::MAX, 0u64);
        workers = Vec::with_capacity(r);
        for (w, (t, v0, v1)) in results {
            v_lo = v_lo.min(v0);
            v_hi = v_hi.max(v1);
            node_tally.absorb(t);
            workers.push(w);
        }
        // The routines share one simulated core: the node's virtual
        // span runs from the earliest start to the latest finish.
        node_tally.vtps = node_tally.committed as f64 / ((v_hi - v_lo).max(1) as f64 / 1e9);
        out.push(node_tally);
        barrier.wait();
    }
    out
}

/// One phase as seen from the main thread: what the nodes did, the
/// host time it took, and the engine counters at its end.
struct Measured {
    tally: Tally,
    wall_s: f64,
    cpu_s: f64,
    /// Slice-boundary readings of a timed phase.
    marks: Vec<Mark>,
    counters: layers::Counters,
}

impl Measured {
    /// `(host_tps, host_cpu_us_per_txn)`, medians over slices.
    fn host_rates(&self) -> (f64, f64) {
        host::sliced_rates(&self.tally.slices, &self.marks)
    }
}

/// Runs `phases` on `cluster`: one thread per node, each driving its
/// routine pool, while the calling thread times every phase from
/// outside and scrapes the engine counters at each boundary. Returns the
/// phases as measured, their span ids, and every committed YCSB write.
fn drive(
    kind: &Kind,
    cluster: &Arc<DrtmCluster>,
    seed: u64,
    seq_cap: u64,
    phases: &[(&'static str, Phase)],
    rec: &mut Recorder,
    root: u32,
) -> (Vec<Measured>, Vec<u32>, Vec<(u64, u64)>) {
    let zipf = match kind {
        Kind::Ycsb(cfg) => Some(Zipf::new(cfg.records as u64, cfg.theta)),
        _ => None,
    };
    let barrier = Barrier::new(NODES + 1);
    let origin = rec.origin();
    let plan: Vec<Phase> = phases.iter().map(|p| p.1).collect();
    let mut spans_of_phase = Vec::new();
    let mut host_of_phase = Vec::new();
    let mut node_results: Vec<Vec<Tally>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let ctx = NodeCtx {
                    kind,
                    zipf: zipf.as_ref(),
                    cluster,
                    node,
                    origin,
                    seq_cap,
                };
                let (plan, barrier) = (&plan, &barrier);
                s.spawn(move || node_thread(ctx, seed, plan, barrier))
            })
            .collect();
        for (label, phase) in phases {
            let span = rec.open(label, root);
            let before = Mark::now();
            barrier.wait();
            let marks = match phase {
                Phase::Timed { secs, .. } => host::slice_marks(Instant::now(), *secs),
                Phase::Warmup(_) => Vec::new(),
            };
            barrier.wait();
            let after = Mark::now();
            rec.close(span, None);
            let counters = flatten(&scrape_cluster(cluster));
            rec.boundary(label, counters.clone());
            spans_of_phase.push(span);
            host_of_phase.push((before.since(&after), marks, counters));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });

    let mut all_writes = Vec::new();
    let mut measured: Vec<Measured> = Vec::new();
    for (i, ((wall_s, cpu_s), marks, counters)) in host_of_phase.into_iter().enumerate() {
        let mut tally = Tally::default();
        for per_node in &mut node_results {
            tally.absorb(std::mem::take(&mut per_node[i]));
        }
        all_writes.append(&mut tally.writes);
        measured.push(Measured {
            tally,
            wall_s,
            cpu_s,
            marks,
            counters,
        });
    }
    (measured, spans_of_phase, all_writes)
}

/// Virtual throughput and per-call virtual latency of the SmallBank
/// zero-sum mix on a served cluster, driven in-process for `secs`.
pub struct Probe {
    pub vtps: f64,
    pub vlat_p50_us: f64,
    pub vlat_p99_us: f64,
    pub samples: u64,
    pub issued: u64,
    pub failed: u64,
}

/// Drives the zero-sum SmallBank mix on `cluster` (quiesced) with
/// `routines` routines per node and reports its virtual metrics.
pub fn probe_smallbank(
    cluster: &Arc<DrtmCluster>,
    cfg: SbCfg,
    routines: usize,
    seed: u64,
    secs: f64,
    rec: &mut Recorder,
    root: u32,
) -> Probe {
    let kind = Kind::SmallBank { cfg, routines };
    let timed = Phase::Timed {
        secs,
        traced: false,
    };
    let phases = [
        ("probe.warm-up", Phase::Warmup(YCSB_WARMUP)),
        ("probe", timed),
    ];
    let (measured, _, _) = drive(&kind, cluster, seed, u64::MAX, &phases, rec, root);
    let t = &measured[1].tally;
    Probe {
        vtps: t.vtps,
        vlat_p50_us: t.vlat.quantile(0.5) / 1e3,
        vlat_p99_us: t.vlat.quantile(0.99) / 1e3,
        samples: t.vlat.count(),
        issued: t.issued,
        failed: t.failed,
    }
}

/// Runs `tpcc-repl` or `ycsb-b-cross`.
pub fn run(mut kind: Kind, name: &'static str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut rec = Recorder::new();
    let root = rec.open("workload", 0);
    let setup_span = rec.open("set-up", root);
    let (cluster, setup) = set_up(&mut kind, seconds, &mut rec, setup_span);
    rec.close(setup_span, None);
    rec.boundary("set-up", flatten(&scrape_cluster(&cluster)));

    let warm = match kind {
        Kind::Tpcc(_) => TPCC_WARMUP,
        _ => YCSB_WARMUP,
    };
    let secs = seconds as f64;
    let timed = |secs, traced| Phase::Timed { secs, traced };
    let mut phases = vec![("warm-up", Phase::Warmup(warm))];
    if trace {
        phases.push(("run.untraced", timed(secs / 2.0, false)));
        phases.push(("run", timed(secs / 2.0, true)));
    } else {
        phases.push(("run", timed(secs, false)));
    }
    let seq_cap = match kind {
        Kind::Tpcc(_) => tpcc_cap(seconds),
        _ => u64::MAX,
    };
    let (measured, spans_of_phase, all_writes) =
        drive(&kind, &cluster, seed, seq_cap, &phases, &mut rec, root);
    let peak_rss = host::peak_rss_mb();

    let (correct, detail) = match &kind {
        Kind::Tpcc(cfg) => {
            let v = drtm_workloads::audit::tpcc_audit(&cluster, cfg);
            let first: Vec<_> = v.iter().take(3).collect();
            (
                v.is_empty(),
                format!("tpcc audit: {} violations {first:?}", v.len()),
            )
        }
        Kind::Ycsb(cfg) => ycsb_check(&cluster, cfg, &all_writes),
        Kind::SmallBank { .. } => unreachable!("served SmallBank is checked by the serve workload"),
    };
    eprintln!("[{name}] check: {detail}");

    let timed = &measured[1..];
    let attempted: u64 = timed.iter().map(|m| m.tally.issued).sum();
    let failed: u64 = timed.iter().map(|m| m.tally.failed).sum();
    let main = &timed[0];
    let t = &main.tally;
    eprintln!(
        "[{name}] warm-up {:.2} s; timed {:.2} s: {} committed of {} issued, {} failed, {} vlat samples",
        measured[0].wall_s,
        main.wall_s,
        t.committed,
        t.issued,
        t.failed,
        t.vlat.count()
    );
    let mut values = Values::new();
    if trace {
        let traced = &timed[1];
        let t = &traced.tally;
        let d = layers::delta(&main.counters, &traced.counters);
        layers::engine_layers(&d, t.issued, t.vlat.mean(), &mut values);
        for (ty, tt) in &t.per_type {
            values.insert(
                format!("core.exec.{ty}.vlat_p50_us"),
                tt.vlat.quantile(0.5) / 1e3,
            );
            values.insert(
                format!("core.exec.{ty}.vlat_p99_us"),
                tt.vlat.quantile(0.99) / 1e3,
            );
            if matches!(kind, Kind::Tpcc(_)) {
                let mean_ns = tt.host_ns as f64 / tt.vlat.count() as f64;
                values.insert(format!("core.exec.{ty}.host_us"), mean_ns / 1e3);
            }
        }
        values.insert("cluster.build_s".into(), setup.build_s);
        values.insert("store.load_s".into(), setup.load_s);
        values.insert("bench.warmup_s".into(), measured[0].wall_s);
        values.insert("host.cpu_util".into(), traced.cpu_s / traced.wall_s);
        values.insert(
            "obs.trace_overhead_ratio".into(),
            1.0 - traced.host_rates().0 / main.host_rates().0,
        );
        values.insert(
            "fail_ratio".into(),
            t.failed as f64 / t.issued.max(1) as f64,
        );
        values.insert("serve_p99_us".into(), t.wall_lat.quantile(0.99) / 1e3);
        values.insert("samples.vlat".into(), t.vlat.count() as f64);
        let run_span = spans_of_phase[2];
        let spans = t.spans.iter().map(|s| Span {
            parent: run_span,
            ..*s
        });
        rec.extend(spans.collect::<Vec<_>>());
    } else {
        values.insert("vtps".into(), t.vtps);
        values.insert("vlat_p50_us".into(), t.vlat.quantile(0.5) / 1e3);
        values.insert("vlat_p99_us".into(), t.vlat.quantile(0.99) / 1e3);
        let (host_tps, cpu_per_txn) = main.host_rates();
        values.insert("host_tps".into(), host_tps);
        values.insert("host_cpu_us_per_txn".into(), cpu_per_txn);
        values.insert("setup_s".into(), setup.setup_s);
        values.insert("peak_rss_mb".into(), peak_rss);
        values.insert("serve_p50_us".into(), t.wall_lat.quantile(0.5) / 1e3);
        values.insert("serve_capacity_rps".into(), host_tps);
    }
    rec.close(root, None);
    Outcome {
        correct,
        attempted,
        failed,
        values,
        recorder: trace.then_some(rec),
    }
}

/// Checks every YCSB record: the first 8 bytes hold the row number it
/// was loaded with or the stamp of a committed update to that key, and
/// the remaining bytes are still zero.
fn ycsb_check(cluster: &DrtmCluster, cfg: &YcsbCfg, writes: &[(u64, u64)]) -> (bool, String) {
    let committed: HashSet<(u64, u64)> = writes.iter().copied().collect();
    let mut bad = Vec::new();
    let mut updated = 0u64;
    let mut buf = vec![0u8; cfg.value_len];
    for shard in 0..cfg.nodes {
        let store = &cluster.stores[cluster.home_of(shard)];
        for row in 0..cfg.records as u64 {
            let key = cfg.key(shard, row);
            let Some(off) = store.get_loc(ycsb::T_KV, key) else {
                bad.push(format!("{key:#x} missing"));
                continue;
            };
            store
                .record(ycsb::T_KV, off as usize)
                .read_value_raw(&mut buf);
            let stamp = u64::from_le_bytes(buf[..8].try_into().expect("8-byte stamp"));
            let stamp_ok = if stamp == row {
                true
            } else {
                updated += 1;
                committed.contains(&(key, stamp))
            };
            if !stamp_ok || buf[8..].iter().any(|&b| b != 0) {
                bad.push(format!("{key:#x} stamp {stamp:#x}"));
            }
        }
    }
    let detail = format!(
        "ycsb stamps: {} records, {updated} updated, {} committed updates, {} bad {:?}",
        cfg.nodes * cfg.records,
        writes.len(),
        bad.len(),
        bad.iter().take(3).collect::<Vec<_>>()
    );
    (bad.is_empty(), detail)
}

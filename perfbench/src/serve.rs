//! `serve-smallbank`: the SmallBank zero-sum mix sent over one TCP
//! connection to an in-process `drtm-net` [`Server`] — first an
//! open-loop Poisson phase at a fixed offered rate, then a burst.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use drtm_base::SplitMix64;
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_net::proto::{self, Msg, Status, PROTO_VERSION};
use drtm_net::{Schedule, Server, ServerCfg};
use drtm_workloads::smallbank::{self, SbCfg, SbTxn};

use crate::hist::Hist;
use crate::host::{self, median, Mark};
use crate::inproc;
use crate::layers::{self, flatten, Values};
use crate::spans::{Detail, Recorder, Span};
use crate::{Outcome, Setup, SETUP_REPEATS};

/// SmallBank accounts per node.
const ACCOUNTS: usize = 100_000;
/// Probability a send-payment's second account is on the other node.
const CROSS_PROB: f64 = 0.1;
/// Offered rate of the paced phase, requests per second: about 15 % of
/// the burst capacity (about 68K requests/s on a 2-vCPU host). At half
/// the capacity the paced p50 spread 23 % between runs (see README).
const OFFERED_RPS: f64 = 10_000.0;
/// Requests in the paced warm-up before anything is measured.
const WARMUP_REQUESTS: usize = 10_000;
/// Requests a burst keeps outstanding: enough to keep every serving
/// routine busy, few enough that the backlog stays out of the socket
/// buffers, so the burst phase ends when its time is up.
const BURST_OUTSTANDING: u64 = 1_024;
/// Upper bound on requests in one burst phase (sizes the send-time
/// table); a burst that reaches it ends early.
const BURST_CAP_PER_SECOND: usize = 400_000;
/// How long a phase waits for its outstanding replies.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Share of `--seconds` spent on the in-process virtual-time probe.
const PROBE_SHARE: f64 = 0.1;
/// Request ids carry their phase above this bit.
const PHASE_SHIFT: u32 = 40;

/// How one phase offers load.
#[derive(Clone, Copy)]
enum Offer {
    /// Poisson arrivals at `OFFERED_RPS` for the given seconds.
    Paced(f64),
    /// Back-to-back sends for the given seconds.
    Burst(f64),
}

/// One phase of the plan.
struct PhasePlan {
    label: &'static str,
    offer: Offer,
    traced: bool,
    /// Scheduled send offsets, ns from the phase start (paced only).
    offsets: Vec<u64>,
    /// Actual send times, ns since the recorder origin.
    sent: Vec<AtomicU64>,
    /// When the phase started sending, ns since the recorder origin.
    start_ns: AtomicU64,
}

/// What the reader saw of one phase.
#[derive(Default)]
struct PhaseAcc {
    replies: u64,
    committed: u64,
    aborted: u64,
    rejected: u64,
    /// Scheduled send → reply, ns.
    latency: Hist,
    /// Admission-queue wait reported by the server, ns.
    queue: Hist,
    /// Actual send − scheduled send, ns.
    send_lag: Hist,
    /// Committed replies per slice of a burst (before its deadline).
    slices: Vec<u64>,
    spans: Vec<Span>,
}

/// Host and engine readings around one phase.
struct PhaseHost {
    /// The phase's span id.
    span: u32,
    sent: u64,
    /// Slice-boundary readings of a burst.
    marks: Vec<Mark>,
    wall_s: f64,
    cpu_s: f64,
    counters_before: layers::Counters,
    counters_after: layers::Counters,
}

fn server_cfg() -> ServerCfg {
    ServerCfg {
        accounts: ACCOUNTS,
        ..ServerCfg::default()
    }
}

/// Starts the server `SETUP_REPEATS` times (keeping the last) and, for
/// traced runs, times a twin cluster build and load of the same dataset
/// so `cluster.build_s` and `store.load_s` are known.
fn set_up(rec: &mut Recorder, parent: u32, traced: bool) -> (Server, Setup) {
    let mut starts = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let span = rec.open("net.server.start", parent);
        let t0 = Instant::now();
        server = Some(Server::start(server_cfg()).expect("start server"));
        starts.push(t0.elapsed().as_secs_f64());
        rec.close(span, None);
    }
    let (mut builds, mut loads) = (vec![0.0], vec![0.0]);
    if traced {
        let cfg = server_cfg();
        let sb = SbCfg {
            nodes: cfg.nodes,
            accounts: cfg.accounts,
            ..SbCfg::default()
        };
        let opts = EngineOpts::builder()
            .replicas(cfg.replicas)
            .region_size(sb.region_size())
            .routines(cfg.routines)
            .build();
        (builds, loads) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_REPEATS {
            let span = rec.open("cluster.build", parent);
            let t0 = Instant::now();
            let cluster = DrtmCluster::new(cfg.nodes, &sb.schema(), opts.clone());
            let t1 = Instant::now();
            rec.close(span, None);
            let span = rec.open("store.load", parent);
            smallbank::load(&cluster, &sb);
            let t2 = Instant::now();
            rec.close(span, None);
            builds.push((t1 - t0).as_secs_f64());
            loads.push((t2 - t1).as_secs_f64());
        }
    }
    let setup = Setup {
        setup_s: median(&starts),
        build_s: median(&builds),
        load_s: median(&loads),
    };
    (server.expect("at least one start"), setup)
}

fn connect(server: &Server) -> (TcpStream, SbCfg) {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect to server");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    let sb = match proto::read_msg(&mut s) {
        Ok(Some(Msg::Hello {
            version,
            nodes,
            accounts,
        })) if version == PROTO_VERSION => SbCfg {
            nodes: nodes as usize,
            accounts: accounts as usize,
            cross_prob: CROSS_PROB,
            ..SbCfg::default()
        },
        other => panic!("bad greeting: {other:?}"),
    };
    (s, sb)
}

/// One request of the zero-sum mix (see [`inproc::zero_sum_txn`]).
fn request(sb: &SbCfg, rng: &mut SplitMix64, id: u64, sched_ns: u64) -> Msg {
    let home = rng.below(sb.nodes as u64) as usize;
    let mut inp = smallbank::gen(sb, rng, home);
    inp.txn = inproc::zero_sum_txn(rng);
    Msg::SmallBank {
        id,
        txn: SbTxn::ALL
            .iter()
            .position(|t| *t == inp.txn)
            .expect("type in SbTxn::ALL") as u8,
        a_shard: inp.a.0 as u32,
        a_key: inp.a.1,
        b_shard: inp.b.0 as u32,
        b_key: inp.b.1,
        amount: inp.amount,
        sched_ns,
    }
}

/// Reads responses until EOF, filing each under its phase; `seen`
/// counts each phase's replies so the sender knows when it drained.
fn reader(
    stream: TcpStream,
    plans: &[PhasePlan],
    origin: Instant,
    seen: &[AtomicU64],
) -> Vec<PhaseAcc> {
    let mut acc: Vec<PhaseAcc> = plans
        .iter()
        .map(|_| PhaseAcc {
            slices: vec![0; host::SLICES],
            ..PhaseAcc::default()
        })
        .collect();
    let mut r = BufReader::new(stream);
    while let Ok(Some(msg)) = proto::read_msg(&mut r) {
        let Msg::Response {
            id,
            status,
            queue_us,
        } = msg
        else {
            continue;
        };
        let now = origin.elapsed().as_nanos() as u64;
        let phase = (id >> PHASE_SHIFT) as usize;
        let i = (id & ((1 << PHASE_SHIFT) - 1)) as usize;
        let (plan, a) = (&plans[phase], &mut acc[phase]);
        let sent = plan.sent[i].load(Ordering::Acquire);
        a.replies += 1;
        let status_name = match status {
            Status::Committed => {
                a.committed += 1;
                "committed"
            }
            Status::Aborted => {
                a.aborted += 1;
                "aborted"
            }
            Status::Rejected => {
                a.rejected += 1;
                "rejected"
            }
        };
        let sched = match plan.offer {
            Offer::Paced(_) => {
                let sched = plan.start_ns.load(Ordering::Acquire) + plan.offsets[i];
                a.send_lag.record(sent.saturating_sub(sched));
                a.latency.record(now.saturating_sub(sched));
                a.queue.record(u64::from(queue_us) * 1_000);
                sched
            }
            Offer::Burst(secs) => {
                let start_ns = plan.start_ns.load(Ordering::Acquire);
                let into = now.saturating_sub(start_ns) as f64 / 1e9;
                if status == Status::Committed && into < secs {
                    a.slices[(into / secs * host::SLICES as f64) as usize] += 1;
                }
                sent
            }
        };
        if plan.traced {
            a.spans.push(Span {
                name: "net.client",
                parent: 0,
                wall: [sched, now],
                virt: [0, 0],
                detail: Detail::Client {
                    sent_ns: sent,
                    status: status_name,
                },
            });
        }
        seen[phase].fetch_add(1, Ordering::Release);
    }
    acc
}

/// Sends one phase's requests; returns how many went out and, for a
/// burst, the host readings at its slice boundaries.
fn send_phase(
    stream: &TcpStream,
    sb: &SbCfg,
    rng: &mut SplitMix64,
    idx: usize,
    plan: &PhasePlan,
    origin: Instant,
    seen: &AtomicU64,
) -> (u64, Vec<Mark>) {
    let start = Instant::now();
    let start_ns = start.duration_since(origin).as_nanos() as u64;
    plan.start_ns.store(start_ns, Ordering::Release);
    let mut w = stream;
    let mut n = 0usize;
    let (deadline, slice) = match plan.offer {
        Offer::Paced(_) => (None, Duration::ZERO),
        Offer::Burst(secs) => (
            Some(start + Duration::from_secs_f64(secs)),
            Duration::from_secs_f64(secs / host::SLICES as f64),
        ),
    };
    let mut marks = Vec::new();
    loop {
        if deadline.is_some() {
            while marks.len() <= host::SLICES
                && Instant::now() >= start + slice * marks.len() as u32
            {
                marks.push(Mark::now());
            }
        }
        let sched_ns = match plan.offer {
            Offer::Paced(_) => {
                let Some(&off) = plan.offsets.get(n) else {
                    break;
                };
                let due = start + Duration::from_nanos(off);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                start_ns + off
            }
            Offer::Burst(_) => {
                if n == plan.sent.len() || deadline.is_some_and(|d| Instant::now() >= d) {
                    break;
                }
                if n as u64 - seen.load(Ordering::Acquire) >= BURST_OUTSTANDING {
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                }
                0
            }
        };
        let id = (idx as u64) << PHASE_SHIFT | n as u64;
        let msg = request(sb, rng, id, sched_ns);
        plan.sent[n].store(origin.elapsed().as_nanos() as u64, Ordering::Release);
        proto::write_msg(&mut w, &msg).expect("send request");
        n += 1;
    }
    if deadline.is_some() {
        marks.resize_with(host::SLICES + 1, Mark::now);
    }
    (n as u64, marks)
}

/// Runs `serve-smallbank`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut rec = Recorder::new();
    let origin = rec.origin();
    let root = rec.open("workload", 0);
    let setup_span = rec.open("set-up", root);
    let (server, setup) = set_up(&mut rec, setup_span, trace);
    rec.close(setup_span, None);
    let initial_total = server.initial_total();

    let secs = seconds as f64;
    let warm_secs = WARMUP_REQUESTS as f64 / OFFERED_RPS;
    let mut shape: Vec<(&'static str, Offer, bool)> =
        vec![("warm-up", Offer::Paced(warm_secs), false)];
    if trace {
        shape.extend([
            ("paced.untraced", Offer::Paced(0.3 * secs), false),
            ("burst.untraced", Offer::Burst(0.2 * secs), false),
            ("paced", Offer::Paced(0.3 * secs), true),
            ("burst", Offer::Burst(0.2 * secs), true),
        ]);
    } else {
        shape.extend([
            ("paced", Offer::Paced(0.6 * secs), false),
            ("burst", Offer::Burst(0.4 * secs), false),
        ]);
    }
    let plans: Vec<PhasePlan> = shape
        .iter()
        .enumerate()
        .map(|(i, &(label, offer, traced))| {
            let offsets = match offer {
                Offer::Paced(s) => {
                    let n = (OFFERED_RPS * s).round() as usize;
                    Schedule::poisson(seed ^ (i as u64) << 32, OFFERED_RPS, n).offsets_ns
                }
                Offer::Burst(_) => Vec::new(),
            };
            let slots = match offer {
                Offer::Paced(_) => offsets.len(),
                Offer::Burst(s) => (BURST_CAP_PER_SECOND as f64 * s) as usize,
            };
            PhasePlan {
                label,
                offer,
                traced,
                offsets,
                sent: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                start_ns: AtomicU64::new(0),
            }
        })
        .collect();
    let seen: Vec<AtomicU64> = plans.iter().map(|_| AtomicU64::new(0)).collect();

    let (stream, sb) = connect(&server);
    let mut rng = SplitMix64::new(seed ^ 0x005E_ED5B);
    let mut hosts: Vec<PhaseHost> = Vec::new();
    let accs = std::thread::scope(|s| {
        let read_half = stream.try_clone().expect("clone stream");
        let (plans_ref, seen_ref) = (&plans, &seen);
        let reader = s.spawn(move || reader(read_half, plans_ref, origin, seen_ref));
        for (idx, plan) in plans.iter().enumerate() {
            let counters_before = flatten(&server.snapshot());
            rec.boundary(plan.label, counters_before.clone());
            let span = rec.open(plan.label, root);
            let before = Mark::now();
            let (sent, marks) = send_phase(&stream, &sb, &mut rng, idx, plan, origin, &seen[idx]);
            // Wait for every reply; a lost one shows as unanswered below.
            let give_up = Instant::now() + DRAIN_LIMIT;
            while seen[idx].load(Ordering::Acquire) < sent && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(100));
            }
            let after = Mark::now();
            rec.close(span, None);
            let (wall_s, cpu_s) = before.since(&after);
            hosts.push(PhaseHost {
                span,
                sent,
                marks,
                wall_s,
                cpu_s,
                counters_before,
                counters_after: flatten(&server.snapshot()),
            });
        }
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("close the request stream");
        reader.join().expect("reader thread panicked")
    });
    let drained = server.shutdown();
    rec.boundary("drained", flatten(&drained.snap));
    // The serving path hides per-request virtual time, so the virtual
    // metrics come from the same mix driven in-process on the drained
    // cluster, with the server's routines per node.
    let probe = (!trace).then(|| {
        let sb = SbCfg {
            cross_prob: CROSS_PROB,
            ..drained.sb.clone()
        };
        let secs = PROBE_SHARE * seconds as f64;
        inproc::probe_smallbank(
            &drained.cluster,
            sb,
            server_cfg().routines,
            seed,
            secs,
            &mut rec,
            root,
        )
    });
    let peak_rss = host::peak_rss_mb();

    // Conservation: the zero-sum mix must leave the total untouched,
    // and every request must have been answered.
    let total = Server::audit_total(&drained.cluster, &drained.sb);
    let unanswered: u64 = hosts
        .iter()
        .zip(&accs)
        .map(|(h, a)| h.sent - a.replies)
        .sum();
    let correct = total == initial_total && unanswered == 0;
    eprintln!(
        "[serve-smallbank] check: balance total {total} vs initial {initial_total}, {unanswered} unanswered"
    );

    // Failures: sheds, plus aborts the server did not attribute to the
    // application (insufficient funds is a user abort, not a failure).
    let failures = |i: usize| -> u64 {
        let d = layers::delta(&hosts[i].counters_before, &hosts[i].counters_after);
        let user = d.get("txn.user_aborts").copied().unwrap_or(0.0) as u64;
        accs[i].rejected + accs[i].aborted.saturating_sub(user)
    };
    let timed: Vec<usize> = (1..plans.len()).collect();
    let attempted: u64 =
        timed.iter().map(|&i| hosts[i].sent).sum::<u64>() + probe.as_ref().map_or(0, |p| p.issued);
    let failed: u64 =
        timed.iter().map(|&i| failures(i)).sum::<u64>() + probe.as_ref().map_or(0, |p| p.failed);
    for &i in &timed {
        let (a, h) = (&accs[i], &hosts[i]);
        eprintln!(
            "[serve-smallbank] {:<15} {:>7} sent {:>7} committed {:>5} aborted {:>4} rejected in {:.2} s ({:.2} CPUs busy); {} latency samples",
            plans[i].label, h.sent, a.committed, a.aborted, a.rejected, h.wall_s, h.cpu_s / h.wall_s, a.latency.count()
        );
    }
    // `(serve_capacity_rps, host CPU µs per request)` of a burst.
    let burst_rates = |i: usize| host::sliced_rates(&accs[i].slices, &hosts[i].marks);

    let mut values = Values::new();
    if trace {
        let (paced, burst) = (3, 4);
        let d = layers::delta(&hosts[paced].counters_before, &hosts[burst].counters_after);
        let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
        let issued = accs[paced].committed
            + accs[paced].aborted
            + accs[burst].committed
            + accs[burst].aborted;
        let mean_vlat = get("txn.latency.sum") / get("txn.latency.count").max(1.0);
        layers::engine_layers(&d, issued, mean_vlat, &mut values);
        let sent = hosts[paced].sent + hosts[burst].sent;
        let rejected = accs[paced].rejected + accs[burst].rejected;
        values.insert(
            "net.queue_wait_p50_us".into(),
            accs[paced].queue.quantile(0.5) / 1e3,
        );
        values.insert(
            "net.queue_wait_p99_us".into(),
            accs[paced].queue.quantile(0.99) / 1e3,
        );
        values.insert("net.shed_ratio".into(), rejected as f64 / sent as f64);
        values.insert(
            "net.client.send_lag_p99_us".into(),
            accs[paced].send_lag.quantile(0.99) / 1e3,
        );
        let (wall, cpu) = (
            hosts[paced].wall_s + hosts[burst].wall_s,
            hosts[paced].cpu_s + hosts[burst].cpu_s,
        );
        values.insert("host.cpu_util".into(), cpu / wall);
        values.insert(
            "obs.trace_overhead_ratio".into(),
            1.0 - burst_rates(burst).0 / burst_rates(2).0,
        );
        values.insert(
            "fail_ratio".into(),
            (failures(paced) + failures(burst)) as f64 / sent as f64,
        );
        values.insert(
            "serve_p99_us".into(),
            accs[paced].latency.quantile(0.99) / 1e3,
        );
        values.insert("samples.serve".into(), accs[paced].latency.count() as f64);
        values.insert("cluster.build_s".into(), setup.build_s);
        values.insert("store.load_s".into(), setup.load_s);
        values.insert("bench.warmup_s".into(), hosts[0].wall_s);
        for i in [paced, burst] {
            let parent = hosts[i].span;
            let spans: Vec<Span> = accs[i]
                .spans
                .iter()
                .map(|s| Span { parent, ..*s })
                .collect();
            rec.extend(spans);
        }
    } else {
        let (paced, burst) = (1, 2);
        let probe = probe.expect("untraced runs probe");
        eprintln!(
            "[serve-smallbank] in-process probe: {} vlat samples, {} failed",
            probe.samples, probe.failed
        );
        values.insert("vtps".into(), probe.vtps);
        values.insert("vlat_p50_us".into(), probe.vlat_p50_us);
        values.insert("vlat_p99_us".into(), probe.vlat_p99_us);
        let (capacity, cpu_per_txn) = burst_rates(burst);
        values.insert("host_tps".into(), capacity);
        values.insert("host_cpu_us_per_txn".into(), cpu_per_txn);
        values.insert("setup_s".into(), setup.setup_s);
        values.insert("peak_rss_mb".into(), peak_rss);
        values.insert(
            "serve_p50_us".into(),
            accs[paced].latency.quantile(0.5) / 1e3,
        );
        values.insert("serve_capacity_rps".into(), capacity);
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

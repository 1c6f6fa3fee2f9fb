//! Engine counters as flat named values, their deltas between phase
//! boundaries, and the per-layer metrics derived from those deltas.

use std::collections::BTreeMap;

use drtm_obs::{Phase, Snapshot, ABORT_REASONS, HTM_CLASSES};

/// Cumulative counters of one scrape, keyed by a dotted name.
pub type Counters = BTreeMap<String, f64>;

/// Named metric values; a missing name reads as 0.
pub type Values = BTreeMap<String, f64>;

/// NIC verb classes summed over nodes, as labelled by
/// [`drtm_core::obs_bridge::NIC_VERBS`].
const VERBS: [&str; 4] = ["read", "write", "atomic", "send"];

/// Flattens the cumulative counters of a [`drtm_core::scrape_cluster`]
/// (or server) snapshot. Quantile fields are dropped: a quantile of a
/// cumulative histogram cannot be differenced.
pub fn flatten(s: &Snapshot) -> Counters {
    let mut c = Counters::new();
    let mut put = |k: String, v: u64| {
        *c.entry(k).or_insert(0.0) += v as f64;
    };
    put("txn.committed".into(), s.committed);
    put("txn.aborted".into(), s.aborted);
    put("txn.user_aborts".into(), s.user_aborts);
    put("txn.fallbacks".into(), s.fallbacks);
    put("txn.latency.sum".into(), s.latency.sum);
    put("txn.latency.count".into(), s.latency.count);
    for (p, h) in &s.phases {
        put(format!("phase.{p}.sum"), h.sum);
    }
    for (p, h) in &s.phase_waits {
        put(format!("phase_wait.{p}.sum"), h.sum);
    }
    for (r, n) in s.aborts {
        put(format!("abort.{r}"), n);
    }
    for (k, n) in s.htm {
        put(format!("htm.{k}"), n);
    }
    for row in &s.nic {
        put(format!("nic.{}", row.verb), row.count);
    }
    for &(_, bytes) in &s.nic_bytes {
        put("nic.bytes".into(), bytes);
    }
    put("cache.hits".into(), s.cache.hits);
    put("cache.misses".into(), s.cache.misses);
    put("cache.invalidations".into(), s.cache.invalidations);
    put("cache.bytes_saved".into(), s.cache.bytes_saved);
    put("routine.wait_ns".into(), s.pipeline.wait_ns);
    put("routine.overlap_ns".into(), s.pipeline.overlap_ns);
    put("routine.wakes".into(), s.pipeline.wakes);
    put("routine.depth_sum".into(), s.pipeline.depth_sum);
    put("routine.wake_lag_ns".into(), s.pipeline.wake_lag_ns);
    put("net.accepted".into(), s.net.accepted);
    put("net.rejected".into(), s.net.rejected);
    put("net.completed".into(), s.net.completed);
    c
}

/// `b - a`, name by name.
pub fn delta(a: &Counters, b: &Counters) -> Counters {
    b.iter()
        .map(|(k, v)| (k.clone(), v - a.get(k).copied().unwrap_or(0.0)))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Derives the core, htm, rdma and value-cache metrics from the counter
/// delta `d` of one measured phase. `issued` is the number of
/// transactions the benchmark started in the phase and `mean_vlat_ns`
/// their mean virtual latency (retries and backoff included); the part
/// of it no commit phase accounts for is reported as `unaccounted`.
pub fn engine_layers(d: &Counters, issued: u64, mean_vlat_ns: f64, out: &mut Values) {
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let committed = get("txn.committed");
    let per_txn = |k: &str| ratio(get(k), committed);

    let mut phase_sum = 0.0;
    for p in Phase::ALL {
        let v = per_txn(&format!("phase.{}.sum", p.name()));
        phase_sum += v;
        out.insert(format!("core.phase.{}_vns_per_txn", p.name()), v);
        out.insert(
            format!("core.phase_wait.{}_vns_per_txn", p.name()),
            per_txn(&format!("phase_wait.{}.sum", p.name())),
        );
    }
    out.insert(
        "core.phase.unaccounted_vns_per_txn".into(),
        mean_vlat_ns - phase_sum,
    );
    out.insert(
        "core.attempts_per_txn".into(),
        ratio(
            committed + get("txn.aborted") + get("txn.user_aborts"),
            issued as f64,
        ),
    );
    for r in ABORT_REASONS {
        out.insert(
            format!("core.abort.{r}_per_txn"),
            per_txn(&format!("abort.{r}")),
        );
    }

    let wait = get("routine.wait_ns");
    let wakes = get("routine.wakes");
    out.insert(
        "core.routine.wait_vns_per_txn".into(),
        per_txn("routine.wait_ns"),
    );
    out.insert(
        "core.routine.overlap_vns_per_txn".into(),
        per_txn("routine.overlap_ns"),
    );
    out.insert(
        "core.routine.hiding_ratio".into(),
        ratio(get("routine.overlap_ns"), wait),
    );
    out.insert(
        "core.routine.wake_lag_ns_per_wake".into(),
        ratio(get("routine.wake_lag_ns"), wakes),
    );
    out.insert(
        "core.routine.mean_depth".into(),
        ratio(get("routine.depth_sum"), wakes),
    );

    for k in HTM_CLASSES {
        out.insert(
            format!("htm.abort.{k}_per_txn"),
            per_txn(&format!("htm.{k}")),
        );
    }

    for v in VERBS {
        out.insert(format!("rdma.{v}_per_txn"), per_txn(&format!("nic.{v}")));
    }
    out.insert("rdma.doorbells_per_txn".into(), per_txn("nic.doorbell"));
    out.insert("rdma.doorbells_saved_per_txn".into(), per_txn("nic.saved"));
    out.insert("rdma.nic_bytes_per_txn".into(), per_txn("nic.bytes"));

    out.insert(
        "store.cache.hit_ratio".into(),
        ratio(get("cache.hits"), get("cache.hits") + get("cache.misses")),
    );
    out.insert(
        "store.cache.bytes_saved_per_txn".into(),
        per_txn("cache.bytes_saved"),
    );
    out.insert(
        "store.cache.invalidations_per_txn".into(),
        per_txn("cache.invalidations"),
    );
}

/// Every per-layer metric the benchmark reports, as `(name, unit,
/// better)`, in output order. `tpcc_types` and `ycsb_types` name the
/// transaction types that get `core.exec.<type>.*` rows.
pub fn per_layer_catalog(
    tpcc_types: &[&str],
    ycsb_types: &[&str],
) -> Vec<(String, &'static str, &'static str)> {
    const LOWER: &str = "lower";
    const HIGHER: &str = "higher";
    let mut m: Vec<(String, &'static str, &'static str)> = vec![
        ("cluster.build_s".into(), "s", LOWER),
        ("store.load_s".into(), "s", LOWER),
        ("bench.warmup_s".into(), "s", LOWER),
    ];
    for p in Phase::ALL {
        m.push((
            format!("core.phase.{}_vns_per_txn", p.name()),
            "vns/txn",
            LOWER,
        ));
    }
    for p in Phase::ALL {
        m.push((
            format!("core.phase_wait.{}_vns_per_txn", p.name()),
            "vns/txn",
            LOWER,
        ));
    }
    m.push((
        "core.phase.unaccounted_vns_per_txn".into(),
        "vns/txn",
        LOWER,
    ));
    m.push(("core.attempts_per_txn".into(), "attempts/txn", LOWER));
    for r in ABORT_REASONS {
        m.push((format!("core.abort.{r}_per_txn"), "aborts/txn", LOWER));
    }
    for t in tpcc_types.iter().chain(ycsb_types) {
        m.push((format!("core.exec.{t}.vlat_p50_us"), "vus", LOWER));
        m.push((format!("core.exec.{t}.vlat_p99_us"), "vus", LOWER));
    }
    for t in tpcc_types {
        m.push((format!("core.exec.{t}.host_us"), "us", LOWER));
    }
    m.extend([
        ("core.routine.wait_vns_per_txn".into(), "vns/txn", LOWER),
        ("core.routine.overlap_vns_per_txn".into(), "vns/txn", HIGHER),
        ("core.routine.hiding_ratio".into(), "ratio", HIGHER),
        (
            "core.routine.wake_lag_ns_per_wake".into(),
            "vns/wake",
            LOWER,
        ),
        ("core.routine.mean_depth".into(), "routines", HIGHER),
    ]);
    for k in HTM_CLASSES {
        m.push((format!("htm.abort.{k}_per_txn"), "aborts/txn", LOWER));
    }
    for v in VERBS {
        m.push((format!("rdma.{v}_per_txn"), "verbs/txn", LOWER));
    }
    m.extend([
        ("rdma.doorbells_per_txn".into(), "doorbells/txn", LOWER),
        ("rdma.doorbells_saved_per_txn".into(), "verbs/txn", HIGHER),
        ("rdma.nic_bytes_per_txn".into(), "B/txn", LOWER),
        ("store.cache.hit_ratio".into(), "ratio", HIGHER),
        ("store.cache.bytes_saved_per_txn".into(), "B/txn", HIGHER),
        (
            "store.cache.invalidations_per_txn".into(),
            "count/txn",
            LOWER,
        ),
        ("serve_p99_us".into(), "us", LOWER),
        ("net.queue_wait_p50_us".into(), "us", LOWER),
        ("net.queue_wait_p99_us".into(), "us", LOWER),
        ("net.shed_ratio".into(), "ratio", LOWER),
        ("net.client.send_lag_p99_us".into(), "us", LOWER),
        ("host.cpu_util".into(), "cpu-s/s", HIGHER),
        ("obs.trace_overhead_ratio".into(), "ratio", LOWER),
        ("fail_ratio".into(), "ratio", LOWER),
        ("samples.vlat".into(), "count", HIGHER),
        ("samples.serve".into(), "count", HIGHER),
    ]);
    m
}

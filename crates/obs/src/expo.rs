//! Exposition: renders a [`Snapshot`] as Prometheus text, JSON, or a
//! human-readable table, all from one metric schema.
//!
//! `METRICS` is the single source: one descriptor per series gives its
//! name, help line, kind, unit, label keys, place in the JSON document
//! and a getter that reads its rows off the snapshot. The renderers are
//! walkers over that table, so adding a stat means adding one descriptor
//! and every format shows it with the same numbers. Naming (DESIGN.md
//! §6): every series is prefixed `drtm_`, counters end in `_total`,
//! histograms carry their unit in the name (`_ns`), and dimensions are
//! labels. Each format escapes label values in one place, so
//! [`render_json`] passes [`crate::jsonlint::validate`] for any labels.

use std::fmt::Write as _;

use crate::registry::{HistSummary, MachineRow, Snapshot};
use Json::{Field, List, Rows};
use Kind::{Counter, Gauge, Summary};
use Unit::{Bytes, Count, Ns, Ratio};
use Value::{Flag, Float, Hist, Int, Str};

/// The Prometheus `# TYPE`: the variant name in lower case.
#[derive(Debug, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Summary,
}

/// How text shows a value: ns as µs, bytes as KB, ratios as %.
#[derive(Clone, Copy, PartialEq)]
enum Unit {
    Count,
    Ns,
    Bytes,
    Ratio,
}

/// Where a metric sits in its JSON group object.
#[derive(Clone, Copy)]
enum Json {
    /// `"key":value`, or `"key":{"<label>":value,...}` when labelled.
    Field(&'static str),
    /// `"key":[value,...]` in row order, labels dropped.
    List(&'static str),
    /// `"key":[{"<label key>":label,...,"<field>":value},...]`; adjacent
    /// metrics with the same key share one object per row.
    Rows(&'static str, &'static str),
}

impl Json {
    fn key(self) -> &'static str {
        match self {
            Field(k) | List(k) | Rows(k, _) => k,
        }
    }

    /// The member name a row's value is written under.
    fn field(self) -> &'static str {
        match self {
            Rows(_, field) => field,
            j => j.key(),
        }
    }
}

/// A sample value; `Int` and `Str` also serve as label values.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Float(f64),
    Flag(bool),
    Hist(HistSummary),
    Str(&'static str),
}

/// One sample: label values in the metric's label-key order, and the value.
type Row = (Vec<Value>, Value);

/// One metric descriptor. `group` is the JSON object it lives in (`""`
/// is the top level) and the text line it prints on.
struct Metric {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    unit: Unit,
    labels: &'static [&'static str],
    group: &'static str,
    json: Json,
    get: fn(&Snapshot) -> Vec<Row>,
}

/// Builds one table row, taking the columns in table order.
#[allow(clippy::too_many_arguments)]
#[rustfmt::skip]
const fn m(name: &'static str, kind: Kind, unit: Unit, labels: &'static [&'static str],
           group: &'static str, json: Json, get: fn(&Snapshot) -> Vec<Row>, help: &'static str) -> Metric {
    Metric { name, help, kind, unit, labels, group, json, get }
}

fn one(value: Value) -> Vec<Row> {
    vec![(Vec::new(), value)]
}

fn named<V: Copy>(rows: &[(&'static str, V)], value: fn(V) -> Value) -> Vec<Row> {
    rows.iter()
        .map(|&(l, v)| (vec![Str(l)], value(v)))
        .collect()
}

fn per_machine(s: &Snapshot, value: fn(&MachineRow) -> Value) -> Vec<Row> {
    s.machines
        .iter()
        .map(|m| (vec![Int(m.node as u64)], value(m)))
        .collect()
}

/// The schema, one metric per row in JSON document order. Columns:
/// name, kind, unit, label keys, JSON group, JSON placement, getter, help.
#[rustfmt::skip]
static METRICS: &[Metric] = &[
    m("drtm_txn_committed_total", Counter, Count, &[], "", Field("committed"), |s| one(Int(s.committed)), "Committed transactions."),
    m("drtm_txn_aborted_total", Counter, Count, &[], "", Field("aborted"), |s| one(Int(s.aborted)), "Aborted transaction attempts."),
    m("drtm_txn_fallback_total", Counter, Count, &[], "", Field("fallbacks"), |s| one(Int(s.fallbacks)), "Commits that took the HTM fallback handler."),
    m("drtm_txn_user_abort_total", Counter, Count, &[], "", Field("user_aborts"), |s| one(Int(s.user_aborts)), "Explicit user aborts."),
    m("drtm_txn_abort_ratio", Gauge, Ratio, &[], "", Field("abort_ratio"), |s| one(Float(s.aborted as f64 / (s.committed + s.aborted).max(1) as f64)), "Aborted attempts over all attempts."),
    m("drtm_txn_latency_ns", Summary, Ns, &[], "", Field("latency_ns"), |s| one(Hist(s.latency)), "Committed transaction latency, virtual ns."),
    m("drtm_commit_phase_ns", Summary, Ns, &["phase"], "", Field("phases_ns"), |s| named(&s.phases, Hist), "Commit-phase span per committed transaction, virtual ns."),
    m("drtm_commit_phase_wait_ns", Summary, Ns, &["phase"], "", Field("phase_waits_ns"), |s| named(&s.phase_waits, Hist), "Verb wait inside each commit phase, virtual ns."),

    m("drtm_routines", Gauge, Count, &[], "pipeline", Field("routines"), |s| one(Int(s.pipeline.routines)), "Largest routine pool any worker multiplexes."),
    m("drtm_verb_wait_ns_total", Counter, Ns, &[], "pipeline", Field("wait_ns"), |s| one(Int(s.pipeline.wait_ns)), "Virtual ns spent waiting on verb completions."),
    m("drtm_verb_overlap_ns_total", Counter, Ns, &[], "pipeline", Field("overlap_ns"), |s| one(Int(s.pipeline.overlap_ns)), "Verb wait overlapped with other routines' work."),
    m("drtm_latency_hiding_ratio", Gauge, Ratio, &[], "pipeline", Field("hiding_ratio"), |s| one(Float(s.pipeline.hiding_ratio())), "Overlapped verb wait over total verb wait."),
    m("drtm_reactor_wakes_total", Counter, Count, &[], "pipeline", Field("wakes"), |s| one(Int(s.pipeline.wakes)), "Parked routines granted the CPU."),
    m("drtm_reactor_depth_avg", Gauge, Count, &[], "pipeline", Field("depth_avg"), |s| one(Float(s.pipeline.avg_depth())), "Mean reactor waiting-set depth at dispatch."),
    m("drtm_reactor_wake_lag_ns_total", Counter, Ns, &[], "pipeline", Field("wake_lag_ns"), |s| one(Int(s.pipeline.wake_lag_ns)), "Summed wake-to-resume lag, virtual ns."),

    m("drtm_contention_pessimistic_total", Counter, Count, &[], "contention", Field("pessimistic"), |s| one(Int(s.contention.pessimistic)), "Commits escalated to pessimistic locking."),
    m("drtm_contention_park_total", Counter, Count, &[], "contention", Field("parks"), |s| one(Int(s.contention.parks)), "Routines parked on a key's wait list."),
    m("drtm_contention_unpark_total", Counter, Count, &[], "contention", Field("unparks"), |s| one(Int(s.contention.unparks)), "Parked routines that resumed."),
    m("drtm_contention_grant_total", Counter, Count, &[], "contention", Field("grants"), |s| one(Int(s.contention.grants)), "Locks handed to parked waiters."),
    m("drtm_contention_waiters", Gauge, Count, &[], "contention", Field("waiters"), |s| one(Int(s.contention.waiting())), "Routines parked right now."),
    m("drtm_contention_parked_ns", Summary, Ns, &[], "contention", Field("parked_ns"), |s| one(Hist(s.contention.parked_ns)), "Time a parked routine waited, virtual ns."),

    m("drtm_net_conns_opened_total", Counter, Count, &[], "net", Field("conns_opened"), |s| one(Int(s.net.conns_opened)), "Connections accepted."),
    m("drtm_net_conns_closed_total", Counter, Count, &[], "net", Field("conns_closed"), |s| one(Int(s.net.conns_closed)), "Connections closed."),
    m("drtm_net_accepted_total", Counter, Count, &[], "net", Field("accepted"), |s| one(Int(s.net.accepted)), "Requests admitted into the queue."),
    m("drtm_net_rejected_total", Counter, Count, &[], "net", Field("rejected"), |s| one(Int(s.net.rejected)), "Requests shed with a Rejected reply."),
    m("drtm_net_completed_total", Counter, Count, &[], "net", Field("completed"), |s| one(Int(s.net.completed)), "Admitted requests executed and answered."),
    m("drtm_net_in_flight", Gauge, Count, &[], "net", Field("in_flight"), |s| one(Int(s.net.in_flight)), "Requests admitted but not yet answered."),
    m("drtm_net_queue_depth", Gauge, Count, &[], "net", Field("queue_depth"), |s| one(Int(s.net.queue_depth)), "Requests waiting in the admission queue."),
    m("drtm_net_queue_wait_ns", Summary, Ns, &[], "net", Field("queue_wait_ns"), |s| one(Hist(s.net.queue_wait_ns)), "Admission-queue wait, host ns."),
    m("drtm_net_shed_ratio", Gauge, Ratio, &[], "net", Field("shed_ratio"), |s| one(Float(s.net.reject_rate())), "Shed requests over all arrivals."),

    m("drtm_route_enabled", Gauge, Count, &[], "route", Field("enabled"), |s| one(Flag(s.route.enabled)), "1 when requests dispatch through per-pool queues."),
    m("drtm_route_local_total", Counter, Count, &[], "route", Field("local"), |s| one(Int(s.route.local)), "Admissions wholly owned by the home pool."),
    m("drtm_route_remote_total", Counter, Count, &[], "route", Field("remote"), |s| one(Int(s.route.remote)), "Admissions touching a shard outside the home pool."),
    m("drtm_route_steal_total", Counter, Count, &[], "route", Field("steals"), |s| one(Int(s.route.steals)), "Items an idle pool stole from a sibling queue."),
    m("drtm_route_shed_queue_total", Counter, Count, &[], "route", Field("shed_queue"), |s| one(Int(s.route.shed_queue)), "Sheds charged to one queue's high-water mark."),
    m("drtm_route_shed_global_total", Counter, Count, &[], "route", Field("shed_global"), |s| one(Int(s.route.shed_global)), "Sheds charged to the group-wide backlog cap."),
    m("drtm_route_queue_depth", Gauge, Count, &["pool"], "route", List("depths"), |s| s.route.depths.iter().enumerate().map(|(i, &d)| (vec![Int(i as u64)], Int(d))).collect(), "Per-pool queue depth."),
    m("drtm_route_local_ratio", Gauge, Ratio, &[], "route", Field("local_ratio"), |s| one(Float(s.route.local_rate())), "All-local admissions over routed admissions."),

    m("drtm_txn_abort_total", Counter, Count, &["reason"], "", Field("aborts"), |s| named(&s.aborts, Int), "Aborted attempts by reason."),
    m("drtm_htm_abort_total", Counter, Count, &["class"], "", Field("htm_aborts"), |s| named(&s.htm, Int), "HTM aborts by class."),

    m("drtm_cache_hit_total", Counter, Count, &[], "cache", Field("hits"), |s| one(Int(s.cache.hits)), "Remote reads served from the value cache."),
    m("drtm_cache_miss_total", Counter, Count, &[], "cache", Field("misses"), |s| one(Int(s.cache.misses)), "Remote reads that went to the wire."),
    m("drtm_cache_invalidation_total", Counter, Count, &[], "cache", Field("invalidations"), |s| one(Int(s.cache.invalidations)), "Cache entries dropped as stale."),
    m("drtm_cache_bytes_saved_total", Counter, Bytes, &[], "cache", Field("bytes_saved"), |s| one(Int(s.cache.bytes_saved)), "Wire bytes the cache hits avoided."),
    m("drtm_cache_hit_ratio", Gauge, Ratio, &[], "cache", Field("hit_ratio"), |s| one(Float(s.cache.hit_rate())), "Cache hits over cache lookups."),

    m("drtm_nic_verbs_total", Counter, Count, &["node", "verb"], "", Rows("nic", "count"), |s| s.nic.iter().map(|r| (vec![Int(r.node as u64), Str(r.verb)], Int(r.count))).collect(), "Completed NIC verbs."),
    m("drtm_nic_bytes_total", Counter, Bytes, &["node"], "", Rows("nic_bytes", "bytes"), |s| s.nic_bytes.iter().map(|&(n, b)| (vec![Int(n as u64)], Int(b))).collect(), "Bytes moved by each node's NIC."),
    m("drtm_machine_committed_total", Counter, Count, &["node"], "", Rows("machines", "committed"), |s| per_machine(s, |m| Int(m.committed)), "Committed transactions per machine."),
    m("drtm_machine_aborted_total", Counter, Count, &["node"], "", Rows("machines", "aborted"), |s| per_machine(s, |m| Int(m.aborted)), "Aborted attempts per machine."),
    m("drtm_machine_fallback_total", Counter, Count, &["node"], "", Rows("machines", "fallbacks"), |s| per_machine(s, |m| Int(m.fallbacks)), "Fallback commits per machine."),
    m("drtm_machine_alive", Gauge, Count, &["node"], "", Rows("machines", "alive"), |s| per_machine(s, |m| Flag(m.alive)), "1 while the membership view holds the machine live."),
];

/// Escapes a Prometheus label value: a backslash, quote or newline
/// would otherwise end or break the quoted value.
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus-style text exposition, with `# HELP` and `# TYPE` lines.
pub fn render_prometheus(s: &Snapshot) -> String {
    let mut out = String::with_capacity(8192);
    for m in METRICS {
        let (name, kind) = (m.name, format!("{:?}", m.kind).to_lowercase());
        let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", m.help);
        for (labels, value) in (m.get)(s) {
            let pairs: Vec<String> = (m.labels.iter().zip(labels))
                .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(&text_value(Count, v))))
                .collect();
            let series = |suffix: &str, extra: Option<String>| {
                let all: Vec<String> = pairs.iter().cloned().chain(extra).collect();
                match all.is_empty() {
                    true => format!("{name}{suffix}"),
                    false => format!("{name}{suffix}{{{}}}", all.join(",")),
                }
            };
            let _ = match value {
                Hist(h) => {
                    for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
                        let q = series("", Some(format!("quantile=\"{q}\"")));
                        let _ = writeln!(out, "{q} {v}");
                    }
                    let (sum, count) = (series("_sum", None), series("_count", None));
                    writeln!(out, "{sum} {}\n{count} {}", h.sum, h.count)
                }
                Flag(b) => writeln!(out, "{} {}", series("", None), b as u8),
                v => writeln!(out, "{} {}", series("", None), json_value(v)),
            };
        }
    }
    out
}

/// Quotes and escapes `v` as a JSON string.
fn json_str(v: &str) -> String {
    let mut out = String::from('"');
    for c in v.chars() {
        let _ = match c {
            '"' | '\\' => write!(out, "\\{c}"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32),
            c => write!(out, "{c}"),
        };
    }
    out + "\""
}

fn json_value(v: Value) -> String {
    match v {
        Int(n) => n.to_string(),
        Float(x) => format!("{x:.4}"),
        Flag(b) => b.to_string(),
        Str(s) => json_str(s),
        Hist(h) => format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
            h.count, h.sum, h.mean, h.p50, h.p99, h.p999, h.max
        ),
    }
}

/// A JSON object from `(key, JSON value)` members.
fn json_object(members: impl IntoIterator<Item = (String, String)>) -> String {
    let members: Vec<String> = (members.into_iter())
        .map(|(k, v)| format!("{}:{v}", json_str(&k)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// JSON exposition: one object, with a nested object per group.
pub fn render_json(s: &Snapshot) -> String {
    let mut top = Vec::new();
    for group in METRICS.chunk_by(|a, b| a.group == b.group) {
        let mut members = Vec::new();
        for run in group.chunk_by(|a, b| a.json.key() == b.json.key()) {
            let (m, cols): (_, Vec<Vec<Row>>) = (&run[0], run.iter().map(|c| (c.get)(s)).collect());
            let item = |i: usize| match m.json {
                Rows(..) => {
                    let labels = (m.labels.iter().zip(&cols[0][i].0))
                        .map(|(k, l)| (k.to_string(), json_value(*l)));
                    let fields = (run.iter().zip(&cols))
                        .map(|(c, col)| (c.json.field().to_string(), json_value(col[i].1)));
                    json_object(labels.chain(fields))
                }
                _ => json_value(cols[0][i].1),
            };
            let value = match m.json {
                _ if m.labels.is_empty() => json_value(cols[0][0].1),
                Field(_) => json_object(
                    (cols[0].iter()).map(|(l, v)| (text_value(Count, l[0]), json_value(*v))),
                ),
                List(_) | Rows(..) => {
                    let items: Vec<String> = (0..cols[0].len()).map(item).collect();
                    format!("[{}]", items.join(","))
                }
            };
            members.push((m.json.key().to_string(), value));
        }
        match group[0].group {
            "" => top.extend(members),
            g => top.push((g.to_string(), json_object(members))),
        }
    }
    json_object(top)
}

/// The text line a metric prints on: its group, `txn` for top-level
/// scalars, and its own key for a top-level labelled metric. Text shows
/// ns in µs, so names drop their `_ns` suffix.
fn text_line(m: &Metric) -> &'static str {
    match (m.group, m.labels.is_empty()) {
        ("", true) => "txn",
        ("", false) => m.json.key().trim_end_matches("_ns"),
        (g, _) => g,
    }
}

fn text_num(unit: Unit, x: f64) -> String {
    match unit {
        Count => format!("{x:.2}"),
        Ns => format!("{:.2}us", x / 1e3),
        Bytes => format!("{:.1}KB", x / 1024.0),
        Ratio => format!("{:.1}%", x * 100.0),
    }
}

fn text_value(unit: Unit, v: Value) -> String {
    match v {
        Int(n) if unit == Count => n.to_string(),
        Int(n) => text_num(unit, n as f64),
        Float(x) => text_num(unit, x),
        Flag(b) => b.to_string(),
        Str(s) => s.to_string(),
        Hist(h) => {
            let n = h.count;
            let [mean, p50, p99, p999] =
                [h.mean, h.p50 as f64, h.p99 as f64, h.p999 as f64].map(|x| text_num(unit, x));
            format!("(n={n} mean={mean} p50={p50} p99={p99} p999={p999})")
        }
    }
}

/// Human-readable exposition (the default `drtm-shell stats`): one line
/// per group that has a non-zero value, and a table for each labelled
/// summary (the commit phases and their verb waits).
pub fn render_text(s: &Snapshot) -> String {
    let mut out = String::with_capacity(2048);
    for run in METRICS.chunk_by(|a, b| text_line(a) == text_line(b)) {
        let line = text_line(&run[0]);
        let cols: Vec<Vec<Row>> = run.iter().map(|m| (m.get)(s)).collect();
        let zero = |v: &Value| match *v {
            Int(n) => n == 0,
            Float(x) => x == 0.0,
            Flag(b) => !b,
            Hist(h) => h.count == 0,
            Str(_) => true,
        };
        if cols.iter().flatten().all(|(_, v)| zero(v)) {
            continue;
        }
        if run[0].kind == Summary && !run[0].labels.is_empty() {
            let _ = writeln!(
                out,
                "\n{line:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "count", "mean us", "p50 us", "p99 us", "p999 us"
            );
            for (labels, value) in &cols[0] {
                let Hist(h) = value else { continue };
                let [mean, p50, p99, p999] =
                    [h.mean, h.p50 as f64, h.p99 as f64, h.p999 as f64].map(|x| x / 1e3);
                let label = text_value(Count, labels[0]);
                let _ = writeln!(
                    out,
                    "{label:<12} {:>10} {mean:>10.2} {p50:>10.2} {p99:>10.2} {p999:>10.2}",
                    h.count
                );
            }
            continue;
        }
        let mut tokens = Vec::new();
        for (m, col) in run.iter().zip(&cols) {
            let name = m.json.field().trim_end_matches("_ns");
            for (labels, value) in col {
                let labels: Vec<String> = labels.iter().map(|l| text_value(Count, *l)).collect();
                let key = match (name == line, labels.is_empty()) {
                    (true, _) => labels.join(","),
                    (false, true) => name.to_string(),
                    (false, false) => format!("{name}[{}]", labels.join(",")),
                };
                tokens.push(format!("{key}={}", text_value(m.unit, *value)));
            }
        }
        let _ = writeln!(out, "{line}: {}", tokens.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MachineRow, NicRow, Registry};
    use crate::Phase;

    fn sample() -> Snapshot {
        let r = Registry::new();
        let sh = r.shard(0);
        for i in 0..100 {
            sh.note_commit(1_000 + i * 10);
            sh.note_phase(Phase::Lock, 200 + i);
            sh.note_phase(Phase::Execute, 500);
        }
        sh.note_abort(0);
        sh.note_abort(4);
        sh.note_fallback();
        sh.note_cache_hit(192);
        sh.note_cache_hit(192);
        sh.note_cache_miss();
        sh.note_cache_invalidations(1);
        sh.note_routines(4);
        sh.note_verb_wait(1_000, 750);
        sh.note_reactor(3, 100);
        sh.note_reactor(1, 50);
        sh.note_phase_wait(Phase::Lock, 150);
        sh.note_contention_pessimistic();
        sh.note_key_park();
        sh.note_key_park();
        sh.note_key_unpark(400);
        sh.note_key_grant();
        let mut s = r.scrape();
        s.htm[0].1 = 3;
        s.nic = vec![
            NicRow {
                node: 0,
                verb: "read",
                count: 12,
            },
            NicRow {
                node: 0,
                verb: "atomic",
                count: 7,
            },
        ];
        s.nic_bytes = vec![(0, 4_096)];
        s.machines.push(MachineRow {
            node: 1,
            committed: 0,
            aborted: 0,
            fallbacks: 0,
            alive: false,
        });
        s.net = crate::NetStats {
            conns_opened: 4,
            conns_closed: 1,
            accepted: 90,
            rejected: 10,
            completed: 88,
            in_flight: 2,
            queue_depth: 1,
            queue_wait_ns: HistSummary {
                count: 90,
                sum: 90_000,
                mean: 1_000.0,
                p50: 900,
                p99: 4_000,
                p999: 4_800,
                max: 5_000,
            },
        };
        s.route = crate::RouteStats {
            enabled: true,
            local: 70,
            remote: 20,
            steals: 5,
            shed_queue: 7,
            shed_global: 3,
            depths: vec![1, 0],
        };
        s
    }

    #[test]
    fn json_exposition_is_valid_json() {
        let out = render_json(&sample());
        crate::jsonlint::validate(&out).expect("stats json must parse");
        assert!(out.contains("\"lock_busy\":1"));
        assert!(out.contains("\"conflict\":3"));
        assert!(out.contains(
            "\"cache\":{\"hits\":2,\"misses\":1,\"invalidations\":1,\"bytes_saved\":384,\
             \"hit_ratio\":0.6667}"
        ));
        assert!(out.contains(
            "\"pipeline\":{\"routines\":4,\"wait_ns\":1000,\"overlap_ns\":750,\
             \"hiding_ratio\":0.7500,\"wakes\":2,\"depth_avg\":2.0000,\"wake_lag_ns\":150}"
        ));
        assert!(out.contains("\"phase_waits_ns\":{"));
        assert!(out.contains(
            "\"contention\":{\"pessimistic\":1,\"parks\":2,\"unparks\":1,\"grants\":1,\
             \"waiters\":1,\"parked_ns\":"
        ));
        assert!(out.contains(
            "\"net\":{\"conns_opened\":4,\"conns_closed\":1,\"accepted\":90,\"rejected\":10,\
             \"completed\":88,\"in_flight\":2,\"queue_depth\":1,\"queue_wait_ns\":"
        ));
        assert!(out.contains(
            "\"route\":{\"enabled\":true,\"local\":70,\"remote\":20,\"steals\":5,\
             \"shed_queue\":7,\"shed_global\":3,\"depths\":[1,0],\"local_ratio\":0.7778}"
        ));
        assert!(out.contains("\"abort_ratio\":0.0196,"));
        assert!(out.contains("\"queue_wait_ns\":{\"count\":90,"));
        assert!(out.contains(",\"shed_ratio\":0.1000}"));
    }

    #[test]
    fn empty_snapshot_renders_everywhere() {
        let s = Snapshot::empty();
        crate::jsonlint::validate(&render_json(&s)).unwrap();
        // Every group is zero, so text prints no line at all (in
        // particular no abort line).
        assert_eq!(render_text(&s), "");
        let prom = render_prometheus(&s);
        assert!(prom.contains("drtm_txn_committed_total 0"));
    }

    #[test]
    fn prometheus_exposition_has_labelled_series() {
        let out = render_prometheus(&sample());
        assert!(out.contains("drtm_txn_abort_total{reason=\"lock_busy\"} 1"));
        assert!(out.contains("drtm_txn_abort_total{reason=\"fallback\"} 1"));
        assert!(out.contains("drtm_htm_abort_total{class=\"conflict\"} 3"));
        assert!(out.contains("drtm_commit_phase_ns{phase=\"lock\",quantile=\"0.99\"}"));
        assert!(out.contains("drtm_commit_phase_ns_count{phase=\"lock\"} 100"));
        assert!(out.contains("drtm_nic_verbs_total{node=\"0\",verb=\"read\"} 12"));
        assert!(out.contains("drtm_machine_alive{node=\"1\"} 0"));
        assert!(out.contains("drtm_cache_hit_total 2"));
        assert!(out.contains("drtm_cache_bytes_saved_total 384"));
        assert!(out.contains("drtm_routines 4"));
        assert!(out.contains("drtm_verb_wait_ns_total 1000"));
        assert!(out.contains("drtm_verb_overlap_ns_total 750"));
        assert!(out.contains("drtm_latency_hiding_ratio 0.7500"));
        assert!(out.contains("drtm_reactor_wakes_total 2"));
        assert!(out.contains("drtm_reactor_depth_avg 2.0000"));
        assert!(out.contains("drtm_reactor_wake_lag_ns_total 150"));
        assert!(out.contains("drtm_contention_pessimistic_total 1"));
        assert!(out.contains("drtm_contention_park_total 2"));
        assert!(out.contains("drtm_contention_grant_total 1"));
        assert!(out.contains("drtm_contention_waiters 1"));
        assert!(out.contains("drtm_contention_parked_ns_count 1"));
        assert!(out.contains("drtm_commit_phase_wait_ns_count{phase=\"lock\"} 1"));
        assert!(out.contains("drtm_net_accepted_total 90"));
        assert!(out.contains("drtm_net_rejected_total 10"));
        assert!(out.contains("drtm_net_in_flight 2"));
        assert!(out.contains("drtm_net_queue_wait_ns{quantile=\"0.99\"} 4000"));
        assert!(out.contains("drtm_net_queue_wait_ns{quantile=\"0.999\"} 4800"));
        assert!(out.contains("drtm_route_enabled 1"));
        assert!(out.contains("drtm_route_local_total 70"));
        assert!(out.contains("drtm_route_remote_total 20"));
        assert!(out.contains("drtm_route_steal_total 5"));
        assert!(out.contains("drtm_route_shed_queue_total 7"));
        assert!(out.contains("drtm_route_shed_global_total 3"));
        assert!(out.contains("drtm_route_queue_depth{pool=\"0\"} 1"));
        assert!(out.contains("drtm_route_queue_depth{pool=\"1\"} 0"));
        assert!(out.contains("drtm_commit_phase_ns{phase=\"lock\",quantile=\"0.999\"}"));
        // Series that only JSON carried before the shared schema.
        assert!(out.contains("drtm_contention_unpark_total 1"));
        assert!(out.contains("drtm_machine_aborted_total{node=\"0\"} 2"));
        assert!(out.contains("drtm_machine_fallback_total{node=\"0\"} 1"));
        // Ratios that only text showed before.
        assert!(out.contains("drtm_txn_abort_ratio 0.0196"));
        assert!(out.contains("drtm_cache_hit_ratio 0.6667"));
        assert!(out.contains("drtm_net_shed_ratio 0.1000"));
        assert!(out.contains("drtm_route_local_ratio 0.7778"));
        assert!(out.contains(
            "# HELP drtm_txn_committed_total Committed transactions.\n\
             # TYPE drtm_txn_committed_total counter\n"
        ));
    }

    #[test]
    fn json_summaries_carry_p999() {
        let out = render_json(&sample());
        assert!(out.contains("\"p999\":4800"));
        assert!(out.contains("\"p99\":4000"));
    }

    /// Reverses [`prom_escape`]: the round-trip oracle.
    fn prom_unescape(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        let mut it = v.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn prometheus_label_values_round_trip_through_escaping() {
        // Satellite: every stable label table entry, plus adversarial
        // values containing quotes/backslashes/newlines, must survive
        // escape → line render → extract → unescape unchanged.
        let adversarial = ["quo\"te", "back\\slash", "new\nline", "\\\"both\\\"", ""];
        for raw in crate::ABORT_REASONS
            .iter()
            .chain(crate::HTM_CLASSES.iter())
            .copied()
            .chain(adversarial)
        {
            let line = format!("drtm_txn_abort_total{{reason=\"{}\"}} 1", prom_escape(raw));
            // A parseable series line has exactly one unescaped quote
            // pair around the value and no raw newline inside it.
            let inner = line
                .strip_prefix("drtm_txn_abort_total{reason=\"")
                .and_then(|r| r.strip_suffix("\"} 1"))
                .unwrap_or_else(|| panic!("unparseable line {line:?}"));
            assert!(!inner.contains('\n'), "raw newline leaked: {line:?}");
            let mut quotes = 0;
            let mut prev_backslash = false;
            for c in inner.chars() {
                if c == '"' && !prev_backslash {
                    quotes += 1;
                }
                prev_backslash = c == '\\' && !prev_backslash;
            }
            assert_eq!(quotes, 0, "unescaped quote inside value: {line:?}");
            assert_eq!(prom_unescape(inner), raw, "round-trip broke for {raw:?}");
        }
    }

    #[test]
    fn prometheus_rendering_escapes_hostile_labels() {
        let mut s = sample();
        s.nic.push(crate::registry::NicRow {
            node: 3,
            verb: "rd\"ma\\verb",
            count: 1,
        });
        let out = render_prometheus(&s);
        assert!(out.contains("drtm_nic_verbs_total{node=\"3\",verb=\"rd\\\"ma\\\\verb\"} 1"));
        let json = render_json(&s);
        crate::jsonlint::validate(&json).expect("hostile labels must stay valid JSON");
        assert!(json.contains("{\"node\":3,\"verb\":\"rd\\\"ma\\\\verb\",\"count\":1}"));
    }

    #[test]
    fn text_exposition_has_phase_table_and_taxonomy() {
        let out = render_text(&sample());
        let line = |name: &str| {
            let prefix = format!("{name}: ");
            let found = out.lines().find(|l| l.starts_with(&prefix));
            format!(
                "{} ",
                found.unwrap_or_else(|| panic!("no {name} line in:\n{out}"))
            )
        };
        assert!(line("txn").starts_with("txn: committed=100 aborted=2 fallbacks=1 "));
        assert!(line("txn").contains(" abort_ratio=2.0% "));
        // Phase table: quantile columns in µs, one row per phase, and the
        // verb-wait table beside it.
        assert!(out.contains("p50 us") && out.contains("p99 us"));
        assert!(out.lines().any(|l| l
            .split_whitespace()
            .eq(["lock", "100", "0.25", "0.24", "0.51", "0.51"])));
        assert!(out.lines().any(|l| l.starts_with("phase_waits ")));
        assert!(line("aborts").contains(" lock_busy=1 "));
        assert!(line("htm_aborts").contains(" conflict=3 "));
        assert!(line("nic").contains(" count[0,read]=12 "));
        assert!(line("machines").contains(" alive[1]=false "));
        assert!(line("cache").starts_with("cache: hits=2 misses=1 "));
        assert!(line("pipeline").starts_with("pipeline: routines=4 "));
        assert!(line("pipeline").contains(" hiding_ratio=75.0% "));
        assert!(line("pipeline").contains(" wakes=2 depth_avg=2.00 "));
        assert!(line("contention")
            .starts_with("contention: pessimistic=1 parks=2 unparks=1 grants=1 waiters=1 "));
        assert!(
            line("net").starts_with("net: conns_opened=4 conns_closed=1 accepted=90 rejected=10 ")
        );
        assert!(line("net").contains(" shed_ratio=10.0% "));
        assert!(line("route").starts_with("route: enabled=true local=70 remote=20 steals=5 "));
        assert!(line("route").contains(" local_ratio=77.8% "));
        assert!(line("route").contains(" shed_queue=7 shed_global=3 depths[0]=1 depths[1]=0 "));
    }

    #[test]
    fn text_exposition_omits_cache_line_when_unused() {
        let out = render_text(&Snapshot::empty());
        assert!(!out.contains("cache:"));
        assert!(!out.contains("net:"));
        assert!(!out.contains("contention:"));
        assert!(!out.contains("route:"));
    }

    /// Just enough JSON structure to look rendered values up by path.
    #[derive(Debug, PartialEq)]
    enum J {
        /// A number, `true` or `false`, as written.
        Lit(String),
        Str(String),
        Arr(Vec<J>),
        Obj(Vec<(String, J)>),
    }

    impl J {
        fn parse(b: &[u8], i: &mut usize) -> J {
            let start = *i;
            *i += 1;
            match b[start] {
                open @ (b'{' | b'[') => {
                    let (mut members, mut items) = (Vec::new(), Vec::new());
                    while b[*i] != if open == b'{' { b'}' } else { b']' } {
                        *i += usize::from(b[*i] == b',');
                        if open == b'[' {
                            items.push(J::parse(b, i));
                            continue;
                        }
                        let J::Str(key) = J::parse(b, i) else {
                            panic!("non-string key")
                        };
                        *i += 1; // ':'
                        members.push((key, J::parse(b, i)));
                    }
                    *i += 1;
                    if open == b'{' {
                        J::Obj(members)
                    } else {
                        J::Arr(items)
                    }
                }
                b'"' => {
                    let mut s = Vec::new();
                    while b[*i] != b'"' {
                        *i += usize::from(b[*i] == b'\\');
                        s.push(b[*i]);
                        *i += 1;
                    }
                    *i += 1;
                    J::Str(String::from_utf8(s).unwrap())
                }
                _ => {
                    while !b",}]".contains(&b[*i]) {
                        *i += 1;
                    }
                    J::Lit(String::from_utf8(b[start..*i].to_vec()).unwrap())
                }
            }
        }

        fn get(&self, key: &str) -> &J {
            match self {
                J::Obj(members) => &members.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("{other:?} has no member {key}"),
            }
        }

        fn items(&self) -> &[J] {
            match self {
                J::Arr(items) => items,
                other => panic!("{other:?} is not an array"),
            }
        }
    }

    /// Cross-format parity: every descriptor row of the fixture shows the
    /// same number in all three formats, each in its own notation (ns as
    /// µs, ratios as percent in text; bools as 0/1 in Prometheus).
    #[test]
    fn every_metric_row_renders_the_same_value_in_all_formats() {
        let s = sample();
        let prom = render_prometheus(&s);
        let json_text = render_json(&s);
        let json = J::parse(json_text.as_bytes(), &mut 0);
        let text = render_text(&s);
        let mut names: Vec<_> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "duplicate series name");
        let lit = |v: &dyn std::fmt::Display| J::Lit(v.to_string());
        for m in METRICS {
            assert!(prom.contains(&format!("# HELP {} {}\n", m.name, m.help)));
            let rows = (m.get)(&s);
            assert!(!rows.is_empty(), "{} has no rows in the fixture", m.name);
            for (labels, value) in rows {
                let label = |l: &Value| match *l {
                    Int(n) => n.to_string(),
                    Str(s) => s.to_string(),
                    _ => unreachable!("labels are Int or Str"),
                };
                let lv: Vec<String> = labels.iter().map(label).collect();
                let pairs: Vec<String> = (m.labels.iter().zip(&lv))
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                let series = |suffix: &str, extra: &[String]| {
                    let all = [&pairs[..], extra].concat();
                    match all.is_empty() {
                        true => format!("{}{suffix}", m.name),
                        false => format!("{}{suffix}{{{}}}", m.name, all.join(",")),
                    }
                };
                // Prometheus: the sample lines.
                let expect_prom: Vec<String> = match value {
                    Int(n) => vec![format!("{} {n}", series("", &[]))],
                    Float(x) => vec![format!("{} {x:.4}", series("", &[]))],
                    Flag(b) => vec![format!("{} {}", series("", &[]), u8::from(b))],
                    Hist(h) => vec![
                        format!("{} {}", series("", &["quantile=\"0.5\"".into()]), h.p50),
                        format!("{} {}", series("", &["quantile=\"0.99\"".into()]), h.p99),
                        format!("{} {}", series("", &["quantile=\"0.999\"".into()]), h.p999),
                        format!("{} {}", series("_sum", &[]), h.sum),
                        format!("{} {}", series("_count", &[]), h.count),
                    ],
                    Str(_) => unreachable!("no string samples"),
                };
                for l in &expect_prom {
                    assert!(prom.lines().any(|p| p == l), "prom lacks {l:?}");
                }
                // JSON: the value at the descriptor's path.
                let obj = if m.group.is_empty() {
                    &json
                } else {
                    json.get(m.group)
                };
                let found = match m.json {
                    Field(k) if labels.is_empty() => obj.get(k),
                    Field(k) => obj.get(k).get(&lv[0]),
                    List(k) => &obj.get(k).items()[lv[0].parse::<usize>().unwrap()],
                    Rows(k, field) => obj
                        .get(k)
                        .items()
                        .iter()
                        .find(|row| {
                            (m.labels.iter().zip(&labels)).all(|(key, l)| match l {
                                Str(s) => *row.get(key) == J::Str(s.to_string()),
                                _ => *row.get(key) == J::Lit(label(l)),
                            })
                        })
                        .unwrap_or_else(|| panic!("{}: no JSON row {lv:?}", m.name))
                        .get(field),
                };
                match value {
                    Int(n) => assert_eq!(*found, lit(&n), "{}", m.name),
                    Float(x) => assert_eq!(*found, lit(&format!("{x:.4}")), "{}", m.name),
                    Flag(b) => assert_eq!(*found, lit(&b), "{}", m.name),
                    Hist(h) => {
                        let fields = [("count", h.count), ("sum", h.sum), ("p50", h.p50)];
                        for (k, v) in fields.into_iter().chain([("p99", h.p99), ("p999", h.p999)]) {
                            assert_eq!(*found.get(k), lit(&v), "{} {k}", m.name);
                        }
                    }
                    Str(_) => unreachable!(),
                }
                // Text: the row's token on its group line, or its table row.
                let us = |ns: f64| format!("{:.2}", ns / 1e3);
                let line = text_line(m);
                if let (Hist(h), false) = (value, labels.is_empty()) {
                    let quantiles = [h.mean, h.p50 as f64, h.p99 as f64, h.p999 as f64].map(us);
                    let cells = [&[lv[0].clone(), h.count.to_string()][..], &quantiles].concat();
                    assert!(
                        text.lines().any(|l| l.split_whitespace().eq(cells.iter())),
                        "{}: no table row {cells:?} in:\n{text}",
                        m.name
                    );
                    continue;
                }
                let shown = match (value, m.unit) {
                    (Int(n), Count) => n.to_string(),
                    (Int(n), Ns) => format!("{}us", us(n as f64)),
                    (Int(n), Bytes) => format!("{:.1}KB", n as f64 / 1024.0),
                    (Float(x), Ratio) => format!("{:.1}%", x * 100.0),
                    (Float(x), Count) => format!("{x:.2}"),
                    (Flag(b), _) => b.to_string(),
                    (Hist(h), Ns) => format!(
                        "(n={} mean={}us p50={}us p99={}us p999={}us)",
                        h.count,
                        us(h.mean),
                        us(h.p50 as f64),
                        us(h.p99 as f64),
                        us(h.p999 as f64)
                    ),
                    _ => unreachable!("{}: unexpected value/unit pair", m.name),
                };
                let name = m.json.field().trim_end_matches("_ns");
                let key = match (name == line, lv.is_empty()) {
                    (true, _) => lv.join(","),
                    (false, true) => name.to_string(),
                    (false, false) => format!("{name}[{}]", lv.join(",")),
                };
                let token = format!(" {key}={shown} ");
                assert!(
                    text.lines()
                        .any(|l| l.starts_with(&format!("{line}: "))
                            && format!("{l} ").contains(&token)),
                    "{}: no text token {token:?} in:\n{text}",
                    m.name
                );
            }
        }
    }
}

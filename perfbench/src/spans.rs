//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded only around the benchmark's calls into the engine
//! (set-up, phases, one `core.exec` span per transaction, one
//! `net.client` span per served request). They stay in memory and are
//! written once, at the end, together with the engine counter deltas
//! taken at the same boundaries and each span name's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::layers::{delta, Counters};

/// Leaf spans written to the trace file; the rest are kept in memory
/// (and counted in the self-time table) but not written, so a traced
/// run's file stays a few MiB.
const FILE_LEAF_CAP: usize = 20_000;

/// What a span covers, beyond its name and times.
#[derive(Clone, Copy)]
pub enum Detail {
    /// A structural span (workload, set-up, phase).
    Phase,
    /// One transaction call: its type, the attempts it took, its node.
    Exec {
        ty: &'static str,
        attempts: u32,
        node: u32,
    },
    /// One served request; wall times are `[scheduled, replied]`.
    Client { sent_ns: u64, status: &'static str },
}

/// One recorded span. Wall times are ns since the recorder started;
/// virtual times are the worker clock (0 where no clock applies).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Id of the parent span (ids are 1-based; 0 means none).
    pub parent: u32,
    pub wall: [u64; 2],
    pub virt: [u64; 2],
    pub detail: Detail,
}

/// The in-memory span tree and counter boundaries of one run.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    boundaries: Vec<(String, u64, Counters)>,
}

impl Recorder {
    /// Starts recording now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// The instant wall times are measured from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Wall ns since the recorder started.
    pub fn wall_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a structural span under `parent` and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.wall_ns();
        self.spans.push(Span {
            name,
            parent,
            wall: [now, now],
            virt: [0, 0],
            detail: Detail::Phase,
        });
        self.spans.len() as u32
    }

    /// Closes span `id`, optionally stamping its virtual interval.
    pub fn close(&mut self, id: u32, virt: Option<[u64; 2]>) {
        let now = self.wall_ns();
        let s = &mut self.spans[id as usize - 1];
        s.wall[1] = now;
        if let Some(v) = virt {
            s.virt = v;
        }
    }

    /// Adopts leaf spans recorded by worker threads.
    pub fn extend(&mut self, leaves: impl IntoIterator<Item = Span>) {
        self.spans.extend(leaves);
    }

    /// Records the engine counters at a named boundary.
    pub fn boundary(&mut self, name: &str, counters: Counters) {
        let now = self.wall_ns();
        self.boundaries.push((name.to_string(), now, counters));
    }

    /// Self time per span name: each span's duration minus the part of
    /// it that the union of its children's intervals covers (children of
    /// one phase run in parallel on several nodes), summed by name as
    /// `(count, wall ns, virtual ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<([u64; 2], [u64; 2])>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push((s.wall, s.virt));
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &mut children[i + 1];
            let wall_cover = covered(kids.iter().map(|k| k.0).collect());
            let virt_cover = covered(kids.iter().map(|k| k.1).collect());
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.wall[1] - s.wall[0]).saturating_sub(wall_cover);
            e.2 += (s.virt[1] - s.virt[0]).saturating_sub(virt_cover);
        }
        out
    }

    /// Renders the span tree (chrome://tracing `X` events), the counter
    /// deltas between consecutive boundaries, and the self-time table.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"traceEvents\":["
        );
        let mut leaves = 0usize;
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if !matches!(s.detail, Detail::Phase) {
                leaves += 1;
                if leaves > FILE_LEAF_CAP {
                    continue;
                }
            }
            if !first {
                o.push(',');
            }
            first = false;
            let tid = match s.detail {
                Detail::Exec { node, .. } => node + 1,
                _ => 0,
            };
            let _ = write!(
                o,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"vstart_ns\":{},\"vend_ns\":{}",
                s.name,
                s.wall[0] as f64 / 1e3,
                (s.wall[1] - s.wall[0]) as f64 / 1e3,
                i + 1,
                s.parent,
                s.virt[0],
                s.virt[1],
            );
            match s.detail {
                Detail::Phase => {}
                Detail::Exec { ty, attempts, .. } => {
                    let _ = write!(o, ",\"type\":\"{ty}\",\"attempts\":{attempts}");
                }
                Detail::Client { sent_ns, status } => {
                    let _ = write!(
                        o,
                        ",\"scheduled_ns\":{},\"sent_ns\":{sent_ns},\"replied_ns\":{},\"status\":\"{status}\"",
                        s.wall[0], s.wall[1]
                    );
                }
            }
            o.push_str("}}");
        }
        let _ = write!(
            o,
            "],\"leaf_spans\":{leaves},\"leaf_spans_written\":{},\"counter_deltas\":[",
            leaves.min(FILE_LEAF_CAP)
        );
        for (i, w) in self.boundaries.windows(2).enumerate() {
            let ((from, _, a), (to, at, b)) = (&w[0], &w[1]);
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"from\":\"{from}\",\"to\":\"{to}\",\"at_us\":{:.1},\"delta\":{{",
                *at as f64 / 1e3
            );
            let d = delta(a, b);
            let mut sep = "";
            for (k, v) in d.iter().filter(|(_, v)| **v != 0.0) {
                let _ = write!(o, "{sep}\"{k}\":{v}");
                sep = ",";
            }
            o.push_str("}}");
        }
        o.push_str("],\"self_time\":{");
        let mut sep = "";
        for (name, (n, wall, virt)) in self.self_times() {
            let _ = write!(
                o,
                "{sep}\"{name}\":{{\"spans\":{n},\"wall_us\":{:.1},\"virtual_us\":{:.1}}}",
                wall as f64 / 1e3,
                virt as f64 / 1e3
            );
            sep = ",";
        }
        o.push_str("}}\n");
        o
    }
}

/// Total length of the union of `intervals`.
fn covered(mut intervals: Vec<[u64; 2]>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<[u64; 2]> = None;
    for iv in intervals {
        match &mut cur {
            Some(c) if iv[0] <= c[1] => c[1] = c[1].max(iv[1]),
            _ => {
                if let Some(c) = cur {
                    total += c[1] - c[0];
                }
                cur = Some(iv);
            }
        }
    }
    total + cur.map_or(0, |c| c[1] - c[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![[0, 10], [5, 15], [20, 30]]), 25);
        assert_eq!(covered(vec![[3, 4], [0, 10]]), 10);
        assert_eq!(covered(Vec::new()), 0);
    }
}

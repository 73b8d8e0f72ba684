//! Trace exporters and the rollup's text tables.
//!
//! * [`chrome_trace`] renders a [`MergedTrace`] as Chrome trace-event
//!   JSON with one track per rank, openable in Perfetto
//!   (`ui.perfetto.dev`) or `chrome://tracing`;
//! * [`render_phase_metrics`] renders a [`Rollup`] per phase: counters,
//!   the compute-vs-comm-vs-wait breakdown per synchronization region,
//!   and wait/compute span histograms (p50 / p95 / max);
//! * [`render_rank_breakdown`] renders how much of each rank's wall time
//!   the trace accounts for, the coverage the CI smoke test asserts on.
//!
//! The numbers themselves come from [`crate::rollup`]; this module only
//! formats them.

use crate::journal::MergedTrace;
use crate::rollup::Rollup;
use crate::trace::EventKind;
use serde::json::Value;
use std::time::Duration;

/// The flow id tying a send `ph:"s"` to its recv `ph:"f"`: the sender's
/// rank in the high bits, its per-endpoint sequence number in the low
/// 40. Both sides derive the same id independently (the recv carries
/// the sender's rank as `peer` and the sender's seq), so no cross-rank
/// coordination is needed at export time.
fn flow_id(sender: usize, seq: u64) -> i128 {
    ((sender as i128) << 40) | (seq as i128 & ((1 << 40) - 1))
}

/// Render a merged trace in Chrome trace-event JSON (object form, `"X"`
/// complete events, microsecond timestamps). Tracks: `pid` 0, one `tid`
/// per rank plus a `thread_name` metadata record; event names are
/// `<kind> <phase>` so Perfetto groups by activity.
///
/// Causality-stamped messages (journal schema 3) additionally emit flow
/// events — `ph:"s"` anchored in the send slice and `ph:"f"` /
/// `bp:"e"` anchored in the matching recv slice — so Perfetto draws a
/// send→recv arrow for every point-to-point message.
pub fn chrome_trace(merged: &MergedTrace) -> String {
    let mut events = Vec::new();
    for (rank, trace) in merged.traces.iter().enumerate() {
        events.push(Value::obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Int(0)),
            ("tid", Value::Int(rank as i128)),
            (
                "args",
                Value::obj(vec![("name", Value::Str(format!("rank {rank}")))]),
            ),
        ]));
        let names = &merged.phase_names[rank];
        for e in trace {
            let phase = names
                .get(e.phase as usize)
                .cloned()
                .unwrap_or_else(|| format!("phase_{}", e.phase));
            let mut args = vec![("phase", Value::Str(phase.clone()))];
            if let Some(p) = e.peer {
                args.push(("peer", Value::Int(p as i128)));
            }
            if e.elems > 0 {
                args.push(("elems", Value::Int(e.elems as i128)));
            }
            if e.bytes > 0 {
                args.push(("bytes", Value::Int(e.bytes as i128)));
            }
            events.push(Value::obj(vec![
                ("name", Value::Str(format!("{} {}", e.kind.name(), phase))),
                ("cat", Value::Str(e.kind.name().into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(e.start.as_nanos() as f64 / 1000.0)),
                ("dur", Value::Float(e.span().as_nanos() as f64 / 1000.0)),
                ("pid", Value::Int(0)),
                ("tid", Value::Int(rank as i128)),
                ("args", Value::obj(args)),
            ]));
            let flow = match (e.kind, e.peer, e.seq) {
                // the send starts the flow; the arrow leaves its slice
                (EventKind::Send, Some(_), Some(seq)) => Some(("s", flow_id(rank, seq), e.start)),
                // the recv finishes it; `peer` is the *sender*, so both
                // sides compute the same id
                (EventKind::Recv, Some(sender), Some(seq)) => {
                    Some(("f", flow_id(sender, seq), e.end))
                }
                _ => None,
            };
            if let Some((ph, id, ts)) = flow {
                let mut fields = vec![
                    ("name", Value::Str("msg".into())),
                    ("cat", Value::Str("flow".into())),
                    ("ph", Value::Str(ph.into())),
                    ("id", Value::Int(id)),
                    ("ts", Value::Float(ts.as_nanos() as f64 / 1000.0)),
                    ("pid", Value::Int(0)),
                    ("tid", Value::Int(rank as i128)),
                ];
                if ph == "f" {
                    // bind to the enclosing (recv) slice, not the next one
                    fields.push(("bp", Value::Str("e".into())));
                }
                events.push(Value::obj(fields));
            }
        }
    }
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
    .to_string()
}

/// p50 / p95 / max over a set of span durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Maximum.
    pub max: Duration,
}

/// Percentiles of a sample set (nearest-rank method; zeros if empty).
pub fn percentiles(samples: &mut [Duration]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    samples.sort_unstable();
    let rank = |q: f64| {
        let idx = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[idx.min(samples.len() - 1)]
    };
    Percentiles {
        p50: rank(0.50),
        p95: rank(0.95),
        max: *samples.last().unwrap(),
    }
}

fn dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1000.0;
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{us:.1}µs")
    }
}

/// Render the rollup's phases as a text table, one row per phase that
/// recorded any event.
pub fn render_phase_metrics(rollup: &Rollup) -> String {
    let rows: Vec<_> = rollup
        .phases
        .iter()
        .map(|p| (p, p.total()))
        .filter(|(_, t)| t.events > 0)
        .collect();
    let name_w = rows
        .iter()
        .map(|(p, _)| p.name.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "{:name_w$}  {:>6}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>20}  {:>20}\n",
        "phase",
        "events",
        "msgs",
        "bytes",
        "compute",
        "comm",
        "wait",
        "imb",
        "wait p50/p95/max",
        "compute p50/p95/max",
    );
    let hist = |h: &Percentiles| format!("{}/{}/{}", dur(h.p50), dur(h.p95), dur(h.max));
    for (p, t) in rows {
        out.push_str(&format!(
            "{:name_w$}  {:>6}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>20}  {:>20}\n",
            p.name,
            t.events,
            t.msgs,
            t.bytes,
            dur(t.compute),
            dur(t.comm),
            dur(t.wait),
            p.imbalance()
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            hist(&p.wait_spans),
            hist(&p.compute_spans),
        ));
    }
    out
}

/// Render each rank's wall time, its compute/comm/wait split, and the
/// share of wall time the spans cover.
pub fn render_rank_breakdown(rollup: &Rollup) -> String {
    let mut out = format!(
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>8}\n",
        "rank", "wall", "compute", "comm", "wait", "covered"
    );
    for r in 0..rollup.ranks() {
        let t = rollup.rank(r);
        out.push_str(&format!(
            "{:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7.1}%\n",
            r,
            dur(rollup.wall(r)),
            dur(t.compute),
            dur(t.comm),
            dur(t.wait),
            rollup.coverage(r) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, JournalHeader, RankJournal, SCHEMA_VERSION};
    use serde::json;

    fn merged_fixture() -> MergedTrace {
        let mk = |rank: usize, events: Vec<JournalEvent>| RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank,
                ranks: 2,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events,
            complete: true,
            skipped: 0,
        };
        let ev = |kind, s: u64, e: u64, phase: &str| JournalEvent {
            kind,
            start: Duration::from_micros(s),
            end: Duration::from_micros(e),
            peer: if kind == EventKind::Send {
                Some(1)
            } else {
                None
            },
            elems: if kind == EventKind::Send { 8 } else { 0 },
            bytes: if kind == EventKind::Send { 64 } else { 0 },
            phase: phase.into(),
            engine: "tree".into(),
            seq: None,
        };
        crate::journal::merge(&[
            mk(
                0,
                vec![
                    ev(EventKind::Compute, 0, 40, "main"),
                    ev(EventKind::Send, 40, 40, "sync_0"),
                    ev(EventKind::Recv, 40, 90, "sync_0"),
                ],
            ),
            mk(
                1,
                vec![
                    ev(EventKind::Compute, 0, 80, "main"),
                    ev(EventKind::Barrier, 80, 100, "sync_0"),
                ],
            ),
        ])
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_rank() {
        let merged = merged_fixture();
        let text = chrome_trace(&merged);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata records + 5 spans
        assert_eq!(events.len(), 7);
        let tids: Vec<i128> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("tid").unwrap().as_int().unwrap())
            .collect();
        assert!(tids.contains(&0) && tids.contains(&1));
        let meta: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("rank 0")
        );
        // a send span carries its peer and wire bytes
        let send = events
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("send")))
            .unwrap();
        assert_eq!(
            send.get("args").unwrap().get("peer").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            send.get("args").unwrap().get("bytes").unwrap().as_int(),
            Some(64)
        );
    }

    /// Golden test for the flow-event export: a stamped send/recv pair
    /// must produce exactly one `ph:"s"` and one `ph:"f"` with the same
    /// id, and that id must be stable across runs (it is derived from
    /// `(sender_rank, seq)`, nothing time- or order-dependent).
    #[test]
    fn chrome_trace_emits_paired_flow_events_for_stamped_messages() {
        let mk = |rank: usize, events: Vec<JournalEvent>| RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank,
                ranks: 2,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events,
            complete: true,
            skipped: 0,
        };
        let msg = |kind, peer: usize, seq: u64, s: u64, e: u64| JournalEvent {
            kind,
            start: Duration::from_micros(s),
            end: Duration::from_micros(e),
            peer: Some(peer),
            elems: 8,
            bytes: 64,
            phase: "sync_0".into(),
            engine: "tree".into(),
            seq: Some(seq),
        };
        let merged = crate::journal::merge(&[
            mk(0, vec![msg(EventKind::Send, 1, 3, 10, 12)]),
            mk(1, vec![msg(EventKind::Recv, 0, 3, 10, 40)]),
        ]);
        let doc = json::parse(&chrome_trace(&merged)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 2, "one start + one finish");
        let s = flows
            .iter()
            .find(|f| f.get("ph").unwrap().as_str() == Some("s"))
            .expect("flow start");
        let f = flows
            .iter()
            .find(|f| f.get("ph").unwrap().as_str() == Some("f"))
            .expect("flow finish");
        // the golden id: sender rank 0 << 40 | seq 3
        assert_eq!(s.get("id").unwrap().as_int(), Some(3));
        assert_eq!(f.get("id").unwrap().as_int(), Some(3));
        assert_eq!(s.get("tid").unwrap().as_int(), Some(0), "starts on sender");
        assert_eq!(f.get("tid").unwrap().as_int(), Some(1), "ends on receiver");
        assert_eq!(f.get("bp").unwrap().as_str(), Some("e"), "binds enclosing");
        assert!(s.get("bp").is_none());
        // anchored inside their slices: s at send start, f at recv end
        assert_eq!(s.get("ts").unwrap().as_f64(), Some(10.0));
        assert_eq!(f.get("ts").unwrap().as_f64(), Some(40.0));
        // a second export is byte-identical (stable ordering)
        assert_eq!(chrome_trace(&merged), chrome_trace(&merged));
    }

    #[test]
    fn flow_id_packs_rank_and_seq() {
        assert_eq!(flow_id(0, 1), 1);
        assert_eq!(flow_id(3, 1), (3 << 40) + 1);
        // ids never collide across sender ranks for in-range seqs
        assert_ne!(flow_id(1, 7), flow_id(2, 7));
    }

    #[test]
    fn phase_metrics_split_compute_comm_wait() {
        let rollup = Rollup::of(&merged_fixture());
        assert_eq!(rollup.phases.len(), 2);
        let main = &rollup.phases[0];
        assert_eq!(main.name, "main");
        assert_eq!(main.total().events, 2);
        assert_eq!(main.total().compute, Duration::from_micros(120));
        assert_eq!(main.total().wait, Duration::ZERO);
        assert_eq!(main.compute_spans.max, Duration::from_micros(80));
        assert_eq!(main.compute_spans.p50, Duration::from_micros(40));
        let sync = &rollup.phases[1];
        assert_eq!(sync.name, "sync_0");
        let t = sync.total();
        assert_eq!(t.msgs, 2, "send + recv; barrier is not a message");
        assert_eq!(t.bytes, 64);
        assert_eq!(t.wait, Duration::from_micros(70), "recv 50 + barrier 20");
        let rendered = render_phase_metrics(&rollup);
        assert!(rendered.contains("sync_0"), "{rendered}");
        assert!(rendered.lines().next().unwrap().contains("compute"));
    }

    #[test]
    fn overlap_counts_as_compute_and_accumulates_separately() {
        let journal = RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank: 0,
                ranks: 1,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events: vec![
                JournalEvent {
                    kind: EventKind::Overlap,
                    start: Duration::from_micros(0),
                    end: Duration::from_micros(30),
                    peer: None,
                    elems: 0,
                    bytes: 0,
                    phase: "sync_0".into(),
                    engine: "tree".into(),
                    seq: None,
                },
                JournalEvent {
                    kind: EventKind::Recv,
                    start: Duration::from_micros(30),
                    end: Duration::from_micros(40),
                    peer: Some(1),
                    elems: 4,
                    bytes: 32,
                    phase: "sync_0".into(),
                    engine: "tree".into(),
                    seq: Some(1),
                },
            ],
            complete: true,
            skipped: 0,
        };
        let rollup = Rollup::of(&crate::journal::merge(&[journal]));
        assert_eq!(rollup.phases.len(), 1);
        let t = rollup.phases[0].total();
        assert_eq!(t.overlap, Duration::from_micros(30));
        assert_eq!(t.compute, Duration::from_micros(30), "overlap is work");
        assert_eq!(t.wait, Duration::from_micros(10));
        assert_eq!(rollup.rank(0), t, "one phase, one rank");
        assert!((rollup.coverage(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_breakdown_covers_wall_time() {
        let rollup = Rollup::of(&merged_fixture());
        assert_eq!(rollup.wall(0), Duration::from_micros(90));
        assert_eq!(rollup.rank(0).compute, Duration::from_micros(40));
        assert_eq!(rollup.rank(0).wait, Duration::from_micros(50));
        assert!(rollup.coverage(0) > 0.99, "{}", rollup.coverage(0));
        assert_eq!(rollup.wall(1), Duration::from_micros(100));
        assert!((rollup.coverage(1) - 1.0).abs() < 1e-9);
        let rendered = render_rank_breakdown(&rollup);
        assert!(rendered.contains("covered"), "{rendered}");
        assert!(rendered.contains("100.0%"), "{rendered}");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let p = percentiles(&mut samples);
        assert_eq!(p.p50, Duration::from_micros(50));
        assert_eq!(p.p95, Duration::from_micros(95));
        assert_eq!(p.max, Duration::from_micros(100));
        assert_eq!(percentiles(&mut Vec::new()), Percentiles::default());
    }
}

//! The live telemetry plane: periodic per-rank stat frames.
//!
//! Journals ([`crate::journal`]) are post-mortem — nothing is visible
//! until a rank flushes and the merger runs. This module adds the *live*
//! counterpart: each rank aggregates its trace spans into a periodic,
//! schema-versioned [`StatFrame`] (current phase, compute/wait/overlap
//! micros, per-peer traffic, checkpoint epoch, engine, queue depth) and
//! publishes it without ever stalling compute:
//!
//! * frames are appended to a per-rank spool file
//!   (`telemetry-rank-<r>.jsonl`) next to the journals, flushed per
//!   frame so `acfc top DIR` can poll a *running* job;
//! * frames are offered to the transport
//!   ([`crate::Transport::publish_telemetry`]) — over TCP they
//!   piggyback on the heartbeat framing with `try_send` drop-on-full
//!   semantics, in-process they land in a shared per-rank slot;
//! * the in-memory [`TelemetryBus`] is bounded with **drop-oldest**
//!   backpressure and a dropped-frame counter, so a slow (or absent)
//!   consumer costs a counter increment, never a stall.
//!
//! The frame codec is a single JSON line (the journal's format family),
//! so spool files, wire frames, and the bus all speak the same bytes.

use crate::rollup::{classify, Activity};
use crate::trace::EventKind;
use parking_lot::Mutex;
use serde::json::{self, Value};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Version stamped into every stat frame; bump on any field change.
/// Readers skip fields they don't know and tolerate newer versions
/// (forward-compat mirrors the journal parser's lenient mode).
pub const TELEMETRY_SCHEMA: i64 = 1;

/// Default publish interval: frequent enough that `acfc top` feels
/// live, rare enough that aggregation cost is noise next to a solver
/// iteration.
pub const DEFAULT_TELEMETRY_INTERVAL: Duration = Duration::from_millis(100);

/// Default [`TelemetryBus`] capacity (frames retained for a consumer).
pub const DEFAULT_BUS_CAPACITY: usize = 64;

/// Traffic this rank has exchanged with one peer, cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerTraffic {
    /// Peer rank.
    pub peer: usize,
    /// Messages sent to the peer.
    pub msgs: u64,
    /// Wire bytes sent to the peer.
    pub bytes: u64,
}

/// One periodic per-rank telemetry frame. All counters are cumulative
/// since the rank's epoch, so a consumer that misses frames (drop-oldest
/// is allowed to discard any prefix) still reads correct totals.
#[derive(Debug, Clone, PartialEq)]
pub struct StatFrame {
    /// Frame schema version ([`TELEMETRY_SCHEMA`] at write time).
    pub schema: i64,
    /// The rank this frame describes.
    pub rank: usize,
    /// Monotonic frame number per rank (gaps = frames dropped).
    pub seq: u64,
    /// Milliseconds since the rank's trace epoch at frame time.
    pub at_ms: u64,
    /// Phase the rank was executing when the frame was cut.
    pub phase: String,
    /// Cumulative compute-span microseconds.
    pub compute_us: u64,
    /// Cumulative blocked (receive + barrier) microseconds.
    pub wait_us: u64,
    /// Cumulative overlapped-compute microseconds.
    pub overlap_us: u64,
    /// Cumulative send/reduce busy microseconds.
    pub comm_us: u64,
    /// Per-peer cumulative send traffic, sorted by peer.
    pub peers: Vec<PeerTraffic>,
    /// Last checkpoint epoch the rank completed (0 = none yet).
    pub checkpoint_epoch: u64,
    /// Engine executing the run (`"tree"` or `"kernel"`).
    pub engine: String,
    /// Frames queued in the rank's bus when this one was cut.
    pub queue_depth: u64,
    /// Frames the transport refused so far (wire drop-on-full). Bus
    /// drop-oldest evictions are *not* counted here: counters are
    /// cumulative, so the newest retained frame subsumes an evicted one
    /// — eviction with no consumer is retention policy, not loss.
    pub dropped: u64,
}

impl StatFrame {
    /// Total busy microseconds (compute + overlap + comm).
    pub fn busy_us(&self) -> u64 {
        self.compute_us + self.overlap_us + self.comm_us
    }

    /// Fraction of the rank's traced time spent waiting: wait over
    /// (busy + wait), 0–1. `None` before the rank has done anything.
    pub fn wait_share(&self) -> Option<f64> {
        let total = self.busy_us() + self.wait_us;
        if total == 0 {
            return None;
        }
        Some(self.wait_us as f64 / total as f64)
    }
}

/// Encode a frame as one JSON line (no trailing newline).
pub fn encode_stat_frame(f: &StatFrame) -> String {
    let peers = f
        .peers
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("peer", Value::Int(p.peer as i128)),
                ("msgs", Value::Int(p.msgs as i128)),
                ("bytes", Value::Int(p.bytes as i128)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("type", Value::Str("stat".into())),
        ("schema", Value::Int(f.schema as i128)),
        ("rank", Value::Int(f.rank as i128)),
        ("seq", Value::Int(f.seq as i128)),
        ("at_ms", Value::Int(f.at_ms as i128)),
        ("phase", Value::Str(f.phase.clone())),
        ("compute_us", Value::Int(f.compute_us as i128)),
        ("wait_us", Value::Int(f.wait_us as i128)),
        ("overlap_us", Value::Int(f.overlap_us as i128)),
        ("comm_us", Value::Int(f.comm_us as i128)),
        ("peers", Value::Arr(peers)),
        ("checkpoint_epoch", Value::Int(f.checkpoint_epoch as i128)),
        ("engine", Value::Str(f.engine.clone())),
        ("queue_depth", Value::Int(f.queue_depth as i128)),
        ("dropped", Value::Int(f.dropped as i128)),
    ])
    .to_string()
}

fn int_of(v: &Value, key: &str) -> Result<i128, String> {
    v.get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("stat frame: missing or non-integer `{key}`"))
}

fn str_of(v: &Value, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("stat frame: missing or non-string `{key}`"))?
        .to_string())
}

/// Decode a frame from one JSON line. Unknown extra fields are ignored
/// and newer schema versions are accepted (the known fields are read
/// best-effort), mirroring the journal reader's forward-compat rules.
pub fn parse_stat_frame(line: &str) -> Result<StatFrame, String> {
    let v = json::parse(line).map_err(|e| format!("stat frame: {e}"))?;
    if v.get("type").and_then(Value::as_str) != Some("stat") {
        return Err("stat frame: not a `stat` record".into());
    }
    let peers = match v.get("peers") {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|p| {
                Ok(PeerTraffic {
                    peer: int_of(p, "peer")? as usize,
                    msgs: int_of(p, "msgs")? as u64,
                    bytes: int_of(p, "bytes")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => Vec::new(),
    };
    Ok(StatFrame {
        schema: int_of(&v, "schema")? as i64,
        rank: int_of(&v, "rank")? as usize,
        seq: int_of(&v, "seq")? as u64,
        at_ms: int_of(&v, "at_ms")? as u64,
        phase: str_of(&v, "phase")?,
        compute_us: int_of(&v, "compute_us")? as u64,
        wait_us: int_of(&v, "wait_us")? as u64,
        overlap_us: int_of(&v, "overlap_us")? as u64,
        comm_us: int_of(&v, "comm_us")? as u64,
        peers,
        checkpoint_epoch: int_of(&v, "checkpoint_epoch")? as u64,
        engine: str_of(&v, "engine")?,
        queue_depth: int_of(&v, "queue_depth")? as u64,
        dropped: int_of(&v, "dropped")? as u64,
    })
}

/// The telemetry spool file for `rank` under `dir` — the file channel
/// `acfc top DIR` polls while the run is live.
pub fn spool_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("telemetry-rank-{rank}.jsonl"))
}

/// A bounded, never-blocking frame queue with drop-oldest backpressure.
///
/// Producers push from the compute path, so `push` must never wait on a
/// consumer: when the queue is full the *oldest* frame is discarded
/// (counters are cumulative, so the newest frame subsumes it) and the
/// dropped counter increments. Consumers drain at their own pace.
pub struct TelemetryBus {
    frames: Mutex<VecDeque<StatFrame>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TelemetryBus {
    /// A bus retaining at most `capacity` frames (min 1).
    pub fn new(capacity: usize) -> TelemetryBus {
        TelemetryBus {
            frames: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Queue a frame, discarding the oldest one when full. Never blocks
    /// beyond the queue mutex (held only for the push itself).
    pub fn push(&self, frame: StatFrame) {
        let mut q = self.frames.lock();
        if q.len() >= self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(frame);
    }

    /// Take every queued frame, oldest first.
    pub fn drain(&self) -> Vec<StatFrame> {
        self.frames.lock().drain(..).collect()
    }

    /// The newest queued frame, if any (leaves the queue untouched).
    pub fn latest(&self) -> Option<StatFrame> {
        self.frames.lock().back().cloned()
    }

    /// Frames currently queued.
    pub fn depth(&self) -> usize {
        self.frames.lock().len()
    }

    /// Frames discarded by drop-oldest so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// How a rank publishes telemetry; see [`TelemetrySink::new`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Minimum gap between published frames.
    pub interval: Duration,
    /// Spool file directory (`telemetry-rank-<r>.jsonl` is created in
    /// it); `None` keeps frames in the bus / on the wire only.
    pub spool_dir: Option<PathBuf>,
    /// Engine label stamped into frames (`"tree"` or `"kernel"`).
    pub engine: String,
    /// Bus capacity.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: DEFAULT_TELEMETRY_INTERVAL,
            spool_dir: None,
            engine: "tree".into(),
            capacity: DEFAULT_BUS_CAPACITY,
        }
    }
}

/// One rank's live aggregation state: running span totals updated from
/// the communicator's record path, cut into a [`StatFrame`] at most once
/// per interval. All hot-path updates are relaxed atomics; the spool
/// file and per-peer map are touched only at publish time or send time
/// (a `BTreeMap` insert behind a mutex, amortized microseconds).
pub struct TelemetrySink {
    config: TelemetryConfig,
    bus: TelemetryBus,
    compute_us: AtomicU64,
    wait_us: AtomicU64,
    overlap_us: AtomicU64,
    comm_us: AtomicU64,
    per_peer: Mutex<std::collections::BTreeMap<usize, (u64, u64)>>,
    checkpoint_epoch: AtomicU64,
    frame_seq: AtomicU64,
    /// Extra drops beyond the bus (wire-side try_send failures).
    wire_dropped: AtomicU64,
    last_publish: Mutex<Option<Instant>>,
    spool: Mutex<Option<std::fs::File>>,
}

impl TelemetrySink {
    /// A sink for one rank with the given publication config.
    pub fn new(config: TelemetryConfig) -> TelemetrySink {
        let capacity = config.capacity;
        TelemetrySink {
            config,
            bus: TelemetryBus::new(capacity),
            compute_us: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
            overlap_us: AtomicU64::new(0),
            comm_us: AtomicU64::new(0),
            per_peer: Mutex::new(std::collections::BTreeMap::new()),
            checkpoint_epoch: AtomicU64::new(0),
            frame_seq: AtomicU64::new(0),
            wire_dropped: AtomicU64::new(0),
            last_publish: Mutex::new(None),
            spool: Mutex::new(None),
        }
    }

    /// The sink's bounded frame queue.
    pub fn bus(&self) -> &TelemetryBus {
        &self.bus
    }

    /// Add one span of `kind` to the counter its [`classify`] activity
    /// names (overlap spans go to `overlap_us` only; the frame's
    /// `compute_us` excludes them).
    pub fn add(&self, kind: EventKind, span: Duration) {
        let counter = match classify(kind).activity {
            Activity::Compute => &self.compute_us,
            Activity::Overlap => &self.overlap_us,
            Activity::Comm => &self.comm_us,
            Activity::Wait => &self.wait_us,
        };
        counter.fetch_add(span.as_micros() as u64, Ordering::Relaxed);
    }

    /// Account one message of `bytes` sent to `peer`.
    pub fn add_send(&self, peer: usize, bytes: usize) {
        let mut map = self.per_peer.lock();
        let e = map.entry(peer).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Record that checkpoint `epoch` completed.
    pub fn note_checkpoint(&self, epoch: u64) {
        self.checkpoint_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Count a frame the wire refused (queue full): the compute path
    /// moved on, the observer sees the gap in the dropped counter.
    pub fn note_wire_drop(&self) {
        self.wire_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Frames the wire refused so far. Bus drop-oldest evictions are
    /// deliberately excluded (see [`StatFrame::dropped`]); read them
    /// from [`TelemetrySink::bus`] when tuning consumer pace.
    pub fn dropped(&self) -> u64 {
        self.wire_dropped.load(Ordering::Relaxed)
    }

    /// Whether the publish interval has elapsed since the last frame.
    /// Cheap enough for the record hot path (one mutex try-lock; a
    /// contended lock means someone else is publishing — skip).
    pub fn due(&self) -> bool {
        match self.last_publish.try_lock() {
            Some(last) => match *last {
                Some(t) => t.elapsed() >= self.config.interval,
                None => true,
            },
            None => false,
        }
    }

    /// Cut a frame from the current counters and publish it: queue on
    /// the bus, append to the spool file (if configured). Returns the
    /// frame so the caller can also offer it to the transport. `rank`
    /// and `phase` come from the communicator; `at` is time since its
    /// epoch.
    pub fn publish(&self, rank: usize, phase: &str, at: Duration) -> StatFrame {
        {
            let mut last = self.last_publish.lock();
            *last = Some(Instant::now());
        }
        let peers = self
            .per_peer
            .lock()
            .iter()
            .map(|(&peer, &(msgs, bytes))| PeerTraffic { peer, msgs, bytes })
            .collect();
        let frame = StatFrame {
            schema: TELEMETRY_SCHEMA,
            rank,
            seq: self.frame_seq.fetch_add(1, Ordering::Relaxed),
            at_ms: at.as_millis() as u64,
            phase: phase.to_string(),
            compute_us: self.compute_us.load(Ordering::Relaxed),
            wait_us: self.wait_us.load(Ordering::Relaxed),
            overlap_us: self.overlap_us.load(Ordering::Relaxed),
            comm_us: self.comm_us.load(Ordering::Relaxed),
            peers,
            checkpoint_epoch: self.checkpoint_epoch.load(Ordering::Relaxed),
            engine: self.config.engine.clone(),
            queue_depth: self.bus.depth() as u64,
            dropped: self.dropped(),
        };
        self.bus.push(frame.clone());
        self.spool_append(&frame);
        frame
    }

    fn spool_append(&self, frame: &StatFrame) {
        let Some(dir) = self.config.spool_dir.as_deref() else {
            return;
        };
        let mut spool = self.spool.lock();
        if spool.is_none() {
            let _ = std::fs::create_dir_all(dir);
            *spool = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(spool_path(dir, frame.rank))
                .ok();
        }
        if let Some(f) = spool.as_mut() {
            // spool I/O failures must never take the run down: the
            // telemetry plane degrades, the solver does not
            let _ = writeln!(f, "{}", encode_stat_frame(frame));
            let _ = f.flush();
        }
    }
}

/// Read every frame from a rank's spool file, skipping unparsable lines
/// (a live writer may be mid-line); returns frames plus the skip count.
pub fn read_spool(path: &Path) -> std::io::Result<(Vec<StatFrame>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut frames = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_stat_frame(line) {
            Ok(f) => frames.push(f),
            Err(_) => skipped += 1,
        }
    }
    Ok((frames, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(rank: usize, seq: u64) -> StatFrame {
        StatFrame {
            schema: TELEMETRY_SCHEMA,
            rank,
            seq,
            at_ms: 1234,
            phase: "sync_0".into(),
            compute_us: 500,
            wait_us: 100,
            overlap_us: 40,
            comm_us: 7,
            peers: vec![
                PeerTraffic {
                    peer: 1,
                    msgs: 3,
                    bytes: 96,
                },
                PeerTraffic {
                    peer: 2,
                    msgs: 1,
                    bytes: 8,
                },
            ],
            checkpoint_epoch: 2,
            engine: "kernel".into(),
            queue_depth: 1,
            dropped: 0,
        }
    }

    #[test]
    fn codec_round_trips() {
        let f = frame(3, 17);
        let line = encode_stat_frame(&f);
        assert_eq!(parse_stat_frame(&line).unwrap(), f);
    }

    #[test]
    fn parser_ignores_unknown_fields_and_newer_schema() {
        let mut f = frame(0, 0);
        f.schema = TELEMETRY_SCHEMA + 5;
        let line = encode_stat_frame(&f);
        // splice an extra field a future schema might add
        let future = line.replacen("{", "{\"future_field\": 42, ", 1);
        let got = parse_stat_frame(&future).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn parser_rejects_non_stat_records() {
        assert!(parse_stat_frame("{\"type\":\"event\"}").is_err());
        assert!(parse_stat_frame("not json").is_err());
    }

    #[test]
    fn bus_drops_oldest_and_counts() {
        let bus = TelemetryBus::new(2);
        bus.push(frame(0, 0));
        bus.push(frame(0, 1));
        assert_eq!(bus.dropped(), 0);
        bus.push(frame(0, 2));
        assert_eq!(bus.dropped(), 1);
        assert_eq!(bus.depth(), 2);
        assert_eq!(bus.latest().unwrap().seq, 2);
        let drained: Vec<u64> = bus.drain().iter().map(|f| f.seq).collect();
        assert_eq!(drained, vec![1, 2], "oldest frame was the one dropped");
        assert_eq!(bus.depth(), 0);
    }

    #[test]
    fn sink_publishes_cumulative_counters_and_spools() {
        let dir = std::env::temp_dir().join(format!("acf-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = TelemetrySink::new(TelemetryConfig {
            interval: Duration::ZERO,
            spool_dir: Some(dir.clone()),
            engine: "tree".into(),
            capacity: 8,
        });
        sink.add(EventKind::Compute, Duration::from_micros(300));
        sink.add(EventKind::Barrier, Duration::from_micros(50));
        sink.add_send(1, 64);
        sink.add_send(1, 64);
        sink.note_checkpoint(4);
        let f1 = sink.publish(0, "main", Duration::from_millis(10));
        sink.add(EventKind::Compute, Duration::from_micros(200));
        let f2 = sink.publish(0, "sync_0", Duration::from_millis(20));
        assert_eq!(f1.compute_us, 300);
        assert_eq!(f2.compute_us, 500, "counters are cumulative");
        assert_eq!(f2.seq, f1.seq + 1);
        assert_eq!(f2.checkpoint_epoch, 4);
        assert_eq!(
            f2.peers,
            vec![PeerTraffic {
                peer: 1,
                msgs: 2,
                bytes: 128
            }]
        );
        let (frames, skipped) = read_spool(&spool_path(&dir, 0)).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(frames, vec![f1, f2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_gates_publication() {
        let sink = TelemetrySink::new(TelemetryConfig {
            interval: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        });
        assert!(sink.due(), "first frame is always due");
        sink.publish(0, "main", Duration::ZERO);
        assert!(!sink.due(), "next frame waits out the interval");
    }

    #[test]
    fn wait_share_and_busy() {
        let mut f = frame(0, 0);
        f.compute_us = 600;
        f.overlap_us = 100;
        f.comm_us = 100;
        f.wait_us = 200;
        assert_eq!(f.busy_us(), 800);
        assert!((f.wait_share().unwrap() - 0.2).abs() < 1e-12);
        f.compute_us = 0;
        f.overlap_us = 0;
        f.comm_us = 0;
        f.wait_us = 0;
        assert_eq!(f.wait_share(), None);
    }

    #[test]
    fn read_spool_skips_partial_lines() {
        let dir = std::env::temp_dir().join(format!("acf-telem-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = spool_path(&dir, 1);
        let good = encode_stat_frame(&frame(1, 0));
        std::fs::write(&path, format!("{good}\n{{\"type\":\"stat\",\"ra")).unwrap();
        let (frames, skipped) = read_spool(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_frame() -> impl Strategy<Value = StatFrame> {
        (
            (0usize..64, 0u64..1_000_000, 0u64..u32::MAX as u64),
            (0usize..4).prop_map(|i| ["", "main", "sync_0", "reduce_res"][i].to_string()),
            (0u64..u32::MAX as u64, 0u64..u32::MAX as u64),
            (0u64..u32::MAX as u64, 0u64..u32::MAX as u64),
            proptest::collection::vec((0usize..64, 0u64..1_000_000, 0u64..u32::MAX as u64), 0..6),
            ((0u64..1_000, 0u64..64, 0u64..1_000), proptest::bool::ANY),
        )
            .prop_map(
                |((rank, seq, at_ms), phase, (c, w), (o, m), peers, ((ck, qd, dr), kernel))| {
                    StatFrame {
                        schema: TELEMETRY_SCHEMA,
                        rank,
                        seq,
                        at_ms,
                        phase,
                        compute_us: c,
                        wait_us: w,
                        overlap_us: o,
                        comm_us: m,
                        peers: peers
                            .into_iter()
                            .map(|(peer, msgs, bytes)| PeerTraffic { peer, msgs, bytes })
                            .collect(),
                        checkpoint_epoch: ck,
                        queue_depth: qd,
                        dropped: dr,
                        engine: if kernel {
                            "kernel".into()
                        } else {
                            "tree".into()
                        },
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// encode → parse is the identity for every frame shape.
        #[test]
        fn stat_frame_codec_round_trips(frame in arb_frame()) {
            let line = encode_stat_frame(&frame);
            prop_assert!(!line.contains('\n'), "one frame = one line");
            let got = parse_stat_frame(&line).expect("own encoding parses");
            prop_assert_eq!(got, frame);
        }
    }
}

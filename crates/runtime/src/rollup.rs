//! The one span rollup: every trace consumer's view of where time went.
//!
//! [`classify`] is the single place an [`EventKind`] is mapped to an
//! accounting [`Activity`]; [`Rollup::new`] folds a run's per-rank
//! traces once into a phase × rank grid of [`Cell`]s plus each rank's
//! traced extent and the per-phase span percentiles. The wire table,
//! the phase-metrics and rank tables, the forecast cross-validation,
//! the advisor's diagnosis and the live [`crate::TelemetrySink`] all
//! read this one classification, so they cannot disagree on what
//! counts as compute, communication, or waiting.
//!
//! | kind      | activity | adds to           | message | rendezvous |
//! |-----------|----------|-------------------|---------|------------|
//! | `compute` | compute  | compute           | no      | no         |
//! | `overlap` | overlap  | compute + overlap | no      | no         |
//! | `send`    | comm     | comm              | yes     | no         |
//! | `reduce`  | comm     | comm              | yes     | yes        |
//! | `recv`    | wait     | wait              | yes     | yes        |
//! | `barrier` | wait     | wait              | no      | yes        |
//!
//! Wire bytes are summed over every event. Phases are ordered by rank
//! 0's phase table, then names first seen on later ranks' tables; an
//! event whose phase index lies outside its rank's table is filed
//! under `phase_<index>`, appended when first seen.

use crate::export::{percentiles, Percentiles};
use crate::journal::MergedTrace;
use crate::trace::{EventKind, TraceEvent};
use std::iter::Sum;
use std::time::Duration;

/// Where a span's time is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Local work outside the communicator.
    Compute,
    /// Interior work done while halo exchanges were in flight: counts
    /// as compute *and* as communication latency hidden.
    Overlap,
    /// Send / reduce busy time: communication proper.
    Comm,
    /// Blocked time: receive and barrier waits.
    Wait,
}

/// How one event kind is accounted (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    /// The activity the span's time belongs to.
    pub activity: Activity,
    /// Whether the event is one message (send, receive, reduce).
    pub message: bool,
    /// Whether the event cannot complete before its peers arrive
    /// (receive, barrier, reduce) — a cross-rank alignment marker. A
    /// buffered send completes at once and is no rendezvous.
    pub rendezvous: bool,
}

/// The span classification every trace consumer shares.
pub fn classify(kind: EventKind) -> Class {
    let (activity, message, rendezvous) = match kind {
        EventKind::Compute => (Activity::Compute, false, false),
        EventKind::Overlap => (Activity::Overlap, false, false),
        EventKind::Send => (Activity::Comm, true, false),
        EventKind::Reduce => (Activity::Comm, true, true),
        EventKind::Recv => (Activity::Wait, true, true),
        EventKind::Barrier => (Activity::Wait, false, true),
    };
    Class {
        activity,
        message,
        rendezvous,
    }
}

/// One phase × rank accumulation (or a sum of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Compute and overlap span time (overlap is work).
    pub compute: Duration,
    /// Overlap span time: comm latency hidden behind compute.
    pub overlap: Duration,
    /// Send / reduce span time.
    pub comm: Duration,
    /// Receive / barrier span time.
    pub wait: Duration,
    /// Traced events of every kind.
    pub events: u64,
    /// Comm- and wait-class events; a phase with any shows in the wire
    /// table even when it moved no bytes.
    pub wire_events: u64,
    /// Messages: sends + receives + reduces.
    pub msgs: u64,
    /// Wire bytes, both directions.
    pub bytes: u64,
}

impl Cell {
    fn add(&mut self, e: &TraceEvent, class: Class) {
        let span = e.span();
        self.events += 1;
        self.msgs += u64::from(class.message);
        self.bytes += e.bytes as u64;
        match class.activity {
            Activity::Compute => self.compute += span,
            Activity::Overlap => {
                self.compute += span;
                self.overlap += span;
            }
            Activity::Comm => self.comm += span,
            Activity::Wait => self.wait += span,
        }
        if matches!(class.activity, Activity::Comm | Activity::Wait) {
            self.wire_events += 1;
        }
    }

    /// Busy time: compute + comm + wait (overlap is inside compute).
    pub fn busy(&self) -> Duration {
        self.compute + self.comm + self.wait
    }

    /// Share of comm latency left exposed, in percent:
    /// `wait / (wait + overlap)`. `None` with neither wait nor overlap.
    pub fn exposed_pct(&self) -> Option<f64> {
        let wait = self.wait.as_secs_f64();
        let hidden = self.overlap.as_secs_f64();
        if wait + hidden == 0.0 {
            return None;
        }
        Some(100.0 * wait / (wait + hidden))
    }
}

impl<'a> Sum<&'a Cell> for Cell {
    fn sum<I: Iterator<Item = &'a Cell>>(cells: I) -> Cell {
        let mut t = Cell::default();
        for c in cells {
            t.compute += c.compute;
            t.overlap += c.overlap;
            t.comm += c.comm;
            t.wait += c.wait;
            t.events += c.events;
            t.wire_events += c.wire_events;
            t.msgs += c.msgs;
            t.bytes += c.bytes;
        }
        t
    }
}

/// Compute skew over per-rank compute totals: max over mean, and the
/// rank holding the max (the last one on ties). `None` with no compute.
fn skew(compute: &[Duration]) -> Option<(f64, usize)> {
    let total: Duration = compute.iter().sum();
    if total.is_zero() {
        return None;
    }
    let mean = total.as_secs_f64() / compute.len() as f64;
    let max = compute
        .iter()
        .map(Duration::as_secs_f64)
        .fold(0.0, f64::max);
    let straggler = compute.iter().enumerate().max_by_key(|(_, c)| **c)?.0;
    Some((max / mean, straggler))
}

/// One phase's row of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name.
    pub name: String,
    /// Per-rank cells, index = rank.
    pub ranks: Vec<Cell>,
    /// Distribution of the phase's individual compute/overlap spans.
    pub compute_spans: Percentiles,
    /// Distribution of the phase's individual receive/barrier waits.
    pub wait_spans: Percentiles,
}

impl PhaseRow {
    /// The phase summed over ranks.
    pub fn total(&self) -> Cell {
        self.ranks.iter().sum()
    }

    /// Compute time per rank.
    pub fn compute(&self) -> Vec<Duration> {
        self.ranks.iter().map(|c| c.compute).collect()
    }

    /// Per-rank compute skew (max over mean); `None` with no compute.
    pub fn imbalance(&self) -> Option<f64> {
        skew(&self.compute()).map(|s| s.0)
    }

    /// The rank with the most compute; `None` with no compute.
    pub fn straggler(&self) -> Option<usize> {
        skew(&self.compute()).map(|s| s.1)
    }

    /// The slowest rank's busy time — this phase's contribution to the
    /// phase-ordered critical path.
    pub fn critical_busy(&self) -> Duration {
        self.ranks.iter().map(Cell::busy).max().unwrap_or_default()
    }

    /// p50 and p95 of the per-rank busy times (nearest rank).
    pub fn busy_percentiles(&self) -> (Duration, Duration) {
        let mut busy: Vec<Duration> = self.ranks.iter().map(Cell::busy).collect();
        let p = percentiles(&mut busy);
        (p.p50, p.p95)
    }

    /// Whether the phase moved messages or waited (a sync or reduce
    /// phase rather than pure compute).
    pub fn is_comm(&self) -> bool {
        let t = self.total();
        t.msgs > 0 || !t.wait.is_zero()
    }
}

/// A run's traces folded once into a phase × rank grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollup {
    /// Phases in the module's documented order.
    pub phases: Vec<PhaseRow>,
    /// Per rank: first event start and last event end; `None` for a
    /// rank with no events.
    extents: Vec<Option<(Duration, Duration)>>,
}

impl Rollup {
    /// Fold `traces[r]`, whose phase indices point into
    /// `phase_names[r]`, into the grid.
    pub fn new(traces: &[Vec<TraceEvent>], phase_names: &[Vec<String>]) -> Rollup {
        let ranks = traces.len();
        let mut names: Vec<String> = Vec::new();
        for name in phase_names.iter().flatten() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        let mut cells = vec![vec![Cell::default(); ranks]; names.len()];
        let mut compute_spans = vec![Vec::new(); names.len()];
        let mut wait_spans = vec![Vec::new(); names.len()];
        let mut extents = Vec::with_capacity(ranks);
        for (rank, trace) in traces.iter().enumerate() {
            let table = phase_names.get(rank).map(Vec::as_slice).unwrap_or(&[]);
            // rank-local phase index → row
            let mut rows: Vec<Option<usize>> = table
                .iter()
                .map(|n| names.iter().position(|m| m == n))
                .collect();
            let mut extent: Option<(Duration, Duration)> = None;
            for e in trace {
                extent = Some(match extent {
                    None => (e.start, e.end),
                    Some((s, t)) => (s.min(e.start), t.max(e.end)),
                });
                let p = e.phase as usize;
                if p >= rows.len() {
                    rows.resize(p + 1, None);
                }
                let row = *rows[p].get_or_insert_with(|| {
                    let name = format!("phase_{p}");
                    names.iter().position(|m| *m == name).unwrap_or_else(|| {
                        names.push(name);
                        cells.push(vec![Cell::default(); ranks]);
                        compute_spans.push(Vec::new());
                        wait_spans.push(Vec::new());
                        names.len() - 1
                    })
                });
                let class = classify(e.kind);
                cells[row][rank].add(e, class);
                match class.activity {
                    Activity::Compute | Activity::Overlap => compute_spans[row].push(e.span()),
                    Activity::Wait => wait_spans[row].push(e.span()),
                    Activity::Comm => {}
                }
            }
            extents.push(extent);
        }
        let phases = names
            .into_iter()
            .zip(cells)
            .zip(compute_spans.iter_mut().zip(&mut wait_spans))
            .map(|((name, ranks), (c, w))| PhaseRow {
                name,
                ranks,
                compute_spans: percentiles(c),
                wait_spans: percentiles(w),
            })
            .collect();
        Rollup { phases, extents }
    }

    /// Fold a merged trace.
    pub fn of(merged: &MergedTrace) -> Rollup {
        Rollup::new(&merged.traces, &merged.phase_names)
    }

    /// Rank count.
    pub fn ranks(&self) -> usize {
        self.extents.len()
    }

    /// One rank summed over phases.
    pub fn rank(&self, rank: usize) -> Cell {
        self.phases.iter().map(|p| &p.ranks[rank]).sum()
    }

    /// The whole run summed over phases and ranks.
    pub fn total(&self) -> Cell {
        self.phases.iter().flat_map(|p| &p.ranks).sum()
    }

    /// One rank's traced wall time: first event start to last event end.
    pub fn wall(&self, rank: usize) -> Duration {
        self.extents[rank].map_or(Duration::ZERO, |(s, e)| e.saturating_sub(s))
    }

    /// Fraction of a rank's wall time its spans account for (0 for an
    /// empty trace; spans never overlap on a rank, so ≤ ~1).
    pub fn coverage(&self, rank: usize) -> f64 {
        let wall = self.wall(rank);
        if wall.is_zero() {
            return 0.0;
        }
        self.rank(rank).busy().as_secs_f64() / wall.as_secs_f64()
    }

    /// Merged makespan: latest event end minus earliest event start.
    pub fn makespan(&self) -> Duration {
        let start = self.extents.iter().flatten().map(|e| e.0).min();
        let end = self.extents.iter().flatten().map(|e| e.1).max();
        end.unwrap_or_default()
            .saturating_sub(start.unwrap_or_default())
    }

    /// Whole-run compute per rank.
    pub fn compute_per_rank(&self) -> Vec<Duration> {
        (0..self.ranks()).map(|r| self.rank(r).compute).collect()
    }

    /// Whole-run compute skew (max over mean); `1.0` with no compute.
    pub fn imbalance(&self) -> f64 {
        skew(&self.compute_per_rank()).map_or(1.0, |s| s.0)
    }

    /// The rank with the most whole-run compute, if any was recorded.
    pub fn straggler(&self) -> Option<usize> {
        skew(&self.compute_per_rank()).map(|s| s.1)
    }

    /// Sum of every phase's slowest-rank busy time — the critical path
    /// as the phase-ordered trace saw it.
    pub fn critical_path(&self) -> Duration {
        self.phases.iter().map(PhaseRow::critical_busy).sum()
    }

    /// One phase's share of the critical path, in percent.
    pub fn critical_share(&self, phase: usize) -> f64 {
        let total = self.critical_path().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        100.0 * self.phases[phase].critical_busy().as_secs_f64() / total
    }

    /// The phase with the largest critical-path contribution: its name,
    /// slowest-rank busy time, and critical-path share in percent.
    /// `None` when nothing was busy.
    pub fn hot_phase(&self) -> Option<(&str, Duration, f64)> {
        let (idx, row) = self
            .phases
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.critical_busy())?;
        let busy = row.critical_busy();
        if busy.is_zero() {
            return None;
        }
        Some((row.name.as_str(), busy, self.critical_share(idx)))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::telemetry::{TelemetryConfig, TelemetrySink};
    use proptest::prelude::*;
    use std::collections::HashMap;

    const POOL: [&str; 5] = ["main", "sync_0", "sync_1", "reduce_r", "pre_2"];

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        let kind = prop_oneof![
            Just(EventKind::Send),
            Just(EventKind::Recv),
            Just(EventKind::Barrier),
            Just(EventKind::Reduce),
            Just(EventKind::Compute),
            Just(EventKind::Overlap),
        ];
        (
            kind,
            0u64..1_000_000_000,
            0u64..5_000_000,
            0u32..7,
            0usize..10_000,
        )
            .prop_map(|(kind, start, len, phase, bytes)| TraceEvent {
                kind,
                start: Duration::from_nanos(start),
                end: Duration::from_nanos(start + len),
                peer: None,
                elems: 0,
                bytes,
                phase,
                seq: None,
            })
    }

    /// Each rank's table: distinct pool names in a random order.
    fn tables_of(picks: &[Vec<usize>]) -> Vec<Vec<String>> {
        picks
            .iter()
            .map(|p| {
                let mut t: Vec<String> = Vec::new();
                for &i in p {
                    if !t.iter().any(|n| n == POOL[i]) {
                        t.push(POOL[i].to_string());
                    }
                }
                t
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The grid adds up, phases come out in the documented order,
        /// and a telemetry sink fed the same spans agrees with each
        /// rank's class totals up to its per-event microsecond
        /// truncation.
        #[test]
        fn rollup_cells_sum_to_totals_in_documented_order(
            traces in proptest::collection::vec(
                proptest::collection::vec(arb_event(), 0..30), 1..5),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..5, 0..5), 1..5),
        ) {
            let tables = tables_of(&picks);
            let rollup = Rollup::new(&traces, &tables);
            let table = |r: usize| tables.get(r).map(Vec::as_slice).unwrap_or(&[]);

            // documented order: rank 0's table, later ranks' new names,
            // then out-of-table indices as `phase_<i>` when first seen
            let mut want: Vec<String> = Vec::new();
            for name in tables.iter().flatten() {
                if !want.contains(name) {
                    want.push(name.clone());
                }
            }
            let mut by_phase: HashMap<String, Cell> = HashMap::new();
            let mut by_rank = vec![Cell::default(); traces.len()];
            for (r, trace) in traces.iter().enumerate() {
                for e in trace {
                    let name = table(r)
                        .get(e.phase as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("phase_{}", e.phase));
                    if !want.contains(&name) {
                        want.push(name.clone());
                    }
                    by_phase.entry(name).or_default().add(e, classify(e.kind));
                    by_rank[r].add(e, classify(e.kind));
                }
            }
            let got: Vec<&String> = rollup.phases.iter().map(|p| &p.name).collect();
            prop_assert_eq!(got, want.iter().collect::<Vec<_>>());

            for p in &rollup.phases {
                prop_assert_eq!(p.ranks.len(), traces.len());
                prop_assert_eq!(p.total(), by_phase.get(&p.name).copied().unwrap_or_default());
            }
            for (r, trace) in traces.iter().enumerate() {
                prop_assert_eq!(rollup.rank(r), by_rank[r]);
                let start = trace.iter().map(|e| e.start).min().unwrap_or_default();
                let end = trace.iter().map(|e| e.end).max().unwrap_or_default();
                prop_assert_eq!(rollup.wall(r), end - start);
            }
            prop_assert_eq!(rollup.total(), by_rank.iter().sum::<Cell>());

            for (r, trace) in traces.iter().enumerate() {
                let sink = TelemetrySink::new(TelemetryConfig::default());
                for e in trace {
                    sink.add(e.kind, e.span());
                }
                let f = sink.publish(r, "", Duration::ZERO);
                let t = rollup.rank(r);
                let slack = trace.len() as u128 * 1_000;
                for (us, d) in [
                    (f.compute_us, t.compute - t.overlap),
                    (f.overlap_us, t.overlap),
                    (f.comm_us, t.comm),
                    (f.wait_us, t.wait),
                ] {
                    let ns = d.as_nanos();
                    let sink_ns = u128::from(us) * 1_000;
                    prop_assert!(sink_ns <= ns && ns - sink_ns <= slack, "{us} µs vs {d:?}");
                }
            }
        }
    }
}

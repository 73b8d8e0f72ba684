//! Parallel solves: one verified solve over a 2-rank mesh, the 1-rank
//! baseline, the elastic resume, and the per-rank compute/wait split
//! folded from the trace events every rank already returns.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use autocfd::interp::{
    repartition, verify_owned_regions, CheckpointOpts, Frame, Machine, RankResult, RankRun,
};
use autocfd::runtime::checkpoint::{load_epoch, write_snapshot};
use autocfd::runtime::trace::EventKind;
use autocfd::runtime::{run_spmd_with_timeout, Comm, TelemetryConfig};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::Compiled;

use crate::stats::Spans;

/// Receive timeout on every mesh: a hung peer becomes a counted failure
/// well inside the run's time limit.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Checkpoint cadence: every 2nd checkpoint-safe sync.
pub const CHECKPOINT_EVERY: u64 = 2;

/// How ranks talk.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Channels between rank threads of this process.
    Inproc,
    /// Real loopback sockets between rank threads (`run_spmd_tcp`).
    Tcp,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Inproc => "inproc",
            Wire::Tcp => "tcp",
        }
    }
}

/// What one rank hands back from a solve.
struct RankOut {
    start: Instant,
    end: Instant,
    run: RankRun,
    msgs: u64,
    reduces: u64,
    bytes: u64,
}

/// One finished parallel solve.
pub struct Solve {
    /// Wall time from the common start to the last rank's end.
    pub wall_s: f64,
    runs: Vec<RankRun>,
    msgs: u64,
    reduces: u64,
    bytes: u64,
}

/// Run `n` ranks over `wire`, each calling `f` with its communicator.
fn mesh<T: Send>(wire: Wire, n: usize, f: impl Fn(Comm) -> T + Sync) -> Result<Vec<T>, String> {
    match wire {
        Wire::Inproc => Ok(run_spmd_with_timeout(n, RECV_TIMEOUT, f)),
        Wire::Tcp => run_spmd_tcp(n, RECV_TIMEOUT, f).map_err(|e| format!("tcp mesh: {e}")),
    }
}

/// Join a bare `n`-rank TCP mesh and tear it down: the mesh set-up a
/// TCP run pays before its first message.
pub fn mesh_join(n: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    mesh(Wire::Tcp, n, |_comm| ())?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Solve `c`'s plan on a fresh mesh. Ranks pass a barrier first, so the
/// timed window starts on a joined mesh. With `checkpoint_dir`, snapshots
/// are written every [`CHECKPOINT_EVERY`]th checkpoint-safe sync; with
/// `observe_dir`, the run's own telemetry spool and per-rank journals
/// are written there (journal writes are inside the timed window).
pub fn solve(
    c: &Compiled,
    wire: Wire,
    checkpoint_dir: Option<&Path>,
    observe_dir: Option<&Path>,
) -> Result<Solve, String> {
    let n = c.spmd_plan.ranks() as usize;
    let outs = mesh(wire, n, |comm| -> Result<RankOut, String> {
        comm.barrier().map_err(|e| e.to_string())?;
        let _ = comm.take_trace();
        let (m0, _, _, r0) = comm.stats().snapshot();
        let b0 = comm.wire_stats().bytes_sent;
        let start = Instant::now();
        let mut cfg = c.run_config();
        if let Some(dir) = checkpoint_dir {
            cfg = cfg.checkpoint(CheckpointOpts {
                every: CHECKPOINT_EVERY,
                dir: dir.to_path_buf(),
                chaos_abort_after: None,
            });
        }
        if let Some(dir) = observe_dir {
            cfg = cfg.telemetry(TelemetryConfig {
                spool_dir: Some(dir.to_path_buf()),
                ..TelemetryConfig::default()
            });
        }
        let run = cfg.run_rank_traced(&comm);
        if let Some(dir) = observe_dir {
            autocfd::obs::write_rank_run(dir, wire.name(), comm.rank(), n, &run)?;
        }
        let end = Instant::now();
        let (m1, _, _, r1) = run.comm_stats;
        Ok(RankOut {
            start,
            end,
            msgs: m1 - m0,
            reduces: r1 - r0,
            bytes: run.wire_stats.bytes_sent - b0,
            run,
        })
    })?;
    let outs: Vec<RankOut> = outs.into_iter().collect::<Result<_, _>>()?;
    let start = outs.iter().map(|o| o.start).min().expect("ranks");
    let end = outs.iter().map(|o| o.end).max().expect("ranks");
    Ok(Solve {
        wall_s: end.duration_since(start).as_secs_f64(),
        msgs: outs.iter().map(|o| o.msgs).sum(),
        // an allreduce is collective: count it once, as rank 0 saw it
        reduces: outs[0].reduces,
        bytes: outs.iter().map(|o| o.bytes).sum(),
        runs: outs.into_iter().map(|o| o.run).collect(),
    })
}

/// Check every rank's owned region against the sequential reference at
/// tolerance 0.
pub fn verify(
    reference: &(Machine, Frame),
    runs: Vec<RankRun>,
    c: &Compiled,
) -> Result<(), String> {
    let results = runs
        .into_iter()
        .enumerate()
        .map(|(r, run)| {
            let (machine, frame) = run.outcome.map_err(|e| format!("rank {r}: {e}"))?;
            Ok(RankResult {
                machine,
                frame,
                comm_stats: run.comm_stats,
                wire_stats: run.wire_stats,
                phases: run.phases,
                trace: run.trace,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    verify_owned_regions(reference, &results, &c.spmd_plan, 0.0).map(|_| ())
}

impl Solve {
    /// Verify this solve's fields; see [`verify`].
    pub fn verify(self, reference: &(Machine, Frame), c: &Compiled) -> Result<(), String> {
        verify(reference, self.runs, c)
    }

    /// The per-rank compute/wait split of this solve.
    pub fn fold(&self) -> Fold {
        let mut busy = Vec::new();
        let mut compute = Vec::new();
        let (mut recv_wait, mut reduce_wait) = (0.0, 0.0);
        let (mut recvs, mut reduces) = (0usize, 0usize);
        for run in &self.runs {
            let (mut c, mut b) = (0.0, 0.0);
            for ev in &run.trace {
                let span = ev.span().as_secs_f64();
                match ev.kind {
                    EventKind::Compute => {
                        c += span;
                        b += span;
                    }
                    EventKind::Overlap => b += span,
                    EventKind::Recv => {
                        recv_wait += ev.wait().as_secs_f64();
                        recvs += 1;
                    }
                    EventKind::Reduce => {
                        reduce_wait += ev.wait().as_secs_f64();
                        reduces += 1;
                    }
                    EventKind::Send | EventKind::Barrier => {}
                }
            }
            compute.push(c);
            busy.push(b);
        }
        let ranks = self.runs.len() as f64;
        let busiest = (0..busy.len())
            .max_by(|&a, &b| busy[a].total_cmp(&busy[b]))
            .unwrap_or(0);
        let mean_busy = busy.iter().sum::<f64>() / ranks;
        Fold {
            compute_s: compute[busiest],
            compute_share: compute[busiest] / self.wall_s,
            imbalance: busy[busiest] / mean_busy,
            recv_wait_s: recv_wait / ranks,
            reduce_wait_s: reduce_wait / ranks,
            wait_per_op_us: (recv_wait + reduce_wait) * 1e6 / (recvs + reduces).max(1) as f64,
            msgs: self.msgs as f64,
            bytes: self.bytes as f64,
            reduces: self.reduces as f64,
        }
    }
}

/// Where one solve's ranks spent their time.
pub struct Fold {
    /// Compute spans summed on the busiest rank.
    pub compute_s: f64,
    /// `compute_s` over the solve's wall time.
    pub compute_share: f64,
    /// Busy time of the busiest rank over the mean across ranks.
    pub imbalance: f64,
    /// Time blocked in point-to-point receives, mean per rank.
    pub recv_wait_s: f64,
    /// Time blocked in allreduces, mean per rank.
    pub reduce_wait_s: f64,
    /// Receive + allreduce wait over the number of those operations.
    pub wait_per_op_us: f64,
    /// Point-to-point messages sent, all ranks.
    pub msgs: f64,
    /// Wire bytes sent, all ranks (framing included over TCP).
    pub bytes: f64,
    /// Allreduces.
    pub reduces: f64,
}

/// Epoch numbers under a checkpoint directory, ascending.
pub fn epochs(dir: &Path) -> Vec<u64> {
    let mut v: Vec<u64> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.file_name().to_str()?.strip_prefix("epoch-")?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    v.sort_unstable();
    v
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The epochs elastic resumes load, in the order rounds use them: the
/// middle third of the run's epochs, shuffled by the seed.
pub fn resume_epochs(all: &[u64], seed: u64) -> Result<Vec<u64>, String> {
    let n = all.len();
    if n == 0 {
        return Err("the checkpointed solve wrote no epoch".into());
    }
    let (lo, hi) = (n / 3, (2 * n).div_ceil(3).max(n / 3 + 1));
    let mut middle = all[lo..hi].to_vec();
    crate::stats::Rng::new(seed).shuffle(&mut middle);
    Ok(middle)
}

/// Resume `epoch` of `dir` on `c1`'s 1-rank plan (an elastic
/// repartition when the checkpoint came from more ranks), finish the
/// solve and verify the fields. Returns the seconds from loading the
/// epoch to verified fields.
pub fn resume(
    c1: &Compiled,
    dir: &Path,
    epoch: u64,
    reference: &(Machine, Frame),
) -> Result<f64, String> {
    let t0 = Instant::now();
    let runs = mesh(Wire::Inproc, 1, |comm| {
        c1.run_config()
            .resume_from(dir)
            .resume_epoch(epoch)
            .run_rank_traced(&comm)
    })?;
    verify(reference, runs, c1)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// The checkpoint layer, timed around its public functions.
pub struct CheckpointLayer {
    pub epochs: f64,
    pub bytes: f64,
    pub load_s: f64,
    pub repartition_s: f64,
    pub encode_s: f64,
}

/// Measure the checkpoint layer on a directory a checkpointed solve
/// just wrote: load `epoch`, repartition it onto `c1`, and write it
/// again (`write_snapshot` encodes with `snapshot_to_json`) into
/// `scratch`.
pub fn checkpoint_layer(
    dir: &Path,
    epoch: u64,
    c1: &Compiled,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<CheckpointLayer, String> {
    spans.begin("checkpoint");
    let layer = checkpoint_layer_spans(dir, epoch, c1, scratch, spans);
    spans.end();
    layer
}

fn checkpoint_layer_spans(
    dir: &Path,
    epoch: u64,
    c1: &Compiled,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<CheckpointLayer, String> {
    let (snaps, load_s) = spans.time("runtime.checkpoint_load", || load_epoch(dir, epoch));
    let snaps = snaps?;
    let (re, repartition_s) = spans.time("interp.repartition", || {
        repartition(&snaps, &c1.spmd_plan, &c1.parallel_file)
    });
    re.map_err(|e| format!("repartition: {e}"))?;
    let _ = std::fs::remove_dir_all(scratch);
    let (written, encode_s) = spans.time("runtime.checkpoint_encode", || {
        snaps
            .iter()
            .try_for_each(|s| write_snapshot(scratch, s).map(|_| ()))
    });
    written.map_err(|e| format!("write_snapshot: {e}"))?;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(CheckpointLayer {
        epochs: epochs(dir).len() as f64,
        bytes: dir_bytes(dir) as f64,
        load_s,
        repartition_s,
        encode_s,
    })
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile_for;
    use autocfd_cfd_kernels::{sprayer_program, CaseParams};

    /// The oracle must count a wrong field: a clean solve verifies, and
    /// the same solve checked against a reference with one owned point
    /// perturbed by one ulp is a failure.
    #[test]
    fn perturbed_reference_field_is_counted_as_a_failure() {
        let src = sprayer_program(&CaseParams::sprayer_small());
        let c = compile_for(&src, &[2, 1]).unwrap();
        let reference = c.run_sequential(vec![]).unwrap();
        let mut tally = crate::stats::Tally::default();
        let clean = solve(&c, Wire::Inproc, None, None).unwrap();
        assert!(tally
            .record("clean", clean.verify(&reference, &c))
            .is_some());

        let mut bad = c.run_sequential(vec![]).unwrap();
        let id = c
            .spmd_plan
            .dim_axis
            .keys()
            .find_map(|a| bad.1.arrays.get(a).copied())
            .expect("a distributed array bound in the main program");
        let arr = &mut bad.0.arrays[id.0];
        let idx: Vec<i64> = arr.bounds.iter().map(|&(lo, hi)| (lo + hi) / 2).collect();
        let v = arr.get(&idx).unwrap();
        arr.set(&idx, f64::from_bits(v.to_bits() + 1)).unwrap();
        let run = solve(&c, Wire::Inproc, None, None).unwrap();
        assert!(tally.record("perturbed", run.verify(&bad, &c)).is_none());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn resume_epochs_are_the_middle_third_in_seeded_order() {
        let all: Vec<u64> = (1..=38).collect();
        let a = resume_epochs(&all, 1).unwrap();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (13..=26).collect::<Vec<u64>>());
        assert_eq!(a, resume_epochs(&all, 1).unwrap());
        assert_ne!(a, resume_epochs(&all, 2).unwrap());
        assert_eq!(resume_epochs(&[5], 3).unwrap(), vec![5]);
        assert!(resume_epochs(&[], 3).is_err());
    }
}

//! End-to-end and per-layer benchmark of the Auto-CFD pre-compiler and
//! its SPMD runtime, driven entirely through the public API of
//! `autocfd` and the crates it re-exports.
//!
//! ```text
//! cargo run --release --offline --manifest-path acfbench/Cargo.toml -- \
//!     --workload <aerofoil-inproc|sprayer-tcp|compile-paper> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints a host block and a table of its metrics, and as its
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! with `--trace 1` (a separate run) the per-layer ones. Every solve and
//! every resume is checked bit-exact against the sequential tree walk;
//! every warm compile-service answer is checked byte for byte against its
//! cold answer. A failed, timed-out or inexact operation counts in
//! `failed`.
//!
//! End-to-end metrics carry the same names on every workload; what each
//! one measures there (the workload's own name for it in parentheses):
//!
//! * `setup_s` — source text to a mesh ready to run: compile + kernel
//!   lowering (aerofoil-inproc), plus the TCP mesh join (sprayer-tcp);
//!   service bind + spawn + connect (compile-paper).
//! * `op_s` — one verified 2-rank solve (`solve_s`); one cache-miss
//!   compile round trip on compile-paper (`compile_cold_s`).
//! * `aux_s` — one verified 1-rank in-process kernel solve
//!   (aerofoil-inproc); one elastic resume onto 1 rank, from loading the
//!   epoch to verified fields, of an epoch from the middle third of the
//!   run (`resume_s`, sprayer-tcp); one cache-hit round trip
//!   (`plan_fetch_warm_s`, compile-paper).
//! * `speedup` — the 1-rank solve over the 2-rank solve;
//!   `compile_cold_s` over `plan_fetch_warm_s` on compile-paper.
//! * `peak_rss_mb` — peak resident memory of a round.
//!
//! Every figure is the median of its samples: all the rounds the run's
//! `--seconds` allow, set-ups included. The table also prints each
//! timing's sample count and highest well-sampled percentile.
//! `fail_ratio` is `failed / attempted` and is printed in the table; it
//! is 0 on a clean tree.

mod bounds;
mod pipeline;
mod solve;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use autocfd::Compiled;
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use serde::json::Value;

use pipeline::{compile_for, request, service_round, staged_compile_all, RoundTimes, Staged};
use solve::{fresh_dir, mesh_join, resume, resume_epochs, solve, Wire};
use stats::{median, Rng, Spans, Tally};

/// Set-ups before the timed rounds of a solve workload (one more runs
/// in every round), and per service round on compile-paper; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 5;
/// 1-rank solves per round of a solve workload: single-thread times
/// spread the most on a shared host, so they get the most samples.
const SERIAL_PER_ROUND: usize = 2;
/// Warm passes over every request per compile-service round.
const WARM_PASSES: usize = 5;
/// Repetitions of the staged compile in a traced run.
const STAGED_REPS: usize = 3;

/// The workloads; `BENCHMARK.json` records why each exists.
const WORKLOADS: [&str; 3] = ["aerofoil-inproc", "sprayer-tcp", "compile-paper"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and high percentile of a timing, for the table.
    detail: String,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        detail: String::new(),
    }
}

/// The median of `samples`, with their count and highest well-sampled
/// percentile shown in the table.
fn timing(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    let high = stats::high_percentile(samples)
        .map(|(p, v)| format!(" p{p}={v:.6}"))
        .unwrap_or_default();
    Metric {
        detail: format!("n={}{high}", samples.len()),
        ..m(name, median(samples), unit)
    }
}

/// What a run reports.
struct Report {
    tally: Tally,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Extra lines of the human-readable table (the workload's own names
    /// for the uniform end-to-end metrics).
    aliases: Vec<Metric>,
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/// A program solved on a 2-rank mesh.
struct Case {
    params: CaseParams,
    source: String,
    parts: Vec<u32>,
    wire: Wire,
    /// Write checkpoints during the solve and resume its middle third of
    /// epochs on 1 rank.
    checkpoint: bool,
}

impl Case {
    /// Grid points times frames: the point updates one solve performs.
    fn point_updates(&self) -> f64 {
        let p = &self.params;
        (p.ni * p.nj * p.nk.max(1) * p.frames) as f64
    }
}

fn aerofoil_inproc() -> Case {
    let params = CaseParams::aerofoil_bench();
    Case {
        source: aerofoil_program(&params),
        params,
        parts: vec![2, 1, 1],
        wire: Wire::Inproc,
        checkpoint: false,
    }
}

fn sprayer_tcp() -> Case {
    let params = CaseParams::sprayer_bench();
    Case {
        source: sprayer_program(&params),
        params,
        parts: vec![2, 1],
        wire: Wire::Tcp,
        checkpoint: true,
    }
}

/// Case study 1 at the paper's code size: width 116 gives 3,603 lines.
fn aerofoil_paper_params() -> CaseParams {
    CaseParams {
        width: 116,
        ..CaseParams::aerofoil_paper()
    }
}

/// Case study 2 at the paper's code size: width 504 gives 6,100 lines.
fn sprayer_paper_params() -> CaseParams {
    CaseParams {
        width: 504,
        ..CaseParams::sprayer_paper()
    }
}

/// compile-paper's requests: the paper-size aerofoil on the six case-1
/// partitions of Table 1 and the paper-size sprayer on the three case-2
/// partitions.
fn paper_requests() -> Vec<(String, Vec<u32>)> {
    let aerofoil = aerofoil_program(&aerofoil_paper_params());
    let sprayer = sprayer_program(&sprayer_paper_params());
    let case1: [&[u32]; 6] = [
        &[4, 1, 1],
        &[1, 4, 1],
        &[1, 1, 4],
        &[4, 4, 1],
        &[4, 1, 4],
        &[1, 4, 4],
    ];
    let case2: [&[u32]; 3] = [&[4, 1], &[1, 4], &[4, 4]];
    case1
        .iter()
        .map(|p| (aerofoil.clone(), p.to_vec()))
        .chain(case2.iter().map(|p| (sprayer.clone(), p.to_vec())))
        .collect()
}

/// The solve compile-paper's traced run measures the runtime layers on:
/// the paper-size aerofoil code on the small grid, 2 ranks in-process.
fn paper_probe() -> Case {
    let params = CaseParams {
        width: 116,
        ..CaseParams::aerofoil_small()
    };
    Case {
        source: aerofoil_program(&params),
        params,
        parts: vec![2, 1, 1],
        wire: Wire::Inproc,
        checkpoint: false,
    }
}

/// (ranks, kernel threads per rank) a workload loads the host with.
fn load_of(workload: &str) -> (usize, usize) {
    match workload {
        "compile-paper" => (1, 1),
        _ => (2, 1),
    }
}

// ---------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a round's memory measurement: hand freed heap back to the OS,
/// then reset the peak resident set to the current one. A round's peak
/// thus follows its live working set, not allocator retention or a
/// queue spike of an earlier round.
fn begin_round() {
    // SAFETY: malloc_trim only returns free pages of the C allocator.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets this process's peak RSS (Linux 4.0+); without it the
    // peak stays cumulative, which only makes the figure larger
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since [`begin_round`], in MB.
fn round_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Last-level cache size in bytes, as the C library reports it (the
/// figure `lscpu` shows): L3, else L2.
fn llc_bytes() -> i64 {
    const SC_LEVEL2_CACHE_SIZE: i32 = 191;
    const SC_LEVEL3_CACHE_SIZE: i32 = 194;
    // SAFETY: sysconf only reads a configuration value.
    let l3 = unsafe { sysconf(SC_LEVEL3_CACHE_SIZE) };
    if l3 > 0 {
        l3
    } else {
        // SAFETY: as above.
        unsafe { sysconf(SC_LEVEL2_CACHE_SIZE) }
    }
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git working tree; "unknown" otherwise.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_block(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (ranks, threads) = load_of(&args.workload);
    let llc = llc_bytes();
    Value::obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Int(args.seed.into())),
        ("nproc", Value::Int(nproc as i128)),
        ("ranks", Value::Int(ranks as i128)),
        ("threads", Value::Int(threads as i128)),
        ("ranks_x_threads", Value::Int((ranks * threads) as i128)),
        ("oversubscribed", Value::Bool(ranks * threads > nproc)),
        ("llc_bytes", Value::Int(llc.into())),
        (
            "triad_array_bytes",
            Value::Int(bounds::TRIAD_ARRAY_BYTES as i128),
        ),
        (
            "triad_arrays_exceed_4x_llc",
            Value::Bool(bounds::TRIAD_ARRAY_BYTES as i64 >= 4 * llc),
        ),
        ("commit", Value::Str(commit())),
    ])
}

// ---------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------

/// A compiled case with its 1-rank twin and the sequential reference.
struct Ready {
    c: Compiled,
    c1: Compiled,
    reference: (autocfd::interp::Machine, autocfd::interp::Frame),
}

/// One set-up, from source text to a mesh ready to run: compile, kernel
/// lowering, and for TCP a mesh join. Returns the compile and the
/// seconds it took.
fn set_up_once(case: &Case) -> Result<(Compiled, f64), String> {
    let t0 = Instant::now();
    let c = compile_for(&case.source, &case.parts)?;
    std::hint::black_box(c.run_config().build_engine());
    if case.wire == Wire::Tcp {
        mesh_join(c.spmd_plan.ranks() as usize)?;
    }
    Ok((c, t0.elapsed().as_secs_f64()))
}

/// Set the case up [`SETUP_REPS`] times (pushing each time to
/// `setup_s`), then compile the 1-rank twin and compute the reference
/// fields with the sequential tree walk, outside any timed window.
fn set_up(case: &Case, setup_s: &mut Vec<f64>) -> Result<Ready, String> {
    let mut c = None;
    for _ in 0..SETUP_REPS {
        let (compiled, t) = set_up_once(case)?;
        setup_s.push(t);
        c = Some(compiled);
    }
    let c = c.expect("SETUP_REPS > 0");
    let ones = vec![1; case.parts.len()];
    let c1 = compile_for(&case.source, &ones)?;
    let reference = c
        .run_sequential(vec![])
        .map_err(|e| format!("sequential reference: {e}"))?;
    Ok(Ready { c, c1, reference })
}

/// A solve that verified bit-exact.
struct Checked {
    wall_s: f64,
    fold: solve::Fold,
}

/// Solve `c` and verify its fields against the reference; every call
/// is one operation in `tally`.
fn checked_solve(
    r: &Ready,
    c: &Compiled,
    wire: Wire,
    ckpt: Option<&Path>,
    observe: Option<&Path>,
    tally: &mut Tally,
) -> Option<Checked> {
    let checked = solve(c, wire, ckpt, observe).and_then(|s| {
        let (wall_s, fold) = (s.wall_s, s.fold());
        s.verify(&r.reference, c).map(|()| Checked { wall_s, fold })
    });
    tally.record("solve", checked)
}

fn solve_e2e(case: &Case, args: &Args, work: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let r = set_up(case, &mut setup_s)?;
    let mut tally = Tally::default();
    let ckdir = work.join("checkpoints");
    let ckpt = case.checkpoint.then_some(ckdir.as_path());

    // a first, untimed solve warms caches and lists the epochs to resume
    if let Some(dir) = ckpt {
        fresh_dir(dir)?;
    }
    checked_solve(&r, &r.c, case.wire, ckpt, None, &mut tally);
    let resume_at = match ckpt {
        Some(dir) => resume_epochs(&solve::epochs(dir), args.seed)?,
        None => Vec::new(),
    };

    // every round: a set-up, a 2-rank solve, resumes, 1-rank solves;
    // interleaving them exposes each to the same drift of the host
    let (mut solve_s, mut serial_s, mut resume_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let t0 = Instant::now();
    let mut round = 0;
    while t0.elapsed().as_secs_f64() < args.seconds || round == 0 {
        begin_round();
        setup_s.push(set_up_once(case)?.1);
        if let Some(dir) = ckpt {
            fresh_dir(dir)?;
        }
        if let Some(s) = checked_solve(&r, &r.c, case.wire, ckpt, None, &mut tally) {
            solve_s.push(s.wall_s);
        }
        if let Some(dir) = ckpt {
            // every epoch of the middle third, in the seed's order, so
            // each weighs the same whatever the seed picks first
            for &epoch in &resume_at {
                resume_s.extend(tally.record("resume", resume(&r.c1, dir, epoch, &r.reference)));
            }
        }
        for _ in 0..SERIAL_PER_ROUND {
            if let Some(s) = checked_solve(&r, &r.c1, Wire::Inproc, None, None, &mut tally) {
                serial_s.push(s.wall_s);
            }
        }
        peaks.push(round_peak_mb());
        round += 1;
    }
    let _ = std::fs::remove_dir_all(&ckdir);

    let aux = if case.checkpoint {
        timing("aux_s", &resume_s, "s")
    } else {
        timing("aux_s", &serial_s, "s")
    };
    let mut aliases = vec![timing("solve_s", &solve_s, "s")];
    if case.checkpoint {
        aliases.push(timing("resume_s", &resume_s, "s"));
    }
    aliases.push(timing("serial_s", &serial_s, "s"));
    Ok(Report {
        metrics: vec![
            timing("setup_s", &setup_s, "s"),
            timing("op_s", &solve_s, "s"),
            aux,
            m("speedup", median(&serial_s) / median(&solve_s), "x"),
            timing("peak_rss_mb", &peaks, "MB"),
        ],
        aliases,
        tally,
    })
}

fn compile_e2e(args: &Args) -> Result<Report, String> {
    let requests: Vec<_> = paper_requests()
        .iter()
        .map(|(src, parts)| request(src, parts))
        .collect();
    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let mut times = RoundTimes::default();
    let mut peaks = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || peaks.is_empty() {
        // a failed round ends the run with an error, so this terminates
        begin_round();
        service_round(
            &requests,
            SETUP_REPS,
            WARM_PASSES,
            &mut rng,
            &mut tally,
            &mut times,
        )?;
        peaks.push(round_peak_mb());
    }
    let (cold, warm) = (median(&times.cold_s), median(&times.warm_s));
    Ok(Report {
        metrics: vec![
            timing("setup_s", &times.setup_s, "s"),
            timing("op_s", &times.cold_s, "s"),
            timing("aux_s", &times.warm_s, "s"),
            m("speedup", cold / warm, "x"),
            timing("peak_rss_mb", &peaks, "MB"),
        ],
        aliases: vec![
            timing("compile_cold_s", &times.cold_s, "s"),
            timing("plan_fetch_warm_s", &times.warm_s, "s"),
        ],
        tally,
    })
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/// Measure the checkpoint layer on the epochs a solve just wrote to
/// `dir`, then resume `epoch` on 1 rank and verify it.
fn checkpoint_round(
    r: &Ready,
    dir: &Path,
    epoch: u64,
    scratch: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
    layers: &mut Vec<solve::CheckpointLayer>,
) {
    let layer = solve::checkpoint_layer(dir, epoch, &r.c1, scratch, spans);
    layers.extend(tally.record("checkpoint layer", layer));
    let resumed = spans.time("resume", || resume(&r.c1, dir, epoch, &r.reference));
    tally.record("resume", resumed.0);
}

/// Median of one field across runs.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let (requests, case) = match args.workload.as_str() {
        "aerofoil-inproc" => {
            let c = aerofoil_inproc();
            (vec![(c.source.clone(), c.parts.clone())], c)
        }
        "sprayer-tcp" => {
            let c = sprayer_tcp();
            (vec![(c.source.clone(), c.parts.clone())], c)
        }
        _ => (paper_requests(), paper_probe()),
    };
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);

    // compile layers, one public stage at a time
    let mut staged: Vec<Staged> = Vec::new();
    for _ in 0..STAGED_REPS {
        let s = staged_compile_all(&requests, &mut spans);
        staged.extend(tally.record("staged compile", s));
    }
    // compile-service layer
    let reqs: Vec<_> = requests.iter().map(|(s, p)| request(s, p)).collect();
    let cache = service_round(
        &reqs,
        1,
        WARM_PASSES,
        &mut rng,
        &mut tally,
        &mut RoundTimes::default(),
    )?;
    // mesh join
    let joins: Vec<f64> = (0..SETUP_REPS)
        .map(|_| spans.time("runtime-net.mesh_join", || mesh_join(2)).0)
        .collect::<Result<_, _>>()?;

    // runtime layers: untraced and traced solves alternate
    let r = set_up(&case, &mut Vec::new())?;
    let traffic = pipeline::traffic(&r.reference.0);
    let observe = fresh_dir(&work.join("observe"))?;
    let ckdir = work.join("checkpoints");
    let scratch = work.join("encode");
    let mut folds = Vec::new();
    let mut ckpt_layers = Vec::new();
    let (mut plain_s, mut observed_s) = (Vec::new(), Vec::new());
    // the round's epoch of the seeded middle third
    let pick = |dir: &Path, round: usize| {
        resume_epochs(&solve::epochs(dir), args.seed).map(|at| at[round % at.len()])
    };
    let t0 = Instant::now();
    let mut rounds = 0;
    while t0.elapsed().as_secs_f64() < args.seconds || rounds < 4 {
        // untraced and traced solves alternate
        let observed = rounds % 2 == 1;
        rounds += 1;
        let ckpt = case.checkpoint.then_some(ckdir.as_path());
        if let Some(dir) = ckpt {
            fresh_dir(dir)?;
        }
        let obs = observed.then_some(observe.as_path());
        let (s, _) = spans.time("solve", || {
            checked_solve(&r, &r.c, case.wire, ckpt, obs, &mut tally)
        });
        if let Some(s) = s {
            if observed {
                &mut observed_s
            } else {
                &mut plain_s
            }
            .push(s.wall_s);
            folds.push(s.fold);
        }
        if let Some(dir) = ckpt {
            checkpoint_round(
                &r,
                dir,
                pick(dir, rounds)?,
                &scratch,
                &mut spans,
                &mut tally,
                &mut ckpt_layers,
            );
        }
    }
    if !case.checkpoint {
        // the workload itself writes no checkpoints: one checkpointed
        // solve measures the checkpoint layer on its program
        fresh_dir(&ckdir)?;
        checked_solve(&r, &r.c, case.wire, Some(&ckdir), None, &mut tally);
        checkpoint_round(
            &r,
            &ckdir,
            pick(&ckdir, 0)?,
            &scratch,
            &mut spans,
            &mut tally,
            &mut ckpt_layers,
        );
    }
    let _ = std::fs::remove_dir_all(&ckdir);

    let (triad, _) = spans.time("bound.triad", bounds::triad_gbps);
    let (tcp_rtt, _) = spans.time("bound.tcp_rtt", bounds::tcp_rtt_us);
    let (inproc_rtt, _) = spans.time("bound.inproc_rtt", bounds::inproc_rtt_us);
    spans
        .write(&work.join("spans.jsonl"))
        .map_err(|e| format!("spans: {e}"))?;

    let st = |f: fn(&Staged) -> f64| med(&staged, f);
    let fo = |f: fn(&solve::Fold) -> f64| med(&folds, f);
    let ck = |f: fn(&solve::CheckpointLayer) -> f64| med(&ckpt_layers, f);
    let untraced = median(&plain_s);
    let metrics = vec![
        m("fortran.parse_s", st(|s| s.parse_s), "s"),
        m("ir.build_s", st(|s| s.build_s), "s"),
        m("syncopt.plan_s", st(|s| s.plan_s), "s"),
        m("codegen.transform_s", st(|s| s.transform_s), "s"),
        m("syncopt.syncs_before", st(|s| s.syncs_before), "count"),
        m("syncopt.syncs_after", st(|s| s.syncs_after), "count"),
        m("codegen.plan_json_s", st(|s| s.plan_json_s), "s"),
        m("codegen.plan_json_bytes", st(|s| s.plan_json_bytes), "B"),
        m("compile-service.response_bytes", cache.response_bytes, "B"),
        m("compile-service.hit_ratio", cache.hit_ratio, "ratio"),
        m(
            "compile-service.pipeline_runs",
            cache.pipeline_runs,
            "count",
        ),
        m("interp.lower_s", st(|s| s.lower_s), "s"),
        m("interp.nests_compiled", st(|s| s.nests_compiled), "count"),
        m("interp.nests_fallback", st(|s| s.nests_fallback), "count"),
        m("interp.compute_s", fo(|f| f.compute_s), "s"),
        m("interp.compute_share", fo(|f| f.compute_share), "ratio"),
        m(
            "interp.bytes_per_point",
            traffic.bytes / case.point_updates(),
            "B/point",
        ),
        m(
            "interp.flops_per_byte",
            traffic.flops / traffic.bytes,
            "flop/B",
        ),
        m("interp.repartition_s", ck(|c| c.repartition_s), "s"),
        m("runtime.checkpoint_load_s", ck(|c| c.load_s), "s"),
        m("runtime.recv_wait_s", fo(|f| f.recv_wait_s), "s"),
        m("runtime.imbalance", fo(|f| f.imbalance), "ratio"),
        m("runtime.reduce_wait_s", fo(|f| f.reduce_wait_s), "s"),
        m("runtime.msgs", fo(|f| f.msgs), "count"),
        m("runtime.bytes", fo(|f| f.bytes), "B"),
        m("runtime.reduces", fo(|f| f.reduces), "count"),
        m("runtime.checkpoint_epochs", ck(|c| c.epochs), "count"),
        m("runtime.checkpoint_bytes", ck(|c| c.bytes), "B"),
        m("runtime.checkpoint_encode_s", ck(|c| c.encode_s), "s"),
        m("runtime-net.mesh_join_s", median(&joins), "s"),
        m("runtime-net.wait_per_op_us", fo(|f| f.wait_per_op_us), "us"),
        m(
            "runtime.trace_overhead_pct",
            (median(&observed_s) / untraced - 1.0) * 100.0,
            "%",
        ),
        m("bound.triad_gbps", triad, "GB/s"),
        m("bound.tcp_rtt_us", tcp_rtt?, "us"),
        m("bound.inproc_rtt_us", inproc_rtt, "us"),
    ];
    Ok(Report {
        metrics,
        aliases: Vec::new(),
        tally,
    })
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

fn run(args: &Args) -> Result<Report, String> {
    let work = fresh_dir(&PathBuf::from("acfbench/work").join(&args.workload))?;
    if args.trace {
        return traced(args, &work);
    }
    match args.workload.as_str() {
        "aerofoil-inproc" => solve_e2e(&aerofoil_inproc(), args, &work),
        "sprayer-tcp" => solve_e2e(&sprayer_tcp(), args, &work),
        _ => compile_e2e(args),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acfbench: {e}");
            std::process::exit(2);
        }
    };
    if !Path::new("acfbench/Cargo.toml").is_file() {
        eprintln!("acfbench: run from the repository root");
        std::process::exit(2);
    }
    let host = host_block(&args);
    println!("host {host}");
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("acfbench: {e}");
            std::process::exit(1);
        }
    };
    let Report {
        tally,
        metrics,
        aliases,
    } = report;
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    for x in metrics.iter().chain(&aliases) {
        println!(
            "  {:<34} {:>16.6} {:<7} {}",
            x.name, x.value, x.unit, x.detail
        );
    }
    println!("  {:<34} {:>16.6} ratio", "fail_ratio", fail_ratio);
    let metrics = Value::Obj(
        metrics
            .iter()
            .map(|x| {
                (
                    x.name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Float(x.value)),
                        ("unit", Value::Str(x.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let out = Value::obj(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Int(tally.attempted.into())),
        ("failed", Value::Int(tally.failed.into())),
        ("metrics", metrics),
    ]);
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sources_have_the_paper_line_counts() {
        let lines = |src: &str| src.lines().count();
        let requests = paper_requests();
        assert_eq!(lines(&requests[0].0), 3603);
        assert_eq!(lines(&requests[8].0), 6100);
    }
}

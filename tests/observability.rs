//! End-to-end observability: every run leaves a reconstructible record.
//!
//! The traced runners journal each rank's events to JSONL; the merger
//! aligns rank epochs; the exporters render a Chrome trace and phase
//! metrics; and the static traffic forecast cross-validates against the
//! measured trace *exactly* — zero tolerance — on both case studies.
//! Failures journal too: a rank that dies mid-run still flushes its
//! partial trace so there is something to debug with.

use autocfd::obs;
use autocfd::runtime::{chrome_trace, run_spmd_with_timeout, MergedTrace, Rollup, SCHEMA_VERSION};
use autocfd::{compile, CompileOptions, Compiled};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use std::path::PathBuf;
use std::time::Duration;

/// Per-test scratch directory (unique per process, reused across runs).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acfd-obs-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Compile, run traced in-process, journal every rank, merge.
fn trace_case(src: &str, parts: &[u32], tag: &str) -> (Compiled, Vec<usize>, MergedTrace) {
    let c = compile(src, &CompileOptions::with_partition(parts)).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let dir = scratch(tag);
    obs::clean_trace_dir(&dir).unwrap();
    let mut event_counts = Vec::new();
    for (rank, run) in runs.iter().enumerate() {
        run.outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        obs::write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
        event_counts.push(run.trace.len());
    }
    let merged = obs::load_merged(&dir).unwrap();
    (c, event_counts, merged)
}

#[test]
fn journal_round_trip_preserves_every_event() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    let (c, event_counts, merged) = trace_case(&src, &[2, 2, 1], "roundtrip");
    assert!(merged.complete, "all footers present");
    assert_eq!(merged.transport, "inproc");
    assert_eq!(merged.traces.len(), c.spmd_plan.ranks() as usize);
    for (rank, trace) in merged.traces.iter().enumerate() {
        assert_eq!(
            trace.len(),
            event_counts[rank],
            "rank {rank}: merged journal dropped or invented events"
        );
        assert!(!trace.is_empty(), "rank {rank} recorded nothing");
    }
    // phases survive the trip: communication phases present by name
    assert!(
        merged
            .phase_names
            .iter()
            .any(|p| p.iter().any(|n| n.starts_with("sync_"))),
        "sync phases lost in the round trip: {:?}",
        merged.phase_names
    );
}

#[test]
fn chrome_trace_is_valid_json_with_one_track_per_rank() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let (c, _, merged) = trace_case(&src, &[2, 2], "chrome");
    let json = chrome_trace(&merged);
    let v = serde::json::parse(&json).expect("trace.json must parse");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut tracks = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        if ph == "X" {
            // complete events need a timestamp, duration, and name
            assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
            assert!(ev.get("dur").and_then(|t| t.as_f64()).is_some());
            assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
            tracks.insert(ev.get("tid").and_then(|t| t.as_int()).expect("tid"));
        }
    }
    assert_eq!(
        tracks.len(),
        c.spmd_plan.ranks() as usize,
        "one timeline track per rank"
    );
}

#[test]
fn cross_validation_is_exact_on_both_case_studies() {
    let cases: [(&str, String, &[u32]); 2] = [
        (
            "aerofoil",
            aerofoil_program(&CaseParams::aerofoil_small()),
            &[2, 2, 1],
        ),
        (
            "sprayer",
            sprayer_program(&CaseParams::sprayer_small()),
            &[4, 1],
        ),
    ];
    for (name, src, parts) in cases {
        let (c, _, merged) = trace_case(&src, parts, &format!("xval-{name}"));
        // zero tolerance: the forecast and the trace share the region
        // geometry, so predicted == measured to the byte
        let rollup = Rollup::of(&merged);
        let checks = obs::cross_validate(&c, &rollup, &merged.transport, 0.0).unwrap();
        assert!(!checks.is_empty(), "{name}: no phases to validate");
        for chk in &checks {
            assert!(
                chk.ok(),
                "{name} phase {}: {} msgs vs {} predicted, {} B vs {} B",
                chk.phase,
                chk.msgs_measured,
                chk.visits * chk.msgs_per_visit,
                chk.bytes.measured,
                chk.bytes.predicted
            );
            assert_eq!(chk.bytes.error(), 0.0, "{name} phase {}", chk.phase);
        }
        // and the report renders every section from the same merge
        let report = obs::render_report(&merged, &rollup);
        for section in ["rank 0 |", "wait p50/p95/max", "covered"] {
            assert!(report.contains(section), "{name}: missing `{section}`");
        }
    }
}

#[test]
fn trace_covers_nearly_all_wall_time() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    let (_, _, merged) = trace_case(&src, &[3, 1, 1], "coverage");
    let rollup = Rollup::of(&merged);
    for rank in 0..rollup.ranks() {
        assert!(
            rollup.coverage(rank) > 0.9,
            "rank {rank}: compute+comm+wait covers only {:.1}% of wall time",
            rollup.coverage(rank) * 100.0
        );
    }
}

#[test]
fn failed_ranks_still_flush_partial_journals() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let n = c.spmd_plan.ranks() as usize;
    // calibrate a statement budget that dies mid-run: half of the
    // cheapest rank's full count; ranks blocked on the dead ones time
    // out quickly instead of hanging
    let full = c.run_parallel_traced(vec![]);
    let limit = full
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().0.ops.stmts)
        .min()
        .unwrap()
        / 2;
    assert!(limit > 0);
    let runs = run_spmd_with_timeout(n, Duration::from_millis(200), |comm| {
        c.run_config().stmt_limit(limit).run_rank_traced(&comm)
    });
    assert!(
        runs.iter().all(|r| r.outcome.is_err()),
        "the statement limit must stop every rank"
    );
    let dir = scratch("partial");
    obs::clean_trace_dir(&dir).unwrap();
    for (rank, run) in runs.iter().enumerate() {
        obs::write_rank_run(&dir, "inproc", rank, n, run).unwrap();
    }
    let merged = obs::load_merged(&dir).unwrap();
    assert!(merged.complete, "post-mortem journals still carry footers");
    assert_eq!(merged.traces.len(), n);
    assert!(
        merged.traces.iter().any(|t| !t.is_empty()),
        "partial traces should capture the events before the failure"
    );
}

#[test]
fn journal_header_carries_current_schema() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let (_, _, _) = trace_case(&src, &[2, 1], "schema");
    let dir = scratch("schema");
    let journals = autocfd::runtime::load_trace_dir(&dir).unwrap();
    for j in &journals {
        assert_eq!(j.header.version, SCHEMA_VERSION);
        assert_eq!(j.header.ranks, 2);
        assert!(j.header.epoch_unix_ns > 0, "epoch must be a real unix time");
    }
}

//! Pins the on-disk snapshot format of checkpoint schema 3:
//! `data/snapshot-golden.snap` and `data/snapshot-golden-bare.snap` are
//! the encodings of the two fixtures below. The encoder must reproduce
//! them byte for byte and each must decode back to its fixture — so
//! snapshots written by any earlier build of this schema keep loading,
//! and a resumed run writes files an older build can read.
//! `data/snapshot-golden.json` holds two snapshots of the retired JSON
//! format (schema 2), which must be refused with an error naming it.

use autocfd_runtime::checkpoint::{
    decode_snapshot, encode_snapshot, load_epoch, ArraySnap, Cursor, CutSite, DoProgress, OpsSnap,
    ScalarSnap, Snapshot,
};

const GOLDEN: &[u8] = include_bytes!("data/snapshot-golden.snap");
const GOLDEN_BARE: &[u8] = include_bytes!("data/snapshot-golden-bare.snap");
const SCHEMA_2_JSON: &str = include_str!("data/snapshot-golden.json");

/// Bit patterns the encoder must carry exactly: quiet and signalling
/// NaNs with payloads, both zeros, the all-ones word, and ordinary
/// values of every digit count.
fn edge_bits() -> Vec<u64> {
    vec![
        0x7ff8_0000_dead_beef,
        0xfff0_0000_0000_0001,
        (-0.0f64).to_bits(),
        0,
        u64::MAX,
        1,
        9,
        10,
        99,
        100,
        1.5f64.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::MIN_POSITIVE.to_bits(),
        1e-300f64.to_bits(),
    ]
}

/// Everything the format has: a multi-level cursor, a cut site, real
/// and integer arrays, a common block, every scalar kind, and names and
/// output lines that need escaping.
fn full_snapshot() -> Snapshot {
    Snapshot {
        rank: 1,
        ranks: 4,
        parts: vec![2, 2],
        epoch: 12,
        sync_id: 7,
        cursor: Cursor {
            stmt: 41,
            dos: vec![
                DoProgress {
                    var: "it".into(),
                    iv: 3,
                    step: 1,
                    remaining: 96,
                },
                DoProgress {
                    var: "k".into(),
                    iv: -5,
                    step: -2,
                    remaining: u64::MAX,
                },
            ],
        },
        cut: Some(CutSite {
            list_kind: 3,
            list_stmt: 29,
            arm: 2,
            gap: 4,
        }),
        arrays: vec![
            ArraySnap {
                name: "q\"uo\\te\u{1}".into(),
                bounds: vec![(-1, 3), (0, 2)],
                is_int: false,
                data: edge_bits(),
            },
            ArraySnap {
                name: "mask".into(),
                bounds: vec![(1, 4)],
                is_int: true,
                data: vec![1.0f64.to_bits(), 0, 2.0f64.to_bits(), (-3.0f64).to_bits()],
            },
            ArraySnap {
                name: "empty".into(),
                bounds: vec![(1, 0)],
                is_int: false,
                data: vec![],
            },
        ],
        commons: vec![(
            "flow".into(),
            "p".into(),
            ArraySnap {
                name: "p".into(),
                bounds: vec![(i64::MAX - 1, i64::MAX)],
                is_int: false,
                data: vec![0.25f64.to_bits(), u64::MAX],
            },
        )],
        scalars: vec![
            ("i".into(), ScalarSnap::Int(i64::MIN)),
            ("n".into(), ScalarSnap::Int(i64::MAX)),
            ("err".into(), ScalarSnap::Real(f64::NAN.to_bits())),
            ("z".into(), ScalarSnap::Real((-0.0f64).to_bits())),
            ("done".into(), ScalarSnap::Logical(true)),
            ("more".into(), ScalarSnap::Logical(false)),
            ("tag".into(), ScalarSnap::Str("a \"b\" \\c\td\u{7}".into())),
        ],
        input: edge_bits(),
        output: vec![
            " step    1 err = 1.0E-03".into(),
            "say \"hi\" \\ back\u{1f}slash\nnext\r".into(),
            "ünïcødé ✓".into(),
        ],
        ops: OpsSnap {
            flops: u64::MAX,
            loads: 0,
            stores: 1,
            stmts: 1_234_567_890_123,
        },
    }
}

/// The smallest snapshot: no loops on the cursor, no cut site, nothing
/// queued for input, nothing written yet.
fn bare_snapshot() -> Snapshot {
    Snapshot {
        rank: 0,
        ranks: 1,
        parts: vec![],
        epoch: 0,
        sync_id: 0,
        cursor: Cursor {
            stmt: 0,
            dos: vec![],
        },
        cut: None,
        arrays: vec![],
        commons: vec![],
        scalars: vec![],
        input: vec![],
        output: vec![],
        ops: OpsSnap::default(),
    }
}

#[test]
fn encoder_reproduces_the_golden_bytes() {
    assert_eq!(encode_snapshot(&full_snapshot()).unwrap(), GOLDEN);
    assert_eq!(encode_snapshot(&bare_snapshot()).unwrap(), GOLDEN_BARE);
}

#[test]
fn golden_snapshots_decode_and_re_encode_to_the_same_bytes() {
    for (golden, expect) in [(GOLDEN, full_snapshot()), (GOLDEN_BARE, bare_snapshot())] {
        let back = decode_snapshot(golden).unwrap();
        assert_eq!(back, expect);
        assert_eq!(encode_snapshot(&back).unwrap(), golden);
    }
}

#[test]
fn schema_two_json_snapshots_are_refused() {
    let lines: Vec<&str> = SCHEMA_2_JSON.lines().collect();
    assert_eq!(lines.len(), 2, "one schema-2 snapshot per line");
    for line in &lines {
        assert!(line.starts_with("{\"version\":2,"));
        let err = decode_snapshot(line.as_bytes()).unwrap_err();
        assert!(err.contains("schema 1/2 JSON snapshot"), "{err}");
    }
    // an epoch directory of the old format is refused by name too
    let dir = std::env::temp_dir().join(format!("acfd-golden-json-{}", std::process::id()));
    let edir = dir.join("epoch-1");
    std::fs::create_dir_all(&edir).unwrap();
    std::fs::write(edir.join("rank-0.json"), lines[1]).unwrap();
    let err = load_epoch(&dir, 1).unwrap_err();
    assert!(err.contains("schema 1/2 JSON snapshot"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

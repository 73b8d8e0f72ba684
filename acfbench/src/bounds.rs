//! Physical bounds measured in the same run: a STREAM-style triad for
//! memory bandwidth and a 2-rank ping-pong for message latency.

use std::hint::black_box;
use std::time::Instant;

use autocfd::runtime::{run_spmd, Comm};
use autocfd::runtime_net::run_spmd_tcp;

use crate::stats::median;

/// Bytes per triad array. Arrays of at least 4x the last-level cache
/// would measure DRAM bandwidth, but where that is more memory than a
/// run may take (300 MiB of LLC would need 3 arrays of 1.2 GiB), the
/// triad runs at this size and the result is reported as an upper
/// bound with both sizes stated.
pub const TRIAD_ARRAY_BYTES: usize = 32 << 20;

/// `a = b + s*c` over three arrays of [`TRIAD_ARRAY_BYTES`]; returns the
/// best of several passes in GB/s, counting 3 arrays × 8 bytes per
/// element as STREAM does.
pub fn triad_gbps() -> f64 {
    let n = TRIAD_ARRAY_BYTES / 8;
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * n * 8) as f64 / best / 1e9
}

/// Round trips of one f64 between ranks 0 and 1; returns the median
/// round-trip time of several batches in microseconds.
fn ping_pong(comm: &Comm) -> f64 {
    const TAG: u64 = 77;
    const TRIPS: usize = 500;
    let one = |comm: &Comm| {
        if comm.rank() == 0 {
            comm.send(1, TAG, &[1.0]).expect("ping");
            comm.recv(1, TAG).expect("pong");
        } else {
            let v = comm.recv(0, TAG).expect("ping");
            comm.send(0, TAG, &v).expect("pong");
        }
    };
    for _ in 0..50 {
        one(comm);
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..TRIPS {
                one(comm);
            }
            t0.elapsed().as_secs_f64() * 1e6 / TRIPS as f64
        })
        .collect();
    median(&batches)
}

/// Loopback round trip over `TcpTransport`, in microseconds.
pub fn tcp_rtt_us() -> Result<f64, String> {
    let rtts = run_spmd_tcp(2, std::time::Duration::from_secs(30), |comm| {
        ping_pong(&comm)
    })
    .map_err(|e| format!("tcp ping-pong: {e}"))?;
    Ok(rtts[0])
}

/// Round trip over `InprocTransport`, in microseconds.
pub fn inproc_rtt_us() -> f64 {
    run_spmd(2, |comm| ping_pong(&comm))[0]
}

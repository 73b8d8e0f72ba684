//! Small measurement helpers: medians, a seeded generator, the
//! operation tally behind `attempted`/`failed`, and the in-memory span
//! log the traced run writes out at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile of `v`, interpolating linearly between the closest
/// ranks; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Counts operations and the ones that failed: an execution error, a
/// timeout, or a result that is not bit-exact.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Record one operation and pass its value on; a failure is
    /// reported on stderr.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| {
                self.failed += 1;
                eprintln!("acfbench: {what} failed: {e}");
            })
            .ok()
    }
}

/// The highest of the 99th, 95th, 90th and 75th percentiles that has at
/// least ten samples above it, as `(percentile, value)`.
pub fn high_percentile(v: &[f64]) -> Option<(u32, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .map(|p| (p, s[(n * p as usize).div_ceil(100) - 1]))
}

/// One timed call of a public layer function.
struct Span {
    layer: String,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start_s: f64,
    dur_s: f64,
}

/// Spans the benchmark times from outside around public layer calls.
/// They are kept in memory while the run measures and written once at
/// the end, so writing them costs nothing inside a timed window.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans begun and not yet ended, innermost last.
    open: Vec<usize>,
}

impl Spans {
    /// An empty log whose offsets count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span that encloses the spans recorded until [`Spans::end`].
    pub fn begin(&mut self, layer: &str) {
        self.spans.push(Span {
            layer: layer.to_string(),
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            dur_s: f64::NAN,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].dur_s = self.origin.elapsed().as_secs_f64() - self.spans[i].start_s;
        }
    }

    /// Run `f`, record its span under `layer`, and return its result
    /// with the elapsed seconds.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let dur_s = t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer: layer.to_string(),
            parent: self.open.last().copied(),
            start_s: t0.duration_since(self.origin).as_secs_f64(),
            dur_s,
        });
        (out, dur_s)
    }

    /// Write the log as JSON lines into `path`; `id` is the line's index,
    /// `parent` the id of the enclosing span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"start_s\":{},\"dur_s\":{}}}",
                s.layer, s.start_s, s.dur_s
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&v), Some((99, 990.0)));
        assert_eq!(high_percentile(&v[..30]), None);
    }

    #[test]
    fn same_seed_same_order() {
        let mut a: Vec<u32> = (0..9).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..9).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c, "different seeds give different orders");
    }
}

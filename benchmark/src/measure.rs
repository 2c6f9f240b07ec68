//! The one measurement helper: latency histogram, percentile choice,
//! per-window figures and their quiet quartile, min/median/MAD and span
//! self-time.
//!
//! Everything here is plain arithmetic over numbers the workloads
//! record; nothing reads a clock except [`Tracer`], and that only
//! through the `Instant` it was created with.

use std::collections::BTreeMap;
use std::time::Instant;

/// Relative width of one histogram bucket. A recorded value is reported
/// as its bucket's geometric midpoint, so the relative error of any
/// reported percentile is at most `BUCKET_WIDTH / 2`.
pub const BUCKET_WIDTH: f64 = 0.01;
/// Smallest and largest value (nanoseconds) the buckets resolve; values
/// outside are clamped into the first / last bucket.
const MIN_NS: f64 = 1.0;
const MAX_NS: f64 = 1.0e13;

/// Fixed-size log-bucketed histogram over durations in nanoseconds.
/// Memory is constant (≈3 000 buckets) whatever the sample count, and
/// recording never allocates, so it can sit inside a request loop.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    min_ns: u64,
    max_ns: u64,
    sum_ns: u128,
    ln_ratio: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let ln_ratio = (1.0 + BUCKET_WIDTH).ln();
        let buckets = ((MAX_NS / MIN_NS).ln() / ln_ratio).ceil() as usize + 1;
        Self {
            counts: vec![0; buckets],
            n: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            sum_ns: 0,
            ln_ratio,
        }
    }

    fn bucket_of(&self, ns: u64) -> usize {
        let v = (ns as f64).clamp(MIN_NS, MAX_NS);
        (((v / MIN_NS).ln() / self.ln_ratio) as usize).min(self.counts.len() - 1)
    }

    /// Geometric midpoint of bucket `i`.
    fn bucket_mid(&self, i: usize) -> f64 {
        MIN_NS * ((i as f64 + 0.5) * self.ln_ratio).exp()
    }

    pub fn record_ns(&mut self, ns: u64) {
        let b = self.bucket_of(ns);
        self.counts[b] += 1;
        self.n += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns += ns as u128;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64
        }
    }

    /// The `p`-quantile (`0 < p <= 1`) in nanoseconds: the value of the
    /// `ceil(p·n)`-th smallest sample, to within half a bucket; the
    /// smallest and the largest sample exactly. 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        // The extremes are kept exactly.
        if rank == self.n {
            return self.max_ns as f64;
        }
        if rank == 1 {
            return self.min_ns as f64;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self
                    .bucket_mid(i)
                    .clamp(self.min_ns as f64, self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    pub fn quantile_ms(&self, p: f64) -> f64 {
        self.quantile_ns(p) / 1e6
    }

    /// Add another histogram's samples to this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns += other.sum_ns;
    }
}

/// Percentiles a report may quote, ascending.
pub const PERCENTILE_LADDER: [f64; 7] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least ten samples beyond it (`n·(1−p) ≥ 10`), or `None` when even
/// the median has fewer — then only the median should be quoted.
pub fn highest_supported_percentile(n: u64) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Per-window figures of one timed phase, one entry per window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// Median of the values completed in the window.
    pub p50: Vec<f64>,
    /// Their `tail_p` quantile.
    pub tail: Vec<f64>,
    /// Completions per second.
    pub rate: Vec<f64>,
}

impl WindowStats {
    pub fn extend(&mut self, other: WindowStats) {
        self.p50.extend(other.p50);
        self.tail.extend(other.tail);
        self.rate.extend(other.rate);
    }

    /// One line per figure, every window's value in order: the record
    /// of how disturbed the run was.
    pub fn print(&self, unit: &str) {
        let line = |v: &[f64]| {
            let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            v.join(" ")
        };
        println!("windows p50 [{unit}]: {}", line(&self.p50));
        println!("windows tail [{unit}]: {}", line(&self.tail));
        println!("windows rate [1/s]: {}", line(&self.rate));
    }
}

/// Cut a phase into windows of `window_s` and take the figures of each
/// window that lies wholly inside `[0, phase_s)` and holds a sample; a
/// partial last window is left out so it cannot drag a rate down.
/// `samples` are `(completion time in seconds since the phase began,
/// value)`.
pub fn window_stats(
    samples: &[(f64, f64)],
    phase_s: f64,
    window_s: f64,
    tail_p: f64,
) -> WindowStats {
    let mut out = WindowStats::default();
    if window_s <= 0.0 {
        return out;
    }
    let windows = (phase_s / window_s).floor() as usize;
    let mut values = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = (t / window_s) as usize;
        if t >= 0.0 && w < windows {
            values[w].push(v);
        }
    }
    for v in values.iter().filter(|v| !v.is_empty()) {
        out.p50.push(median(v));
        out.tail.push(quantile_exact(v, tail_p));
        out.rate.push(v.len() as f64 / window_s);
    }
    out
}

/// [`window_stats`] for back-to-back iterations of a batch job, which
/// are too few per second to count in a window of time: each run of
/// `block` consecutive durations (milliseconds) is one window, and its
/// rate is iterations per second of iterating. A partial last block is
/// left out.
pub fn block_stats(durations_ms: &[f64], block: usize, tail_p: f64) -> WindowStats {
    let mut out = WindowStats::default();
    for v in durations_ms.chunks_exact(block.max(1)) {
        out.p50.push(median(v));
        out.tail.push(quantile_exact(v, tail_p));
        out.rate.push(v.len() as f64 * 1e3 / v.iter().sum::<f64>());
    }
    out
}

/// Of per-window figures, the quartile nearest an undisturbed machine:
/// the lower one of a cost, the upper one of a rate. The sandbox's host
/// slows everything by 1.3–1.8× for seconds at a time, in a share of
/// the run that differs from run to run; a whole-run median moves with
/// that share, the quiet quartile does not as long as a quarter of the
/// windows were left alone. A change to the program moves every window.
pub fn quiet_quartile(per_window: &[f64], higher_is_better: bool) -> f64 {
    quantile_exact(per_window, if higher_is_better { 0.75 } else { 0.25 })
}

/// Median of a sample. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact order statistic of a small sample: the `ceil(p·n)`-th smallest.
pub fn quantile_exact(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Minimum, median and median absolute deviation of a small sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub mad: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - med).abs()).collect();
    Summary {
        n: values.len(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: med,
        mad: median(&dev),
    }
}

/// Interquartile range over the median, from Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the acceptance check uses. `None` with fewer than two values or a
/// zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| -> f64 {
        // statistics.quantiles, method="exclusive": position k(n+1)/4.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    (med != 0.0).then(|| (q(3) - q(1)) / med.abs())
}

/// One recorded span: a call into a layer, made by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Spans of one iteration / request share an id.
    pub op_id: u32,
}

/// In-memory span recorder. Spans live in a vector sized up front and
/// are written out only when the workload ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Nanoseconds since the tracer was created, on the span clock.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span under the innermost open one, from clock
    /// readings taken with [`Tracer::now_ns`].
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What recording one empty span costs, nanoseconds: the overhead a
/// traced replay adds per span.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::with_capacity(N);
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("calibrate", |_| ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed over spans of the same name.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Print each layer's share of the traced self time, per repetition.
pub fn print_self_time_shares(own: &BTreeMap<&'static str, u64>, reps: f64) {
    let total: u64 = own.values().sum();
    println!("self time per layer (traced pass, per iteration):");
    for (name, ns) in own {
        println!(
            "  {name:<28} {:>10.3} ms  {:>5.1} %",
            *ns as f64 / 1e6 / reps,
            *ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

/// Total wall time per span name (children included).
pub fn total_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.end_ns - s.start_ns;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op_id
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_is_within_one_percent() {
        // Every recorded value must come back within the bucket width,
        // across nine decades (1 µs … 1000 s).
        let mut v = 1_000.0f64;
        while v < 1.0e12 {
            let mut h = Histogram::new();
            h.record_ns(v as u64);
            // min/max clamping would hide the bucket error: widen them.
            h.record_ns(1);
            h.record_ns(u64::MAX / 2);
            let got = h.quantile_ns(2.0 / 3.0);
            let rel = (got - v.floor()).abs() / v.floor();
            assert!(rel <= BUCKET_WIDTH, "value {v}: got {got}, rel {rel}");
            v *= 1.37;
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record_ns(i * 1_000);
        }
        assert_eq!(h.len(), 10_000);
        for (p, want) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile_ns(p);
            assert!((got - want).abs() / want <= BUCKET_WIDTH, "p{p}: {got}");
        }
        assert_eq!(h.quantile_ns(1.0), 10_000_000.0, "max is exact");
        assert!((h.mean_ns() - 5_000_500.0).abs() < 1.0);
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = Histogram::new();
        h.record_ns(123_456_789);
        assert_eq!(h.quantile_ns(0.5), 123_456_789.0);
        assert_eq!(h.quantile_ns(0.99), 123_456_789.0);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for i in 1..=100u64 {
            a.record_ns(i * 1000);
            b.record_ns((i + 100) * 1000);
        }
        a.merge(&b);
        assert_eq!(a.len(), 200);
        let p50 = a.quantile_ns(0.5);
        assert!((p50 - 100_000.0).abs() / 100_000.0 <= BUCKET_WIDTH);
        assert_eq!(a.quantile_ns(1.0), 200_000.0);
        assert_eq!(a.quantile_ns(0.001), 1_000.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(8), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn quiet_quartile_ignores_disturbed_windows() {
        // 100 completions/s of 1 ms each for 8 s; in three windows the
        // machine is slowed: fewer completions, each taking longer.
        let mut samples = Vec::new();
        for w in 0..8 {
            let (k, ms) = if [2, 3, 6].contains(&w) {
                (60, 1.7)
            } else {
                (100, 1.0)
            };
            for i in 0..k {
                // The last tenth of each window's samples is its tail.
                let v = if i >= k * 9 / 10 { ms * 3.0 } else { ms };
                samples.push((w as f64 + i as f64 / k as f64, v));
            }
        }
        // A partial trailing window is not counted.
        let stats = window_stats(&samples, 8.5, 1.0, 0.95);
        assert_eq!(stats.rate.len(), 8);
        assert_eq!(stats.rate[2], 60.0);
        assert_eq!(quiet_quartile(&stats.p50, false), 1.0);
        assert_eq!(quiet_quartile(&stats.tail, false), 3.0);
        assert_eq!(quiet_quartile(&stats.rate, true), 100.0);
        // The whole-run median of the rate would have been pulled down.
        assert!(median(&stats.rate) <= 100.0);
        // Windows without a sample are left out, not reported as zero.
        let sparse = window_stats(&[(0.5, 1.0), (2.5, 2.0)], 3.0, 1.0, 0.75);
        assert_eq!(sparse.p50, vec![1.0, 2.0]);
        assert_eq!(window_stats(&[], 0.5, 1.0, 0.75), WindowStats::default());
    }

    #[test]
    fn blocks_of_iterations_are_windows() {
        // Seven iterations in blocks of three: two blocks, one left over.
        let ms = [100.0, 110.0, 90.0, 200.0, 200.0, 400.0, 50.0];
        let stats = block_stats(&ms, 3, 0.75);
        assert_eq!(stats.p50, vec![100.0, 200.0]);
        assert_eq!(stats.tail, vec![110.0, 400.0]);
        assert_eq!(stats.rate, vec![10.0, 3.75]);
        // One iteration per block: its median and its tail are itself.
        let single = block_stats(&ms, 1, 0.75);
        assert_eq!(single.p50, ms.to_vec());
        assert_eq!(single.tail, single.p50);
        assert_eq!(single.rate[0], 10.0);
    }

    #[test]
    fn summary_min_median_mad() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!(
            s,
            Summary {
                n: 5,
                min: 1.0,
                median: 5.0,
                mad: 2.0
            }
        );
        assert_eq!(quantile_exact(&[4.0, 1.0, 3.0, 2.0], 0.75), 3.0);
        assert_eq!(quantile_exact(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        // root [0,100] ─ a [10,40] ─ a1 [15,25]
        //               └ b [50,90] ─ b1 [55,60], b2 [60,80]
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        };
        let spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 40, Some(0)),
            mk("leaf", 15, 25, Some(1)),
            mk("b", 50, 90, Some(0)),
            mk("leaf", 55, 60, Some(3)),
            mk("leaf", 60, 80, Some(3)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own["root"], 30);
        assert_eq!(own["a"], 20);
        assert_eq!(own["b"], 15);
        assert_eq!(own["leaf"], 35);
        assert_eq!(own.values().sum::<u64>(), 100, "self times sum to the root");
        assert_eq!(total_times_ns(&spans)["leaf"], 35);
    }

    #[test]
    fn tracer_records_parents_and_ops() {
        let mut t = Tracer::with_capacity(8);
        t.set_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op_id), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own["outer"] + own["inner"], s[0].end_ns - s[0].start_ns);
        assert!(spans_to_json(s).contains("\"parent\":0"));
    }
}

//! The benchmark's own statistics: nearest-rank percentiles, the
//! ten-samples-beyond tail rule, open-loop latency accounting and a
//! seeded generator. Everything here is pure and unit-tested.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; `0.0`
/// on an empty slice (a layer the workload does not exercise).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// A reported tail: which percentile, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction (`0.99` for p99).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The tail rule: the highest percentile of [`TAIL_LADDER`], at most
/// `cap`, that has at least ten samples beyond it. Falls back to the
/// median when even p50 has fewer than ten beyond (fewer than 20
/// samples), so a value is always reported together with its count.
pub fn tail(sorted: &[f64], cap: f64) -> Tail {
    let n = sorted.len();
    let q = TAIL_LADDER
        .into_iter()
        .filter(|&q| q <= cap + 1e-12)
        .find(|&q| beyond(n, q) >= 10)
        .unwrap_or(0.5);
    Tail {
        q,
        value: percentile(sorted, q),
        samples: n,
    }
}

/// Median of an unsorted slice (sorted copy).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Ascending copy; NaN never occurs (all inputs are durations).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One open-loop request as the generator saw it, in seconds since the
/// load started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: f64,
    /// When its complete reply arrived; `None` if it never did.
    pub reply: Option<f64>,
}

/// Latency of one open-loop request in milliseconds, timed from its due
/// time (not from when the generator got round to sending it), so a
/// stall that delays later sends is charged to them. A missing reply, or
/// one after `deadline`, is infinitely late.
pub fn latency_ms(t: Timed, deadline: f64) -> f64 {
    match t.reply {
        Some(r) if r <= deadline => (r - t.due).max(0.0) * 1e3,
        _ => f64::INFINITY,
    }
}

/// Outcome of a population of requests against a latency limit.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Requests in the population.
    pub sent: usize,
    /// Requests whose reply was missing or arrived after the deadline:
    /// each counts as failed and as missing the latency limit.
    pub missing: usize,
    /// Median latency, ms.
    pub p50: f64,
    /// Tail by [`tail`], ms (infinite when missing replies reach it).
    pub tail: Tail,
    /// Median latency of the final quarter of the population, ms.
    pub last_quarter_p50: f64,
}

impl LatencyReport {
    /// Builds the report over requests in due order.
    pub fn new(reqs: &[Timed], deadline: f64, cap: f64) -> LatencyReport {
        let lat: Vec<f64> = reqs.iter().map(|&t| latency_ms(t, deadline)).collect();
        let missing = lat.iter().filter(|l| !l.is_finite()).count();
        let all = sorted(&lat);
        let last = sorted(&lat[lat.len() - lat.len() / 4..]);
        LatencyReport {
            sent: reqs.len(),
            missing,
            p50: percentile(&all, 0.5),
            tail: tail(&all, cap),
            last_quarter_p50: percentile(&last, 0.5),
        }
    }

    /// Whether the population meets `limit_ms` at its tail without a
    /// growing backlog: the tail is within the limit, nothing is missing,
    /// and the final quarter's median is within half the limit (a queue
    /// that keeps growing pushes late requests' latency up).
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.missing == 0 && self.tail.value <= limit_ms && self.last_quarter_p50 <= limit_ms / 2.0
    }
}

/// The calm half of `k` repeated measurements: the indices of the
/// ⌈k/2⌉ with the lowest `score` (ties go to the earlier one),
/// ascending. On a shared host, noise from other guests (stolen CPU, a
/// busy disk) only ever slows work down and comes in bursts, so a
/// statistic over the calmer half tracks the program rather than the
/// host. A change that slows every repetition moves the calm half as
/// much as the whole.
pub fn calm_half(score: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..score.len()).collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
    order.truncate(score.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// Median of the calm half of repeated measurements of the same work
/// (set-ups, restarts): the lower quartile, roughly.
pub fn calm_median(values: &[f64]) -> f64 {
    let kept: Vec<f64> = calm_half(values).into_iter().map(|i| values[i]).collect();
    median(&kept)
}

/// SplitMix64: a tiny seeded generator, so inputs depend only on the
/// seed and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// 64-bit FNV-1a, for result fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `v` into the hash.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.q, t.value, t.samples), (0.99, 990.0, 1000));
        assert_eq!(beyond(1000, 0.99), 10);
        // One sample fewer leaves only nine beyond p99: drop to p95.
        let t = tail(&v[..999], 0.99);
        assert_eq!(t.q, 0.95);
        assert_eq!(t.samples, 999);
        assert!(beyond(999, 0.95) >= 10);
    }

    #[test]
    fn tail_rule_respects_the_cap_and_falls_back_to_the_median() {
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v, 1.0).q, 0.999);
        assert_eq!(tail(&v, 0.99).q, 0.99);
        assert_eq!(tail(&v, 0.9).q, 0.9);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&small, 0.99).q, 0.9);
        let tiny = [3.0, 1.0, 2.0];
        let t = tail(&sorted(&tiny), 0.99);
        assert_eq!((t.q, t.value, t.samples), (0.5, 2.0, 3));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        // Due at 1.0 s, sent late at 1.005 s by a stalled generator,
        // answered 1 ms after sending: the user waited 6 ms.
        let t = Timed {
            due: 1.0,
            reply: Some(1.006),
        };
        assert!((latency_ms(t, 10.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn missing_or_late_replies_fail_and_miss_the_limit() {
        let mut reqs: Vec<Timed> = (0..1000)
            .map(|i| Timed {
                due: i as f64 * 1e-3,
                reply: Some(i as f64 * 1e-3 + 1e-3),
            })
            .collect();
        let ok = LatencyReport::new(&reqs, 5.0, 0.99);
        assert_eq!(ok.missing, 0);
        assert!(ok.meets(3.0));
        // One reply lost and one after the deadline: both count as
        // failed, and as infinitely late for the tail.
        reqs[10].reply = None;
        reqs[20].reply = Some(6.0);
        let bad = LatencyReport::new(&reqs, 5.0, 0.99);
        assert_eq!(bad.missing, 2);
        assert!(!bad.meets(3.0));
        assert!((bad.p50 - 1.0).abs() < 1e-9);
        // Eleven missing replies push p99 itself past any limit.
        for r in reqs.iter_mut().take(11) {
            r.reply = None;
        }
        assert!(LatencyReport::new(&reqs, 5.0, 0.99)
            .tail
            .value
            .is_infinite());
    }

    #[test]
    fn a_growing_backlog_misses_even_with_a_good_tail() {
        // Latency climbs through the population: the last quarter's
        // median exceeds half the limit although p99 does not exceed it.
        let reqs: Vec<Timed> = (0..1000)
            .map(|i| Timed {
                due: 0.0,
                reply: Some(if i < 700 { 1e-3 } else { 6e-3 }),
            })
            .collect();
        let r = LatencyReport::new(&reqs, 5.0, 0.99);
        assert!(r.tail.value <= 10.0);
        assert!(!r.meets(10.0));
    }

    #[test]
    fn the_calm_half_drops_the_noisy_windows() {
        // Seven windows, three of them slowed by the host: the four
        // calmest are kept (⌈7/2⌉), in window order, ties to the earlier.
        let score = [0.4, 3.0, 0.5, 0.4, 2.5, 0.6, 4.0];
        assert_eq!(calm_half(&score), vec![0, 2, 3, 5]);
        assert_eq!(calm_half(&[1.0, 1.0]), vec![0]);
        assert!(calm_half(&[]).is_empty());
        assert_eq!(calm_median(&[9.0, 1.0, 2.0, 8.0, 3.0]), 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}

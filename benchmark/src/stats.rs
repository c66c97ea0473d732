//! Arithmetic the harness reports with: percentiles, the SLO rung rule,
//! seeded arrival streams and the virtual-clock digest. Nothing here
//! knows about the system under test.

use crate::api::Rng;

/// Samples that must lie beyond a percentile before it is reported as
/// supported (choosing-metrics §1).
pub const BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, and whether at least
/// [`BEYOND`] samples lie beyond it. An unsupported percentile is still
/// returned (smoke runs are too small for a p95) but is marked as such
/// wherever it is printed.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, bool) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank >= BEYOND)
}

pub fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

pub fn median(values: &[u64]) -> u64 {
    percentile(&sorted(values), 50.0).0
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[u64]) -> f64 {
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len().max(1) as f64
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One open-loop arrival's fate: its latency from the instant it was
/// due, or `None` when it was refused, plus whether the answer covered
/// every shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub latency_ns: Option<u64>,
    pub complete: bool,
}

/// Verdict on one rung of the rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub qps: u64,
    pub n: usize,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub shed: usize,
    pub incomplete: usize,
    /// Median latency of the last tenth of arrivals over that of the
    /// first tenth; a queue that keeps growing pushes this up.
    pub backlog_ratio: f64,
    pub meets: bool,
}

/// Applies the rung rule to arrivals in arrival order: p95 within the
/// limit, nothing refused, every answer complete, and no growing
/// backlog: the last decile's median is no more than twice the first
/// decile's. A last-decile median under a tenth of the limit is not a
/// backlog whatever the ratio (cache hits take microseconds, and twice
/// that is still nothing).
pub fn judge_rung(qps: u64, served: &[Served], limit_ns: u64) -> Rung {
    assert!(!served.is_empty(), "a rung needs arrivals");
    let shed = served.iter().filter(|s| s.latency_ns.is_none()).count();
    let incomplete = served.iter().filter(|s| !s.complete).count();
    let lat: Vec<u64> = served.iter().filter_map(|s| s.latency_ns).collect();
    if lat.is_empty() {
        return Rung {
            qps,
            n: served.len(),
            mean_ns: 0.0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            shed,
            incomplete,
            backlog_ratio: f64::INFINITY,
            meets: false,
        };
    }
    let decile = (lat.len() / 10).max(1);
    let first = median(&lat[..decile]).max(1);
    let last = median(&lat[lat.len() - decile..]);
    let backlog_ratio = last as f64 / first as f64;
    let s = sorted(&lat);
    let p95_ns = percentile(&s, 95.0).0;
    Rung {
        qps,
        n: served.len(),
        mean_ns: mean(&lat),
        p50_ns: percentile(&s, 50.0).0,
        p95_ns,
        p99_ns: percentile(&s, 99.0).0,
        shed,
        incomplete,
        backlog_ratio,
        meets: shed == 0
            && incomplete == 0
            && p95_ns <= limit_ns
            && (backlog_ratio <= 2.0 || last <= limit_ns / 10),
    }
}

/// The highest rate on the ladder that meets the rule (0 when none does).
pub fn slo_qps(rungs: &[Rung]) -> u64 {
    rungs
        .iter()
        .filter(|r| r.meets)
        .map(|r| r.qps)
        .max()
        .unwrap_or(0)
}

/// A Poisson arrival pattern at unit rate: cumulative exponential gaps.
/// Every rung of a ladder scales the same pattern ([`at_rate`]), so the
/// rungs see the same bursts, only compressed in time, and latency rises
/// with the rate instead of jumping with each rung's luck.
pub fn unit_poisson(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln();
            t
        })
        .collect()
}

/// The arrival instants, in virtual nanoseconds, of a unit-rate pattern
/// played at `qps`.
pub fn at_rate(unit: &[f64], qps: u64) -> Vec<u64> {
    unit.iter().map(|t| (t * 1e9 / qps as f64) as u64).collect()
}

/// Evenly spaced arrival instants at `qps`: an open loop on a fixed
/// schedule. A Poisson stream of a few hundred arrivals does not average
/// out (its bursts alone move a p95 by a fifth from seed to seed), so the
/// short ladders use this one.
pub fn even_arrivals(n: usize, qps: u64) -> Vec<u64> {
    (1..=n as u64).map(|i| i * 1_000_000_000 / qps).collect()
}

/// `0..len` repeated in freshly shuffled order until at least `at_least`
/// indices are out; whole repeats only, so every query weighs the same.
pub fn shuffled_repeats(len: usize, at_least: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(len > 0, "nothing to repeat");
    let mut out = Vec::with_capacity(at_least + len);
    while out.len() < at_least {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, rng.below(i + 1));
        }
        out.extend(order);
    }
    out
}

/// A stream of `len` ranks in `0..items` whose popularity follows
/// Zipf(`exponent`) exactly, in `segments` consecutive segments. Rank
/// `r` appears its expected number of times (largest remainders take the
/// rounding), its appearances are dealt to the segments as evenly as
/// integers allow, and only the order inside a segment is drawn from
/// `rng`. Returns the stream and where each segment after the first
/// starts. Independent draws would let the count of each rare, expensive
/// query, and the number of segments it falls into, wander from seed to
/// seed and move every mean by several per cent; here every seed issues
/// the same multiset in every segment.
pub fn zipf_stream(
    items: usize,
    exponent: f64,
    len: usize,
    segments: usize,
    rng: &mut Rng,
) -> (Vec<usize>, Vec<usize>) {
    let weights: Vec<f64> = (1..=items).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items).collect();
    by_remainder.sort_by(|&a, &b| {
        expected[b]
            .fract()
            .total_cmp(&expected[a].fract())
            .then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut stream = Vec::with_capacity(len);
    let mut starts = Vec::with_capacity(segments.saturating_sub(1));
    for seg in 0..segments {
        let first = stream.len();
        if seg > 0 {
            starts.push(first);
        }
        for (r, &c) in counts.iter().enumerate() {
            // Rank r's share of this segment; the phase spreads the
            // single appearances of the tail over all segments.
            let upto = |s: usize| (c * s + r % segments) / segments;
            stream.extend(std::iter::repeat_n(r, upto(seg + 1) - upto(seg)));
        }
        for i in (first + 1..stream.len()).rev() {
            stream.swap(i, first + rng.below(i - first + 1));
        }
    }
    (stream, starts)
}

/// FNV-1a over 64-bit words: stable across runs, hosts and toolchains,
/// which std's hasher does not promise.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 95.0), (190, true));
        assert_eq!(percentile(&v, 50.0), (100, true));
        // p99 of 200 leaves two samples beyond it.
        assert_eq!(percentile(&v, 99.0), (198, false));
        let small: Vec<u64> = (1..=199).collect();
        assert!(
            !percentile(&small, 95.0).1,
            "199 samples leave only nine beyond p95"
        );
        assert_eq!(percentile(&[7], 95.0), (7, false));
    }

    fn served(lat: impl IntoIterator<Item = u64>) -> Vec<Served> {
        lat.into_iter()
            .map(|l| Served {
                latency_ns: Some(l),
                complete: true,
            })
            .collect()
    }

    #[test]
    fn rung_rule_rejects_tail_backlog_shed_and_partial_answers() {
        let flat = served((0..400).map(|i| 1_000 + i % 7));
        assert!(judge_rung(100, &flat, 2_000).meets);
        assert!(!judge_rung(100, &flat, 1_000).meets, "p95 over the limit");

        // Every latency is inside the limit, but the queue keeps growing.
        let growing = served((0..400).map(|i| 1_000 + i * 10));
        let r = judge_rung(100, &growing, 10_000);
        assert!(r.backlog_ratio > 2.0 && !r.meets);
        // The same growth is immaterial against a limit a thousand times
        // the latencies.
        assert!(judge_rung(100, &growing, 10_000_000).meets);

        let mut shed = flat.clone();
        shed[17].latency_ns = None;
        assert!(!judge_rung(100, &shed, 2_000).meets);
        let mut partial = flat.clone();
        partial[3].complete = false;
        assert!(!judge_rung(100, &partial, 2_000).meets);

        let rungs = vec![
            judge_rung(100, &flat, 2_000),
            judge_rung(200, &flat, 2_000),
            judge_rung(300, &growing, 10_000),
        ];
        assert_eq!(slo_qps(&rungs), 200);
        assert_eq!(slo_qps(&rungs[2..]), 0);
    }

    #[test]
    fn equal_seeds_give_equal_streams() {
        let unit = unit_poisson(500, &mut Rng::new(9));
        assert_eq!(unit, unit_poisson(500, &mut Rng::new(9)));
        assert_ne!(unit, unit_poisson(500, &mut Rng::new(10)));
        let a = at_rate(&unit, 250);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Twice the rate is the same pattern in half the time.
        assert!(at_rate(&unit, 500)
            .iter()
            .zip(&a)
            .all(|(&fast, &slow)| fast.abs_diff(slow / 2) <= 1));
        // Mean gap of 4 ms at 250 qps, within sampling error.
        let mean_gap = *a.last().unwrap() as f64 / 500.0;
        assert!((3.4e6..4.6e6).contains(&mean_gap), "{mean_gap}");

        let s = shuffled_repeats(7, 20, &mut Rng::new(3));
        assert_eq!(s, shuffled_repeats(7, 20, &mut Rng::new(3)));
        assert_eq!(s.len(), 21);
        for chunk in s.chunks(7) {
            assert_eq!(
                sorted(&chunk.iter().map(|&i| i as u64).collect::<Vec<_>>()),
                (0..7).collect::<Vec<u64>>()
            );
        }
    }

    #[test]
    fn zipf_stream_has_exact_counts_and_a_seeded_order() {
        let (a, starts) = zipf_stream(100, 1.0, 1_000, 4, &mut Rng::new(4));
        assert_eq!(
            (a.clone(), starts.clone()),
            zipf_stream(100, 1.0, 1_000, 4, &mut Rng::new(4))
        );
        let (b, starts_b) = zipf_stream(100, 1.0, 1_000, 4, &mut Rng::new(5));
        assert_ne!(a, b, "the order follows the seed");
        assert_eq!(starts, starts_b, "the segments do not");
        assert_eq!((a.len(), starts.len()), (1_000, 3));
        let count = |s: &[usize], r: usize| s.iter().filter(|&&x| x == r).count();
        // H(100) = 5.187: rank 1 expects 192.8 draws, rank 2 half of that.
        assert_eq!((count(&a, 0), count(&a, 1)), (193, 96));
        let bounds: Vec<usize> = [0].into_iter().chain(starts).chain([1_000]).collect();
        for w in bounds.windows(2) {
            let (seg_a, seg_b) = (&a[w[0]..w[1]], &b[w[0]..w[1]]);
            for r in 0..100 {
                assert_eq!(
                    count(seg_a, r),
                    count(seg_b, r),
                    "every seed, the same multiset"
                );
            }
            assert!(
                (48..=49).contains(&count(seg_a, 0)),
                "193 dealt evenly over four segments"
            );
        }
        // A rank that appears once lands in the segment its phase names,
        // so the tail's single appearances spread over all segments.
        let (thin, starts) = zipf_stream(100, 1.0, 300, 4, &mut Rng::new(4));
        let bounds: Vec<usize> = [0].into_iter().chain(starts).chain([300]).collect();
        let once: Vec<usize> = (0..100).filter(|&r| count(&thin, r) == 1).collect();
        assert!(once.len() > 20);
        for r in once {
            assert_eq!(count(&thin[bounds[3 - r % 4]..bounds[4 - r % 4]], r), 1);
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        for w in [1u64, 2, 3] {
            a.word(w);
        }
        for w in [1u64, 3, 2] {
            b.word(w);
        }
        assert_ne!(a.hex(), b.hex());
        // Published FNV-1a 64 test vector for the one-byte input "a".
        let mut c = Digest::default();
        c.byte(b'a');
        assert_eq!(c.hex(), "af63dc4c8601ec8c");
    }
}

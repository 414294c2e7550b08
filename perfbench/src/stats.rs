//! The benchmark's own statistics: per-job latencies with failures counted
//! as +∞, percentiles that exist only with enough samples beyond them, and
//! throughput as a median over slices of the timed window.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// One attempted job: when it ran, and whether its output matched the
/// reference.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl Job {
    /// The job's latency in milliseconds; a failed or refused job missed
    /// every latency limit, so it counts as +∞.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.end - self.start).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// The latencies of a set of jobs, sorted ascending (+∞ last).
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn new(mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        Latencies(ms)
    }

    pub fn of(jobs: &[Job]) -> Self {
        Latencies::new(jobs.iter().map(Job::latency_ms).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest rank (1-based) of the `q`-quantile, 0 < q < 1.
    fn rank(&self, q: f64) -> usize {
        ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len().max(1))
    }

    /// How many samples lie strictly beyond the `q`-quantile.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len().saturating_sub(self.rank(q))
    }

    /// The `q`-quantile by the nearest-rank rule, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        (self.beyond(q) >= MIN_BEYOND).then(|| self.0[self.rank(q) - 1])
    }

    /// The share of samples at or below `ms`.
    pub fn rank_of(&self, ms: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.partition_point(|&x| x <= ms) as f64 / self.0.len() as f64
    }
}

/// Jobs whose output matched the reference, over jobs attempted.
pub fn ok_frac(jobs: &[Job]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().filter(|j| j.ok).count() as f64 / jobs.len() as f64
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completed jobs per second: the median over `slice`-long slices of the
/// window `[from, to)`. A job contributes to each slice the share of its
/// run that falls inside it, so a 60 ms job straddling two slices is not
/// counted whole in one of them; a failed job contributes nothing. The
/// median over slices ignores a short slow phase that a wall-clock total
/// would average in.
pub fn jobs_per_s(jobs: &[Job], from: Instant, to: Instant, slice: Duration) -> f64 {
    let window = to.saturating_duration_since(from).as_secs_f64();
    let width = slice.as_secs_f64();
    let slices = ((window / width).floor() as usize).max(1);
    let mut done = vec![0.0f64; slices];
    for job in jobs.iter().filter(|j| j.ok) {
        let a = job.start.saturating_duration_since(from).as_secs_f64();
        let b = job.end.saturating_duration_since(from).as_secs_f64();
        let span = (b - a).max(1e-12);
        let first = ((a / width) as usize).min(slices - 1);
        let last = ((b / width) as usize).min(slices - 1);
        for (i, slot) in done.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = a.max(i as f64 * width);
            let hi = b.min((i + 1) as f64 * width);
            if hi > lo {
                *slot += (hi - lo) / span;
            }
        }
    }
    median(&done.iter().map(|d| d / width).collect::<Vec<_>>())
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(latencies_ms: &[u64], failed: usize) -> Vec<Job> {
        let t0 = Instant::now();
        let mut at = t0;
        let mut out = Vec::new();
        for (i, &ms) in latencies_ms.iter().enumerate() {
            let end = at + Duration::from_millis(ms);
            out.push(Job {
                start: at,
                end,
                ok: i >= failed,
            });
            at = end;
        }
        out
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly ten beyond it, p99 only one.
        let l = Latencies::new((1..=100).map(f64::from).collect());
        assert_eq!(l.percentile(0.5), Some(50.0));
        assert_eq!(l.percentile(0.9), Some(90.0));
        assert_eq!(l.percentile(0.99), None);
        // 19 samples: the median has nine beyond it.
        let l = Latencies::new((1..=19).map(f64::from).collect());
        assert_eq!(l.percentile(0.5), None);
        assert_eq!(Latencies::default().percentile(0.5), None);
    }

    #[test]
    fn failed_jobs_count_against_ok_frac_and_as_infinite_latency() {
        let js = jobs(&[5; 40], 4);
        assert!((ok_frac(&js) - 0.9).abs() < 1e-12);
        let l = Latencies::of(&js);
        // The four failures sit at the top as +∞ ...
        assert!(l.0[36..].iter().all(|x| x.is_infinite()));
        // ... so enough failures push a percentile to +∞.
        assert_eq!(l.percentile(0.5), Some(5.0));
        let failed_half = jobs(&[5; 40], 25);
        assert_eq!(
            Latencies::of(&failed_half).percentile(0.5),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn failed_jobs_complete_nothing() {
        let rate = |js: &[Job]| jobs_per_s(js, js[0].start, js[19].end, Duration::from_secs(1));
        let all = rate(&jobs(&[100; 20], 0));
        let half = rate(&jobs(&[100; 20], 10));
        assert!((all - 10.0).abs() < 1e-9, "{all}");
        // Slice 0 holds the ten failed jobs, slice 1 the ten good ones.
        assert!((half - 5.0).abs() < 1e-9, "{half}");
    }

    #[test]
    fn throughput_is_a_median_over_slices() {
        // Ten 100 ms jobs per second for four seconds, then one second in
        // which a single job took the whole second: the slow phase does
        // not move the median.
        let mut lat = vec![100; 40];
        lat.push(1000);
        let js = jobs(&lat, 0);
        let rate = jobs_per_s(&js, js[0].start, js[40].end, Duration::from_secs(1));
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn rank_of_locates_a_value() {
        let l = Latencies::new((1..=10).map(f64::from).collect());
        assert_eq!(l.rank_of(0.5), 0.0);
        assert_eq!(l.rank_of(5.0), 0.5);
        assert_eq!(l.rank_of(100.0), 1.0);
    }
}

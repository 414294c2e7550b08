//! Per-layer records of the traced run: each job's time in every layer it
//! called, timed from outside around the layer's public function, plus
//! counts recorded at the same boundaries.

use std::collections::BTreeMap;
use std::time::Instant;

/// Run `f` and return its result with its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// The times one job spent in each layer, summed over the calls it made.
#[derive(Default)]
pub struct Span(BTreeMap<String, f64>);

impl Span {
    pub fn add(&mut self, layer: impl Into<String>, ms: f64) {
        *self.0.entry(layer.into()).or_default() += ms;
    }

    /// The job's time in one layer (0 if it never called it).
    pub fn get(&self, layer: &str) -> f64 {
        self.0.get(layer).copied().unwrap_or(0.0)
    }

    /// The job's time summed over every layer it called.
    pub fn total(&self) -> f64 {
        self.0.values().sum()
    }
}

/// All jobs' spans, and the run's counts.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Keep one job's span: each layer gets one sample, its total in the job.
    pub fn push(&mut self, span: Span) {
        for (layer, ms) in span.0 {
            self.times.entry(layer).or_default().push(ms);
        }
    }

    /// Take over another recorder's samples and counts.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.times {
            self.times.entry(name).or_default().extend(values);
        }
        self.counts.extend(other.counts);
    }

    /// One sample of a value measured once per job or per design.
    pub fn sample(&mut self, name: impl Into<String>, value: f64) {
        self.times.entry(name.into()).or_default().push(value);
    }

    /// The latest sample of `name` (0 if none).
    pub fn last(&self, name: &str) -> f64 {
        self.times
            .get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(0.0)
    }

    /// A count or ratio; it must repeat exactly for a given seed.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.insert(name.into(), value);
    }

    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// Every layer's median over its samples, then the counts.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self
            .times
            .iter()
            .map(|(k, v)| (k.clone(), crate::stats::median(v)))
            .collect();
        out.extend(self.counts.iter().map(|(k, v)| (k.clone(), *v)));
        out
    }
}

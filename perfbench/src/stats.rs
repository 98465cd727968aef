//! Order statistics over timing samples.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of `samples` (sorted in place); `0` when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (sorted in place); `0` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median nanoseconds per item of `f`, which handles `items` items per
/// call: warm up once, then time repeated calls for at least `budget`
/// (and at least five calls).
pub fn ns_per_item(items: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut per_item = Vec::new();
    let start = Instant::now();
    while per_item.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        per_item.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(&mut per_item)
}

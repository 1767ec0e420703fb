//! Order statistics and samples of the benchmark process taken from
//! `/proc/self`.

use std::io;

/// Nearest-rank percentile `p` (0–100) of unsorted samples; NaN when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle samples of
/// an even count; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Fewest reads per sub-window: p95 then has ten samples beyond it.
const MIN_CHUNK: usize = 200;
/// Most sub-windows a window is split into.
const MAX_CHUNKS: usize = 4;

/// Throughput and latency of a window, each the median over up to four
/// sub-windows, so that a stall confined to one of them does not move
/// the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Completions per second.
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub chunks: usize,
}

/// Summarises reads given as (completion time since the window started,
/// latency): the window is cut into `k` equal time slices for the
/// throughput and the reads into `k` equal runs in completion order for
/// the percentiles, with `k` as large as keeps at least 200 reads per
/// run, up to four.
pub fn summarize(reads: &[(f64, f64)], elapsed_s: f64) -> Summary {
    let mut reads = reads.to_vec();
    reads.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = (reads.len() / MIN_CHUNK).clamp(1, MAX_CHUNKS);
    let slice = elapsed_s / k as f64;
    let qps: Vec<f64> = (0..k)
        .map(|i| {
            let (lo, hi) = (i as f64 * slice, (i + 1) as f64 * slice);
            let last = i + 1 == k;
            let n = reads
                .iter()
                .filter(|r| r.0 >= lo && (r.0 < hi || last))
                .count();
            n as f64 / slice
        })
        .collect();
    let per = reads.len().div_ceil(k).max(1);
    let (mut p50, mut p95) = (Vec::new(), Vec::new());
    for chunk in reads.chunks(per) {
        let lat: Vec<f64> = chunk.iter().map(|r| r.1).collect();
        p50.push(median(&lat));
        p95.push(percentile(&lat, 95.0));
    }
    Summary {
        qps: median(&qps),
        p50_ms: median(&p50),
        p95_ms: median(&p95),
        chunks: k,
    }
}

/// Open file descriptors, threads and peak resident set of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSample {
    pub fds: usize,
    pub threads: usize,
    pub hwm_kb: u64,
}

pub fn proc_sample() -> io::Result<ProcSample> {
    let fds = std::fs::read_dir("/proc/self/fd")?.count();
    let status = std::fs::read_to_string("/proc/self/status")?;
    let field = |key: &str| -> io::Result<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("/proc/self/status has no {key}")))
    };
    Ok(ProcSample {
        fds,
        threads: field("Threads:")? as usize,
        hwm_kb: field("VmHWM:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn summary_takes_medians_over_sub_windows() {
        // 100 reads/s for 12 s, with a stall in the second quarter that
        // halves the throughput and multiplies latency by ten.
        let stalled = |t: f64| (3.0..6.0).contains(&t);
        let reads: Vec<(f64, f64)> = (0..1200)
            .map(|i| (i as f64 / 100.0, 2.0 + (i % 10) as f64 * 0.1))
            .filter(|&(t, _)| !stalled(t) || ((t * 100.0).round() as usize).is_multiple_of(2))
            .map(|(t, lat)| (t, if stalled(t) { lat * 10.0 } else { lat }))
            .collect();
        let s = summarize(&reads, 12.0);
        assert_eq!(s.chunks, 4);
        assert!((s.qps - 100.0).abs() < 1.0, "{s:?}");
        assert!(s.p50_ms < 3.0 && s.p95_ms < 3.0, "{s:?}");
        let few = summarize(&[(0.5, 1.0), (1.0, 3.0)], 1.0);
        assert_eq!((few.chunks, few.qps, few.p50_ms), (1, 2.0, 2.0));
    }

    #[test]
    fn proc_sample_reads_this_process() {
        let s = proc_sample().unwrap();
        assert!(s.fds >= 3 && s.threads >= 1 && s.hwm_kb > 0, "{s:?}");
    }
}

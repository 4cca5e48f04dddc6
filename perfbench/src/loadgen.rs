//! Open-loop load generation with due-time accounting, the closed-loop
//! pass, and the rate-ladder rule.
//!
//! Open loop: request `i` is due at `start + i / rate` whatever happened
//! to earlier requests. At most `workers` requests are in flight; when
//! they are all busy, later requests go out late, and their latency is
//! still timed from when they were due — so a stall shows up in every
//! request queued behind it, as it would for independent users.

use crate::stats;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The latency limit the ladder holds p99 to (the repo's own
/// `--slo p99=5ms` example).
pub const P99_LIMIT_MS: f64 = 5.0;

/// Growth of the median lateness from the first to the last quarter of
/// a step beyond which the backlog counts as growing.
pub const BACKLOG_GROWTH_MS: f64 = 1.0;

/// One request of an open-loop phase, times in microseconds from the
/// phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due_us: u64,
    /// When a worker actually sent it.
    pub sent_us: u64,
    /// When its response was complete and checked.
    pub done_us: u64,
    /// Whether the response was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time; a failed request misses every limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done_us - self.due_us) as f64 / 1000.0
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent_us.saturating_sub(self.due_us) as f64 / 1000.0
    }
}

/// Runs `n` requests at `rate` per second on `workers` threads;
/// `call(i)` performs request `i` and reports whether it was correct.
/// Samples come back in due order.
pub fn open_loop<F>(rate: f64, n: usize, workers: usize, call: F) -> Vec<Sample>
where
    F: Fn(usize) -> bool + Sync,
{
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let all = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let due = Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed();
                    let ok = call(i);
                    let done = start.elapsed();
                    mine.push(Sample {
                        due_us: due.as_micros() as u64,
                        sent_us: sent.as_micros() as u64,
                        done_us: done.as_micros() as u64,
                        ok,
                    });
                }
                all.lock().expect("sample lock poisoned").extend(mine);
            });
        }
    });
    let mut samples = all.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|s| s.due_us);
    samples
}

/// Runs `n` requests back to back on `workers` threads (a closed loop:
/// each worker sends its next request when the previous one returns).
/// Returns the requests that failed.
pub fn closed_loop<F>(n: usize, workers: usize, call: F) -> usize
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if !call(i) {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    failed.into_inner()
}

/// What one open-loop phase (or ladder step) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests attempted.
    pub n: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Latency from due time, ascending (failures are infinite).
    pub latency_ms: Vec<f64>,
    /// Generator lateness, ascending.
    pub late_ms: Vec<f64>,
    /// Whether lateness grew from the first to the last quarter.
    pub backlog_growing: bool,
}

impl Phase {
    /// Summarises samples in due order.
    pub fn from_samples(rate: f64, samples: &[Sample]) -> Phase {
        let mut latency_ms: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        latency_ms.sort_by(f64::total_cmp);
        let mut late_ms: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        let backlog_growing = backlog_growing(&late_ms);
        late_ms.sort_by(f64::total_cmp);
        Phase {
            rate,
            n: samples.len(),
            failed: samples.iter().filter(|s| !s.ok).count(),
            latency_ms,
            late_ms,
            backlog_growing,
        }
    }

    /// Nearest-rank latency percentile.
    pub fn latency(&self, p: f64) -> Option<f64> {
        stats::nearest_rank(&self.latency_ms, p)
    }

    /// Whether this step meets the ladder rule: p99 within the limit
    /// (failures count as misses) and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.latency(99.0).is_some_and(|p99| p99 <= P99_LIMIT_MS) && !self.backlog_growing
    }
}

/// Whether lateness, in due order, grew by more than
/// [`BACKLOG_GROWTH_MS`] between the first and the last quarter.
pub fn backlog_growing(late_in_due_order: &[f64]) -> bool {
    let q = late_in_due_order.len() / 4;
    if q == 0 {
        return false;
    }
    let first = stats::median(&late_in_due_order[..q]).unwrap_or(0.0);
    let last = stats::median(&late_in_due_order[late_in_due_order.len() - q..]).unwrap_or(0.0);
    last - first > BACKLOG_GROWTH_MS
}

/// The highest rate of an ascending ladder that meets the rule, stopping
/// at the first step that does not; 0 if the first step fails.
pub fn max_rate(steps: &[Phase]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets_slo())
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One `GET` over a fresh connection (the daemon answers
/// `Connection: close`); returns the full response bytes.
pub fn fetch(addr: SocketAddr, target: &str) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = Vec::with_capacity(1024);
    stream.read_to_end(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, latency_ms: &[f64], backlog_growing: bool) -> Phase {
        let mut sorted = latency_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        Phase {
            rate,
            n: latency_ms.len(),
            failed: latency_ms.iter().filter(|l| l.is_infinite()).count(),
            latency_ms: sorted,
            late_ms: vec![0.0; latency_ms.len()],
            backlog_growing,
        }
    }

    #[test]
    fn one_stalled_response_delays_the_requests_due_behind_it() {
        // One worker, one request per millisecond; request 5 stalls 50 ms.
        let samples = open_loop(1_000.0, 80, 1, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(50));
            }
            true
        });
        assert_eq!(samples.len(), 80);
        // Request 6 was due 1 ms after the stall began, so it waited about
        // 49 ms: far longer than its own service time.
        let s6 = samples[6];
        assert!(s6.latency_ms() >= 45.0, "{s6:?}");
        assert!(s6.late_ms() >= 45.0, "{s6:?}");
        assert!(s6.latency_ms() - s6.late_ms() < s6.late_ms(), "{s6:?}");
        // The backlog drains: the last request, due 79 ms in, waits less.
        assert!(
            samples[79].latency_ms() < s6.latency_ms(),
            "{:?}",
            samples[79]
        );
        let p = Phase::from_samples(1_000.0, &samples);
        assert!(p.latency(99.0).expect("samples") >= 45.0);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let samples = open_loop(10_000.0, 100, 2, |i| i != 3);
        let p = Phase::from_samples(10_000.0, &samples);
        assert_eq!(p.failed, 1);
        assert_eq!(p.latency(100.0), Some(f64::INFINITY));
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarter() {
        let steady: Vec<f64> = (0..100).map(|i| (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        assert!(backlog_growing(&growing));
        assert!(!backlog_growing(&[50.0, 0.0]));
    }

    #[test]
    fn ladder_stops_at_the_first_step_that_misses() {
        let ok = vec![1.0; 1_000];
        let mut slow = vec![1.0; 1_000];
        slow[995] = 9.0; // p99 (rank 990) still fine...
        let mut slower = vec![1.0; 1_000];
        for l in slower.iter_mut().skip(985) {
            *l = 9.0; // ...but here p99 exceeds 5 ms
        }
        let steps = [
            phase(1_000.0, &ok, false),
            phase(2_000.0, &slow, false),
            phase(3_000.0, &slower, false),
            phase(4_000.0, &ok, false), // a later pass does not count
        ];
        assert_eq!(max_rate(&steps), 2_000.0);
        // A growing backlog fails a step even with a good p99.
        assert_eq!(
            max_rate(&[phase(1_000.0, &ok, false), phase(2_000.0, &ok, true)]),
            1_000.0
        );
        // A failed request is a miss.
        let mut failing = ok.clone();
        for l in failing.iter_mut().skip(980) {
            *l = f64::INFINITY;
        }
        assert_eq!(max_rate(&[phase(1_000.0, &failing, false)]), 0.0);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_failures_over_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(40, 0), 0.0);
        assert_eq!(failed_ratio(40, 2), 0.05);
        let failed = closed_loop(50, 2, |i| i % 10 != 0);
        assert_eq!(failed, 5);
    }
}

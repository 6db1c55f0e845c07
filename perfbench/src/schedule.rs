//! Open-loop arrival schedules and the ladder/SLO decision.
//!
//! A serve workload offers load at a fixed ladder of absolute rates. Each
//! rung sends on a schedule that does not depend on how fast the server
//! answers (an open loop), and every latency is timed from the request's
//! *scheduled* send, so a stall also charges the requests queued behind it.

use snails_bench::Percentiles;

/// Send offsets, in nanoseconds from the start of a rung, for `rate`
/// requests per second over `millis` milliseconds: request `i` is due at
/// `i / rate` seconds. Integer arithmetic, so the schedule is exact and
/// identical on every run.
pub fn send_offsets_ns(rate: u64, millis: u64) -> Vec<u64> {
    let n = rate * millis / 1000;
    (0..n).map(|i| i * 1_000_000_000 / rate).collect()
}

/// What one rung measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed: shed, `Internal`/`Transient`, or never answered.
    pub failed: u64,
    /// Latency from scheduled send to response over the whole rung,
    /// nanoseconds. Failed requests count as missing the limit.
    pub latency: Percentiles,
    /// The same latencies cut into windows, each window's p50 and p99
    /// summarised over windows.
    pub windowed: Windowed,
    /// How late the generator sent, nanoseconds (nearest-rank p99).
    pub lag_p99_ns: u64,
    /// Requests outstanding (sent, unanswered) when the rung started.
    pub backlog_start: u64,
    /// Requests outstanding right after the rung's last scheduled send.
    pub backlog_end: u64,
    /// Answers delivered per second over the rung (first scheduled send to
    /// last answer).
    pub achieved_rps: f64,
}

/// Fewest requests in a p99 window: the nearest-rank p99 of 1000 samples
/// has ten samples beyond it.
pub const MIN_WINDOW: usize = 1000;

/// Requests in a p50 window: a steady median, and short enough (half a
/// second at `serve_sql`'s nominal rate) that some windows fall between
/// the host's bursts.
pub const P50_WINDOW: usize = 250;

/// Per-window percentiles summarised over windows, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Windowed {
    /// p50 windows measured.
    pub p50_windows: u64,
    /// Lower decile (nearest rank) of the p50s of windows of
    /// [`P50_WINDOW`] requests.
    pub p50_low: u64,
    /// p99 windows measured.
    pub p99_windows: u64,
    /// Median of the p99s of windows of `window` requests.
    pub p99_median: u64,
}

/// Nearest-rank `p`th percentile of `samples` (sorted in place).
fn rank(samples: &mut [u64], p: usize) -> u64 {
    samples.sort_unstable();
    samples[(samples.len() * p).div_ceil(100).max(1) - 1]
}

/// The `p`th percentile of each window of `window` requests, in order. A
/// short tail joins the last window; too few requests make one window.
fn per_window(latencies: &[u64], window: usize, p: usize) -> Vec<u64> {
    let n = (latencies.len() / window).max(1);
    (0..n)
        .map(|w| {
            let end = if w + 1 == n {
                latencies.len()
            } else {
                (w + 1) * window
            };
            rank(&mut latencies[w * window..end].to_vec(), p)
        })
        .collect()
}

/// Summarise `latencies` (in schedule order) over windows. Host noise
/// only ever adds latency, and it comes in bursts, so the p50 is read
/// through the quietest tenth of half-second windows. The p99 is the
/// median over windows of `window` requests (at least [`MIN_WINDOW`]),
/// so a burst moves only the windows it overlaps.
pub fn windowed(latencies: &[u64], window: usize) -> Windowed {
    if latencies.is_empty() {
        return Windowed::default();
    }
    let mut p50s = per_window(latencies, P50_WINDOW, 50);
    let mut p99s = per_window(latencies, window.max(MIN_WINDOW), 99);
    Windowed {
        p50_windows: p50s.len() as u64,
        p50_low: rank(&mut p50s, 10),
        p99_windows: p99s.len() as u64,
        p99_median: rank(&mut p99s, 50),
    }
}

/// The fixed limits a rung is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// Latency limit on the p99, nanoseconds.
    pub p99_limit_ns: u64,
    /// Generator lateness beyond which a rung is invalid, nanoseconds (p99).
    pub lag_limit_ns: u64,
}

impl RungOutcome {
    /// The generator kept to its schedule, so the rung measured the server.
    pub fn valid(&self, slo: &Slo) -> bool {
        self.lag_p99_ns <= slo.lag_limit_ns
    }

    /// More requests were left outstanding than the server could answer
    /// within the latency limit at this rate: the queue is growing.
    pub fn backlog_grew(&self, slo: &Slo) -> bool {
        let allowance = self.rate * slo.p99_limit_ns / 1_000_000_000;
        self.backlog_end.saturating_sub(self.backlog_start) > allowance.max(1)
    }

    /// The rung meets the service level: valid, no failed operation, p99
    /// within the limit, and no growing backlog.
    pub fn passes(&self, slo: &Slo) -> bool {
        self.valid(slo)
            && self.failed == 0
            && self.sent > 0
            && self.latency.p99 <= slo.p99_limit_ns
            && !self.backlog_grew(slo)
    }
}

/// Index of the highest rung that meets the service level, if any.
pub fn slo_rung(rungs: &[RungOutcome], slo: &Slo) -> Option<usize> {
    rungs.iter().rposition(|r| r.passes(slo))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLO: Slo = Slo {
        p99_limit_ns: 20_000_000,
        lag_limit_ns: 2_000_000,
    };

    fn rung(rate: u64, latencies_ms: &[u64]) -> RungOutcome {
        let mut ns: Vec<u64> = latencies_ms.iter().map(|ms| ms * 1_000_000).collect();
        RungOutcome {
            rate,
            sent: ns.len() as u64,
            latency: Percentiles::of(&mut ns),
            ..RungOutcome::default()
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_and_exact() {
        let s = send_offsets_ns(1000, 2500);
        assert_eq!(s.len(), 2500);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 1_000_000);
        assert_eq!(*s.last().unwrap(), 2_499_000_000);
        // A rate that does not divide a second still lands every send
        // inside the rung, in order.
        let s = send_offsets_ns(3, 1000);
        assert_eq!(s, vec![0, 333_333_333, 666_666_666]);
        let s = send_offsets_ns(650, 4000);
        assert_eq!(s.len(), 2600);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 4_000_000_000);
        assert!(send_offsets_ns(10, 50).is_empty());
    }

    #[test]
    fn ladder_picks_the_highest_passing_rung() {
        let fast: Vec<u64> = vec![1; 1000];
        let mut slow = fast.clone();
        slow[985..].fill(50); // p99 = 50 ms > 20 ms
        let rungs = vec![rung(100, &fast), rung(200, &fast), rung(400, &slow)];
        assert_eq!(slo_rung(&rungs, &SLO), Some(1));
        assert_eq!(slo_rung(&rungs[2..], &SLO), None);
    }

    #[test]
    fn failures_lag_and_backlog_each_fail_a_rung() {
        let fast: Vec<u64> = vec![1; 1000];
        let ok = rung(100, &fast);
        assert!(ok.passes(&SLO));

        let failed = RungOutcome {
            failed: 1,
            ..ok.clone()
        };
        assert!(!failed.passes(&SLO), "one failed op fails the rung");

        let late = RungOutcome {
            lag_p99_ns: 3_000_000,
            ..ok.clone()
        };
        assert!(!late.valid(&SLO) && !late.passes(&SLO));

        // At 100 rps a 20 ms limit allows 2 outstanding requests.
        let steady = RungOutcome {
            backlog_start: 1,
            backlog_end: 3,
            ..ok.clone()
        };
        assert!(!steady.backlog_grew(&SLO));
        let growing = RungOutcome {
            backlog_start: 1,
            backlog_end: 40,
            ..ok
        };
        assert!(growing.backlog_grew(&SLO) && !growing.passes(&SLO));
    }

    #[test]
    fn windows_take_the_quietest_p50s_and_the_median_p99() {
        const W: usize = MIN_WINDOW;
        // Four deck windows; the second holds a stall. The first 250
        // requests are quieter than the rest.
        let mut lat: Vec<u64> = vec![10; 4 * W];
        lat[W..2 * W].fill(500);
        lat[..P50_WINDOW].fill(8);
        let w = windowed(&lat, W);
        assert_eq!((w.p99_windows, w.p99_median), (4, 10));
        // 16 p50 windows: the lower decile is the second quietest.
        assert_eq!((w.p50_windows, w.p50_low), (16, 10));
        lat[P50_WINDOW..2 * P50_WINDOW].fill(9);
        assert_eq!(windowed(&lat, W).p50_low, 9);
        // Whole-rung percentiles see the stall.
        assert_eq!(Percentiles::of(&mut lat.clone()).p99, 500);
        // A window below the minimum is widened to it.
        assert_eq!(windowed(&lat, 10).p99_windows, 4);
        // A window as long as the rung is the rung.
        assert_eq!(windowed(&lat, 4 * W).p99_windows, 1);
        // 2.5 windows of samples: the tail joins the last window.
        let lat: Vec<u64> = (0..2 * W as u64 + W as u64 / 2).collect();
        assert_eq!(per_window(&lat, W, 50), vec![499, 1749]);
        assert_eq!(
            windowed(&[7, 9], W),
            Windowed {
                p50_windows: 1,
                p50_low: 7,
                p99_windows: 1,
                p99_median: 9
            }
        );
        assert_eq!(windowed(&[], W), Windowed::default());
    }

    #[test]
    fn ranks_are_nearest_rank() {
        assert_eq!(rank(&mut [4, 1, 3, 2], 25), 1);
        assert_eq!(rank(&mut [5, 1, 4, 2, 3], 25), 2);
        assert_eq!(rank(&mut (1..=20).rev().collect::<Vec<u64>>(), 10), 2);
        assert_eq!(rank(&mut [9], 10), 9);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // The ladder reads its p50/p99 from `snails_bench::Percentiles`.
        let r = rung(100, &(1..=200).collect::<Vec<u64>>());
        assert_eq!(r.latency.p50, 100 * 1_000_000);
        assert_eq!(r.latency.p99, 198 * 1_000_000);
        assert_eq!(r.latency.count, 200);
    }
}

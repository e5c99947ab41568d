//! The serve workload's offered-rate ladder and its SLO verdict.
//!
//! The ladder is a fixed geometric sequence of offered rates. Each rung
//! is an open-loop phase; a rung passes when it had no failures, its
//! nearest-rank p99 latency (timed from each request's due time) stays
//! within the limit, and its backlog did not grow across the rung: the
//! delay between a request's due time and its send (the wait for a busy
//! connection) must not climb from the rung's first quarter to its
//! last.
//! `rate_at_slo` is the rate actually served on the highest rung passed
//! before the first failing one.

/// The ladder's base rate (requests/s): the rate `op_ms_p50/p99` are
/// measured at.
pub const BASE_RATE: f64 = 20.0;
/// Ratio between consecutive rungs.
pub const FACTOR: f64 = 1.6;
/// Rungs above the base.
pub const RUNGS: usize = 15;

/// The offered rates, base first.
pub fn rates() -> Vec<f64> {
    (0..=RUNGS)
        .map(|j| BASE_RATE * FACTOR.powi(j as i32))
        .collect()
}

/// How long a rung above the base runs: long enough for ~60 requests,
/// between 0.4 s and 2 s.
pub fn rung_seconds(rate: f64) -> f64 {
    (60.0 / rate).clamp(0.4, 2.0)
}

/// One measured rung.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Successful replies per second actually served on the rung.
    pub achieved: f64,
    /// Per-request latency in ms from its due time, in due order.
    pub latency_ms: Vec<f64>,
    /// Per-request send delay in ms (send time − due time), in due
    /// order.
    pub lag_ms: Vec<f64>,
    /// Requests that failed or were refused.
    pub failed: usize,
}

/// Whether the backlog grew over the rung: the median send delay of
/// its last quarter exceeds that of its first quarter by more than a
/// tenth of the limit. A slow but steady server keeps its send delay
/// flat; an overloaded one falls further behind with every request.
pub fn backlog_grows(lag_ms: &[f64], slo_ms: f64) -> bool {
    let q = lag_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let head = crate::stats::median_or_zero(&lag_ms[..q]);
    let tail = crate::stats::median_or_zero(&lag_ms[lag_ms.len() - q..]);
    tail > head + slo_ms / 10.0
}

/// Whether `rung` meets the limit of `slo_ms`.
pub fn passes(rung: &Rung, slo_ms: f64) -> bool {
    if rung.failed > 0 || rung.latency_ms.is_empty() {
        return false;
    }
    let mut sorted = rung.latency_ms.clone();
    sorted.sort_by(f64::total_cmp);
    crate::stats::nearest_rank(&sorted, 0.99) <= slo_ms && !backlog_grows(&rung.lag_ms, slo_ms)
}

/// The rate served on the highest rung passed before the first failing
/// one (0 when the base fails).
pub fn rate_at_slo(rungs: &[Rung], slo_ms: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| passes(r, slo_ms))
        .last()
        .map_or(0.0, |r| r.achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic rung: a fixed service time against the offered
    /// interval, queueing deterministically on `conns` connections.
    fn synthetic(rate: f64, service_ms: f64, conns: usize, requests: usize) -> Rung {
        let interval = 1e3 / rate * conns as f64;
        let mut free_at = 0.0f64;
        let mut rung = Rung {
            achieved: rate,
            ..Rung::default()
        };
        for i in 0..requests / conns {
            let due = i as f64 * interval;
            let start = free_at.max(due);
            free_at = start + service_ms;
            rung.latency_ms.push(free_at - due);
            rung.lag_ms.push(start - due);
        }
        rung
    }

    #[test]
    fn ladder_is_geometric_from_the_base() {
        let r = rates();
        assert_eq!(r.len(), RUNGS + 1);
        assert_eq!(r[0], BASE_RATE);
        assert!((r[2] / r[1] - FACTOR).abs() < 1e-12);
        assert_eq!(rung_seconds(20.0), 2.0);
        assert_eq!(rung_seconds(10_000.0), 0.4);
    }

    #[test]
    fn a_stalled_server_tops_out_below_its_capacity() {
        // 45 ms per request on 2 connections sustains 2 / 45 ms ≈ 44/s:
        // 20 and 32 pass, 51.2 queues without bound.
        let rungs: Vec<Rung> = rates()
            .into_iter()
            .map(|rate| {
                synthetic(
                    rate,
                    45.0,
                    2,
                    (rate * rung_seconds(rate)).max(60.0) as usize,
                )
            })
            .collect();
        assert!(passes(&rungs[0], 100.0));
        assert!(passes(&rungs[1], 100.0));
        assert!(!passes(&rungs[2], 100.0));
        assert_eq!(rate_at_slo(&rungs, 100.0), 32.0);
    }

    #[test]
    fn a_fast_server_climbs_until_the_queue_grows() {
        // 0.5 ms per request on 2 connections: capacity 4000/s.
        let rungs: Vec<Rung> = rates()
            .into_iter()
            .map(|rate| synthetic(rate, 0.5, 2, (rate * rung_seconds(rate)) as usize))
            .collect();
        let top = rate_at_slo(&rungs, 100.0);
        assert!(top < 4000.0 && top * FACTOR > 4000.0, "top {top}");
    }

    #[test]
    fn failures_and_slow_tails_fail_a_rung() {
        let mut rung = synthetic(20.0, 1.0, 2, 100);
        assert!(passes(&rung, 100.0));
        rung.failed = 1;
        assert!(!passes(&rung, 100.0));
        let mut slow = synthetic(20.0, 1.0, 2, 100);
        slow.latency_ms[10] = 150.0;
        assert!(!passes(&slow, 100.0));
        // A rung cut before its first pass makes the whole ladder 0.
        assert_eq!(rate_at_slo(&[slow, rung], 100.0), 0.0);
    }

    #[test]
    fn backlog_growth_is_detected_before_the_limit() {
        // Send delay creeping from 0 to 30 ms: latency stays under the
        // 100 ms limit, but the queue is growing.
        let creeping: Vec<f64> = (0..100).map(|i| 0.3 * f64::from(i)).collect();
        assert!(backlog_grows(&creeping, 100.0));
        assert!(!backlog_grows(&[0.1; 100], 100.0));
        let rung = Rung {
            achieved: 100.0,
            latency_ms: creeping.iter().map(|l| l + 1.0).collect(),
            lag_ms: creeping,
            failed: 0,
        };
        assert!(!passes(&rung, 100.0));
    }

    #[test]
    fn a_slow_steady_server_is_not_a_backlog() {
        // Half the requests stall 45 ms, but each still finishes before
        // the next is due: latency jumps, the send delay stays flat.
        let mut rung = synthetic(32.0, 0.4, 2, 60);
        for (i, l) in rung.latency_ms.iter_mut().enumerate() {
            if i >= 15 {
                *l += 45.0;
            }
        }
        assert!(passes(&rung, 100.0));
    }
}

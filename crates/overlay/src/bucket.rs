//! The token bucket behind every rate budget an agent keeps: join
//! admission ([`crate::AdmissionConfig`]), cross-tree repair serving and
//! discovery `PeerList` serving ([`crate::DiscoveryConfig`]).

use vdm_netsim::SimTime;

/// Tokens refilled continuously at a caller-given rate up to a
/// caller-given burst; spending one token admits one unit of work.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TokenBucket {
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// A bucket holding `burst` tokens, last refilled at `at`.
    pub(crate) fn full(burst: f64, at: SimTime) -> Self {
        Self {
            tokens: burst,
            refilled_at: at,
        }
    }

    /// Refill for the time elapsed since the last refill at `rate`
    /// tokens per second, clamped at `burst`.
    pub(crate) fn refill(&mut self, now: SimTime, rate: f64, burst: f64) {
        let dt = now.saturating_sub(self.refilled_at).as_secs();
        self.tokens = (self.tokens + dt * rate).min(burst);
        self.refilled_at = now;
    }

    /// Spend one token; `false` (nothing spent) when the bucket holds
    /// less than one.
    pub(crate) fn take(&mut self) -> bool {
        if self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }

    /// Tokens currently held.
    pub(crate) fn tokens(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_clamps_zero_dt_is_a_no_op_and_a_dry_bucket_refuses() {
        let mut b = TokenBucket::full(2.0, SimTime::ZERO);
        b.refill(SimTime::from_secs(100), 5.0, 2.0);
        assert_eq!(b.tokens(), 2.0, "refill clamps at burst");
        assert!(b.take() && b.take());
        b.refill(SimTime::from_secs(100), 5.0, 2.0);
        assert_eq!(b.tokens(), 0.0, "dt = 0 refills nothing");
        assert!(!b.take(), "a dry bucket refuses");
        assert_eq!(b.tokens(), 0.0, "a refusal spends nothing");
        b.refill(SimTime::from_ms(100_200.0), 5.0, 2.0);
        assert!(b.take(), "refilled at rate");
    }
}

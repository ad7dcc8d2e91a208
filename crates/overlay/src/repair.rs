//! NACK-based stream gap repair (proactive-resilience extension).
//!
//! The paper's data plane is fire-and-forget: a chunk lost to an outage
//! (orphaned subtree, message drop) is gone, and
//! [`crate::stats::RecoveryStats::delivery_gaps`] can only report the
//! outage. With repair enabled, every peer keeps a small
//! [`RetransmitRing`] of the chunk sequence numbers it recently
//! forwarded, and a [`GapTracker`] over the sequence numbers it is
//! still missing. A receiver that sees the watermark jump records the
//! skipped sequences as missing and — after a short delay that lets
//! plain reordering settle — NACKs them to its current parent, which
//! answers out of its ring. Chunks recovered this way are forwarded
//! downstream like any other, so repair cascades through a subtree that
//! was dark together. Missing chunks that exhaust their NACK budget (or
//! fall out of the bounded window) are declared lost, which makes the
//! residual loss rate a *post-repair* figure.
//!
//! Everything here is plain bookkeeping: no timers, no randomness. The
//! agent owns scheduling (one repair timer, armed only while something
//! is missing), so runs without a [`RepairConfig`] execute exactly the
//! same event sequence as before the extension existed.

use std::collections::VecDeque;
use vdm_netsim::SimTime;

/// Chunk sequence numbers each peer retains for retransmission.
pub(crate) const RING: usize = 64;
/// Delay between detecting a gap and the first NACK (lets ordinary
/// reordering fill the hole for free).
const NACK_DELAY: SimTime = SimTime(250_000);
/// Spacing between NACK retries for the same chunk.
const NACK_PERIOD: SimTime = SimTime(1_000_000);
/// NACK attempts per missing chunk before giving up.
const NACK_RETRIES: u32 = 3;

/// Tunables of the gap-repair machinery: the lookback window and the
/// stripe this receiver expects. The ring and NACK timing are the
/// constants above.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// How far behind the watermark a missing chunk may trail before it
    /// is declared lost (bounds both memory and NACK traffic after a
    /// long outage).
    pub window: u64,
    /// Stride of the sequence numbers this receiver expects (multi-tree
    /// striping: tree `t` of `k` carries only `seq % k == t`). `1` is
    /// the plain single-tree stream and keeps every computation
    /// identical to the pre-stripe code.
    pub stride: u64,
    /// Residue of this receiver's stripe (`seq % stride == stripe`).
    /// Ignored when `stride <= 1`.
    pub stripe: u64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            window: 64,
            stride: 1,
            stripe: 0,
        }
    }
}

impl RepairConfig {
    /// This config restriped for tree `stripe` of `stride` (multi-tree
    /// sessions; `window` and retry budgets still count chunks).
    pub fn striped(self, stride: u64, stripe: u64) -> Self {
        Self {
            stride: stride.max(1),
            stripe: if stride > 1 { stripe % stride } else { 0 },
            ..self
        }
    }
}

/// Fixed-capacity ascending buffer of the chunk sequence numbers a peer
/// can retransmit. The stream is near-monotone, so inserts are O(1)
/// appends in the common case; the eviction policy is strictly
/// lowest-first (oldest content).
#[derive(Clone, Debug)]
pub struct RetransmitRing {
    cap: usize,
    seqs: VecDeque<u64>,
}

impl RetransmitRing {
    /// Ring holding at most `cap` sequence numbers.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            seqs: VecDeque::with_capacity(cap.max(1)),
        }
    }

    /// Record a forwarded chunk. Duplicates are ignored; the lowest
    /// sequence number is evicted once the ring is full.
    pub fn record(&mut self, seq: u64) {
        match self.seqs.back() {
            Some(&last) if seq > last => self.seqs.push_back(seq),
            Some(_) => {
                // Out-of-order record (a repaired chunk): sorted insert.
                match self.seqs.binary_search(&seq) {
                    Ok(_) => return,
                    Err(pos) => self.seqs.insert(pos, seq),
                }
            }
            None => self.seqs.push_back(seq),
        }
        if self.seqs.len() > self.cap {
            self.seqs.pop_front();
        }
    }

    /// Can `seq` be retransmitted from here?
    pub fn contains(&self, seq: u64) -> bool {
        self.seqs.binary_search(&seq).is_ok()
    }
}

/// One chunk the receiver knows it skipped.
#[derive(Clone, Copy, Debug)]
struct Missing {
    seq: u64,
    /// NACKs already sent for this chunk.
    nacks: u32,
    /// Earliest time the next NACK (or the give-up) may fire.
    due_at: SimTime,
}

/// What [`GapTracker::on_chunk`] decided about an arriving chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkClass {
    /// Advances the watermark; deliver and forward.
    Fresh,
    /// Fills a known hole behind the watermark; deliver and forward.
    Repaired,
    /// Already delivered (or given up on); drop.
    Duplicate,
}

/// Receiver-side bookkeeping of missing chunk sequence numbers.
#[derive(Clone, Debug, Default)]
pub struct GapTracker {
    missing: Vec<Missing>,
    /// Chunks declared lost after exhausting their NACK budget or
    /// falling out of the window (post-repair loss).
    pub lost: u64,
}

impl GapTracker {
    /// Classify an arriving chunk against the watermark `last_seq`
    /// (`None` before the first delivery), recording any newly skipped
    /// sequences as missing. The caller advances the watermark itself
    /// on [`ChunkClass::Fresh`].
    pub fn on_chunk(
        &mut self,
        seq: u64,
        last_seq: Option<u64>,
        now: SimTime,
        cfg: &RepairConfig,
    ) -> ChunkClass {
        match last_seq {
            None => {
                // A chunk pre-registered by `note_absent` arriving as
                // the very first delivery is no longer missing.
                self.resolve(seq);
                ChunkClass::Fresh
            }
            Some(last) if seq > last => {
                // Sequences we jumped over become repair candidates,
                // newest-window only: after a long outage everything
                // older than `window` chunks is lost outright. All
                // arithmetic walks the stripe grid `last + j*stride`
                // (stride 1 == the plain stream, byte-identical to the
                // pre-stripe code).
                let stride = cfg.stride.max(1);
                let span = cfg.window.saturating_mul(stride);
                let first_unseen = last.saturating_add(stride).min(seq);
                let first_wanted = seq.saturating_sub(span).max(first_unseen);
                self.lost = self
                    .lost
                    .saturating_add((first_wanted - first_unseen) / stride);
                let mut s = first_wanted;
                while s < seq {
                    if !self.missing.iter().any(|m| m.seq == s) {
                        self.missing.push(Missing {
                            seq: s,
                            nacks: 0,
                            due_at: now + NACK_DELAY,
                        });
                    }
                    s = match s.checked_add(stride) {
                        Some(n) => n,
                        None => break,
                    };
                }
                // `note_absent` may have registered this chunk (or ones
                // above it) before it arrived through the tree.
                self.resolve(seq);
                // The window also bounds the backlog as the watermark
                // advances past older holes.
                self.expire_below(seq.saturating_sub(span));
                ChunkClass::Fresh
            }
            Some(_) if self.resolve(seq) => ChunkClass::Repaired,
            Some(_) => ChunkClass::Duplicate,
        }
    }

    /// Register stripe chunks up to and including `latest` as missing
    /// without a triggering arrival (multi-tree cross repair: an
    /// orphaned subtree receives *nothing*, so the watermark jump that
    /// normally reveals gaps never happens — the driver tells the
    /// receiver how far its stripe has advanced instead). Walks the
    /// stripe grid downward from `latest`, window-bounded, stopping at
    /// the watermark; already-known holes are left untouched. Returns
    /// how many new holes were registered.
    pub fn note_absent(
        &mut self,
        latest: u64,
        last_seq: Option<u64>,
        now: SimTime,
        cfg: &RepairConfig,
    ) -> usize {
        let stride = cfg.stride.max(1);
        let floor = match last_seq {
            Some(last) => {
                if latest <= last {
                    return 0;
                }
                last.saturating_add(stride)
            }
            None => cfg.stripe,
        };
        let mut added = 0;
        let mut s = latest;
        for _ in 0..cfg.window.max(1) {
            if s < floor {
                break;
            }
            if !self.missing.iter().any(|m| m.seq == s) {
                self.missing.push(Missing {
                    seq: s,
                    nacks: 0,
                    due_at: now + NACK_DELAY,
                });
                added += 1;
            }
            s = match s.checked_sub(stride) {
                Some(n) => n,
                None => break,
            };
        }
        added
    }

    /// Drop the pending entry for `seq` — it arrived through another
    /// path (e.g. the regular tree while a cross-tree NACK was
    /// outstanding, or vice versa). Returns whether it was pending.
    pub fn resolve(&mut self, seq: u64) -> bool {
        let before = self.missing.len();
        self.missing.retain(|m| m.seq != seq);
        self.missing.len() != before
    }

    fn expire_below(&mut self, floor: u64) {
        let before = self.missing.len();
        self.missing.retain(|m| m.seq >= floor);
        self.lost = self
            .lost
            .saturating_add((before - self.missing.len()) as u64);
    }

    /// Collect the sequence numbers whose NACK is due, bumping their
    /// retry state; chunks out of retries are declared lost. Returns
    /// the NACK batch (empty if nothing is due yet).
    pub fn due_nacks(&mut self, now: SimTime) -> Vec<u64> {
        let mut batch = Vec::new();
        let mut lost = 0u64;
        self.missing.retain_mut(|m| {
            if m.due_at > now {
                return true;
            }
            if m.nacks >= NACK_RETRIES {
                lost += 1;
                return false;
            }
            m.nacks += 1;
            m.due_at = now + NACK_PERIOD;
            batch.push(m.seq);
            true
        });
        self.lost = self.lost.saturating_add(lost);
        batch.sort_unstable();
        batch
    }

    /// Earliest pending deadline, for timer arming.
    pub fn next_due(&self) -> Option<SimTime> {
        self.missing.iter().map(|m| m.due_at).min()
    }

    /// Outstanding hole count.
    pub fn pending(&self) -> usize {
        self.missing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RepairConfig {
        RepairConfig::default()
    }

    #[test]
    fn ring_records_evicts_lowest_and_finds() {
        let mut r = RetransmitRing::new(4);
        assert!(r.seqs.is_empty());
        for s in [1, 2, 3, 4] {
            r.record(s);
        }
        assert_eq!(r.seqs.len(), 4);
        r.record(5); // evicts 1
        assert!(!r.contains(1));
        assert!(r.contains(2) && r.contains(5));
        // Out-of-order (repaired) record lands sorted; duplicate is a no-op.
        let mut r = RetransmitRing::new(4);
        r.record(10);
        r.record(12);
        r.record(11);
        r.record(11);
        assert_eq!(r.seqs.len(), 3);
        assert!(r.contains(11));
    }

    #[test]
    fn gap_detection_and_repair_classification() {
        let mut g = GapTracker::default();
        let t = SimTime::from_secs(1);
        assert_eq!(g.on_chunk(1, None, t, &cfg()), ChunkClass::Fresh);
        // 2 and 3 skipped.
        assert_eq!(g.on_chunk(4, Some(1), t, &cfg()), ChunkClass::Fresh);
        assert_eq!(g.pending(), 2);
        assert_eq!(g.on_chunk(2, Some(4), t, &cfg()), ChunkClass::Repaired);
        assert_eq!(g.on_chunk(2, Some(4), t, &cfg()), ChunkClass::Duplicate);
        assert_eq!(g.on_chunk(4, Some(4), t, &cfg()), ChunkClass::Duplicate);
        assert_eq!(g.pending(), 1);
        assert_eq!(g.lost, 0);
    }

    #[test]
    fn long_outage_is_window_bounded() {
        let mut g = GapTracker::default();
        let c = RepairConfig {
            window: 10,
            ..cfg()
        };
        let t = SimTime::from_secs(5);
        // Watermark 10, next arrival 200: only the last 10 holes are
        // recoverable, the other 179 are lost outright.
        assert_eq!(g.on_chunk(200, Some(10), t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 10);
        assert_eq!(g.lost, 179);
    }

    #[test]
    fn nack_scheduling_retries_then_gives_up() {
        let mut g = GapTracker::default();
        let c = cfg();
        let t0 = SimTime::from_secs(1);
        g.on_chunk(4, Some(1), t0, &c); // missing 2, 3
        assert!(g.due_nacks(t0).is_empty(), "nack delay not elapsed");
        let t1 = t0 + NACK_DELAY;
        assert_eq!(g.due_nacks(t1), vec![2, 3]);
        // Chunk 3 gets repaired; chunk 2 exhausts its three NACKs.
        assert_eq!(g.on_chunk(3, Some(4), t1, &c), ChunkClass::Repaired);
        let t2 = t1 + NACK_PERIOD;
        assert!(
            g.due_nacks(t2 - SimTime(1)).is_empty(),
            "period not elapsed"
        );
        assert_eq!(g.due_nacks(t2), vec![2]);
        let t3 = t2 + NACK_PERIOD;
        assert_eq!(g.due_nacks(t3), vec![2]);
        let t4 = t3 + NACK_PERIOD;
        assert!(g.due_nacks(t4).is_empty());
        assert_eq!(g.pending(), 0);
        assert_eq!(g.lost, 1);
        assert_eq!(g.next_due(), None);
    }

    #[test]
    fn ring_handles_sequences_at_u64_max() {
        let mut r = RetransmitRing::new(3);
        for s in [u64::MAX - 2, u64::MAX - 1, u64::MAX] {
            r.record(s);
        }
        assert_eq!(r.seqs.len(), 3);
        assert!(r.contains(u64::MAX - 2) && r.contains(u64::MAX));
        // Duplicate of the top sequence is a no-op, not an eviction.
        r.record(u64::MAX);
        assert_eq!(r.seqs.len(), 3);
        assert!(r.contains(u64::MAX - 2));
        // An out-of-order record into a full ring sorts in, then the
        // lowest-first eviction drops it again: the ring never holds
        // more than `cap`, and never trades new content for old.
        r.record(5);
        assert_eq!(r.seqs.len(), 3);
        assert!(!r.contains(5), "the lowest sequence must be the evictee");
        assert!(r.contains(u64::MAX - 2) && r.contains(u64::MAX - 1) && r.contains(u64::MAX));
    }

    #[test]
    fn watermark_jump_to_u64_max_is_window_bounded() {
        let mut g = GapTracker::default();
        let c = RepairConfig { window: 8, ..cfg() };
        let t = SimTime::from_secs(1);
        // Watermark 100, next arrival u64::MAX: only the last 8 holes
        // stay recoverable; the arithmetic on the enormous skipped span
        // must neither overflow nor panic.
        assert_eq!(g.on_chunk(u64::MAX, Some(100), t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 8);
        assert_eq!(g.lost, u64::MAX - 8 - 101);
        // Holes right below the maximum watermark are still repairable.
        assert_eq!(
            g.on_chunk(u64::MAX - 1, Some(u64::MAX), t, &c),
            ChunkClass::Repaired
        );
        assert_eq!(
            g.on_chunk(u64::MAX - 1, Some(u64::MAX), t, &c),
            ChunkClass::Duplicate
        );
        assert_eq!(g.pending(), 7);
        // A chunk equal to the watermark itself is a duplicate even at
        // the far end of the sequence space.
        assert_eq!(
            g.on_chunk(u64::MAX, Some(u64::MAX), t, &c),
            ChunkClass::Duplicate
        );
    }

    #[test]
    fn watermark_jump_from_zero_to_u64_max() {
        let mut g = GapTracker::default();
        let c = RepairConfig { window: 4, ..cfg() };
        let t = SimTime::from_secs(1);
        // The largest possible jump: every skipped chunk outside the
        // window is lost, and the count stays exact (no wrap).
        assert_eq!(g.on_chunk(u64::MAX, Some(0), t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 4);
        assert_eq!(g.lost, u64::MAX - 4 - 1);
    }

    #[test]
    fn lost_counter_saturates_instead_of_wrapping() {
        let mut g = GapTracker {
            lost: u64::MAX - 2,
            ..GapTracker::default()
        };
        let c = RepairConfig { window: 4, ..cfg() };
        let t = SimTime::from_secs(1);
        // The new losses (u64::MAX - 5 of them) would wrap a plain add;
        // the counter must pin at u64::MAX instead.
        g.on_chunk(u64::MAX, Some(0), t, &c);
        assert_eq!(g.lost, u64::MAX);
        // Give-ups after the saturation point keep it pinned.
        let t_due = t + NACK_DELAY;
        for _ in 0..=NACK_RETRIES {
            g.due_nacks(t_due);
        }
        let far = t_due + NACK_PERIOD + NACK_PERIOD + NACK_PERIOD + NACK_PERIOD;
        g.due_nacks(far);
        assert_eq!(g.lost, u64::MAX);
    }

    #[test]
    fn strided_gap_detection_stays_on_the_stripe_grid() {
        let mut g = GapTracker::default();
        let c = cfg().striped(3, 1); // this stripe carries 1, 4, 7, 10, ...
        let t = SimTime::from_secs(1);
        assert_eq!(g.on_chunk(1, None, t, &c), ChunkClass::Fresh);
        // 4 and 7 skipped — only grid points become repair candidates.
        assert_eq!(g.on_chunk(10, Some(1), t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 2);
        assert_eq!(g.on_chunk(4, Some(10), t, &c), ChunkClass::Repaired);
        assert_eq!(g.on_chunk(4, Some(10), t, &c), ChunkClass::Duplicate);
        assert_eq!(g.lost, 0);
    }

    #[test]
    fn strided_window_counts_chunks_not_raw_sequence_span() {
        let mut g = GapTracker::default();
        let c = RepairConfig { window: 2, ..cfg() }.striped(3, 1);
        let t = SimTime::from_secs(1);
        // Watermark 1, next arrival 31: nine grid chunks were skipped,
        // the window keeps the newest two (25, 28), the rest are lost.
        assert_eq!(g.on_chunk(31, Some(1), t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 2);
        assert_eq!(g.lost, 7);
        assert_eq!(g.on_chunk(28, Some(31), t, &c), ChunkClass::Repaired);
    }

    #[test]
    fn note_absent_registers_silent_stripe_holes() {
        let mut g = GapTracker::default();
        let c = RepairConfig { window: 4, ..cfg() }.striped(2, 0);
        let t = SimTime::from_secs(1);
        // Watermark 4; the stripe advanced to 12 while we heard nothing.
        assert_eq!(g.note_absent(12, Some(4), t, &c), 4);
        assert_eq!(g.pending(), 4);
        // Idempotent; a stale notice is a no-op too.
        assert_eq!(g.note_absent(12, Some(4), t, &c), 0);
        assert_eq!(g.note_absent(4, Some(4), t, &c), 0);
        // NACKs fire after the usual delay.
        assert!(g.due_nacks(t).is_empty());
        assert_eq!(g.due_nacks(t + NACK_DELAY), vec![6, 8, 10, 12]);
        // An arrival above the watermark clears its own hole.
        assert_eq!(g.on_chunk(8, Some(4), t, &c), ChunkClass::Fresh);
        let batch = g.due_nacks(t + NACK_DELAY + NACK_PERIOD);
        assert_eq!(batch, vec![6, 10, 12]);
    }

    #[test]
    fn note_absent_without_watermark_stops_at_the_stripe_base() {
        let mut g = GapTracker::default();
        let c = cfg().striped(4, 3); // this stripe carries 3, 7, 11, ...
        let t = SimTime::from_secs(1);
        assert_eq!(g.note_absent(11, None, t, &c), 3);
        assert_eq!(g.pending(), 3);
        // A pre-registered chunk arriving as the first delivery is
        // fresh and no longer missing.
        assert_eq!(g.on_chunk(7, None, t, &c), ChunkClass::Fresh);
        assert_eq!(g.pending(), 2);
    }

    #[test]
    fn next_due_tracks_earliest_deadline() {
        let mut g = GapTracker::default();
        let c = cfg();
        let t0 = SimTime::from_secs(1);
        g.on_chunk(3, Some(1), t0, &c);
        assert_eq!(g.next_due(), Some(t0 + NACK_DELAY));
    }
}

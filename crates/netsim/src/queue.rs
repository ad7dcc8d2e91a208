//! The engine's pending-event queue: exact time buckets.
//!
//! Events leave in `(at, seq)` order, `seq` being the push order, which
//! is exactly what a binary min-heap of `(at, seq)` keys pops. An event
//! at `at` belongs to bucket `at >> 10` (1 024 µs wide):
//!
//! * the bucket being drained, and any bucket before it, lives in `cur`,
//!   kept sorted — a push there is an ordered insert;
//! * each of the next `RING - 1` buckets waits unsorted in its ring slot,
//!   a list threaded through the payload slab, and is sorted once, when
//!   its turn comes (an occupancy bitmap finds that turn);
//! * anything a ring or more ahead waits in a small overflow heap and is
//!   filed into the ring as the window reaches it.
//!
//! This is exact, not approximate: the bucket index is monotone in `at`,
//! so every event in a later bucket is later than every event in `cur`,
//! and `seq` is unique, so no two keys tie. It holds for any push, even
//! one before the bucket being drained — as after `Engine::run` jumped
//! the clock, or after a peek loaded a later bucket.
//!
//! Payload slots are recycled through a free list, so the slab is as long
//! as the most events ever pending at once. Both ends are hard checks: a
//! push asserts its recycled slot is vacant, a pop that its slot is full.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bucket is `1 << WIDTH_SHIFT` = 1 024 µs wide.
const WIDTH_SHIFT: u32 = 10;

/// Buckets in the ring (1 024 buckets ≈ 1.05 s of simulated time).
const RING: u64 = 1024;

/// Words of the ring's occupancy bitmap.
const WORDS: usize = RING as usize / 64;

/// An empty ring slot, and the end of a slot's list.
const NIL: u32 = u32::MAX;

/// `(at, seq, slot)`. `seq` is unique, so `slot` never decides a
/// comparison.
type Key = (SimTime, u64, u32);

fn bucket_of(at: SimTime) -> u64 {
    at.0 >> WIDTH_SHIFT
}

/// One slab slot: a pending event's key, its ring link and its payload
/// (`None` while the slot is free).
struct Entry<T> {
    at: SimTime,
    seq: u64,
    /// The entry filed in the same ring slot before this one.
    next: u32,
    event: Option<T>,
}

/// Pending events, popped in `(at, push order)` (see the module docs).
pub(crate) struct EventQueue<T> {
    /// The next push's `seq`.
    seq: u64,
    /// The bucket `cur` holds.
    bucket: u64,
    /// Every queued event at or before `bucket`, sorted descending: the
    /// least pops off the end.
    cur: Vec<Key>,
    /// Per ring slot, the entry filed there last (`NIL`: empty). Bucket
    /// `b` in `bucket + 1 .. bucket + RING` files under slot `b % RING`.
    heads: Vec<u32>,
    /// Bit `s` is set iff ring slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Events in the ring.
    in_ring: usize,
    /// Events `RING` or more buckets past `bucket`.
    overflow: BinaryHeap<Reverse<Key>>,
    slab: Vec<Entry<T>>,
    /// Vacant slab slots.
    free: Vec<u32>,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            seq: 0,
            bucket: 0,
            cur: Vec::new(),
            heads: vec![NIL; RING as usize],
            occupied: [0; WORDS],
            in_ring: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Events pending.
    pub(crate) fn len(&self) -> usize {
        self.cur.len() + self.in_ring + self.overflow.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `event` at `at`, after every event already queued there.
    pub(crate) fn push(&mut self, at: SimTime, event: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slab[slot as usize];
                let vacant = entry.event.replace(event).is_none();
                assert!(vacant, "free list handed out live slot {slot}");
                entry.at = at;
                entry.seq = seq;
                slot
            }
            None => {
                assert!(
                    self.slab.len() < NIL as usize,
                    "over u32::MAX pending events"
                );
                self.slab.push(Entry {
                    at,
                    seq,
                    next: NIL,
                    event: Some(event),
                });
                (self.slab.len() - 1) as u32
            }
        };
        let b = bucket_of(at);
        if b <= self.bucket {
            let key = (at, seq, slot);
            let i = self.cur.partition_point(|&k| k > key);
            self.cur.insert(i, key);
        } else if b - self.bucket < RING {
            self.file(b, slot);
        } else {
            self.overflow.push(Reverse((at, seq, slot)));
        }
    }

    /// Pop the least event if it is due at or before `until`.
    pub(crate) fn pop(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        if self.cur.is_empty() {
            self.refill(until);
        }
        let &(at, _, slot) = self.cur.last()?;
        if at > until {
            return None;
        }
        self.cur.pop();
        let event = self.slab[slot as usize]
            .event
            .take()
            .expect("queued event lost its payload");
        self.free.push(slot);
        Some((at, event))
    }

    /// Time of the least event. Loads its bucket, so a later push before
    /// that bucket joins it by ordered insert.
    pub(crate) fn peek(&mut self) -> Option<SimTime> {
        if self.cur.is_empty() {
            self.refill(SimTime::MAX);
        }
        self.cur.last().map(|&(at, ..)| at)
    }

    /// File slab entry `slot` under bucket `b`'s ring slot.
    fn file(&mut self, b: u64, slot: u32) {
        let s = (b % RING) as usize;
        self.slab[slot as usize].next = std::mem::replace(&mut self.heads[s], slot);
        self.occupied[s / 64] |= 1 << (s % 64);
        self.in_ring += 1;
    }

    /// With `cur` empty, load the next non-empty bucket into it and sort
    /// it — unless that bucket starts after `until`, which leaves every
    /// push until then behind the window instead of in `cur`.
    fn refill(&mut self, until: SimTime) {
        // Ring buckets are all below `bucket + RING`, overflow ones not,
        // so the ring's first non-empty slot, if any, is the next bucket.
        let next = if self.in_ring > 0 {
            self.bucket + self.ring_gap()
        } else {
            match self.overflow.peek() {
                Some(&Reverse((at, ..))) => bucket_of(at),
                None => return,
            }
        };
        if next > bucket_of(until) {
            return;
        }
        self.bucket = next;
        while let Some(&Reverse((at, _, slot))) = self.overflow.peek() {
            let b = bucket_of(at);
            if b - next >= RING {
                break;
            }
            self.overflow.pop();
            self.file(b, slot);
        }
        let s = (next % RING) as usize;
        self.occupied[s / 64] &= !(1 << (s % 64));
        let mut i = std::mem::replace(&mut self.heads[s], NIL);
        while i != NIL {
            let entry = &self.slab[i as usize];
            self.cur.push((entry.at, entry.seq, i));
            i = entry.next;
        }
        self.in_ring -= self.cur.len();
        self.cur.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Buckets from `bucket` to the ring's next non-empty slot (the ring
    /// must hold an event).
    fn ring_gap(&self) -> u64 {
        let from = ((self.bucket + 1) % RING) as usize;
        let w = from / 64;
        // The first word without the bits before `from`; after a full
        // turn, the same word whole.
        let mut word = self.occupied[w] & (u64::MAX << (from % 64));
        let mut k = 0;
        while word == 0 {
            k += 1;
            word = self.occupied[(w + k) % WORDS];
        }
        let s = ((w + k) % WORDS * 64) as u64 + u64::from(word.trailing_zeros());
        (s + RING - from as u64) % RING + 1
    }
}

/// Slot accounting, for the engine's tests.
#[cfg(test)]
impl<T> EventQueue<T> {
    /// Slab slots: the most events ever pending at once.
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Slab slots holding an event.
    pub(crate) fn live_slots(&self) -> usize {
        self.slab.iter().filter(|e| e.event.is_some()).count()
    }

    pub(crate) fn free_slots_are_vacant(&self) -> bool {
        self.free
            .iter()
            .all(|&s| self.slab[s as usize].event.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// How often the reference runs reached each filing path.
    #[derive(Default, Debug)]
    struct Reached {
        /// Pushes into the bucket being drained, or before it.
        into_cur: u64,
        /// Pushes before an already-loaded bucket.
        before_loaded: u64,
        /// Pushes into a ring slot below the current bucket's.
        ring_wrapped: u64,
        /// Pushes a ring or more ahead.
        overflowed: u64,
        /// Pops and peeks that filed overflow events into the ring.
        overflow_to_ring: u64,
    }

    /// Pop (bounded by `until`) from both, and require the same answer
    /// at `(seed, step)`.
    fn pop_both(
        queue: &mut EventQueue<u64>,
        heap: &mut BinaryHeap<Reverse<(SimTime, u64)>>,
        until: SimTime,
        reached: &mut Reached,
        (seed, step): (u64, u64),
    ) -> Option<(SimTime, u64)> {
        let overflow = queue.overflow.len();
        let want = match heap.peek() {
            Some(&Reverse(key)) if key.0 <= until => heap.pop().map(|Reverse(k)| k),
            _ => None,
        };
        let got = queue.pop(until);
        if queue.overflow.len() < overflow {
            reached.overflow_to_ring += 1;
        }
        assert_eq!(got, want, "seed {seed}, step {step}");
        got
    }

    /// Random interleavings of pushes (delays 0 µs – 5 s, half of them
    /// whole buckets), bounded pops, peeks and `run`-style clock jumps:
    /// the queue pops exactly what a binary min-heap of `(at, seq)`
    /// pops, and the runs reach every filing path.
    #[test]
    fn pops_match_a_binary_heap() {
        let mut reached = Reached::default();
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            for step in 0..3_000u64 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let mut delay = match rng.gen_range(0..4) {
                            0 => 0,
                            1 => rng.gen_range(0..2_048),
                            2 => rng.gen_range(0..1_200_000),
                            _ => rng.gen_range(0..=5_000_000),
                        };
                        if rng.gen_bool(0.5) {
                            delay &= !((1 << WIDTH_SHIFT) - 1);
                        }
                        let at = now + SimTime(delay);
                        let b = bucket_of(at);
                        if b <= queue.bucket {
                            reached.into_cur += 1;
                            reached.before_loaded += u64::from(b < queue.bucket);
                        } else if b - queue.bucket < RING {
                            reached.ring_wrapped += u64::from(b % RING < queue.bucket % RING);
                        } else {
                            reached.overflowed += 1;
                        }
                        queue.push(at, step);
                        heap.push(Reverse((at, step)));
                    }
                    5..=7 => {
                        let until = if rng.gen_bool(0.3) {
                            SimTime::MAX
                        } else {
                            now + SimTime(rng.gen_range(0..50_000))
                        };
                        let case = (seed, step);
                        if let Some((at, _)) =
                            pop_both(&mut queue, &mut heap, until, &mut reached, case)
                        {
                            now = at;
                        }
                    }
                    8 => {
                        let overflow = queue.overflow.len();
                        let want = heap.peek().map(|&Reverse((at, _))| at);
                        assert_eq!(queue.peek(), want, "seed {seed}, step {step}");
                        if queue.overflow.len() < overflow {
                            reached.overflow_to_ring += 1;
                        }
                    }
                    _ => {
                        // `Engine::run(until)`: everything due, then the
                        // clock jumps to the horizon.
                        let until = now + SimTime(rng.gen_range(0..3_000_000));
                        let case = (seed, step);
                        while pop_both(&mut queue, &mut heap, until, &mut reached, case).is_some() {
                        }
                        now = until;
                    }
                }
                assert_eq!(queue.len(), heap.len(), "seed {seed}, step {step}");
            }
            let case = (seed, u64::MAX);
            while pop_both(&mut queue, &mut heap, SimTime::MAX, &mut reached, case).is_some() {}
            assert!(queue.is_empty() && heap.is_empty());
            assert_eq!(queue.peek(), None);
            assert_eq!(queue.free_slots(), queue.slots());
        }
        let r = &reached;
        assert!(
            [
                r.into_cur,
                r.before_loaded,
                r.ring_wrapped,
                r.overflowed,
                r.overflow_to_ring
            ]
            .iter()
            .all(|&n| n > 1_000),
            "a filing path went unexercised: {reached:?}"
        );
    }
}

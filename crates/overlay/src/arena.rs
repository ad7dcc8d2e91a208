//! Flat per-host state arena (SoA layout).
//!
//! A [`HostArena`] is a struct-of-arrays over one contiguous host-id
//! range `base..base + len`: protocol slot (present while the host runs
//! an agent), session membership, incarnation counter, and degree limit
//! — all indexed by host id minus base, never by hash. The driver's
//! arena covers every host (`base = 0`).

use vdm_netsim::HostId;

/// Struct-of-arrays per-host state over a contiguous host-id range.
pub struct HostArena<T> {
    base: u32,
    slots: Vec<Option<T>>,
    in_session: Vec<bool>,
    incarnations: Vec<u32>,
    limits: Vec<u32>,
}

impl<T> HostArena<T> {
    /// Arena over hosts `0..limits.len()` (the unsharded case).
    pub fn new(limits: Vec<u32>) -> Self {
        Self::for_range(0, limits)
    }

    /// Arena over hosts `base..base + limits.len()`.
    ///
    /// The range must fit the u32 host-id space: an end past `u32::MAX`
    /// used to wrap silently in [`HostArena::hosts`], iterating the
    /// wrong ids in release builds.
    pub fn for_range(base: u32, limits: Vec<u32>) -> Self {
        let n = limits.len();
        u32::try_from(n)
            .ok()
            .and_then(|n32| base.checked_add(n32))
            .unwrap_or_else(|| {
                panic!("arena range {base}..{base}+{n} exceeds the u32 host-id space")
            });
        Self {
            base,
            slots: (0..n).map(|_| None).collect(),
            in_session: vec![false; n],
            incarnations: vec![0; n],
            limits,
        }
    }

    /// First host id owned.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of hosts owned.
    pub fn len(&self) -> usize {
        self.limits.len()
    }

    /// True when the arena owns no hosts.
    pub fn is_empty(&self) -> bool {
        self.limits.is_empty()
    }

    /// True when `h` falls in this arena's range.
    pub fn contains(&self, h: HostId) -> bool {
        h.0 >= self.base && ((h.0 - self.base) as usize) < self.len()
    }

    #[inline]
    fn idx(&self, h: HostId) -> usize {
        debug_assert!(self.contains(h), "host {h} outside arena range");
        (h.0 - self.base) as usize
    }

    /// The hosts owned, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (self.base..self.base + self.len() as u32).map(HostId)
    }

    /// Shared access to `h`'s slot.
    pub fn get(&self, h: HostId) -> Option<&T> {
        self.slots[self.idx(h)].as_ref()
    }

    /// Mutable access to `h`'s slot.
    pub fn get_mut(&mut self, h: HostId) -> Option<&mut T> {
        let i = self.idx(h);
        self.slots[i].as_mut()
    }

    /// Install `h`'s slot, replacing (and returning) any previous one.
    pub fn insert(&mut self, h: HostId, value: T) -> Option<T> {
        let i = self.idx(h);
        self.slots[i].replace(value)
    }

    /// Clear `h`'s slot.
    pub fn remove(&mut self, h: HostId) -> Option<T> {
        let i = self.idx(h);
        self.slots[i].take()
    }

    /// Is `h` currently in the session?
    pub fn in_session(&self, h: HostId) -> bool {
        self.in_session[self.idx(h)]
    }

    /// Mark `h`'s session membership.
    pub fn set_in_session(&mut self, h: HostId, yes: bool) {
        let i = self.idx(h);
        self.in_session[i] = yes;
    }

    /// `h`'s current incarnation number.
    pub fn incarnation(&self, h: HostId) -> u32 {
        self.incarnations[self.idx(h)]
    }

    /// Return `h`'s incarnation and advance it — the driver stamps each
    /// new agent with the pre-bump value, so rejoins are distinguishable
    /// from stale messages.
    pub fn bump_incarnation(&mut self, h: HostId) -> u32 {
        let i = self.idx(h);
        let inc = self.incarnations[i];
        self.incarnations[i] += 1;
        inc
    }

    /// `h`'s degree limit.
    pub fn limit(&self, h: HostId) -> u32 {
        self.limits[self.idx(h)]
    }

    /// All degree limits, in host-id order (for `TreeSnapshot::validate`;
    /// only meaningful on a `base = 0` arena covering every host).
    pub fn limits(&self) -> &[u32] {
        &self.limits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_range_basics() {
        let mut a: HostArena<&'static str> = HostArena::new(vec![4, 4, 2]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.base(), 0);
        assert!(a.contains(HostId(2)) && !a.contains(HostId(3)));
        assert!(a.get(HostId(1)).is_none());
        assert!(a.insert(HostId(1), "x").is_none());
        assert_eq!(a.get(HostId(1)), Some(&"x"));
        assert_eq!(a.limit(HostId(2)), 2);
        assert!(!a.in_session(HostId(1)));
        a.set_in_session(HostId(1), true);
        assert!(a.in_session(HostId(1)));
        assert_eq!(a.bump_incarnation(HostId(1)), 0);
        assert_eq!(a.bump_incarnation(HostId(1)), 1);
        assert_eq!(a.incarnation(HostId(1)), 2);
        assert_eq!(a.remove(HostId(1)), Some("x"));
        assert!(a.get(HostId(1)).is_none());
        assert_eq!(
            a.hosts().collect::<Vec<_>>(),
            vec![HostId(0), HostId(1), HostId(2)]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside arena range")]
    fn out_of_range_access_panics_in_debug() {
        let a: HostArena<u8> = HostArena::for_range(5, vec![1, 1]);
        let _ = a.get(HostId(2));
    }

    /// Release builds compile the `debug_assert!` out; the slice bounds
    /// check is then all that keeps an id below the base (the
    /// subtraction wraps) or past the end from reaching another slot.
    #[test]
    fn out_of_range_access_panics_in_every_profile() {
        for h in [HostId(2), HostId(7)] {
            let get = std::panic::catch_unwind(|| {
                let a: HostArena<u8> = HostArena::for_range(5, vec![1, 1]);
                let _ = a.get(h);
            });
            assert!(get.is_err(), "get({h}) returned");
            let get_mut = std::panic::catch_unwind(|| {
                let mut a: HostArena<u8> = HostArena::for_range(5, vec![1, 1]);
                let _ = a.get_mut(h);
            });
            assert!(get_mut.is_err(), "get_mut({h}) returned");
        }
    }

    #[test]
    fn range_may_end_exactly_at_the_id_space_top() {
        let a: HostArena<u8> = HostArena::for_range(u32::MAX - 2, vec![7, 8]);
        assert!(a.contains(HostId(u32::MAX - 1)));
        assert_eq!(
            a.hosts().collect::<Vec<_>>(),
            vec![HostId(u32::MAX - 2), HostId(u32::MAX - 1)]
        );
        assert_eq!(a.limit(HostId(u32::MAX - 1)), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 host-id space")]
    fn range_past_the_id_space_is_rejected() {
        let _: HostArena<u8> = HostArena::for_range(u32::MAX - 1, vec![1, 1, 1]);
    }
}

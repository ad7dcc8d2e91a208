//! The coordinate piggyback: the host's own Vivaldi state plus the last
//! coordinate sample heard from each peer. Only walks measure RTTs, so
//! the state is handed to each walk by value and adopted back when the
//! walk finishes; no update races the copy.

use crate::coords::{CoordSample, VivaldiState};
use crate::discovery::DiscoveryState;
use crate::walk::Measured;
use vdm_netsim::HostId;

/// Bound on the per-peer sample cache: oldest entries are evicted
/// first. Sized to a few view/candidate sets' worth of peers.
const PEER_COORD_CAP: usize = 64;

#[derive(Default)]
pub(super) struct Piggyback {
    pub(super) state: VivaldiState,
    /// The last sample heard from each peer, oldest first.
    pub(super) peers: Vec<(HostId, CoordSample)>,
}

impl Piggyback {
    /// Our sample for piggyback fields.
    pub(super) fn sample(&self) -> CoordSample {
        self.state.sample()
    }

    /// Predicted distance to `h`; infinite when we never heard from it.
    pub(super) fn dist_to(&self, h: HostId) -> f64 {
        self.peers
            .iter()
            .find(|(p, _)| *p == h)
            .map_or(f64::INFINITY, |&(_, s)| self.state.coord.dist(s.coord))
    }

    /// Cache a peer's piggybacked sample (bounded, most-recent wins) and
    /// mirror it into the discovery view so gossip forwards it.
    pub(super) fn note(
        &mut self,
        me: HostId,
        h: HostId,
        sample: CoordSample,
        discovery: Option<&mut DiscoveryState>,
    ) {
        if h == me {
            return;
        }
        if let Some(e) = self.peers.iter_mut().find(|(p, _)| *p == h) {
            e.1 = sample;
        } else {
            if self.peers.len() >= PEER_COORD_CAP {
                self.peers.remove(0);
            }
            self.peers.push((h, sample));
        }
        if let Some(d) = discovery {
            d.note_coord(h, sample);
        }
    }

    /// Adopt a finished walk's embedding and the samples it heard.
    pub(super) fn absorb(
        &mut self,
        walk: &Measured,
        me: HostId,
        mut discovery: Option<&mut DiscoveryState>,
    ) {
        if let Some(s) = walk.coords {
            self.state = s;
            for &(h, sample) in &walk.coord_harvest {
                self.note(me, h, sample, discovery.as_deref_mut());
            }
        }
    }
}

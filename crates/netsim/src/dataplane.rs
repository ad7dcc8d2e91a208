//! Optional queueing data plane (link-calendar model).
//!
//! The pure-latency model treats links as infinite-capacity pipes; NS-2
//! (the paper's simulator) models transmission time and finite FIFO
//! buffers. This module adds both for *data* packets without per-hop
//! events: each link keeps a `busy_until` calendar; a packet crossing a
//! path accumulates, per link,
//!
//! ```text
//! start_tx = max(arrival, busy_until)        // waits in the queue
//! drop if start_tx - arrival > BUFFER_MS      // FIFO overflow
//! busy_until = start_tx + serialization       // bits / bandwidth
//! arrival'  = start_tx + serialization + propagation
//! ```
//!
//! which is exact for FIFO links fed in arrival order. Since the
//! discrete-event engine dispatches sends in timestamp order, the
//! arrival-order condition holds per link for all practical overlay
//! traffic, and congestion (the §2.1.1 unicast problem: "a packet is
//! transmitted many times on a link which overloads the network") shows
//! up as real queueing delay and buffer drops.

use crate::time::SimTime;
use vdm_topology::{EdgeId, Millis};

/// Size of one stream chunk, bits (10 kbit ≈ a 1250-byte packet).
const PACKET_BITS: f64 = 10_000.0;
/// Maximum queueing delay a link buffer absorbs before dropping, ms (a
/// delay-based formulation of buffer depth).
const BUFFER_MS: Millis = 50.0;

/// One physical link the data plane knows about.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Propagation delay, ms.
    pub delay_ms: Millis,
    /// Capacity, Mbit/s.
    pub bandwidth_mbps: f64,
}

/// Why a packet failed to cross its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferDrop {
    /// The link whose buffer overflowed.
    pub link: EdgeId,
}

/// The mutable link-calendar state.
#[derive(Clone, Debug)]
pub struct DataPlane {
    links: Vec<LinkSpec>,
    busy_until: Vec<SimTime>,
    /// Buffer drops so far (diagnostics).
    pub drops: u64,
    /// Per-link drop counts (diagnostics).
    pub drops_per_link: Vec<u64>,
}

impl DataPlane {
    /// New data plane over the given links (indexed by [`EdgeId`]).
    pub fn new(links: Vec<LinkSpec>) -> Self {
        let n = links.len();
        Self {
            links,
            busy_until: vec![SimTime::ZERO; n],
            drops: 0,
            drops_per_link: vec![0; n],
        }
    }

    /// Serialization time of one packet on `link`, ms.
    fn serialization_ms(&self, link: EdgeId) -> Millis {
        // bits / (Mbit/s) = µs; /1000 = ms.
        PACKET_BITS / (self.links[link.idx()].bandwidth_mbps * 1_000.0)
    }

    /// Transmit one packet over one `link`, arriving at the link's
    /// input queue at `now`: returns the arrival time at the far end,
    /// or a drop on buffer overflow. The engine calls this hop by hop
    /// (one event per link crossing), so every link's calendar is
    /// charged in true arrival order — charging a whole path up front
    /// would let in-flight packets block links they have not reached
    /// yet.
    pub fn transit_hop(&mut self, now: SimTime, link: EdgeId) -> Result<SimTime, BufferDrop> {
        let busy = self.busy_until[link.idx()];
        let start_tx = now.max(busy);
        let queued_ms = (start_tx - now).as_ms();
        if queued_ms > BUFFER_MS {
            self.drops += 1;
            self.drops_per_link[link.idx()] += 1;
            return Err(BufferDrop { link });
        }
        let ser = SimTime::from_ms(self.serialization_ms(link));
        self.busy_until[link.idx()] = start_tx + ser;
        Ok(start_tx + ser + SimTime::from_ms(self.links[link.idx()].delay_ms))
    }

    /// Send one data packet along a whole `path` starting at `now`
    /// (all hops charged immediately — only correct when the path's
    /// propagation is negligible relative to packet spacing; the
    /// engine uses [`DataPlane::transit_hop`] instead).
    pub fn transit(&mut self, now: SimTime, path: &[EdgeId]) -> Result<SimTime, BufferDrop> {
        let mut arrival = now;
        for &link in path {
            arrival = self.transit_hop(arrival, link)?;
        }
        Ok(arrival)
    }

    /// Current queueing backlog of a link, ms, as of `now`.
    pub fn backlog_ms(&self, link: EdgeId, now: SimTime) -> Millis {
        self.busy_until[link.idx()].saturating_sub(now).as_ms()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link(bw_mbps: f64) -> DataPlane {
        DataPlane::new(vec![LinkSpec {
            delay_ms: 5.0,
            bandwidth_mbps: bw_mbps,
        }])
    }

    #[test]
    fn uncongested_packet_pays_serialization_plus_propagation() {
        let mut dp = one_link(10.0); // 10 kbit / 10 Mbps = 1 ms
        let t = dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        assert_eq!(t, SimTime::from_ms(6.0)); // 1 ser + 5 prop
        assert_eq!(dp.drops, 0);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut dp = one_link(10.0);
        let t1 = dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        let t2 = dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        let t3 = dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        assert_eq!(t1, SimTime::from_ms(6.0));
        assert_eq!(t2, SimTime::from_ms(7.0)); // 1 ms queued behind #1
        assert_eq!(t3, SimTime::from_ms(8.0));
        assert!((dp.backlog_ms(EdgeId(0), SimTime::ZERO) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_overflow_drops() {
        // 10 kbit / 1 Mbps = 10 ms per packet. BUFFER_MS = 50: the 6th
        // simultaneous packet queues exactly 50 ms and still goes; the
        // 7th sees 60 ms of queue.
        let mut dp = one_link(1.0);
        for i in 0..6 {
            assert!(dp.transit(SimTime::ZERO, &[EdgeId(0)]).is_ok(), "pkt {i}");
        }
        let r = dp.transit(SimTime::ZERO, &[EdgeId(0)]);
        assert_eq!(r, Err(BufferDrop { link: EdgeId(0) }));
        assert_eq!(dp.drops, 1);
    }

    #[test]
    fn calendar_drains_over_time() {
        let mut dp = one_link(10.0);
        for _ in 0..3 {
            dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        }
        // 10 ms later the link is idle again.
        let t = dp.transit(SimTime::from_ms(10.0), &[EdgeId(0)]).unwrap();
        assert_eq!(t, SimTime::from_ms(16.0));
    }

    #[test]
    fn multi_hop_accumulates() {
        let mut dp = DataPlane::new(vec![
            LinkSpec {
                delay_ms: 2.0,
                bandwidth_mbps: 10.0,
            },
            LinkSpec {
                delay_ms: 3.0,
                bandwidth_mbps: 5.0,
            },
        ]);
        let t = dp.transit(SimTime::ZERO, &[EdgeId(0), EdgeId(1)]).unwrap();
        // hop0: 1 ser + 2 prop = 3; hop1: 2 ser + 3 prop = 5 -> 8.
        assert_eq!(t, SimTime::from_ms(8.0));
    }

    #[test]
    fn fast_links_barely_serialize() {
        let mut dp = one_link(1_000.0); // 10 kbit / 1 Gbps = 10 µs
        let t = dp.transit(SimTime::ZERO, &[EdgeId(0)]).unwrap();
        assert_eq!(t, SimTime::from_ms(5.01));
    }
}

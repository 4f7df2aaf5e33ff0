//! The Lance-style network interface model.
//!
//! The AMD Lance chips in the paper's testbed could buffer 32 Ethernet
//! packets; once the ring is full, further arrivals are silently dropped
//! and recovered (slowly) by protocol retransmission timers. The paper
//! attributes the ≥ 4-Kbyte throughput collapse directly to this
//! behaviour, so the ring bound is first-class here.

use std::collections::{HashSet, VecDeque};

use amoeba_sim::SplitMix64;

use crate::frame::{Frame, MacAddr, McastAddr};

/// Transmit-side state of the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxState {
    /// Nothing in flight; the head of the queue may be started.
    Idle,
    /// A frame is on the wire.
    Transmitting,
    /// Carrier sensed; registered with the medium's deferral list.
    Deferring,
    /// Backing off after a collision; a retry event is scheduled.
    BackingOff,
}

/// Per-interface statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames fully transmitted.
    pub tx_frames: u64,
    /// Frames received into the ring.
    pub rx_frames: u64,
    /// Frames dropped because the 32-slot receive ring was full — the
    /// paper's Lance overflow.
    pub rx_overflow: u64,
    /// Collisions this station was involved in.
    pub collisions: u64,
    /// Frames abandoned after 16 failed attempts.
    pub tx_aborted: u64,
    /// Highest receive-ring occupancy observed (high-water mark).
    pub rx_ring_peak: u64,
}

/// A simulated Lance network interface.
#[derive(Debug)]
pub struct Nic<P> {
    pub(crate) mac: MacAddr,
    pub(crate) tx_queue: VecDeque<Frame<P>>,
    pub(crate) tx_state: TxState,
    pub(crate) attempts: u32,
    pub(crate) rx_ring: VecDeque<Frame<P>>,
    pub(crate) rx_ring_cap: usize,
    pub(crate) mcast_filter: HashSet<McastAddr>,
    pub(crate) rng: SplitMix64,
    /// Statistics.
    pub stats: NicStats,
}

impl<P> Nic<P> {
    pub(crate) fn new(mac: MacAddr, rx_ring_cap: usize, rng: SplitMix64) -> Self {
        Nic {
            mac,
            tx_queue: VecDeque::new(),
            tx_state: TxState::Idle,
            attempts: 0,
            rx_ring: VecDeque::new(),
            rx_ring_cap,
            mcast_filter: HashSet::new(),
            rng,
            stats: NicStats::default(),
        }
    }

    /// This interface's station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Subscribes the interface to an Ethernet multicast group.
    pub fn join_multicast(&mut self, group: McastAddr) {
        self.mcast_filter.insert(group);
    }

    /// Unsubscribes from an Ethernet multicast group.
    pub fn leave_multicast(&mut self, group: McastAddr) {
        self.mcast_filter.remove(&group);
    }

    /// Whether the interface accepts frames for `group`.
    pub fn accepts_multicast(&self, group: McastAddr) -> bool {
        self.mcast_filter.contains(&group)
    }

    /// Takes the oldest received frame out of the ring, if any.
    ///
    /// The kernel calls this from its receive-interrupt path; one frame
    /// per interrupt, as on the real hardware.
    pub fn pop_rx(&mut self) -> Option<Frame<P>> {
        self.rx_ring.pop_front()
    }

    /// Number of frames currently buffered in the receive ring.
    pub fn rx_pending(&self) -> usize {
        self.rx_ring.len()
    }

    /// Accepts a frame into the receive ring, or drops it on overflow.
    /// Returns `true` if the frame was buffered.
    pub(crate) fn rx_accept(&mut self, frame: Frame<P>) -> bool {
        if self.rx_ring.len() >= self.rx_ring_cap {
            self.stats.rx_overflow += 1;
            false
        } else {
            self.rx_ring.push_back(frame);
            self.stats.rx_frames += 1;
            self.stats.rx_ring_peak = self.stats.rx_ring_peak.max(self.rx_ring.len() as u64);
            true
        }
    }

    /// Draws an exponential-backoff delay (in slot times) for the current
    /// attempt count, per IEEE 802.3: `uniform(0 .. 2^min(attempts, 10))`.
    pub(crate) fn backoff_slots(&mut self) -> u64 {
        let exp = self.attempts.min(10);
        self.rng.gen_range(1u64 << exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic<u32> {
        Nic::new(MacAddr(0), 4, SplitMix64::new(1))
    }

    fn frame(n: u32) -> Frame<u32> {
        Frame { src: MacAddr(1), dst: crate::FrameDst::Broadcast, wire_len: 64, payload: n }
    }

    #[test]
    fn rx_ring_bounds_and_overflow_counting() {
        let mut n = nic();
        for i in 0..4 {
            assert!(n.rx_accept(frame(i)));
        }
        assert!(!n.rx_accept(frame(99)), "5th frame must overflow a 4-slot ring");
        assert_eq!(n.stats.rx_overflow, 1);
        assert_eq!(n.stats.rx_frames, 4);
        assert_eq!(n.rx_pending(), 4);
        // Frames drain FIFO.
        assert_eq!(n.pop_rx().unwrap().payload, 0);
        assert_eq!(n.rx_pending(), 3);
        // Space freed: accepts again.
        assert!(n.rx_accept(frame(5)));
    }

    #[test]
    fn multicast_filter() {
        let mut n = nic();
        assert!(!n.accepts_multicast(McastAddr(7)));
        n.join_multicast(McastAddr(7));
        assert!(n.accepts_multicast(McastAddr(7)));
        n.leave_multicast(McastAddr(7));
        assert!(!n.accepts_multicast(McastAddr(7)));
    }

    #[test]
    fn backoff_grows_with_attempts_and_stays_bounded() {
        let mut n = nic();
        n.attempts = 1;
        for _ in 0..100 {
            assert!(n.backoff_slots() < 2);
        }
        n.attempts = 4;
        for _ in 0..100 {
            assert!(n.backoff_slots() < 16);
        }
        n.attempts = 30; // clamped to 2^10
        for _ in 0..100 {
            assert!(n.backoff_slots() < 1024);
        }
    }
}

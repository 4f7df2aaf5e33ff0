//! Ethernet frames, station addresses and multicast groups.

use crate::net::HostId;

/// A station (MAC-level) address on the simulated segment.
///
/// One segment hosts at most a few dozen stations, so station addresses
/// are small indices assigned by [`crate::Net::add_host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub u16);

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mac:{:02x}", self.0)
    }
}

/// An Ethernet multicast group address.
///
/// NICs subscribe to multicast addresses with
/// [`crate::Nic::join_multicast`]; a multicast frame is delivered to every
/// subscribed station except the sender (the Lance does not loop back its
/// own transmissions — local delivery is the kernel's job, exactly as in
/// Amoeba).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McastAddr(pub u32);

impl std::fmt::Display for McastAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mcast:{:04x}", self.0)
    }
}

/// The destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameDst {
    /// One station.
    Unicast(MacAddr),
    /// Every station subscribed to the group.
    Multicast(McastAddr),
    /// Every station on the segment.
    Broadcast,
}

/// A frame on the simulated wire.
///
/// `wire_len` is the Ethernet frame length in bytes **including** the
/// 14-byte Ethernet header (the paper's 116-byte null-message overhead
/// counts it); the preamble, FCS and minimum-frame padding are added by
/// the medium model when computing transmission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P> {
    /// Sending station.
    pub src: MacAddr,
    /// Destination station(s).
    pub dst: FrameDst,
    /// Frame length on the wire in bytes, including link header.
    pub wire_len: u32,
    /// The logical contents; never serialized by the simulator.
    pub payload: P,
}

impl<P> Frame<P> {
    /// Builds a unicast frame between two hosts (using their station
    /// addresses, which equal their host ids on a single segment).
    pub fn unicast(src: HostId, dst: HostId, wire_len: u32, payload: P) -> Self {
        Frame {
            src: MacAddr(src.0 as u16),
            dst: FrameDst::Unicast(MacAddr(dst.0 as u16)),
            wire_len,
            payload,
        }
    }

    /// Builds a multicast frame from `src` to an Ethernet group.
    pub fn multicast(src: HostId, group: McastAddr, wire_len: u32, payload: P) -> Self {
        Frame {
            src: MacAddr(src.0 as u16),
            dst: FrameDst::Multicast(group),
            wire_len,
            payload,
        }
    }

    /// Builds a broadcast frame.
    pub fn broadcast(src: HostId, wire_len: u32, payload: P) -> Self {
        Frame {
            src: MacAddr(src.0 as u16),
            dst: FrameDst::Broadcast,
            wire_len,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_addresses() {
        let f = Frame::unicast(HostId(1), HostId(2), 116, ());
        assert_eq!(f.src, MacAddr(1));
        assert_eq!(f.dst, FrameDst::Unicast(MacAddr(2)));

        let m = Frame::multicast(HostId(3), McastAddr(9), 200, ());
        assert_eq!(m.dst, FrameDst::Multicast(McastAddr(9)));

        let b = Frame::broadcast(HostId(0), 64, ());
        assert_eq!(b.dst, FrameDst::Broadcast);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(MacAddr(7).to_string(), "mac:07");
        assert_eq!(McastAddr(16).to_string(), "mcast:0010");
    }
}

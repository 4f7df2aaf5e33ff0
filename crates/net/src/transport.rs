//! The datagram transport abstraction the live runtime drives.
//!
//! `amoeba-runtime`'s per-member driver loop is transport-agnostic: it
//! needs a way to plug an endpoint in (yielding a stream of inbound
//! datagrams), a way to subscribe the endpoint to a group's multicast
//! address, and a per-endpoint sender for unicast and multicast frames.
//! This module names that contract so the in-memory fabric
//! ([`crate::LiveNet`]) and the real inter-process UDP fabric
//! ([`crate::UdpNet`]) are interchangeable behind one trait object
//! (DESIGN.md §12) — the OptSCORE-style "keep the transport swappable
//! behind the config surface" argument, applied to this stack.
//!
//! Both sides of the contract speak [`WireFrame`]: the zero-copy
//! (head, optional tail) segment pair produced by
//! `amoeba_core::FrameEncoder`. What a transport does with the segments
//! (share them by refcount in memory, gather-write them into a socket)
//! is its own business; the protocol core never sees the difference.

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use crossbeam::channel::Receiver;

/// A raw datagram as delivered to a node: (source address, frame).
pub type Datagram = (FlipAddress, WireFrame);

/// A shared datagram fabric endpoints plug into.
///
/// Implementations must be cheap to share (`Arc<dyn Transport>`) and
/// must never block a sender on another endpoint's progress: delivery
/// is best-effort, datagram-shaped, and may silently drop (the group
/// protocol's negative-acknowledgement machinery is the reliability
/// layer, not the transport).
pub trait Transport: Send + Sync {
    /// Plugs a process endpoint into the fabric; returns its inbound
    /// datagram stream. The receiver disconnects once the endpoint is
    /// unregistered (or the fabric is torn down) and its queue drains.
    fn register(&self, addr: FlipAddress) -> Receiver<Datagram>;

    /// Removes an endpoint (a departed or "crashed" process): its
    /// traffic blackholes from now on.
    fn unregister(&self, addr: FlipAddress);

    /// Subscribes a registered endpoint to a group's multicast address.
    fn join_mcast(&self, group: GroupId, addr: FlipAddress);

    /// A sending port for `from`. Sends run on the calling thread, and
    /// a sender carries its own state (an epoch-cached membership
    /// snapshot, an encode buffer), so it is `Send` but not `Sync` —
    /// callers serialize sends per port, which the driver loop already
    /// does. Asking twice for one address yields two independent ports
    /// onto the same endpoint; after `unregister` a port blackholes.
    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender>;

    /// Whether every endpoint of this fabric lives in the calling
    /// process, so that a reply is one thread hand-off away. The
    /// runtime enables the high-water sync round
    /// (`GroupConfig::history_high_water`) on such fabrics only; on
    /// any other it keeps the round at the refusal, as in 1996, until
    /// that fabric's flip is made and measured on its own (DESIGN.md
    /// §2). [`crate::LiveNet`] says yes; the default is no.
    fn in_process(&self) -> bool {
        false
    }
}

/// A per-endpoint sending port (see [`Transport::sender`]).
pub trait TransportSender: Send {
    /// Sends point-to-point. Best-effort: unknown destinations and
    /// socket errors drop silently.
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame);

    /// Sends to every member of `group` except the sender itself
    /// (multicast does not loop back, as on real hardware).
    fn multicast(&mut self, group: GroupId, frame: WireFrame);
}

//! The datagram transport abstraction the live runtime drives.
//!
//! `amoeba-runtime`'s per-member driver loop is transport-agnostic: it
//! needs a way to plug an endpoint in (yielding the [`Inbox`] its one
//! thread blocks on), a way to subscribe the endpoint to a group's
//! multicast address, and a per-endpoint sender for unicast and
//! multicast frames. This module names that contract so the in-memory
//! fabric ([`crate::LiveNet`]) and the real inter-process UDP fabric
//! ([`crate::UdpNet`]) are interchangeable behind one trait object
//! (DESIGN.md §12) — the OptSCORE-style "keep the transport swappable
//! behind the config surface" argument, applied to this stack.
//!
//! **One wake source per endpoint.** An [`Inbox`] is what the endpoint
//! receives on *and* what its thread sleeps on — in memory a channel,
//! over UDP the socket itself, read on the calling thread — and its
//! [`Waker`] interrupts that sleep from any other thread. A driver
//! needs no second channel to hear about new timers or shutdown, and a
//! fabric needs no thread of its own.
//!
//! Both sides of the contract speak [`WireFrame`]: the zero-copy
//! (head, optional tail) segment pair produced by
//! `amoeba_core::FrameEncoder`. What a transport does with the segments
//! (share them by refcount in memory, gather-write them into a socket)
//! is its own business; the protocol core never sees the difference.

use std::time::Duration;

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::udp::UdpInbox;

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
    /// side.
    fn register(&self, addr: FlipAddress) -> Inbox;

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

/// An endpoint's inbound side: what its thread receives on and sleeps
/// on. `Send`, not `Sync` — one thread reads it.
pub struct Inbox(pub(crate) Source);

pub(crate) enum Source {
    /// In memory. The feed is kept for [`Inbox::waker`].
    Channel(Receiver<Option<Datagram>>, InboxFeed),
    Udp(Box<UdpInbox>),
}

/// Feeds an in-memory [`Inbox`]: `Some` queues a datagram, `None` only
/// wakes the reader.
pub type InboxFeed = Sender<Option<Datagram>>;

/// Ends an [`Inbox`]'s wait early, from any thread. Best-effort, like
/// the fabric: a wake that cannot be queued means the inbox has
/// datagrams to return anyway.
pub type Waker = Box<dyn Fn() + Send + Sync>;

impl Inbox {
    /// An in-memory inbox and the feed a fabric fills it through.
    pub fn channel() -> (InboxFeed, Inbox) {
        let (tx, rx) = channel::unbounded();
        (tx.clone(), Inbox(Source::Channel(rx, tx)))
    }

    /// Blocks up to `timeout` for the next datagram. A zero `timeout`
    /// polls, on both sources alike: it returns a datagram that has
    /// already arrived, and never waits for one.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`], when nothing arrived in time *or*
    /// the [`Waker`] interrupted the wait: the caller re-reads whatever
    /// it sleeps on and comes back.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, RecvTimeoutError> {
        match &self.0 {
            Source::Channel(rx, _) => rx.recv_timeout(timeout)?.ok_or(RecvTimeoutError::Timeout),
            Source::Udp(inbox) => inbox.recv_timeout(timeout).ok_or(RecvTimeoutError::Timeout),
        }
    }

    /// The handle that interrupts [`Inbox::recv_timeout`]: a token on
    /// the channel, or an empty datagram to the endpoint's own port.
    pub fn waker(&self) -> Waker {
        match &self.0 {
            Source::Channel(_, feed) => {
                let feed = feed.clone();
                Box::new(move || drop(feed.send(None)))
            }
            Source::Udp(inbox) => inbox.waker(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UdpConfig, UdpNet};

    /// A timeout the clock cannot represent is a wait with no
    /// deadline, on both sources alike, and the waker still ends it
    /// from another thread (before or after the wait begins: either
    /// way nothing else can end it).
    #[test]
    fn a_waker_ends_a_wait_with_no_deadline_on_both_sources() {
        let udp = UdpNet::new(UdpConfig::default());
        for (source, inbox) in
            [("channel", Inbox::channel().1), ("udp", udp.register(FlipAddress::process(1)))]
        {
            let waker = inbox.waker();
            std::thread::scope(|s| {
                s.spawn(&waker);
                assert_eq!(
                    inbox.recv_timeout(Duration::MAX).err(),
                    Some(RecvTimeoutError::Timeout),
                    "{source}"
                );
            });
        }
    }
}

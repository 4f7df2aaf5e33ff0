//! What travels inside simulated Ethernet frames.

use std::rc::Rc;

use amoeba_core::WireMsg;
use amoeba_flip::FlipAddress;
use amoeba_rpc::RpcMsg;

/// A logical packet above the FLIP layer.
#[derive(Debug, Clone)]
pub enum SimPacket {
    /// Group protocol traffic.
    Group {
        /// Sending process.
        from: FlipAddress,
        /// The packet.
        msg: WireMsg,
    },
    /// RPC traffic (the baseline experiments).
    Rpc {
        /// Sending process.
        from: FlipAddress,
        /// The packet.
        msg: RpcMsg,
    },
}

impl SimPacket {
    /// The sending process address.
    pub fn from(&self) -> FlipAddress {
        match self {
            SimPacket::Group { from, .. } | SimPacket::Rpc { from, .. } => *from,
        }
    }

    /// Size above the FLIP layer in bytes (for wire and copy costs).
    pub fn wire_size(&self) -> u32 {
        match self {
            SimPacket::Group { msg, .. } => msg.wire_size(),
            SimPacket::Rpc { msg, .. } => msg.wire_size(),
        }
    }
}

/// One FLIP fragment of a [`SimPacket`]. The simulator never serializes
/// payload bytes: each fragment carries a handle on the whole logical
/// packet, allocated once per send and shared by the send's fragments
/// and by every receive ring the medium copies a frame into (chaos
/// duplicates included), and reassembly counts fragments — only
/// *timing* is simulated at this layer, byte-exact framing is covered by
/// the real codecs' unit tests. `Rc`, not `Arc`: a simulation runs on
/// one thread.
#[derive(Debug, Clone)]
pub struct SimFrag {
    /// The logical packet this fragment belongs to.
    pub packet: Rc<SimPacket>,
    /// Sender-local fragment-stream id.
    pub msg_id: u64,
    /// Fragment index.
    pub index: u16,
    /// Total fragments in the packet.
    pub count: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::Frame;

    /// A receive-ring slot holds a handle on the packet, not a copy of
    /// it: the medium writes one per receiver per fragment.
    #[test]
    fn a_ring_slot_holds_a_handle_not_the_packet() {
        assert!(std::mem::size_of::<Frame<SimFrag>>() <= 40);
    }
}

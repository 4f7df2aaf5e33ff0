//! Simulated network hardware: a shared 10 Mbit/s Ethernet segment with
//! CSMA/CD, Lance-style network interfaces with a bounded receive ring,
//! and a per-host CPU model.
//!
//! This crate reproduces the testbed of Kaashoek & Tanenbaum's ICDCS '96
//! evaluation: 30 hosts on one Ethernet, each with a Lance interface able
//! to buffer 32 packets before dropping, 1514-byte frames, collisions and
//! exponential backoff among uncoordinated senders. Those hardware
//! details are *load-bearing* for the paper's results — the 4-Kbyte
//! throughput collapse comes from the 32-slot ring, and the multi-group
//! aggregate limit (~61 % utilization) comes from CSMA/CD contention — so
//! they are modelled explicitly rather than abstracted away. The
//! stack's layer map is DESIGN.md §1 and the simulated driver built on
//! this crate is DESIGN.md §3 (repository root).
//!
//! Beyond the simulated hardware, this crate also owns the *real*
//! datagram fabrics of the stack — everything under the
//! `Arc<dyn Transport>` the live runtime drives: the [`Transport`]
//! trait, the in-memory [`LiveNet`], and the inter-process [`UdpNet`],
//! which carries the existing wire format over `std::net::UdpSocket`s
//! between OS processes (DESIGN.md §12). Both fabrics send through one
//! epoch-tagged snapshot of their registry (DESIGN.md §7).
//!
//! One [`FaultPlan`] — per-link drop, duplicate and delay inside a
//! noise window, plus scheduled [`Partition`]s — scripts faults on
//! both the simulated [`Net`] and [`LiveNet`], judged by one function
//! (DESIGN.md §9).
//!
//! # Architecture
//!
//! The crate plugs into the [`amoeba_sim::Simulation`] event loop via the
//! [`NetView`] trait: the embedding world (the simulated Amoeba kernel in
//! `amoeba-kernel`) exposes its [`Net`] and receives upcalls when a frame
//! lands in a receive ring or a transmission is abandoned. Frames carry a
//! logical payload type chosen by the embedder; only the *wire length* is
//! simulated, never byte serialization.
//!
//! # Example
//!
//! ```
//! use amoeba_sim::Simulation;
//! use amoeba_net::{Frame, Net, NetConfig, NetView, HostId};
//!
//! struct World {
//!     net: Net<World>,
//!     received: Vec<(HostId, &'static str)>,
//! }
//! impl NetView for World {
//!     type Payload = &'static str;
//!     fn net(&mut self) -> &mut Net<World> { &mut self.net }
//!     fn on_frame_buffered(sim: &mut Simulation<World>, host: HostId) {
//!         // A real kernel would charge interrupt cost; tests just drain.
//!         while let Some(frame) = sim.world.net.host_mut(host).nic.pop_rx() {
//!             sim.world.received.push((host, frame.payload));
//!         }
//!     }
//! }
//!
//! let mut net = Net::new(NetConfig::ether_10mbps(), 42);
//! let a = net.add_host();
//! let b = net.add_host();
//! let mut sim = Simulation::new(World { net, received: vec![] }, 42);
//! let frame = Frame::unicast(a, b, 116, "hello");
//! Net::send_frame(&mut sim, a, frame);
//! sim.run();
//! assert_eq!(sim.world.received, vec![(b, "hello")]);
//! ```

mod cpu;
mod fault;
mod frame;
mod live;
mod medium;
mod net;
mod nic;
mod snapshot;
pub mod transport;
mod udp;

pub use cpu::{CpuPriority, CpuStats};
pub use fault::{ChaosStats, FaultPlan, HostSet, LinkFaults, Partition};
pub use frame::{Frame, FrameDst, MacAddr, McastAddr};
pub use live::LiveNet;
pub use medium::{MediumState, MediumStats};
pub use net::{Host, HostId, Net, NetConfig, NetView};
pub use nic::{Nic, NicStats};
pub use transport::{
    flush_wakes, hold_wakes, Bell, Datagram, Inbox, InboxFeed, Topic, Transport, TransportSender,
    WakeHold,
};
pub use udp::{InboxDrops, ReadToken, UdpConfig, UdpNet, ENVELOPE_LEN, MAX_UDP_DATAGRAM};

//! A live, multi-threaded runtime for the Amoeba group protocol.
//!
//! Where `amoeba-kernel` replays the paper's *numbers* on a simulated
//! testbed, this crate runs the very same [`amoeba_core::GroupCore`]
//! state machine under real concurrency: one driver thread per member
//! over any `amoeba-net` [`Transport`] — the in-memory [`LiveNet`]
//! with configurable loss, duplication and delay jitter
//! ([`FaultPlan`]), or [`UdpNet`]'s real sockets (both live in
//! `amoeba-net` and are re-exported here) — and the paper's blocking
//! user API (Table 1): `CreateGroup`, `JoinGroup`, `SendToGroup`,
//! `ReceiveFromGroup`, `LeaveGroup`, `ResetGroup`, `GetInfoGroup`.
//! Packets really cross thread boundaries as bytes, through the
//! binary codec in `amoeba-core`.
//!
//! The paper (§5) concludes that "the flexibility and modularity of
//! user-level implementations of protocols is likely to outweigh the
//! potential performance loss" — this crate is that user-level
//! implementation. It is the "live" half of DESIGN.md §3 (repository
//! root); `GroupHandle::send_pipelined` exposes the batching and
//! pipelining knobs of DESIGN.md §6.
//!
//! # Example
//!
//! ```
//! use amoeba_runtime::{Amoeba, FaultPlan};
//! use amoeba_core::{GroupConfig, GroupId, GroupEvent};
//! use bytes::Bytes;
//!
//! let amoeba = Amoeba::new(42, FaultPlan::reliable());
//! let a = amoeba.create_group(GroupId(1), GroupConfig::default())?;
//! let b = amoeba.join_group(GroupId(1), GroupConfig::default())?;
//!
//! let seqno = b.send_to_group(Bytes::from_static(b"hello"))?;
//! // Every member receives the ordered event — including the sender.
//! loop {
//!     if let GroupEvent::Message { payload, .. } = a.receive_from_group()? {
//!         assert_eq!(&payload[..], b"hello");
//!         break;
//!     }
//! }
//! # let _ = seqno;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod handle;
mod host;
pub mod multiproc;
mod node;
pub mod state_transfer;

pub use amoeba_core::Error;
pub use amoeba_net::{FaultPlan, LiveNet, Transport, TransportSender, UdpConfig, UdpNet};
pub use handle::{Amoeba, GroupHandle};
pub use host::{form_group, pump_apps, LiveHost, Pumps};
pub use state_transfer::{GroupState, Replica, ReplicaError};

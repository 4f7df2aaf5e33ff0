//! The Amoeba group communication protocol.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Kaashoek & Tanenbaum, *An Evaluation of the Amoeba Group
//! Communication System*, ICDCS '96): reliable, **totally-ordered**
//! broadcast within a process group, built around two unique design
//! decisions —
//!
//! 1. a **sequencer-based protocol with negative acknowledgements**: one
//!    member per group stamps every message with a sequence number; in
//!    the common case a broadcast costs just two packets (PB method) or
//!    one data packet plus a short accept (BB method), and receivers
//!    complain only when they *miss* something;
//! 2. **user-selectable fault tolerance**: the resilience degree `r`
//!    makes `SendToGroup` block until `r` other kernels hold the
//!    message, so any `r` crashes cannot lose an acknowledged broadcast
//!    — users pay only for the tolerance they ask for.
//!
//! The protocol also totally orders joins, leaves and sequencer
//! handoffs, detects failures with retried probes (declaring
//! non-responders dead), and rebuilds the group after crashes via the
//! invitation-based `ResetGroup` recovery.
//!
//! The crate is **sans-io**: [`GroupCore`] consumes decoded packets and
//! timer expirations, and emits [`Action`]s. Two drivers exist in this
//! workspace — the calibrated discrete-event simulator (`amoeba-kernel`,
//! reproducing the paper's figures) and a live threaded runtime
//! (`amoeba-runtime`, offering the paper's blocking API under real
//! concurrency and fault injection).
//!
//! Beyond the paper, [`BatchPolicy`] adds sequencer batching and
//! sender pipelining (`BcastBatch`/`BcastReqBatch` frames, a
//! `send_window` of in-flight requests, watermark floor reports) that
//! lift the sequencer-bound throughput ceiling ≥ 2× while keeping the
//! default (`BatchPolicy::Off`) bit-identical to the 1996 protocol.
//! [`GroupConfig::default`] is the live profile — the sequencer asks
//! silent members for their delivery floors at half history occupancy
//! — and [`GroupConfig::paper`] the 1996 configuration the simulated
//! experiments are built from (DESIGN.md §2).
//!
//! The protocol walkthrough is DESIGN.md §2, the batching/pipelining
//! design DESIGN.md §6, and the crate's place in the stack DESIGN.md
//! §1 (all at the repository root).
//!
//! # Quick start
//!
//! ```
//! use amoeba_core::{GroupConfig, GroupCore, GroupId, Action};
//! use amoeba_flip::FlipAddress;
//! use bytes::Bytes;
//!
//! // Found a group; the creator is member 0 and sequences.
//! let (mut a, _) = GroupCore::create(
//!     GroupId(7),
//!     FlipAddress::process(1),
//!     GroupConfig::default(),
//! )?;
//!
//! // A singleton group's send completes locally.
//! let actions = a.send_to_group(Bytes::from_static(b"hello"));
//! assert!(actions.iter().any(|x| matches!(x, Action::SendDone(Ok(_)))));
//! assert!(actions.iter().any(|x| matches!(x, Action::Deliver(_))));
//! # Ok::<(), amoeba_core::GroupError>(())
//! ```

#![warn(missing_docs)]

mod action;
pub mod audit;
mod codec;
mod config;
mod core;
mod error;
mod event;
mod flat;
mod history;
mod ids;
mod info;
mod member;
mod membership;
mod message;
mod recovery;
pub mod sabotage;
mod sequencer;
mod stats;
mod timer;
mod view;

pub use action::{Action, Dest};
pub use codec::{decode_wire_frame, decode_wire_msg, encode_wire_msg, DecodeError, FrameEncoder, WireFrame};
pub use config::{
    BatchPolicy, GroupConfig, Method, BATCH_FRAME_BUDGET, GROUP_HEADER_LEN, USER_HEADER_LEN,
};
pub use core::GroupCore;
pub use error::{Error, GroupError};
pub use event::GroupEvent;
pub use history::HistoryBuffer;
pub use ids::{GroupId, MemberId, Seqno, ViewId};
pub use info::GroupInfo;
pub use message::{
    pack_batch_items, BatchItem, BatchReq, Body, Hdr, Sequenced, SequencedKind, Stamped, WireMsg,
};
pub use stats::CoreStats;
pub use timer::TimerKind;
pub use view::{GroupView, MemberMeta};

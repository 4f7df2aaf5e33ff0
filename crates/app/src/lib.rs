//! The portable application API: write a group application once, run
//! it on either backend.
//!
//! The paper evaluates one protocol under two lenses — measured
//! applications on real hardware and calibrated models — and this crate
//! is the interface that keeps our two lenses from needing two
//! programs. A [`GroupApp`] is an event-driven application: the host
//! calls [`GroupApp::on_start`] once membership is established, then
//! [`GroupApp::on_event`] for every totally-ordered group event and
//! every asynchronous completion, and [`GroupApp::on_timer`] for timers
//! the app armed. The app talks back exclusively through the [`Ctx`]
//! capability object it is handed on every callback.
//!
//! Two hosts exist (DESIGN.md §8, repository root):
//!
//! * `SimHost` (`amoeba-kernel`) runs apps *inline* in the discrete-
//!   event loop on the calibrated 1996 cost model — callbacks execute
//!   at simulated instants, timers fire in simulated time, and a run
//!   is deterministic given its seed;
//! * `LiveHost` (`amoeba-runtime`) runs each app on its member's one
//!   thread, the driver, between two waits on the member's inbox —
//!   timers fire in wall-clock time, or at once when a [`Ctx::waker`]
//!   handle asks.
//!
//! # The determinism contract
//!
//! The same app driven by the same script produces the same
//! *per-member delivery order* on both hosts, because both feed it the
//! same `GroupCore` total order. For that equivalence to hold the app
//! must derive its behaviour only from what the host gives it: the
//! events, the timers, [`Ctx::now`] and [`Ctx::info`] (a
//! [`Ctx::waker`] brings a timer forward on the live host alone: what
//! the app does then must not depend on how early). An app that
//! reads wall clocks, spawns threads or keeps global state is outside
//! the contract (and will still run — it just may diverge between
//! backends). The cross-backend conformance suite
//! (`tests/app_conformance.rs`, repository root) holds the two hosts to
//! this contract.

#![warn(missing_docs)]

mod apps;
pub mod cmd;
mod ctx;

pub use apps::SenderApp;
pub use ctx::{AppEvent, Ctx, TimerId};

/// An event-driven group application, portable across hosts.
///
/// All callbacks receive a [`Ctx`] capability object scoped to this
/// member. Callbacks must not block: on the simulated host they run
/// inline in the event loop (blocking would hang the simulation), and
/// on the live host they run on the member's driver thread (blocking
/// stalls the member's protocol — its acknowledgements, its
/// retransmissions, its sequencing — and not only its deliveries).
/// Request long waits with [`Ctx::set_timer`] instead.
pub trait GroupApp: Send {
    /// Called once, after this member's admission completes and before
    /// any event is delivered.
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        let _ = ctx;
    }

    /// Called for every delivered group event and every asynchronous
    /// completion, in order.
    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        let _ = (ctx, event);
    }

    /// Called when a timer armed with [`Ctx::set_timer`] expires.
    /// Timers fire in simulated time on `SimHost` and wall-clock time
    /// on `LiveHost`, and are cancelled by `leave`, `crash` and `stop`.
    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        let _ = (ctx, timer);
    }
}

impl GroupApp for Box<dyn GroupApp> {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        (**self).on_start(ctx)
    }
    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        (**self).on_event(ctx, event)
    }
    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        (**self).on_timer(ctx, timer)
    }
}

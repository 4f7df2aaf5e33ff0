//! The capability object a host hands to every app callback, and the
//! events it feeds back.

use std::sync::Arc;
use std::time::Duration;

use amoeba_core::{Error, GroupConfig, GroupEvent, GroupInfo, Seqno};
use bytes::Bytes;

/// An application-chosen timer identity. Re-arming an already-pending
/// id replaces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

impl std::fmt::Display for TimerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// What a host feeds to [`crate::GroupApp::on_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// A totally-ordered group event (message, membership change,
    /// recovery notification — see [`GroupEvent`]). Every member
    /// observes these in the same order.
    Group(GroupEvent),
    /// A [`Ctx::send`] completed. Completions are FIFO with this app's
    /// sends: the k-th `SendDone` reports the k-th `send`.
    SendDone(Result<Seqno, Error>),
    /// A [`Ctx::reset_group`] completed with the rebuilt view (or the
    /// reason recovery failed).
    ResetDone(Result<GroupInfo, Error>),
}

/// The capabilities an app has during a callback, scoped to its own
/// membership.
///
/// Mutating calls are *requests*: the host applies them after the
/// callback returns (on the simulated host, at the current simulated
/// instant). `send` is asynchronous — the host keeps up to the group's
/// `send_window` requests in flight and reports one
/// [`AppEvent::SendDone`] per payload, FIFO; queued payloads beyond the
/// window wait, so an app may enqueue freely without overrunning the
/// protocol.
pub trait Ctx {
    /// Queues one `SendToGroup`. Completion arrives as
    /// [`AppEvent::SendDone`].
    fn send(&mut self, payload: Bytes);

    /// Queues a burst of sends, pipelined up to the group's
    /// `send_window` (the event-driven analogue of the blocking
    /// `GroupHandle::send_pipelined`). One `SendDone` arrives per
    /// payload, in order.
    fn send_pipelined(&mut self, payloads: Vec<Bytes>) {
        for p in payloads {
            self.send(p);
        }
    }

    /// Starts `ResetGroup` recovery requiring `min_members` survivors.
    /// Completion arrives as [`AppEvent::ResetDone`].
    fn reset_group(&mut self, min_members: usize);

    /// Leaves the group gracefully and ends this app (no further
    /// callbacks; pending timers are cancelled).
    fn leave(&mut self);

    /// Simulates a processor crash: the member vanishes without a
    /// leave, its traffic blackholes, and this app ends (no further
    /// callbacks; pending timers are cancelled). The group's failure
    /// detection and `ResetGroup` are the answer — this is how fault
    /// scenarios are scripted portably.
    fn crash(&mut self);

    /// Arms (or re-arms) timer `timer` to fire after `after`:
    /// simulated time on `SimHost`, wall-clock time on `LiveHost`.
    fn set_timer(&mut self, timer: TimerId, after: Duration);

    /// Disarms a pending timer (a no-op if it is not pending).
    fn cancel_timer(&mut self, timer: TimerId);

    /// A handle that makes `timer`, if armed, fire now — callable from
    /// any thread, any number of times, for as long as the caller
    /// likes. It is a *hint a host may ignore*: `LiveHost` wakes the
    /// app's member, `SimHost` (and this default) does nothing, so the
    /// app must arm `timer` as well and a simulated run sees only its
    /// timers. For an app whose work arrives from outside the group
    /// (a queue another thread fills) and which would otherwise find
    /// it a poll period late.
    fn waker(&self, timer: TimerId) -> Arc<dyn Fn() + Send + Sync> {
        let _ = timer;
        Arc::new(|| {})
    }

    /// Time elapsed since this app started (simulated on `SimHost`,
    /// wall-clock on `LiveHost`).
    fn now(&self) -> Duration;

    /// `GetInfoGroup`: a snapshot of this member's view.
    fn info(&self) -> GroupInfo;

    /// The group configuration this member runs under.
    fn config(&self) -> GroupConfig;

    /// Ends this app without leaving the group: no further callbacks,
    /// pending timers are cancelled, queued-but-unissued sends are
    /// dropped, and the host finishes once every app has stopped. The
    /// membership itself stays alive until the host tears down, so
    /// other members see no departure.
    ///
    /// `stop`, [`Ctx::leave`] and [`Ctx::crash`] are *terminal*:
    /// any further requests made in the same callback are void, on
    /// both hosts alike.
    fn stop(&mut self);
}

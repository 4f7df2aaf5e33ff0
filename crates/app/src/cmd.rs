//! Host-side support: the buffered-command `Ctx` shared by every
//! host. Applications never touch this module; host implementations
//! (`SimHost` in `amoeba-kernel`, `LiveHost` in `amoeba-runtime`) do.
//!
//! Both hosts present the same `Ctx` semantics — reads answer
//! immediately, mutations are buffered during the callback and applied
//! when it returns. Centralizing the buffering here means the two
//! backends cannot drift apart in *what* gets requested; each host
//! only decides *how* to execute an [`AppCmd`].

use std::sync::Arc;
use std::time::Duration;

use amoeba_core::{GroupConfig, GroupInfo};
use bytes::Bytes;

use crate::{Ctx, TimerId};

/// A mutating `Ctx` request, buffered during an app callback and
/// applied by the host after it returns.
#[derive(Debug)]
pub enum AppCmd {
    /// Queue one `SendToGroup` (pipelined up to the group's
    /// `send_window`; one `SendDone` per payload, FIFO).
    Send(Bytes),
    /// Start `ResetGroup` recovery with this many required survivors.
    Reset(usize),
    /// Leave the group gracefully and end the app.
    Leave,
    /// Vanish without a leave and end the app.
    Crash,
    /// Arm (or re-arm) a timer.
    SetTimer(TimerId, Duration),
    /// Disarm a timer.
    CancelTimer(TimerId),
    /// End the app without leaving the group.
    Stop,
}

/// What a host must answer synchronously during a callback.
pub trait HostView {
    /// Time since the app started (simulated or wall-clock).
    fn now(&self) -> Duration;
    /// `GetInfoGroup` snapshot for this member.
    fn info(&self) -> GroupInfo;
    /// The group configuration this member runs under.
    fn config(&self) -> GroupConfig;
    /// [`Ctx::waker`]; a host that cannot be woken keeps this no-op.
    fn waker(&self, timer: TimerId) -> Arc<dyn Fn() + Send + Sync> {
        let _ = timer;
        Arc::new(|| {})
    }
}

/// The one `Ctx` implementation: reads delegate to the host's
/// [`HostView`], mutations buffer into [`BufferedCtx::cmds`].
pub struct BufferedCtx<V> {
    view: V,
    /// The requests issued during the callback, in order.
    pub cmds: Vec<AppCmd>,
}

impl<V> BufferedCtx<V> {
    /// An empty buffer over the host's view.
    pub fn new(view: V) -> Self {
        BufferedCtx { view, cmds: Vec::new() }
    }
}

impl<V: HostView> Ctx for BufferedCtx<V> {
    fn send(&mut self, payload: Bytes) {
        self.cmds.push(AppCmd::Send(payload));
    }

    fn reset_group(&mut self, min_members: usize) {
        self.cmds.push(AppCmd::Reset(min_members));
    }

    fn leave(&mut self) {
        self.cmds.push(AppCmd::Leave);
    }

    fn crash(&mut self) {
        self.cmds.push(AppCmd::Crash);
    }

    fn set_timer(&mut self, timer: TimerId, after: Duration) {
        self.cmds.push(AppCmd::SetTimer(timer, after));
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.cmds.push(AppCmd::CancelTimer(timer));
    }

    fn waker(&self, timer: TimerId) -> Arc<dyn Fn() + Send + Sync> {
        self.view.waker(timer)
    }

    fn now(&self) -> Duration {
        self.view.now()
    }

    fn info(&self) -> GroupInfo {
        self.view.info()
    }

    fn config(&self) -> GroupConfig {
        self.view.config()
    }

    fn stop(&mut self) {
        self.cmds.push(AppCmd::Stop);
    }
}

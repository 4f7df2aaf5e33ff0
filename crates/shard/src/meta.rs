//! The meta group: a tiny replicated app whose only state is the
//! shard map.
//!
//! Map changes ([`MapCmd`]) are broadcast through the meta group's
//! total order, so every meta member applies the identical command
//! sequence and the map has one well-defined history — the same trick
//! the data groups use for data, applied to the routing metadata
//! itself. After each applied command the member publishes its map
//! onto the shared [`MapBoard`]; the board's epoch guard makes
//! publishes from members at different positions commute.

use amoeba_app::{AppEvent, Ctx, GroupApp, TimerId};
use amoeba_core::GroupEvent;

use crate::gateway::Gateway;
use crate::map::{publish, MapBoard, MapCmd, ShardMap};
use crate::op::unframe;
use crate::server::SharedLog;

/// One meta-group member. The gateway member (see
/// [`crate::gateway`]) carries the inbox the move controller feeds.
pub struct MetaApp {
    map: ShardMap,
    board: MapBoard,
    log: SharedLog,
    gateway: Option<Gateway>,
}

impl MetaApp {
    /// A meta member starting from `initial`, publishing onto `board`.
    pub fn new(initial: ShardMap, board: MapBoard, log: SharedLog, gateway: Option<Gateway>) -> Self {
        MetaApp { map: initial, board, log, gateway }
    }
}

impl GroupApp for MetaApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if let Some(gw) = &mut self.gateway {
            gw.on_start(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        match event {
            AppEvent::Group(GroupEvent::Message { origin, payload, .. }) => {
                for (gseq, body) in unframe(&payload) {
                    self.log.lock().unwrap().push((origin.0, gseq));
                    if body == "Q" {
                        // What follows the halt in its frame is never
                        // seen, on any member.
                        ctx.stop();
                        break;
                    } else if let Some(cmd) = MapCmd::decode(body) {
                        self.map.apply(&cmd);
                        publish(&self.board, &self.map);
                    }
                }
            }
            AppEvent::Group(GroupEvent::ViewInstalled { .. }) => {
                if let Some(gw) = &mut self.gateway {
                    gw.on_view_installed(ctx);
                }
            }
            AppEvent::Group(GroupEvent::SequencerSuspected) if !ctx.config().auto_reset => {
                ctx.reset_group(1);
            }
            AppEvent::Group(GroupEvent::Expelled) => ctx.stop(),
            AppEvent::SendDone(r) => {
                if let Some(gw) = &mut self.gateway {
                    gw.on_send_done(ctx, r.is_ok());
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        if let Some(gw) = &mut self.gateway {
            gw.on_timer(ctx, timer);
        }
    }
}

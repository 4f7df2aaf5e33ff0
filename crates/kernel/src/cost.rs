//! The calibrated cost model: what each protocol layer costs on the
//! paper's hardware (20-MHz MC68030, Lance Ethernet interface).
//!
//! The paper's Table 3 breaks the 2740 µs critical path of a null
//! SendToGroup (group of 2, PB) into per-layer costs, and §4 supplies
//! further anchors: the group layer costs 740 µs; the sequencer's
//! per-message processing is "almost 800 microseconds" (bounding
//! throughput by 1250/s, with 815/s observed once the co-located member
//! is scheduled too); each resilience acknowledgement adds ≈ 600 µs;
//! most user-level time is the context switch to the receiving thread.
//! The constants here are fitted to those anchors; the experiments in
//! `amoeba-bench` verify the fit end to end.

use amoeba_core::Body;

/// Per-layer CPU costs in microseconds, plus per-byte copy costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// U1: `SendToGroup` entry — trap, validation, thread bookkeeping.
    pub user_send_entry: u64,
    /// Context switch waking a blocked application thread (the paper:
    /// "most of the time spent in user space is the context switch").
    pub user_wakeup: u64,
    /// Handing one more event to an already-running application thread.
    pub user_warm: u64,
    /// G1: group layer, send side, per message.
    pub group_send: u64,
    /// G2: group layer at the sequencer, per stamped message.
    pub group_seq: u64,
    /// G3: group layer, receive side, per delivered message.
    pub group_rx: u64,
    /// Group layer handling of short control packets (accepts, acks,
    /// status, nacks).
    pub group_ctl: u64,
    /// F: FLIP layer, per packet, send side.
    pub flip_send: u64,
    /// F: FLIP layer, per packet, receive side.
    pub flip_rx: u64,
    /// E (tx): Ethernet driver work to hand one frame to the Lance.
    pub ether_tx: u64,
    /// E (rx): taking the interrupt plus driver work per received frame.
    pub ether_rx: u64,
    /// Extra send-side work per destination of a multicast (the paper's
    /// "each node adds 4 microseconds to the delay").
    pub mcast_per_dest: u64,
    /// Marginal group-layer cost of each message *beyond the first*
    /// carried in a batch frame (`BcastBatch` unpacking at a member,
    /// `BcastReqBatch` stamping at the sequencer). The first message
    /// pays the full per-packet cost (`group_rx`/`group_seq`); the rest
    /// pay only the in-layer work — header parse, history insert,
    /// ordering bookkeeping — with no driver/FLIP/interrupt share.
    /// That asymmetry is the whole batching argument (DESIGN.md §6).
    pub group_batch_item: u64,
    /// memcpy cost in nanoseconds per byte (MC68030-era memory speed).
    pub copy_ns_per_byte: u64,
    /// RPC layer per request/reply at each end (baseline comparison).
    pub rpc_layer: u64,
    /// Cost charged for running a timer handler.
    pub timer_dispatch: u64,
}

impl CostModel {
    /// The paper's testbed: 20-MHz MC68030s on 10 Mbit/s Ethernet.
    ///
    /// Fitted anchors (see `EXPERIMENTS.md` for measured values):
    /// null-broadcast delay ≈ 2.7 ms for a group of 2 and ≈ 2.8 ms for
    /// 30 members; group-layer total 740 µs; sequencer-bound throughput
    /// ≈ 815 msg/s; ≈ 600 µs per resilience acknowledgement.
    pub fn mc68030_ether10() -> Self {
        CostModel {
            user_send_entry: 140,
            user_wakeup: 360,
            user_warm: 140,
            group_send: 200,
            group_seq: 250,
            group_rx: 290,
            group_ctl: 240,
            flip_send: 150,
            flip_rx: 150,
            ether_tx: 150,
            ether_rx: 160,
            mcast_per_dest: 4,
            group_batch_item: 70,
            copy_ns_per_byte: 160,
            rpc_layer: 140,
            timer_dispatch: 20,
        }
    }

    /// Cost of copying `bytes` once (µs, rounded down).
    pub fn copy_cost(&self, bytes: u32) -> u64 {
        u64::from(bytes) * self.copy_ns_per_byte / 1_000
    }

    /// Group-layer cost of processing one fully reassembled packet at a
    /// node (sequencer role considered). Batch frames charge the full
    /// per-packet cost once plus [`CostModel::group_batch_item`] per
    /// additional message they carry.
    pub fn group_layer_rx(&self, is_sequencer: bool, body: &Body) -> u64 {
        match body {
            Body::BcastReq { .. } | Body::BcastOrig { .. } if is_sequencer => self.group_seq,
            Body::BcastReqBatch { reqs } if is_sequencer => {
                self.group_seq + self.group_batch_item * reqs.len().saturating_sub(1) as u64
            }
            Body::BcastData { .. } | Body::Tentative { .. } => self.group_rx,
            Body::BcastBatch { items } => {
                self.group_rx + self.group_batch_item * items.len().saturating_sub(1) as u64
            }
            Body::BcastReq { .. } | Body::BcastOrig { .. } | Body::BcastReqBatch { .. } => {
                self.group_ctl
            }
            _ => self.group_ctl,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::mc68030_ether10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_core::Seqno;

    #[test]
    fn copy_cost_scales_linearly() {
        let c = CostModel::mc68030_ether10();
        assert_eq!(c.copy_cost(0), 0);
        assert_eq!(c.copy_cost(1_000), c.copy_ns_per_byte);
        assert_eq!(c.copy_cost(8_000), 8 * c.copy_ns_per_byte);
    }

    #[test]
    fn group_layer_distinguishes_sequencer_work() {
        let c = CostModel::mc68030_ether10();
        let req = Body::RetransReq { from: Seqno(1), to: Seqno(2) };
        assert_eq!(c.group_layer_rx(true, &req), c.group_ctl);
        let breq = Body::BcastReq { sender_seq: 1, payload: bytes::Bytes::new() };
        assert_eq!(c.group_layer_rx(true, &breq), c.group_seq);
        assert_eq!(c.group_layer_rx(false, &breq), c.group_ctl);
    }

    #[test]
    fn batch_frames_amortize_the_per_packet_cost() {
        use amoeba_core::{BatchItem, MemberId, Sequenced, SequencedKind};
        let c = CostModel::mc68030_ether10();
        let entry = |s: u64| {
            Sequenced::new(
                Seqno(s),
                SequencedKind::App {
                    origin: MemberId(1),
                    sender_seq: s,
                    payload: bytes::Bytes::new(),
                },
            )
        };
        let batch8 =
            Body::BcastBatch { items: (1..=8).map(|s| BatchItem::Entry(entry(s))).collect() };
        let one = Body::BcastData { entry: entry(1) };
        let batched = c.group_layer_rx(false, &batch8);
        let unbatched = 8 * c.group_layer_rx(false, &one);
        assert!(batched < unbatched, "batched {batched} vs 8 singles {unbatched}");
        // Marginal items must still cost something — batching is an
        // amortization, not a free lunch.
        assert!(batched > c.group_layer_rx(false, &one));
    }

    #[test]
    fn table3_group_layer_totals_740us() {
        // Paper Table 3: "The cost for the group protocol itself is 740
        // microseconds" on the G1 + G2 + G3 critical path.
        let c = CostModel::mc68030_ether10();
        assert_eq!(c.group_send + c.group_seq + c.group_rx, 740);
    }
}

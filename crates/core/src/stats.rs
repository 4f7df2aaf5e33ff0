//! Protocol statistics, used by tests (e.g. verifying the paper's
//! "3 + r FLIP messages per resilient broadcast") and by the evaluation
//! harness.

/// Counters maintained by [`crate::GroupCore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Packets handed to the driver for transmission.
    pub msgs_out: u64,
    /// Packets received and processed.
    pub msgs_in: u64,
    /// Application messages sequenced (sequencer only).
    pub sequenced: u64,
    /// Ordered events delivered to the application.
    pub delivered: u64,
    /// Negative acknowledgements (retransmission requests) sent.
    pub nacks_sent: u64,
    /// Retransmissions served from the history buffer (sequencer only).
    pub retransmissions: u64,
    /// Send requests refused because the history buffer was full
    /// (sequencer-side flow control).
    pub flow_control_drops: u64,
    /// Tentative acknowledgements sent (resilience path).
    pub tent_acks_sent: u64,
    /// Sync (status) rounds started (sequencer only).
    pub sync_rounds: u64,
    /// Members force-expelled by failure detection (sequencer only).
    pub expels: u64,
    /// Send retransmissions due to timeout.
    pub send_retries: u64,
    /// Recoveries this member coordinated to completion.
    pub recoveries_led: u64,
    /// Duplicate sequenced entries discarded.
    pub duplicates: u64,
    /// Batch frames multicast by the sequencer (batching on).
    pub batches_out: u64,
    /// Messages carried inside those batch frames.
    pub batched_entries: u64,
    /// Request-batch frames sent by a pipelining sender.
    pub req_batches_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = CoreStats::default();
        assert_eq!(s.msgs_out, 0);
        assert_eq!(s.recoveries_led, 0);
    }
}

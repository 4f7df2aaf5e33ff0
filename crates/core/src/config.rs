//! Group configuration: the knobs the paper exposes to users.

/// Length of the group protocol header on the wire (paper: 28 bytes).
pub const GROUP_HEADER_LEN: u32 = 28;

/// Length of the Amoeba user header carried on application messages
/// (paper: 32 bytes).
pub const USER_HEADER_LEN: u32 = 32;

/// Wire-size budget (above the FLIP layer) for one batch frame: the
/// Ethernet MTU minus the link and FLIP headers (1514 − 16 − 40). A
/// batch packed within this budget never straddles the fragmentation
/// limit, so the "one interrupt per batch" amortization the batching
/// layer promises actually holds on the wire (see DESIGN.md §6).
pub const BATCH_FRAME_BUDGET: u32 = 1458;

/// The share of [`BATCH_FRAME_BUDGET`] available to batch items: the
/// frame budget minus the group header and the 2-byte item count. Both
/// the packer ([`crate::pack_batch_items`]) and the sequencer's
/// flush-before-overflow bookkeeping use this single definition, so
/// the "never straddle the fragmentation limit" guarantee cannot drift
/// between them.
pub const BATCH_ITEMS_BUDGET: u32 = BATCH_FRAME_BUDGET - GROUP_HEADER_LEN - 2;

/// Sequencer batching policy (DESIGN.md §6).
///
/// With batching on, the sequencer coalesces stamped entries (PB) and
/// short accepts (BB) into one `BcastBatch` frame instead of
/// multicasting each message separately, amortizing one multicast and
/// one receive interrupt per member over the whole batch. Senders with
/// `send_window` > 1 correspondingly coalesce queued requests into
/// `BcastReqBatch` frames. `Off` (the default) reproduces the paper's
/// one-multicast-per-message behaviour bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BatchPolicy {
    /// No batching: every stamped message is its own multicast (the
    /// paper's protocol, and the default).
    #[default]
    Off,
    /// Coalesce up to `max_batch` messages per batch frame.
    On {
        /// Entries per batch at which the sequencer flushes immediately
        /// (the *size* trigger). Also bounded by [`BATCH_FRAME_BUDGET`].
        max_batch: usize,
        /// Age of the oldest batched entry at which the sequencer
        /// flushes regardless of fill, µs (the *timer* trigger; bounds
        /// the latency cost of batching).
        flush_us: u64,
    },
}

impl BatchPolicy {
    /// Whether batching is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, BatchPolicy::On { .. })
    }

    /// The size trigger (1 when off — every "batch" is one message).
    pub fn max_batch(self) -> usize {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::On { max_batch, .. } => max_batch,
        }
    }

    /// The timer trigger in µs (0 when off).
    pub fn flush_us(self) -> u64 {
        match self {
            BatchPolicy::Off => 0,
            BatchPolicy::On { flush_us, .. } => flush_us,
        }
    }
}

/// Which broadcast method `SendToGroup` uses (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Point-to-point to the sequencer, which multicasts the stamped
    /// message. Two network traversals of the payload (2n bytes), but
    /// each receiver takes a single interrupt.
    Pb,
    /// The sender multicasts the payload; the sequencer multicasts a
    /// short *accept* carrying the sequence number. One traversal of the
    /// payload (n bytes), but every machine takes two interrupts.
    Bb,
    /// Switch per message: PB for payloads at or below the threshold
    /// (interrupts dominate), BB above it (bandwidth dominates). This is
    /// what the Amoeba kernel did.
    Dynamic {
        /// Payload size in bytes above which BB is used.
        bb_threshold: u32,
    },
}

impl Method {
    /// The method to use for a payload of `len` bytes.
    pub fn pick(self, len: u32) -> Method {
        match self {
            Method::Dynamic { bb_threshold } => {
                if len > bb_threshold {
                    Method::Bb
                } else {
                    Method::Pb
                }
            }
            fixed => fixed,
        }
    }
}

impl Default for Method {
    fn default() -> Self {
        // One Ethernet frame of payload above the full header stack:
        // 1514 - 14 (eth) - 2 (fc) - 40 (FLIP) - 28 (group) = 1430.
        Method::Dynamic { bb_threshold: 1430 }
    }
}

/// Per-group protocol parameters.
///
/// Two profiles share every field but three. [`GroupConfig::default`]
/// is the *live* profile: the paper's 128-slot history buffer,
/// resilience 0 and dynamic method selection, with the sequencer
/// soliciting delivery floors at half occupancy (`history_high_water`
/// 64) and members answering at once (`status_stagger_us` 0), so a
/// sender among silent members never runs into the full buffer, and
/// with the repairs the chaos explorer checks on (`robust_repair`).
/// [`GroupConfig::paper`] is the 1996 configuration every simulated
/// experiment is pinned to: floors are solicited only once the buffer
/// is full, status replies are staggered 700 µs per rank, and the
/// repairs are off.
///
/// All times are in microseconds (the simulator's clock unit); the live
/// runtime maps them onto wall-clock microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConfig {
    /// Resilience degree *r*: `SendToGroup` returns only once ≥ r other
    /// kernels hold the message (paper §3.1). 0 = fastest, no tolerance
    /// of member crashes for in-flight messages.
    pub resilience: u32,
    /// Broadcast method selection.
    pub method: Method,
    /// Maximum application payload in bytes. The paper capped messages
    /// at 8000 bytes because multicast flow control was an open problem
    /// (§4); we default to the same bound.
    pub max_message: usize,
    /// Sequencer batching policy (DESIGN.md §6). Default [`BatchPolicy::Off`]
    /// reproduces the paper's per-message multicasts exactly.
    pub batch: BatchPolicy,
    /// Sender pipelining window: how many `SendToGroup` requests may be
    /// outstanding (submitted but not yet stamped) per member. The
    /// paper's blocking API is window 1 (the default); a larger window
    /// lets a sender stream requests and, with batching on, lets queued
    /// requests coalesce into one `BcastReqBatch` frame. Completions
    /// are reported one `SendDone` per request, in stamping order.
    pub send_window: usize,
    /// History buffer capacity in messages (paper's experiments: 128).
    /// A request that finds the buffer full is refused — silently
    /// dropped and counted in `flow_control_drops` — and its sender
    /// retries on `send_retransmit_us`. This is the protocol's one
    /// back-pressure device against a member that lags or is cut off;
    /// `history_high_water` exists so that it is never met otherwise.
    pub history_cap: usize,
    /// History occupancy (in entries, ≥ 1) at which an arriving request
    /// makes the sequencer start a status (sync) round — unless one is
    /// already open — to learn the floors of members that never send,
    /// while it goes on admitting up to `history_cap`. Equal to
    /// `history_cap`, the round starts only at the refusal (the 1996
    /// behaviour, [`GroupConfig::paper`]). Every backend and fabric
    /// honours the mark as configured (DESIGN.md §2).
    ///
    /// The headroom `history_cap − history_high_water` is what the
    /// group can order while the round is out, so the buffer stays
    /// short of full only if headroom × per-message time exceeds the
    /// slowest status reply: (members − 2) × `status_stagger_us` plus
    /// one round trip. [`GroupConfig::validate`] checks the part that
    /// needs no clock: the headroom must hold one `send_window`.
    pub history_high_water: usize,
    /// Initial retransmission timeout for an unacknowledged
    /// `SendToGroup` request, µs. Doubles per retry.
    pub send_retransmit_us: u64,
    /// Retries of a send request before the sequencer is declared
    /// unreachable and the send fails.
    pub send_max_retries: u32,
    /// Delay before re-sending a retransmission request for a detected
    /// gap, µs.
    pub nack_retry_us: u64,
    /// Interval between unsolicited sequencer sync rounds, µs (also
    /// bounds failure-detection latency for silent members). 0 disables
    /// periodic rounds (high-water rounds still happen).
    pub sync_interval_us: u64,
    /// How long the sequencer waits for `Status` replies in a sync round
    /// before re-asking, µs.
    pub sync_round_us: u64,
    /// Sync re-asks before a silent member is declared dead and
    /// force-removed (the paper's unreliable failure detection: "after a
    /// certain number of trials a process is declared dead").
    pub sync_max_retries: u32,
    /// Per-rank stagger of status replies, µs: the member at rank k
    /// (0 for the first non-sequencer member) answers a sync round
    /// after k × this delay, so large groups on a shared wire do not
    /// bury the sequencer under simultaneous replies (ack implosion).
    /// 0 (the default) answers at once. The last reply arrives
    /// (members − 2) × this after the request, which must stay under
    /// the time the `history_high_water` headroom buys (see there) and
    /// well under `sync_round_us × sync_max_retries`;
    /// [`GroupConfig::scaled_for`] widens it with the group.
    pub status_stagger_us: u64,
    /// Sequencer: resend interval for tentative (r > 0) broadcasts
    /// missing acknowledgements, µs.
    pub tentative_resend_us: u64,
    /// Joiner: retry interval for unanswered join requests, µs.
    pub join_retry_us: u64,
    /// Joiner: retries before `JoinGroup` fails.
    pub join_max_retries: u32,
    /// Recovery coordinator: gap between invitation rounds, µs.
    pub invite_round_us: u64,
    /// Recovery coordinator: invitation rounds before closing membership
    /// on the respondents collected so far.
    pub invite_rounds: u32,
    /// Recovery participant: silence from the coordinator for this long
    /// aborts the attempt and starts our own, µs.
    pub recovery_watchdog_us: u64,
    /// Beyond-paper congestion guards on the repair paths (on in the
    /// live profile; off in [`GroupConfig::paper`], which keeps the wire
    /// behaviour of the 1996 protocol exact):
    /// exponential backoff on negative-acknowledgement retries and on
    /// tentative re-multicasts, plus chunked (16-entry) retransmission
    /// service. Without them, a member far behind a backlog of large
    /// messages re-requests the full range faster than the
    /// multi-fragment answers can drain, and the duplicated bursts
    /// saturate the shared Ethernet until no repair, accept or
    /// acknowledgement gets through — a retransmission-storm congestion
    /// collapse the chaos explorer reproduced deterministically
    /// (DESIGN.md §9). Every chaos-explorer configuration enables this.
    pub robust_repair: bool,
    /// Automatically start recovery when the sequencer is suspected
    /// (send retries exhausted), instead of only failing the send. The
    /// paper's kernel left recovery to the application (`ResetGroup`);
    /// default off.
    pub auto_reset: bool,
    /// Minimum surviving members an auto-reset accepts (ignored unless
    /// `auto_reset`).
    pub auto_reset_min_members: usize,
}

impl Default for GroupConfig {
    /// The live profile (see the type's documentation).
    fn default() -> Self {
        GroupConfig {
            history_high_water: 64,
            status_stagger_us: 0,
            robust_repair: true,
            ..GroupConfig::paper()
        }
    }
}

impl GroupConfig {
    /// The paper's configuration: the 1996 protocol's behaviour, which
    /// the simulated experiments, the paper anchors and the golden
    /// scenario digests are pinned to. It differs from
    /// [`GroupConfig::default`] in exactly three fields: the sequencer
    /// asks for floors only once its history is full
    /// (`history_high_water` = `history_cap`), status replies are
    /// staggered 700 µs per rank, and the beyond-paper repairs are off
    /// (`robust_repair`). A lone sender among silent members
    /// therefore fills the buffer, is refused, and waits out
    /// `send_retransmit_us` once per `history_cap` messages — the
    /// mechanism behind the paper's Figures 4 and 5.
    pub fn paper() -> Self {
        GroupConfig {
            resilience: 0,
            method: Method::default(),
            batch: BatchPolicy::Off,
            send_window: 1,
            max_message: 8_000,
            history_cap: 128,
            history_high_water: 128,
            send_retransmit_us: 50_000,
            send_max_retries: 8,
            nack_retry_us: 20_000,
            sync_interval_us: 1_000_000,
            sync_round_us: 100_000,
            sync_max_retries: 4,
            status_stagger_us: 700,
            tentative_resend_us: 50_000,
            join_retry_us: 100_000,
            join_max_retries: 10,
            invite_round_us: 100_000,
            invite_rounds: 3,
            recovery_watchdog_us: 2_000_000,
            robust_repair: false,
            auto_reset: false,
            auto_reset_min_members: 1,
        }
    }

    /// A configuration with resilience degree `r` and defaults (the
    /// live profile) otherwise.
    pub fn with_resilience(r: u32) -> Self {
        GroupConfig { resilience: r, ..Default::default() }
    }

    /// [`GroupConfig::paper`] with the timing knobs widened for a group
    /// of `members` on a shared wire, and the high-water round at 3/4
    /// occupancy.
    ///
    /// The paper's configuration is tuned for its 30-host testbed and
    /// stops working two ways as groups grow past a couple of hundred
    /// members. First, staggered `Status` replies (rank × 700 µs) stop
    /// fitting in the sync round: the highest ranks answer after the
    /// sequencer has already spent its `sync_max_retries` re-asks and
    /// declared them dead. Second, join-request retries come back
    /// faster than an overloaded sequencer admits, so a thundering
    /// herd of joiners never converges. This constructor scales the
    /// sync round to cover the full reply span with 50 % margin, keeps
    /// dependent intervals (periodic sync, invitation rounds, recovery
    /// watchdog) proportionally above it, and backs join retries off
    /// to the group size. At `members` ≤ 64 every timer stays at its
    /// paper value, so small-world results are unaffected.
    pub fn scaled_for(members: usize) -> Self {
        Self::scaled_for_world(members, 1)
    }

    /// [`GroupConfig::scaled_for`], for a group sharing its Ethernet
    /// with `groups - 1` others of the same size. Status staggers widen
    /// further with the group count: the wire carries every group's
    /// reply stream, and when rounds align (they do — sequencers arm
    /// their periodic timers at creation) the aggregate must still
    /// stay under wire capacity or every round degenerates into
    /// collisions and re-asks.
    pub fn scaled_for_world(members: usize, groups: usize) -> Self {
        let mut c = GroupConfig::paper();
        let n = members.max(1) as u64;
        let g = groups.max(1) as u64;
        // The paper's stagger leaves ~150 µs of sequencer CPU slack per
        // reply. A big group eats that concurrently: every accept the
        // sequencer multicasts during a round costs it 4 µs × members
        // of send CPU, so the gap between replies must grow with the
        // group or the rx ring overflows mid-round and the silent
        // ranks get expelled.
        c.status_stagger_us = c.status_stagger_us.max(3 * n / 2).max(250 * g);
        if members > 95 {
            c.sync_max_retries = 6;
        }
        // Keep admission-era control entries (one per join) below the
        // high-water mark, or formation itself triggers pressure sync
        // rounds on a still-growing membership.
        c.history_cap = c.history_cap.max(members + 64);
        c.history_high_water = c.history_cap * 3 / 4;
        let reply_span = n * c.status_stagger_us;
        c.sync_round_us = c.sync_round_us.max(reply_span + reply_span / 2);
        c.sync_interval_us = c.sync_interval_us.max(2 * c.sync_round_us);
        c.invite_round_us = c.invite_round_us.max(c.sync_round_us);
        c.recovery_watchdog_us = c.recovery_watchdog_us.max(2 * c.sync_interval_us);
        c.join_retry_us = c.join_retry_us.max(n * 1_000);
        c.join_max_retries = c.join_max_retries.max(30);
        // Past the same boundary, naive repair melts down: a burst of
        // accepts overflows 32-slot receive rings, the gapped members
        // all nack, and un-backed-off retransmission bursts re-overflow
        // the rings they were healing (DESIGN.md §9).
        c.robust_repair = members > 95;
        c
    }

    /// This configuration for group index `g` of several sharing one
    /// wire, de-phased: the sync interval grows by a quarter round and
    /// the status stagger by 53 µs per index, so no two groups' rounds
    /// and replies stay aligned and collide chronically (DESIGN.md §10).
    pub fn dephased(mut self, g: usize) -> Self {
        self.sync_interval_us += g as u64 * (self.sync_round_us / 4);
        self.status_stagger_us += 53 * g as u64;
        self
    }

    /// A configuration with sequencer batching of up to `max_batch`
    /// messages (200 µs flush timer), a matching sender pipelining
    /// window, and defaults (the live profile) otherwise. This is the
    /// "throughput" preset; the `batch_sweep` experiment measures its
    /// batch and window over [`GroupConfig::paper`].
    pub fn with_batching(max_batch: usize) -> Self {
        GroupConfig {
            batch: BatchPolicy::On { max_batch, flush_us: 200 },
            send_window: max_batch.max(1),
            ..Default::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.history_cap == 0 {
            return Err("history_cap must be at least 1".into());
        }
        if self.history_high_water == 0 {
            return Err("history_high_water must be at least 1".into());
        }
        if self.history_high_water > self.history_cap {
            return Err("history_high_water must not exceed history_cap".into());
        }
        if self.send_retransmit_us == 0 {
            return Err("send_retransmit_us must be positive".into());
        }
        if self.invite_rounds == 0 {
            return Err("invite_rounds must be at least 1".into());
        }
        if self.send_window == 0 {
            return Err("send_window must be at least 1".into());
        }
        if self.send_window > self.history_cap {
            return Err("send_window must not exceed history_cap".into());
        }
        // One sender's window arrives back to back: with less headroom
        // it fills the buffer before any status reply can exist.
        if self.history_high_water < self.history_cap
            && self.history_cap - self.history_high_water < self.send_window
        {
            return Err(
                "history_cap - history_high_water must be at least send_window \
                 (or history_high_water must equal history_cap)"
                    .into(),
            );
        }
        if let BatchPolicy::On { max_batch, flush_us } = self.batch {
            if max_batch < 2 {
                return Err("batch max_batch must be at least 2 (use BatchPolicy::Off)".into());
            }
            if flush_us == 0 {
                return Err("batch flush_us must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_profiles_match_the_paper_setup_and_validate() {
        for c in [GroupConfig::default(), GroupConfig::paper()] {
            assert_eq!(c.resilience, 0);
            assert_eq!(c.history_cap, 128);
            assert!(c.validate().is_ok());
        }
        // The live profile asks for floors at half occupancy and is
        // answered at once; the paper's asks only when full.
        let live = GroupConfig::default();
        assert_eq!((live.history_high_water, live.status_stagger_us), (64, 0));
        let paper = GroupConfig::paper();
        assert_eq!((paper.history_high_water, paper.status_stagger_us), (128, 700));
    }

    #[test]
    fn dynamic_method_switches_on_threshold() {
        let m = Method::Dynamic { bb_threshold: 1430 };
        assert_eq!(m.pick(0), Method::Pb);
        assert_eq!(m.pick(1430), Method::Pb);
        assert_eq!(m.pick(1431), Method::Bb);
        assert_eq!(m.pick(8000), Method::Bb);
    }

    #[test]
    fn fixed_methods_never_switch() {
        assert_eq!(Method::Pb.pick(1_000_000), Method::Pb);
        assert_eq!(Method::Bb.pick(0), Method::Bb);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = GroupConfig { history_cap: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());

        let base = GroupConfig::default();
        let c = GroupConfig { history_high_water: base.history_cap + 1, ..base };
        assert!(c.validate().is_err());

        let c = GroupConfig { send_retransmit_us: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());

        let c = GroupConfig { invite_rounds: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());

        let c = GroupConfig { history_high_water: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn the_high_water_headroom_must_hold_one_send_window() {
        // 128 − 64 = 64 slots of headroom.
        let c = GroupConfig { send_window: 64, ..GroupConfig::default() };
        assert!(c.validate().is_ok());
        let c = GroupConfig { send_window: 65, ..GroupConfig::default() };
        assert!(c.validate().is_err());
        // With the round starting only at the refusal there is no
        // headroom to size: any window up to the cap goes.
        let c = GroupConfig { send_window: 128, ..GroupConfig::paper() };
        assert!(c.validate().is_ok());
        // Presets and the smallest buffers the tests use.
        let tiny = GroupConfig { history_cap: 4, history_high_water: 3, ..GroupConfig::default() };
        for c in [
            tiny,
            GroupConfig::with_batching(64),
            GroupConfig::scaled_for(1),
            GroupConfig::scaled_for_world(1000, 8),
        ] {
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn with_resilience_sets_r() {
        assert_eq!(GroupConfig::with_resilience(3).resilience, 3);
    }

    #[test]
    fn default_batching_is_off_and_window_one() {
        // The paper anchors depend on this: BatchPolicy::Off must keep
        // every default-config run bit-identical to the seed protocol.
        let c = GroupConfig::default();
        assert_eq!(c.batch, BatchPolicy::Off);
        assert_eq!(c.send_window, 1);
        assert!(!c.batch.is_on());
        assert_eq!(c.batch.max_batch(), 1);
        assert_eq!(c.batch.flush_us(), 0);
    }

    #[test]
    fn with_batching_preset() {
        let c = GroupConfig::with_batching(8);
        assert!(c.batch.is_on());
        assert_eq!(c.batch.max_batch(), 8);
        assert_eq!(c.send_window, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn batching_validation() {
        let c = GroupConfig { send_window: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());

        let base = GroupConfig::default();
        let c = GroupConfig { send_window: base.history_cap + 1, ..base };
        assert!(c.validate().is_err());

        let c = GroupConfig {
            batch: BatchPolicy::On { max_batch: 1, flush_us: 100 },
            ..GroupConfig::default()
        };
        assert!(c.validate().is_err());

        let c = GroupConfig {
            batch: BatchPolicy::On { max_batch: 4, flush_us: 0 },
            ..GroupConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn header_budget_matches_paper() {
        // 14 (eth) + 2 (fc) + 40 (flip) + 28 (group) + 32 (user) = 116.
        assert_eq!(16 + amoeba_flip::FLIP_HEADER_LEN + GROUP_HEADER_LEN + USER_HEADER_LEN, 116);
    }
}

//! The shared CSMA/CD medium (classic 10 Mbit/s Ethernet).

use amoeba_sim::{EventId, SimDuration, SimTime};

use crate::net::HostId;

/// What the medium is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumState {
    /// Nobody is transmitting.
    Idle,
    /// One station is transmitting; a second attempt inside the collision
    /// window destroys the frame.
    Busy {
        /// The transmitting station.
        station: HostId,
        /// When the transmission started (collision window anchor).
        start: SimTime,
    },
    /// A collision happened; the jam signal is on the wire.
    Jamming,
    /// A transmission just ended; stations must wait out the inter-frame
    /// gap before starting.
    InterFrameGap,
}

/// Aggregate wire statistics, used for the utilization numbers of the
/// paper's Figure 6 (61 % Ethernet utilization at peak aggregate
/// throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Microseconds the wire carried a (successful) transmission.
    pub busy_us: u64,
    /// Microseconds wasted on collisions and jam signals.
    pub collision_us: u64,
    /// Number of frames fully transmitted.
    pub frames: u64,
    /// Number of collision events.
    pub collisions: u64,
}

impl MediumStats {
    /// Fraction of `elapsed` during which the wire carried useful bits.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.as_micros() == 0 {
            return 0.0;
        }
        self.busy_us as f64 / elapsed.as_micros() as f64
    }
}

/// The shared-bus state machine. Driven by [`crate::Net`]; exposed for
/// inspection by experiments.
#[derive(Debug)]
pub struct Medium {
    pub(crate) state: MediumState,
    /// Stations that sensed carrier and are waiting for idle (1-persistent
    /// CSMA: they all retry the moment the wire goes quiet).
    pub(crate) deferring: Vec<HostId>,
    /// End-of-transmission event, cancelled if a collision destroys the
    /// frame in flight.
    pub(crate) end_event: Option<EventId>,
    /// Statistics.
    pub stats: MediumStats,
}

impl Medium {
    pub(crate) fn new() -> Self {
        Medium {
            state: MediumState::Idle,
            deferring: Vec::new(),
            end_event: None,
            stats: MediumStats::default(),
        }
    }

    /// The current medium state.
    pub fn state(&self) -> MediumState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let stats = MediumStats { busy_us: 500_000, ..Default::default() };
        assert!((stats.utilization(SimDuration::from_secs(1)) - 0.5).abs() < 1e-9);
        assert_eq!(MediumStats::default().utilization(SimDuration::ZERO), 0.0);
    }
}

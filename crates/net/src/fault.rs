//! Fault injection configuration for the in-memory [`crate::LiveNet`].

use std::time::Duration;

/// How the in-memory network misbehaves. Applied independently per
/// (packet, receiver) pair, so one multicast can reach some members and
/// not others — the failure mode the negative-acknowledgement scheme
/// exists to fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a delivery is dropped.
    pub loss: f64,
    /// Probability a delivery is duplicated.
    pub duplicate: f64,
    /// Minimum one-way delivery delay.
    pub min_delay: Duration,
    /// Maximum one-way delivery delay (uniform between min and max;
    /// reordering happens naturally when the window is wide).
    pub max_delay: Duration,
}

impl FaultPlan {
    /// No loss, no duplication, sub-millisecond delivery.
    pub fn reliable() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            min_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(200),
        }
    }

    /// A mildly hostile LAN: some loss, some duplication, jitter wide
    /// enough to reorder.
    pub fn lossy(loss: f64) -> Self {
        FaultPlan {
            loss,
            duplicate: loss / 2.0,
            min_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(2),
        }
    }

    /// Validates probabilities.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss probability {} out of range", self.loss));
        }
        if !(0.0..=1.0).contains(&self.duplicate) {
            return Err(format!("duplicate probability {} out of range", self.duplicate));
        }
        if self.min_delay > self.max_delay {
            return Err("min_delay exceeds max_delay".into());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::reliable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(FaultPlan::reliable().validate().is_ok());
        assert!(FaultPlan::lossy(0.2).validate().is_ok());
    }

    #[test]
    fn bad_plans_rejected() {
        let mut p = FaultPlan::reliable();
        p.loss = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::reliable();
        p.min_delay = Duration::from_secs(1);
        assert!(p.validate().is_err());
    }
}

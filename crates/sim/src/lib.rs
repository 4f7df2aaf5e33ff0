//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the lowest substrate of the Amoeba group communication
//! reproduction: a single-threaded, deterministic discrete-event simulator
//! with a microsecond-resolution clock, a cancellable event queue, a
//! seedable [`SplitMix64`] random number generator and simple metric
//! collection ([`Counter`], [`Histogram`]).
//!
//! Determinism is load-bearing for the evaluation: two runs with the same
//! seed produce byte-identical event orders (ties on the clock are broken
//! by insertion order), so every paper figure regenerated by
//! `amoeba-bench` is exactly reproducible. See DESIGN.md §1 (repository
//! root) for the layer map and DESIGN.md §3 for the driver this engine
//! powers.
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{Simulation, SimDuration};
//!
//! // The "world" can be any state the events mutate.
//! let mut sim = Simulation::new(0u64, 42);
//! sim.schedule_in(SimDuration::from_millis(3), |sim| {
//!     sim.world += 1;
//! });
//! sim.run();
//! assert_eq!(sim.world, 1);
//! assert_eq!(sim.now().as_micros(), 3_000);
//! ```

mod event;
mod lanes;
mod rng;
mod stats;
mod time;

pub use event::{EventId, Simulation};
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram, Series};
pub use time::{SimDuration, SimTime};

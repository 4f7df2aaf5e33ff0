//! The event queue and simulation driver.

use crate::lanes::Lanes;
use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    at: u64,
    seq: u64,
}

type EventFn<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

/// A deterministic discrete-event simulation over a world `W`.
///
/// Events are closures that receive `&mut Simulation<W>` and may mutate
/// the world, read the clock, schedule further events, and draw from the
/// seeded RNG. Events scheduled for the same instant run in the order
/// they were scheduled.
///
/// # Example
///
/// ```
/// use amoeba_sim::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new(Vec::new(), 1);
/// sim.schedule_in(SimDuration::from_micros(10), |sim| sim.world.push("b"));
/// sim.schedule_in(SimDuration::from_micros(5), |sim| sim.world.push("a"));
/// sim.run();
/// assert_eq!(sim.world, vec!["a", "b"]);
/// ```
pub struct Simulation<W> {
    /// The state mutated by events.
    pub world: W,
    now: SimTime,
    /// Future-event set: one FIFO lane per instant, popping in exact
    /// `(at, seq)` order. That key is the event's [`EventId`].
    queue: Lanes<EventFn<W>>,
    next_seq: u64,
    rng: SplitMix64,
    executed: u64,
}

impl<W> Simulation<W> {
    /// Creates a simulation at time zero over `world`, seeding the RNG.
    pub fn new(world: W, seed: u64) -> Self {
        Simulation {
            world,
            now: SimTime::ZERO,
            queue: Lanes::new(),
            next_seq: 0,
            rng: SplitMix64::new(seed),
            executed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Mutable access to the simulation RNG.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Schedules `event` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut Simulation<W>) + 'static,
    ) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let id = EventId { at: at.as_micros(), seq: self.next_seq };
        self.queue.push(id.at, id.seq, Box::new(event));
        self.next_seq += 1;
        id
    }

    /// Schedules `event` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        event: impl FnOnce(&mut Simulation<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + after, event)
    }

    /// Cancels a scheduled event. Cancelling an already-executed or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.remove(id.at, id.seq);
    }

    /// Runs the next pending event, advancing the clock to it.
    ///
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, _, run)) = self.queue.pop() else {
            return false;
        };
        let at = SimTime::from_micros(at);
        debug_assert!(at >= self.now);
        self.now = at;
        self.executed += 1;
        run(self);
        true
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events until the queue is empty or the clock passes
    /// `deadline`. Events scheduled exactly at the deadline still run;
    /// the clock never advances beyond the last executed event.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek() {
            if SimTime::from_micros(at) > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until `pred(&world)` holds (checked after every event) or the
    /// queue empties. Returns `true` if the predicate was satisfied.
    pub fn run_while(&mut self, mut pred: impl FnMut(&W) -> bool) -> bool {
        while pred(&self.world) {
            if !self.step() {
                return !pred(&self.world);
            }
        }
        true
    }
}

impl<W> Simulation<W> {
    /// The number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::new(), 0);
        sim.schedule_in(SimDuration::from_micros(30), |s| s.world.push(3));
        sim.schedule_in(SimDuration::from_micros(10), |s| s.world.push(1));
        sim.schedule_in(SimDuration::from_micros(20), |s| s.world.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn simultaneous_events_run_fifo() {
        let mut sim = Simulation::new(Vec::new(), 0);
        for i in 0..10 {
            sim.schedule_in(SimDuration::from_micros(5), move |s| s.world.push(i));
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0u64, 0);
        sim.schedule_in(SimDuration::from_micros(1), |s| {
            s.world += 1;
            s.schedule_in(SimDuration::from_micros(1), |s| {
                s.world += 10;
            });
        });
        sim.run();
        assert_eq!(sim.world, 11);
        assert_eq!(sim.now(), SimTime::from_micros(2));
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let mut sim = Simulation::new(0u64, 0);
        let id = sim.schedule_in(SimDuration::from_micros(5), |s| s.world += 1);
        sim.schedule_in(SimDuration::from_micros(6), |s| s.world += 100);
        sim.cancel(id);
        sim.run();
        assert_eq!(sim.world, 100);
    }

    #[test]
    fn a_cancelled_head_does_not_carry_run_until_past_its_deadline() {
        let mut sim = Simulation::new(Vec::new(), 0);
        let id = sim.schedule_in(SimDuration::from_micros(10), |s| s.world.push(10));
        sim.schedule_in(SimDuration::from_micros(30), |s| s.world.push(30));
        sim.cancel(id);
        sim.run_until(SimTime::from_micros(20));
        assert!(sim.world.is_empty(), "ran {:?} before the 20 µs deadline", sim.world);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn cancel_after_run_is_noop() {
        let mut sim = Simulation::new(0u64, 0);
        let id = sim.schedule_in(SimDuration::ZERO, |s| s.world += 1);
        sim.run();
        sim.cancel(id); // must not panic or corrupt anything
        assert_eq!(sim.world, 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Vec::new(), 0);
        sim.schedule_in(SimDuration::from_micros(10), |s| s.world.push(1));
        sim.schedule_in(SimDuration::from_micros(20), |s| s.world.push(2));
        sim.schedule_in(SimDuration::from_micros(30), |s| s.world.push(3));
        sim.run_until(SimTime::from_micros(20));
        assert_eq!(sim.world, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = Simulation::new((), 0);
        sim.run_until(SimTime::from_micros(500));
        assert_eq!(sim.now(), SimTime::from_micros(500));
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut sim = Simulation::new(0u64, 0);
        for _ in 0..100 {
            sim.schedule_in(SimDuration::from_micros(1), |s| s.world += 1);
        }
        let satisfied = sim.run_while(|w| *w < 5);
        assert!(satisfied);
        assert_eq!(sim.world, 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new((), 0);
        sim.schedule_in(SimDuration::from_micros(10), |s| {
            s.schedule_at(SimTime::from_micros(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn deterministic_given_seed() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(Vec::new(), seed);
            for _ in 0..20 {
                sim.schedule_in(SimDuration::from_micros(1), |s| {
                    let d = s.rng().gen_range(100);
                    s.world.push(d);
                    if d > 50 {
                        s.schedule_in(SimDuration::from_micros(d), move |s| s.world.push(d + 1000));
                    }
                });
            }
            sim.run();
            sim.world
        }
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}

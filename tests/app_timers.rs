//! `Ctx::set_timer` semantics on both hosts: timers fire in simulated
//! time on `SimHost` (exact instants, deterministic) and wall-clock
//! time on `LiveHost` (lower-bounded), in deadline order either way;
//! `cancel_timer` disarms; `leave`/`crash`/`stop` cancel whatever
//! is pending — a dead app never hears a late timer; and a deadline the
//! clock cannot represent never fires, on `UdpNet` too.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba::prelude::*;

type Fired = Arc<Mutex<Vec<(u64, Duration)>>>;

/// Arms two timers out of order, records what fires and when
/// (`Ctx::now`), and stops after both.
struct TwoTimers {
    fired: Fired,
}

impl GroupApp for TwoTimers {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        ctx.set_timer(TimerId(1), Duration::from_millis(150));
        ctx.set_timer(TimerId(2), Duration::from_millis(50));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        let mut fired = self.fired.lock().unwrap();
        fired.push((timer.0, ctx.now()));
        if fired.len() == 2 {
            ctx.stop();
        }
    }
}

fn run_two_timers(backend: Backend) -> Vec<(u64, Duration)> {
    let fired: Fired = Arc::new(Mutex::new(Vec::new()));
    let app = Box::new(TwoTimers { fired: Arc::clone(&fired) });
    amoeba::app::run(backend, RunSpec::new(21), vec![app]);
    let out = fired.lock().unwrap().clone();
    out
}

#[test]
fn sim_timers_fire_at_exact_simulated_instants() {
    let fired = run_two_timers(Backend::Sim);
    // Simulated time: not "roughly" — exactly, and in deadline order.
    assert_eq!(
        fired,
        vec![
            (2, Duration::from_millis(50)),
            (1, Duration::from_millis(150)),
        ]
    );
}

#[test]
fn live_timers_fire_in_wall_clock_order_after_their_deadlines() {
    let fired = run_two_timers(Backend::Live);
    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].0, 2, "shorter deadline fires first");
    assert_eq!(fired[1].0, 1);
    assert!(fired[0].1 >= Duration::from_millis(50), "fired early: {:?}", fired[0].1);
    assert!(fired[1].1 >= Duration::from_millis(150), "fired early: {:?}", fired[1].1);
}

/// Arms a "bomb" far out, cancels it, and proves the cancel held by
/// stopping on a later sentinel timer.
struct CancelApp {
    fired: Fired,
}

impl GroupApp for CancelApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        ctx.set_timer(TimerId(7), Duration::from_millis(60));
        ctx.cancel_timer(TimerId(7));
        ctx.set_timer(TimerId(8), Duration::from_millis(120));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        self.fired.lock().unwrap().push((timer.0, ctx.now()));
        ctx.stop();
    }
}

#[test]
fn cancel_timer_disarms_on_both_backends() {
    for backend in [Backend::Sim, Backend::Live] {
        let fired: Fired = Arc::new(Mutex::new(Vec::new()));
        let app = Box::new(CancelApp { fired: Arc::clone(&fired) });
        amoeba::app::run(backend, RunSpec::new(22), vec![app]);
        let fired = fired.lock().unwrap().clone();
        assert_eq!(fired.len(), 1, "[{backend}] cancelled timer fired: {fired:?}");
        assert_eq!(fired[0].0, 8, "[{backend}] wrong timer fired");
    }
}

/// From a callback at t > 0, arms timer 1 at 5 ms and re-arms it at
/// `Duration::MAX`, then arms timer 2 at 10 ms and stops on it. A
/// deadline the clock cannot represent is no deadline: re-arming
/// replaces the 5 ms one, timer 1 never fires, and the run ends.
struct FarTimer {
    fired: Fired,
}

impl GroupApp for FarTimer {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        ctx.set_timer(TimerId(0), Duration::from_millis(1));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        self.fired.lock().unwrap().push((timer.0, ctx.now()));
        match timer {
            TimerId(0) => {
                ctx.set_timer(TimerId(1), Duration::from_millis(5));
                ctx.set_timer(TimerId(1), Duration::MAX);
                ctx.set_timer(TimerId(2), Duration::from_millis(10));
            }
            TimerId(2) => ctx.stop(),
            _ => {}
        }
    }
}

#[test]
fn a_deadline_the_clock_cannot_represent_never_fires_on_every_backend() {
    for backend in [Backend::Sim, Backend::Live, Backend::Udp] {
        let fired: Fired = Arc::new(Mutex::new(Vec::new()));
        let app = Box::new(FarTimer { fired: Arc::clone(&fired) });
        amoeba::app::run(backend, RunSpec::new(24), vec![app]);
        let ids: Vec<u64> = fired.lock().unwrap().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2], "[{backend}] timers fired");
    }
}

/// Member 1 arms a long bomb timer and then departs (gracefully or by
/// crash) on a short fuse; member 0 outlives the bomb's deadline on a
/// sentinel timer. If departure failed to cancel the bomb, the late
/// `on_timer` would record it.
struct DepartingApp {
    crash: bool,
    fired: Fired,
}

impl GroupApp for DepartingApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if ctx.info().me.0 == 1 {
            ctx.set_timer(TimerId(666), Duration::from_millis(100)); // the bomb
            ctx.set_timer(TimerId(1), Duration::from_millis(20)); // the fuse
        } else {
            ctx.set_timer(TimerId(0), Duration::from_millis(250)); // outlives the bomb
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        self.fired.lock().unwrap().push((timer.0, ctx.now()));
        match timer {
            TimerId(1) if self.crash => ctx.crash(),
            TimerId(1) => ctx.leave(),
            TimerId(0) => ctx.stop(),
            _ => {}
        }
    }
}

#[test]
fn leave_and_crash_cancel_pending_timers_on_both_backends() {
    for crash in [false, true] {
        for backend in [Backend::Sim, Backend::Live] {
            let fired: Fired = Arc::new(Mutex::new(Vec::new()));
            let apps: Vec<Box<dyn GroupApp>> = (0..2)
                .map(|_| {
                    Box::new(DepartingApp { crash, fired: Arc::clone(&fired) })
                        as Box<dyn GroupApp>
                })
                .collect();
            amoeba::app::run(backend, RunSpec::new(23), apps);
            let fired = fired.lock().unwrap().clone();
            let ids: Vec<u64> = fired.iter().map(|&(id, _)| id).collect();
            assert!(
                !ids.contains(&666),
                "[{backend} crash={crash}] bomb timer fired after departure: {fired:?}"
            );
            assert!(ids.contains(&1), "[{backend} crash={crash}] fuse never fired");
            assert!(ids.contains(&0), "[{backend} crash={crash}] sentinel never fired");
        }
    }
}

//! Thread census of a UDP group (DESIGN.md §8, §12): a member is one
//! thread — its driver, which reads the socket itself and runs the
//! member's app if it hosts one — and a UDP endpoint has none of its
//! own. The tests take turns, so that neither counts the other's
//! members: a reintroduced per-endpoint or per-app thread, or one that
//! outlives its member, is a red run.
#![cfg(target_os = "linux")]

mod common;

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amoeba::core::{GroupConfig, GroupId};
use amoeba::prelude::*;
use amoeba::runtime::{Amoeba, Transport, UdpConfig, UdpNet};

/// Held by the test whose members are being counted.
static TURN: Mutex<()> = Mutex::new(());

/// Asserts the process's census of (`amoeba-*`, `udp-*`) threads.
fn settles_at((amoeba, udp): (usize, usize)) {
    common::threads_settle_at("amoeba-", amoeba);
    common::threads_settle_at("udp-", udp);
}

#[test]
fn a_udp_member_is_one_thread_and_leaves_none_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let net: Arc<dyn Transport> = UdpNet::new(UdpConfig::default());
    let amoeba = Amoeba::over_transport(net, 1);
    let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
    let b = amoeba.join_group(GroupId(1), GroupConfig::default()).expect("join b");
    let c = amoeba.join_group(GroupId(1), GroupConfig::default()).expect("join c");
    settles_at((3, 0));

    // Leaving by crash and by drop both return at once — the waker
    // ends the driver's wait on its socket — with the thread gone.
    let quick = Duration::from_millis(50);
    let t = Instant::now();
    c.crash();
    assert!(t.elapsed() < quick, "crash took {:?}", t.elapsed());
    settles_at((2, 0));
    let t = Instant::now();
    drop(b);
    assert!(t.elapsed() < quick, "drop took {:?}", t.elapsed());
    settles_at((1, 0));
    drop(a);
    settles_at((0, 0));
}

/// What a hosted member saw of its threads: the names its callbacks
/// ran under, and the process's (`amoeba-*`, `amoeba-app-*`) counts
/// taken from inside one of them.
#[derive(Default)]
struct Seen {
    names: BTreeSet<String>,
    census: Option<(usize, usize)>,
}

/// Sends one message, and on its delivery arms a timer that takes the
/// census and stops: all three kinds of callback run.
struct Counts(Arc<Mutex<Seen>>);

impl Counts {
    fn note_thread(&self) {
        let name = std::thread::current().name().unwrap_or("unnamed").to_string();
        self.0.lock().unwrap().names.insert(name);
    }
}

impl GroupApp for Counts {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        self.note_thread();
        ctx.send(Bytes::from_static(b"hello"));
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        self.note_thread();
        if matches!(event, AppEvent::SendDone(_)) {
            ctx.set_timer(TimerId(1), Duration::from_millis(5));
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, _timer: TimerId) {
        self.note_thread();
        let count = |prefix| common::threads_named(prefix).expect("procfs");
        self.0.lock().unwrap().census = Some((count("amoeba-"), count("amoeba-app-")));
        ctx.stop();
    }
}

/// Hosting an app costs a member no thread: every callback of a member
/// runs on that member's driver, and while three hosted members are up
/// the process has three `amoeba-*` threads.
#[test]
fn a_hosted_udp_member_is_one_thread_which_runs_its_app() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let seen: Vec<Arc<Mutex<Seen>>> = (0..3).map(|_| Arc::default()).collect();
    let apps = seen.iter().map(|s| Box::new(Counts(Arc::clone(s))) as Box<dyn GroupApp>);
    amoeba::app::run(Backend::Udp, RunSpec::new(3), apps.collect());

    let mut drivers = BTreeSet::new();
    for (member, seen) in seen.iter().enumerate() {
        let seen = seen.lock().unwrap();
        assert_eq!(seen.census, Some((3, 0)), "member {member}: (amoeba-*, amoeba-app-*) threads");
        assert_eq!(seen.names.len(), 1, "member {member} ran on {:?}", seen.names);
        drivers.extend(seen.names.iter().cloned());
    }
    let expect: BTreeSet<String> = (1..=3).map(|addr| format!("amoeba-flip:p{addr}")).collect();
    assert_eq!(drivers, expect, "each member's callbacks run on its own driver");
    settles_at((0, 0));
}

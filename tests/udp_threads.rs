//! Thread census of a UDP group (DESIGN.md §12): a member is one
//! thread — its driver, which reads the socket itself — and a UDP
//! endpoint has none of its own. One test, so that no sibling's
//! members are counted: a reintroduced per-endpoint thread, or one
//! that outlives its member, is a red run.
#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba::core::{GroupConfig, GroupId};
use amoeba::runtime::{Amoeba, Transport, UdpConfig, UdpNet};

/// (threads named `amoeba-*`, threads named `udp-*`) in this process.
fn census() -> (usize, usize) {
    let count = |prefix| common::threads_named(prefix).expect("procfs");
    (count("amoeba-"), count("udp-"))
}

/// `join` returns when a thread has exited, a moment before procfs
/// forgets it: the census is given that moment.
fn settles_at(expect: (usize, usize)) {
    let until = Instant::now() + Duration::from_secs(2);
    while census() != expect && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(census(), expect, "(amoeba-*, udp-*) threads");
}

#[test]
fn a_udp_member_is_one_thread_and_leaves_none_behind() {
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

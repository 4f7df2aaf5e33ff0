//! Helpers shared by the integration tests: the live-fabric ones and
//! the seeded case loop of the property tests.
#![allow(dead_code)] // each test binary uses a different subset

use std::time::{Duration, Instant};

use amoeba::core::{GroupConfig, GroupEvent, GroupId};
use amoeba::runtime::{Amoeba, GroupHandle};
use bytes::Bytes;

pub mod cases;

/// Drains ordered events until `n` messages have arrived; returns
/// (seqno, origin, payload) triples.
pub fn collect_messages(handle: &GroupHandle, n: usize) -> Vec<(u64, u32, String)> {
    let mut out = Vec::new();
    while out.len() < n {
        match handle.receive_timeout(Duration::from_secs(20)) {
            Ok(GroupEvent::Message { seqno, origin, payload }) => {
                out.push((seqno.0, origin.0, String::from_utf8_lossy(&payload).into_owned()));
            }
            Ok(_) => {}
            Err(e) => panic!("starved after {} messages: {e}", out.len()),
        }
    }
    out
}

/// Member 1 of three sends `SENDS` 64-byte messages among silent
/// peers under `config` (blocking at `send_window` 1, pipelined
/// above); returns the protocol's own counts, (refusals at the
/// sequencer, sender retries).
pub fn lone_sender_refusals(amoeba: &Amoeba, gid: GroupId, config: GroupConfig) -> (u64, u64) {
    const SENDS: usize = 2_000;
    let window = config.send_window;
    let a = amoeba.create_group(gid, config.clone()).expect("create");
    let b = amoeba.join_group(gid, config.clone()).expect("join b");
    let c = amoeba.join_group(gid, config).expect("join c");

    let payloads = (0..SENDS).map(|i| Bytes::from(vec![i as u8; 64]));
    if window == 1 {
        for p in payloads {
            b.send_to_group(p).expect("blocking send");
        }
    } else {
        for r in b.send_pipelined(payloads) {
            r.expect("pipelined send");
        }
    }
    assert_eq!(collect_messages(&c, SENDS).len(), SENDS);

    let sequencer = a.stats();
    assert!(sequencer.sync_rounds > 0, "{SENDS} sends fit no 128-slot history");
    (sequencer.flow_control_drops, b.stats().send_retries)
}

/// A lone sender among silent members does not meet the full history
/// buffer at the default configuration: the sequencer asks for floors
/// at the high-water mark and the members answer at once. Asserted on
/// the protocol's own counts, not on wall-clock time. A refusal is
/// still what must happen when the OS parks a silent member's thread
/// for longer than the headroom lasts (64 messages: a few hundred µs
/// of a pipelined stream), which the sibling tests' threads can cause
/// — so one clean run in three is asked for. Without the high-water
/// round every run is refused once per 128 messages. The same on
/// either fabric: the configuration means one thing.
pub fn lone_sender_is_never_refused(amoeba: &Amoeba, first_gid: u64, window: usize) {
    let seen: Vec<_> = (0..3)
        .map(|attempt| {
            let config = GroupConfig { send_window: window, ..GroupConfig::default() };
            lone_sender_refusals(amoeba, GroupId(first_gid + attempt), config)
        })
        .take_while(|&refused| refused != (0, 0))
        .collect();
    assert!(seen.len() < 3, "window {window}: (refusals, sender retries) in three runs: {seen:?}");
}

/// How many threads of this process have a name starting with
/// `prefix` (`None` where there is no procfs to ask).
pub fn threads_named(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names = tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.starts_with(prefix)).count())
}

/// Asserts that this process has `expect` threads named `prefix*`,
/// where procfs can tell. A thread names itself as it starts, and
/// `join` returns a moment before procfs forgets the thread: the
/// census is given those moments.
pub fn threads_settle_at(prefix: &str, expect: usize) {
    if threads_named(prefix).is_none() {
        return;
    }
    let until = Instant::now() + Duration::from_secs(2);
    while threads_named(prefix) != Some(expect) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads_named(prefix), Some(expect), "`{prefix}*` threads");
}

//! The UDP backend across real OS process boundaries: each member is a
//! separate re-execution of this test binary, sockets are the only
//! channel between them, and the parent scripts the run over
//! stdin/stdout (`amoeba::runtime::multiproc`, DESIGN.md §12).
//!
//! Each `#[test]` doubles as parent and child: a child (detected via
//! the harness env vars) branches into `run_child` and never returns;
//! the parent spawns the fleet and asserts on the reports.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba::app::{AppEvent, Ctx, GroupApp, TimerId};
use amoeba::core::{GroupConfig, GroupEvent, GroupId};
use amoeba::runtime::multiproc::{self, ChildSpec, ParentSpec};
use amoeba::runtime::UdpConfig;
use bytes::Bytes;

/// Per-member delivery log, rendered for the wire as `origin:payload`
/// pairs joined by commas (single line — the protocol's report format).
type Log = Arc<Mutex<Vec<(u32, String)>>>;

fn render(log: &Log) -> String {
    let log = log.lock().unwrap();
    log.iter().map(|(o, m)| format!("{o}:{m}")).collect::<Vec<_>>().join(",")
}

fn snappy() -> GroupConfig {
    GroupConfig {
        send_retransmit_us: 30_000,
        send_max_retries: 4,
        nack_retry_us: 20_000,
        sync_interval_us: 200_000,
        sync_round_us: 60_000,
        sync_max_retries: 3,
        join_retry_us: 50_000,
        join_max_retries: 6,
        invite_round_us: 50_000,
        invite_rounds: 3,
        recovery_watchdog_us: 1_000_000,
        ..GroupConfig::default()
    }
}

// ---------------------------------------------------------------------
// Script 1: token passing across three processes
// ---------------------------------------------------------------------

/// Message k is sent by member k % N once k−1 is delivered; member 0
/// opens — the same fully-scripted order `tests/app_conformance.rs`
/// pins on the in-process backends, now with every hop a real datagram
/// between processes.
struct TokenApp {
    members: u32,
    total: u32,
    log: Log,
}

impl TokenApp {
    fn maybe_send(&self, ctx: &mut dyn Ctx, next: u32) {
        if next < self.total && ctx.info().me.0 == next % self.members {
            ctx.send(Bytes::from(format!("m{next}")));
        }
    }
}

impl GroupApp for TokenApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        self.maybe_send(ctx, 0);
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        let AppEvent::Group(GroupEvent::Message { payload, origin, .. }) = event else {
            return;
        };
        let text = String::from_utf8_lossy(&payload).into_owned();
        let k: u32 = text[1..].parse().expect("token payload");
        self.log.lock().unwrap().push((origin.0, text));
        self.maybe_send(ctx, k + 1);
        if k + 1 == self.total {
            ctx.stop();
        }
    }
}

#[test]
fn three_processes_agree_on_the_token_script() {
    const MEMBERS: usize = 3;
    const TOTAL: u32 = 9;
    if multiproc::child_index().is_some() {
        let spec = ChildSpec {
            group: GroupId(1),
            config: GroupConfig::default(),
            udp: UdpConfig::default(),
        };
        multiproc::run_child(spec, |_member, members| {
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let app = Box::new(TokenApp { members: members as u32, total: TOTAL, log: Arc::clone(&log) });
            (app, Box::new(move || render(&log)))
        });
    }

    let reports =
        multiproc::run_parent(ParentSpec::new(MEMBERS, "three_processes_agree_on_the_token_script"));
    let expected: String = (0..TOTAL)
        .map(|k| format!("{}:m{k}", k % MEMBERS as u32))
        .collect::<Vec<_>>()
        .join(",");
    for (i, report) in reports.iter().enumerate() {
        let report = report.as_deref().unwrap_or_else(|| panic!("member {i} reported nothing"));
        assert_eq!(report, expected, "process {i} diverged from the scripted total order");
    }
}

// ---------------------------------------------------------------------
// Script 2: SIGKILL the sequencer's process mid-run, survivors recover
// ---------------------------------------------------------------------

/// The cross-process mirror of the crash script in
/// `tests/live_membership_recovery.rs`: three token rounds, then the
/// parent SIGKILLs member 0 (the sequencer) when member 1 marks m2
/// delivered — on a short fuse lit at that delivery, not in the
/// callback: the sequencer's multicast of m2 is one datagram per peer,
/// and a kill ordered the moment member 1's copy arrives can land
/// before member 2's has left (member 2's own send of m2 then fails,
/// ≈ 1 run in 7 on a loaded 2-CPU host; `tests/app_conformance.rs`
/// absorbs the same race the same way). Member 1 probes on a timer
/// until a send fails (the kill races the probe — a probe the dying
/// sequencer still ordered just re-arms the fuse), rebuilds with
/// `ResetGroup(2)`, and sends "post"; both survivors must log the full
/// history across the recovery.
struct KillScript {
    probing: bool,
    log: Log,
}

const PROBE_FUSE: TimerId = TimerId(1);
const KILL_FUSE: TimerId = TimerId(2);

impl GroupApp for KillScript {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if ctx.info().me.0 == 0 {
            ctx.send(Bytes::from_static(b"m0"));
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        match event {
            AppEvent::Group(GroupEvent::Message { payload, origin, .. }) => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                if text.starts_with("probe") {
                    return;
                }
                self.log.lock().unwrap().push((origin.0, text.clone()));
                let me = ctx.info().me.0;
                match (me, text.as_str()) {
                    (1, "m0") => ctx.send(Bytes::from_static(b"m1")),
                    (2, "m1") => ctx.send(Bytes::from_static(b"m2")),
                    (1, "m2") => ctx.set_timer(KILL_FUSE, Duration::from_millis(50)),
                    (_, "post") => ctx.stop(),
                    _ => {}
                }
            }
            AppEvent::SendDone(Ok(_)) if self.probing => {
                // The SIGKILL had not landed yet; probe again shortly.
                ctx.set_timer(PROBE_FUSE, Duration::from_millis(200));
            }
            AppEvent::SendDone(Err(_)) => {
                assert_eq!(ctx.info().me.0, 1, "only the prober sends into the dead group");
                self.probing = false;
                ctx.reset_group(2);
            }
            AppEvent::ResetDone(result) => {
                let info = result.expect("2 survivors answer the reset");
                assert_eq!(info.num_members(), 2);
                ctx.send(Bytes::from_static(b"post"));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        if timer == KILL_FUSE {
            // Tell the parent to pull the trigger on the sequencer's
            // process, then start probing.
            multiproc::mark("m2-delivered");
            self.probing = true;
            ctx.set_timer(PROBE_FUSE, Duration::from_millis(200));
            return;
        }
        assert_eq!(timer, PROBE_FUSE);
        ctx.send(Bytes::from_static(b"probe"));
    }
}

#[test]
fn killed_sequencer_process_is_survived_by_the_rest() {
    const MEMBERS: usize = 3;
    if multiproc::child_index().is_some() {
        let spec =
            ChildSpec { group: GroupId(2), config: snappy(), udp: UdpConfig::default() };
        multiproc::run_child(spec, |_member, _members| {
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let app = Box::new(KillScript { probing: false, log: Arc::clone(&log) });
            (app, Box::new(move || render(&log)))
        });
    }

    let mut spec =
        ParentSpec::new(MEMBERS, "killed_sequencer_process_is_survived_by_the_rest");
    spec.kill_on_mark = Some((0, "m2-delivered".to_string()));
    spec.timeout = Duration::from_secs(120);
    let reports = multiproc::run_parent(spec);

    assert!(reports[0].is_none(), "the killed sequencer cannot report");
    let expected = "0:m0,1:m1,2:m2,1:post";
    for (i, report) in reports.iter().enumerate().skip(1) {
        let report =
            report.as_deref().unwrap_or_else(|| panic!("survivor {i} reported nothing"));
        assert_eq!(report, expected, "survivor {i} diverged across the recovery");
    }
}

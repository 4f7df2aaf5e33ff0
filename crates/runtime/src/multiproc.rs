//! Multi-process harness for the UDP backend.
//!
//! A UDP group only proves anything when its members are separate OS
//! processes. This module is the scaffolding that makes such runs
//! scriptable from an ordinary `#[test]`: the test function is both
//! the parent and the child — the parent re-executes the current test
//! binary once per member (filtered to the same test via `--exact`),
//! and an environment variable tells each copy which member it is.
//! Ports travel over the children's stdin/stdout as `@amoeba-udp …`
//! protocol lines (everything else on stdout — the libtest banner,
//! app chatter — is ignored), so no filesystem or fixed port numbers
//! are involved and parallel test runs cannot collide.
//!
//! The choreography (all lines parent → child unless marked):
//!
//! 1. child *i* binds its endpoint and reports `port i <port>`;
//! 2. `peers <p0> … <pn-1>` gives every child the full port table;
//! 3. `join` is sent to child 0, which founds the group and answers
//!    `ready 0`; then to child 1, and so on — strictly sequential, so
//!    member ids are deterministic (member *i* = process *i*), exactly
//!    like the single-process hosts;
//! 4. `start` (broadcast) releases every child to host its app;
//! 5. each child reports `done i <report>` when its app stops, then
//!    waits; `exit` (broadcast once *all* surviving children are done)
//!    lets it tear down — the linger keeps every endpoint alive until
//!    nobody can still need a retransmission from it;
//! 6. a child app may emit `mark <text>` lines ([`mark`]); the parent
//!    can be scripted to SIGKILL a chosen member when a matching mark
//!    appears ([`ParentSpec::kill_on_mark`]) — that member's report
//!    slot comes back `None`, and the survivors' recovery is the thing
//!    under test.
//!
//! A watchdog bounds the whole run: on expiry the parent kills every
//! child and panics with what it was still waiting for.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_app::GroupApp;
use amoeba_core::{GroupConfig, GroupId};
use amoeba_flip::FlipAddress;
use amoeba_net::{Transport, UdpConfig, UdpNet};
use crossbeam::channel::{self, Receiver, RecvTimeoutError};

use crate::handle::Amoeba;
use crate::host::LiveHost;

/// Env var carrying a child's member index.
pub const ENV_MEMBER: &str = "AMOEBA_UDP_MEMBER";
/// Env var carrying the group size.
pub const ENV_MEMBERS: &str = "AMOEBA_UDP_MEMBERS";

const PREFIX: &str = "@amoeba-udp";

/// `Some((member, members))` when this process is a harness child —
/// call first thing in the test and branch into [`run_child`].
pub fn child_index() -> Option<(usize, usize)> {
    let member = std::env::var(ENV_MEMBER).ok()?.parse().ok()?;
    let members = std::env::var(ENV_MEMBERS).ok()?.parse().ok()?;
    Some((member, members))
}

/// Emits a `mark <text>` protocol line from a child app (single line;
/// the text must not contain `\n`). The parent can kill a member on a
/// matching mark ([`ParentSpec::kill_on_mark`]).
pub fn mark(text: &str) {
    println!("{PREFIX} mark {text}");
    let _ = std::io::stdout().flush();
}

/// What a child needs beyond its app.
pub struct ChildSpec {
    /// The group every member forms.
    pub group: GroupId,
    /// Group configuration (identical across members, as always).
    pub config: GroupConfig,
    /// UDP fabric tuning.
    pub udp: UdpConfig,
}

/// Runs the child role to completion and exits the process. `build`
/// receives `(member, members)` and returns the app plus a report
/// thunk; the thunk runs after the app stops and its (single-line)
/// string travels back to the parent verbatim.
///
/// # Panics
///
/// Panics on any protocol violation (EOF where a command was due,
/// group formation failing) — the parent's watchdog turns a panicked
/// child into a failed test.
pub fn run_child(
    spec: ChildSpec,
    build: impl FnOnce(usize, usize) -> (Box<dyn GroupApp>, Box<dyn FnOnce() -> String>),
) -> ! {
    let (member, members) = child_index().expect("run_child outside a harness child");
    let me = FlipAddress::process(member as u64 + 1);
    let net = UdpNet::new(spec.udp);
    let port = net.bind_endpoint(me).expect("bind child endpoint").port();
    println!("{PREFIX} port {member} {port}");
    let _ = std::io::stdout().flush();

    let mut stdin = BufReader::new(std::io::stdin());
    let ports: Vec<u16> = expect_cmd(&mut stdin, "peers")
        .split_whitespace()
        .map(|p| p.parse().expect("peer port"))
        .collect();
    assert_eq!(ports.len(), members, "one port per member");
    for (j, p) in ports.iter().enumerate() {
        if j != member {
            let at: SocketAddr = ([127, 0, 0, 1], *p).into();
            net.add_peer(FlipAddress::process(j as u64 + 1), at);
        }
    }

    expect_cmd(&mut stdin, "join");
    let amoeba = Amoeba::over_transport(net as Arc<dyn Transport>, member as u64 + 1);
    let handle = if member == 0 {
        amoeba.create_group(spec.group, spec.config)
    } else {
        amoeba.join_group(spec.group, spec.config)
    }
    .expect("child group formation");
    println!("{PREFIX} ready {member}");
    let _ = std::io::stdout().flush();

    expect_cmd(&mut stdin, "start");
    // The report thunk typically captures an `Arc` clone of the app's
    // shared log, so it can run after the boxed app is consumed.
    let (app, report) = build(member, members);
    let (_app, live) = LiveHost::pump(handle, app);
    println!("{PREFIX} done {member} {}", report());
    let _ = std::io::stdout().flush();
    // Linger until the parent says every member is done: our endpoint
    // must stay up while a peer could still need a retransmission.
    await_exit(&mut stdin);
    drop(live);
    std::process::exit(0)
}

fn expect_cmd(stdin: &mut impl BufRead, want: &str) -> String {
    loop {
        let mut line = String::new();
        let n = stdin.read_line(&mut line).expect("read parent command");
        assert!(n > 0, "parent hung up while child awaited `{want}`");
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix(want) {
            return rest.trim_start().to_string();
        }
    }
}

/// Reads the optional final `exit` command; EOF is treated the same
/// (the parent may already be gone on abnormal paths).
fn await_exit(stdin: &mut impl BufRead) {
    loop {
        let mut line = String::new();
        match stdin.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line.trim_end().starts_with("exit") => return,
            Ok(_) => {}
        }
    }
}

/// Parent-side run description.
pub struct ParentSpec {
    /// Group size (= number of child processes).
    pub members: usize,
    /// The test's own name, passed back to the binary with `--exact`.
    pub test_name: String,
    /// SIGKILL member `.0` when a child emits a mark containing `.1`.
    pub kill_on_mark: Option<(usize, String)>,
    /// Watchdog for the whole run.
    pub timeout: Duration,
}

impl ParentSpec {
    /// A plain run: `members` children, 60 s watchdog, no kills.
    pub fn new(members: usize, test_name: &str) -> Self {
        ParentSpec {
            members,
            test_name: test_name.to_string(),
            kill_on_mark: None,
            timeout: Duration::from_secs(60),
        }
    }
}

enum Msg {
    Port(usize, u16),
    Ready(usize),
    Mark(String),
    Done(usize, String),
    /// A child's stdout closed (it exited or was killed).
    Eof(usize),
}

fn parse_msg(i: usize, line: &str) -> Option<Msg> {
    // The prefix is searched for, not anchored: under `--nocapture`
    // libtest prints `test <name> ... ` with no trailing newline, so
    // the child's first protocol line arrives glued to that banner.
    let at = line.find(PREFIX)?;
    let rest = line[at + PREFIX.len()..].trim_start();
    let (cmd, rest) = rest.split_once(' ').unwrap_or((rest, ""));
    match cmd {
        "port" => {
            let (idx, port) = rest.split_once(' ')?;
            Some(Msg::Port(idx.parse().ok()?, port.parse().ok()?))
        }
        "ready" => Some(Msg::Ready(rest.trim().parse().ok()?)),
        "mark" => Some(Msg::Mark(rest.to_string())),
        "done" => {
            let (idx, report) = rest.split_once(' ').unwrap_or((rest, ""));
            Some(Msg::Done(idx.parse().ok()?, report.to_string()))
        }
        _ => {
            let _ = i;
            None
        }
    }
}

struct Fleet {
    children: Vec<Child>,
    stdins: Vec<Option<std::process::ChildStdin>>,
    rx: Receiver<Msg>,
    deadline: Instant,
}

impl Fleet {
    fn next(&mut self, awaiting: &str) -> Msg {
        let left = self.deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => {
                self.kill_all();
                panic!("multi-process run timed out awaiting {awaiting}");
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.kill_all();
                panic!("every child hung up while the parent awaited {awaiting}");
            }
        }
    }

    fn tell(&mut self, i: usize, line: &str) {
        if let Some(stdin) = self.stdins[i].as_mut() {
            // A killed child's pipe may be gone; that's fine.
            let _ = writeln!(stdin, "{line}");
            let _ = stdin.flush();
        }
    }

    fn tell_all(&mut self, line: &str) {
        for i in 0..self.children.len() {
            self.tell(i, line);
        }
    }

    fn kill(&mut self, i: usize) {
        let _ = self.children[i].kill();
        self.stdins[i] = None;
    }

    fn kill_all(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Never leak child processes, least of all on a panicking path.
        self.kill_all();
        for c in &mut self.children {
            let _ = c.wait();
        }
    }
}

/// Runs the parent role: spawns `members` copies of the current test,
/// drives the port-exchange/join/start choreography, optionally kills
/// a member on a scripted mark, and returns each member's report
/// (`None` for a killed member).
///
/// # Panics
///
/// Panics when the watchdog expires or a child violates the protocol.
pub fn run_parent(spec: ParentSpec) -> Vec<Option<String>> {
    let exe = std::env::current_exe().expect("current test binary");
    let (tx, rx) = channel::unbounded();
    let mut children = Vec::new();
    let mut stdins = Vec::new();
    for i in 0..spec.members {
        let mut child = Command::new(&exe)
            .arg(&spec.test_name)
            .arg("--exact")
            .arg("--nocapture")
            .env(ENV_MEMBER, i.to_string())
            .env(ENV_MEMBERS, spec.members.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn harness child");
        stdins.push(child.stdin.take());
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("udp-harness-reader-{i}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if let Some(msg) = parse_msg(i, &line) {
                        if tx.send(msg).is_err() {
                            return;
                        }
                    }
                }
                let _ = tx.send(Msg::Eof(i));
            })
            .expect("spawn harness reader");
        children.push(child);
    }
    drop(tx);
    let mut fleet =
        Fleet { children, stdins, rx, deadline: Instant::now() + spec.timeout };

    // 1. Collect every member's port.
    let mut ports: HashMap<usize, u16> = HashMap::new();
    while ports.len() < spec.members {
        match fleet.next("port reports") {
            Msg::Port(i, p) => {
                ports.insert(i, p);
            }
            Msg::Eof(i) => {
                fleet.kill_all();
                panic!("child {i} exited before reporting its port");
            }
            _ => {}
        }
    }
    let table: Vec<String> =
        (0..spec.members).map(|i| ports[&i].to_string()).collect();
    fleet.tell_all(&format!("peers {}", table.join(" ")));

    // 2. Sequential formation, member 0 first: deterministic ids.
    for i in 0..spec.members {
        fleet.tell(i, "join");
        loop {
            match fleet.next("join handshakes") {
                Msg::Ready(j) if j == i => break,
                Msg::Eof(j) => {
                    fleet.kill_all();
                    panic!("child {j} exited during formation");
                }
                _ => {}
            }
        }
    }
    fleet.tell_all("start");

    // 3. Pump until every surviving member reports done.
    let mut reports: Vec<Option<String>> = vec![None; spec.members];
    let mut killed: Vec<bool> = vec![false; spec.members];
    let mut kill_on_mark = spec.kill_on_mark;
    loop {
        let outstanding = (0..spec.members).any(|i| !killed[i] && reports[i].is_none());
        if !outstanding {
            break;
        }
        match fleet.next("app completion") {
            Msg::Done(i, report) => reports[i] = Some(report),
            Msg::Mark(text) => {
                if let Some((victim, pat)) = &kill_on_mark {
                    if text.contains(pat.as_str()) {
                        let victim = *victim;
                        fleet.kill(victim);
                        killed[victim] = true;
                        reports[victim] = None;
                        kill_on_mark = None;
                    }
                }
            }
            Msg::Eof(i) if !killed[i] && reports[i].is_none() => {
                fleet.kill_all();
                panic!("child {i} exited before reporting done");
            }
            _ => {}
        }
    }

    // 4. Synchronized teardown: only now may endpoints close.
    fleet.tell_all("exit");
    for i in 0..spec.members {
        let left = fleet.deadline.saturating_duration_since(Instant::now());
        if !wait_with_deadline(&mut fleet.children[i], left) {
            fleet.kill(i);
        }
    }
    reports
}

/// Waits for a child with a deadline (std has no `wait_timeout`; a
/// short poll is plenty at test scale). `true` if it exited in time.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return true,
            Ok(None) => {
                if Instant::now() >= end {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_protocol_lines() {
        assert!(matches!(parse_msg(0, "@amoeba-udp port 2 40123"), Some(Msg::Port(2, 40123))));
        assert!(matches!(parse_msg(0, "@amoeba-udp ready 1"), Some(Msg::Ready(1))));
        assert!(
            matches!(parse_msg(0, "@amoeba-udp mark m2-at-0"), Some(Msg::Mark(t)) if t == "m2-at-0")
        );
        assert!(
            matches!(parse_msg(0, "@amoeba-udp done 0 a:b:c"), Some(Msg::Done(0, r)) if r == "a:b:c")
        );
        assert!(parse_msg(0, "running 1 test").is_none());
        assert!(parse_msg(0, "@amoeba-udp bogus 1").is_none());
        assert!(parse_msg(0, "@amoeba-udp port x y").is_none());
    }
}

//! Write a group application once, run it on both backends.
//!
//! This module assembles the portable application API (DESIGN.md §8):
//! the [`GroupApp`] trait and [`Ctx`] capability object from
//! `amoeba-app`, the simulated host ([`SimHost`], inline in the
//! discrete-event kernel on the calibrated 1996 cost model) and the
//! live host ([`LiveHost`], one thread per member, which drives the
//! protocol and runs the app) — plus
//! [`run`], the one-call harness every ported example uses for its
//! `--sim` flag.
//!
//! # Example
//!
//! ```
//! use amoeba::prelude::*;
//!
//! struct Echo {
//!     seen: usize,
//! }
//!
//! impl GroupApp for Echo {
//!     fn on_start(&mut self, ctx: &mut dyn Ctx) {
//!         if ctx.info().me == MemberId(0) {
//!             ctx.send(Bytes::from_static(b"ping"));
//!         }
//!     }
//!     fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
//!         if let AppEvent::Group(GroupEvent::Message { .. }) = event {
//!             self.seen += 1;
//!             ctx.stop();
//!         }
//!     }
//! }
//!
//! // The same two apps, hosted by the simulator…
//! let apps = vec![Box::new(Echo { seen: 0 }) as Box<dyn GroupApp>,
//!                 Box::new(Echo { seen: 0 })];
//! amoeba::app::run(Backend::Sim, RunSpec::new(7), apps);
//! // …or by the live runtime: amoeba::app::run(Backend::Live, …).
//! ```

use std::time::Duration;

pub use amoeba_app::{AppEvent, Ctx, GroupApp, SenderApp, TimerId};
pub use amoeba_kernel::{SimHost, SimRun};
pub use amoeba_runtime::LiveHost;

use amoeba_core::{GroupConfig, GroupId};
use amoeba_net::{UdpConfig, UdpNet};
use amoeba_runtime::{Amoeba, FaultPlan};
use amoeba_sim::SimDuration;

/// Which backend hosts the apps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event kernel on the calibrated 1996 cost model:
    /// deterministic, simulated time, finishes in wall-clock
    /// milliseconds.
    Sim,
    /// The live multi-threaded runtime: real concurrency, wall-clock
    /// time, fault injection via [`FaultPlan`].
    Live,
    /// The live runtime over real UDP sockets (DESIGN.md §12): every
    /// member owns a loopback `UdpSocket` and frames genuinely leave
    /// the process boundary as datagrams. [`RunSpec::fault`] is
    /// ignored — a real wire injects its own faults. (For members in
    /// *separate* OS processes, see `amoeba_runtime::multiproc`; this
    /// backend keeps the apps in one process so their final state
    /// stays inspectable, which is what the conformance contract
    /// compares.)
    Udp,
}

impl Backend {
    /// Picks the backend from the process arguments: `--sim` selects
    /// [`Backend::Sim`], `--udp` selects [`Backend::Udp`], anything
    /// else (including nothing) selects [`Backend::Live`]. This is
    /// the convention every shipped example follows ("write once, run
    /// on any backend", README.md).
    pub fn from_args() -> Backend {
        if std::env::args().any(|a| a == "--sim") {
            Backend::Sim
        } else if std::env::args().any(|a| a == "--udp") {
            Backend::Udp
        } else {
            Backend::Live
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sim => write!(f, "simulated kernel"),
            Backend::Live => write!(f, "live runtime"),
            Backend::Udp => write!(f, "live runtime over UDP sockets"),
        }
    }
}

/// Everything a portable run needs beyond the apps themselves.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Seed for the backend's randomness (sim determinism, live fault
    /// injection).
    pub seed: u64,
    /// The group the apps form.
    pub group: GroupId,
    /// Group configuration shared by every member.
    pub config: GroupConfig,
    /// Fault plan for the live network (ignored by the simulator,
    /// which models a quiet Ethernet as the paper's testbed did).
    pub fault: FaultPlan,
    /// Simulated-time budget for the sim backend (ignored live).
    pub sim_limit: Duration,
}

impl RunSpec {
    /// Defaults: group 1, default configuration, reliable network,
    /// 600 s of simulated time.
    pub fn new(seed: u64) -> Self {
        RunSpec {
            seed,
            group: GroupId(1),
            config: GroupConfig::default(),
            fault: FaultPlan::reliable(),
            sim_limit: Duration::from_secs(600),
        }
    }

    /// Replaces the group configuration.
    pub fn with_config(mut self, config: GroupConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the group id.
    pub fn with_group(mut self, group: GroupId) -> Self {
        self.group = group;
        self
    }
}

/// Forms one group of `apps.len()` members (the first app founds it
/// and sequences), runs every app to completion on the chosen
/// backend, and returns the apps in order for final-state inspection.
///
/// # Panics
///
/// Panics if `apps` is empty, if live group formation fails, or if the
/// simulated run exhausts `spec.sim_limit` before every app ends (an
/// app that never stops is a scenario bug — the simulator cannot "run
/// forever" usefully).
pub fn run(
    backend: Backend,
    spec: RunSpec,
    apps: Vec<Box<dyn GroupApp>>,
) -> Vec<Box<dyn GroupApp>> {
    match backend {
        Backend::Sim => {
            let mut host = SimHost::new(spec.seed, spec.group, spec.config);
            host.set_limit(SimDuration::from_micros(spec.sim_limit.as_micros() as u64));
            for app in apps {
                host.add_app(app);
            }
            let run = host.run();
            assert!(
                run.all_done,
                "simulated apps did not finish within {:?} of simulated time",
                spec.sim_limit
            );
            run.apps
        }
        Backend::Live | Backend::Udp => {
            let amoeba = if backend == Backend::Udp {
                Amoeba::over_transport(UdpNet::new(UdpConfig::default()), 1)
            } else {
                Amoeba::new(spec.seed, spec.fault)
            };
            let mut host = LiveHost::with_amoeba(amoeba, spec.group, spec.config);
            for app in apps {
                host.add_app(app);
            }
            host.run()
        }
    }
}

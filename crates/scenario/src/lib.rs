//! Scenarios as data: a declarative scenario format for the simulated
//! Amoeba group-communication world, and the runner that executes it.
//!
//! A scenario file describes a whole experiment — topology, groups and
//! their [`amoeba_core::GroupConfig`] knobs, workloads, a fault/churn
//! schedule, and the invariants the outcome must satisfy — in a strict
//! TOML subset. The pipeline:
//!
//! 1. [`toml::parse`] turns text into a [`toml::Doc`] (syntax only,
//!    line-numbered errors),
//! 2. [`ScenarioPlan::parse`] validates it into a typed plan (unknown
//!    keys, out-of-range members/seqnos and overlapping fault windows
//!    are rejected, again with line numbers),
//! 3. [`run_plan`] executes the plan on a [`amoeba_kernel::SimWorld`],
//!    applies the delivery audit, and emits a stable [`Outcome`] whose
//!    `digest` is bit-reproducible for a given file + seed.
//!
//! The `scenarios/` directory at the repo root is the suite: paper-scale
//! worlds up to 1000-node stress runs, each pinned by digest in
//! `tests/scenario_golden.rs`.
//!
//! A second schema shares the format: files with a `[shard]` section
//! describe a sharded serving cluster (DESIGN.md §11) — shard shape,
//! routed workload, online reshard steps, crash and partition faults —
//! validated by [`ShardPlan::parse`] and executed by
//! [`run_shard_plan`]. Use [`is_shard_scenario`] to dispatch.
//!
//! The chaos explorer (`crates/chaos`) is a generator of both plan
//! types: it has no runner of its own, and a failing case is written
//! out as an ordinary scenario file.

#![warn(missing_docs)]

pub mod plan;
pub mod run;
pub mod shard;
pub mod toml;

pub use plan::{
    Admission, ConfigBase, Expect, FaultSpec, GroupSpec, Knobs, MethodSpec, RunSpec, ScenarioPlan,
    WorkloadSpec,
};
pub use run::{run_plan, run_plan_world, Outcome};
pub use shard::{
    is_shard_scenario, run_shard_plan, ReshardGoalSpec, ReshardStep, ShardConfig, ShardExpect,
    ShardFault, ShardOutcome, ShardPlan,
};

/// A scenario-file error: what went wrong and on which line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl Error {
    /// An error anchored to `line`.
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        Error { line, msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for Error {}

//! The `scenario` binary: run (or just validate) scenario files.
//!
//! ```text
//! scenario [--check] <file.toml>...
//! ```
//!
//! For each file: parse + validate (errors carry line numbers), run it
//! on the simulated kernel, and print the outcome — including the
//! stable digest the golden suite pins. Exit status is non-zero if any
//! file fails to parse or any `[expect]` assertion does not hold.

use std::process::ExitCode;
use std::time::Instant;

use amoeba_scenario::{run_plan, run_shard_plan, toml, Error, ScenarioPlan, ShardPlan};

fn main() -> ExitCode {
    let mut check_only = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check_only = true,
            "--help" | "-h" => {
                println!("usage: scenario [--check] <file.toml>...");
                return ExitCode::SUCCESS;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: scenario [--check] <file.toml>...");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(text) => match scenario(file, &text, check_only) {
                Ok(true) => {}
                Ok(false) => failed = true,
                Err(e) => {
                    eprintln!("{file}:{e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses one file, then checks or runs it and prints the outcome:
/// whether every `[expect]` assertion held.
fn scenario(file: &str, text: &str, check_only: bool) -> Result<bool, Error> {
    let doc = toml::parse(text)?;
    // Shard scenarios ([shard] section) take the sharding schema and
    // runner; everything else takes the classic one.
    let (violations, failures) = if doc.table("shard").is_some() {
        let plan = ShardPlan::from_doc(&doc)?;
        if check_only {
            println!(
                "{file}: ok ({} shard(s) × {} member(s), {} reshard(s), {} fault(s))",
                plan.shards,
                plan.members,
                plan.reshards.len(),
                plan.faults.len()
            );
            return Ok(true);
        }
        let t0 = Instant::now();
        let out = run_shard_plan(&plan);
        println!(
            "{}: digest {:016x}, sim t = {:.3} s, {:.2} s wall",
            out.name,
            out.digest,
            out.now_us as f64 / 1_000_000.0,
            t0.elapsed().as_secs_f64()
        );
        println!(
            "  {} op(s) acked, {} retried, {} map refresh(es), {} final range(s)",
            out.acked, out.retries, out.map_refreshes, out.final_ranges
        );
        (out.violations, out.expect_failures)
    } else {
        let plan = ScenarioPlan::from_doc(&doc)?;
        if check_only {
            println!(
                "{file}: ok ({} nodes, {} group(s), {} workload(s), {} fault(s))",
                plan.nodes,
                plan.groups.len(),
                plan.workloads.len(),
                plan.faults.len()
            );
            return Ok(true);
        }
        let t0 = Instant::now();
        let out = run_plan(&plan);
        println!(
            "{}: digest {:016x}, {} events, sim t = {:.3} s, {:.2} s wall",
            out.name,
            out.digest,
            out.events,
            out.now_us as f64 / 1_000_000.0,
            t0.elapsed().as_secs_f64()
        );
        println!(
            "  sends {} ok / {} err, {} delivered, {} live member(s)",
            out.sends_ok, out.sends_err, out.delivered, out.live_members
        );
        if let (Some(rate), Some(util)) = (out.rate, out.utilization) {
            println!("  rate {rate:.0} msg/s, utilization {:.1} %", util * 100.0);
        }
        let c = out.chaos;
        if c.dropped + c.duplicated + c.reordered + c.partitioned > 0 {
            println!(
                "  chaos: {} dropped, {} duplicated, {} reordered, {} partitioned",
                c.dropped, c.duplicated, c.reordered, c.partitioned
            );
        }
        (out.violations, out.expect_failures)
    };
    for v in &violations {
        println!("  violation: {v}");
    }
    for f in &failures {
        println!("  EXPECT FAILED: {f}");
    }
    Ok(failures.is_empty())
}

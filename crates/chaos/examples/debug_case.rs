//! Scratch harness: replays one chaos case (`debug_case [CASE] [SEED]`)
//! and dumps the real run's per-node delivery logs and end-of-run core
//! state for protocol triage. Combine with `AMOEBA_TRACE_STAMPS=1` for
//! a stamp/transmit/admission trace on stderr.

use amoeba_chaos::gen_case;
use amoeba_scenario::run_plan_world;

fn main() {
    let case: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let mut plan = gen_case(seed, case);
    if let Some(us) = std::env::var("AMOEBA_RUN_US").ok().and_then(|v| v.parse::<u64>().ok()) {
        plan.run.limit_ms = us / 1_000; // triage knob: truncate/extend the run
    }
    print!("{}", plan.to_toml());
    let (out, w) = run_plan_world(&plan);
    for v in &out.violations {
        println!("violation: {v}");
    }
    println!("fates: {:?}  digest: {:016x}", out.fates, out.digest);
    for (n, log) in out.logs.iter().enumerate() {
        let line: Vec<String> =
            log.iter().map(|d| format!("{}:{}", d.origin, d.index)).collect();
        println!("--- node {n} log ({} entries): {}", log.len(), line.join(" "));
        match w.sim.world.nodes[n].core.as_ref() {
            Some(c) => {
                let i = c.info();
                println!(
                    "    member={} view={} is_member={} is_seq={} last={}",
                    i.me, i.view, c.is_member(), c.is_sequencer(), i.last_delivered
                );
                println!("    {}", c.debug_state());
                println!("    {:?}", c.stats);
            }
            None => println!("    crashed"),
        }
        let nic = w.sim.world.net.host(amoeba_net::HostId(n)).nic.stats;
        println!("    nic: {nic:?}");
    }
}

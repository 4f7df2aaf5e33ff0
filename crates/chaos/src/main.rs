//! `chaos` — the seed explorer CLI.
//!
//! ```text
//! chaos [--seed S] [--cases N]     explore cases 0..N under root seed S
//! chaos --seed S --case K          replay exactly one case (a repro line)
//! chaos --shard-cases N            explore N shard cases (sharded layer)
//! chaos --seed S --shard-case K    replay exactly one shard case
//! chaos --broken dup|retrans …     sabotage one protocol branch first
//! chaos --out FILE                 where to write a failing scenario
//! chaos --no-minimize              report the raw failing plan as-is
//! ```
//!
//! Exit status: 0 when every case upholds the protocol invariants,
//! 1 on the first red case — after minimizing it and writing it to
//! `--out` as a scenario file that `scenario FILE` replays — and 2 on
//! usage errors.

use amoeba_chaos::{gen_case, gen_shard_case, guarded, minimize};
use amoeba_scenario::{run_plan, run_shard_plan};

struct Args {
    seed: u64,
    cases: u64,
    case: Option<u64>,
    shard_cases: Option<u64>,
    shard_case: Option<u64>,
    /// `--broken` mode: its flag spelling (for the repro line) and value.
    broken: Option<(String, amoeba_core::sabotage::Sabotage)>,
    out: String,
    minimize: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        cases: 64,
        case: None,
        shard_cases: None,
        shard_case: None,
        broken: None,
        out: "chaos_failure.toml".into(),
        minimize: true,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| v.parse::<u64>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--cases" => args.cases = number("--cases", value("--cases")?)?,
            "--case" => args.case = Some(number("--case", value("--case")?)?),
            "--shard-cases" => {
                args.shard_cases = Some(number("--shard-cases", value("--shard-cases")?)?)
            }
            "--shard-case" => {
                args.shard_case = Some(number("--shard-case", value("--shard-case")?)?)
            }
            "--broken" => {
                let name = value("--broken")?;
                let mode = amoeba_core::sabotage::parse(&name)
                    .ok_or_else(|| format!("--broken: unknown mode {name:?} (dup|retrans)"))?;
                args.broken = Some((name, mode));
            }
            "--out" => args.out = value("--out")?,
            "--no-minimize" => args.minimize = false,
            "--quiet" => args.quiet = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Reports a red case and exits 1: the findings go to stderr and, as
/// comments, to the head of the scenario file written to `--out`.
/// `name` is the plan's name, i.e. its repro line.
fn fail(args: &Args, name: &str, findings: &[String], scenario: String) -> ! {
    let broken = args.broken.as_ref().map(|(b, _)| format!(" --broken {b}")).unwrap_or_default();
    eprintln!("VIOLATION {name}");
    let mut body = format!("# repro: {name}{broken}\n# replay: scenario {}\n", args.out);
    for f in findings {
        eprintln!("  {f}");
        body.push_str(&format!("#   {f}\n"));
    }
    body.push_str(&scenario);
    match std::fs::write(&args.out, body) {
        Ok(()) => eprintln!("failing scenario written to {}", args.out),
        Err(e) => eprintln!("could not write {}: {e}", args.out),
    }
    eprintln!("repro: {name}{broken}");
    std::process::exit(1);
}

/// Explores (or replays) shard cases: the sharded serving layer's
/// fault families (sequencer crash under routed load, split racing a
/// partition), audited for delivery invariants and lost acked writes.
fn run_shard_mode(args: &Args) {
    let cases: Vec<u64> = match args.shard_case {
        Some(k) => vec![k],
        None => (0..args.shard_cases.unwrap_or(16)).collect(),
    };
    let start = std::time::Instant::now();
    let (mut acked, mut retries, mut refreshes) = (0u64, 0u64, 0u64);
    for (i, &k) in cases.iter().enumerate() {
        let plan = gen_shard_case(args.seed, k);
        let out = match guarded(|| run_shard_plan(&plan)) {
            Ok(out) if out.expect_failures.is_empty() => out,
            red => {
                let findings = red.map_or_else(
                    |panic| vec![panic],
                    |out| out.violations.into_iter().chain(out.expect_failures).collect(),
                );
                fail(args, &plan.name, &findings, plan.to_toml())
            }
        };
        acked += out.acked;
        retries += out.retries;
        refreshes += out.map_refreshes;
        if !args.quiet && args.shard_case.is_none() && (i + 1) % 10 == 0 {
            eprintln!("… {}/{} shard cases clean", i + 1, cases.len());
        }
        if args.shard_case.is_some() {
            println!(
                "shard case {k}: clean; digest {:016x}; {} acked, {} retried, \
                 {} map refresh(es), {} final range(s)",
                out.digest, out.acked, out.retries, out.map_refreshes, out.final_ranges
            );
            print!("{}", plan.to_toml());
        }
    }
    println!(
        "chaos: {} shard case(s) clean under seed {} in {:.1}s — {} writes acked, \
         {} retried, {} map refreshes",
        cases.len(),
        args.seed,
        start.elapsed().as_secs_f64(),
        acked,
        retries,
        refreshes,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            std::process::exit(2);
        }
    };
    if let Some((_, mode)) = args.broken {
        amoeba_core::sabotage::set(mode);
        eprintln!("sabotage armed: {mode:?}");
    }
    if args.shard_cases.is_some() || args.shard_case.is_some() {
        run_shard_mode(&args);
        return;
    }
    let cases: Vec<u64> = match args.case {
        Some(k) => vec![k],
        None => (0..args.cases).collect(),
    };
    let start = std::time::Instant::now();
    let (mut submitted, mut events, mut errs) = (0u64, 0u64, 0u64);
    let (mut dropped, mut duplicated, mut reordered, mut partitioned) = (0u64, 0u64, 0u64, 0u64);
    for (i, &k) in cases.iter().enumerate() {
        let plan = gen_case(args.seed, k);
        let out = match guarded(|| run_plan(&plan)) {
            Ok(out) if out.expect_failures.is_empty() => out,
            red => {
                let findings = red.map_or_else(|panic| vec![panic], |out| out.violations);
                let reported = if args.minimize { minimize(&plan) } else { plan };
                fail(&args, &reported.name, &findings, reported.to_toml())
            }
        };
        submitted += out.submitted;
        events += out.events;
        errs += out.sends_err;
        dropped += out.chaos.dropped;
        duplicated += out.chaos.duplicated;
        reordered += out.chaos.reordered;
        partitioned += out.chaos.partitioned;
        if !args.quiet && args.case.is_none() && (i + 1) % 50 == 0 {
            eprintln!("… {}/{} cases clean", i + 1, cases.len());
        }
        if args.case.is_some() {
            println!(
                "case {k}: clean; digest {:016x}; logs {:?}; fates {:?}",
                out.digest,
                out.logs.iter().map(Vec::len).collect::<Vec<_>>(),
                out.fates
            );
            print!("{}", plan.to_toml());
        }
    }
    println!(
        "chaos: {} case(s) clean under seed {} in {:.1}s — {} msgs submitted, {} send errors, \
         {} sim events; faults: {} dropped, {} duplicated, {} reordered, {} partitioned",
        cases.len(),
        args.seed,
        start.elapsed().as_secs_f64(),
        submitted,
        errs,
        events,
        dropped,
        duplicated,
        reordered,
        partitioned,
    );
}

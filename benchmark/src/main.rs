//! The repository's benchmark: five workloads measured end to end
//! and, in a separate traced run, rung by rung. See `README.md` in
//! this directory for the metrics and why each workload exists.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process; the last line of standard output
//!     is the result (what BENCHMARK.json's command runs)
//! benchmark run [--seed N] [--workload W]... [--trace] [--smoke]
//!               [--sets K] [--seconds S] [--out FILE]
//!     every workload, one child process each; prints every metric and
//!     writes a result file
//! benchmark compare A.json B.json
//!     is B worse than A? exit 1 on any `worse`
//! ```

mod compare;
mod gen;
mod json;
mod proc;
mod report;
mod rungs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Value;
use report::{Metric, Plan};
use workloads::Workload;

/// Where trace and result files go: `out/` beside this package's
/// manifest, wherever the checkout is.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  benchmark run [--seed N] [--workload W]... [--trace] [--smoke] [--sets K] [--seconds S] [--out FILE]
  benchmark compare A.json B.json
workloads: rtt_live rtt_udp allsend_live routed_live sim_1000 (run's default set)
           stream_live stream_udp (only when named; not in BENCHMARK.json)";

/// Command-line options of the single-workload and `run` modes.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sets: usize,
    out: Option<PathBuf>,
}

/// Default window: BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;

fn parse_options(args: &[String], trace_takes_value: bool) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?.clamp(1, 60),
            "--sets" => o.sets = number(value()?)?.clamp(1, 100) as usize,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--trace" if trace_takes_value => o.trace = number(value()?)? != 0,
            "--trace" => o.trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Runs one workload in this process and prints the result line.
fn one(o: &Options) -> ExitCode {
    let [workload] = o.workloads[..] else {
        eprintln!("exactly one --workload is needed\n{USAGE}");
        return ExitCode::from(2);
    };
    let plan = if o.smoke {
        Plan::smoke()
    } else {
        Plan::full(Duration::from_secs(o.seconds))
    };
    let nproc = proc::nproc();
    // Before anything is spawned: threads inherit the affinity.
    let pinned = workload.pinned() && proc::pin().is_some();
    trace::set_enabled(o.trace);
    let mut outcome = workload.run(o.seed, plan.window, if o.trace { 1 } else { plan.setups });
    outcome.pinned = pinned;
    let mut violations = outcome.violations.clone();

    eprintln!(
        "{} seed {} window {:.1} s trace {} pinned {} nproc {}: {} ops in window, {} latency samples, \
         set-ups {:.3?} s",
        workload.name(),
        o.seed,
        outcome.window_s,
        u8::from(o.trace),
        pinned,
        nproc,
        outcome.ops,
        outcome.op_us.len(),
        outcome.setup_s,
    );
    let metrics = if o.trace {
        let traced = trace::collect();
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        match traced.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "{} spans ({} beyond the file's cap) -> {}",
                traced.spans(),
                traced.dropped(),
                path.display()
            ),
            Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
        }
        let metrics = report::per_layer(o.seed, &plan, &outcome, &traced, &mut violations);
        eprint!("{}", report::ladder_text(&metrics));
        metrics
    } else {
        report::end_to_end(&outcome)
    };
    print_metrics(&metrics);
    for v in &violations {
        eprintln!("GATE FAILED: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child (this same executable, one workload) and parses its
/// result line. Its human-readable output passes through on stderr.
fn child(workload: Workload, o: &Options, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} child printed nothing", workload.name()))?;
    let result = json::parse(line).map_err(|e| format!("{} child: {e}", workload.name()))?;
    Ok((result, output.status.success()))
}

fn metric_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The orchestrator: every workload in a process of its own, so thread
/// leaks, allocator state and UDP ports never cross workloads.
fn run(o: &Options) -> ExitCode {
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    let mut record = |workload: Workload, set: usize, trace: bool| -> Option<Value> {
        match child(workload, o, trace) {
            Ok((Value::Obj(mut result), ok)) => {
                all_ok &= ok;
                let mut run = vec![
                    ("workload".to_string(), Value::str(workload.name())),
                    ("set".to_string(), Value::Num(set as f64)),
                    ("trace".to_string(), Value::Num(f64::from(u8::from(trace)))),
                ];
                run.append(&mut result);
                runs.push(Value::Obj(run.clone()));
                Some(Value::Obj(run))
            }
            Ok(_) => {
                all_ok = false;
                eprintln!("the {} child's result is not an object", workload.name());
                None
            }
            Err(e) => {
                all_ok = false;
                eprintln!("{e}");
                None
            }
        }
    };

    for set in 0..o.sets {
        for &workload in &workloads {
            let untraced = record(workload, set, false);
            if let Some(result) = &untraced {
                println!(
                    "{} (set {set}, seed {}, tracing off)",
                    workload.name(),
                    o.seed
                );
                for def in report::END_TO_END {
                    if let Some(v) = metric_of(result, def.name) {
                        println!("  {:<34} {v:>16.4} {}", def.name, def.unit);
                    }
                }
            }
            if !o.trace {
                continue;
            }
            let Some(traced) = record(workload, set, true) else {
                continue;
            };
            println!(
                "{} (set {set}, seed {}, tracing on)",
                workload.name(),
                o.seed
            );
            if let Some(Value::Obj(metrics)) = traced.get("metrics") {
                for (name, entry) in metrics {
                    let value = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
                    println!("  {name:<34} {value:>16.4} {unit}");
                }
            }
            // Tracing's own cost: the same workload with and without.
            let plain = untraced.as_ref().and_then(|r| metric_of(r, "ops_per_s"));
            let with = metric_of(&traced, "bench.traced_ops_per_s");
            if let (Some(plain), Some(with)) = (plain, with) {
                println!(
                    "  {:<34} {:>16.4} ratio",
                    "bench.trace_overhead_share",
                    1.0 - with / plain
                );
            }
        }
    }

    let doc = Value::obj([
        (
            "env",
            Value::obj([
                ("nproc", Value::Num(proc::nproc() as f64)),
                ("kernel", Value::str(proc::kernel_release())),
                ("rustc", Value::str(proc::first_line_of("rustc", &["-V"]))),
                (
                    "commit",
                    Value::str(proc::first_line_of("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("seed", Value::Num(o.seed as f64)),
        (
            "window_s",
            Value::Num(if o.smoke { 1.0 } else { o.seconds as f64 }),
        ),
        ("smoke", Value::Bool(o.smoke)),
        ("sets", Value::Num(o.sets as f64)),
        ("claim", Value::Null),
        ("runs", Value::Arr(runs)),
    ]);
    let path = o.out.clone().unwrap_or_else(|| {
        let suffix = if o.trace { "-trace" } else { "" };
        out_dir().join(format!("results-seed{}{suffix}.json", o.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => println!("results -> {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        println!("all gates passed");
        ExitCode::SUCCESS
    } else {
        println!("SOME GATES FAILED (see GATE FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = &args[..] else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match compare::compare_files(a, b) {
                Ok((text, bad)) => {
                    print!("{text}");
                    if bad {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("run") => parse_options(&args[1..], false).map(|o| (o, true)),
        _ => parse_options(&args, true).map(|o| (o, false)),
    };
    match parsed {
        Ok((o, true)) => run(&o),
        Ok((o, false)) => one(&o),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

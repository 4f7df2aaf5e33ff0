//! `routed_live`: the sharded serving tier on the live runtime. Two
//! data shards of three replicas (plus the meta group), one client
//! thread keeping 32 key operations in flight over 1024 keys, half
//! puts and half gets through the same gateways.
//!
//! The client drives `Router::pump` itself and sleeps 100 µs when a
//! pump brought nothing (`Cluster::advance` sleeps 2 ms, which would
//! quantise every latency to its period).

use std::collections::HashMap;
use std::time::Duration;

use amoeba::core::audit::EndFate;
use amoeba::runtime::FaultPlan;
use amoeba::shard::{audit_group, lost_acked_writes, Cluster, Completion, LiveCluster, ShardSpec};

use super::{each_setup, sorted_us, steady, CpuSampler, Outcome};
use crate::gen::{KeyOp, KeyOps};
use crate::proc::{now_ns, Snapshot, Usage};
use crate::stats;
use crate::trace::{self, Name};

const SHARDS: usize = 2;
const REPLICAS: usize = 3;
const KEYS: u32 = 1024;
const IN_FLIGHT: usize = 32;
/// Key operations acknowledged before the set-up counts as done.
const WARMUP_OPS: u64 = 2048;
/// The warm-up's op stream is the same whatever `--seed` is: how the
/// two shards' history stalls interleave depends on the key order, and
/// a seeded warm-up took 0.53 – 0.73 s from seed to seed (within 1 %
/// for one seed). `setup_s` times the same work in every run; the
/// seed drives the timed window.
const WARMUP_SEED: u64 = 0x7761_726D;
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// A cluster that stops answering must fail the run, not hang it.
const STALL_LIMIT_NS: u64 = 30_000_000_000;

pub fn run(seed: u64, window: Duration, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    each_setup(setups, window, |window| session(seed, window, &mut out));
    out
}

struct InFlight {
    id: u64,
    op: KeyOp,
    submitted_ns: u64,
    /// For a get: the value of the last put submitted to the key
    /// before it. The router serialises operations per key, so that
    /// is exactly what the get must return.
    expect: Option<u64>,
}

/// Time spent inside the router's calls and how many there were,
/// taken from outside with the benchmark's own clock while the timed
/// window is open (spans record the same calls for the trace file).
#[derive(Default)]
struct RouterCost {
    call_ns: u64,
    calls: u64,
    pump_ns: u64,
    pumps: u64,
    take_ns: u64,
}

/// One completed operation inside the timed window.
struct Done {
    put: bool,
    submitted_ns: u64,
    done_ns: u64,
}

fn session(seed: u64, window: Option<Duration>, out: &mut Outcome) {
    let setup_start = now_ns();
    let mut cluster = {
        let _span = trace::span(Name::ShardForm, 0);
        LiveCluster::new(
            ShardSpec::new(seed, SHARDS, REPLICAS),
            FaultPlan::reliable(),
        )
    };
    let formed_ns = now_ns();

    let mut ops = KeyOps::new(WARMUP_SEED, KEYS);
    let key_names: Vec<String> = (0..KEYS).map(|k| format!("key:{k:04}")).collect();
    // Model of the store: the serial number of the last put submitted
    // per key (values are "v<serial>").
    let mut last_put: HashMap<u32, u64> = HashMap::new();
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(IN_FLIGHT);
    let mut done: Vec<Done> = Vec::with_capacity(if window.is_some() { 1 << 20 } else { 0 });
    let mut submitted = 0u64;
    let mut acked = 0u64;
    let mut wrong_reads = 0u64;
    let mut ready_ns = None;
    let mut window_at: Option<(u64, u64, Snapshot)> = None;
    let mut end_snapshot = None;
    let mut last_progress_ns = now_ns();
    let mut stalled = false;
    let mut cost = RouterCost::default();
    let mut cpu = CpuSampler::default();

    loop {
        let cycle = trace::span(Name::BenchLoop, submitted);
        let now = now_ns();
        let closing = match (ready_ns, &window_at) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(_), Some((_, end_ns, _))) => now >= *end_ns,
        };
        if closing && end_snapshot.is_none() {
            end_snapshot = Some((now, Snapshot::take()));
        }
        if closing && in_flight.is_empty() {
            break;
        }
        if now - last_progress_ns > STALL_LIMIT_NS {
            stalled = true;
            break;
        }

        // Top the window up.
        while !closing && in_flight.len() < IN_FLIGHT {
            let op = ops.next().expect("the op stream is endless");
            let key = &key_names[op.key as usize];
            let submitted_ns = now_ns();
            let (id, expect) = if op.put {
                let _span = trace::span(Name::ShardPut, submitted);
                last_put.insert(op.key, submitted);
                (cluster.router().put(key, &format!("v{submitted}")), None)
            } else {
                let _span = trace::span(Name::ShardGet, submitted);
                (cluster.router().get(key), last_put.get(&op.key).copied())
            };
            if window_at.is_some() {
                cost.call_ns += now_ns() - submitted_ns;
                cost.calls += 1;
            }
            in_flight.push(InFlight {
                id,
                op,
                submitted_ns,
                expect,
            });
            submitted += 1;
        }

        let pump_start = now_ns();
        {
            let _span = trace::span(Name::ShardPump, submitted);
            cluster.router().pump();
        }
        let take_start = now_ns();
        if window_at.is_some() && !closing {
            cost.pump_ns += take_start - pump_start;
            cost.pumps += 1;
        }

        let before = acked;
        {
            let _span = trace::span(Name::ShardTake, submitted);
            let router = cluster.router();
            in_flight.retain(|f| {
                let Some(completion) = router.take(f.id) else {
                    return true;
                };
                let done_ns = now_ns();
                acked += 1;
                match completion {
                    Completion::Put { .. } if f.op.put => {}
                    Completion::Get { value, .. } if !f.op.put => {
                        let expected = f.expect.map(|serial| format!("v{serial}"));
                        if value != expected {
                            wrong_reads += 1;
                        }
                    }
                    _ => wrong_reads += 1,
                }
                if window_at.is_some() {
                    done.push(Done {
                        put: f.op.put,
                        submitted_ns: f.submitted_ns,
                        done_ns,
                    });
                }
                false
            });
        }
        if window_at.is_some() && !closing {
            cost.take_ns += now_ns() - take_start;
        }

        if window_at.is_some() && !closing {
            cpu.tick(acked);
        }
        if ready_ns.is_none() && acked >= WARMUP_OPS {
            ready_ns = Some(now_ns());
            if let Some(length) = window {
                let snapshot = Snapshot::take();
                let start_ns = now_ns();
                window_at = Some((start_ns, start_ns + length.as_nanos() as u64, snapshot));
                ops = KeyOps::new(seed, KEYS);
            }
        }
        drop(cycle);
        if acked == before {
            std::thread::sleep(IDLE_SLEEP);
        } else {
            last_progress_ns = now_ns();
        }
    }

    let stats = cluster.router().stats().clone();
    let acked_writes = cluster.router().acked_writes().clone();
    // A cluster that stopped answering would not answer `Halt` either;
    // its threads end with the process.
    let halted = !stalled && {
        let _span = trace::span(Name::ShardHalt, 0);
        cluster.halt()
    };

    out.setup_s
        .push((ready_ns.unwrap_or_else(now_ns) - setup_start) as f64 / 1e9);
    out.attempted += submitted;
    out.failed += (submitted - acked) + wrong_reads;
    if stalled {
        out.violations.push(format!(
            "the cluster stopped answering with {} ops in flight",
            in_flight.len()
        ));
    }
    if wrong_reads > 0 {
        out.violations.push(format!(
            "{wrong_reads} gets returned something other than the last put"
        ));
    }
    if !halted && !stalled {
        out.violations.push("the cluster did not halt".into());
    }
    // The router's own ledger of acknowledged writes must be the model.
    let model_matches = acked_writes.len() == last_put.len()
        && last_put.iter().all(|(key, serial)| {
            acked_writes.get(&key_names[*key as usize]) == Some(&format!("v{serial}"))
        });
    if !stalled && !model_matches {
        out.violations
            .push("Router::acked_writes disagrees with the puts submitted".into());
    }
    for group in cluster.groups.iter().chain(std::iter::once(&cluster.meta)) {
        let fates = vec![EndFate::Live; group.logs.len()];
        for violation in audit_group(group, &fates, true) {
            out.violations
                .push(format!("group {}: {violation:?}", group.id));
        }
    }
    for lost in lost_acked_writes(&acked_writes, &cluster.board, &cluster.groups, |_| 0) {
        out.violations.push(format!("lost acked write: {lost}"));
    }

    let (Some((start_ns, end_ns, start)), Some((_, end))) = (window_at, end_snapshot) else {
        return;
    };
    done.retain(|d| (start_ns..end_ns).contains(&d.done_ns));
    let latencies = |put: bool| {
        sorted_us(
            done.iter()
                .filter(|d| d.put == put)
                .map(|d| (d.submitted_ns, d.done_ns)),
        )
    };
    let mut ops: Vec<(u64, u64)> = done.iter().map(|d| (d.submitted_ns, d.done_ns)).collect();
    out.window_s = (end_ns - start_ns) as f64 / 1e9;
    out.ops = ops.len() as u64;
    out.steady = steady(
        &mut ops,
        end_ns - start_ns,
        &mut cpu.samples,
        end.cpu_ns.saturating_sub(start.cpu_ns),
    );
    out.op_us = sorted_us(ops.iter().copied());
    out.usage = Usage::between(&start, &end, out.ops);
    out.push_extra(
        "shard.put_p50_us",
        stats::percentile(&latencies(true), 50.0),
    );
    out.push_extra(
        "shard.get_p50_us",
        stats::percentile(&latencies(false), 50.0),
    );
    let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
    out.push_extra("shard.router_call_ns", per(cost.call_ns, cost.calls));
    out.push_extra("shard.router_pump_ns", per(cost.pump_ns, cost.pumps));
    out.push_extra(
        "shard.router_busy_share",
        (cost.call_ns + cost.pump_ns + cost.take_ns) as f64 / (end_ns - start_ns) as f64,
    );
    out.push_extra("shard.pumps_per_op", per(cost.pumps, out.ops));
    out.push_extra("shard.retries", stats.retries as f64);
    out.push_extra("shard.wrong_shard", stats.wrong_shard as f64);
    out.push_extra("shard.form_ms", (formed_ns - setup_start) as f64 / 1e6);
}

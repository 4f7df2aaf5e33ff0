//! `compare <a.json> <b.json>`: is B worse than A?
//!
//! Both files are result files written by `run` (any number of sets
//! each). One row per pairing of end-to-end metric and workload: both
//! medians, B's ratio to A, the fixed bound and a verdict —
//! `ok`, `worse` (B's median is worse than A's by more than the
//! bound) or `unresolved` (the spread inside either side is wider
//! than the bound, so the medians cannot be told apart). Per-layer
//! metrics that are exact counts are compared for equality.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::report::{is_exact, EndToEnd, END_TO_END};
use crate::stats;

/// Every value a results file holds, by (workload, metric).
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples_of(doc: &Value) -> Result<Samples, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array")?;
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("a run without metrics")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("a metric without a value")?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one end-to-end metric on one workload.
pub fn judge(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if def.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if stats::spread(a) > def.bound || stats::spread(b) > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison as text, and whether any row is `worse` (or any
/// exact count differs).
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let (sa, sb) = (samples_of(a)?, samples_of(b)?);
    let mut text = String::new();
    let mut bad = false;
    text.push_str(&format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "median A", "median B", "B / A", "bound", "verdict"
    ));
    for ((workload, name), va) in &sa {
        let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        let Some(vb) = sb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let verdict = judge(def, va, vb);
        bad |= verdict == Verdict::Worse;
        let (ma, mb) = (stats::median(va), stats::median(vb));
        text.push_str(&format!(
            "{workload:<14} {name:<14} {ma:>14.4} {mb:>14.4} {:>9.4} {:>5.0}%  {} (n {} / {}, {} is better)\n",
            mb / ma,
            def.bound * 100.0,
            verdict.text(),
            va.len(),
            vb.len(),
            if def.higher_is_better { "higher" } else { "lower" },
        ));
    }
    let mut exact_rows = 0;
    for ((workload, name), va) in sa.iter().filter(|((_, name), _)| is_exact(name)) {
        let Some(vb) = sb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        exact_rows += 1;
        let all_equal = va.iter().chain(vb).all(|v| v.to_bits() == va[0].to_bits());
        if !all_equal {
            bad = true;
            text.push_str(&format!(
                "{workload:<14} {name}: exact count differs: A {va:?} B {vb:?}\n"
            ));
        }
    }
    if exact_rows > 0 {
        text.push_str(&format!(
            "{exact_rows} exact per-layer counts compared for equality\n"
        ));
    }
    Ok((text, bad))
}

/// Reads and compares two result files.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&read(path_a)?, &read(path_b)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, Metric};

    /// A results file with one run per value, written by the same
    /// writer `run` uses.
    fn results(workload: &str, name: &str, unit: &'static str, values: &[f64]) -> Value {
        let runs = values
            .iter()
            .map(|&value| {
                let line = result_line(
                    true,
                    10,
                    0,
                    &[Metric {
                        name: name.into(),
                        unit,
                        value,
                    }],
                );
                let Value::Obj(mut run) = json::parse(&line).expect("our own line") else {
                    panic!()
                };
                run.insert(0, ("workload".into(), Value::str(workload)));
                Value::Obj(run)
            })
            .collect();
        json::parse(&Value::obj([("runs", Value::Arr(runs))]).to_pretty()).expect("our own file")
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let tight_a = results("rtt_live", "ops_per_s", "1/s", &[1000.0, 1010.0, 990.0]);
        let same = results("rtt_live", "ops_per_s", "1/s", &[1005.0, 995.0, 1000.0]);
        let slower = results("rtt_live", "ops_per_s", "1/s", &[700.0, 710.0, 690.0]);
        let faster = results("rtt_live", "ops_per_s", "1/s", &[1400.0, 1410.0, 1390.0]);
        let noisy = results("rtt_live", "ops_per_s", "1/s", &[600.0, 1000.0, 1400.0]);

        let verdict = |b: &Value| compare(&tight_a, b).expect("well-formed");
        assert!(verdict(&same).0.contains(" ok "));
        assert!(!verdict(&same).1);
        assert!(verdict(&slower).0.contains(" worse "));
        assert!(verdict(&slower).1, "a worse row fails the comparison");
        assert!(verdict(&faster).0.contains(" ok "), "better is never worse");
        assert!(verdict(&noisy).0.contains(" unresolved "));
        assert!(!verdict(&noisy).1);

        // Lower-is-better metrics judge the other way round.
        let lat_a = results("rtt_live", "op_p50_us", "us", &[25.0, 25.5, 24.5]);
        let lat_up = results("rtt_live", "op_p50_us", "us", &[35.0, 35.5, 34.5]);
        assert!(compare(&lat_a, &lat_up).expect("well-formed").1);
        assert!(!compare(&lat_up, &lat_a).expect("well-formed").1);
    }

    #[test]
    fn exact_counts_must_be_bit_identical() {
        let a = results(
            "rtt_live",
            "core.blocking.flow_control_drops",
            "count",
            &[760.0, 760.0],
        );
        let b = results(
            "rtt_live",
            "core.blocking.flow_control_drops",
            "count",
            &[760.0],
        );
        let c = results(
            "rtt_live",
            "core.blocking.flow_control_drops",
            "count",
            &[0.0],
        );
        assert!(!compare(&a, &b).expect("well-formed").1);
        assert!(compare(&a, &c).expect("well-formed").1);
        assert!(compare(&Value::Null, &a).is_err());
    }
}

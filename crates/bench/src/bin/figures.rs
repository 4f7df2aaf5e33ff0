//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json <path>] [ids...]
//! ids: table3 fig1 fig3 fig4 fig5 fig6 fig7 fig8 rpc ablation batch_sweep
//!      shard_scale
//! ```
//!
//! `--json <path>` additionally writes the whole run — every series
//! row, every paper-vs-measured anchor with its ratio, and per
//! experiment wall-clock — as one machine-readable JSON document (CI
//! archives it per run).
//!
//! The run footer prints wall-clock per experiment and in total: the
//! simulator's own speed is itself a visible, regressable number.

use std::fmt::Write as _;
use std::time::Instant;

use amoeba_bench::experiments;
use amoeba_bench::report::{Figure, Scale};


fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let json_path = flag_value(&args, "--json");
    let ids: Vec<&str> = {
        let mut ids = Vec::new();
        let mut skip = false;
        for a in &args {
            if skip {
                skip = false;
                continue;
            }
            match a.as_str() {
                "--json" => skip = true,
                s if s.starts_with("--") => {}
                s => ids.push(s),
            }
        }
        if ids.is_empty() {
            experiments::IDS.to_vec()
        } else {
            ids
        }
    };

    println!(
        "Amoeba group communication — reproduction of the ICDCS '96 evaluation ({:?} scale)\n",
        scale
    );
    let run_start = Instant::now();
    let mut results: Vec<(&str, Figure, f64)> = Vec::new();
    for id in ids {
        let t = Instant::now();
        let fig = experiments::by_id(id, scale)
            .unwrap_or_else(|| panic!("unknown experiment id {id}"));
        let secs = t.elapsed().as_secs_f64();
        println!("{}", fig.render());
        results.push((id, fig, secs));
    }
    let total = run_start.elapsed().as_secs_f64();

    println!("— wall clock ({:?} scale) —", scale);
    for (id, _, secs) in &results {
        println!("  {id:<12} {secs:>9.2} s");
    }
    println!("  {:<12} {total:>9.2} s", "total");

    if let Some(path) = json_path {
        let doc = render_json(scale, &results, total);
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Hand-rolled JSON (the workspace is offline; no serde_json). Every
/// string that reaches here is ASCII from our own tables, escaped
/// anyway out of caution.
fn render_json(scale: Scale, results: &[(&str, Figure, f64)], total_secs: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"scale\": \"{:?}\",", scale);
    let _ = writeln!(out, "  \"total_wall_clock_s\": {total_secs:.2},");
    out.push_str("  \"experiments\": [\n");
    for (i, (id, fig, secs)) in results.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": \"{}\",", esc(id));
        let _ = writeln!(out, "      \"title\": \"{}\",", esc(fig.title));
        let _ = writeln!(out, "      \"wall_clock_s\": {secs:.2},");
        out.push_str("      \"anchors\": [\n");
        for (j, a) in fig.anchors.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"what\": \"{}\", \"paper\": {}, \"measured\": {:.3}, \"unit\": \"{}\", \"ratio\": {:.4}}}",
                esc(&a.what),
                a.paper,
                a.measured,
                esc(a.unit),
                a.ratio()
            );
            out.push_str(if j + 1 < fig.anchors.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        out.push_str("      \"series\": [\n");
        for (j, s) in fig.series.iter().enumerate() {
            let pts: Vec<String> =
                s.points().iter().map(|(x, y)| format!("[{x}, {y:.3}]")).collect();
            let _ = write!(
                out,
                "        {{\"label\": \"{}\", \"points\": [{}]}}",
                esc(s.label()),
                pts.join(", ")
            );
            out.push_str(if j + 1 < fig.series.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str("    }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

//! Table formatting and paper-versus-measured reporting.

use amoeba_sim::{Series, SimDuration};

/// How long each experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: tens of sends per point, second-scale windows.
    Quick,
    /// Paper-sized sweeps (the paper used 10 000 repetitions; `Full`
    /// uses enough to stabilize means to well under 1 %).
    Full,
}

impl Scale {
    /// Repetitions for a delay measurement point.
    pub fn sends(self) -> u64 {
        match self {
            Scale::Quick => 60,
            Scale::Full => 1_000,
        }
    }

    /// Warm-up before a throughput window.
    pub fn warmup(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(500),
            Scale::Full => SimDuration::from_secs(2),
        }
    }

    /// Throughput measurement window.
    pub fn window(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(2),
            Scale::Full => SimDuration::from_secs(8),
        }
    }
}

/// One regenerated figure or table: labelled series over a shared
/// x-axis, plus paper-anchor comparison lines.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier ("fig1", "table3", …).
    pub id: &'static str,
    /// Human title (matches the paper's caption).
    pub title: &'static str,
    /// The x-axis label.
    pub x_label: &'static str,
    /// The y-axis label.
    pub y_label: &'static str,
    /// One curve per series.
    pub series: Vec<Series>,
    /// "paper said X, we measured Y" comparison lines.
    pub anchors: Vec<Anchor>,
}

/// A headline number from the paper next to our measurement.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// What is being compared.
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
}

impl Anchor {
    /// Ratio of measured to paper value.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            return f64::NAN;
        }
        self.measured / self.paper
    }
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        if !self.series.is_empty() {
            // Collect the x values of the widest series.
            let xs: Vec<f64> = self
                .series
                .iter()
                .max_by_key(|s| s.points().len())
                .map(|s| s.points().iter().map(|(x, _)| *x).collect())
                .unwrap_or_default();
            out.push_str(&format!("{:>12}", self.x_label));
            for s in &self.series {
                out.push_str(&format!(" {:>14}", s.label()));
            }
            out.push_str(&format!("   ({})\n", self.y_label));
            for x in xs {
                out.push_str(&format!("{x:>12.0}"));
                for s in &self.series {
                    match s.y_at(x) {
                        Some(y) => out.push_str(&format!(" {y:>14.1}")),
                        None => out.push_str(&format!(" {:>14}", "-")),
                    }
                }
                out.push('\n');
            }
        }
        if !self.anchors.is_empty() {
            out.push_str("  paper vs measured:\n");
            for a in &self.anchors {
                out.push_str(&format!(
                    "    {:<52} paper {:>10.1} {:<7} measured {:>10.1} {:<7} (x{:.2})\n",
                    a.what,
                    a.paper,
                    a.unit,
                    a.measured,
                    a.unit,
                    a.ratio()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_series_and_anchors() {
        let mut s = Series::new("0 bytes");
        s.push(2.0, 2.7);
        s.push(30.0, 2.8);
        let fig = Figure {
            id: "figX",
            title: "test",
            x_label: "members",
            y_label: "ms",
            series: vec![s],
            anchors: vec![Anchor {
                what: "null delay".into(),
                paper: 2.7,
                measured: 2.71,
                unit: "ms",
            }],
        };
        let text = fig.render();
        assert!(text.contains("figX"));
        assert!(text.contains("0 bytes"));
        assert!(text.contains("null delay"));
        assert!(text.contains("x1.00"));
    }

    #[test]
    fn scale_knobs_are_ordered() {
        assert!(Scale::Quick.sends() < Scale::Full.sends());
        assert!(Scale::Quick.window() < Scale::Full.window());
    }

    #[test]
    fn anchor_ratio() {
        let a = Anchor { what: "x".into(), paper: 2.0, measured: 3.0, unit: "ms" };
        assert!((a.ratio() - 1.5).abs() < 1e-9);
    }
}

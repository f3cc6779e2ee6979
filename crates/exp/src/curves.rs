//! Trajectory-level aggregation: figure-ready convergence curves.
//!
//! Every sweep job records its realized per-round accuracy trajectory
//! ([`JobResult::accuracy_trajectory`]); this module turns each
//! (scenario, method) cell's seed replications into a [`CurveAggregate`] —
//! per-round mean / p10 / p90 accuracy bands — exactly the shape of the
//! source paper's convergence figures (accuracy-vs-round curves per
//! method, one panel per condition).
//!
//! # Grid alignment
//!
//! Seeds of one cell stop at different rounds (jobs stop early the round
//! they reach the target), so trajectories are aligned on the scenario's
//! **shared round grid**: the longest realized trajectory across all of
//! the scenario's cells. An early-stopped seed is *padded* past its stop
//! round by holding its final, target-crossing value — the curve stays
//! flat where the job stopped learning because it was done. Every grid
//! point records how many seeds realized it ([`CurvePoint::realized`]),
//! and each aggregate carries the padded fraction
//! ([`CurveAggregate::extrapolated_frac`]) so figures can flag the
//! synthetic tail. Budget-exhausted jobs are never padded: they define the
//! grid.
//!
//! # Artifacts
//!
//! [`SweepReport::write_curves_to`] emits, per sweep:
//!
//! * `BENCH_curves_<sweep>.json` — one object per cell with `mean`, `p10`,
//!   `p90` and `realized` arrays over the grid (deterministic bytes, like
//!   every report artifact);
//! * `curves_<sweep>.csv` — the same data in long format (one row per
//!   cell × round), ready for any external plotting tool;
//! * `curves_<sweep>_<scenario>.svg` — a dependency-free plot per
//!   scenario: one mean line plus a translucent p10–p90 band per method,
//!   axes, ticks and a legend, written directly as SVG markup.

use std::path::{Path, PathBuf};

use comdml_obs::Value;

use crate::report::{curve_summary, percentile, scenario_grid};
use crate::{JobResult, Method, Report, SweepReport};

/// One round of a cell's aggregated accuracy band.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// 1-based round on the scenario's shared grid.
    pub round: usize,
    /// Mean accuracy across seeds.
    pub mean: f64,
    /// 10th-percentile accuracy across seeds (nearest rank).
    pub p10: f64,
    /// 90th-percentile accuracy across seeds (nearest rank).
    pub p90: f64,
    /// Seeds whose trajectory realized this round (the rest are padded at
    /// their target-crossing value).
    pub realized: usize,
}

/// Per-round mean/p10/p90 accuracy bands of one (scenario, method) cell,
/// aligned on the scenario's shared round grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveAggregate {
    /// Scenario name.
    pub scenario: String,
    /// Method aggregated.
    pub method: Method,
    /// Seeds aggregated.
    pub seeds: usize,
    /// One aggregated point per grid round.
    pub points: Vec<CurvePoint>,
    /// Median rounds-to-target across seeds (realized where the
    /// trajectory got there, extrapolated otherwise — the same per-job
    /// quantity the scalar cells aggregate).
    pub rounds_to_target_p50: f64,
    /// Fraction of the cell's grid points (seeds × grid rounds) that are
    /// padding rather than realized trajectory.
    pub extrapolated_frac: f64,
}

impl CurveAggregate {
    /// Aggregates one cell's seed replications on a `grid`-round axis.
    /// `jobs` must all share one (scenario, method) coordinate and `grid`
    /// must be at least every job's `rounds_run` (the scenario grid is).
    fn from_cell(jobs: &[JobResult], grid: usize) -> Self {
        assert!(!jobs.is_empty(), "a cell aggregates at least one seed");
        let seeds = jobs.len();
        let mut points = Vec::with_capacity(grid);
        for round in 1..=grid {
            // A trajectory shorter than the grid holds its final value:
            // the job stopped the round it crossed the target.
            let mut values: Vec<f64> = jobs
                .iter()
                .map(|j| {
                    let t = &j.accuracy_trajectory;
                    t.get(round - 1).or_else(|| t.last()).copied().unwrap_or(0.0)
                })
                .collect();
            let realized = jobs.iter().filter(|j| j.rounds_run >= round).count();
            let mean = values.iter().sum::<f64>() / seeds as f64;
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            points.push(CurvePoint {
                round,
                mean,
                p10: percentile(&values, 0.10),
                p90: percentile(&values, 0.90),
                realized,
            });
        }
        // Shared with SweepCell's scalar columns, so the two agree by
        // construction.
        let (rounds_to_target_p50, extrapolated_frac) = curve_summary(jobs, grid);
        Self {
            scenario: jobs[0].scenario.clone(),
            method: jobs[0].method,
            seeds,
            points,
            rounds_to_target_p50,
            extrapolated_frac,
        }
    }

    /// Grid length (rounds on the x axis).
    pub fn rounds(&self) -> usize {
        self.points.len()
    }

    fn to_value(&self) -> Value {
        let arr = |f: fn(&CurvePoint) -> f64| {
            Value::Arr(self.points.iter().map(|p| Value::Num(f(p))).collect())
        };
        Value::Obj(vec![
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("method".into(), Value::Str(self.method.token().into())),
            ("seeds".into(), Value::Num(self.seeds as f64)),
            ("rounds".into(), Value::Num(self.rounds() as f64)),
            ("rounds_to_target_p50".into(), Value::Num(self.rounds_to_target_p50)),
            ("extrapolated_frac".into(), Value::Num(self.extrapolated_frac)),
            ("mean".into(), arr(|p| p.mean)),
            ("p10".into(), arr(|p| p.p10)),
            ("p90".into(), arr(|p| p.p90)),
            (
                "realized".into(),
                Value::Arr(self.points.iter().map(|p| Value::Num(p.realized as f64)).collect()),
            ),
        ])
    }
}

impl SweepReport {
    /// Aggregates every cell's trajectories into per-round accuracy bands,
    /// in cell order (scenario-major, then method).
    pub fn curves(&self) -> Vec<CurveAggregate> {
        let seeds = if self.cells.is_empty() { 0 } else { self.jobs.len() / self.cells.len() };
        let mut out = Vec::with_capacity(self.cells.len());
        for (si, _) in self.scenarios.iter().enumerate() {
            let block = si * self.methods.len() * seeds;
            let scenario_jobs = &self.jobs[block..block + self.methods.len() * seeds];
            let grid = scenario_grid(scenario_jobs);
            for mi in 0..self.methods.len() {
                let start = mi * seeds;
                out.push(CurveAggregate::from_cell(&scenario_jobs[start..start + seeds], grid));
            }
        }
        out
    }

    /// The deterministic curve artifact, `BENCH_curves_<name>.json`.
    pub fn curves_value(&self) -> Value {
        self.curves_value_of(&self.curves())
    }

    fn curves_value_of(&self, curves: &[CurveAggregate]) -> Value {
        Value::Obj(vec![
            ("sweep".into(), Value::Str(self.name.clone())),
            (
                "scenarios".into(),
                Value::Arr(self.scenarios.iter().map(|s| Value::Str(s.clone())).collect()),
            ),
            (
                "methods".into(),
                Value::Arr(self.methods.iter().map(|m| Value::Str(m.token().into())).collect()),
            ),
            ("curves".into(), Value::Arr(curves.iter().map(CurveAggregate::to_value).collect())),
        ])
    }

    /// The long-format CSV companion: one row per cell × round.
    pub fn curves_csv(&self) -> Report {
        self.curves_csv_of(&self.curves())
    }

    fn curves_csv_of(&self, curves: &[CurveAggregate]) -> Report {
        let mut report = Report::new(
            &format!("curves_{}", self.name),
            &["scenario", "method", "round", "mean", "p10", "p90", "realized", "seeds"],
        );
        for c in curves {
            for p in &c.points {
                report.row(&[
                    c.scenario.clone(),
                    c.method.token().to_string(),
                    p.round.to_string(),
                    format!("{:.6}", p.mean),
                    format!("{:.6}", p.p10),
                    format!("{:.6}", p.p90),
                    p.realized.to_string(),
                    c.seeds.to_string(),
                ]);
            }
        }
        report
    }

    /// Writes the curve artifacts under `dir`: `BENCH_curves_<name>.json`,
    /// `curves_<name>.csv` and one `curves_<name>_<scenario>.svg` per
    /// scenario (scenario names are sanitized for the file system in the
    /// SVG file name only; the JSON/CSV carry them verbatim). Returns
    /// `(json, csv, svgs)` paths. The aggregation runs once and feeds all
    /// three artifact families.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_curves_to(
        &self,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<(PathBuf, PathBuf, Vec<PathBuf>)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let curves = self.curves();
        let json_path = dir.join(format!("BENCH_curves_{}.json", self.name));
        std::fs::write(&json_path, self.curves_value_of(&curves).render())?;
        let csv_path = self.curves_csv_of(&curves).write_to(dir)?;
        let mut svg_paths = Vec::with_capacity(self.scenarios.len());
        for scenario in &self.scenarios {
            let panel: Vec<&CurveAggregate> =
                curves.iter().filter(|c| &c.scenario == scenario).collect();
            let path = dir.join(format!("curves_{}_{}.svg", self.name, file_component(scenario)));
            std::fs::write(&path, scenario_svg(&self.name, scenario, &panel))?;
            svg_paths.push(path);
        }
        Ok((json_path, csv_path, svg_paths))
    }
}

/// Makes a name safe as a single file-name component: anything that could
/// escape the output directory or upset a file system (path separators,
/// dots-only names, control characters) becomes `_`. Spec validation only
/// requires scenario names to be non-empty, so this is the last line of
/// defence before `fs::write`.
fn file_component(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '_' })
        .collect();
    if safe.chars().all(|c| c == '.') {
        "_".repeat(safe.len().max(1))
    } else {
        safe
    }
}

/// Fixed, colorblind-friendly method palette (cycled past 8 methods).
fn method_color(index: usize) -> &'static str {
    const PALETTE: [&str; 8] =
        ["#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#f0e442", "#7f7f7f"];
    PALETTE[index % PALETTE.len()]
}

/// Renders one scenario panel as self-contained SVG: per method a
/// translucent p10–p90 band plus the mean polyline, with axes, ticks and a
/// legend. No external dependency, deterministic bytes.
fn scenario_svg(sweep: &str, scenario: &str, curves: &[&CurveAggregate]) -> String {
    const W: f64 = 760.0;
    const H: f64 = 440.0;
    const LEFT: f64 = 64.0;
    const RIGHT: f64 = 190.0; // legend gutter
    const TOP: f64 = 48.0;
    const BOTTOM: f64 = 56.0;
    let plot_w = W - LEFT - RIGHT;
    let plot_h = H - TOP - BOTTOM;
    let grid = curves.iter().map(|c| c.rounds()).max().unwrap_or(1).max(1);
    let y_max = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.p90))
        .fold(0.1f64, f64::max)
        .mul_add(10.0, 0.999)
        .floor()
        / 10.0; // next 0.1 above the tallest band, deterministic
    let x = |round: usize| {
        if grid <= 1 {
            LEFT + plot_w / 2.0
        } else {
            LEFT + (round - 1) as f64 / (grid - 1) as f64 * plot_w
        }
    };
    let y = |acc: f64| TOP + (1.0 - (acc / y_max).clamp(0.0, 1.0)) * plot_h;
    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\">\n"
    ));
    s.push_str(&format!(
        "  <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n  <text x=\"{LEFT}\" y=\"28\" \
         font-size=\"15\" font-weight=\"bold\">{} \u{b7} {}</text>\n  <text x=\"{LEFT}\" \
         y=\"44\" font-size=\"11\" fill=\"#555\">accuracy per round \u{2014} mean line, \
         p10\u{2013}p90 band</text>\n",
        escape_xml(sweep),
        escape_xml(scenario),
    ));
    // Axes.
    s.push_str(&format!(
        "  <line x1=\"{LEFT}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#333\"/>\n  \
         <line x1=\"{LEFT}\" y1=\"{TOP}\" x2=\"{LEFT}\" y2=\"{:.1}\" stroke=\"#333\"/>\n",
        TOP + plot_h,
        LEFT + plot_w,
        TOP + plot_h,
        TOP + plot_h,
    ));
    // Y ticks: five even divisions of [0, y_max].
    for i in 0..=5 {
        let acc = y_max * i as f64 / 5.0;
        let yy = y(acc);
        s.push_str(&format!(
            "  <line x1=\"{:.1}\" y1=\"{yy:.1}\" x2=\"{LEFT}\" y2=\"{yy:.1}\" \
             stroke=\"#333\"/>\n  <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" \
             text-anchor=\"end\">{acc:.2}</text>\n",
            LEFT - 5.0,
            LEFT - 8.0,
            yy + 4.0,
        ));
    }
    // X ticks: at most eight round labels, integer spacing.
    let step = (grid / 8).max(1);
    let mut round = 1;
    while round <= grid {
        let xx = x(round);
        s.push_str(&format!(
            "  <line x1=\"{xx:.1}\" y1=\"{:.1}\" x2=\"{xx:.1}\" y2=\"{:.1}\" \
             stroke=\"#333\"/>\n  <text x=\"{xx:.1}\" y=\"{:.1}\" font-size=\"11\" \
             text-anchor=\"middle\">{round}</text>\n",
            TOP + plot_h,
            TOP + plot_h + 5.0,
            TOP + plot_h + 18.0,
        ));
        round += step;
    }
    s.push_str(&format!(
        "  <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\">round</text>\n",
        LEFT + plot_w / 2.0,
        H - 16.0,
    ));
    s.push_str(&format!(
        "  <text x=\"16\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\" \
         transform=\"rotate(-90 16 {:.1})\">accuracy</text>\n",
        TOP + plot_h / 2.0,
        TOP + plot_h / 2.0,
    ));
    // Bands first (under every line), then means, then the legend.
    for (i, c) in curves.iter().enumerate() {
        let color = method_color(i);
        let mut band = String::new();
        for p in &c.points {
            band.push_str(&format!("{:.1},{:.1} ", x(p.round), y(p.p90)));
        }
        for p in c.points.iter().rev() {
            band.push_str(&format!("{:.1},{:.1} ", x(p.round), y(p.p10)));
        }
        s.push_str(&format!(
            "  <polygon points=\"{}\" fill=\"{color}\" fill-opacity=\"0.15\" stroke=\"none\"/>\n",
            band.trim_end(),
        ));
    }
    for (i, c) in curves.iter().enumerate() {
        let color = method_color(i);
        let line: Vec<String> =
            c.points.iter().map(|p| format!("{:.1},{:.1}", x(p.round), y(p.mean))).collect();
        s.push_str(&format!(
            "  <polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
            line.join(" "),
        ));
    }
    for (i, c) in curves.iter().enumerate() {
        let color = method_color(i);
        let ly = TOP + 14.0 + i as f64 * 20.0;
        let lx = LEFT + plot_w + 16.0;
        s.push_str(&format!(
            "  <line x1=\"{lx:.1}\" y1=\"{ly:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\" \
             stroke=\"{color}\" stroke-width=\"2\"/>\n  <text x=\"{:.1}\" y=\"{:.1}\" \
             font-size=\"11\">{} ({:.0}% extrap)</text>\n",
            lx + 22.0,
            lx + 28.0,
            ly + 4.0,
            escape_xml(c.method.display()),
            c.extrapolated_frac * 100.0,
        ));
    }
    s.push_str("</svg>\n");
    s
}

fn escape_xml(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, SweepRunner};

    #[test]
    fn bands_align_on_the_scenario_grid_and_flag_padding() {
        let report = SweepRunner::new().progress(false).run(&presets::smoke()).unwrap();
        let curves = report.curves();
        assert_eq!(curves.len(), report.cells.len());
        for (curve, cell) in curves.iter().zip(&report.cells) {
            assert_eq!(curve.scenario, cell.scenario);
            assert_eq!(curve.method, cell.method);
            assert_eq!(curve.rounds_to_target_p50, cell.rounds_to_target_p50);
            assert_eq!(curve.extrapolated_frac, cell.extrapolated_frac);
            for p in &curve.points {
                assert!(p.p10 <= p.mean + 1e-12 && p.mean <= p.p90 + 1e-12);
                assert!(p.realized <= curve.seeds);
            }
        }
        // One scenario: every cell shares the same grid.
        let grids: Vec<usize> = curves.iter().map(CurveAggregate::rounds).collect();
        assert!(grids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn hostile_scenario_names_stay_inside_the_output_directory() {
        assert_eq!(file_component("agents50_sample20"), "agents50_sample20");
        assert_eq!(file_component("50/20"), "50_20");
        assert_eq!(file_component("../escape"), ".._escape");
        assert_eq!(file_component(".."), "__");
        assert_eq!(file_component("a b\\c"), "a_b_c");
    }

    #[test]
    fn svg_panels_are_self_contained() {
        let report = SweepRunner::new().progress(false).run(&presets::smoke()).unwrap();
        let curves = report.curves();
        let panel: Vec<&CurveAggregate> = curves.iter().collect();
        let svg = scenario_svg("smoke", "churny_dozen", &panel);
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("polyline"), "mean lines present");
        assert!(svg.contains("polygon"), "bands present");
        assert!(svg.matches("polyline").count() >= panel.len());
        // Deterministic bytes: rendering twice is identical.
        assert_eq!(svg, scenario_svg("smoke", "churny_dozen", &panel));
    }
}

//! Sweep aggregation: per-cell statistics, paper-style tables, and the
//! deterministic `BENCH_sweep_*.json` / CSV artifacts — plus [`Report`],
//! the CSV writer every sweep and bench artifact goes through.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use comdml_obs::Value;

use crate::{fmt_s, JobResult, Method, SweepSpec};

/// Accumulates experiment rows and writes a CSV under
/// `target/experiments/<name>.csv`.
///
/// # Example
///
/// ```
/// use comdml_exp::Report;
///
/// let mut report = Report::new("doc_example", &["method", "seconds"]);
/// report.row(&["ComDML".into(), "4342".into()]);
/// let path = report.write_to(std::env::temp_dir()).unwrap();
/// assert!(path.ends_with("doc_example.csv"));
/// ```
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a name (file stem) and column header.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells.to_vec());
    }

    /// Number of accumulated rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the CSV content.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<name>.csv`, creating the directory if needed, and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Writes to the workspace's default location, `target/experiments/`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        self.write_to(Path::new("target").join("experiments"))
    }
}

/// Statistics of one (scenario, method) cell over the sweep's seeds. Time
/// quantities are *simulated* seconds, so every field is deterministic and
/// the rendered report is byte-comparable across machines and worker
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Scenario name.
    pub scenario: String,
    /// Method run.
    pub method: Method,
    /// Seeds aggregated.
    pub seeds: usize,
    /// Mean projected time-to-target-accuracy (simulated seconds).
    pub mean_time_s: f64,
    /// Median projected time-to-target.
    pub p50_time_s: f64,
    /// 95th-percentile projected time-to-target.
    pub p95_time_s: f64,
    /// Mean simulated seconds per measured round.
    pub mean_round_s: f64,
    /// Mean learning efficiency per round.
    pub mean_rounds_factor: f64,
    /// Mean rounds-to-target (realized where the trajectory got there,
    /// extrapolated otherwise).
    pub mean_rounds_to_target: f64,
    /// Median rounds-to-target across seeds — the curve-summary companion
    /// of the per-round bands in [`crate::CurveAggregate`].
    pub rounds_to_target_p50: f64,
    /// Fraction of this cell's grid points (seeds × the scenario's shared
    /// round grid) that are padding rather than realized trajectory —
    /// early-stopped seeds hold their target-crossing value for the rest of
    /// the grid. 0 means every plotted point was simulated.
    pub extrapolated_frac: f64,
    /// Mean realized accuracy at the end of the simulated rounds.
    pub mean_final_acc: f64,
    /// Seeds whose realized trajectory reached the target inside the round
    /// budget (their time-to-target is exact, not extrapolated).
    pub reached: usize,
    /// Mean time of the same scenario's FedAvg cell divided by this cell's
    /// mean time (>1 = faster than FedAvg); `None` when FedAvg is not in
    /// the sweep.
    pub speedup_vs_fedavg: Option<f64>,
    /// Events executed across all seeds.
    pub events_processed: u64,
    /// Largest peak membership any seed observed.
    pub peak_agents: usize,
}

/// Everything a sweep produced: the raw job results in deterministic order
/// plus the per-cell aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (output file stem).
    pub name: String,
    /// Scenario names in spec order.
    pub scenarios: Vec<String>,
    /// Methods in spec order.
    pub methods: Vec<Method>,
    /// One result per job, scenario-major, then method, then seed.
    pub jobs: Vec<JobResult>,
    /// One cell per (scenario, method), same ordering.
    pub cells: Vec<SweepCell>,
}

/// Nearest-rank percentile of an ascending slice (shared with the
/// trajectory aggregation in [`crate::CurveAggregate`]).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The shared round grid of one scenario's jobs: the longest realized
/// trajectory across every (method, seed) of the scenario, so all of the
/// scenario's cells align on the same x axis. Early-stopped jobs are
/// shorter than the grid; budget-exhausted jobs define it.
pub(crate) fn scenario_grid(jobs: &[JobResult]) -> usize {
    jobs.iter().map(|j| j.rounds_run).max().unwrap_or(0)
}

/// The curve-summary pair of one cell on a `grid`-round axis:
/// `(rounds_to_target_p50, extrapolated_frac)`. One definition shared by
/// the scalar [`SweepCell`] columns and [`crate::CurveAggregate`], so the
/// two can never drift apart.
pub(crate) fn curve_summary(jobs: &[JobResult], grid: usize) -> (f64, f64) {
    let mut rounds_tt: Vec<f64> = jobs.iter().map(|j| j.rounds_to_target as f64).collect();
    rounds_tt.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let padded: usize = jobs.iter().map(|j| grid - j.rounds_run).sum();
    (percentile(&rounds_tt, 0.50), padded as f64 / (jobs.len() * grid.max(1)).max(1) as f64)
}

impl SweepReport {
    /// Aggregates job results (in [`crate::SweepRunner::jobs`] order) into
    /// cells.
    pub fn assemble(spec: &SweepSpec, jobs: Vec<JobResult>) -> Self {
        assert_eq!(jobs.len(), spec.num_jobs(), "one result per job");
        let seeds = spec.seeds.count;
        let mut cells = Vec::with_capacity(spec.scenarios.len() * spec.methods.len());
        for (si, scenario) in spec.scenarios.iter().enumerate() {
            let block = si * spec.methods.len() * seeds;
            let grid = scenario_grid(&jobs[block..block + spec.methods.len() * seeds]);
            for (mi, &method) in spec.methods.iter().enumerate() {
                let start = (si * spec.methods.len() + mi) * seeds;
                let slice = &jobs[start..start + seeds];
                debug_assert!(slice
                    .iter()
                    .all(|j| j.method == method && j.scenario == scenario.name));
                let mut times: Vec<f64> = slice.iter().map(|j| j.time_to_target_s).collect();
                times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let (rounds_to_target_p50, extrapolated_frac) = curve_summary(slice, grid);
                let n = seeds as f64;
                cells.push(SweepCell {
                    scenario: scenario.name.clone(),
                    method,
                    seeds,
                    mean_time_s: times.iter().sum::<f64>() / n,
                    p50_time_s: percentile(&times, 0.50),
                    p95_time_s: percentile(&times, 0.95),
                    mean_round_s: slice.iter().map(|j| j.mean_round_s).sum::<f64>() / n,
                    mean_rounds_factor: slice.iter().map(|j| j.rounds_factor).sum::<f64>() / n,
                    mean_rounds_to_target: slice
                        .iter()
                        .map(|j| j.rounds_to_target as f64)
                        .sum::<f64>()
                        / n,
                    rounds_to_target_p50,
                    extrapolated_frac,
                    mean_final_acc: slice.iter().map(|j| j.final_accuracy).sum::<f64>() / n,
                    reached: slice.iter().filter(|j| j.reached_target).count(),
                    speedup_vs_fedavg: None, // filled below
                    events_processed: slice.iter().map(|j| j.events_processed).sum(),
                    peak_agents: slice.iter().map(|j| j.peak_agents).max().unwrap_or(0),
                });
            }
        }
        // Second pass: speedup vs the same scenario's FedAvg cell.
        let methods = spec.methods.clone();
        if let Some(fi) = methods.iter().position(|&m| m == Method::FedAvg) {
            for si in 0..spec.scenarios.len() {
                let fedavg_mean = cells[si * methods.len() + fi].mean_time_s;
                for mi in 0..methods.len() {
                    let cell = &mut cells[si * methods.len() + mi];
                    cell.speedup_vs_fedavg = Some(fedavg_mean / cell.mean_time_s.max(1e-12));
                }
            }
        }
        Self {
            name: spec.name.clone(),
            scenarios: spec.scenarios.iter().map(|s| s.name.clone()).collect(),
            methods,
            jobs,
            cells,
        }
    }

    /// The deterministic JSON artifact. Byte-identical for byte-identical
    /// sweeps — this is the document the cross-thread-count identity tests
    /// compare.
    pub fn to_value(&self) -> Value {
        let cell_v = |c: &SweepCell| {
            let mut f = vec![
                ("scenario".into(), Value::Str(c.scenario.clone())),
                ("method".into(), Value::Str(c.method.token().into())),
                ("seeds".into(), Value::Num(c.seeds as f64)),
                ("mean_time_s".into(), Value::Num(c.mean_time_s)),
                ("p50_time_s".into(), Value::Num(c.p50_time_s)),
                ("p95_time_s".into(), Value::Num(c.p95_time_s)),
                ("mean_round_s".into(), Value::Num(c.mean_round_s)),
                ("mean_rounds_factor".into(), Value::Num(c.mean_rounds_factor)),
                ("mean_rounds_to_target".into(), Value::Num(c.mean_rounds_to_target)),
                ("rounds_to_target_p50".into(), Value::Num(c.rounds_to_target_p50)),
                ("extrapolated_frac".into(), Value::Num(c.extrapolated_frac)),
                ("mean_final_acc".into(), Value::Num(c.mean_final_acc)),
                ("reached".into(), Value::Num(c.reached as f64)),
                ("events_processed".into(), Value::Num(c.events_processed as f64)),
                ("peak_agents".into(), Value::Num(c.peak_agents as f64)),
            ];
            if let Some(s) = c.speedup_vs_fedavg {
                f.push(("speedup_vs_fedavg".into(), Value::Num(s)));
            }
            Value::Obj(f)
        };
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
            ("cells".into(), Value::Arr(self.cells.iter().map(cell_v).collect())),
            ("jobs".into(), Value::Arr(self.jobs.iter().map(JobResult::to_value).collect())),
        ])
    }

    /// The per-cell CSV companion.
    pub fn to_csv(&self) -> Report {
        let mut report = Report::new(
            &format!("sweep_{}", self.name),
            &[
                "scenario",
                "method",
                "seeds",
                "mean_time_s",
                "p50_time_s",
                "p95_time_s",
                "mean_round_s",
                "mean_rounds_factor",
                "mean_rounds_to_target",
                "rounds_to_target_p50",
                "extrapolated_frac",
                "mean_final_acc",
                "reached",
                "speedup_vs_fedavg",
                "events_processed",
                "peak_agents",
            ],
        );
        for c in &self.cells {
            report.row(&[
                c.scenario.clone(),
                c.method.token().to_string(),
                c.seeds.to_string(),
                format!("{:.3}", c.mean_time_s),
                format!("{:.3}", c.p50_time_s),
                format!("{:.3}", c.p95_time_s),
                format!("{:.3}", c.mean_round_s),
                format!("{:.4}", c.mean_rounds_factor),
                format!("{:.1}", c.mean_rounds_to_target),
                format!("{:.1}", c.rounds_to_target_p50),
                format!("{:.4}", c.extrapolated_frac),
                format!("{:.4}", c.mean_final_acc),
                c.reached.to_string(),
                c.speedup_vs_fedavg.map(|s| format!("{s:.2}")).unwrap_or_default(),
                c.events_processed.to_string(),
                c.peak_agents.to_string(),
            ]);
        }
        report
    }

    /// Writes `BENCH_sweep_<name>.json` and `sweep_<name>.csv` under `dir`,
    /// returning both paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<(PathBuf, PathBuf)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("BENCH_sweep_{}.json", self.name));
        fs::write(&json_path, self.to_value().render())?;
        let csv_path = self.to_csv().write_to(dir)?;
        Ok((json_path, csv_path))
    }

    /// Writes to the workspace default, `target/experiments/`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> std::io::Result<(PathBuf, PathBuf)> {
        self.write_to(Path::new("target").join("experiments"))
    }

    /// Renders the paper-style table: one block per scenario, one row per
    /// method, time-to-target with spread and the speedup-vs-FedAvg column.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for scenario in &self.scenarios {
            out.push_str(&format!("── {scenario} ──\n"));
            out.push_str(&format!(
                "{:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7} {:>9} {:>10}\n",
                "method",
                "mean ttx (s)",
                "p50 (s)",
                "p95 (s)",
                "rounds",
                "r50 tgt",
                "extrap",
                "reached",
                "vs FedAvg"
            ));
            for c in self.cells.iter().filter(|c| &c.scenario == scenario) {
                out.push_str(&format!(
                    "{:<16} {:>12} {:>12} {:>12} {:>8.0} {:>8.0} {:>7} {:>9} {:>10}\n",
                    c.method.display(),
                    fmt_s(c.mean_time_s),
                    fmt_s(c.p50_time_s),
                    fmt_s(c.p95_time_s),
                    c.mean_rounds_to_target,
                    c.rounds_to_target_p50,
                    format!("{:.0}%", c.extrapolated_frac * 100.0),
                    format!("{}/{}", c.reached, c.seeds),
                    c.speedup_vs_fedavg.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into()),
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_simple_rows() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.row(&["3".into(), "4".into()]);
        assert_eq!(r.to_csv(), "a,b\n1,2\n3,4\n");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut r = Report::new("t", &["x"]);
        r.row(&["hello, \"world\"".into()]);
        assert_eq!(r.to_csv(), "x\n\"hello, \"\"world\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn writes_to_disk() {
        let mut r = Report::new("unit_test_report", &["k", "v"]);
        r.row(&["x".into(), "1".into()]);
        let dir = std::env::temp_dir().join("comdml_report_test");
        let path = r.write_to(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("k,v\n"));
    }
}

//! The repository benchmark: one process per workload, load generated
//! in-process from `--seed`, every loop closed (the next round or job is
//! issued only after the previous one completes).
//!
//! ```sh
//! python3 perfbench/run.py --workload fleet_1m_cohort1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` drives the user-facing surfaces (`FleetSim::step`,
//! `SweepRunner`) untimed inside and prints the end-to-end metrics;
//! `--trace 1` re-drives the same work with timers around each layer call
//! and prints the per-layer metrics plus a layer table. On success the last
//! stdout line is the JSON result object. See `perfbench/README.md`.

mod fleet;
mod layers;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Seed used when `--seed` is omitted (also recorded in `BENCHMARK.json`).
const DEFAULT_SEED: u64 = 1;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Rounds (fleet workloads) or jobs (sweep workload) issued.
    pub attempted: u64,
    /// Of those, the ones that panicked or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive `values` (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a style fold used for every output digest.
pub fn fold(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// The digest every fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MB (`VmHWM`). Each workload runs
/// in its own process, so one workload's footprint never leaks into
/// another's figure.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cross-run determinism: the first run of a `(workload, seed)` in this
/// build directory records the digest of the outputs named by `what`;
/// every later run (traced or not) must reproduce it. Returns whether the
/// digest matched (or was recorded fresh).
pub fn check_recorded_digest(
    workload: &str,
    seed: u64,
    what: &str,
    digest: u64,
) -> Result<bool, String> {
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
        .join("perfbench-digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}-{what}.txt"));
    let text = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let same = prev == text;
            if !same {
                eprintln!(
                    "digest mismatch for {workload} seed {seed}: recorded {} now {digest:016x}",
                    prev.trim()
                );
            }
            Ok(same)
        }
        Err(_) => {
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The end-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_round_s", "sim_s"),
    ("comdml_speedup_vs_fedavg", "ratio"),
];

/// The per-layer metrics every `--trace 1` run prints. A layer the
/// workload does not drive reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("simnet.sample_ms", "ms"),
    ("simnet.begin_round_ms", "ms"),
    ("simnet.end_round_ms", "ms"),
    ("simnet.membership_events", "count"),
    ("core.horizon_ms", "ms"),
    ("core.carry_ms", "ms"),
    ("core.pair_ms", "ms"),
    ("core.pair_offload_frac", "ratio"),
    ("core.event_round_ms", "ms"),
    ("core.event_round.setup_ms", "ms"),
    ("core.event_round.pair_prep_ms", "ms"),
    ("core.event_round.loop_ms", "ms"),
    ("core.event_round.report_ms", "ms"),
    ("core.events", "count"),
    ("core.events_per_s", "1/s"),
    ("core.repairs", "count"),
    ("exp.job_comdml_ms", "ms"),
    ("exp.job_baseline_ms", "ms"),
    ("exp.pool_idle_frac", "ratio"),
    ("exp.assemble_ms", "ms"),
    ("exp.curves_ms", "ms"),
    ("cost.profile_ms", "ms"),
    ("simnet.build_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("attributed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Orders `measured` by `expected`, filling per-layer metrics a workload
/// does not drive with 0. An end-to-end metric missing, or any name or
/// unit outside the list, is a bug in this benchmark.
fn complete(
    measured: Vec<Metric>,
    expected: &[(&'static str, &'static str)],
    fill_zero: bool,
) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured.iter().find(|m| !expected.contains(&(m.name, m.unit))) {
        return Err(format!("metric {} [{}] is not declared", m.name, m.unit));
    }
    expected
        .iter()
        .map(|&(name, unit)| match measured.iter().find(|m| m.name == name) {
            Some(m) => Ok(*m),
            None if fill_zero => Ok(Metric::new(name, 0.0, unit)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "fleet_1m_cohort1" => fleet::run(&fleet::fleet_1m_cohort1(), args)?,
        "mesh_lognormal_2k" => fleet::run(&fleet::mesh_lognormal_2k(), args)?,
        "sweep_paper_presets" => sweep::run(args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let measured = std::mem::take(&mut outcome.metrics);
    outcome.metrics = if args.trace {
        complete(measured, &PER_LAYER, true)?
    } else {
        let mut measured = measured;
        measured.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
        complete(measured, &END_TO_END, false)?
    };
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

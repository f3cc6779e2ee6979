//! W3 `sweep_paper_presets`: `@table3` plus `@extended` over many seeds,
//! run closed-loop on the sweep runner's worker pool with every artifact
//! (report JSON/CSV, curve aggregates) assembled in memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use comdml_exp::{presets, JobResult, JobSource, Method, SweepReport, SweepRunner, SweepSpec};

use crate::layers::Layers;
use crate::{
    check_recorded_digest, fold, geomean, mean, median, quantile, Args, Metric, Outcome, FNV_OFFSET,
};

const WORKLOAD: &str = "sweep_paper_presets";
/// Seeds per preset cell; every sweep re-runs the same seed block.
const SEEDS: usize = 64;

/// Pool workers: at most two, and never more than the machine has.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The two preset sweeps over the seed block derived from `seed`.
fn specs(seed: u64) -> Vec<SweepSpec> {
    let base = 1 + seed.wrapping_mul(1_000_000);
    vec![presets::table3(SEEDS).seeds(base, SEEDS), presets::extended(SEEDS).seeds(base, SEEDS)]
}

/// Set-up as a sweep front end does it: build the specs, round-trip them
/// through the spec file format, validate and expand the job matrix.
fn setup(seed: u64) -> Result<Vec<(SweepSpec, usize)>, String> {
    specs(seed)
        .into_iter()
        .map(|spec| {
            let parsed = SweepSpec::parse(&spec.render())?;
            parsed.validate()?;
            let jobs = SweepRunner::jobs(&parsed).len();
            Ok((parsed, jobs))
        })
        .collect()
}

/// Every artifact a sweep writes, rendered in memory: the report
/// (JSON + CSV) and the curve aggregates (JSON + CSV).
fn artifacts(report: &SweepReport) -> [String; 2] {
    [report_artifacts(report), curve_artifacts(report)]
}

fn report_artifacts(report: &SweepReport) -> String {
    report.to_value().render() + &report.to_csv().to_csv()
}

fn curve_artifacts(report: &SweepReport) -> String {
    report.curves_value().render() + &report.curves_csv().to_csv()
}

/// A job result that is internally consistent.
fn job_ok(j: &JobResult) -> bool {
    j.rounds_run >= 1
        && j.sim_s > 0.0
        && j.time_to_target_s.is_finite()
        && j.time_to_target_s >= j.sim_s * (1.0 - 1e-12)
        && (0.0..=1.0).contains(&j.final_accuracy)
        && j.accuracy_trajectory.len() == j.rounds_run
}

/// One sweep through `SweepRunner::execute_source`, timed from outside.
struct TimedSweep {
    report: SweepReport,
    artifacts: [String; 2],
    jobs: usize,
    /// `(method, host ms)` per job: time since the same pool thread's
    /// previous completion (or the pool start).
    job_ms: Vec<(Method, f64)>,
    pool_ms: f64,
    /// Worker-ms after each thread's last completion until the pool ended.
    idle_ms: f64,
    assemble_ms: f64,
    curves_ms: f64,
}

fn timed_sweep(runner: &SweepRunner, spec: &SweepSpec) -> Result<TimedSweep, String> {
    let jobs = SweepRunner::jobs(spec);
    let total = jobs.len();
    let source = JobSource::new(jobs.into_iter().enumerate().collect());
    let done: Mutex<Vec<(ThreadId, Instant, Method)>> = Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    let results = runner.execute_source(spec, &source, &|_, r| {
        let now = Instant::now();
        done.lock().expect("completion log never poisoned").push((
            std::thread::current().id(),
            now,
            r.method,
        ));
    });
    let pool_end = Instant::now();
    let results: Vec<JobResult> = results
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("an uncancelled sweep left a job unrun")?;

    // Group completions by pool thread, in completion order.
    let mut done = done.into_inner().expect("completion log never poisoned");
    let mut threads_seen: Vec<ThreadId> = Vec::new();
    for &(thread, _, _) in &done {
        if !threads_seen.contains(&thread) {
            threads_seen.push(thread);
        }
    }
    done.sort_by_key(|&(thread, at, _)| (threads_seen.iter().position(|&t| t == thread), at));
    let mut job_ms = Vec::with_capacity(total);
    let mut idle_ms = 0.0;
    let mut threads = 0;
    for (i, &(thread, at, method)) in done.iter().enumerate() {
        let prev = match i.checked_sub(1).map(|p| done[p]) {
            Some((t, prev_at, _)) if t == thread => prev_at,
            _ => {
                threads += 1;
                start
            }
        };
        job_ms.push((method, (at - prev).as_secs_f64() * 1e3));
        if done.get(i + 1).is_none_or(|&(t, _, _)| t != thread) {
            idle_ms += (pool_end - at).as_secs_f64() * 1e3;
        }
    }
    // Workers that never completed a job idled for the whole pool.
    let pool_ms = (pool_end - start).as_secs_f64() * 1e3;
    idle_ms += workers().min(total).saturating_sub(threads) as f64 * pool_ms;

    let t = Instant::now();
    let report = SweepReport::assemble(spec, results);
    let main = report_artifacts(&report);
    let assemble_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let curves = curve_artifacts(&report);
    let curves_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(TimedSweep {
        report,
        artifacts: [main, curves],
        jobs: total,
        job_ms,
        pool_ms,
        idle_ms,
        assemble_ms,
        curves_ms,
    })
}

/// Names the outputs the sweep digest covers.
fn artifacts_of() -> String {
    format!("{SEEDS}seeds")
}

fn digest_of(artifacts: &[[String; 2]]) -> u64 {
    artifacts.iter().flatten().flat_map(|s| s.bytes()).fold(FNV_OFFSET, |d, b| fold(d, b as u64))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let runner = SweepRunner::new().threads(workers()).progress(false);
    if args.trace {
        return run_traced(args, &runner, &setup(args.seed)?);
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<Vec<[String; 2]>> = None;
    let mut first_reports = Vec::new();
    let mut job_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        // Every sweep starts from its spec, as each sweep command does.
        let t = Instant::now();
        let specs = setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let sweeps = catch_unwind(AssertUnwindSafe(|| {
            specs.iter().map(|(spec, _)| timed_sweep(&runner, spec)).collect::<Result<Vec<_>, _>>()
        }));
        wall_s += t.elapsed().as_secs_f64();
        let jobs: usize = specs.iter().map(|(_, n)| n).sum();
        attempted += jobs as u64;
        let sweeps = match sweeps {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                failed += jobs as u64;
                break;
            }
        };
        let artifacts: Vec<[String; 2]> = sweeps.iter().map(|s| s.artifacts.clone()).collect();
        for s in &sweeps {
            failed += s.report.jobs.iter().filter(|j| !job_ok(j)).count() as u64;
            job_ms.extend(s.job_ms.iter().map(|&(_, ms)| ms));
        }
        match &first {
            // Every sweep re-runs the same jobs: its artifacts must be
            // byte-identical to the first sweep's.
            Some(f) if *f != artifacts => failed += jobs as u64,
            Some(_) => {}
            None => {
                first = Some(artifacts);
                first_reports = sweeps.into_iter().map(|s| s.report).collect();
            }
        }
    }
    let first = first.ok_or("no sweep ran")?;
    let digest = digest_of(&first);
    if !check_recorded_digest(WORKLOAD, args.seed, &artifacts_of(), digest)? {
        failed += attempted;
    }

    let comdml_round_s: Vec<f64> = first_reports
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.method == Method::ComDml)
        .map(|j| j.mean_round_s)
        .collect();
    let sim_round_s = mean(&comdml_round_s);
    let speedups: Vec<f64> = first_reports
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| c.method == Method::ComDml)
        .filter_map(|c| c.speedup_vs_fedavg)
        .collect();
    let speedup = geomean(&speedups);

    println!(
        "{WORKLOAD}: seed {}, {attempted} jobs in {wall_s:.2} s on {} workers, setup median \
         {:.3} ms of {}, artifact digest {digest:016x}",
        args.seed,
        workers(),
        median(&setup_s) * 1e3,
        setup_s.len()
    );
    println!(
        "  job ms p50 {:.3} p90 {:.3} over {} samples; ComDML sim round {sim_round_s:.3} s; \
         speedup vs FedAvg {speedups:.3?} (geomean {speedup:.3})",
        median(&job_ms),
        quantile(&job_ms, 0.9),
        job_ms.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("ops_per_s", attempted as f64 / wall_s, "1/s"),
            Metric::new("op_ms_p50", median(&job_ms), "ms"),
            Metric::new("op_ms_p90", quantile(&job_ms, 0.9), "ms"),
            Metric::new("sim_round_s", sim_round_s, "sim_s"),
            Metric::new("comdml_speedup_vs_fedavg", speedup, "ratio"),
        ],
    })
}

fn run_traced(
    args: &Args,
    runner: &SweepRunner,
    specs: &[(SweepSpec, usize)],
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut comdml_ms, mut baseline_ms) = (Vec::new(), Vec::new());
    let (mut pool_ms, mut idle_ms) = (0.0, 0.0);
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut reference: Vec<[String; 2]> = Vec::new();
    let mut sweeps = 0usize;
    comdml_obs::metrics().reset();
    let start = Instant::now();
    while sweeps == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (spec, jobs) in specs {
            // Untraced reference first: `SweepRunner::run` itself, its
            // artifacts rendered the same way.
            let t = Instant::now();
            let expected = artifacts(&runner.run(spec)?);
            untraced_ms += t.elapsed().as_secs_f64() * 1e3;
            if reference.len() < specs.len() {
                reference.push(expected.clone());
            }

            comdml_obs::set_metrics_enabled(true);
            let t = Instant::now();
            let traced = catch_unwind(AssertUnwindSafe(|| timed_sweep(runner, spec)));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            comdml_obs::set_metrics_enabled(false);
            attempted += *jobs as u64;
            let Ok(s) = traced else {
                failed += *jobs as u64;
                continue;
            };
            let s = s?;
            traced_ms += ms;
            sweeps += 1;
            failed += s.report.jobs.iter().filter(|j| !job_ok(j)).count() as u64;
            // The traced sweep must reproduce `SweepRunner::run` byte for
            // byte.
            if s.artifacts != expected {
                eprintln!("traced {} artifacts differ from SweepRunner::run's", spec.name);
                failed += s.jobs as u64;
            }
            for &(method, ms) in &s.job_ms {
                match method {
                    Method::ComDml => comdml_ms.push(ms),
                    _ => baseline_ms.push(ms),
                }
            }
            pool_ms += s.pool_ms;
            idle_ms += s.idle_ms;
            layers.add("exp.pool", None, s.pool_ms);
            layers.add("exp.assemble", None, s.assemble_ms);
            layers.add("exp.curves", None, s.curves_ms);
        }
    }
    if !check_recorded_digest(WORKLOAD, args.seed, &artifacts_of(), digest_of(&reference))? {
        failed += attempted;
    }

    let worker_ms = pool_ms * workers() as f64;
    layers.print(WORKLOAD, "sweep", sweeps, traced_ms);
    println!(
        "  pool: {} workers, {:.1} worker-ms: ComDML jobs {:.1} ({} jobs, {:.3} ms each), \
         baseline jobs {:.1} ({} jobs, {:.3} ms each), idle {idle_ms:.1}; untraced \
         {untraced_ms:.1} ms for the same sweeps",
        workers(),
        worker_ms,
        comdml_ms.iter().sum::<f64>(),
        comdml_ms.len(),
        mean(&comdml_ms),
        baseline_ms.iter().sum::<f64>(),
        baseline_ms.len(),
        mean(&baseline_ms)
    );
    let per_sweep = |x: f64| x / sweeps.max(1) as f64;
    let metrics = vec![
        Metric::new("exp.job_comdml_ms", mean(&comdml_ms), "ms"),
        Metric::new("exp.job_baseline_ms", mean(&baseline_ms), "ms"),
        Metric::new("exp.pool_idle_frac", idle_ms / worker_ms.max(1e-12), "ratio"),
        Metric::new("exp.assemble_ms", per_sweep(layers.busy("exp.assemble")), "ms"),
        Metric::new("exp.curves_ms", per_sweep(layers.busy("exp.curves")), "ms"),
        Metric::new("unattributed_ms", per_sweep(traced_ms - layers.attributed_ms()), "ms"),
        Metric::new("attributed_frac", layers.attributed_ms() / traced_ms.max(1e-12), "ratio"),
        Metric::new("obs.trace_overhead_frac", traced_ms / untraced_ms.max(1e-12) - 1.0, "ratio"),
    ];
    Ok(Outcome { attempted, failed, metrics })
}

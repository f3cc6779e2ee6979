//! Shardable sweeps: partition the job matrix across processes or hosts
//! and byte-merge the partial reports.
//!
//! Every job is a pure function of its `(scenario, method, seed)`
//! coordinates, so the job matrix can be split *anywhere* without changing
//! any result — the only thing a shard needs to know is *which* global job
//! indices it owns. A [`Shard`] `i/n` owns the indices congruent to `i`
//! modulo `n` (round-robin, so expensive scenarios spread evenly), runs
//! them on the ordinary worker pool, and writes a [`PartialReport`]:
//! the full spec plus the owned `(index, job)` rows, as JSON on the
//! [`comdml_obs::Value`] model.
//!
//! [`merge`] takes one partial per shard, verifies the specs and the
//! partition are consistent and complete, scatters the rows back into
//! global order and re-aggregates with the same [`SweepReport::assemble`]
//! the single-process path uses — so the merged report renders
//! **byte-identically** to a single-process run of the same spec
//! (property-tested for 1–5 shards in `tests/shard.rs`). Floats survive
//! the partial-report round trip exactly because [`Value`] renders them in
//! Rust's shortest round-trip representation.

use std::path::{Path, PathBuf};

use comdml_obs::Value;

use crate::{JobResult, SweepReport, SweepRunner, SweepSpec};

/// One slice of a sweep's job matrix: shard `index` of `count` owns the
/// global job indices congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the matrix is split into.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/n` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Describes the malformed or out-of-range input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s.split_once('/').ok_or_else(|| format!("shard {s:?} is not i/n"))?;
        let shard = Self {
            index: i.trim().parse().map_err(|e| format!("bad shard index {i:?}: {e}"))?,
            count: n.trim().parse().map_err(|e| format!("bad shard count {n:?}: {e}"))?,
        };
        shard.validate()?;
        Ok(shard)
    }

    /// Checks `index < count` and `count > 0`.
    ///
    /// # Errors
    ///
    /// Describes the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be positive".into());
        }
        if self.index >= self.count {
            return Err(format!("shard index {} out of range 0..{}", self.index, self.count));
        }
        Ok(())
    }

    /// Whether this shard owns global job index `i`.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One shard's slice of a sweep: the complete spec (so any merge input is
/// self-describing) plus the owned job rows tagged with their global
/// indices.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialReport {
    /// The sweep this shard belongs to.
    pub spec: SweepSpec,
    /// Which slice of the matrix this is.
    pub shard: Shard,
    /// `(global job index, result)` rows, ascending by index.
    pub jobs: Vec<(usize, JobResult)>,
}

impl PartialReport {
    /// The JSON value form.
    pub fn to_value(&self) -> Value {
        let job_v = |(i, j): &(usize, JobResult)| {
            let mut fields = vec![("index".into(), Value::Num(*i as f64))];
            match j.to_value() {
                Value::Obj(f) => fields.extend(f),
                _ => unreachable!("JobResult::to_value is an object"),
            }
            Value::Obj(fields)
        };
        Value::Obj(vec![
            ("sweep".into(), Value::Str(self.spec.name.clone())),
            (
                "shard".into(),
                Value::Obj(vec![
                    ("index".into(), Value::Num(self.shard.index as f64)),
                    ("count".into(), Value::Num(self.shard.count as f64)),
                ]),
            ),
            ("spec".into(), self.spec.to_value()),
            ("jobs".into(), Value::Arr(self.jobs.iter().map(job_v).collect())),
        ])
    }

    /// Renders the partial report (the input format of
    /// [`PartialReport::parse`]; round-trips losslessly).
    pub fn render(&self) -> String {
        self.to_value().render()
    }

    /// Parses a partial report previously produced by
    /// [`PartialReport::render`].
    ///
    /// # Errors
    ///
    /// Describes the first syntax, schema or consistency problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let shard_v = v.get("shard").ok_or("missing \"shard\"")?;
        let shard = Shard {
            index: shard_v
                .get("index")
                .and_then(Value::as_usize)
                .ok_or("shard.index must be a usize")?,
            count: shard_v
                .get("count")
                .and_then(Value::as_usize)
                .ok_or("shard.count must be a usize")?,
        };
        shard.validate()?;
        let spec = SweepSpec::from_value(v.get("spec").ok_or("missing \"spec\"")?)?;
        spec.validate()?;
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("missing \"jobs\" array")?
            .iter()
            .map(|j| {
                let index =
                    j.get("index").and_then(Value::as_usize).ok_or("job missing \"index\"")?;
                Ok((index, JobResult::from_value(j)?))
            })
            .collect::<Result<Vec<(usize, JobResult)>, String>>()?;
        let part = Self { spec, shard, jobs };
        part.check_partition()?;
        Ok(part)
    }

    /// Verifies the rows are exactly the indices this shard owns, in
    /// ascending order and in range.
    fn check_partition(&self) -> Result<(), String> {
        let expected: Vec<usize> =
            (0..self.spec.num_jobs()).filter(|&i| self.shard.owns(i)).collect();
        let got: Vec<usize> = self.jobs.iter().map(|(i, _)| *i).collect();
        if got != expected {
            return Err(format!(
                "shard {} of sweep {:?} carries indices {got:?}, expected {expected:?}",
                self.shard, self.spec.name
            ));
        }
        Ok(())
    }

    /// The artifact file name, `BENCH_part_<sweep>_<i>of<n>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_part_{}_{}of{}.json", self.spec.name, self.shard.index, self.shard.count)
    }

    /// Writes the partial under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

impl SweepRunner {
    /// Runs only the jobs `shard` owns and returns the partial report.
    /// Pure per-job seeding makes the slice independent of every other
    /// shard, so shards can run on different hosts.
    ///
    /// # Errors
    ///
    /// Returns the spec's or shard's validation error.
    pub fn run_shard(&self, spec: &SweepSpec, shard: Shard) -> Result<PartialReport, String> {
        spec.validate()?;
        shard.validate()?;
        let owned: Vec<(usize, crate::JobSpec)> =
            Self::jobs(spec).into_iter().enumerate().filter(|(i, _)| shard.owns(*i)).collect();
        let jobs: Vec<crate::JobSpec> = owned.iter().map(|(_, j)| *j).collect();
        let results = self.execute(spec, &jobs);
        Ok(PartialReport {
            spec: spec.clone(),
            shard,
            jobs: owned.iter().map(|(i, _)| *i).zip(results).collect(),
        })
    }
}

/// Merges one partial report per shard back into the full [`SweepReport`].
/// The result is byte-identical to a single-process run of the same spec:
/// rows are scattered into global order and aggregated by the same
/// [`SweepReport::assemble`].
///
/// # Errors
///
/// Describes the first inconsistency: mismatched specs or shard counts,
/// duplicate or missing shards.
pub fn merge(parts: &[PartialReport]) -> Result<SweepReport, String> {
    let first = parts.first().ok_or("merge needs at least one partial report")?;
    let count = first.shard.count;
    if parts.len() != count {
        return Err(format!("sweep {:?} has {count} shards, got {}", first.spec.name, parts.len()));
    }
    let spec_text = first.spec.render();
    let mut seen = vec![false; count];
    for p in parts {
        // Hand-constructed partials can carry an out-of-range index; the
        // Err contract covers that too (never an indexing panic).
        p.shard.validate()?;
        if p.spec.render() != spec_text {
            return Err(format!(
                "shard {} was run from a different spec than shard {}",
                p.shard, first.shard
            ));
        }
        if p.shard.count != count {
            return Err(format!("shard {} disagrees on the shard count {count}", p.shard));
        }
        if std::mem::replace(&mut seen[p.shard.index], true) {
            return Err(format!("duplicate shard {}", p.shard));
        }
        p.check_partition()?;
    }
    // All counts match, indices are unique and partitions internally
    // complete, so every global index is covered exactly once.
    let mut slots: Vec<Option<JobResult>> = vec![None; first.spec.num_jobs()];
    for p in parts {
        for (i, job) in &p.jobs {
            slots[*i] = Some(job.clone());
        }
    }
    let jobs: Vec<JobResult> =
        slots.into_iter().map(|s| s.expect("partition covers every index")).collect();
    Ok(SweepReport::assemble(&first.spec, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn shard_parse_accepts_i_slash_n_only() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse(" 3 / 5 ").unwrap(), Shard { index: 3, count: 5 });
        for bad in ["2/2", "1/0", "x/2", "1", "1/2/3", ""] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn round_robin_partition_is_exhaustive_and_disjoint() {
        for count in 1..=5 {
            let mut owners = [0usize; 17];
            for index in 0..count {
                let shard = Shard { index, count };
                for (i, o) in owners.iter_mut().enumerate() {
                    if shard.owns(i) {
                        *o += 1;
                    }
                }
            }
            assert!(owners.iter().all(|&o| o == 1), "{count} shards must cover each index once");
        }
    }

    #[test]
    fn merge_rejects_inconsistent_partials() {
        let spec = presets::smoke();
        let runner = SweepRunner::new().progress(false);
        let p0 = runner.run_shard(&spec, Shard { index: 0, count: 2 }).unwrap();
        let p1 = runner.run_shard(&spec, Shard { index: 1, count: 2 }).unwrap();
        assert!(merge(&[]).is_err(), "empty merge");
        assert!(
            merge(std::slice::from_ref(&p0)).unwrap_err().contains("2 shards"),
            "missing shard"
        );
        assert!(merge(&[p0.clone(), p0.clone()]).unwrap_err().contains("duplicate"));
        let mut other_spec = p1.clone();
        other_spec.spec.name = "renamed".into();
        assert!(merge(&[p0.clone(), other_spec]).unwrap_err().contains("different spec"));
        // A hand-constructed out-of-range shard must be an Err, not an
        // index-out-of-bounds panic on the seen[] bitmap.
        let mut rogue = p1.clone();
        rogue.shard = Shard { index: 5, count: 2 };
        assert!(merge(&[p0.clone(), rogue]).unwrap_err().contains("out of range"));
        assert!(merge(&[p0, p1]).is_ok());
    }
}

//! Machine-readable benchmark records (`BENCH_*.json`).
//!
//! The CI perf-regression gate compares a freshly produced record against a
//! baseline committed under `ci/bench-baselines/`, so the format must be
//! writable *and* parseable without a JSON dependency (the build runs
//! offline). The schema is deliberately flat: one record per benchmark
//! binary, one entry per measured configuration, numbers only — plus an
//! optional nested `phases` object per entry attributing the wall time to
//! the `comdml-obs` phase spans that produced it, so `bench_gate` can say
//! *which phase* regressed rather than just that the binary did.
//!
//! The generic JSON value model this format parses with — [`Value`] —
//! lives in [`comdml_obs::json`] (the bottom of the dependency graph, so
//! the trace sink can share the same exact-float writer).
//!
//! # Example
//!
//! ```
//! use comdml_bench::{BenchEntry, BenchRecord};
//!
//! let mut rec = BenchRecord::new("fleet_churn", 10_000, 1_000);
//! rec.push(BenchEntry {
//!     mode: "semi_sync".into(),
//!     wall_ms: 1234.5,
//!     events_processed: 42,
//!     peak_agents: 10_100,
//!     sim_total_s: 9.9,
//!     rounds: 1_000,
//!     phases: vec![("fleet.pairing".into(), 321.0), ("fleet.round".into(), 900.5)],
//! });
//! let json = rec.to_json();
//! let back = BenchRecord::parse(&json).unwrap();
//! assert_eq!(back, rec);
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use comdml_obs::Value;

/// One measured configuration (typically an aggregation mode).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Configuration label (e.g. `synchronous`).
    pub mode: String,
    /// Wall-clock milliseconds the configuration took.
    pub wall_ms: f64,
    /// Simulation events executed.
    pub events_processed: u64,
    /// Largest concurrent fleet membership observed.
    pub peak_agents: usize,
    /// Total simulated seconds produced.
    pub sim_total_s: f64,
    /// Rounds simulated in this configuration.
    pub rounds: usize,
    /// Per-phase wall milliseconds (`MetricsSnapshot::phase_totals`),
    /// attributing `wall_ms` to named spans. Empty when the producing bin
    /// ran without observability — the field is then omitted from the
    /// JSON, so pre-phase baselines parse and render unchanged.
    pub phases: Vec<(String, f64)>,
}

/// A benchmark run: identity plus one [`BenchEntry`] per configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (the `BENCH_<name>.json` file stem suffix).
    pub bench: String,
    /// Agents at fleet construction.
    pub agents: usize,
    /// Nominal rounds per configuration.
    pub rounds: usize,
    /// Measured configurations.
    pub entries: Vec<BenchEntry>,
}

impl BenchRecord {
    /// Starts an empty record.
    pub fn new(bench: &str, agents: usize, rounds: usize) -> Self {
        Self { bench: bench.to_string(), agents, rounds, entries: Vec::new() }
    }

    /// Appends one configuration's measurements.
    pub fn push(&mut self, entry: BenchEntry) {
        self.entries.push(entry);
    }

    /// Renders the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"agents\": {},\n", self.agents));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"mode\": \"{}\", ", escape(&e.mode)));
            out.push_str(&format!("\"wall_ms\": {:.3}, ", e.wall_ms));
            out.push_str(&format!("\"events_processed\": {}, ", e.events_processed));
            out.push_str(&format!("\"peak_agents\": {}, ", e.peak_agents));
            out.push_str(&format!("\"sim_total_s\": {:.3}, ", e.sim_total_s));
            out.push_str(&format!("\"rounds\": {}", e.rounds));
            if !e.phases.is_empty() {
                out.push_str(", \"phases\": {");
                for (j, (name, ms)) in e.phases.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {ms:.3}", escape(name)));
                }
                out.push('}');
            }
            out.push_str(if i + 1 < self.entries.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a record previously produced by [`BenchRecord::to_json`]
    /// (any JSON formatting of the same document is accepted — the parser
    /// is the full [`Value`] model, which is what lets entries nest a
    /// `phases` object). Entries without `phases` parse as empty, so
    /// pre-phase baselines stay readable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = Value::parse(s).map_err(|e| format!("bench record: {e}"))?;
        let bench = v.get("bench").and_then(Value::as_str).ok_or("missing \"bench\"")?.to_string();
        let agents = v.get("agents").and_then(Value::as_usize).ok_or("missing \"agents\"")?;
        let rounds = v.get("rounds").and_then(Value::as_usize).ok_or("missing \"rounds\"")?;
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("missing \"entries\"")?
            .iter()
            .map(parse_entry)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { bench, agents, rounds, entries })
    }

    /// Writes `<dir>/BENCH_<bench>.json`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes to the workspace default, `target/experiments/`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        self.write_to(Path::new("target").join("experiments"))
    }
}

fn parse_entry(e: &Value) -> Result<BenchEntry, String> {
    let num =
        |k: &str| e.get(k).and_then(Value::as_f64).ok_or_else(|| format!("entry missing {k:?}"));
    let phases = match e.get("phases") {
        None => Vec::new(),
        Some(p) => p
            .as_object()
            .ok_or("entry \"phases\" must be an object")?
            .iter()
            .map(|(name, ms)| {
                ms.as_f64()
                    .map(|ms| (name.clone(), ms))
                    .ok_or_else(|| format!("phase {name:?} must be a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(BenchEntry {
        mode: e.get("mode").and_then(Value::as_str).ok_or("entry missing \"mode\"")?.to_string(),
        wall_ms: num("wall_ms")?,
        events_processed: num("events_processed")? as u64,
        peak_agents: num("peak_agents")? as usize,
        sim_total_s: num("sim_total_s")?,
        rounds: num("rounds")? as usize,
        phases,
    })
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        let mut r = BenchRecord::new("demo", 100, 10);
        r.push(BenchEntry {
            mode: "synchronous".into(),
            wall_ms: 12.5,
            events_processed: 999,
            peak_agents: 105,
            sim_total_s: 345.678,
            rounds: 10,
            phases: Vec::new(),
        });
        r.push(BenchEntry {
            mode: "asynchronous".into(),
            wall_ms: 7.25,
            events_processed: 123,
            peak_agents: 101,
            sim_total_s: 2.0,
            rounds: 10,
            phases: Vec::new(),
        });
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        assert_eq!(BenchRecord::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn phases_round_trip_and_stay_out_of_phaseless_output() {
        let mut r = BenchRecord::new("phased", 10, 2);
        r.push(BenchEntry {
            mode: "semi_sync".into(),
            wall_ms: 100.0,
            events_processed: 5,
            peak_agents: 10,
            sim_total_s: 1.5,
            rounds: 2,
            phases: vec![("fleet.pairing".into(), 12.25), ("fleet.round".into(), 80.5)],
        });
        let json = r.to_json();
        assert!(json.contains("\"phases\": {\"fleet.pairing\": 12.250, \"fleet.round\": 80.500}"));
        assert_eq!(BenchRecord::parse(&json).unwrap(), r);
        // Phaseless entries keep the exact pre-phase line format.
        let plain = sample().to_json();
        assert!(!plain.contains("phases"));
    }

    #[test]
    fn parse_tolerates_whitespace_variations() {
        let loose = "{ \"bench\" :\"x\", \"agents\": 5, \"rounds\":2,\n\
                     \"entries\": [ { \"mode\":\"m\", \"wall_ms\": 1.5,\n\
                     \"events_processed\": 7, \"peak_agents\": 5,\n\
                     \"sim_total_s\": 0.25, \"rounds\": 2 } ] }";
        let r = BenchRecord::parse(loose).unwrap();
        assert_eq!(r.bench, "x");
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].events_processed, 7);
        assert_eq!(r.entries[0].wall_ms, 1.5);
        assert!(r.entries[0].phases.is_empty());
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(BenchRecord::parse("{}").is_err());
        assert!(BenchRecord::parse("{\"bench\": \"x\"}").is_err());
    }

    #[test]
    fn writes_to_disk() {
        let r = sample();
        let dir = std::env::temp_dir().join("comdml_bench_json_test");
        let path = r.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_demo.json"));
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(BenchRecord::parse(&content).unwrap(), r);
    }

    #[test]
    fn empty_entries_round_trip() {
        let r = BenchRecord::new("empty", 0, 0);
        assert_eq!(BenchRecord::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn names_with_quotes_and_backslashes_round_trip() {
        let mut r = BenchRecord::new("we\"ird\\name", 1, 1);
        r.push(BenchEntry {
            mode: "mo\"de\\x".into(),
            wall_ms: 1.0,
            events_processed: 1,
            peak_agents: 1,
            sim_total_s: 1.0,
            rounds: 1,
            phases: Vec::new(),
        });
        assert_eq!(BenchRecord::parse(&r.to_json()).unwrap(), r);
    }
}

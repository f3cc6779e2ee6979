//! Validates a `COMDML_TRACE` JSONL file against the trace schema.
//!
//! ```sh
//! COMDML_TRACE=trace.jsonl cargo run --release --bin exp_sweep -- ci/specs/smoke.json
//! cargo run --release --bin trace_check -- trace.jsonl
//! ```
//!
//! Every line must parse as a JSON object carrying the envelope — a
//! string `t` (event kind) and a non-negative integer `seq` that strictly
//! increases from line to line — and the kinds this build knows must carry
//! their documented fields:
//!
//! * `span`  — `name` (string), `ms` (number ≥ 0)
//! * `log`   — `level` (error|warn|info|debug), `target`, `msg` (strings)
//! * `round` — `round` (integer), `round_s` (number)
//! * `job`   — `scenario`, `method` (strings), `seed` (integer)
//!
//! Unknown kinds pass on the envelope alone (the trace schema is
//! append-only, like the wire protocol). Exits non-zero naming the first
//! offending line.

use std::process::ExitCode;

use comdml_obs::Value;

/// Checks one line and returns its `seq`.
fn check_line(line: &str) -> Result<u64, String> {
    let v = Value::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("not a JSON object".into());
    }
    let kind = v.get("t").and_then(Value::as_str).ok_or("missing string field \"t\"")?;
    let seq = v.get("seq").and_then(Value::as_u64).ok_or("missing non-negative integer \"seq\"")?;
    let need_str = |k: &str| {
        v.get(k).and_then(Value::as_str).map(|_| ()).ok_or(format!("{kind}: missing string {k:?}"))
    };
    let need_num = |k: &str| {
        v.get(k).and_then(Value::as_f64).map(|_| ()).ok_or(format!("{kind}: missing number {k:?}"))
    };
    match kind {
        "span" => {
            need_str("name")?;
            let ms = v.get("ms").and_then(Value::as_f64).ok_or("span: missing number \"ms\"")?;
            if ms.is_nan() || ms < 0.0 {
                return Err(format!("span: negative or NaN ms {ms}"));
            }
        }
        "log" => {
            let level =
                v.get("level").and_then(Value::as_str).ok_or("log: missing string \"level\"")?;
            if !matches!(level, "error" | "warn" | "info" | "debug") {
                return Err(format!("log: unknown level {level:?}"));
            }
            need_str("target")?;
            need_str("msg")?;
        }
        "round" => {
            v.get("round").and_then(Value::as_u64).ok_or("round: missing integer \"round\"")?;
            need_num("round_s")?;
        }
        "job" => {
            need_str("scenario")?;
            need_str("method")?;
            v.get("seed").and_then(Value::as_u64).ok_or("job: missing integer \"seed\"")?;
        }
        _ => {} // append-only schema: unknown kinds pass on the envelope
    }
    Ok(seq)
}

/// Checks every line of a trace and returns the line count; the error
/// names the first offending line.
fn check_trace(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    let mut last_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let seq = check_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if let Some(last) = last_seq.filter(|&last| seq <= last) {
            return Err(format!("line {}: seq {seq} does not increase past {last}", i + 1));
        }
        last_seq = Some(seq);
        n += 1;
    }
    Ok(n)
}

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let path = args.next().ok_or("usage: trace_check <TRACE_*.jsonl>")?;
    if args.next().is_some() {
        return Err("usage: trace_check <TRACE_*.jsonl>".into());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let n = check_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    if n == 0 {
        return Err(format!("{path}: no trace lines (was tracing actually enabled?)"));
    }
    Ok(format!("ok: {n} trace lines in {path}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_trace_passes() {
        let text = "{\"t\":\"x\",\"seq\":0}\n{\"t\":\"x\",\"seq\":1}\n";
        assert_eq!(check_trace(text), Ok(2));
    }

    #[test]
    fn out_of_order_seq_names_the_line() {
        let text = "{\"t\":\"x\",\"seq\":1}\n{\"t\":\"x\",\"seq\":0}\n";
        let err = check_trace(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("seq 0"), "{err}");
    }

    #[test]
    fn repeated_seq_is_rejected() {
        let text = "{\"t\":\"x\",\"seq\":3}\n{\"t\":\"x\",\"seq\":3}\n";
        assert!(check_trace(text).unwrap_err().starts_with("line 2:"));
    }
}

//! The generic driver behind every registry scenario: parse the uniform
//! flag set, run the scenario, print its headline, validate and write
//! its artifacts, and enforce `--check`.
//!
//! The registry ([`workload::ScenarioRegistry`]) stays a pure scenario
//! table; everything filesystem- and JSON-shaped lives here. Artifacts
//! follow the repo-wide convention: `results/<name>.txt` for each text
//! report, `results/<base>.json` (Chrome trace),
//! `results/<base>_metrics.json` (metrics dump), and — for the cluster
//! scenario — `results/<base>_dump.txt` (the deterministic state dump CI
//! byte-diffs) plus `results/<base>_result.json` (the structured result).
//! Both JSON artifacts are round-tripped through the crate's parser and
//! checked for the scenario's markers and sections before anything
//! touches disk.

use workload::{Outcome, ScenarioArgs, ScenarioSpec};

use crate::json::{self, Value};

pub fn run(spec: &ScenarioSpec, argv: &[String]) -> Result<(), String> {
    let mut args = ScenarioArgs::default();
    let mut check = false;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reduced" => args.reduced = true,
            "--check" => check = true,
            "--out" => out = Some(next_value(&mut it, "--out")?),
            "--ncpus" => args.ncpus = Some(next_parsed(&mut it, "--ncpus")?),
            "--seed" => args.seed = Some(next_parsed(&mut it, "--seed")?),
            "--clients" => args.clients = Some(next_parsed(&mut it, "--clients")?),
            "--nodes" => args.nodes = Some(next_parsed(&mut it, "--nodes")?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let base = out.unwrap_or_else(|| match spec.default_out {
        Some(default_out) => default_out(&args),
        None => spec.name.to_string(),
    });

    let outcome = (spec.run)(&args)?;
    for line in &outcome.headline {
        println!("{line}");
    }

    if let Some(session) = &outcome.session {
        write_session_artifacts(session, &base, spec.trace_markers, spec.metrics_sections)?;
    }
    if !outcome.cluster_sessions.is_empty() {
        write_cluster_artifacts(spec, &outcome, &base)?;
    }
    for report in &outcome.reports {
        let text = report.render();
        println!("{text}");
        write(&format!("results/{}.txt", report.name), &text)?;
    }

    if check && !outcome.checks.is_empty() {
        if let Some(failed) = outcome.checks.iter().find(|c| !c.ok) {
            return Err(format!("{} check failed: {}", failed.label, failed.detail));
        }
        println!("check ok: {}", outcome.check_ok);
    }
    Ok(())
}

fn next_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn next_parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    next_value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} requires a number"))
}

/// Round-trips a Chrome trace through the JSON parser, requires a
/// non-empty `traceEvents` array, and checks the scenario's marker
/// substrings. Returns the event count.
fn validate_chrome(chrome: &str, markers: &[&str]) -> Result<usize, String> {
    let parsed = json::parse(chrome).map_err(|e| format!("chrome trace not valid JSON: {e}"))?;
    let n_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .map(|a| a.len())
        .ok_or("chrome trace missing traceEvents array")?;
    if n_events == 0 {
        return Err("chrome trace is empty".into());
    }
    for m in markers {
        if !chrome.contains(m) {
            return Err(format!("chrome trace missing expected marker {m:?}"));
        }
    }
    Ok(n_events)
}

/// Round-trips a metrics dump through the JSON parser and requires each
/// named top-level section to be a non-empty array or object.
fn validate_metrics(metrics: &str, sections: &[&str]) -> Result<(), String> {
    let parsed = json::parse(metrics).map_err(|e| format!("metrics dump not valid JSON: {e}"))?;
    for s in sections {
        let filled = match parsed.get(s) {
            Some(Value::Array(v)) => !v.is_empty(),
            Some(Value::Object(v)) => !v.is_empty(),
            _ => false,
        };
        if !filled {
            return Err(format!("metrics dump lacks a non-empty {s} section"));
        }
    }
    Ok(())
}

/// Writes one artifact under `results/`, creating the directory if needed.
fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Validates a single-kernel session's Chrome trace and metrics dump and
/// writes them as `results/<base>.json` and `results/<base>_metrics.json`.
pub(super) fn write_session_artifacts(
    session: &rctrace::TraceSession,
    base: &str,
    trace_markers: &[&str],
    metrics_sections: &[&str],
) -> Result<(), String> {
    let chrome = rctrace::chrome_trace_json(session);
    let metrics = rctrace::metrics_json(session);
    let n_events = validate_chrome(&chrome, trace_markers)?;
    validate_metrics(&metrics, metrics_sections)?;

    let trace_path = format!("results/{base}.json");
    let metrics_path = format!("results/{base}_metrics.json");
    write(&trace_path, &chrome)?;
    write(&metrics_path, &metrics)?;
    println!(
        "{trace_path}: {n_events} events ({} emitted, {} dropped); {metrics_path} written",
        session.trace.emitted, session.trace.dropped
    );
    Ok(())
}

fn write_cluster_artifacts(
    spec: &ScenarioSpec,
    outcome: &Outcome,
    base: &str,
) -> Result<(), String> {
    let chrome = rctrace::cluster_chrome_trace_json(&outcome.cluster_sessions);
    let n_events = validate_chrome(&chrome, spec.trace_markers)?;

    let trace_path = format!("results/{base}.json");
    write(&trace_path, &chrome)?;
    println!(
        "{trace_path}: {n_events} events across {} node tracks",
        outcome.cluster_sessions.len()
    );

    if let Some(cluster) = &outcome.cluster {
        let dump_path = format!("results/{base}_dump.txt");
        write(&dump_path, &cluster.dump)?;
        let result_json = json::to_string(cluster)
            .map_err(|e| format!("cluster result not serializable: {e}"))?;
        json::parse(&result_json).map_err(|e| format!("cluster result not valid JSON: {e}"))?;
        json::emit(&format!("{base}_result"), cluster);
        println!("{dump_path}: deterministic state dump; results/{base}_result.json written");
    }
    Ok(())
}

//! `rcbench perf`: simulator self-benchmark — how fast does the
//! simulator itself run?
//!
//! Executes a named scenario untraced, times it on the wall clock, and
//! reports kernel events per wall-second, the virtual-time/wall-time
//! ratio, and peak RSS. The result is written as `BENCH_<scenario>.json`
//! in the working directory; the checked-in copy at the repo root is the
//! baseline future PRs compare against.
//!
//! ```sh
//! cargo run --release -p rcbench -- perf
//! cargo run --release -p rcbench -- perf baseline --floor 50000
//! cargo run --release -p rcbench -- perf smp --reduced
//! cargo run --release -p rcbench -- perf --check
//! ```
//!
//! Scenarios: `baseline`, `smp`, `qos`, `mem`, `span` — one
//! `BENCH_<scenario>.json` each, so the perf trajectory covers every
//! subsystem (scheduler, SMP migration, link QoS, memory reclaim, span
//! accounting), not just the HTTP fast path.
//!
//! `--floor N` fails below N events per wall-second — the CI regression
//! tripwire. `--reduced` shrinks the run for smoke tests. `--check` is
//! the engine-rewrite gate: best-of-3 reduced baseline runs must beat 2x
//! the seed engine's checked-in rate, and the emitted artifact must
//! carry a positive `sim_wall_ratio`. Wall-clock numbers are inherently
//! noisy; plain floors should sit well below (~5-10x) the typical
//! release-build rate, and `--check` takes the best of repeated runs so
//! one scheduling hiccup cannot fail the gate.

use std::time::Instant;

use workload::scenarios::{
    run_baseline, run_memhog_tenants, run_qos_tenants, run_smp_tenants, run_span_tenants,
    BaselineParams, MemhogTenantsParams, QosTenantsParams, SmpTenantsParams, SpanTenantsParams,
};

use crate::json;

/// Events-per-wall-second of the seed engine (BinaryHeap queue,
/// BTreeMap kernel state) on the reference box, from the checked-in
/// `BENCH_baseline.json` at the time of the engine rewrite.
const SEED_EVENTS_PER_SEC: f64 = 1.51e6;

/// `--check` floor: the rewritten engine must clear 2x the seed rate.
/// Deliberately conservative (the rewrite targets 5x) so slower or
/// noisier CI machines don't flake the gate.
const CHECK_FLOOR: f64 = 2.0 * SEED_EVENTS_PER_SEC;

/// Best-of-N runs under `--check`, so a single scheduling hiccup on a
/// shared CI box cannot fail the gate.
const CHECK_RUNS: usize = 3;

#[derive(serde::Serialize)]
struct BenchResult {
    scenario: String,
    sim_events: u64,
    sim_secs: f64,
    wall_secs: f64,
    events_per_sec: f64,
    sim_wall_ratio: f64,
    peak_rss_kib: u64,
    requests_completed: u64,
}

/// Peak resident set size in KiB, from `VmHWM` in `/proc/self/status`
/// (0 where procfs is unavailable).
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Runs one scenario and returns `(sim_events, sim_secs, completed)`.
fn run_scenario(scenario: &str, reduced: bool) -> Result<(u64, f64, u64), String> {
    Ok(match scenario {
        "baseline" => {
            let secs = if reduced { 3 } else { 10 };
            let r = run_baseline(BaselineParams {
                clients: if reduced { 12 } else { 24 },
                secs,
                ..BaselineParams::default()
            });
            (r.sim_events, secs as f64, r.completed)
        }
        "smp" => {
            let secs = if reduced { 4 } else { 10 };
            let r = run_smp_tenants(SmpTenantsParams {
                clients_per_tenant: if reduced { 12 } else { 24 },
                secs,
                ..SmpTenantsParams::default()
            });
            let completed = (r.total_throughput * sim_window(secs)) as u64;
            (r.sim_events, secs as f64, completed)
        }
        "qos" => {
            let secs = if reduced { 4 } else { 8 };
            let r = run_qos_tenants(QosTenantsParams {
                blast_clients: if reduced { 9 } else { 18 },
                secs,
                ..QosTenantsParams::default()
            });
            let completed = (r.throughputs.iter().sum::<f64>() * sim_window(secs)) as u64;
            (r.sim_events, secs as f64, completed)
        }
        "mem" => {
            let secs = if reduced { 4 } else { 10 };
            let r = run_memhog_tenants(MemhogTenantsParams {
                g_clients: if reduced { 4 } else { 8 },
                secs,
                ..MemhogTenantsParams::default()
            });
            let window = sim_window(secs);
            let completed = ((r.solo.throughput + r.shared.throughput) * window) as u64;
            // Solo + shared runs: twice the virtual time.
            (r.sim_events, 2.0 * secs as f64, completed)
        }
        "span" | "span_tenants" => {
            let secs = if reduced { 4 } else { 8 };
            let r = run_span_tenants(SpanTenantsParams {
                clients: if reduced { (4, 8) } else { (6, 12) },
                secs,
                ..SpanTenantsParams::default()
            });
            let completed = (r.throughputs.iter().sum::<f64>() * sim_window(secs)) as u64;
            (r.sim_events, secs as f64, completed)
        }
        other => {
            return Err(format!(
                "unknown scenario '{other}' (expected baseline | smp | qos | mem | span)"
            ));
        }
    })
}

fn run_once(scenario: &str, reduced: bool, floor: Option<f64>) -> Result<BenchResult, String> {
    let start = Instant::now();
    let (sim_events, sim_secs, completed) = run_scenario(scenario, reduced)?;
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);

    let result = BenchResult {
        scenario: scenario.to_string(),
        sim_events,
        sim_secs,
        wall_secs,
        events_per_sec: sim_events as f64 / wall_secs,
        sim_wall_ratio: sim_secs / wall_secs,
        peak_rss_kib: peak_rss_kib(),
        requests_completed: completed,
    };
    println!(
        "perf {scenario}: {} events in {:.2} s wall -> {:.0} events/s, \
         {:.1}x realtime, peak RSS {} KiB",
        result.sim_events,
        result.wall_secs,
        result.events_per_sec,
        result.sim_wall_ratio,
        result.peak_rss_kib,
    );

    write_artifact(&result)?;

    if let Some(floor) = floor {
        if result.events_per_sec < floor {
            return Err(format!(
                "perf floor failed: {:.0} events/s < {floor:.0}",
                result.events_per_sec
            ));
        }
        println!(
            "floor ok: {:.0} >= {floor:.0} events/s",
            result.events_per_sec
        );
    }
    Ok(result)
}

/// Serializes `result` to `BENCH_<scenario>.json`, re-parsing the output
/// to guarantee the artifact is well-formed.
fn write_artifact(result: &BenchResult) -> Result<(), String> {
    let out = json::to_string(result).map_err(|e| e.to_string())?;
    json::parse(&out).map_err(|e| format!("bench result not valid JSON: {e}"))?;
    let path = format!("BENCH_{}.json", result.scenario);
    std::fs::write(&path, format!("{out}\n")).map_err(|e| e.to_string())?;
    println!("{path} written");
    Ok(())
}

/// The engine-rewrite gate: best of [`CHECK_RUNS`] reduced baseline runs
/// must clear [`CHECK_FLOOR`], and the recorded artifact must carry a
/// positive `sim_wall_ratio`.
fn run_check() -> Result<(), String> {
    let mut best: Option<BenchResult> = None;
    for i in 0..CHECK_RUNS {
        let r = run_once("baseline", true, None)?;
        println!(
            "check run {}/{}: {:.0} events/s",
            i + 1,
            CHECK_RUNS,
            r.events_per_sec
        );
        if best
            .as_ref()
            .is_none_or(|b| r.events_per_sec > b.events_per_sec)
        {
            best = Some(r);
        }
    }
    let best = best.expect("CHECK_RUNS > 0");
    // Re-record the artifact from the best run so the checked-in
    // trajectory reflects the machine's capability, not its worst tick.
    write_artifact(&best)?;
    if best.sim_wall_ratio <= 0.0 || best.sim_wall_ratio.is_nan() {
        return Err(format!(
            "check failed: sim_wall_ratio {} not positive",
            best.sim_wall_ratio
        ));
    }
    if best.events_per_sec < CHECK_FLOOR {
        return Err(format!(
            "engine perf check failed: best of {CHECK_RUNS} runs {:.0} events/s \
             < {CHECK_FLOOR:.0} (2x seed engine at {SEED_EVENTS_PER_SEC:.0})",
            best.events_per_sec
        ));
    }
    println!(
        "check ok: {:.0} >= {CHECK_FLOOR:.0} events/s (2x seed engine)",
        best.events_per_sec
    );
    Ok(())
}

/// Measurement-window length the scenarios use (run minus warmup), for
/// converting windowed throughput back to a request count.
fn sim_window(secs: u64) -> f64 {
    (secs as f64 - 2.0).max(secs as f64 * 0.75)
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut scenario = None;
    let mut reduced = false;
    let mut floor = None;
    let mut check = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reduced" => reduced = true,
            "--check" => check = true,
            "--floor" => match it.next().and_then(|v| v.parse().ok()) {
                Some(f) => floor = Some(f),
                None => return Err("--floor requires a number".into()),
            },
            other if scenario.is_none() => scenario = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if check {
        run_check()
    } else {
        let scenario = scenario.unwrap_or_else(|| "baseline".to_string());
        run_once(&scenario, reduced, floor).map(|_| ())
    }
}

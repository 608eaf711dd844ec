//! One benchmark process: runs episodes of one workload in one mode and
//! prints a single JSON object with the raw measurements. `run.py` starts
//! one process per pass, turns the raw numbers into metrics and applies
//! the correctness gate.
//!
//! ```text
//! perfbench <workload> --mode <mode> --seed <n> --seconds <s> [--arm <arm>]
//! ```
//!
//! Modes:
//! - `measure`: untraced episodes, back to back, for `--seconds`, cycling
//!   through eight input sets drawn from the seed (each at least twice).
//!   Reports set-up times, every quantum's wall time, the window walls and
//!   the simulated results of each input set.
//! - `rss`: one untraced episode, then the process's peak RSS.
//! - `single`, `wrapped`, `counts`: alternating pairs of a plain stepped
//!   episode and a variant — the window driven by one `run` call, the
//!   window timed by the seam wrappers, or the episode run with rctrace on
//!   and its trace kinds tallied.
//! - `ladder`: untraced episodes of one attribution-ladder arm.

mod timing;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use serde::Serialize;

use simcore::trace::TraceEventKind;
use simcore::Nanos;

use timing::Ledger;
use workloads::{Bench, Options, Report};

/// Ring capacity of the counts pass. The ring is drained after every
/// quantum, so it only has to hold one quantum's events.
const RING: usize = 1 << 22;

/// Input sets a `measure` run cycles through. Each is generated from the
/// run's seed and its index, and each repeats at least twice so the run
/// can check that one input set gives one simulated result.
const INPUTS: u64 = 8;

/// The seed of input set `j` of a run seeded with `seed`.
fn input_seed(seed: u64, j: u64) -> u64 {
    (seed << 8) | j
}

/// How the measured window is driven.
#[derive(Clone, Copy)]
enum Drive {
    /// Fixed quanta, each timed.
    Stepped,
    /// As few calls as the workload allows.
    Single,
}

/// Trace-kind tallies of the counts pass.
#[derive(Default)]
struct Tally {
    picks: u64,
    charges: u64,
    disk_requests: u64,
    dropped: u64,
    /// Wall time spent tallying in the measured window (benchmark code,
    /// not rctrace).
    wall_s: f64,
}

impl Tally {
    fn drain(&mut self) {
        let t = Instant::now();
        let buf = simcore::trace::stop();
        for e in &buf.events {
            match e.kind {
                TraceEventKind::SchedPick { .. } => self.picks += 1,
                TraceEventKind::Charge { .. } => self.charges += 1,
                TraceEventKind::DiskQueue { .. } => self.disk_requests += 1,
                _ => {}
            }
        }
        self.dropped += buf.dropped;
        simcore::trace::start(RING);
        self.wall_s += t.elapsed().as_secs_f64();
    }
}

/// One finished episode.
struct Episode {
    setup_s: f64,
    window_wall_s: f64,
    /// Sum of the timed quanta (stepped drive only).
    step_wall_s: f64,
    quantum_ms: Vec<f64>,
    report: Report,
    fingerprint: String,
    window_sim_s: f64,
}

fn run_episode(
    workload: &str,
    opts: &Options,
    drive: Drive,
    mut tally: Option<&mut Tally>,
) -> Episode {
    if tally.is_some() {
        rctrace::start(rctrace::TraceConfig {
            ring_capacity: RING,
            ..rctrace::TraceConfig::default()
        });
    }
    let t0 = Instant::now();
    let mut b: Box<dyn Bench> = workloads::build(workload, opts);
    let q = b.quantum();
    let mut h = Nanos::ZERO;
    while h < b.warmup_end() {
        h = (h + q).min(b.warmup_end());
        b.advance(h);
        if let Some(t) = tally.as_deref_mut() {
            t.drain();
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    b.start_window();
    if let Some(l) = &opts.ledger {
        l.reset();
    }
    // Only the window's tallying is subtracted from the window's wall.
    if let Some(t) = tally.as_deref_mut() {
        t.wall_s = 0.0;
    }
    let mut quantum_ms = Vec::new();
    let tw = Instant::now();
    match drive {
        Drive::Stepped => {
            while h < b.end() {
                h = (h + q).min(b.end());
                let t = Instant::now();
                b.advance(h);
                quantum_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(t) = tally.as_deref_mut() {
                    t.drain();
                }
            }
        }
        Drive::Single => b.run_to(b.end()),
    }
    let window_wall_s = tw.elapsed().as_secs_f64();
    let window_sim_s = (b.end() - b.warmup_end()).as_secs_f64();
    let report = b.report();
    drop(b);
    if tally.is_some() {
        let _ = rctrace::finish();
    }
    Episode {
        setup_s,
        window_wall_s,
        step_wall_s: quantum_ms.iter().sum::<f64>() * 1e-3,
        quantum_ms,
        fingerprint: fingerprint(&report),
        report,
        window_sim_s,
    }
}

/// Every simulated result and count of an episode, to full precision:
/// two episodes at one seed must print the same string.
fn fingerprint(r: &Report) -> String {
    let mut s = format!(
        "goodput={:?} p99={:?} completed={} abandoned={} window_events={}",
        r.goodput_rps, r.latency_p99_ms, r.completed, r.abandoned, r.window_events
    );
    for (k, v) in &r.counts {
        let _ = write!(s, " {k}={v:?}");
    }
    s
}

/// Peak resident set of this process, in KiB (`VmHWM`).
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// What every mode reports about its episodes: each one's fingerprint,
/// every gate violation tagged with its episode, and the first episode's
/// simulated results.
#[derive(Serialize)]
struct Outcome {
    fingerprints: Vec<String>,
    violations: Vec<String>,
    goodput_rps: f64,
    latency_p99_ms: f64,
    failed_frac: f64,
    window_events: u64,
    window_sim_s: f64,
    counts: BTreeMap<String, f64>,
    fingerprint: String,
}

impl Outcome {
    fn of(eps: &[Episode]) -> Self {
        let violations = eps
            .iter()
            .enumerate()
            .flat_map(|(i, e)| {
                e.report
                    .violations
                    .iter()
                    .map(move |v| format!("episode {i}: {v}"))
            })
            .collect();
        let e = &eps[0];
        let r = &e.report;
        Outcome {
            fingerprints: eps.iter().map(|e| e.fingerprint.clone()).collect(),
            violations,
            goodput_rps: r.goodput_rps,
            latency_p99_ms: r.latency_p99_ms,
            failed_frac: r.failed_frac(),
            window_events: r.window_events,
            window_sim_s: e.window_sim_s,
            counts: r.counts.clone(),
            fingerprint: e.fingerprint.clone(),
        }
    }
}

/// One number per item.
fn col<T, V>(items: &[T], f: impl Fn(&T) -> V) -> Vec<V> {
    items.iter().map(f).collect()
}

/// `measure`: per episode, its input set, set-up time, window wall and
/// every quantum's wall; per input set, its simulated results.
#[derive(Serialize)]
struct Measure {
    inputs: Vec<u64>,
    input_goodput_rps: Vec<f64>,
    input_latency_p99_ms: Vec<f64>,
    input_completed: Vec<u64>,
    input_abandoned: Vec<u64>,
    setup_s: Vec<f64>,
    window_wall_s: Vec<f64>,
    quantum_ms: Vec<Vec<f64>>,
    outcome: Outcome,
}

/// `rss`: the process's peak resident set after one episode.
#[derive(Serialize)]
struct Rss {
    vm_hwm_kib: u64,
    outcome: Outcome,
}

/// `single`, `wrapped`, `counts`: the plain episodes' walls, the
/// variants' walls, and whatever the variant measured (ledgers for
/// `wrapped`, trace tallies for `counts`; empty otherwise).
#[derive(Serialize)]
struct Pairs {
    plain_window_wall_s: Vec<f64>,
    plain_step_wall_s: Vec<f64>,
    window_wall_s: Vec<f64>,
    world_s: Vec<f64>,
    world_calls: Vec<u64>,
    upcall_s: Vec<f64>,
    upcall_calls: Vec<u64>,
    step_s: Vec<f64>,
    rebalance_s: Vec<f64>,
    tick_s: Vec<f64>,
    picks: Vec<u64>,
    charges: Vec<u64>,
    disk_requests: Vec<u64>,
    dropped: Vec<u64>,
    tally_s: Vec<f64>,
    outcome: Outcome,
}

/// `ladder`: the arm's window walls.
#[derive(Serialize)]
struct Ladder {
    window_wall_s: Vec<f64>,
    outcome: Outcome,
}

/// Prints a mode's result as the process's one line of JSON.
fn emit<T: Serialize>(out: &T) {
    println!(
        "{}",
        rcbench::json::to_string(out).expect("results serialize to JSON")
    );
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

struct Args {
    workload: String,
    mode: String,
    seed: u64,
    seconds: f64,
    arm: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let mut a = Args {
        workload,
        mode: "measure".to_string(),
        seed: 1,
        seconds: 10.0,
        arm: None,
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--mode" => a.mode = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?,
            "--arm" => a.arm = Some(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(arm) = &a.arm {
        if !workloads::ladder_arms(&a.workload).contains(&arm.as_str()) {
            return Err(format!("{} has no ladder arm {arm}", a.workload));
        }
    }
    Ok(a)
}

fn plain(a: &Args) -> Options {
    Options {
        seed: input_seed(a.seed, 0),
        ledger: None,
        arm: None,
    }
}

/// Untraced episodes back to back for `seconds`, cycling through the
/// run's input sets, each at least twice.
fn measure(a: &Args) {
    let start = Instant::now();
    let mut eps = Vec::new();
    while eps.len() < 2 * INPUTS as usize
        || (start.elapsed().as_secs_f64() < a.seconds && eps.len() < 5000)
    {
        let opts = Options {
            seed: input_seed(a.seed, eps.len() as u64 % INPUTS),
            ..plain(a)
        };
        eps.push(run_episode(&a.workload, &opts, Drive::Stepped, None));
    }
    // One simulated result per input set: its first episode's.
    let firsts = &eps[..INPUTS as usize];
    emit(&Measure {
        inputs: (0..eps.len() as u64).map(|i| i % INPUTS).collect(),
        input_goodput_rps: col(firsts, |e| e.report.goodput_rps),
        input_latency_p99_ms: col(firsts, |e| e.report.latency_p99_ms),
        input_completed: col(firsts, |e| e.report.completed),
        input_abandoned: col(firsts, |e| e.report.abandoned),
        setup_s: col(&eps, |e| e.setup_s),
        window_wall_s: col(&eps, |e| e.window_wall_s),
        quantum_ms: col(&eps, |e| e.quantum_ms.clone()),
        outcome: Outcome::of(&eps),
    });
}

/// One untraced episode of input set 0, then this process's peak RSS: the
/// memory the workload needs, apart from how many episodes a run fits.
fn rss(a: &Args) {
    let eps = [run_episode(&a.workload, &plain(a), Drive::Stepped, None)];
    emit(&Rss {
        vm_hwm_kib: vm_hwm_kib(),
        outcome: Outcome::of(&eps),
    });
}

/// Alternating pairs of a plain stepped episode and a variant, for
/// `seconds`, at least two pairs.
fn pairs(a: &Args) {
    let start = Instant::now();
    let mut plain_eps = Vec::new();
    let mut var_eps = Vec::new();
    let mut ledgers: Vec<Rc<Ledger>> = Vec::new();
    let mut tallies: Vec<Tally> = Vec::new();
    while var_eps.len() < 2 || (start.elapsed().as_secs_f64() < a.seconds && var_eps.len() < 100) {
        plain_eps.push(run_episode(&a.workload, &plain(a), Drive::Stepped, None));
        let e = match a.mode.as_str() {
            "single" => run_episode(&a.workload, &plain(a), Drive::Single, None),
            "wrapped" => {
                let ledger = Rc::new(Ledger::default());
                let opts = Options {
                    ledger: Some(Rc::clone(&ledger)),
                    ..plain(a)
                };
                ledgers.push(ledger);
                run_episode(&a.workload, &opts, Drive::Stepped, None)
            }
            _ => {
                let mut t = Tally::default();
                let e = run_episode(&a.workload, &plain(a), Drive::Stepped, Some(&mut t));
                tallies.push(t);
                e
            }
        };
        var_eps.push(e);
    }
    let n = plain_eps.len();
    let window_wall_s = col(&var_eps, |e| e.window_wall_s);
    // Wrappers and tracing only observe: their episodes must match the
    // plain ones exactly. A single `run` call is exempt, since a horizon
    // can land mid-slice (the step-transparency gap ROADMAP item 3 names).
    if a.mode != "single" {
        plain_eps.extend(var_eps);
    }
    emit(&Pairs {
        plain_window_wall_s: col(&plain_eps[..n], |e| e.window_wall_s),
        plain_step_wall_s: col(&plain_eps[..n], |e| e.step_wall_s),
        window_wall_s,
        world_s: col(&ledgers, |l| l.world.secs()),
        world_calls: col(&ledgers, |l| l.world.calls()),
        upcall_s: col(&ledgers, |l| l.upcall.secs()),
        upcall_calls: col(&ledgers, |l| l.upcall.calls()),
        step_s: col(&ledgers, |l| l.step.secs()),
        rebalance_s: col(&ledgers, |l| l.rebalance.secs()),
        tick_s: col(&ledgers, |l| l.tick.secs()),
        picks: col(&tallies, |t| t.picks),
        charges: col(&tallies, |t| t.charges),
        disk_requests: col(&tallies, |t| t.disk_requests),
        dropped: col(&tallies, |t| t.dropped),
        tally_s: col(&tallies, |t| t.wall_s),
        outcome: Outcome::of(&plain_eps),
    });
}

/// Untraced episodes of one ladder arm for `seconds`, at least two.
fn ladder(a: &Args) {
    let start = Instant::now();
    let opts = Options {
        arm: a.arm.clone(),
        ..plain(a)
    };
    let mut eps = Vec::new();
    while eps.len() < 2 || (start.elapsed().as_secs_f64() < a.seconds && eps.len() < 100) {
        eps.push(run_episode(&a.workload, &opts, Drive::Stepped, None));
    }
    emit(&Ladder {
        window_wall_s: col(&eps, |e| e.window_wall_s),
        outcome: Outcome::of(&eps),
    });
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match a.mode.as_str() {
        "measure" => measure(&a),
        "rss" => rss(&a),
        "single" | "wrapped" | "counts" => pairs(&a),
        "ladder" if a.arm.is_some() => ladder(&a),
        other => {
            eprintln!("perfbench: unknown mode {other} (ladder needs --arm)");
            std::process::exit(2);
        }
    }
}

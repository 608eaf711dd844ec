//! `rcbench trace`: runs a named scenario with kernel-wide tracing
//! enabled and emits both observability artifacts — a Chrome trace-event
//! JSON (loadable in Perfetto / `chrome://tracing`) and a compact
//! metrics dump.
//!
//! ```sh
//! cargo run --release -p rcbench -- trace disk_tenants
//! cargo run --release -p rcbench -- trace fig14 --reduced
//! ```
//!
//! Scenarios: `baseline`, `fig11`, `fig14`, `disk_tenants`. The
//! `--reduced` flag shrinks the run for CI smoke tests. Both artifacts
//! go through the registry driver's validation and writer: the run fails
//! if either is not well-formed JSON, the trace is empty, or the metrics
//! dump has no containers.

use rctrace::TraceConfig;
use simos::KernelConfig;
use workload::scenarios::{
    run_baseline, run_disk_tenants, run_fig11, run_fig14, BaselineParams, DiskTenantsParams,
    Fig11Params, Fig11System, Fig14Params,
};

use super::driver;

fn run_scenario(name: &str, reduced: bool) -> Result<(), String> {
    rctrace::start(TraceConfig::default());
    match name {
        "baseline" => {
            let r = run_baseline(BaselineParams {
                kernel: KernelConfig::resource_containers(),
                per_request_containers: true,
                clients: if reduced { 8 } else { 24 },
                secs: if reduced { 2 } else { 10 },
                ..BaselineParams::default()
            });
            println!("baseline: {:.0} req/s", r.requests_per_sec);
        }
        "fig11" => {
            let r = run_fig11(Fig11Params {
                system: Fig11System::RcEventApi,
                low_clients: if reduced { 8 } else { 32 },
                secs: if reduced { 2 } else { 10 },
            });
            println!("fig11: t_high {:.2} ms", r.t_high_ms);
        }
        "fig14" => {
            let r = run_fig14(Fig14Params {
                defended: true,
                syn_rate: if reduced { 2_000.0 } else { 20_000.0 },
                clients: if reduced { 8 } else { 24 },
                secs: if reduced { 2 } else { 10 },
            });
            println!("fig14: {:.0} req/s under flood", r.throughput);
        }
        "disk_tenants" => {
            let r = run_disk_tenants(DiskTenantsParams {
                hog_clients: if reduced { 4 } else { 8 },
                victim_clients: if reduced { 4 } else { 8 },
                secs: if reduced { 4 } else { 12 },
                ..DiskTenantsParams::default()
            });
            println!(
                "disk_tenants: split {:.1}%/{:.1}%",
                r.disk_fractions[0] * 100.0,
                r.disk_fractions[1] * 100.0
            );
        }
        other => {
            rctrace::finish();
            return Err(format!(
                "unknown scenario '{other}' \
                 (expected baseline | fig11 | fig14 | disk_tenants)"
            ));
        }
    }
    let session = rctrace::finish().ok_or("no trace session captured")?;
    driver::write_session_artifacts(&session, &format!("trace_{name}"), &[], &["containers"])
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut reduced = false;
    for a in argv {
        match a.as_str() {
            "--reduced" => reduced = true,
            other if name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let name = name.unwrap_or_else(|| "disk_tenants".to_string());
    run_scenario(&name, reduced)
}

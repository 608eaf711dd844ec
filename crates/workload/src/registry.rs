//! The scenario registry: one table of named, uniformly-invokable
//! experiment drivers behind the `rcbench` CLI.
//!
//! Each [`ScenarioSpec`] couples a name with a runner that builds the
//! scenario's parameters from generic [`ScenarioArgs`], runs it (tracing
//! where the experiment's artifacts need a trace), and returns a
//! structured [`Outcome`]: headline lines to print, text [`Report`]s
//! (the paper's tables and figures), trace sessions to export,
//! self-[`Check`]s for CI gates, and (for the cluster scenario) the
//! determinism dump CI byte-diffs. The CLI layer owns everything
//! filesystem- and JSON-shaped — artifact validation, writing, exit
//! codes — so the registry stays a pure scenario table.

mod paper;
mod span;

use std::fmt::Write as _;

use rctrace::TraceConfig;
use simcore::Nanos;
use simos::{DiskSchedKind, QdiscKind};

use crate::scenarios::{
    run_cluster_tenants_traced, run_disk_tenants, run_memhog_tenants, run_qos_tenants,
    run_smp_tenants, run_synflood_fault, ClusterTenantsParams, ClusterTenantsResult,
    DiskTenantsParams, DiskTenantsResult, MemhogTenantsParams, QosTenantsParams, SmpTenantsParams,
    SynfloodFaultParams,
};

/// Generic arguments a scenario runner may consult. Unset options fall
/// back to each scenario's documented default.
#[derive(Clone, Debug, Default)]
pub struct ScenarioArgs {
    /// Shrink the run for CI smoke tests.
    pub reduced: bool,
    /// CPU count (smp).
    pub ncpus: Option<u32>,
    /// Fault-plan seed (fault).
    pub seed: Option<u64>,
    /// Clients per tenant (cluster; the 1M-client nightly sets 500000).
    pub clients: Option<usize>,
    /// Backend node count (cluster).
    pub nodes: Option<u32>,
}

/// One self-check a scenario evaluates on its own run. The CLI enforces
/// these under `--check`; they are always computed (they're cheap).
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name of the property.
    pub label: &'static str,
    /// Whether the run satisfied it.
    pub ok: bool,
    /// Human-readable detail (the failure message when `!ok`).
    pub detail: String,
}

impl Check {
    pub(crate) fn new(label: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            label,
            ok,
            detail: detail.into(),
        }
    }

    /// `value > bound`.
    pub(crate) fn above(label: &'static str, value: f64, bound: f64) -> Self {
        Check::bound(label, value > bound, value, ">", bound)
    }

    /// `value >= bound`.
    pub(crate) fn at_least(label: &'static str, value: f64, bound: f64) -> Self {
        Check::bound(label, value >= bound, value, ">=", bound)
    }

    /// `value < bound`.
    pub(crate) fn below(label: &'static str, value: f64, bound: f64) -> Self {
        Check::bound(label, value < bound, value, "<", bound)
    }

    /// `value <= bound`.
    pub(crate) fn at_most(label: &'static str, value: f64, bound: f64) -> Self {
        Check::bound(label, value <= bound, value, "<=", bound)
    }

    fn bound(label: &'static str, ok: bool, value: f64, op: &str, bound: f64) -> Self {
        Check::new(label, ok, format!("{value:.3}, needs {op} {bound:.3}"))
    }

    /// `|value - target| < tol`.
    pub(crate) fn near(label: &'static str, value: f64, target: f64, tol: f64) -> Self {
        let ok = (value - target).abs() < tol;
        Check::new(label, ok, format!("{value:.3}, needs {target:.3} ± {tol}"))
    }

    /// One [`Check::near`] per tenant: each measured share within `tol`
    /// of its configured share.
    pub(crate) fn shares(
        label: &'static str,
        configured: &[f64],
        measured: &[f64],
        tol: f64,
    ) -> Vec<Check> {
        let pairs = configured.iter().zip(measured);
        pairs
            .map(|(&c, &m)| Check::near(label, m, c, tol))
            .collect()
    }
}

/// Panics with every failed check's detail: how unit tests assert the
/// same predicates `--check` enforces.
#[cfg(test)]
pub(crate) fn assert_checks(checks: &[Check]) {
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.label, c.detail))
        .collect();
    assert!(failed.is_empty(), "failed checks: {failed:#?}");
}

/// A titled text table: one of the paper's tables or figures, printed
/// and written to `results/<name>.txt` by the CLI.
#[derive(Debug)]
pub struct Report {
    /// Artifact basename.
    pub name: &'static str,
    title: String,
    lines: Vec<String>,
}

impl Report {
    /// Creates an empty report with a title block.
    pub fn new(name: &'static str, title: &str) -> Self {
        Report {
            name,
            title: title.to_string(),
            lines: Vec::new(),
        }
    }

    /// Adds one preformatted line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Adds a blank line.
    pub fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// Renders the title, its underline and every line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bar = "=".repeat(self.title.len());
        let _ = writeln!(out, "{}\n{}", self.title, bar);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }
}

/// Formats a measured-vs-paper pair with the ratio.
pub fn vs(measured: f64, paper: f64, unit: &str) -> String {
    if paper == 0.0 {
        return format!("{measured:.1}{unit} (paper: n/a)");
    }
    format!(
        "{measured:.1}{unit} (paper {paper:.1}{unit}, ratio {:.2})",
        measured / paper
    )
}

/// What a scenario run produced, for the CLI to print and persist.
#[derive(Default)]
pub struct Outcome {
    /// Headline lines, printed in order.
    pub headline: Vec<String>,
    /// Self-checks (enforced under `--check`).
    pub checks: Vec<Check>,
    /// Message printed when every check passes.
    pub check_ok: &'static str,
    /// Single-kernel trace session to export (chrome + metrics).
    pub session: Option<rctrace::TraceSession>,
    /// Per-node `(name, session)` pairs from a cluster run, exported as
    /// one merged Chrome trace with per-node track groups.
    pub cluster_sessions: Vec<(String, rctrace::TraceSession)>,
    /// Full cluster result (JSON artifact + the determinism dump CI
    /// byte-diffs).
    pub cluster: Option<ClusterTenantsResult>,
    /// Text reports, each printed and written under its own name.
    pub reports: Vec<Report>,
}

/// A named scenario: metadata plus its runner.
pub struct ScenarioSpec {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description for `rcbench help`.
    pub about: &'static str,
    /// Substrings the Chrome trace artifact must contain (validated by
    /// the CLI before writing; empty when the scenario emits no trace).
    pub trace_markers: &'static [&'static str],
    /// Top-level sections the metrics dump must hold, each non-empty.
    pub metrics_sections: &'static [&'static str],
    /// Trace-artifact basename when `--out` is absent; `None` means the
    /// scenario's name. Reports always use their own names.
    pub default_out: Option<fn(&ScenarioArgs) -> String>,
    /// Runs the scenario.
    pub run: fn(&ScenarioArgs) -> Result<Outcome, String>,
}

/// The table of registered scenarios.
pub struct ScenarioRegistry {
    specs: Vec<ScenarioSpec>,
}

impl ScenarioSpec {
    /// A scenario whose only artifacts are its text reports.
    fn reports(
        name: &'static str,
        about: &'static str,
        run: fn(&ScenarioArgs) -> Result<Outcome, String>,
    ) -> Self {
        ScenarioSpec {
            name,
            about,
            trace_markers: &[],
            metrics_sections: &[],
            default_out: None,
            run,
        }
    }
}

impl ScenarioRegistry {
    /// The standard registry behind `rcbench <subcommand>`.
    pub fn standard() -> Self {
        ScenarioRegistry {
            specs: vec![
                ScenarioSpec::reports("baseline", "§5.3/§5.4 throughput", paper::baseline),
                ScenarioSpec::reports("fig11", "Figure 11: priority latency", paper::fig11),
                ScenarioSpec::reports("fig12_13", "Figures 12/13: CGI control", paper::fig12_13),
                ScenarioSpec::reports("fig14", "Figure 14: SYN flood (slow)", paper::fig14),
                ScenarioSpec::reports("virtual_servers", "§5.8 guest CPU", paper::virtual_servers),
                ScenarioSpec::reports("fig_all", "all figures, abbreviated", paper::fig_all),
                ScenarioSpec::reports("ablations", "design ablations", paper::ablations),
                ScenarioSpec::reports(
                    "disk",
                    "disk-bandwidth isolation: 70/30 fixed-share tenants vs FIFO",
                    run_disk,
                ),
                ScenarioSpec {
                    name: "smp",
                    about: "multiprocessor tenant shares with migration (traced)",
                    trace_markers: &[],
                    metrics_sections: &[],
                    default_out: Some(|a| format!("smp_ncpus{}", a.ncpus.unwrap_or(4))),
                    run: run_smp,
                },
                ScenarioSpec {
                    name: "qos",
                    about: "link QoS: WFQ qdisc vs FIFO under a blast tenant (traced)",
                    trace_markers: &["\"link\""],
                    metrics_sections: &["link"],
                    default_out: None,
                    run: run_qos,
                },
                ScenarioSpec {
                    name: "fault",
                    about: "SYN flood + seeded fault injection on the defended kernel (traced)",
                    trace_markers: &["\"fault\""],
                    metrics_sections: &[],
                    default_out: None,
                    run: run_fault,
                },
                ScenarioSpec {
                    name: "mem",
                    about: "memory isolation: cache hog vs guaranteed tenant (traced)",
                    trace_markers: &["mem_bytes"],
                    metrics_sections: &["mem"],
                    default_out: None,
                    run: run_mem,
                },
                ScenarioSpec {
                    name: "span",
                    about: "causal-span tail-latency blame report (traced)",
                    trace_markers: &["\"request\"", "SLO violation"],
                    metrics_sections: &["spans", "slo"],
                    default_out: None,
                    run: span::run_span,
                },
                ScenarioSpec {
                    name: "cluster",
                    about: "cluster scale-out: global 70/30 split across 8 nodes (traced)",
                    trace_markers: &["node0 cpu"],
                    metrics_sections: &[],
                    default_out: None,
                    run: run_cluster,
                },
            ],
        }
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All registered specs, in listing order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.specs.iter()
    }
}

fn run_disk(args: &ScenarioArgs) -> Result<Outcome, String> {
    let secs = if args.reduced { 6 } else { 12 };
    let run = |sched: DiskSchedKind, hog_clients: usize| -> DiskTenantsResult {
        run_disk_tenants(DiskTenantsParams {
            hog_clients,
            secs,
            sched,
            ..DiskTenantsParams::default()
        })
    };

    let mut rep = Report::new(
        "fig_disk",
        "disk-bandwidth isolation: 70/30 fixed-share tenants",
    );
    rep.line("disk-time split at 8 hog clients:");
    rep.line(format!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "sched", "hog conf", "hog meas", "victim conf", "victim meas", "disk%"
    ));
    let mut share_at_8 = None;
    for sched in [DiskSchedKind::Fifo, DiskSchedKind::Share] {
        let r = run(sched, 8);
        rep.line(format!(
            "{:<8} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>7.1}%",
            r.sched,
            r.configured[0] * 100.0,
            r.disk_fractions[0] * 100.0,
            r.configured[1] * 100.0,
            r.disk_fractions[1] * 100.0,
            r.utilization * 100.0,
        ));
        if sched == DiskSchedKind::Share {
            share_at_8 = Some(r);
        }
    }
    rep.blank();

    rep.line("victim throughput vs hog load:");
    rep.line(format!(
        "{:<14} {:>10} {:>16} {:>16}",
        "hog clients", "sched", "victim req/s", "victim ms"
    ));
    let hog_loads: &[usize] = if args.reduced {
        &[2, 8]
    } else {
        &[2, 4, 8, 16]
    };
    let mut victim_share: Vec<f64> = Vec::new();
    for &hogs in hog_loads {
        for sched in [DiskSchedKind::Fifo, DiskSchedKind::Share] {
            let r = run(sched, hogs);
            rep.line(format!(
                "{:<14} {:>10} {:>16.1} {:>16.1}",
                hogs, r.sched, r.throughputs[1], r.latencies_ms[1]
            ));
            if sched == DiskSchedKind::Share {
                victim_share.push(r.throughputs[1]);
            }
        }
    }
    rep.blank();
    rep.line("paper §7: \"the container mechanism is general enough to encompass");
    rep.line("other system resources, such as disk bandwidth\"; the share-aware");
    rep.line("I/O scheduler holds the victim's service flat under any hog load.");

    let share_at_8 = share_at_8.expect("Share arm ran");
    let mut checks = Check::shares(
        "share-split",
        &share_at_8.configured,
        &share_at_8.disk_fractions,
        0.10,
    );
    let at = |v: Option<&f64>| v.copied().unwrap_or(0.0);
    let (min_load, max_load) = (at(victim_share.first()), at(victim_share.last()));
    checks.push(Check::at_least("victim-flat", max_load, 0.8 * min_load));

    Ok(Outcome {
        checks,
        check_ok: "share scheduler holds the 70/30 split and the victim stays flat",
        reports: vec![rep],
        ..Outcome::default()
    })
}

fn run_smp(args: &ScenarioArgs) -> Result<Outcome, String> {
    let ncpus = args.ncpus.unwrap_or(4);
    let params = SmpTenantsParams {
        ncpus,
        clients_per_tenant: if args.reduced { 16 } else { 24 },
        parse_cost: Nanos::from_micros(200),
        secs: if args.reduced { 4 } else { 10 },
        ..SmpTenantsParams::default()
    };

    rctrace::start(TraceConfig::default());
    let r = run_smp_tenants(params);
    let session = rctrace::finish().ok_or("no trace session captured")?;

    let headline = vec![format!(
        "smp_tenants ncpus={}: shares {} | {:.0} req/s total | {} migrations | busy {}",
        r.ncpus,
        r.configured
            .iter()
            .zip(&r.measured)
            .map(|(c, m)| format!("{:.0}%->{:.1}%", c * 100.0, m * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
        r.total_throughput,
        r.migrations,
        r.busy_fraction
            .iter()
            .map(|b| format!("{:.0}%", b * 100.0))
            .collect::<Vec<_>>()
            .join("/"),
    )];

    let mut checks = Check::shares("share", &r.configured, &r.measured, 0.05);
    checks.push(Check::new(
        "migrations",
        if ncpus > 1 {
            r.migrations > 0
        } else {
            r.migrations == 0
        },
        format!("{} migrations on {ncpus} CPUs", r.migrations),
    ));

    Ok(Outcome {
        headline,
        checks,
        check_ok: "every tenant within 5 points of its share",
        session: Some(session),
        ..Outcome::default()
    })
}

fn run_qos(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = QosTenantsParams {
        blast_clients: if args.reduced { 18 } else { 24 },
        secs: if args.reduced { 6 } else { 10 },
        ..QosTenantsParams::default()
    };

    // The FIFO ablation first (untraced), then the WFQ run under tracing.
    let fifo = run_qos_tenants(QosTenantsParams {
        qdisc: QdiscKind::Fifo,
        ..params.clone()
    });
    rctrace::start(TraceConfig::default());
    let wfq = run_qos_tenants(params);
    let session = rctrace::finish().ok_or("no trace session captured")?;

    let headline = vec![format!(
        "qos_tenants: wfq gold/blast {:.1}%/{:.1}% of wire time (configured \
         {:.0}%/{:.0}%) at {:.0}% utilization | fifo gold/blast {:.1}%/{:.1}% | \
         gold throughput {:.0} req/s under wfq vs {:.0} under fifo",
        wfq.tx_fractions[0] * 100.0,
        wfq.tx_fractions[1] * 100.0,
        wfq.configured[0] * 100.0,
        wfq.configured[1] * 100.0,
        wfq.utilization * 100.0,
        fifo.tx_fractions[0] * 100.0,
        fifo.tx_fractions[1] * 100.0,
        wfq.throughputs[0],
        fifo.throughputs[0],
    )];

    let mut checks = vec![Check::at_least("saturation", wfq.utilization, 0.9)];
    checks.extend(Check::shares(
        "share",
        &wfq.configured,
        &wfq.tx_fractions,
        0.05,
    ));
    checks.push(Check::below("ablation", fifo.tx_fractions[0], 0.45));
    checks.push(Check::above(
        "protection",
        wfq.throughputs[0],
        1.5 * fifo.throughputs[0],
    ));

    Ok(Outcome {
        headline,
        checks,
        check_ok: "wfq holds the 3:1 split; fifo collapses under the blast tenant",
        session: Some(session),
        ..Outcome::default()
    })
}

fn run_fault(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = SynfloodFaultParams {
        clients: if args.reduced { 8 } else { 12 },
        fault_seed: args.seed.unwrap_or(7),
        ..SynfloodFaultParams::default()
    };

    // The fault-free, flood-free baseline first (untraced), then the
    // faulted run under tracing.
    let base = run_synflood_fault(params.baseline());
    rctrace::start(TraceConfig::default());
    let r = run_synflood_fault(params.clone());
    let session = rctrace::finish().ok_or("no trace session captured")?;

    let headline = vec![format!(
        "synflood_fault ncpus={} seed={}: {:.0} req/s (baseline {:.0}) | p99 {:.2} ms \
         (baseline {:.2}) | {} net + {} client faults | {} syns, {} early drops, \
         attacker pays {:.1}% | {} isolations",
        params.ncpus,
        params.fault_seed,
        r.throughput,
        base.throughput,
        r.p99_ms,
        base.p99_ms,
        r.net_faults,
        r.client_faults,
        r.syns_sent,
        r.early_drops,
        r.attacker_drop_share * 100.0,
        r.isolations,
    )];

    let checks = vec![
        Check::at_least("degradation", r.throughput, 0.9 * base.throughput),
        Check::at_most("latency", r.p99_ms, 2.0 * base.p99_ms.max(0.5)),
        Check::at_least("charging", r.attacker_drop_share, 0.95),
        Check::new(
            "injection",
            r.net_faults > 0 && r.client_faults > 0,
            "a fault category never fired",
        ),
    ];

    Ok(Outcome {
        headline,
        checks,
        check_ok: "graceful degradation with attacker-pays charging",
        session: Some(session),
        ..Outcome::default()
    })
}

fn run_mem(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = MemhogTenantsParams {
        secs: if args.reduced { 6 } else { 12 },
        ..MemhogTenantsParams::default()
    };

    rctrace::start(TraceConfig::default());
    let r = run_memhog_tenants(params);
    let session = rctrace::finish().ok_or("no trace session captured")?;

    let headline = vec![format!(
        "memhog_tenants: guaranteed hit rate {:.1}% shared vs {:.1}% solo | \
         p99 {:.2} ms shared vs {:.2} ms solo | {:.0} req/s shared vs {:.0} solo | \
         hog: {} reclaims ({} KiB), {} oom kills, {} refusals, {} pressure events",
        r.shared.cache_hit_rate * 100.0,
        r.solo.cache_hit_rate * 100.0,
        r.shared.p99_ms,
        r.solo.p99_ms,
        r.shared.throughput,
        r.solo.throughput,
        r.mem.reclaims,
        r.mem.reclaimed_bytes / 1024,
        r.mem.oom_kills,
        r.mem.refusals,
        r.mem.pressure_events,
    )];

    let (solo, shared) = (&r.solo, &r.shared);
    let checks = vec![
        Check::new("reclaim", r.mem.reclaims > 0, "hog never lost a cache page"),
        Check::new("oom", r.mem.oom_kills > 0, "hog never OOM-killed"),
        Check::above("baseline", solo.cache_hit_rate, 0.9),
        Check::at_least(
            "isolation-hits",
            shared.cache_hit_rate,
            0.95 * solo.cache_hit_rate,
        ),
        Check::at_most("isolation-p99", shared.p99_ms, 1.05 * solo.p99_ms.max(0.01)),
    ];

    Ok(Outcome {
        headline,
        checks,
        check_ok: "hog reclaimed and OOM-killed; guaranteed tenant within 5% of solo",
        session: Some(session),
        ..Outcome::default()
    })
}

fn run_cluster(args: &ScenarioArgs) -> Result<Outcome, String> {
    let mut params = if args.reduced {
        ClusterTenantsParams::reduced()
    } else {
        ClusterTenantsParams::default()
    };
    if let Some(n) = args.nodes {
        params.nodes = n.max(1);
    }
    if let Some(c) = args.clients {
        params.clients_per_tenant = c.max(1);
    }

    // Bound each node's retained ring: eight full kernels at the default
    // 1M-event ring would merge into a >100 MB artifact.
    let (r, sessions) = run_cluster_tenants_traced(
        params,
        TraceConfig {
            ring_capacity: 1 << 14,
            ..TraceConfig::default()
        },
    );

    let headline = vec![
        format!(
            "cluster_tenants nodes={} clients={}: split {} | {:.0} req/s total | \
             {} placements, {} drains -> replicas {:?}",
            r.nodes,
            r.clients,
            r.configured
                .iter()
                .zip(&r.measured)
                .map(|(c, m)| format!("{:.0}%->{:.1}%", c * 100.0, m * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
            r.total_throughput,
            r.placements.len(),
            r.drains.len(),
            r.replicas,
        ),
        format!(
            "  lanes: {} forwarded, {} assigned, {} unroutable | wire {:.3} ms busy vs \
             {:.3} ms charged ({}) | {} kernel events",
            r.forwarded,
            r.assigned,
            r.unroutable,
            r.lane_busy_ns as f64 / 1e6,
            r.tx_wire_ns as f64 / 1e6,
            if r.conserved { "conserved" } else { "LEAKED" },
            r.sim_events,
        ),
    ];

    let mut checks = vec![
        Check::new(
            "conservation",
            r.conserved,
            format!(
                "lane busy {} ns vs tx charged {} ns",
                r.lane_busy_ns, r.tx_wire_ns
            ),
        ),
        Check::new(
            "placement",
            !r.placements.is_empty(),
            "bronze starts capacity-confined; the orchestrator never placed",
        ),
        Check::new(
            "routable",
            r.unroutable == 0,
            format!("{} packets had no route", r.unroutable),
        ),
    ];
    for (c, m) in r.configured.iter().zip(&r.measured) {
        checks.push(Check::at_most("global-split", (c - m).abs(), 0.02));
    }

    Ok(Outcome {
        headline,
        checks,
        check_ok: "global split within 2 points after rebalance, wire accounting conserved",
        cluster_sessions: sessions,
        cluster: Some(r),
        ..Outcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_title_and_lines() {
        let mut r = Report::new("table1", "Table 1");
        r.line("a | b");
        r.blank();
        r.line("c");
        assert_eq!(r.render(), "Table 1\n=======\na | b\n\nc\n");
    }

    #[test]
    fn vs_formats_ratio() {
        let s = vs(300.0, 150.0, "us");
        assert!(s.contains("ratio 2.00"), "{s}");
        assert!(vs(1.0, 0.0, "x").contains("n/a"));
    }

    #[test]
    fn checks_compare_strictly_or_inclusively() {
        assert!(!Check::above("a", 1.0, 1.0).ok && Check::at_least("a", 1.0, 1.0).ok);
        assert!(!Check::below("b", 1.0, 1.0).ok && Check::at_most("b", 1.0, 1.0).ok);
        assert!(Check::near("c", 0.74, 0.70, 0.05).ok && !Check::near("c", 0.76, 0.70, 0.05).ok);
        let shares = Check::shares("d", &[0.7, 0.3], &[0.72, 0.2], 0.05);
        assert_eq!(
            shares.iter().map(|c| c.ok).collect::<Vec<_>>(),
            [true, false]
        );
    }
}

//! The paper's evaluation (§5.3–§5.8) as registry entries: each runner
//! sweeps its experiment at the paper's scale and returns the table or
//! figure as a [`Report`], with the scenario module's shape predicates
//! as its checks.

use rescon::{Attributes, ContainerTable};
use sched::{CoreScheduler, LotteryScheduler, MultiLevelScheduler, StrideScheduler, TaskId};
use simcore::Nanos;
use simos::KernelConfig;

use super::{vs, Outcome, Report, ScenarioArgs};
use crate::scenarios::{
    self, run_baseline, run_fig11, run_fig12, run_fig14, run_virtual_servers, BaselineParams,
    Fig11Params, Fig11System, Fig12Params, Fig12Result, Fig12System, Fig14Params, VsParams,
};

/// §5.3 baseline throughput + §5.4 container-overhead check.
pub(super) fn baseline(_: &ScenarioArgs) -> Result<Outcome, String> {
    let mut rep = Report::new(
        "baseline",
        "Baseline throughput (paper §5.3) and container overhead (§5.4)",
    );
    let run = |persistent, kernel, per_request_containers| {
        run_baseline(BaselineParams {
            persistent,
            kernel,
            per_request_containers,
            secs: 10,
            ..BaselineParams::default()
        })
    };
    let per_conn = run(false, KernelConfig::unmodified(), false);
    let persistent = run(true, KernelConfig::unmodified(), false);
    for (label, r, rps, cpu) in [
        ("connection-per-request", &per_conn, 2954.0, 338.0),
        ("persistent connections", &persistent, 9487.0, 105.0),
    ] {
        rep.line(format!(
            "{label} : {}",
            vs(r.requests_per_sec, rps, " req/s")
        ));
        rep.line(format!(
            "  per-request CPU      : {}",
            vs(r.cpu_per_request_us, cpu, " us")
        ));
    }
    rep.blank();

    // §5.4: container per request on the RC kernel.
    let rc_off = run(false, KernelConfig::resource_containers(), false);
    let rc_on = run(false, KernelConfig::resource_containers(), true);
    rep.line(format!(
        "RC kernel, shared containers   : {:.0} req/s",
        rc_off.requests_per_sec
    ));
    rep.line(format!(
        "RC kernel, container/request   : {:.0} req/s ({:+.1}%)",
        rc_on.requests_per_sec,
        (rc_on.requests_per_sec / rc_off.requests_per_sec - 1.0) * 100.0
    ));
    rep.line("paper: \"The throughput of the system remained effectively unchanged.\"");

    Ok(Outcome {
        checks: scenarios::baseline::checks(&per_conn, &persistent),
        check_ok: "both §5.3 configurations within 10% of the paper",
        reports: vec![rep],
        ..Outcome::default()
    })
}

/// Figure 11: response time of the high-priority client vs the number of
/// concurrent low-priority clients, for the three systems. `--check`
/// asserts the paper's shape at N = 20.
pub(super) fn fig11(_: &ScenarioArgs) -> Result<Outcome, String> {
    let mut rep = Report::new(
        "fig11",
        "Figure 11: T_high (ms) vs concurrent low-priority clients",
    );
    rep.line(format!(
        "{:<6} {:>22} {:>22} {:>24}",
        "N", "without containers", "containers+select()", "containers+event API"
    ));
    let mut checks = Vec::new();
    for n in [0, 5, 10, 15, 20, 25, 30, 35] {
        let row = Fig11System::ALL.map(|system| {
            run_fig11(Fig11Params {
                system,
                low_clients: n,
                secs: 6,
            })
        });
        let mut line = format!("{n:<6}");
        for r in &row {
            line.push_str(&format!("{:>22.3}", r.t_high_ms));
        }
        rep.line(line);
        if n == 20 {
            checks = scenarios::fig11::checks(&row);
        }
    }
    rep.blank();
    rep.line("paper shape: the unmodified curve rises sharply toward ~8-9 ms at N=35;");
    rep.line("containers+select() rises mildly (select scan cost); containers+event API");
    rep.line("stays nearly flat (only interrupt-level demux of low-priority packets).");

    Ok(Outcome {
        checks,
        check_ok: "containers isolate the high-priority client at N=20",
        reports: vec![rep],
        ..Outcome::default()
    })
}

/// Figures 12 and 13: static throughput and CGI CPU share vs number of
/// concurrent CGI requests, for the four systems. `--check` asserts the
/// paper's shape at n = 3.
pub(super) fn fig12_13(_: &ScenarioArgs) -> Result<Outcome, String> {
    let sweep = [0usize, 1, 2, 3, 4, 5];
    // The paper uses 2 s CGI bursts over multi-minute measurements; we use
    // 0.5 s bursts over 20 s windows — same shapes, tractable runtime.
    let results = Fig12System::ALL.map(|system| {
        sweep.map(|cgi_clients| {
            run_fig12(Fig12Params {
                system,
                cgi_clients,
                static_clients: 20,
                cgi_cpu: Nanos::from_millis(500),
                secs: 20,
            })
        })
    });

    let mut head = format!("{:<22}", "system \\ n");
    for n in sweep {
        head.push_str(&format!("{n:>9}"));
    }
    let table = |name, title, cell: fn(&Fig12Result) -> String, shape: [&str; 2]| {
        let mut rep = Report::new(name, title);
        rep.line(head.clone());
        for (system, row) in Fig12System::ALL.iter().zip(&results) {
            let mut line = format!("{:<22}", system.label());
            for r in row {
                line.push_str(&cell(r));
            }
            rep.line(line);
        }
        rep.blank();
        rep.line(shape[0]);
        rep.line(shape[1]);
        rep
    };
    let fig12 = table(
        "fig12",
        "Figure 12: HTTP throughput (req/s) vs concurrent CGI requests",
        |r| format!("{:>9.0}", r.static_throughput),
        [
            "paper shape: Unmodified decays (~44% of max at n=4); LRP decays further",
            "(exact fair share); RC 30% and RC 10% stay flat at ~(1-limit) of max.",
        ],
    );
    let fig13 = table(
        "fig13",
        "Figure 13: CGI CPU share (%) vs concurrent CGI requests",
        |r| format!("{:>8.1}%", r.cgi_cpu_share * 100.0),
        [
            "paper shape: LRP tracks n/(n+1); Unmodified runs slightly below it (the",
            "server's kernel networking is over-credited); RC clamps at 30% / 10%.",
        ],
    );

    Ok(Outcome {
        checks: scenarios::fig12::checks(&results.map(|row| row[3])),
        check_ok: "Figures 12/13 shape holds at 3 concurrent CGI requests",
        reports: vec![fig12, fig13],
        ..Outcome::default()
    })
}

/// Figure 14: server throughput under SYN-flooding, unmodified vs
/// defended (resource containers + filter + priority-zero isolation).
/// `--check` asserts the paper's shape at 20k SYN/s.
pub(super) fn fig14(_: &ScenarioArgs) -> Result<Outcome, String> {
    let mut rep = Report::new(
        "fig14",
        "Figure 14: useful throughput (req/s) vs SYN-flood rate",
    );
    rep.line(format!(
        "{:<14} {:>18} {:>22} {:>12} {:>12}",
        "SYNs/sec", "unmodified", "with containers", "early drops", "isolations"
    ));
    let mut checks = Vec::new();
    for rate in [
        0.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 50_000.0, 70_000.0,
    ] {
        // 16 s runs: the measurement window must sit past the 5 s expiry
        // of the flood's half-open entries (steady state, like the paper).
        let run = |defended| {
            run_fig14(Fig14Params {
                defended,
                syn_rate: rate,
                clients: 24,
                secs: 16,
            })
        };
        let (plain, defended) = (run(false), run(true));
        rep.line(format!(
            "{:<14.0} {:>18.0} {:>22.0} {:>12} {:>12}",
            rate, plain.throughput, defended.throughput, defended.early_drops, defended.isolations
        ));
        if rate == 20_000.0 {
            checks = scenarios::fig14::checks(&plain, &defended);
        }
    }
    rep.blank();
    rep.line("paper shape: unmodified falls drastically, effectively zero by ~10k SYN/s;");
    rep.line("the defended server keeps ~73% of maximum even at 70k SYN/s (the residual");
    rep.line("loss is the interrupt cost of demultiplexing and discarding flood SYNs).");

    Ok(Outcome {
        checks,
        check_ok: "unmodified collapses and the defended server survives at 20k SYN/s",
        reports: vec![rep],
        ..Outcome::default()
    })
}

/// §5.8: isolation of virtual servers (Rent-A-Server), on a static-only
/// load and on uneven static+CGI loads. `--check` asserts the
/// static-only run.
pub(super) fn virtual_servers(_: &ScenarioArgs) -> Result<Outcome, String> {
    let mut rep = Report::new(
        "virtual_servers",
        "§5.8: guest-server CPU isolation under fixed shares",
    );
    let mut checks = Vec::new();
    for (label, clients_per_guest, cgi_cpu) in [
        ("static-only load:", vec![16, 16, 16], None),
        (
            "mixed static+CGI, uneven loads:",
            vec![24, 12, 8],
            Some(Nanos::from_millis(300)),
        ),
    ] {
        let r = run_virtual_servers(VsParams {
            shares: vec![0.5, 0.3, 0.2],
            clients_per_guest,
            cgi_cpu,
            secs: 15,
        });
        rep.line(label);
        rep.line(format!(
            "{:<10} {:>12} {:>12} {:>14}",
            "guest", "configured", "measured", "static req/s"
        ));
        for g in 0..3 {
            rep.line(format!(
                "guest-{g:<4} {:>11.1}% {:>11.1}% {:>14.0}",
                r.configured[g] * 100.0,
                r.measured[g] * 100.0,
                r.throughputs[g]
            ));
        }
        rep.blank();
        if cgi_cpu.is_none() {
            checks = scenarios::virtual_servers::checks(&r);
        }
    }
    rep.line("paper: \"the total CPU time consumed by each guest server exactly matched");
    rep.line("its allocation\"; each guest subdivides its own share internally.");

    Ok(Outcome {
        checks,
        check_ok: "every guest's CPU matches its allocation",
        reports: vec![rep],
        ..Outcome::default()
    })
}

/// Every table and figure in one run, on abbreviated sweeps; the entries
/// above run the full sweeps.
pub(super) fn fig_all(_: &ScenarioArgs) -> Result<Outcome, String> {
    let mut rep = Report::new("fig_all", "All experiments (abbreviated sweeps)");

    // §5.3 baseline.
    let run = |persistent| {
        run_baseline(BaselineParams {
            persistent,
            secs: 6,
            ..BaselineParams::default()
        })
    };
    rep.line("§5.3 baseline:");
    rep.line(format!(
        "  1 conn/request : {}",
        vs(run(false).requests_per_sec, 2954.0, " req/s")
    ));
    rep.line(format!(
        "  persistent     : {}",
        vs(run(true).requests_per_sec, 9487.0, " req/s")
    ));
    rep.blank();

    rep.line("Figure 11 (T_high at 30 low-priority clients):");
    for system in Fig11System::ALL {
        let r = run_fig11(Fig11Params {
            system,
            low_clients: 30,
            secs: 5,
        });
        rep.line(format!("  {:<26}: {:.3} ms", system.label(), r.t_high_ms));
    }
    rep.blank();

    rep.line("Figures 12/13 (4 concurrent CGI requests):");
    for system in Fig12System::ALL {
        let r = run_fig12(Fig12Params {
            system,
            cgi_clients: 4,
            static_clients: 16,
            cgi_cpu: Nanos::from_millis(500),
            secs: 12,
        });
        rep.line(format!(
            "  {:<22}: {:>6.0} req/s static, {:>5.1}% CGI CPU",
            system.label(),
            r.static_throughput,
            r.cgi_cpu_share * 100.0
        ));
    }
    rep.blank();

    rep.line("Figure 14 (SYN flood):");
    for rate in [10_000.0, 50_000.0] {
        let run = |defended| {
            run_fig14(Fig14Params {
                defended,
                syn_rate: rate,
                clients: 16,
                secs: 8,
            })
            .throughput
        };
        rep.line(format!(
            "  {:>6.0} SYN/s: unmodified {:>5.0} req/s, defended {:>5.0} req/s",
            rate,
            run(false),
            run(true)
        ));
    }
    rep.blank();

    let r = run_virtual_servers(VsParams {
        shares: vec![0.5, 0.3, 0.2],
        clients_per_guest: vec![12, 12, 12],
        cgi_cpu: None,
        secs: 10,
    });
    rep.line("§5.8 virtual servers (configured vs measured CPU):");
    for g in 0..3 {
        rep.line(format!(
            "  guest-{g}: {:>5.1}% vs {:>5.1}%",
            r.configured[g] * 100.0,
            r.measured[g] * 100.0
        ));
    }

    Ok(Outcome {
        reports: vec![rep],
        ..Outcome::default()
    })
}

/// Ablation studies for the design choices called out in DESIGN.md, one
/// report each:
///
/// 1. Scheduler-binding pruning (§4.3) on/off.
/// 2. Lazy (container) vs eager (interrupt) protocol processing under
///    overload.
/// 3. Share-enforcement policy: hierarchical stride (multi-level) vs flat
///    stride vs lottery.
/// 4. `select()` vs the scalable event API at increasing connection counts.
/// 5. Early-demultiplexing cost sensitivity of the SYN-flood defense.
pub(super) fn ablations(_: &ScenarioArgs) -> Result<Outcome, String> {
    Ok(Outcome {
        reports: vec![
            ablation_prune(),
            ablation_lazy_vs_eager(),
            ablation_share_policy(),
            ablation_event_api(),
            ablation_demux_cost(),
        ],
        ..Outcome::default()
    })
}

/// 1. Scheduler-binding pruning: with pruning disabled, a multiplexed
///    thread keeps every container it ever served in its scheduler binding.
fn ablation_prune() -> Report {
    let mut rep = Report::new(
        "ablation_prune",
        "Ablation 1: scheduler-binding pruning (§4.3)",
    );
    // The RC kernel prunes every second by default; compare it against a
    // kernel that never prunes, on the per-request-container baseline load.
    for (label, prune) in [("pruning on (1s)", true), ("pruning off", false)] {
        let mut kernel = KernelConfig::resource_containers();
        if !prune {
            kernel.sched.prune_interval = Nanos::ZERO;
        }
        let r = run_baseline(BaselineParams {
            kernel,
            per_request_containers: true,
            clients: 30,
            secs: 6,
            persistent: false,
        });
        rep.line(format!(
            "  {label:<18}: {:>6.0} req/s, {:>5.1} us/request",
            r.requests_per_sec, r.cpu_per_request_us
        ));
    }
    rep.line("finding: identical — because this kernel also weeds *destroyed*");
    rep.line("containers from a binding at every rebind (DESIGN.md §9.4), periodic");
    rep.line("pruning only matters for live-but-idle containers (e.g. a dormant");
    rep.line("class a thread once served); with per-request containers the churn");
    rep.line("is fully absorbed by rebind weeding.");
    rep
}

/// 2. Lazy vs eager protocol processing under overload (receive livelock).
fn ablation_lazy_vs_eager() -> Report {
    let mut rep = Report::new(
        "ablation_lazy",
        "Ablation 2: lazy (LRP/container) vs eager (interrupt) processing",
    );
    for (label, defended) in [("eager interrupt", false), ("lazy containers", true)] {
        let r = run_fig14(Fig14Params {
            defended,
            syn_rate: 20_000.0,
            clients: 16,
            secs: 16,
        });
        rep.line(format!(
            "  {label:<18}: {:>6.0} req/s useful throughput under 20k SYN/s",
            r.throughput
        ));
    }
    rep.line("eager processing spends the whole CPU at interrupt level under flood");
    rep.line("(receive livelock); lazy classification drops excess traffic early.");
    rep
}

/// 3. Share enforcement: hierarchical stride vs flat stride vs lottery,
///    measured directly against the scheduler APIs.
fn ablation_share_policy() -> Report {
    let mut rep = Report::new(
        "ablation_share_policy",
        "Ablation 3: fixed-share enforcement policy (70/30 target)",
    );
    let run = |sched: &mut dyn CoreScheduler| -> f64 {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let b = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(b), Attributes::time_shared(10)).unwrap();
        sched.add_task(TaskId(1), &[ca], Nanos::ZERO);
        sched.add_task(TaskId(2), &[cb], Nanos::ZERO);
        sched.set_runnable(TaskId(1), true, Nanos::ZERO);
        sched.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        let mut cpu1 = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        while now < Nanos::from_secs(2) {
            let Some(p) = sched.pick(&table, now) else {
                now += Nanos::from_millis(1);
                continue;
            };
            let dt = p.slice;
            let c = if p.task == TaskId(1) { ca } else { cb };
            table.charge_cpu(c, dt).unwrap();
            sched.charge(p.task, c, dt, &table, now + dt);
            if p.task == TaskId(1) {
                cpu1 += dt;
            }
            total += dt;
            now += dt;
        }
        cpu1.ratio(total)
    };
    rep.line(format!(
        "  multi-level (hierarchical stride): {:.1}% (target 70.0%)",
        run(&mut MultiLevelScheduler::new()) * 100.0
    ));
    rep.line(format!(
        "  flat stride (share->tickets)     : {:.1}%",
        run(&mut StrideScheduler::new()) * 100.0
    ));
    rep.line(format!(
        "  lottery (share->tickets)         : {:.1}%",
        run(&mut LotteryScheduler::new(42)) * 100.0
    ));
    rep.line("flat policies miss the target: they size tickets from each task's own");
    rep.line("binding, here the leaf time_shared(10) containers, so the 70/30 parents");
    rep.line("are invisible and both tasks hold equal tickets (~50/50). Only the");
    rep.line("hierarchy-aware scheduler honors nested shares (and CPU limits).");
    rep
}

/// 4. select() vs scalable event API as connections grow (Figure 11's
///    residual slope).
fn ablation_event_api() -> Report {
    let mut rep = Report::new(
        "ablation_event_api",
        "Ablation 4: select() vs scalable event API (T_high, ms)",
    );
    rep.line(format!("{:<6} {:>16} {:>16}", "N", "select()", "event API"));
    for n in [5usize, 15, 25, 35] {
        let run = |system| {
            run_fig11(Fig11Params {
                system,
                low_clients: n,
                secs: 5,
            })
            .t_high_ms
        };
        rep.line(format!(
            "{n:<6} {:>16.3} {:>16.3}",
            run(Fig11System::RcSelect),
            run(Fig11System::RcEventApi)
        ));
    }
    rep.line("the select() slope is the per-descriptor scan cost (§5.5).");
    rep
}

/// 5. Demux-cost sensitivity of the flood defense: the residual throughput
///    loss at high SYN rates is the per-packet interrupt cost.
fn ablation_demux_cost() -> Report {
    let mut rep = Report::new(
        "ablation_demux_cost",
        "Ablation 5: early-demux cost vs defended flood throughput",
    );
    rep.line(format!(
        "{:<14} {:>22}",
        "demux cost", "throughput @50k SYN/s"
    ));
    for demux_us in [2.0f64, 3.9, 8.0] {
        // run_fig14 builds its own kernel, so the sweep scales the rate
        // instead (cost x rate is what matters): rate' = rate * (cost/3.9).
        let eq_rate = 50_000.0 * (demux_us / 3.9);
        let r = run_fig14(Fig14Params {
            defended: true,
            syn_rate: eq_rate,
            clients: 16,
            secs: 8,
        });
        rep.line(format!(
            "{:>10.1} us {:>18.0} req/s (modeled as {:.0} SYN/s at 3.9 us)",
            demux_us, r.throughput, eq_rate
        ));
    }
    rep.line("the product (demux cost x SYN rate) determines the stolen interrupt");
    rep.line("CPU and therefore the residual degradation (~27% at 70k in the paper).");
    rep
}

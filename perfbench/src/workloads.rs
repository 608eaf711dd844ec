//! The four benchmark workloads, each built from the simulator's public
//! construction API with client inputs drawn from the run's seed.
//!
//! Every workload has the same shape: build, warm up, then a measured
//! window stepped in fixed simulated quanta. [`Bench`] is that shape;
//! [`Report`] is what a finished episode yields — simulated metrics,
//! deterministic counts and the correctness gate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use httpsim::stats::{shared_stats, SharedStats};
use httpsim::ThreadPoolServer;
use httpsim::{ClassSpec, EventApi, EventDrivenServer, FileBacking, ReqKind, ServerConfig};
use rescon::{Attributes, ContainerId};
use sched::TaskId;
use simcluster::{
    Action, Frontend, GlobalShare, LaneSpec, NodeId, NodeSpec, Orchestrator, OrchestratorConfig,
    TenantRoute, TenantShare, World as Cluster,
};
use simcore::Nanos;
use simdisk::DiskParams;
use simnet::{CidrFilter, IpAddr, Packet};
use simos::{
    AppEvent, AppHandler, Kernel, KernelConfig, MemParams, QdiscKind, SysCtx, World, WorldAction,
};
use workload::{ClientSpec, CompositeWorld, HttpClients, SynFlood};

use crate::timing::{self, Ledger};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = ["web_rc", "smp_shares", "tenants_io", "cluster_fanout"];

/// The attribution-ladder arms each workload accepts: one `KernelConfig`
/// (or, for `rc` and `cached_files`, server-configuration) change each.
/// `rc_per_conn` is `web_rc` itself, run as an arm for a like-for-like
/// figure.
pub fn ladder_arms(workload: &str) -> &'static [&'static str] {
    match workload {
        "web_rc" => &["unmodified", "lrp", "rc", "rc_per_conn"],
        "smp_shares" => &["ncpus1"],
        "tenants_io" => &["no_link", "no_mem_limit", "cached_files"],
        _ => &[],
    }
}

/// How one episode is built.
pub struct Options {
    /// Client-input seed.
    pub seed: u64,
    /// Timing wrappers around every seam (the wrapper-timed pass).
    pub ledger: Option<Rc<Ledger>>,
    /// Attribution-ladder arm, if any (a `KernelConfig` variant).
    pub arm: Option<String>,
}

impl Options {
    fn arm_is(&self, name: &str) -> bool {
        self.arm.as_deref() == Some(name)
    }
}

/// What a finished episode reports. Everything here is simulated, so it
/// repeats exactly at one seed.
#[derive(Default)]
pub struct Report {
    /// Requests completed per simulated second in the measured window.
    pub goodput_rps: f64,
    /// Client response time at p99 over the measured window, in ms.
    pub latency_p99_ms: f64,
    /// Legitimate requests completed over the episode.
    pub completed: u64,
    /// Legitimate requests abandoned, refused or reset over the episode.
    pub abandoned: u64,
    /// Kernel events in the measured window (all nodes).
    pub window_events: u64,
    /// Deterministic per-layer counts, by metric name.
    pub counts: BTreeMap<String, f64>,
    /// Correctness-gate violations; empty when the episode is correct.
    pub violations: Vec<String>,
}

impl Report {
    fn count(&mut self, name: &str, v: impl Into<f64>) {
        self.counts.insert(name.to_string(), v.into());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Abandoned over attempted.
    pub fn failed_frac(&self) -> f64 {
        let attempted = self.completed + self.abandoned;
        if attempted == 0 {
            return 1.0;
        }
        self.abandoned as f64 / attempted as f64
    }
}

/// One workload episode: built, then advanced in simulated quanta.
pub trait Bench {
    /// Simulated length of one measured quantum.
    fn quantum(&self) -> Nanos;
    /// End of the warm-up ramp (start of the measured window).
    fn warmup_end(&self) -> Nanos;
    /// End of the measured window.
    fn end(&self) -> Nanos;
    /// Advances to `horizon` (one quantum, a closed loop on the host).
    fn advance(&mut self, horizon: Nanos);
    /// Advances to `until` with as few calls into the simulator as the
    /// workload allows (one `run` per single kernel, one `World::run` per
    /// control epoch for the cluster).
    fn run_to(&mut self, until: Nanos);
    /// Marks the start of the measured window.
    fn start_window(&mut self);
    /// Simulated results, counts and the correctness gate.
    fn report(&self) -> Report;
}

/// Builds a workload episode.
pub fn build(workload: &str, opts: &Options) -> Box<dyn Bench> {
    match workload {
        "web_rc" => Box::new(web_rc(opts)),
        "smp_shares" => Box::new(smp_shares(opts)),
        "tenants_io" => Box::new(tenants_io(opts)),
        "cluster_fanout" => Box::new(cluster_fanout(opts)),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// SplitMix64: a small, well-mixed generator for client inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` nanoseconds.
    fn nanos(&mut self, lo: Nanos, hi: Nanos) -> Nanos {
        let span = hi.as_nanos().saturating_sub(lo.as_nanos()).max(1);
        lo + Nanos::from_nanos(self.next() % span)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A world shared between the kernel (which drives it) and the report
/// (which reads it afterwards). The simulation is single-threaded.
struct Hosted<W>(Rc<RefCell<W>>);

impl<W: World> World for Hosted<W> {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_packet(pkt, now, actions);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_timer(tag, now, actions);
    }
}

fn hosted<W: World + 'static>(w: &Rc<RefCell<W>>) -> Box<dyn World> {
    Box::new(Hosted(Rc::clone(w)))
}

// ---------------------------------------------------------------------
// Single-kernel workloads
// ---------------------------------------------------------------------

/// A single kernel stepped in quanta, with its client world.
struct Single {
    k: Kernel,
    world: Box<dyn World>,
    clients: Rc<RefCell<HttpClients>>,
    quantum: Nanos,
    warmup_end: Nanos,
    end: Nanos,
    ledger: Option<Rc<Ledger>>,
    /// Every server's stats.
    servers: Vec<SharedStats>,
    /// Kernel events at the start of the measured window.
    events0: u64,
    /// Workload-specific window snapshots (tenant CPU).
    snap0: Vec<Nanos>,
    /// Workload-specific probes read by `report`.
    extra: Extra,
}

enum Extra {
    Web {
        high: usize,
        low: usize,
    },
    Smp {
        tenants: Vec<ContainerId>,
        shares: Vec<f64>,
    },
    Io {
        flood: Rc<RefCell<SynFlood>>,
        hog: Rc<RefCell<HogStats>>,
        link: bool,
        mem: bool,
    },
}

impl Single {
    fn snapshot(&self) -> Vec<Nanos> {
        match &self.extra {
            Extra::Smp { tenants, .. } => tenants
                .iter()
                .map(|&t| self.k.containers.subtree_cpu(t).expect("tenant"))
                .collect(),
            _ => Vec::new(),
        }
    }
}

impl Bench for Single {
    fn quantum(&self) -> Nanos {
        self.quantum
    }

    fn warmup_end(&self) -> Nanos {
        self.warmup_end
    }

    fn end(&self) -> Nanos {
        self.end
    }

    fn advance(&mut self, horizon: Nanos) {
        match &self.ledger {
            Some(l) => {
                let l = Rc::clone(l);
                l.step
                    .time(|| self.k.step_until(self.world.as_mut(), horizon));
            }
            None => {
                self.k.step_until(self.world.as_mut(), horizon);
            }
        }
    }

    fn run_to(&mut self, until: Nanos) {
        self.k.run(self.world.as_mut(), until);
    }

    fn start_window(&mut self) {
        self.events0 = self.k.stats().sim_events;
        self.snap0 = self.snapshot();
    }

    fn report(&self) -> Report {
        let mut r = Report::default();
        let window = (self.end - self.warmup_end).as_secs_f64();
        {
            let c = self.clients.borrow();
            let m = c.metrics.class(0);
            r.goodput_rps = m.completed_in_window as f64 / window;
            r.latency_p99_ms = m.latency_ms.quantile(0.99);
            r.completed = m.completed;
            r.abandoned = m.abandoned;
            r.count("workload.abandoned", m.abandoned as f64);
        }
        let s = *self.k.stats();
        r.window_events = s.sim_events - self.events0;
        kernel_counts(&mut r, &self.k, self.end);
        kernel_gate(&mut r, &self.k, "kernel");
        r.check(r.goodput_rps > 0.0, || {
            "no request completed in the window".into()
        });
        server_counts(&mut r, &self.servers);
        match &self.extra {
            Extra::Web { high, low } => {
                let st = self.servers[0].borrow();
                // Figure 11's shape: the high-priority class is served
                // first, so each of its clients completes more requests
                // than a low-priority one. Only the RC kernel promises it.
                if self.k.cfg.containers_enabled {
                    let per_high =
                        st.per_class_served.first().copied().unwrap_or(0) as f64 / *high as f64;
                    let per_low =
                        st.per_class_served.get(1).copied().unwrap_or(0) as f64 / *low as f64;
                    r.check(per_high > 1.5 * per_low, || {
                        format!("priority not honoured: {per_high:.0} vs {per_low:.0} per client")
                    });
                }
                r.check(st.accepted > 0, || "no connection accepted".into());
            }
            Extra::Smp { tenants, shares } => {
                let now: Vec<Nanos> = tenants
                    .iter()
                    .map(|&t| self.k.containers.subtree_cpu(t).expect("tenant"))
                    .collect();
                let deltas: Vec<Nanos> =
                    now.iter().zip(&self.snap0).map(|(&a, &b)| a - b).collect();
                let total: Nanos = deltas.iter().copied().sum();
                let sum: f64 = shares.iter().sum();
                let mut worst = 0.0f64;
                for (t, (&d, &share)) in deltas.iter().zip(shares).enumerate() {
                    let got = d.ratio(total);
                    let want = share / sum;
                    worst = worst.max((got - want).abs());
                    // The share is a statement about the whole machine;
                    // the ncpus=1 arm holds it too. The tolerance is the
                    // one `rcbench smp --check` asserts, over a window as
                    // long as its shortest (`--reduced`) run measures.
                    r.check((got - want).abs() < 0.05, || {
                        format!("tenant {t} got {got:.3} of the CPU, configured {want:.3}")
                    });
                }
                r.count("sched.share_error", worst);
                if self.k.ncpus() > 1 {
                    r.check(s.migrations > 0, || "balancer never migrated".into());
                }
            }
            Extra::Io {
                flood,
                hog,
                link,
                mem,
            } => {
                let f = flood.borrow();
                let h = hog.borrow();
                r.count("workload.flood_syns", f.sent as f64);
                r.count("workload.hog_reads", h.reads as f64);
                r.check(f.sent > 0, || "flood never sent".into());
                r.check(s.early_drops > 0, || "no flood SYN dropped early".into());
                r.check(self.servers[0].borrow().isolations > 0, || {
                    "flood prefix never isolated".into()
                });
                if *link {
                    let (busy, _, _) = self.k.link_totals();
                    r.check(busy > Nanos::ZERO, || "link never busy".into());
                }
                if *mem {
                    let acct = self.k.mem_acct().expect("memory-configured kernel");
                    r.check(acct.reclaims > 0, || "no reclaim under the hog".into());
                    r.check(acct.oom_kills > 0, || "no OOM kill of the hog".into());
                    r.check(acct.oom_kills == h.kills, || {
                        format!(
                            "{} OOM kills, {} landed on the hog",
                            acct.oom_kills, h.kills
                        )
                    });
                }
            }
        }
        r
    }
}

/// Deterministic kernel counts from the public accessors.
fn kernel_counts(r: &mut Report, k: &Kernel, elapsed: Nanos) {
    let s = k.stats();
    let cpus = k.per_cpu_stats();
    let cap = elapsed.as_secs_f64() * cpus.len() as f64;
    let busy: Nanos = cpus
        .iter()
        .map(|c| c.charged_cpu + c.interrupt_cpu + c.overhead_cpu)
        .sum();
    let intr: Nanos = cpus.iter().map(|c| c.interrupt_cpu).sum();
    r.count("simos.sim_events", s.sim_events as f64);
    r.count("simos.upcalls", s.upcalls as f64);
    r.count("simos.ctx_switches", s.ctx_switches as f64);
    r.count("simos.migrations", s.migrations as f64);
    r.count("simos.cpu_busy_frac", busy.as_secs_f64() / cap);
    r.count("simos.interrupt_frac", intr.as_secs_f64() / cap);
    r.count("simnet.pkts_in", s.pkts_in as f64);
    r.count("simnet.early_drops", s.early_drops as f64);
    r.count(
        "simnet.early_drop_frac",
        s.early_drops as f64 / (s.pkts_in.max(1)) as f64,
    );
    let (link_busy, _, link_pkts) = k.link_totals();
    r.count(
        "simnet.link_busy_frac",
        link_busy.as_secs_f64() / elapsed.as_secs_f64(),
    );
    r.count("simnet.link_pkts", link_pkts as f64);
    r.count(
        "simdisk.busy_frac",
        k.disk.total_busy().as_secs_f64() / elapsed.as_secs_f64(),
    );
    r.count(
        "rescon.containers_created",
        k.containers.created_count() as f64,
    );
    if let Some(acct) = k.mem_acct() {
        r.count("simos.mem.reclaims", acct.reclaims as f64);
        r.count("simos.mem.oom_kills", acct.oom_kills as f64);
        r.count("simos.mem.refused", acct.refusals as f64);
    }
}

/// Adds one kernel's counts into a cluster-wide report (sums; fractions
/// are recomputed by the caller).
fn add_count(r: &mut Report, name: &str, v: f64) {
    *r.counts.entry(name.to_string()).or_insert(0.0) += v;
}

/// Server-side counts summed over `servers`.
fn server_counts(r: &mut Report, servers: &[SharedStats]) {
    let (mut accepted, mut hits, mut misses, mut io_errors) = (0, 0, 0, 0);
    for s in servers {
        let s = s.borrow();
        accepted += s.accepted;
        hits += s.cache_hits;
        misses += s.cache_misses;
        io_errors += s.io_errors;
    }
    r.count("httpsim.accepted", accepted as f64);
    r.count(
        "httpsim.cache_hit_ratio",
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    r.count("httpsim.io_errors", io_errors as f64);
}

/// The program's conservation identities on one kernel.
fn kernel_gate(r: &mut Report, k: &Kernel, who: &str) {
    let elapsed = k.clock();
    for (i, c) in k.per_cpu_stats().iter().enumerate() {
        r.check(c.total() == elapsed, || {
            format!(
                "{who} cpu{i}: accounted {} ns of {} ns elapsed",
                c.total().as_nanos(),
                elapsed.as_nanos()
            )
        });
    }
    let (busy, _, _) = k.link_totals();
    let t = &k.containers;
    let floating: Nanos = t
        .floating()
        .iter()
        .map(|&f| t.subtree_tx(f).unwrap_or(Nanos::ZERO))
        .sum();
    let charged = t.subtree_tx(t.root()).unwrap_or(Nanos::ZERO) + floating + t.reaped_tx();
    r.check(charged == busy, || {
        format!(
            "{who}: link busy {} ns but containers charged {} ns of tx",
            busy.as_nanos(),
            charged.as_nanos()
        )
    });
}

/// Closed-loop client specs with seeded start offsets over `ramp`.
fn clients(
    rng: &mut Rng,
    addrs: impl Iterator<Item = (IpAddr, u16)>,
    ramp: Nanos,
    mut shape: impl FnMut(ClientSpec, &mut Rng) -> ClientSpec,
) -> Vec<ClientSpec> {
    addrs
        .map(|(addr, port)| {
            let mut s = ClientSpec::staticloop(addr, 0)
                .starting_at(rng.nanos(Nanos::from_micros(10), ramp));
            s.port = port;
            shape(s, rng)
        })
        .collect()
}

/// `web_rc`: the paper's uniprocessor server path — RC kernel, event-API
/// server, a container per connection (§5.4) and two priority classes
/// (Figure 11) under saturating connection-per-request clients.
fn web_rc(opts: &Options) -> Single {
    const HIGH: usize = 2;
    const LOW: usize = 22;
    let high_net = CidrFilter::new(IpAddr::new(10, 9, 0, 0), 16);
    let cfg = match opts.arm.as_deref() {
        Some("unmodified") => KernelConfig::unmodified(),
        Some("lrp") => KernelConfig::lrp(),
        _ => KernelConfig::resource_containers(),
    };
    let mut k = Kernel::new(cfg);
    let stats = shared_stats();
    let server = ServerConfig {
        api: EventApi::Scalable,
        container_per_connection: matches!(opts.arm.as_deref(), None | Some("rc_per_conn")),
        classes: vec![
            ClassSpec {
                name: "high".to_string(),
                filter: high_net,
                priority: 20,
                notify_syn_drops: false,
            },
            ClassSpec {
                name: "low".to_string(),
                filter: CidrFilter::any(),
                priority: 10,
                notify_syn_drops: false,
            },
        ],
        ..ServerConfig::default()
    };
    k.spawn_process(
        timing::app(
            Box::new(EventDrivenServer::new(server, stats.clone())),
            &opts.ledger,
        ),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut rng = Rng::new(opts.seed, 1);
    let addrs = (0..HIGH)
        .map(|i| (IpAddr::new(10, 9, 0, 1 + i as u8), 80))
        .chain((0..LOW).map(|i| (IpAddr::new(10, 0, 0, 1 + i as u8), 80)));
    let specs = clients(&mut rng, addrs, Nanos::from_millis(2), |s, _| s);
    let warmup_end = Nanos::from_millis(200);
    let end = warmup_end + Nanos::from_millis(1500);
    let c = Rc::new(RefCell::new(HttpClients::new(specs, warmup_end, end)));
    c.borrow().arm(&mut k);
    Single {
        world: timing::world(hosted(&c), &opts.ledger),
        k,
        clients: c,
        quantum: Nanos::from_millis(10),
        warmup_end,
        end,
        ledger: opts.ledger.clone(),
        servers: vec![stats],
        events0: 0,
        snap0: Vec::new(),
        extra: Extra::Web {
            high: HIGH,
            low: LOW,
        },
    }
}

/// `smp_shares`: 4 CPUs, 70/30 fixed-share tenants running CPU-heavy
/// thread-pool servers, persistent closed-loop clients.
fn smp_shares(opts: &Options) -> Single {
    const PER_TENANT: usize = 24;
    let shares = vec![0.7, 0.3];
    let ncpus = if opts.arm_is("ncpus1") { 1 } else { 4 };
    let mut k = Kernel::new(KernelConfig::resource_containers().with_ncpus(ncpus));
    let servers: Vec<SharedStats> = shares.iter().map(|_| shared_stats()).collect();
    let tenants: Vec<ContainerId> = shares
        .iter()
        .enumerate()
        .map(|(t, &share)| {
            let c = k
                .containers
                .create(
                    None,
                    Attributes::fixed_share(share).named(&format!("tenant-{t}")),
                )
                .expect("tenant container");
            k.spawn_process(
                timing::app(
                    Box::new(ThreadPoolServer::new(
                        8000 + t as u16,
                        PER_TENANT as u32,
                        Nanos::from_micros(200),
                        1024,
                        false,
                        servers[t].clone(),
                    )),
                    &opts.ledger,
                ),
                &format!("tenant-httpd-{t}"),
                Some(c),
                Attributes::time_shared(10),
                None,
            );
            c
        })
        .collect();
    let mut rng = Rng::new(opts.seed, 2);
    let addrs = (0..shares.len()).flat_map(|t| {
        (0..PER_TENANT).map(move |i| {
            (
                IpAddr::new(10, 100 + t as u8, 0, 1 + i as u8),
                8000 + t as u16,
            )
        })
    });
    let specs = clients(&mut rng, addrs, Nanos::from_millis(2), |s, rng| {
        // Persistent connections keep the protocol work small next to the
        // parse cost, so the CPU scheduler decides; each connection parks
        // one pool worker, so they are never recycled. A seeded think time
        // staggers the clients without unsaturating the CPUs.
        let mut s = s.with_kind(ReqKind::StaticKeepAlive);
        s.think = rng.nanos(Nanos::ZERO, Nanos::from_micros(100));
        s
    });
    // The 70/30 split is promised over `rcbench smp`'s windows: its
    // shortest run warms up for 1 s and measures 3 s.
    let warmup_end = Nanos::from_secs(1);
    let end = warmup_end + Nanos::from_secs(3);
    let c = Rc::new(RefCell::new(HttpClients::new(specs, warmup_end, end)));
    c.borrow().arm(&mut k);
    Single {
        world: timing::world(hosted(&c), &opts.ledger),
        k,
        clients: c,
        quantum: Nanos::from_millis(5),
        warmup_end,
        end,
        ledger: opts.ledger.clone(),
        servers,
        events0: 0,
        snap0: Vec::new(),
        extra: Extra::Smp { tenants, shares },
    }
}

/// Hog-side counters of `tenants_io`.
#[derive(Default)]
struct HogStats {
    kills: u64,
    reads: u64,
}

/// A tenant that leaks pinned kernel memory and streams files through the
/// buffer cache on a fixed period, over its container's `mem_limit`.
struct MemHog {
    period: Nanos,
    next_file: u64,
    stats: Rc<RefCell<HogStats>>,
}

impl AppHandler for MemHog {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _thread: TaskId, event: AppEvent) {
        match event {
            AppEvent::Start => {
                let at = sys.now() + self.period;
                sys.sleep_until(at, 0);
            }
            AppEvent::Timer { .. } => {
                let _ = sys.kmem_reserve(16 * 1024);
                let file = (1 << 32) + self.next_file;
                self.next_file = (self.next_file + 1) % 128;
                sys.read_file(file, 8 * 1024, 1, None);
                let at = sys.now() + self.period;
                sys.sleep_until(at, 0);
            }
            AppEvent::FileRead { .. } => self.stats.borrow_mut().reads += 1,
            AppEvent::MemKill { .. } => self.stats.borrow_mut().kills += 1,
            _ => {}
        }
    }
}

/// `tenants_io`: one CPU, a finite WFQ link, a share-scheduled disk behind
/// the buffer cache, a cache hog over its `mem_limit`, and an open-loop
/// SYN flood from a prefix the server's defense isolates.
fn tenants_io(opts: &Options) -> Single {
    const WEB: usize = 12;
    const BULK: usize = 8;
    const DOCS: u32 = 8;
    const HOT: u32 = 32;
    let flood_net = CidrFilter::new(IpAddr::new(192, 168, 0, 0), 16);
    let link = !opts.arm_is("no_link");
    let mem = !opts.arm_is("no_mem_limit");
    // A per-listener SYN budget refuses flood SYNs at interrupt level
    // (and still notifies the server, whose defense isolates the prefix).
    let mut cfg = KernelConfig::resource_containers()
        .with_disk(DiskParams::default())
        .with_admission(64, 0);
    // Half-open flood entries left in the default listener before the
    // defense isolates the prefix expire quickly instead of locking
    // legitimate clients out for the default 5 s.
    cfg.net.syn_timeout = Nanos::from_millis(250);
    if link {
        cfg = cfg.with_link(100_000_000, QdiscKind::Wfq);
    }
    if mem {
        cfg = cfg.with_mem(MemParams::new());
    }
    cfg.disk.buffer_cache_bytes = 2 << 20;
    let mut k = Kernel::new(cfg);
    let web = k
        .containers
        .create(
            None,
            Attributes::fixed_share(0.5).with_net_weight(3).named("web"),
        )
        .expect("web tenant");
    let bulk = k
        .containers
        .create(
            None,
            Attributes::fixed_share(0.3)
                .with_net_weight(1)
                .named("bulk"),
        )
        .expect("bulk tenant");
    let hog = k
        .containers
        .create(
            None,
            Attributes::fixed_share(0.1)
                .with_mem_limit(256 * 1024)
                .named("hog"),
        )
        .expect("hog tenant");

    let web_stats = shared_stats();
    let web_server = ServerConfig {
        port: 8000,
        conn_parent: Some(web),
        container_per_connection: false,
        response_bytes: 8 * 1024,
        files: if opts.arm_is("cached_files") {
            FileBacking::AlwaysCached
        } else {
            FileBacking::Disk { file_base: 0 }
        },
        defense: true,
        defense_mask: 16,
        defense_threshold: 16,
        classes: vec![ClassSpec {
            name: "default".to_string(),
            filter: CidrFilter::any(),
            priority: 10,
            notify_syn_drops: true,
        }],
        ..ServerConfig::default()
    };
    k.spawn_process(
        timing::app(
            Box::new(EventDrivenServer::new(web_server, web_stats.clone())),
            &opts.ledger,
        ),
        "web-httpd",
        Some(web),
        Attributes::time_shared(10),
        None,
    );
    let bulk_stats = shared_stats();
    let bulk_server = ServerConfig {
        port: 8001,
        conn_parent: Some(bulk),
        container_per_connection: false,
        response_bytes: 24 * 1024,
        files: FileBacking::AlwaysCached,
        ..ServerConfig::default()
    };
    k.spawn_process(
        timing::app(
            Box::new(EventDrivenServer::new(bulk_server, bulk_stats.clone())),
            &opts.ledger,
        ),
        "bulk-httpd",
        Some(bulk),
        Attributes::time_shared(10),
        None,
    );
    let hog_stats = Rc::new(RefCell::new(HogStats::default()));
    k.spawn_process(
        timing::app(
            Box::new(MemHog {
                period: Nanos::from_millis(2),
                next_file: 0,
                stats: Rc::clone(&hog_stats),
            }),
            &opts.ledger,
        ),
        "memhog",
        Some(hog),
        Attributes::time_shared(10),
        None,
    );

    let mut rng = Rng::new(opts.seed, 3);
    let addrs = (0..WEB)
        .map(|i| (IpAddr::new(10, 100, 0, 1 + i as u8), 8000))
        .chain((0..BULK).map(|i| (IpAddr::new(10, 101, 0, 1 + i as u8), 8001)));
    let mut n = 0;
    let specs = clients(&mut rng, addrs, Nanos::from_millis(5), |mut s, rng| {
        if s.port == 8000 {
            // Most web clients sweep a seeded slice of a hot document set
            // that the cache holds; every fourth streams cold documents
            // that always reach the disk.
            s = if n % 4 == 3 {
                s.doc = 1_000_000 + rng.below(1 << 20) as u32;
                s.cycling_docs(1 << 20)
            } else {
                s.doc = rng.below(HOT as u64) as u32;
                s.cycling_docs(DOCS)
            };
            n += 1;
        }
        // A client whose SYN the flood crowds out before the defense
        // isolates the prefix gives up and retries soon.
        s.with_timeout(Nanos::from_millis(300))
    });
    let warmup_end = Nanos::from_millis(1000);
    let end = warmup_end + Nanos::from_millis(1500);
    let c = Rc::new(RefCell::new(HttpClients::new(specs, warmup_end, end)));
    let flood = Rc::new(RefCell::new(SynFlood::new(
        IpAddr::new(192, 168, 0, 0),
        1024,
        4000.0,
        8000,
    )));
    let mut composite = CompositeWorld::new();
    let off_flood = composite.add(flood_net, hosted(&flood));
    let off_clients = composite.add(CidrFilter::any(), hosted(&c));
    flood.borrow().arm_offset(&mut k, off_flood);
    c.borrow().arm_offset(&mut k, off_clients);
    Single {
        world: timing::world(Box::new(composite), &opts.ledger),
        k,
        clients: c,
        quantum: Nanos::from_millis(10),
        warmup_end,
        end,
        ledger: opts.ledger.clone(),
        servers: vec![web_stats, bulk_stats],
        events0: 0,
        snap0: Vec::new(),
        extra: Extra::Io {
            flood,
            hog: hog_stats,
            link,
            mem,
        },
    }
}

// ---------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------

/// Tenant count and sizing of `cluster_fanout`.
const NODES: u32 = 8;
const CLUSTER_CLIENTS: usize = 100_000;
const CLUSTER_SHARES: [f64; 2] = [0.7, 0.3];
/// Lane latency, which is also the length of the cluster's conservative
/// rounds (its lookahead).
const ROUND: Nanos = Nanos::from_micros(200);
/// Mean client think time: 100k clients thinking 16 s offer ~6.3k req/s.
const THINK: Nanos = Nanos::from_secs(16);

/// `cluster_fanout`: 8 single-CPU RC nodes behind the frontend, 100k
/// closed-loop clients with think time, and the share/orchestrator epoch
/// loop.
struct ClusterBench {
    world: Cluster,
    clients: Rc<RefCell<HttpClients>>,
    shares: GlobalShare,
    targets: Vec<f64>,
    orch: Orchestrator,
    quantum: Nanos,
    epoch: Nanos,
    warmup_end: Nanos,
    end: Nanos,
    ledger: Option<Rc<Ledger>>,
    /// Every replica's server stats, in spawn order.
    servers: Vec<SharedStats>,
    prev_busy: Vec<Nanos>,
    prev_at: Nanos,
    events0: u64,
    /// Conservative rounds `World::run` has stepped since the window
    /// started.
    rounds: u64,
    placements: u64,
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn spawn_replica(
    world: &mut Cluster,
    t: usize,
    node: NodeId,
    share: f64,
    ledger: &Option<Rc<Ledger>>,
    servers: &mut Vec<SharedStats>,
) {
    let name = tenant_name(t);
    let k = world.kernel_mut(node);
    if k.containers.find_by_name(&name).is_some() {
        return;
    }
    let c = k
        .containers
        .create(None, Attributes::fixed_share(share).named(&name))
        .expect("tenant container");
    let stats = shared_stats();
    servers.push(stats.clone());
    k.spawn_process(
        timing::app(
            Box::new(ThreadPoolServer::new(
                8000 + t as u16,
                8,
                Nanos::from_micros(200),
                1024,
                false,
                stats,
            )),
            ledger,
        ),
        &format!("{name}-httpd"),
        Some(c),
        Attributes::time_shared(10),
        None,
    );
}

fn cluster_fanout(opts: &Options) -> ClusterBench {
    let nt = CLUSTER_SHARES.len();
    let initial = [NODES as usize, NODES as usize / 2];
    let mut rng = Rng::new(opts.seed, 4);
    let mut specs = Vec::with_capacity(CLUSTER_CLIENTS);
    for (t, share) in CLUSTER_SHARES.iter().enumerate() {
        // Clients split like the shares, so neither tenant's demand
        // exceeds what its share entitles it to.
        let per = (CLUSTER_CLIENTS as f64 * share).round() as usize;
        for i in 0..per {
            let addr = IpAddr::new(20 + t as u8, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            // First requests spread over one think time and seeded
            // per-client think times, so the offered load is steady from
            // the start instead of arriving as one connection storm.
            let mut s = ClientSpec::staticloop(addr, 0)
                .with_timeout(Nanos::from_secs(2))
                .with_backoff(Nanos::from_millis(100))
                .starting_at(rng.nanos(Nanos::from_micros(10), THINK));
            s.port = 8000 + t as u16;
            s.think = rng.nanos(THINK / 2, THINK + THINK / 2);
            specs.push(s);
        }
    }
    let warmup_end = Nanos::from_millis(500);
    let end = warmup_end + Nanos::from_millis(1000);
    let clients = Rc::new(RefCell::new(HttpClients::new(specs, warmup_end, end)));
    let routes = (0..nt)
        .map(|t| {
            TenantRoute::new(
                CidrFilter::new(IpAddr::new(20 + t as u8, 0, 0, 0), 8),
                (0..initial[t] as u32).map(|n| (NodeId(n), 10)).collect(),
            )
        })
        .collect();
    let mut frontend = Frontend::new(timing::world(hosted(&clients), &opts.ledger), routes);
    clients
        .borrow()
        .arm_with(|tag, at| frontend.arm_world_timer(tag, at));
    let nodes = (0..NODES)
        .map(|n| NodeSpec::new(format!("node{n}"), KernelConfig::resource_containers()))
        .collect();
    let mut world = Cluster::new(nodes, frontend, LaneSpec::new(ROUND, 10_000_000_000));
    let mut servers = Vec::new();
    for (t, &n) in initial.iter().enumerate() {
        for node in 0..n as u32 {
            spawn_replica(
                &mut world,
                t,
                NodeId(node),
                CLUSTER_SHARES[t],
                &opts.ledger,
                &mut servers,
            );
        }
    }
    let shares = GlobalShare::new(
        (0..nt)
            .map(|t| TenantShare {
                container: tenant_name(t),
                target: CLUSTER_SHARES[t],
            })
            .collect(),
        0.8,
    );
    let targets = shares.targets();
    let orch = Orchestrator::new(
        OrchestratorConfig::default(),
        (0..nt)
            .map(|t| (0..initial[t] as u32).map(NodeId).collect())
            .collect(),
    );
    ClusterBench {
        world,
        clients,
        shares,
        targets,
        orch,
        quantum: Nanos::from_millis(10),
        epoch: Nanos::from_millis(100),
        warmup_end,
        end,
        ledger: opts.ledger.clone(),
        servers,
        prev_busy: vec![Nanos::ZERO; NODES as usize],
        prev_at: Nanos::ZERO,
        events0: 0,
        rounds: 0,
        placements: 0,
    }
}

impl ClusterBench {
    fn events(&self) -> u64 {
        (0..NODES)
            .map(|n| self.world.kernel(NodeId(n)).stats().sim_events)
            .sum()
    }

    fn run_world(&mut self, until: Nanos) {
        // `World::run` steps in rounds one lane latency long, the last one
        // cut at `until`.
        let span = (until - self.world.clock()).as_nanos();
        self.rounds += span.div_ceil(ROUND.as_nanos());
        match &self.ledger {
            Some(l) => {
                let l = Rc::clone(l);
                l.step.time(|| self.world.run(until));
            }
            None => self.world.run(until),
        }
    }

    /// One control epoch: per-node busy fractions, the global share
    /// rebalance, and the orchestrator's placement decisions.
    fn control(&mut self) {
        let now = self.world.clock();
        let dt = (now - self.prev_at).as_secs_f64();
        self.prev_at = now;
        let mut busy = vec![0.0; NODES as usize];
        for (n, b) in busy.iter_mut().enumerate() {
            let used = self.world.kernel(NodeId(n as u32)).stats().busy();
            *b = (used - self.prev_busy[n]).as_secs_f64() / dt.max(1e-9);
            self.prev_busy[n] = used;
        }
        let ledger = self.ledger.clone();
        let measured = match &ledger {
            Some(l) => l.rebalance.time(|| self.shares.rebalance(&mut self.world)),
            None => self.shares.rebalance(&mut self.world),
        };
        let actions = match &ledger {
            Some(l) => l
                .tick
                .time(|| self.orch.tick(&measured, &self.targets, &busy)),
            None => self.orch.tick(&measured, &self.targets, &busy),
        };
        for action in actions {
            match action {
                Action::Place { tenant, node } => {
                    spawn_replica(
                        &mut self.world,
                        tenant,
                        node,
                        0.02,
                        &ledger,
                        &mut self.servers,
                    );
                    self.world.frontend.set_weight(tenant, node, 10);
                    self.placements += 1;
                }
                Action::Drain { tenant, node } => {
                    self.world.frontend.set_weight(tenant, node, 0);
                }
            }
        }
    }
}

impl Bench for ClusterBench {
    fn quantum(&self) -> Nanos {
        self.quantum
    }

    fn warmup_end(&self) -> Nanos {
        self.warmup_end
    }

    fn end(&self) -> Nanos {
        self.end
    }

    fn advance(&mut self, horizon: Nanos) {
        self.run_world(horizon);
        if horizon.as_nanos().is_multiple_of(self.epoch.as_nanos()) {
            self.control();
        }
    }

    fn run_to(&mut self, until: Nanos) {
        while self.world.clock() < until {
            let next = Nanos::from_nanos(
                (self.world.clock().as_nanos() / self.epoch.as_nanos() + 1) * self.epoch.as_nanos(),
            )
            .min(until);
            self.advance(next);
        }
    }

    fn start_window(&mut self) {
        self.events0 = self.events();
        self.rounds = 0;
    }

    fn report(&self) -> Report {
        let mut r = Report::default();
        let window = (self.end - self.warmup_end).as_secs_f64();
        {
            let c = self.clients.borrow();
            let m = c.metrics.class(0);
            r.goodput_rps = m.completed_in_window as f64 / window;
            r.latency_p99_ms = m.latency_ms.quantile(0.99);
            r.completed = m.completed;
            r.abandoned = m.abandoned;
            r.count("workload.abandoned", m.abandoned as f64);
        }
        r.window_events = self.events() - self.events0;
        let elapsed = self.world.clock();
        let mut busy = 0.0;
        let mut intr = 0.0;
        for n in 0..NODES {
            let k = self.world.kernel(NodeId(n));
            let s = k.stats();
            kernel_gate(&mut r, k, &format!("node{n}"));
            add_count(&mut r, "simos.sim_events", s.sim_events as f64);
            add_count(&mut r, "simos.upcalls", s.upcalls as f64);
            add_count(&mut r, "simos.ctx_switches", s.ctx_switches as f64);
            add_count(&mut r, "simos.migrations", s.migrations as f64);
            add_count(&mut r, "simnet.pkts_in", s.pkts_in as f64);
            add_count(&mut r, "simnet.early_drops", s.early_drops as f64);
            add_count(
                &mut r,
                "rescon.containers_created",
                k.containers.created_count() as f64,
            );
            busy += s.busy().as_secs_f64();
            intr += s.interrupt_cpu.as_secs_f64();
        }
        let cap = elapsed.as_secs_f64() * NODES as f64;
        r.count("simos.cpu_busy_frac", busy / cap);
        r.count("simos.interrupt_frac", intr / cap);
        let pkts_in = r.counts["simnet.pkts_in"];
        let drops = r.counts["simnet.early_drops"];
        r.count("simnet.early_drop_frac", drops / pkts_in.max(1.0));
        let lanes = self.world.lanes_busy_total();
        r.check(lanes == self.world.tx_total(), || {
            format!(
                "lanes busy {} ns but {} ns of wire charged",
                lanes.as_nanos(),
                self.world.tx_total().as_nanos()
            )
        });
        server_counts(&mut r, &self.servers);
        let fs = self.world.frontend.stats;
        r.count("simcluster.forwarded", fs.forwarded as f64);
        r.count(
            "simcluster.lane_busy_frac",
            lanes.as_secs_f64() / (elapsed.as_secs_f64() * 2.0 * NODES as f64),
        );
        r.count("simcluster.placements", self.placements as f64);
        // Fixed by the window's length and the lookahead, not a cost: it
        // turns the window's stepping wall into a per-round figure.
        r.count("simcluster.rounds", self.rounds as f64);
        r.check(fs.unroutable == 0, || {
            format!("{} unroutable packets", fs.unroutable)
        });
        r.check(r.goodput_rps > 0.0, || {
            "no request completed in the window".into()
        });
        let failed = r.failed_frac();
        r.check(failed < 0.01, || {
            format!("{failed:.4} of requests failed below capacity")
        });
        r
    }
}

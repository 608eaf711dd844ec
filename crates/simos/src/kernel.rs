//! The kernel proper: event loop, CPU accounting, interrupt path, and the
//! per-process kernel network threads.
//!
//! # Execution model
//!
//! `ncpus` simulated CPUs (one by default). Each CPU has its own clock,
//! run queue, and accounting; a CPU's clock advances only by consuming CPU
//! (scheduled work, interrupt-level work, context-switch overhead) or by
//! explicit idling to the next event. The event loop always steps the
//! CPU(s) whose clock is furthest behind (the *frontier*), so kernel
//! events are delivered in global time order and a single-CPU
//! configuration reproduces the classic uniprocessor loop exactly. Work
//! items carry their CPU cost and apply their effects only after the cost
//! has been consumed, so application-visible latencies reflect contention
//! faithfully.
//!
//! Fixed-share guarantees remain *global*: per-CPU queues divide each
//! CPU locally, and a periodic container-aware load balancer
//! ([`KernelEvent::Balance`], multiprocessor only) migrates threads so
//! every container's runnable threads stay spread across CPUs, ranked by
//! how far each container lags its entitlement.
//!
//! # Interrupt level
//!
//! Packet arrival always costs an early-demultiplex charge at interrupt
//! level (`CostModel::intr_demux`), paid before any scheduled work —
//! modelling hardware/software interrupts having "strictly higher priority
//! than any user-level code" (§3.2). Under [`NetDiscipline::Interrupt`]
//! the *entire* protocol processing also runs there, charged to no
//! resource principal: the misaccounting and livelock source the paper
//! attacks. Under [`NetDiscipline::Lrp`] and
//! [`NetDiscipline::Container`], the interrupt only classifies the packet
//! into a bounded per-principal queue; a per-process kernel thread later
//! performs protocol processing in principal-priority order, charged to
//! the principal (§4.7).

use std::collections::{BTreeMap, HashMap};

use rcpolicy::Plane;
use rescon::{Attributes, ContainerId, ContainerTable, MemClass};
use sched::{CpuId, Scheduler, TaskId};
use simcore::fault::{DiskFault, FaultCounts, FaultInjector, FaultPlan, NetFault};
use simcore::span::{self, Outcome, Phase};
use simcore::trace::{self, TraceEventKind, NO_CONTAINER};
use simcore::{EventQueue, Nanos, SpanRef};
use simdisk::{BufferCache, DiskParams, DiskRequest, ReqId, SimDisk};
use simnet::{
    CidrFilter, Demux, Dispatch, LinkParams, LinkSched, NetDiscipline, NetEvent, NetStack, Packet,
    PendingQueues, QdiscKind, SockId, Socket,
};

use crate::app::{AppEvent, AppHandler};
use crate::cost::CostModel;
use crate::ids::Pid;
use crate::mem::{self, MemAccountant, MemFailure, MemParams};
use crate::process::Process;
use crate::slab::{IdSlab, SockTable};
use crate::stats::KernelStats;
use crate::syscall::{ListenSpec, SysCtx};
use crate::thread::{Op, Thread, ThreadKind, ThreadState, WaitFor, WorkItem};
use crate::world::{World, WorldAction};

// Policy kinds live in the `rcpolicy` registry; the historical simos
// names are kept as aliases so existing configs and harnesses read
// unchanged.
pub use rcpolicy::CpuPolicyKind as SchedPolicyKind;
pub use rcpolicy::DiskPolicyKind as DiskSchedKind;

/// Network-plane configuration: processing discipline, listener queue
/// depths, admission budgets, socket buffering, and the optional finite
/// transmit link.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Network-processing discipline (§3.2, §4.7).
    pub discipline: NetDiscipline,
    /// SYN-queue depth of new listeners.
    pub syn_backlog: usize,
    /// Accept-queue depth of new listeners.
    pub accept_backlog: usize,
    /// Per-principal cap on unprocessed received packets (lazy
    /// disciplines); beyond it packets are dropped at interrupt level
    /// ("excess traffic is discarded early").
    pub pending_cap: usize,
    /// Half-open connection timeout.
    pub syn_timeout: Nanos,
    /// Socket-buffer bytes charged to a connection's container while the
    /// connection is open (§4.4: containers account for memory such as
    /// socket buffers); a container subtree over its memory limit refuses
    /// new connections.
    pub sockbuf_bytes: u64,
    /// Per-listener admission budget on half-open (SYN) connections: a
    /// SYN classifying to a listener whose SYN queue already holds this
    /// many entries is dropped at interrupt level, charged to the
    /// *classifying* container (the attacker pays, not the listener).
    /// Zero disables admission control.
    pub syn_budget: usize,
    /// Per-listener admission budget on the accept queue, enforced the
    /// same way on the final ACK. Zero disables it.
    pub accept_budget: usize,
    /// Finite-bandwidth transmit link model. `None` (the default) keeps
    /// the classic infinite-bandwidth wire: packets leave after
    /// `cost.link_latency` with no queueing, no transmit charging, and no
    /// backpressure, leaving existing runs byte-identical.
    pub link: Option<LinkParams>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            discipline: NetDiscipline::Interrupt,
            syn_backlog: 1024,
            accept_backlog: 128,
            pending_cap: 256,
            syn_timeout: Nanos::from_secs(5),
            sockbuf_bytes: 16 * 1024,
            syn_budget: 0,
            accept_budget: 0,
            link: None,
        }
    }
}

/// Disk-plane configuration: physical cost model, request ordering, and
/// the accounted buffer cache.
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Physical cost model of the disk.
    pub params: DiskParams,
    /// Disk request ordering discipline.
    pub sched: DiskSchedKind,
    /// Buffer-cache capacity in bytes; resident files are charged to their
    /// owning container's memory counter.
    pub buffer_cache_bytes: u64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            params: DiskParams::default(),
            sched: DiskSchedKind::Fifo,
            buffer_cache_bytes: 16 * 1024 * 1024,
        }
    }
}

/// CPU-plane configuration: scheduling policy, processor count, and the
/// periodic maintenance intervals tied to the scheduler.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// CPU scheduler.
    pub policy: SchedPolicyKind,
    /// Number of simulated CPUs (clamped to at least 1 at boot).
    pub ncpus: u32,
    /// Interval of the container-aware load balancer. Only armed on
    /// multiprocessor configurations (`ncpus > 1`); zero disables it.
    pub balance_interval: Nanos,
    /// How often the kernel prunes thread scheduler bindings (§4.3);
    /// zero disables pruning.
    pub prune_interval: Nanos,
    /// Entries idle longer than this are pruned from scheduler bindings.
    pub prune_age: Nanos,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: SchedPolicyKind::DecayUsage,
            ncpus: 1,
            balance_interval: Nanos::from_millis(5),
            prune_interval: Nanos::ZERO,
            prune_age: Nanos::from_millis(500),
        }
    }
}

/// Kernel configuration: one per simulated system variant. The per-plane
/// knobs live in typed sub-configs ([`NetConfig`], [`DiskConfig`],
/// [`SchedConfig`], [`MemParams`], [`FaultPlan`]) so a cluster `NodeSpec`
/// can reuse them wholesale; the `with_*` builders below keep the flat
/// construction surface unchanged.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Network-plane knobs (discipline, backlogs, budgets, link).
    pub net: NetConfig,
    /// Disk-plane knobs (cost model, ordering, buffer cache).
    pub disk: DiskConfig,
    /// CPU-plane knobs (policy, ncpus, maintenance intervals).
    pub sched: SchedConfig,
    /// Per-operation CPU costs.
    pub cost: CostModel,
    /// Whether the container API is available to applications. When
    /// `false` the kernel still accounts internally to per-process default
    /// containers, but applications see the classic UNIX interface.
    pub containers_enabled: bool,
    /// Seeded fault-injection schedule; `None` (the default) injects
    /// nothing and leaves every run byte-identical to a fault-free build.
    pub fault: Option<FaultPlan>,
    /// Kernel memory subsystem (`simmem`). `None` (the default) keeps the
    /// legacy ad-hoc socket-buffer charging with no stacks, no protocol
    /// control blocks, no reclaim, and no OOM, leaving existing runs
    /// byte-identical. `Some` routes every kernel allocation through a
    /// [`MemAccountant`] with pressure, reclaim, and container-targeted
    /// OOM (§4.4).
    pub mem: Option<MemParams>,
}

impl KernelConfig {
    /// The paper's **unmodified system**: interrupt-level protocol
    /// processing, decay-usage scheduling over processes, no container
    /// API.
    pub fn unmodified() -> Self {
        KernelConfig {
            net: NetConfig::default(),
            disk: DiskConfig::default(),
            sched: SchedConfig::default(),
            cost: CostModel::default(),
            containers_enabled: false,
            fault: None,
            mem: None,
        }
    }

    /// The **LRP system**: lazy per-process protocol processing, still
    /// process-centric scheduling and no container API.
    pub fn lrp() -> Self {
        let mut cfg = Self::unmodified();
        cfg.net.discipline = NetDiscipline::Lrp;
        cfg
    }

    /// The **RC system**: container queues, the multi-level scheduler, and
    /// the full container API (the paper's prototype).
    pub fn resource_containers() -> Self {
        let mut cfg = Self::unmodified();
        cfg.net.discipline = NetDiscipline::Container;
        cfg.sched.policy = SchedPolicyKind::MultiLevel;
        cfg.containers_enabled = true;
        cfg.sched.prune_interval = Nanos::from_secs(1);
        cfg.disk.sched = DiskSchedKind::Share;
        cfg
    }

    /// Replaces the whole network-plane sub-config (builder style).
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replaces the whole disk-plane sub-config (builder style).
    pub fn with_disk_config(mut self, disk: DiskConfig) -> Self {
        self.disk = disk;
        self
    }

    /// Replaces the whole CPU-plane sub-config (builder style).
    pub fn with_sched_config(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Replaces the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the CPU scheduling policy (builder style). Any policy in
    /// the [`rcpolicy`] registry is selectable, including the stride and
    /// lottery ablations and the deadline-driven EDF policy.
    pub fn with_scheduler(mut self, kind: SchedPolicyKind) -> Self {
        self.sched.policy = kind;
        self
    }

    /// Replaces the disk request-ordering policy (builder style).
    pub fn with_disk_sched(mut self, kind: DiskSchedKind) -> Self {
        self.disk.sched = kind;
        self
    }

    /// Replaces the disk cost model (builder style).
    pub fn with_disk(mut self, disk: DiskParams) -> Self {
        self.disk.params = disk;
        self
    }

    /// Sets the buffer-cache capacity (builder style).
    pub fn with_buffer_cache(mut self, bytes: u64) -> Self {
        self.disk.buffer_cache_bytes = bytes;
        self
    }

    /// Sets the number of simulated CPUs (builder style).
    pub fn with_ncpus(mut self, n: u32) -> Self {
        self.sched.ncpus = n.max(1);
        self
    }

    /// Installs a fault-injection plan (builder style).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the per-listener admission budgets (builder style). Zero
    /// disables the corresponding limit.
    pub fn with_admission(mut self, syn_budget: usize, accept_budget: usize) -> Self {
        self.net.syn_budget = syn_budget;
        self.net.accept_budget = accept_budget;
        self
    }

    /// Models a finite-bandwidth transmit link with the given queueing
    /// discipline (builder style). Transmitted wire time is charged to the
    /// owning container and `sockbuf_limit` becomes real send
    /// backpressure.
    pub fn with_link(mut self, bandwidth_bps: u64, qdisc: QdiscKind) -> Self {
        self.net.link = Some(LinkParams::new(bandwidth_bps, qdisc));
        self
    }

    /// Enables the kernel memory subsystem (builder style): all kernel
    /// memory — socket buffers, protocol state, thread stacks, cache
    /// pages, reservations — is charged per class against container
    /// `mem_limit`s, with reclaim and container-targeted OOM.
    pub fn with_mem(mut self, params: MemParams) -> Self {
        self.mem = Some(params);
        self
    }
}

/// Internal kernel events.
#[derive(Clone, Debug)]
enum KernelEvent {
    /// A packet reached the server NIC.
    PacketIn(Packet),
    /// A server packet reached the client side of the wire.
    PacketToWorld(Packet),
    /// A world timer fired.
    WorldTimer(u64),
    /// An application timer fired.
    TimerFired(TaskId, u64),
    /// Periodic scheduler-binding pruning.
    Prune,
    /// The disk's in-flight request finished.
    DiskTick,
    /// Periodic container-aware load balancing (multiprocessor only; never
    /// scheduled on a uniprocessor, so single-CPU event schedules are
    /// untouched).
    Balance,
    /// The link either finished its in-flight packet or a rate cap opened
    /// up. Only armed when a finite link is configured, so linkless event
    /// schedules are untouched.
    LinkTick,
}

/// A thread parked on a disk read.
#[derive(Clone, Copy, Debug)]
struct DiskWaiter {
    task: TaskId,
    tag: u64,
    /// Insert the file into the buffer cache on completion.
    cache: bool,
    /// Request span waiting on this read (`0` = none).
    span: u64,
}

/// Per-span transmit bookkeeping for the causal-tracing layer: how many
/// of the request's response packets are queued towards the link or on
/// the wire, and whether the application armed finish-on-last-wire-byte
/// ([`SysCtx::span_finish_on_tx`]). Purely observational.
#[derive(Clone, Copy, Debug, Default)]
struct SpanTxState {
    /// Response packets accepted by `send` but not yet fully transmitted.
    queued: u32,
    /// Response packets currently occupying the wire.
    wire: u32,
    /// Finish the span `Completed` once `queued` and `wire` drain.
    armed: bool,
}

/// Per-CPU mutable state: its clock, pending uncharged work, and the
/// bookkeeping needed to detect context switches locally.
#[derive(Clone, Copy, Debug, Default)]
struct CpuState {
    clock: Nanos,
    /// Interrupt + context-switch work owed; paid before scheduled work.
    overhead_deficit: Nanos,
    /// Portion of `overhead_deficit` that is context-switch overhead (the
    /// rest is interrupt work).
    switch_deficit: Nanos,
    last_task: Option<TaskId>,
    stats: crate::stats::CpuStats,
}

/// What [`Kernel::step_until`] reports back to a cluster driver at the
/// end of each conservative round.
#[derive(Clone, Copy, Debug)]
pub struct NodeYield {
    /// The kernel clock after the step (always the requested horizon).
    pub now: Nanos,
    /// Earliest pending internal event, if any (`None` = queue dry); a
    /// driver may use this as a lookahead hint.
    pub next_event: Option<Nanos>,
    /// Packets waiting in the egress buffer after this step.
    pub egress: usize,
}

/// Result of giving one CPU a chance to run at the frontier.
enum StepOutcome {
    /// The CPU consumed time or changed scheduler state; re-derive the
    /// frontier before stepping anyone else.
    Progress,
    /// Nothing to run on this CPU before the given time (`Nanos::MAX` =
    /// nothing ever again).
    Idle(Nanos),
}

/// The simulated kernel.
pub struct Kernel {
    /// Configuration (public for inspection by harnesses).
    pub cfg: KernelConfig,
    clock: Nanos,
    events: EventQueue<KernelEvent>,
    /// The container table (public: harnesses read usage directly).
    pub containers: ContainerTable,
    /// The network stack (public for tests/harnesses).
    pub stack: NetStack,
    scheduler: Box<dyn Scheduler>,
    pub(crate) threads: IdSlab<TaskId, Thread>,
    /// `resume_wait`: a wait to restore after an out-of-band upcall.
    resume_waits: IdSlab<TaskId, WaitFor>,
    processes: IdSlab<Pid, Process>,
    handlers: IdSlab<Pid, Option<Box<dyn AppHandler>>>,
    pending: IdSlab<Pid, PendingQueues<ContainerId>>,
    kthreads: IdSlab<Pid, TaskId>,
    sock_owner: SockTable<Socket, Pid>,
    /// Socket-buffer memory charged per connection (released on close).
    sockbuf_charges: SockTable<Socket, (ContainerId, u64)>,
    /// Protocol-control-block memory charged per connection when the
    /// memory subsystem is configured (class `ConnState`).
    pcb_charges: SockTable<Socket, (ContainerId, u64)>,
    /// Kernel-stack memory charged per thread when the memory subsystem
    /// is configured (class `ThreadStack`), released at thread exit.
    stack_charges: IdSlab<TaskId, (ContainerId, u64)>,
    /// Pinned memory reserved via `kmem_reserve` per process (class
    /// `Other`), released explicitly, at exit, or by an OOM kill.
    kmem_charges: IdSlab<Pid, (ContainerId, u64)>,
    /// The kernel memory accountant (present iff `cfg.mem` is set).
    mem: Option<MemAccountant>,
    /// The disk device (public: harnesses read busy time and queue depth).
    pub disk: SimDisk,
    /// The accounted buffer cache (public: harnesses read hit/miss stats).
    pub disk_cache: BufferCache,
    /// Threads waiting on in-flight disk reads.
    disk_waiters: HashMap<ReqId, DiskWaiter>,
    /// Transmit bookkeeping per open request span (empty when the span
    /// layer is off).
    span_tx: HashMap<u64, SpanTxState>,
    /// Whether a `DiskTick` is scheduled for the current in-flight request.
    disk_tick_armed: bool,
    next_task: u32,
    next_pid: u32,
    stats: KernelStats,
    /// One state block per simulated CPU (`cfg.sched.ncpus` entries).
    cpus: Vec<CpuState>,
    /// Round-robin cursor for placing new application threads.
    next_app_cpu: u32,
    /// Home CPU per container (kernel network threads run there), plus the
    /// round-robin cursor assigning homes on first use.
    container_home: HashMap<u64, u32>,
    next_home_cpu: u32,
    /// `subtree_cpu` per container at the previous balance tick, for
    /// computing per-window lag.
    balance_snapshot: HashMap<u64, Nanos>,
    /// Fault-decision streams derived from `cfg.fault` (absent when no
    /// plan is configured; the hot paths then skip every draw).
    injector: Option<FaultInjector>,
    /// Early-drop charges per container (`Idx::as_u64()` keys): every
    /// packet dropped before protocol processing — no-owner, queue-full,
    /// or admission-control — is billed here to the container the packet
    /// *classified to*, making the attacker-pays invariant assertable.
    drop_charges: BTreeMap<u64, u64>,
    /// The transmit queueing discipline (present iff `cfg.net.link` is set).
    link: Option<Box<dyn LinkSched>>,
    /// The packet currently occupying the wire.
    link_inflight: Option<LinkInflight>,
    /// Deadline of the earliest armed throttle `LinkTick`, to avoid
    /// flooding the event queue with redundant ticks.
    link_wait_until: Option<Nanos>,
    /// Reverse map from `Idx::as_u64()` keys handed to the link scheduler
    /// back to live container ids for wire-time charging.
    link_owner_ids: HashMap<u64, ContainerId>,
    /// Unsent payload bytes reserved against each owner's sockbuf limit
    /// (`Idx::as_u64()` keys); grows at `send()`, drains at wire
    /// completion.
    tx_backlog: HashMap<u64, u64>,
    /// Total wire time the link spent transmitting.
    link_busy: Nanos,
    /// Total wire bytes transmitted.
    link_wire_bytes: u64,
    /// Total packets transmitted over the finite link.
    link_pkts: u64,
    /// Per-listener admission budgets `(syn, accept)` installed by
    /// `ListenSpec`; listeners absent here use the global config budgets.
    listener_budgets: SockTable<Socket, (usize, usize)>,
    /// Cached `trace::enabled()` for the duration of a `run` call (trace
    /// sessions start and finish outside `run`), gating the hot-path
    /// `trace::set_now` updates behind a plain branch instead of a
    /// thread-local access.
    trace_on: bool,
    /// Cached `span::enabled()`, same invariant as `trace_on`.
    spans_on: bool,
    /// Reusable protocol-event buffer: `receive_packet` and the ProtoRx
    /// kthread path drain it in place instead of allocating a fresh
    /// `Vec<NetEvent>` per packet.
    net_buf: Vec<NetEvent>,
    /// Reusable world-action buffer, same idea for `PacketToWorld` and
    /// `WorldTimer` events.
    world_buf: Vec<WorldAction>,
    /// Reusable buffer for the idle path's scan of parked kernel network
    /// threads with pending backlog.
    parked_buf: Vec<(Pid, TaskId)>,
    /// Reusable per-CPU `(runnable app threads, lowest such id)` tallies
    /// for `steal_candidate`.
    steal_buf: Vec<(usize, Option<TaskId>)>,
    /// Foreign-address prefixes owned by *other* cluster nodes: a
    /// world-bound packet whose flow source matches one of these is
    /// diverted into `egress_buf` (for the cluster driver to carry over an
    /// inter-node link) instead of being delivered to the local world.
    /// `None` — always, for standalone kernels — delivers everything
    /// locally, leaving runs byte-identical.
    egress_filter: Option<Vec<CidrFilter>>,
    /// Packets captured by the egress filter, as `(departure, packet)`
    /// pairs stamped with the kernel clock at capture time.
    egress_buf: Vec<(Nanos, Packet)>,
}

/// The packet currently being clocked out on the finite link.
struct LinkInflight {
    pkt: Packet,
    owner: u64,
    done: Nanos,
    wire: Nanos,
}

impl Kernel {
    /// Boots a kernel with the given configuration.
    pub fn new(mut cfg: KernelConfig) -> Self {
        cfg.sched.ncpus = cfg.sched.ncpus.max(1);
        // All three planes are built by the rcpolicy registry, so boot
        // and mid-run swaps construct policies identically.
        let scheduler = rcpolicy::build_cpu(cfg.sched.policy, cfg.sched.ncpus);
        let disk = SimDisk::new(cfg.disk.params, rcpolicy::build_disk(cfg.disk.sched));
        let disk_cache = BufferCache::new(cfg.disk.buffer_cache_bytes);
        let mut k = Kernel {
            containers: ContainerTable::new(),
            stack: NetStack::new(cfg.net.syn_timeout),
            scheduler,
            threads: IdSlab::new(),
            resume_waits: IdSlab::new(),
            processes: IdSlab::new(),
            handlers: IdSlab::new(),
            pending: IdSlab::new(),
            kthreads: IdSlab::new(),
            sock_owner: SockTable::new(),
            sockbuf_charges: SockTable::new(),
            pcb_charges: SockTable::new(),
            stack_charges: IdSlab::new(),
            kmem_charges: IdSlab::new(),
            mem: cfg.mem.map(MemAccountant::new),
            disk,
            disk_cache,
            disk_waiters: HashMap::new(),
            span_tx: HashMap::new(),
            disk_tick_armed: false,
            next_task: 1,
            next_pid: 1,
            clock: Nanos::ZERO,
            events: EventQueue::new(),
            stats: KernelStats::default(),
            cpus: vec![CpuState::default(); cfg.sched.ncpus as usize],
            next_app_cpu: 0,
            container_home: HashMap::new(),
            next_home_cpu: 0,
            balance_snapshot: HashMap::new(),
            injector: cfg.fault.as_ref().map(FaultInjector::new),
            drop_charges: BTreeMap::new(),
            link: cfg.net.link.as_ref().map(|p| rcpolicy::build_link(p.qdisc)),
            link_inflight: None,
            link_wait_until: None,
            link_owner_ids: HashMap::new(),
            tx_backlog: HashMap::new(),
            link_busy: Nanos::ZERO,
            link_wire_bytes: 0,
            link_pkts: 0,
            listener_budgets: SockTable::new(),
            trace_on: false,
            spans_on: false,
            net_buf: Vec::new(),
            world_buf: Vec::new(),
            parked_buf: Vec::new(),
            steal_buf: Vec::new(),
            egress_filter: None,
            egress_buf: Vec::new(),
            cfg,
        };
        if !k.cfg.sched.prune_interval.is_zero() {
            let t = k.cfg.sched.prune_interval;
            k.events.schedule(t, KernelEvent::Prune);
        }
        if k.cfg.sched.ncpus > 1 && !k.cfg.sched.balance_interval.is_zero() {
            let t = k.cfg.sched.balance_interval;
            k.events.schedule(t, KernelEvent::Balance);
        }
        k
    }

    /// Current virtual time.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Kernel-level CPU statistics, aggregated over all CPUs.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Number of simulated CPUs.
    pub fn ncpus(&self) -> u32 {
        self.cfg.sched.ncpus
    }

    /// Per-CPU accounting, one entry per simulated CPU. Each entry's
    /// `charged + interrupt + overhead + idle` equals that CPU's elapsed
    /// clock.
    pub fn per_cpu_stats(&self) -> Vec<crate::stats::CpuStats> {
        self.cpus.iter().map(|c| c.stats).collect()
    }

    /// The default container of a process.
    pub fn process_container(&self, pid: Pid) -> Option<ContainerId> {
        self.processes.get(pid).map(|p| p.default_container)
    }

    /// The process that owns a socket.
    pub fn socket_owner(&self, sock: SockId) -> Option<Pid> {
        self.sock_owner.get(sock).copied()
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Returns `true` if the process is still alive.
    pub fn process_alive(&self, pid: Pid) -> bool {
        self.processes.contains_key(pid)
    }

    fn alloc_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        id
    }

    /// Initial CPU for a new application thread: round-robin, so
    /// multi-threaded servers start spread. Always CPU 0 on a
    /// uniprocessor.
    fn alloc_app_cpu(&mut self) -> CpuId {
        let cpu = self.next_app_cpu % self.cfg.sched.ncpus;
        self.next_app_cpu += 1;
        CpuId(cpu)
    }

    /// The home CPU of a container: assigned round-robin on first use and
    /// sticky thereafter. Kernel network threads run on the home CPU of
    /// their owning container, so protocol work is charged there.
    fn home_cpu(&mut self, c: ContainerId) -> CpuId {
        if self.cfg.sched.ncpus <= 1 {
            return CpuId(0);
        }
        if let Some(&cpu) = self.container_home.get(&c.as_u64()) {
            return CpuId(cpu);
        }
        let cpu = self.next_home_cpu % self.cfg.sched.ncpus;
        self.next_home_cpu += 1;
        self.container_home.insert(c.as_u64(), cpu);
        CpuId(cpu)
    }

    /// Spawns a process with a state-machine handler.
    ///
    /// `container_parent` chooses where the process's default container
    /// hangs in the hierarchy (`None` = under the root, as a plain UNIX
    /// process); `attrs` sets the default container's attributes.
    pub fn spawn_process(
        &mut self,
        handler: Box<dyn AppHandler>,
        name: &str,
        container_parent: Option<ContainerId>,
        attrs: Attributes,
        parent: Option<Pid>,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let default_container = self
            .containers
            .create_at(container_parent, attrs, self.clock)
            .expect("default container creation must succeed");
        let mut proc = Process::new(pid, default_container, parent, name);
        let tid = self.alloc_task();
        let mut thread = Thread::new(tid, pid, ThreadKind::App, default_container, self.clock);
        self.containers
            .bind_thread(default_container)
            .expect("bind to fresh container");
        thread.push_work(WorkItem {
            cost: Nanos::from_micros(1),
            op: Op::Upcall(AppEvent::Start),
            charge_to: None,
            kernel_mode: false,
            span: SpanRef::NONE,
        });
        proc.threads.push(tid);
        // The boot thread's kernel stack is charged best-effort: a process
        // must be able to start even under memory pressure.
        let _ = self.charge_thread_stack(tid, default_container);
        let cpu = self.alloc_app_cpu();
        self.scheduler
            .add_task(tid, thread.sched_binding.containers(), cpu, self.clock);
        self.scheduler.set_runnable(tid, true, self.clock);
        self.threads.insert(tid, thread);
        self.processes.insert(pid, proc);
        self.handlers.insert(pid, Some(handler));
        pid
    }

    /// Spawns an additional thread in an existing process (multi-threaded
    /// servers). The thread starts with a `Start` upcall. Returns `None`
    /// when the kernel-stack memory charge is refused (memory subsystem
    /// configured and the subtree is hard over its limit).
    pub fn spawn_thread(&mut self, pid: Pid) -> Option<TaskId> {
        let default_container = self.processes.get(pid)?.default_container;
        let tid = self.alloc_task();
        if !self.charge_thread_stack(tid, default_container) {
            return None;
        }
        let mut thread = Thread::new(tid, pid, ThreadKind::App, default_container, self.clock);
        self.containers.bind_thread(default_container).ok()?;
        thread.push_work(WorkItem {
            cost: Nanos::from_micros(1),
            op: Op::Upcall(AppEvent::Start),
            charge_to: None,
            kernel_mode: false,
            span: SpanRef::NONE,
        });
        self.processes.get_mut(pid)?.threads.push(tid);
        let cpu = self.alloc_app_cpu();
        self.scheduler
            .add_task(tid, thread.sched_binding.containers(), cpu, self.clock);
        self.scheduler.set_runnable(tid, true, self.clock);
        self.threads.insert(tid, thread);
        Some(tid)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the simulation until virtual time `until`.
    ///
    /// The loop steps the *frontier* — the CPU(s) whose clock is furthest
    /// behind. Kernel events are delivered at the frontier time, so a CPU
    /// never runs past an event another CPU has yet to cause, and with one
    /// CPU the loop degenerates to the classic uniprocessor event loop.
    pub fn run(&mut self, world: &mut dyn World, until: Nanos) {
        self.run_core(world, until);
        self.flush_observability();
    }

    /// Advances the kernel to `horizon` and yields control back to the
    /// caller — the steppable half of [`Kernel::run`], for cluster drivers
    /// that interleave many kernels against a shared conservative horizon.
    ///
    /// Identical to `run` except that the end-of-run observability flush
    /// is *not* performed (call [`Kernel::flush_observability`] once after
    /// the final step); repeated `step_until` calls over the same total
    /// interval replay `run`'s event schedule exactly. The one observable
    /// difference is trace granularity: a horizon that lands mid-slice
    /// splits that CPU slice into two trace records (the accounting is
    /// unchanged).
    pub fn step_until(&mut self, world: &mut dyn World, horizon: Nanos) -> NodeYield {
        self.run_core(world, horizon);
        NodeYield {
            now: self.clock,
            next_event: self.events.peek_time(),
            egress: self.egress_buf.len(),
        }
    }

    /// Installs the egress filter: world-bound packets whose flow source
    /// matches any of `prefixes` are captured for [`Kernel::drain_egress_into`]
    /// instead of being delivered to the local world. An empty list
    /// removes the filter.
    pub fn set_egress_filter(&mut self, prefixes: Vec<CidrFilter>) {
        self.egress_filter = if prefixes.is_empty() {
            None
        } else {
            Some(prefixes)
        };
    }

    /// Moves all packets captured by the egress filter since the last
    /// drain into `out` as `(departure, packet)` pairs, in capture order.
    pub fn drain_egress_into(&mut self, out: &mut Vec<(Nanos, Packet)>) {
        out.append(&mut self.egress_buf);
    }

    /// Records end-of-run totals into the active trace session, if any.
    /// `run` calls this automatically; steppable (cluster) drivers call it
    /// once after their final `step_until`.
    pub fn flush_observability(&mut self) {
        if rctrace::active() {
            let rows = self.container_rows();
            rctrace::record_totals(self.global_totals(), &rows);
            let totals: Vec<rctrace::CpuTotals> = self
                .cpus
                .iter()
                .map(|c| rctrace::CpuTotals {
                    charged_cpu: c.stats.charged_cpu,
                    interrupt_cpu: c.stats.interrupt_cpu,
                    overhead_cpu: c.stats.overhead_cpu,
                    idle_cpu: c.stats.idle_cpu,
                    ctx_switches: c.stats.ctx_switches,
                })
                .collect();
            rctrace::record_cpu_totals(&totals);
        }
    }

    fn run_core(&mut self, world: &mut dyn World, until: Nanos) {
        // Sessions start and finish outside `run`, so the enabled flags
        // are loop invariants: hoisting them turns a thread-local access
        // per iteration (the dominant non-work cost of an untraced run)
        // into a register test. `self.trace_on` additionally gates the
        // `trace::set_now` calls on the hot stepping path.
        self.trace_on = trace::enabled();
        self.spans_on = span::enabled();
        let sampling = rctrace::active();
        let ncpus = self.cpus.len();
        'outer: loop {
            let min_clock = if ncpus == 1 {
                self.cpus[0].clock
            } else {
                self.cpus
                    .iter()
                    .map(|c| c.clock)
                    .min()
                    .expect("at least one CPU")
            };
            self.clock = min_clock;
            if ncpus > 1 && self.trace_on {
                // A CPU ahead of the frontier may have left the trace
                // clock in its future; rewind it for event handling. (On
                // a uniprocessor the trace clock already equals the
                // frontier, and skipping the call keeps the classic
                // emission sequence bit-for-bit.)
                trace::set_now(self.clock);
            }
            // 1. Deliver all due events (interrupt context).
            while let Some((_, ev)) = self.events.pop_due(self.clock) {
                self.handle_event(ev, world);
            }
            // Metrics sampling is purely observational: it reads kernel
            // state and injects no events, so an instrumented run replays
            // exactly the uninstrumented schedule.
            if sampling && rctrace::sample_due(self.clock) {
                let rows = self.container_rows();
                rctrace::record_sample(self.clock, &rows);
            }
            if self.clock >= until {
                break;
            }
            // 2. Give every frontier CPU one chance to run, in id order.
            //    Any progress re-derives the frontier; idle verdicts stay
            //    valid because an idle step never wakes another CPU's
            //    threads.
            let mut idle_cpus = 0usize;
            let mut idle_min = Nanos::MAX;
            for cpu in 0..ncpus {
                if self.cpus[cpu].clock != min_clock {
                    continue;
                }
                match self.step_cpu(cpu, until, world) {
                    StepOutcome::Progress => continue 'outer,
                    StepOutcome::Idle(t) => {
                        idle_cpus += 1;
                        idle_min = idle_min.min(t);
                    }
                }
            }
            // 3. The whole frontier is idle: advance it in lockstep.
            let frontier_is_all = idle_cpus == self.cpus.len();
            if frontier_is_all && idle_min == Nanos::MAX {
                // Nothing will ever happen again.
                for cpu in self.cpus.iter_mut() {
                    let dt = until - cpu.clock;
                    cpu.stats.idle_cpu += dt;
                    cpu.clock = until;
                    self.stats.idle_cpu += dt;
                }
                self.clock = until;
                if self.trace_on {
                    trace::set_now(self.clock);
                }
                break;
            }
            // Idle to the earliest of: an idle target, `until`, or a CPU
            // ahead of the frontier (whose step may wake this one).
            let mut target = until.min(idle_min);
            for c in &self.cpus {
                if c.clock > min_clock {
                    target = target.min(c.clock);
                }
            }
            debug_assert!(target > min_clock, "idle advance must make progress");
            for cpu in self.cpus.iter_mut() {
                if cpu.clock == min_clock {
                    let dt = target - cpu.clock;
                    cpu.stats.idle_cpu += dt;
                    cpu.clock = target;
                    self.stats.idle_cpu += dt;
                }
            }
            self.clock = target;
            if self.trace_on {
                trace::set_now(self.clock);
            }
        }
    }

    /// One scheduling step on `cpu`, whose clock sits at the frontier:
    /// pay overhead debt, else run the picked thread, else report when the
    /// CPU could next have work.
    fn step_cpu(&mut self, cpu: usize, until: Nanos, world: &mut dyn World) -> StepOutcome {
        let now = self.cpus[cpu].clock;
        // Pay interrupt / overhead debt ahead of scheduled work.
        if !self.cpus[cpu].overhead_deficit.is_zero() {
            let next_ev = self.events.peek_time().unwrap_or(Nanos::MAX);
            let horizon = until.min(next_ev.max(now));
            let dt = self.cpus[cpu].overhead_deficit.min(horizon - now);
            if dt.is_zero() {
                // An event is due right now; handle it first.
                return StepOutcome::Progress;
            }
            let cs = &mut self.cpus[cpu];
            let sw = cs.switch_deficit.min(dt);
            cs.switch_deficit -= sw;
            cs.stats.overhead_cpu += sw;
            cs.stats.interrupt_cpu += dt - sw;
            cs.overhead_deficit -= dt;
            cs.clock += dt;
            self.stats.overhead_cpu += sw;
            self.stats.interrupt_cpu += dt - sw;
            self.clock = self.cpus[cpu].clock;
            if self.trace_on {
                trace::set_now(self.clock);
            }
            return StepOutcome::Progress;
        }
        // Run scheduled work.
        match self
            .scheduler
            .pick(CpuId(cpu as u32), &self.containers, now)
        {
            Some(pick) => {
                if self.cpus[cpu].last_task != Some(pick.task) {
                    // Register the switch cost as overhead to be paid
                    // ahead of the *next* scheduling decision, and run
                    // the picked task now (re-picking here would let an
                    // equal-usage peer grab the CPU and livelock).
                    let from = self.cpus[cpu].last_task.map(|t| t.0).unwrap_or(u32::MAX);
                    if self.trace_on {
                        trace::emit_at(now, || TraceEventKind::CtxSwitch {
                            from,
                            to: pick.task.0,
                            container: self
                                .threads
                                .get(pick.task)
                                .map(|t| t.charge_container().as_u64())
                                .unwrap_or(NO_CONTAINER),
                            cpu: cpu as u32,
                        });
                    }
                    self.stats.ctx_switches += 1;
                    let cs = &mut self.cpus[cpu];
                    cs.stats.ctx_switches += 1;
                    cs.overhead_deficit += self.cfg.cost.ctx_switch;
                    cs.switch_deficit += self.cfg.cost.ctx_switch;
                    cs.last_task = Some(pick.task);
                }
                let Some(th) = self.threads.get_mut(pick.task) else {
                    self.scheduler.remove_task(pick.task);
                    return StepOutcome::Progress;
                };
                if !th.has_work() {
                    // Defensive: a runnable thread without work parks.
                    th.state = ThreadState::Blocked(WaitFor::Idle);
                    self.scheduler.set_runnable(pick.task, false, now);
                    return StepOutcome::Progress;
                }
                let next_ev = self.events.peek_time().unwrap_or(Nanos::MAX);
                let horizon = until.min(next_ev).min(now.saturating_add(pick.slice));
                let budget = horizon.saturating_sub(now);
                let dt = th.remaining.min(budget);
                let span = th.queue.front().map(|i| i.span).unwrap_or(SpanRef::NONE);
                if !dt.is_zero() {
                    th.remaining -= dt;
                    if span.id != 0 {
                        let ph = if span.stall {
                            Phase::ReclaimStall
                        } else {
                            Phase::CpuRun
                        };
                        span::cpu_transition(span.id, ph, now);
                    }
                    let container = th.charge_container();
                    let kernel_mode = th.charge_kernel_mode();
                    let target = if self.containers.contains(container) {
                        container
                    } else {
                        self.containers.root()
                    };
                    self.charge_scheduled(target, dt, kernel_mode);
                    let cs = &mut self.cpus[cpu];
                    cs.stats.charged_cpu += dt;
                    cs.clock += dt;
                    self.clock = cs.clock;
                    if self.trace_on {
                        trace::set_now(self.clock);
                    }
                    self.scheduler
                        .charge(pick.task, target, dt, &self.containers, self.clock);
                    self.stats.charged_cpu += dt;
                }
                let finished = self
                    .threads
                    .get(pick.task)
                    .map(|t| t.remaining.is_zero())
                    .unwrap_or(false);
                if finished {
                    self.complete_item(pick.task, world);
                } else if span.id != 0 {
                    // Preempted mid-item: the request is back to waiting
                    // for the CPU.
                    span::cpu_transition(span.id, Phase::CpuQueue, self.clock);
                }
                StepOutcome::Progress
            }
            None => {
                // Before idling, hand parked kernel network threads
                // their pending (possibly starvable) backlog: priority
                // zero means "run only when nothing else wants the
                // CPU" — which is now.
                let mut parked = std::mem::take(&mut self.parked_buf);
                parked.extend(self.kthreads.iter().map(|(pid, &ktid)| (pid, ktid)).filter(
                    |&(pid, ktid)| {
                        self.threads
                            .get(ktid)
                            .map(|t| !t.has_work())
                            .unwrap_or(false)
                            && self
                                .pending
                                .get(pid)
                                .map(|q| !q.is_empty())
                                .unwrap_or(false)
                    },
                ));
                let any_parked = !parked.is_empty();
                for &(pid, ktid) in &parked {
                    self.kthread_refill_inner(pid, ktid, true);
                }
                parked.clear();
                self.parked_buf = parked;
                if any_parked {
                    return StepOutcome::Progress;
                }
                // Work conservation (multiprocessor only): before going
                // idle, steal a waiting application thread from the CPU
                // with the deepest runnable backlog. The periodic
                // balancer enforces *shares*; stealing keeps CPUs from
                // idling while work queues elsewhere between its ticks.
                if self.cpus.len() > 1 {
                    if let Some((task, from)) = self.steal_candidate(cpu) {
                        self.scheduler.migrate(task, CpuId(cpu as u32), now);
                        self.stats.migrations += 1;
                        let container = self
                            .threads
                            .get(task)
                            .map(|t| t.charge_container().as_u64())
                            .unwrap_or(NO_CONTAINER);
                        let (f, t) = (from as u32, cpu as u32);
                        trace::emit_at(now, || TraceEventKind::Migrate {
                            task: task.0,
                            from_cpu: f,
                            to_cpu: t,
                            container,
                        });
                        return StepOutcome::Progress;
                    }
                }
                let mut target = until.min(self.events.peek_time().unwrap_or(Nanos::MAX));
                if let Some(r) =
                    self.scheduler
                        .next_release_time(CpuId(cpu as u32), &self.containers, now)
                {
                    target = target.min(r.max(now));
                }
                if target == Nanos::MAX {
                    return StepOutcome::Idle(Nanos::MAX);
                }
                if target <= now {
                    // Events due now; loop to deliver them.
                    return StepOutcome::Progress;
                }
                StepOutcome::Idle(target)
            }
        }
    }

    /// The single charge path for scheduled CPU time, shared by every
    /// configuration: kernel-mode work charges the container's kernel CPU
    /// sub-account, user work the plain CPU account, and either way the
    /// container table emits the `Charge` trace event. Keeping one helper
    /// prevents the SMP path from drifting from the uniprocessor path.
    fn charge_scheduled(&mut self, target: ContainerId, dt: Nanos, kernel_mode: bool) {
        if kernel_mode {
            let _ = self.containers.charge_cpu_kernel(target, dt);
        } else {
            let _ = self.containers.charge_cpu(target, dt);
        }
    }

    // ------------------------------------------------------------------
    // Event handling (interrupt context)
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: KernelEvent, world: &mut dyn World) {
        self.stats.sim_events += 1;
        match ev {
            KernelEvent::PacketIn(pkt) => self.receive_packet(pkt),
            KernelEvent::PacketToWorld(pkt) => {
                if let Some(filter) = self.egress_filter.as_ref() {
                    if filter.iter().any(|f| f.matches(pkt.flow.src)) {
                        self.egress_buf.push((self.clock, pkt));
                        return;
                    }
                }
                let mut actions = std::mem::take(&mut self.world_buf);
                world.on_packet(pkt, self.clock, &mut actions);
                self.apply_world_actions(&mut actions);
                self.world_buf = actions;
            }
            KernelEvent::WorldTimer(tag) => {
                let mut actions = std::mem::take(&mut self.world_buf);
                world.on_timer(tag, self.clock, &mut actions);
                self.apply_world_actions(&mut actions);
                self.world_buf = actions;
            }
            KernelEvent::TimerFired(task, tag) => self.timer_fired(task, tag),
            KernelEvent::Prune => self.prune_bindings(),
            KernelEvent::DiskTick => self.disk_tick(),
            KernelEvent::Balance => self.rebalance(),
            KernelEvent::LinkTick => self.link_tick(),
        }
    }

    // ------------------------------------------------------------------
    // Container-aware load balancing (multiprocessor only)
    // ------------------------------------------------------------------

    /// Picks a thread for an idle CPU to steal: the lowest-id runnable
    /// application thread on the CPU with the deepest runnable backlog
    /// (ties broken toward the lowest CPU id). Only CPUs with at least
    /// two waiting threads are victims — stealing a CPU's sole runnable
    /// thread would just move the work without creating parallelism.
    fn steal_candidate(&mut self, thief: usize) -> Option<(TaskId, usize)> {
        let mut tally = std::mem::take(&mut self.steal_buf);
        tally.clear();
        tally.resize(self.cpus.len(), (0, None));
        // Threads iterate in ascending id, so the first one seen on a
        // CPU is its lowest.
        for (tid, th) in self.threads.iter() {
            if th.kind == ThreadKind::App && th.state == ThreadState::Runnable {
                let cpu = self.scheduler.cpu_of(tid);
                if let Some((n, first)) = cpu.and_then(|c| tally.get_mut(c.0 as usize)) {
                    *n += 1;
                    first.get_or_insert(tid);
                }
            }
        }
        let mut best: Option<(usize, TaskId, usize)> = None;
        for (victim, &(n, first)) in tally.iter().enumerate() {
            if victim == thief || n < 2 || best.is_some_and(|(bn, _, _)| n <= bn) {
                continue;
            }
            best = first.map(|t| (n, t, victim));
        }
        self.steal_buf = tally;
        best.map(|(_, t, victim)| (t, victim))
    }

    /// Periodic container-aware load balancing. Containers are ranked by
    /// how far they lag their *global* entitlement over the last window
    /// (`effective_share × ncpus × window` versus the growth of their
    /// subtree CPU usage); in that order, each container's runnable
    /// application threads are spread evenly across CPUs, preferring the
    /// globally least-loaded CPU as the target. The most underserved
    /// container therefore claims presence on underused CPUs first, which
    /// is what keeps fixed shares global while run queues are per-CPU.
    /// Kernel network threads are pinned to their container's home CPU and
    /// never migrate.
    fn rebalance(&mut self) {
        let ncpus = self.cfg.sched.ncpus as usize;
        if ncpus > 1 {
            // Rank containers by entitlement lag over the last window.
            let window = self.cfg.sched.balance_interval.as_secs_f64();
            let mut ranked: Vec<(ContainerId, f64)> = Vec::new();
            for (id, _c) in self.containers.iter() {
                let used = self.containers.subtree_cpu(id).unwrap_or(Nanos::ZERO);
                let prev = self
                    .balance_snapshot
                    .insert(id.as_u64(), used)
                    .unwrap_or(Nanos::ZERO);
                let got = (used.saturating_sub(prev)).as_secs_f64();
                let entitled =
                    self.containers.effective_share(id).unwrap_or(0.0) * ncpus as f64 * window;
                ranked.push((id, entitled - got));
            }
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.as_u64().cmp(&b.0.as_u64()))
            });
            // Global per-CPU load of runnable threads — including pinned
            // kernel network threads, so the CPUs hosting hot protocol
            // threads are dispreferred as migration targets.
            let mut load = vec![0i64; ncpus];
            for (tid, th) in self.threads.iter() {
                if th.state == ThreadState::Runnable {
                    if let Some(c) = self.scheduler.cpu_of(tid) {
                        load[c.0 as usize] += 1;
                    }
                }
            }
            for (cid, _lag) in ranked {
                // This container's runnable application threads, grouped
                // by current CPU (BTreeMap order: ascending task id).
                let mut on_cpu: Vec<Vec<TaskId>> = vec![Vec::new(); ncpus];
                let mut total = 0usize;
                for (tid, th) in self.threads.iter() {
                    if th.kind == ThreadKind::App
                        && th.state == ThreadState::Runnable
                        && th.charge_container() == cid
                    {
                        if let Some(c) = self.scheduler.cpu_of(tid) {
                            on_cpu[c.0 as usize].push(tid);
                            total += 1;
                        }
                    }
                }
                if total < 2 {
                    continue;
                }
                // Move threads from the container's most- to its
                // least-populated CPU until no pair differs by more than
                // one.
                loop {
                    let mut from = 0usize;
                    let mut to = 0usize;
                    for i in 1..ncpus {
                        if on_cpu[i].len() > on_cpu[from].len() {
                            from = i;
                        }
                        if on_cpu[i].len() < on_cpu[to].len()
                            || (on_cpu[i].len() == on_cpu[to].len() && load[i] < load[to])
                        {
                            to = i;
                        }
                    }
                    if on_cpu[from].len() - on_cpu[to].len() <= 1 {
                        break;
                    }
                    let task = on_cpu[from].remove(0);
                    if !self.scheduler.migrate(task, CpuId(to as u32), self.clock) {
                        break;
                    }
                    on_cpu[to].push(task);
                    load[from] -= 1;
                    load[to] += 1;
                    self.stats.migrations += 1;
                    let container = cid.as_u64();
                    let (f, t) = (from as u32, to as u32);
                    trace::emit_at(self.clock, || TraceEventKind::Migrate {
                        task: task.0,
                        from_cpu: f,
                        to_cpu: t,
                        container,
                    });
                }
            }
        }
        self.events.schedule(
            self.clock + self.cfg.sched.balance_interval,
            KernelEvent::Balance,
        );
    }

    // ------------------------------------------------------------------
    // Disk I/O
    // ------------------------------------------------------------------

    /// Submits a disk read on behalf of `task`; the completion delivers
    /// `AppEvent::FileRead { tag, .. }` once the service time has elapsed
    /// and the copy cost has been consumed. Completed reads populate the
    /// buffer cache.
    pub(crate) fn submit_disk_read(
        &mut self,
        file: u64,
        bytes: u64,
        principal: ContainerId,
        task: TaskId,
        tag: u64,
        span: u64,
    ) {
        // The completion interrupt fires on the CPU the waiting thread
        // currently runs on (CPU 0 on a uniprocessor).
        let intr_cpu = self.scheduler.cpu_of(task).map(|c| c.0).unwrap_or(0);
        // Fault decision at submit time: a spike stretches the service
        // time (charged to the request's principal, like real degraded
        // media), an error completes the request failed after its full
        // service time.
        let (extra, fail) = match self
            .injector
            .as_mut()
            .and_then(|i| i.disk_fault(self.clock))
        {
            Some(DiskFault::Spike(extra)) => {
                let cu = principal.as_u64();
                trace::emit_at(self.clock, || TraceEventKind::FaultDiskSpike {
                    file,
                    extra,
                    container: cu,
                });
                (extra, false)
            }
            Some(DiskFault::Error) => {
                let cu = principal.as_u64();
                trace::emit_at(self.clock, || TraceEventKind::FaultDiskError {
                    file,
                    container: cu,
                });
                (Nanos::ZERO, true)
            }
            None => (Nanos::ZERO, false),
        };
        let req = self.disk.submit_with_fault(
            DiskRequest {
                file,
                bytes,
                charge_to: principal,
                intr_cpu,
                span,
            },
            extra,
            fail,
            &self.containers,
            self.clock,
        );
        self.disk_waiters.insert(
            req,
            DiskWaiter {
                task,
                tag,
                cache: true,
                span,
            },
        );
        self.arm_disk_tick();
    }

    /// Disk-interrupt completion path: the device charges service time to
    /// the owning containers, the interrupt handler pays a small CPU cost
    /// at interrupt level, and the waiting thread receives the copy work
    /// plus upcall, charged to the request's principal.
    fn disk_tick(&mut self) {
        self.disk_tick_armed = false;
        let completions = self.disk.advance(self.clock, &mut self.containers);
        for c in completions {
            let cpu = (c.intr_cpu as usize).min(self.cpus.len() - 1);
            self.cpus[cpu].overhead_deficit += self.cfg.cost.disk_intr;
            let Some(w) = self.disk_waiters.remove(&c.req) else {
                continue;
            };
            if c.ok && w.cache && self.containers.contains(c.charge_to) {
                if let Some(acct) = self.mem.as_mut() {
                    let _ = mem::cache_insert_accounted(
                        &mut self.disk_cache,
                        &mut self.containers,
                        acct,
                        c.file,
                        c.bytes,
                        c.charge_to,
                    );
                } else {
                    let _ =
                        self.disk_cache
                            .insert(c.file, c.bytes, c.charge_to, &mut self.containers);
                }
            }
            // A failed request delivers `bytes: 0`: the application sees
            // a short read and must treat it as an I/O error. The copy
            // cost is only paid for bytes actually transferred.
            let delivered = if c.ok { c.bytes } else { 0 };
            if w.span != 0 {
                // Disk service is over; the copy work now waits for CPU.
                span::transition(w.span, Phase::CpuQueue, self.clock);
            }
            self.deliver_disk_upcall(
                w.task,
                WorkItem {
                    cost: self.cfg.cost.file_copy(delivered),
                    op: Op::Upcall(AppEvent::FileRead {
                        tag: w.tag,
                        bytes: delivered,
                        cached: false,
                    }),
                    charge_to: Some(c.charge_to),
                    kernel_mode: true,
                    span: SpanRef::of(w.span),
                },
            );
        }
        self.arm_disk_tick();
    }

    /// Schedules the next `DiskTick` at the in-flight request's finish
    /// time. The disk is non-preemptive, so a started request's finish
    /// time never changes and one tick per completion suffices.
    fn arm_disk_tick(&mut self) {
        if self.disk_tick_armed {
            return;
        }
        if let Some(t) = self.disk.next_completion_time() {
            self.events
                .schedule(t.max(self.clock), KernelEvent::DiskTick);
            self.disk_tick_armed = true;
        }
    }

    /// Wakes `task` with disk-read completion work, restoring its previous
    /// wait (select, event API, ...) after the queue drains — the same
    /// out-of-band pattern as timers and IPC doorbells.
    fn deliver_disk_upcall(&mut self, task: TaskId, item: WorkItem) {
        let Some(th) = self.threads.get_mut(task) else {
            return;
        };
        if th.state == ThreadState::Exited {
            return;
        }
        if let ThreadState::Blocked(w) = th.state.clone() {
            self.resume_waits.or_insert(task, w);
        }
        th.state = ThreadState::Runnable;
        th.push_work(item);
        self.scheduler.set_runnable(task, true, self.clock);
    }

    fn apply_world_actions(&mut self, actions: &mut Vec<WorldAction>) {
        for a in actions.drain(..) {
            match a {
                WorldAction::SendPacket { pkt, delay } => {
                    let at = self.clock + delay + self.cfg.cost.link_latency;
                    self.events.schedule(at, KernelEvent::PacketIn(pkt));
                }
                WorldAction::SetTimer { tag, delay } => {
                    self.events
                        .schedule(self.clock + delay, KernelEvent::WorldTimer(tag));
                }
            }
        }
    }

    /// Interrupt-level receive path. The packet's flow hash picks the CPU
    /// whose interrupt handler classifies it (RSS-style steering; always
    /// CPU 0 on a uniprocessor), and any interrupt-level protocol work
    /// runs there too.
    ///
    /// When a fault plan is active, the wire itself may misbehave first:
    /// the packet can be lost, corrupted, or delayed (reordered) before
    /// the NIC counts it. Delayed packets are rescheduled as fresh
    /// arrivals and re-draw on delivery, so a packet's total extra delay
    /// is a geometric sum that terminates with probability one.
    fn receive_packet(&mut self, pkt: Packet) {
        let mut pkt = pkt;
        if let Some(inj) = self.injector.as_mut() {
            match inj.net_fault(self.clock) {
                Some(NetFault::Drop) => {
                    trace::emit_at(self.clock, || TraceEventKind::FaultPacketDrop {
                        port: pkt.flow.dst_port,
                        container: NO_CONTAINER,
                    });
                    return;
                }
                Some(NetFault::Delay(d)) => {
                    trace::emit_at(self.clock, || TraceEventKind::FaultPacketDelay {
                        port: pkt.flow.dst_port,
                        delay: d,
                        container: NO_CONTAINER,
                    });
                    self.events
                        .schedule(self.clock + d, KernelEvent::PacketIn(pkt));
                    return;
                }
                Some(NetFault::Corrupt) => {
                    trace::emit_at(self.clock, || TraceEventKind::FaultPacketCorrupt {
                        port: pkt.flow.dst_port,
                        container: NO_CONTAINER,
                    });
                    match pkt.kind {
                        // Garble the payload length: the server's request
                        // decoder must reject it without panicking.
                        simnet::PacketKind::Data { ref mut bytes } => {
                            *bytes = bytes.wrapping_add(7);
                        }
                        // Control packets have no payload to garble; a
                        // corrupted one fails its checksum and is lost.
                        _ => return,
                    }
                }
                None => {}
            }
        }
        self.stats.pkts_in += 1;
        let cpu = simnet::rss_cpu(&pkt.flow, self.cfg.sched.ncpus) as usize;
        self.cpus[cpu].overhead_deficit += self.cfg.cost.intr_demux;
        let demux = self.stack.classify(&pkt);
        let sock = match demux {
            Demux::Conn(s) | Demux::Listen(s) => Some(s),
            Demux::NoMatch => None,
        };
        if self.trace_on {
            trace::emit_at(self.clock, || TraceEventKind::PacketDemux {
                port: pkt.flow.dst_port,
                matched: sock.is_some(),
                container: sock
                    .and_then(|s| self.stack.container_of(s))
                    .map(|c| c.as_u64())
                    .unwrap_or(NO_CONTAINER),
            });
        }
        if self.spans_on {
            if let (Demux::Conn(conn), simnet::PacketKind::Data { .. }) = (demux, pkt.kind) {
                // Request data on an established connection rides the
                // connection's open span; on an idle keep-alive
                // connection a fresh request span is minted here, at
                // classification.
                let mut sp = self.stack.span_of(conn);
                if !span::is_open(sp) {
                    let cu = self
                        .stack
                        .container_of(conn)
                        .map(|c| c.as_u64())
                        .unwrap_or(0);
                    sp = span::mint(self.clock, cu, Phase::CpuQueue);
                    self.stack.set_span(conn, sp);
                }
                pkt.span = sp;
            }
        }
        match self.cfg.net.discipline {
            NetDiscipline::Interrupt => {
                if self.spans_on && pkt.kind == simnet::PacketKind::Syn {
                    if let Some(s) = sock {
                        let cu = self.stack.container_of(s).map(|c| c.as_u64()).unwrap_or(0);
                        pkt.span = span::mint(self.clock, cu, Phase::SynWait);
                    }
                }
                // Full protocol processing at interrupt level, charged to
                // no principal (§3.2).
                self.cpus[cpu].overhead_deficit += self.cfg.cost.rx_cost(pkt.kind);
                let mut evs = std::mem::take(&mut self.net_buf);
                self.stack
                    .handle_classified(demux, pkt, self.clock, &mut evs);
                self.apply_net_events_interrupt(&mut evs, cpu);
                self.net_buf = evs;
            }
            NetDiscipline::Lrp | NetDiscipline::Container => {
                let Some(sock) = sock else {
                    // No owner: respond at interrupt level (stray packet —
                    // demux is `NoMatch` here, so the reclassification
                    // `handle_packet` would do is skipped).
                    self.cpus[cpu].overhead_deficit += self.cfg.cost.rx_cost(pkt.kind);
                    let mut evs = std::mem::take(&mut self.net_buf);
                    self.stack
                        .handle_classified(Demux::NoMatch, pkt, self.clock, &mut evs);
                    self.apply_net_events_interrupt(&mut evs, cpu);
                    self.net_buf = evs;
                    return;
                };
                let Some(owner) = self.sock_owner.get(sock).copied() else {
                    self.stats.early_drops += 1;
                    let cu = self
                        .stack
                        .container_of(sock)
                        .map(|c| c.as_u64())
                        .unwrap_or(NO_CONTAINER);
                    if cu != NO_CONTAINER {
                        *self.drop_charges.entry(cu).or_insert(0) += 1;
                    }
                    trace::emit_at(self.clock, || TraceEventKind::PacketDrop {
                        reason: "no-owner",
                        container: cu,
                    });
                    return;
                };
                let principal = self.packet_principal(sock, owner);
                // Per-container admission control: a handshake packet
                // classifying to a listener whose SYN or accept queue is
                // already at its budget is refused here, at interrupt
                // level, *before* any protocol work is queued — and the
                // drop is charged to the classifying (attacker's)
                // container, not to the listener (§5.7 made cheap).
                if let Demux::Listen(listener) = demux {
                    self.stack.expire_syns(listener, self.clock);
                    if self.admission_reject(listener, &pkt) {
                        self.stats.early_drops += 1;
                        let cu = principal.as_u64();
                        *self.drop_charges.entry(cu).or_insert(0) += 1;
                        let _ = self
                            .containers
                            .charge_rx(principal, pkt.wire_bytes() as u64);
                        trace::emit_at(self.clock, || TraceEventKind::PacketDrop {
                            reason: "admission",
                            container: cu,
                        });
                        // The paper's SYN-drop notification (§5.7) fires
                        // for admission drops too, so the application's
                        // reactive defense still sees the flood.
                        if pkt.kind == simnet::PacketKind::Syn
                            && self.stack.notify_syn_drops(listener)
                        {
                            self.deliver_oob_upcall(
                                owner,
                                AppEvent::SynDropNotice {
                                    listener,
                                    src: pkt.flow.src,
                                },
                            );
                        }
                        return;
                    }
                }
                // A SYN that survived admission mints the request span:
                // the request now exists and is waiting in the SYN queue.
                if self.spans_on && pkt.kind == simnet::PacketKind::Syn {
                    pkt.span = span::mint(self.clock, principal.as_u64(), Phase::SynWait);
                }
                let psp = pkt.span;
                let cap = self.cfg.net.pending_cap;
                let q = self.pending.or_insert(owner, PendingQueues::new(cap));
                if !q.push(principal, pkt) {
                    self.stats.early_drops += 1;
                    *self.drop_charges.entry(principal.as_u64()).or_insert(0) += 1;
                    trace::emit_at(self.clock, || TraceEventKind::PacketDrop {
                        reason: "queue-full",
                        container: principal.as_u64(),
                    });
                    span::finish(psp, self.clock, Outcome::Dropped);
                    return;
                }
                self.ensure_kthread(owner);
                self.kthread_maybe_refill(owner);
            }
        }
    }

    /// Whether admission control refuses a handshake packet for being
    /// over the configured per-listener budget. Budgets of zero disable
    /// the check, leaving the stack's own backlog bounds (and the BSD
    /// syncache eviction they imply) as the only limit.
    fn admission_reject(&self, listener: SockId, pkt: &Packet) -> bool {
        let (syn_budget, accept_budget) = self
            .listener_budgets
            .get(listener)
            .copied()
            .unwrap_or((self.cfg.net.syn_budget, self.cfg.net.accept_budget));
        match pkt.kind {
            simnet::PacketKind::Syn => {
                syn_budget > 0 && self.stack.syn_queue_len(listener) >= syn_budget
            }
            simnet::PacketKind::Ack => {
                accept_budget > 0 && self.stack.accept_queue_len(listener) >= accept_budget
            }
            _ => false,
        }
    }

    /// Installs per-listener admission budgets (from a
    /// [`ListenSpec`](crate::syscall::ListenSpec)); entries of `None` fall
    /// back to the global config budgets.
    pub(crate) fn set_listener_budgets(
        &mut self,
        listener: SockId,
        syn_budget: Option<usize>,
        accept_budget: Option<usize>,
    ) {
        if syn_budget.is_some() || accept_budget.is_some() {
            self.listener_budgets.insert(
                listener,
                (
                    syn_budget.unwrap_or(self.cfg.net.syn_budget),
                    accept_budget.unwrap_or(self.cfg.net.accept_budget),
                ),
            );
        }
    }

    /// The resource principal a received packet is classified to (§4.7):
    /// the socket's container under the Container discipline, the owning
    /// process's default container under LRP.
    fn packet_principal(&self, sock: SockId, owner: Pid) -> ContainerId {
        let fallback = self
            .processes
            .get(owner)
            .map(|p| p.default_container)
            .unwrap_or_else(|| self.containers.root());
        match self.cfg.net.discipline {
            NetDiscipline::Container => self
                .stack
                .container_of(sock)
                .filter(|c| self.containers.contains(*c))
                .unwrap_or(fallback),
            _ => fallback,
        }
    }

    fn ensure_kthread(&mut self, pid: Pid) {
        if self.kthreads.contains_key(pid) {
            return;
        }
        let Some(p) = self.processes.get(pid) else {
            return;
        };
        let container = p.default_container;
        let tid = self.alloc_task();
        // Kernel network threads need a stack too; charged best-effort —
        // the thread must exist for protocol processing to happen at all.
        let _ = self.charge_thread_stack(tid, container);
        let mut th = Thread::new(tid, pid, ThreadKind::KernelNet, container, self.clock);
        th.state = ThreadState::Blocked(WaitFor::Idle);
        let _ = self.containers.bind_thread(container);
        // Protocol processing runs — and is charged — on the owning
        // container's home CPU.
        let cpu = self.home_cpu(container);
        self.scheduler
            .add_task(tid, th.sched_binding.containers(), cpu, self.clock);
        self.threads.insert(tid, th);
        self.kthreads.insert(pid, tid);
    }

    /// Priority used to order protocol processing between principals
    /// (§4.7: "the priority ... of these containers determines the order
    /// in which they are serviced").
    fn principal_priority(&self, c: ContainerId) -> u32 {
        match self.containers.policy(c) {
            Ok(rescon::SchedPolicy::TimeShared { priority }) => priority,
            Ok(rescon::SchedPolicy::FixedShare { .. }) => 10,
            Err(_) => 0,
        }
    }

    /// Gives the process's kernel network thread its next packet if it is
    /// idle, and keeps its scheduler binding equal to the set of pending
    /// principals.
    fn kthread_maybe_refill(&mut self, pid: Pid) {
        let Some(&ktid) = self.kthreads.get(pid) else {
            return;
        };
        let idle = self
            .threads
            .get(ktid)
            .map(|t| !t.has_work())
            .unwrap_or(false);
        if idle {
            self.kthread_refill(pid, ktid);
        } else {
            self.update_kthread_binding(pid, ktid);
        }
    }

    fn kthread_refill(&mut self, pid: Pid, ktid: TaskId) {
        self.kthread_refill_inner(pid, ktid, false)
    }

    /// Refills the kernel network thread. Packets belonging to a
    /// priority-zero (starvable) principal are only *started* when
    /// `allow_starvable` or when no other thread is runnable — otherwise a
    /// flood container's backlog would repeatedly be picked up in
    /// micro-idle gaps and then finish at elevated priority once real work
    /// arrived (a recurring priority inversion).
    fn kthread_refill_inner(&mut self, pid: Pid, ktid: TaskId, allow_starvable: bool) {
        let containers = &self.containers;
        let prio_of = |c: ContainerId| match containers.policy(c) {
            Ok(rescon::SchedPolicy::TimeShared { priority }) => priority,
            Ok(rescon::SchedPolicy::FixedShare { .. }) => 10,
            Err(_) => 0,
        };
        if !allow_starvable {
            let next_is_starvable = self
                .pending
                .get(pid)
                .and_then(|q| q.peek_highest(prio_of))
                .map(|c| prio_of(c) == 0)
                .unwrap_or(false);
            if next_is_starvable {
                let system_busy = self
                    .threads
                    .iter()
                    .any(|(id, t)| id != ktid && t.state == ThreadState::Runnable);
                if system_busy {
                    // Leave the backlog queued; the idle path restarts us.
                    if let Some(th) = self.threads.get_mut(ktid) {
                        if !th.has_work() {
                            th.state = ThreadState::Blocked(WaitFor::Idle);
                            self.scheduler.set_runnable(ktid, false, self.clock);
                        }
                    }
                    return;
                }
            }
        }
        let containers = &self.containers;
        let popped = match self.pending.get_mut(pid) {
            Some(q) => q.pop_highest(|c| match containers.policy(c) {
                Ok(rescon::SchedPolicy::TimeShared { priority }) => priority,
                Ok(rescon::SchedPolicy::FixedShare { .. }) => 10,
                Err(_) => 0,
            }),
            None => None,
        };
        match popped {
            Some((principal, pkt)) => {
                if self.trace_on {
                    trace::emit_at(self.clock, || TraceEventKind::LrpDispatch {
                        task: ktid.0,
                        container: principal.as_u64(),
                    });
                }
                let cost = self.cfg.cost.rx_cost(pkt.kind);
                let psp = pkt.span;
                if let Some(th) = self.threads.get_mut(ktid) {
                    th.push_work(WorkItem {
                        cost,
                        op: Op::ProtoRx { pkt },
                        charge_to: Some(principal),
                        kernel_mode: true,
                        span: SpanRef::of(psp),
                    });
                    th.sched_binding.touch(principal, self.clock);
                    th.state = ThreadState::Runnable;
                }
                self.update_kthread_binding(pid, ktid);
                self.scheduler.set_runnable(ktid, true, self.clock);
            }
            None => {
                if let Some(th) = self.threads.get_mut(ktid) {
                    if !th.has_work() {
                        th.state = ThreadState::Blocked(WaitFor::Idle);
                        self.scheduler.set_runnable(ktid, false, self.clock);
                    }
                }
            }
        }
    }

    fn update_kthread_binding(&mut self, pid: Pid, ktid: TaskId) {
        let mut binding: Vec<ContainerId> = Vec::new();
        if let Some(th) = self.threads.get(ktid) {
            if let Some(c) = th.queue.front().and_then(|i| i.charge_to) {
                binding.push(c);
            }
        }
        if let Some(q) = self.pending.get(pid) {
            for c in q.pending_principals() {
                if !binding.contains(&c) {
                    binding.push(c);
                }
            }
        }
        if binding.is_empty() {
            if let Some(p) = self.processes.get(pid) {
                binding.push(p.default_container);
            }
        }
        self.scheduler.set_binding(ktid, &binding, self.clock);
    }

    // ------------------------------------------------------------------
    // Net event application
    // ------------------------------------------------------------------

    /// Applies protocol-processing results in interrupt context on `cpu`:
    /// transmit costs are interrupt work there; wakeups happen
    /// immediately.
    fn apply_net_events_interrupt(&mut self, evs: &mut Vec<NetEvent>, cpu: usize) {
        for ev in evs.drain(..) {
            match ev {
                NetEvent::PacketOut(p) => {
                    self.cpus[cpu].overhead_deficit += self.cfg.cost.tx_cost(p.kind);
                    self.transmit(p);
                }
                other => self.apply_wakeup_event(other),
            }
        }
    }

    /// Applies protocol-processing results on a kernel thread: transmits
    /// are queued as charged work on the same thread.
    fn apply_net_events_kthread(
        &mut self,
        evs: &mut Vec<NetEvent>,
        ktid: TaskId,
        principal: Option<ContainerId>,
    ) {
        for ev in evs.drain(..) {
            match ev {
                NetEvent::PacketOut(p) => {
                    let cost = self.cfg.cost.tx_cost(p.kind);
                    if let Some(th) = self.threads.get_mut(ktid) {
                        th.push_work(WorkItem {
                            cost,
                            op: Op::Transmit { pkts: vec![p] },
                            charge_to: principal,
                            kernel_mode: true,
                            span: SpanRef::NONE,
                        });
                    }
                }
                other => self.apply_wakeup_event(other),
            }
        }
    }

    fn apply_wakeup_event(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::PacketOut(_) => unreachable!("handled by caller"),
            NetEvent::AcceptReady { listener, conn } => {
                if let Some(owner) = self.sock_owner.get(listener).copied() {
                    self.sock_owner.insert(conn, owner);
                    if let Some(p) = self.processes.get_mut(owner) {
                        p.sockets.push(conn);
                    }
                    // The connection inherited the listener's container;
                    // count the binding so lifetimes stay exact.
                    if let Some(c) = self.stack.container_of(conn) {
                        if self.containers.bind_socket(c).is_err() {
                            self.stack.set_container(conn, None);
                        }
                        let _ = self.containers.charge_rx(c, 0);
                        // Socket-buffer and protocol-state memory (§4.4):
                        // refuse the connection if the container subtree
                        // is hard over its memory limit (after reclaim and
                        // OOM when the memory subsystem is configured).
                        let sockbuf = self.cfg.net.sockbuf_bytes;
                        let mut ok = self.charge_kernel_mem(c, MemClass::SockBuf, sockbuf);
                        if ok {
                            self.sockbuf_charges.insert(conn, (c, sockbuf));
                            let pcb = self.mem.as_ref().map_or(0, |m| m.params.pcb_bytes);
                            if pcb > 0 {
                                if self.charge_kernel_mem(c, MemClass::ConnState, pcb) {
                                    self.pcb_charges.insert(conn, (c, pcb));
                                } else {
                                    ok = false;
                                }
                            }
                        }
                        if !ok {
                            // Roll back whatever part was charged.
                            self.span_conn_teardown(conn, Outcome::Dropped);
                            self.release_sockbuf(conn);
                            let _ = self.containers.unbind_socket(c);
                            if let Some(rst) = self.stack.close(conn) {
                                let mut rst = rst;
                                rst.kind = simnet::PacketKind::Rst;
                                self.transmit_from(rst, c);
                            }
                            self.sock_owner.remove(conn);
                            if let Some(p) = self.processes.get_mut(owner) {
                                p.forget_socket(conn);
                            }
                            return;
                        }
                    }
                }
                self.notify_socket(listener);
            }
            NetEvent::Readable { conn } => {
                if let Some(c) = self.stack.container_of(conn) {
                    let _ = self.containers.charge_rx(c, 0);
                }
                self.notify_socket(conn);
            }
            NetEvent::SynDropped { listener, src } => {
                if let Some(owner) = self.sock_owner.get(listener).copied() {
                    self.deliver_oob_upcall(owner, AppEvent::SynDropNotice { listener, src });
                }
            }
            NetEvent::ConnReset { conn, container } => {
                self.release_sockbuf(conn);
                if let Some(c) = container {
                    let _ = self.containers.unbind_socket(c);
                }
                if let Some(owner) = self.sock_owner.remove(conn) {
                    if let Some(p) = self.processes.get_mut(owner) {
                        p.forget_socket(conn);
                    }
                    // Tell the owner so it can drop its per-connection
                    // state; without this, an abandoning client leaves its
                    // container bound in the application forever.
                    self.deliver_oob_upcall(owner, AppEvent::ConnReset { conn });
                }
            }
        }
    }

    /// Wakes whatever is waiting on `sock` becoming ready: `select()`
    /// sleepers, blocking readers/acceptors, and the scalable event API.
    fn notify_socket(&mut self, sock: SockId) {
        let select_scan = |n: usize| self.cfg.cost.select_scan(n);
        let mut wakes: Vec<(TaskId, WorkItem)> = Vec::new();
        for (tid, th) in self.threads.iter() {
            let matched = match &th.state {
                ThreadState::Blocked(WaitFor::Select { socks }) => {
                    if socks.contains(&sock) {
                        Some(WorkItem {
                            cost: select_scan(socks.len()),
                            op: Op::DeliverSelect {
                                socks: socks.clone(),
                            },
                            charge_to: None,
                            kernel_mode: true,
                            span: SpanRef::NONE,
                        })
                    } else {
                        None
                    }
                }
                ThreadState::Blocked(WaitFor::Readable(s)) if *s == sock => Some(WorkItem {
                    cost: self.cfg.cost.read_syscall,
                    op: Op::DeliverSelect { socks: vec![sock] },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                }),
                ThreadState::Blocked(WaitFor::Acceptable(l)) if *l == sock => Some(WorkItem {
                    cost: self.cfg.cost.accept_syscall,
                    op: Op::DeliverSelect { socks: vec![sock] },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                }),
                _ => None,
            };
            if let Some(item) = matched {
                wakes.push((tid, item));
            }
        }
        for (tid, item) in wakes {
            if let Some(th) = self.threads.get_mut(tid) {
                th.state = ThreadState::Runnable;
                th.push_work(item);
                self.scheduler.set_runnable(tid, true, self.clock);
            }
        }
        // Scalable event API.
        if let Some(owner) = self.sock_owner.get(sock).copied() {
            let queued = self
                .processes
                .get_mut(owner)
                .map(|p| p.queue_event(sock))
                .unwrap_or(false);
            if queued {
                self.wake_event_waiter(owner);
            }
        }
    }

    fn wake_event_waiter(&mut self, pid: Pid) {
        let qlen = self
            .processes
            .get(pid)
            .map(|p| p.event_queue.len())
            .unwrap_or(0);
        if qlen == 0 {
            return;
        }
        let cost = self.cfg.cost.event_delivery(qlen);
        // Indexed walk instead of cloning the thread list: this runs for
        // every queued socket event, and the clone was a per-event
        // allocation.
        let nthreads = self
            .processes
            .get(pid)
            .map(|p| p.threads.len())
            .unwrap_or(0);
        for i in 0..nthreads {
            let Some(tid) = self
                .processes
                .get(pid)
                .and_then(|p| p.threads.get(i).copied())
            else {
                break;
            };
            let blocked = matches!(
                self.threads.get(tid).map(|t| &t.state),
                Some(ThreadState::Blocked(WaitFor::Event))
            );
            if blocked {
                if let Some(th) = self.threads.get_mut(tid) {
                    th.state = ThreadState::Runnable;
                    th.push_work(WorkItem {
                        cost,
                        op: Op::DeliverEvents,
                        charge_to: None,
                        kernel_mode: true,
                        span: SpanRef::NONE,
                    });
                    self.scheduler.set_runnable(tid, true, self.clock);
                }
                break; // One waiter handles the batch.
            }
        }
    }

    /// Delivers an out-of-band upcall (SYN-drop notice, child exit) to a
    /// process's first application thread, waking it if blocked and
    /// restoring its wait afterwards.
    fn deliver_oob_upcall(&mut self, pid: Pid, ev: AppEvent) {
        let Some(tid) = self
            .processes
            .get(pid)
            .and_then(|p| p.threads.first().copied())
        else {
            return;
        };
        let Some(th) = self.threads.get_mut(tid) else {
            return;
        };
        if let ThreadState::Blocked(w) = th.state.clone() {
            self.resume_waits.or_insert(tid, w);
            th.state = ThreadState::Runnable;
        }
        th.push_work(WorkItem {
            cost: self.cfg.cost.event_api_base,
            op: Op::Upcall(ev),
            charge_to: None,
            kernel_mode: true,
            span: SpanRef::NONE,
        });
        self.scheduler.set_runnable(tid, true, self.clock);
    }

    fn timer_fired(&mut self, task: TaskId, tag: u64) {
        let Some(th) = self.threads.get_mut(task) else {
            return;
        };
        match &th.state {
            ThreadState::Blocked(WaitFor::Timer { tag: t }) if *t == tag => {
                th.state = ThreadState::Runnable;
                th.push_work(WorkItem {
                    cost: Nanos::from_micros(1),
                    op: Op::Upcall(AppEvent::Timer { tag }),
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                });
                self.scheduler.set_runnable(task, true, self.clock);
            }
            ThreadState::Exited => {}
            _ => {
                // The thread is busy: deliver when it gets there.
                th.push_work(WorkItem {
                    cost: Nanos::from_micros(1),
                    op: Op::Upcall(AppEvent::Timer { tag }),
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                });
                if matches!(th.state, ThreadState::Blocked(_)) {
                    if let ThreadState::Blocked(w) = th.state.clone() {
                        self.resume_waits.or_insert(task, w);
                    }
                    th.state = ThreadState::Runnable;
                    self.scheduler.set_runnable(task, true, self.clock);
                }
            }
        }
    }

    fn prune_bindings(&mut self) {
        let now = self.clock;
        let age = self.cfg.sched.prune_age;
        let mut updates: Vec<(TaskId, Vec<ContainerId>)> = Vec::new();
        for (tid, th) in self.threads.iter_mut() {
            if th.kind != ThreadKind::App {
                continue;
            }
            let removed = th.sched_binding.prune(now, age);
            // The current resource binding always stays.
            th.sched_binding.touch(th.resource_binding, now);
            if removed > 0 {
                updates.push((tid, th.sched_binding.containers().to_vec()));
            }
        }
        for (tid, binding) in updates {
            self.scheduler.set_binding(tid, &binding, now);
        }
        self.events.schedule(
            self.clock + self.cfg.sched.prune_interval,
            KernelEvent::Prune,
        );
    }

    // ------------------------------------------------------------------
    // Work-item completion
    // ------------------------------------------------------------------

    fn complete_item(&mut self, task: TaskId, world: &mut dyn World) {
        let Some(th) = self.threads.get_mut(task) else {
            return;
        };
        let Some(item) = th.pop_completed() else {
            return;
        };
        let pid = th.pid;
        if item.span.id != 0 {
            // The thread is now acting on this request: work it pushes
            // from the upcall inherits the span, and until that work runs
            // the request is queued for the CPU again. Operation-specific
            // sites below override the phase at the same timestamp
            // (zero-width segments conserve trivially).
            th.cur_span = item.span.id;
            span::cpu_transition(item.span.id, Phase::CpuQueue, self.clock);
        }
        match item.op {
            Op::Nop => {}
            Op::Upcall(ev) => self.deliver_upcall(pid, task, ev),
            Op::DeliverSelect { socks } => {
                let ready: Vec<SockId> = socks
                    .iter()
                    .copied()
                    .filter(|&s| self.sock_ready(s))
                    .collect();
                if ready.is_empty() {
                    self.block_or_defer(task, WaitFor::Select { socks });
                } else {
                    self.stats.upcalls += 1;
                    self.deliver_upcall(pid, task, AppEvent::SelectReady { ready });
                }
            }
            Op::DeliverEvents => {
                let mut events: Vec<SockId> = Vec::new();
                if let Some(p) = self.processes.get_mut(pid) {
                    while let Some(s) = p.event_queue.pop_front() {
                        events.push(s);
                        if events.len() >= 64 {
                            break;
                        }
                    }
                }
                if events.is_empty() {
                    self.block_or_defer(task, WaitFor::Event);
                } else {
                    if self.cfg.containers_enabled {
                        // §5.5: the kernel delivers events in container
                        // priority order.
                        let mut keyed: Vec<(u32, usize, SockId)> = events
                            .iter()
                            .enumerate()
                            .map(|(i, &s)| {
                                let prio = self
                                    .stack
                                    .container_of(s)
                                    .map(|c| self.principal_priority(c))
                                    .unwrap_or(10);
                                (prio, i, s)
                            })
                            .collect();
                        keyed.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                        events = keyed.into_iter().map(|(_, _, s)| s).collect();
                    }
                    self.stats.upcalls += 1;
                    self.deliver_upcall(pid, task, AppEvent::EventReady { events });
                }
            }
            Op::Transmit { pkts } => {
                for p in pkts {
                    if let Demux::Conn(s) = self.stack.classify(&p) {
                        if let Some(c) = self.stack.container_of(s) {
                            let _ = self.containers.charge_tx(c, p.kind.payload_bytes() as u64);
                        }
                    }
                    self.transmit(p);
                }
            }
            Op::DeliverWritable { sock } => {
                if self.sock_writable(sock) {
                    self.stats.upcalls += 1;
                    self.deliver_upcall(pid, task, AppEvent::Writable { sock });
                } else {
                    // The headroom was consumed again before this thread
                    // ran; go back to sleep on the same condition.
                    self.block_or_defer(task, WaitFor::Writable(sock));
                }
            }
            Op::CloseSock { sock } => {
                self.span_conn_teardown(sock, Outcome::Aborted);
                self.release_sockbuf(sock);
                let bound = self.stack.container_of(sock);
                // Capture the transmit principal before the close frees
                // the socket: the FIN's wire time is still the closer's.
                let tx_owner = self.tx_principal(sock);
                if let Some(fin) = self.stack.close(sock) {
                    self.transmit_from(fin, tx_owner);
                }
                if let Some(c) = bound {
                    // Dropping the socket's container binding may destroy
                    // the per-connection container (§4.6).
                    let _ = self.containers.unbind_socket(c);
                }
                self.sock_owner.remove(sock);
                if let Some(p) = self.processes.get_mut(pid) {
                    p.forget_socket(sock);
                }
            }
            Op::Block(wait) => {
                self.resume_waits.remove(task);
                self.block_or_defer(task, wait);
            }
            Op::ProtoRx { pkt } => {
                let principal = item.charge_to;
                // Classified at processing time, not arrival time: the
                // connection table may have changed while the packet
                // waited in the pending queue.
                let demux = self.stack.classify(&pkt);
                let mut evs = std::mem::take(&mut self.net_buf);
                self.stack
                    .handle_classified(demux, pkt, self.clock, &mut evs);
                self.apply_net_events_kthread(&mut evs, task, principal);
                self.net_buf = evs;
            }
            Op::Exit => {
                self.exit_thread(task);
                return;
            }
        }
        // Post-completion: park, refill, or resume.
        let Some(th) = self.threads.get(task) else {
            return;
        };
        if th.state == ThreadState::Runnable && !th.has_work() {
            match th.kind {
                ThreadKind::KernelNet => self.kthread_refill(pid, task),
                ThreadKind::App => {
                    if let Some(w) = self.resume_waits.remove(task) {
                        self.block_thread(task, w);
                    } else {
                        if let Some(th) = self.threads.get_mut(task) {
                            th.state = ThreadState::Blocked(WaitFor::Idle);
                        }
                        self.scheduler.set_runnable(task, false, self.clock);
                    }
                }
            }
        }
        let _ = world;
    }

    fn sock_ready(&self, s: SockId) -> bool {
        self.stack.readable(s) || self.stack.accept_queue_len(s) > 0
    }

    /// Blocks a thread on `wait`, unless the condition already holds — in
    /// which case the wake work is queued immediately.
    /// Blocks `task` on `wait` — unless out-of-band work (an IPC
    /// doorbell, a SYN-drop notice, a connection reset) was queued behind
    /// the wait, in which case the thread keeps running and the wait is
    /// restored once its queue drains.
    fn block_or_defer(&mut self, task: TaskId, wait: WaitFor) {
        let has_more = self
            .threads
            .get(task)
            .map(|t| t.has_work())
            .unwrap_or(false);
        if has_more {
            self.resume_waits.insert(task, wait);
        } else {
            self.block_thread(task, wait);
        }
    }

    fn block_thread(&mut self, task: TaskId, wait: WaitFor) {
        let ready_now = match &wait {
            WaitFor::Select { socks } => socks.iter().any(|&s| self.sock_ready(s)),
            WaitFor::Readable(s) => self.stack.readable(*s),
            WaitFor::Acceptable(l) => self.stack.accept_queue_len(*l) > 0,
            WaitFor::Event => {
                let pid = self.threads.get(task).map(|t| t.pid);
                pid.and_then(|p| self.processes.get(p))
                    .map(|p| !p.event_queue.is_empty())
                    .unwrap_or(false)
            }
            WaitFor::Writable(s) => self.sock_writable(*s),
            WaitFor::Timer { .. } | WaitFor::Idle => false,
        };
        if ready_now {
            let item = match &wait {
                WaitFor::Select { socks } => WorkItem {
                    cost: self.cfg.cost.select_scan(socks.len()),
                    op: Op::DeliverSelect {
                        socks: socks.clone(),
                    },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                },
                WaitFor::Readable(s) => WorkItem {
                    cost: self.cfg.cost.read_syscall,
                    op: Op::DeliverSelect { socks: vec![*s] },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                },
                WaitFor::Acceptable(l) => WorkItem {
                    cost: self.cfg.cost.accept_syscall,
                    op: Op::DeliverSelect { socks: vec![*l] },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                },
                WaitFor::Event => {
                    let pid = self.threads.get(task).map(|t| t.pid);
                    let qlen = pid
                        .and_then(|p| self.processes.get(p))
                        .map(|p| p.event_queue.len())
                        .unwrap_or(0);
                    WorkItem {
                        cost: self.cfg.cost.event_delivery(qlen),
                        op: Op::DeliverEvents,
                        charge_to: None,
                        kernel_mode: true,
                        span: SpanRef::NONE,
                    }
                }
                WaitFor::Writable(s) => WorkItem {
                    cost: self.cfg.cost.write_syscall,
                    op: Op::DeliverWritable { sock: *s },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                },
                WaitFor::Timer { .. } | WaitFor::Idle => unreachable!(),
            };
            if let Some(th) = self.threads.get_mut(task) {
                th.state = ThreadState::Runnable;
                th.push_work(item);
            }
            self.scheduler.set_runnable(task, true, self.clock);
        } else {
            if let Some(th) = self.threads.get_mut(task) {
                th.state = ThreadState::Blocked(wait);
            }
            self.scheduler.set_runnable(task, false, self.clock);
        }
    }

    fn exit_thread(&mut self, task: TaskId) {
        let Some(mut th) = self.threads.remove(task) else {
            return;
        };
        th.state = ThreadState::Exited;
        self.scheduler.remove_task(task);
        self.resume_waits.remove(task);
        self.release_thread_stack(task);
        let _ = self.containers.unbind_thread(th.resource_binding);
        let pid = th.pid;
        let (last, parent) = match self.processes.get_mut(pid) {
            Some(p) => {
                p.threads.retain(|&t| t != task);
                (p.threads.is_empty(), p.parent)
            }
            None => (false, None),
        };
        if last {
            self.exit_process(pid);
            if let Some(pp) = parent {
                if self.processes.contains_key(pp) {
                    self.deliver_oob_upcall(pp, AppEvent::ChildExited { pid });
                }
            }
        }
    }

    fn exit_process(&mut self, pid: Pid) {
        let Some(mut p) = self.processes.remove(pid) else {
            return;
        };
        // Close all sockets.
        for sock in p.sockets.clone() {
            self.release_sockbuf(sock);
            let bound = self.stack.container_of(sock);
            match self
                .stack
                .socket(sock)
                .map(|s| matches!(s.kind, simnet::SocketKind::Listen(_)))
            {
                Some(true) => {
                    // Drain queued-but-unaccepted connections first so their
                    // container bindings are released.
                    while let Some(conn) = self.stack.accept(sock) {
                        self.span_conn_teardown(conn, Outcome::Aborted);
                        let tx_owner = self.tx_principal(conn);
                        if let Some(c) = self.stack.container_of(conn) {
                            let _ = self.containers.unbind_socket(c);
                        }
                        if let Some(fin) = self.stack.close(conn) {
                            self.transmit_from(fin, tx_owner);
                        }
                        self.sock_owner.remove(conn);
                    }
                    let tx_owner = self.tx_principal(sock);
                    for rst in self.stack.close_listen(sock) {
                        self.transmit_from(rst, tx_owner);
                    }
                    self.listener_budgets.remove(sock);
                    if let Some(c) = bound {
                        let _ = self.containers.unbind_socket(c);
                    }
                }
                Some(false) => {
                    self.span_conn_teardown(sock, Outcome::Aborted);
                    let tx_owner = self.tx_principal(sock);
                    if let Some(fin) = self.stack.close(sock) {
                        self.transmit_from(fin, tx_owner);
                    }
                    if let Some(c) = bound {
                        let _ = self.containers.unbind_socket(c);
                    }
                }
                None => {}
            }
            self.sock_owner.remove(sock);
        }
        // Release container descriptors; then the default container.
        p.containers.close_all(&mut self.containers);
        let _ = self.containers.drop_descriptor_ref(p.default_container);
        // Tear down the kernel network thread.
        if let Some(ktid) = self.kthreads.remove(pid) {
            if let Some(kth) = self.threads.remove(ktid) {
                let _ = self.containers.unbind_thread(kth.resource_binding);
            }
            self.release_thread_stack(ktid);
            self.scheduler.remove_task(ktid);
        }
        // Return any outstanding `kmem_reserve` memory.
        if let Some((c, bytes)) = self.kmem_charges.remove(pid) {
            self.release_kernel_mem(c, MemClass::Other, bytes);
        }
        self.pending.remove(pid);
        self.handlers.remove(pid);
    }

    /// Releases the socket-buffer and protocol-state memory charged to a
    /// connection, if any.
    fn release_sockbuf(&mut self, sock: SockId) {
        if let Some((c, bytes)) = self.sockbuf_charges.remove(sock) {
            let _ = self
                .containers
                .release_mem_class(c, MemClass::SockBuf, bytes);
            if let Some(acct) = self.mem.as_mut() {
                acct.note_release(MemClass::SockBuf, bytes);
            }
        }
        if let Some((c, bytes)) = self.pcb_charges.remove(sock) {
            self.release_kernel_mem(c, MemClass::ConnState, bytes);
        }
    }

    // ------------------------------------------------------------------
    // Kernel memory (`simmem`): charge, reclaim, OOM
    // ------------------------------------------------------------------

    /// The kernel memory accountant, when the subsystem is configured.
    pub fn mem_acct(&self) -> Option<&MemAccountant> {
        self.mem.as_ref()
    }

    /// Charges `bytes` of class `class` kernel memory to container `c`.
    ///
    /// Without the memory subsystem this is the legacy hierarchy-limit
    /// check (and in practice never refuses, because no `mem_limit`s are
    /// set in those configurations). With it, the charge first squeezes
    /// reclaimable cache pages out of the violating subtree; if that is
    /// not enough, a container-targeted OOM kill frees the largest
    /// over-limit principal and the charge is retried once. Returns
    /// `false` when the charge is finally refused.
    fn charge_kernel_mem(&mut self, c: ContainerId, class: MemClass, bytes: u64) -> bool {
        if self.mem.is_none() {
            return self.containers.charge_mem_class(c, class, bytes).is_ok();
        }
        let acct = self.mem.as_mut().expect("configured");
        match mem::charge_with_reclaim(
            &mut self.containers,
            &mut self.disk_cache,
            acct,
            c,
            class,
            bytes,
        ) {
            Ok(()) => {
                self.mem_pressure_check(c);
                return true;
            }
            Err(fail) => {
                self.oom_kill(&fail);
            }
        }
        let acct = self.mem.as_mut().expect("configured");
        match mem::charge_with_reclaim(
            &mut self.containers,
            &mut self.disk_cache,
            acct,
            c,
            class,
            bytes,
        ) {
            Ok(()) => {
                self.mem_pressure_check(c);
                true
            }
            Err(_) => {
                self.mem.as_mut().expect("configured").refusals += 1;
                false
            }
        }
    }

    /// Releases a charge made with [`Self::charge_kernel_mem`].
    fn release_kernel_mem(&mut self, c: ContainerId, class: MemClass, bytes: u64) {
        let _ = self.containers.release_mem_class(c, class, bytes);
        if let Some(acct) = self.mem.as_mut() {
            acct.note_release(class, bytes);
        }
    }

    /// Charges the fixed kernel-stack size for a new thread (no-op when
    /// the memory subsystem is off). Returns `false` on refusal; on
    /// success the charge is remembered for release at thread exit.
    fn charge_thread_stack(&mut self, tid: TaskId, c: ContainerId) -> bool {
        let Some(bytes) = self.mem.as_ref().map(|m| m.params.stack_bytes) else {
            return true;
        };
        if bytes == 0 {
            return true;
        }
        if self.charge_kernel_mem(c, MemClass::ThreadStack, bytes) {
            self.stack_charges.insert(tid, (c, bytes));
            true
        } else {
            false
        }
    }

    fn release_thread_stack(&mut self, tid: TaskId) {
        if let Some((c, bytes)) = self.stack_charges.remove(tid) {
            self.release_kernel_mem(c, MemClass::ThreadStack, bytes);
        }
    }

    /// Backs [`SysCtx::kmem_reserve`]: pins `bytes` of kernel memory on
    /// behalf of `pid`, charged to its default container. Returns `false`
    /// when refused (only possible with the memory subsystem configured
    /// and the subtree hard over its limit).
    pub(crate) fn kmem_reserve(&mut self, pid: Pid, bytes: u64) -> bool {
        let Some(c) = self.process_container(pid) else {
            return false;
        };
        if bytes == 0 {
            return true;
        }
        if !self.charge_kernel_mem(c, MemClass::Other, bytes) {
            return false;
        }
        // The OOM triggered by this very charge may have wiped the pid's
        // previous reservation; the entry re-created here holds only what
        // is actually charged now.
        let e = self.kmem_charges.or_insert(pid, (c, 0));
        e.0 = c;
        e.1 += bytes;
        true
    }

    /// Backs [`SysCtx::kmem_release`]: returns up to `bytes` of a prior
    /// reservation.
    pub(crate) fn kmem_release(&mut self, pid: Pid, bytes: u64) {
        let Some(&(c, held)) = self.kmem_charges.get(pid) else {
            return;
        };
        let rel = bytes.min(held);
        if rel == 0 {
            return;
        }
        if rel == held {
            self.kmem_charges.remove(pid);
        } else if let Some(e) = self.kmem_charges.get_mut(pid) {
            e.1 -= rel;
        }
        self.release_kernel_mem(c, MemClass::Other, rel);
    }

    /// Container-targeted OOM (§4.4): the victim is the principal with
    /// the largest own memory charge inside the violating subtree — not
    /// an arbitrary process, and never a principal outside the subtree
    /// that caused the shortage. Its cache pages, connections, and
    /// reservations are released; every owning process gets one
    /// `AppEvent::MemKill`.
    fn oom_kill(&mut self, fail: &MemFailure) {
        let Some((victim_key, victim_bytes)) =
            mem::pick_oom_victim(&self.containers, fail.refusing)
        else {
            return;
        };
        let Some(victim_id) = self
            .containers
            .iter()
            .find(|(id, _)| id.as_u64() == victim_key)
            .map(|(id, _)| id)
        else {
            return;
        };
        if let Some(acct) = self.mem.as_mut() {
            acct.oom_kills += 1;
        }
        trace::emit(|| TraceEventKind::OomKill {
            container: fail.refusing,
            victim: victim_key,
            bytes: victim_bytes,
        });
        // 1. Drop the victim's cache pages (net delta keeps the
        //    accountant's CachePage ledger exact).
        let before = self.disk_cache.used();
        self.disk_cache.evict_owner(victim_id, &mut self.containers);
        let freed = before - self.disk_cache.used();
        if let Some(acct) = self.mem.as_mut() {
            acct.note_release(MemClass::CachePage, freed);
        }
        let mut pids: std::collections::BTreeSet<Pid> = std::collections::BTreeSet::new();
        // 2. Reset every connection whose buffers are charged to the
        //    victim (sorted for determinism: the charge map is a HashMap).
        let mut conns: Vec<SockId> = self
            .sockbuf_charges
            .iter()
            .filter(|&(_, &(c, _))| c == victim_id)
            .map(|(s, _)| s)
            .collect();
        conns.sort();
        for conn in conns {
            self.span_conn_teardown(conn, Outcome::Aborted);
            self.release_sockbuf(conn);
            let tx_owner = self.tx_principal(conn);
            if let Some(cb) = self.stack.container_of(conn) {
                let _ = self.containers.unbind_socket(cb);
            }
            if let Some(rst) = self.stack.close(conn) {
                let mut rst = rst;
                rst.kind = simnet::PacketKind::Rst;
                self.transmit_from(rst, tx_owner);
            }
            if let Some(owner) = self.sock_owner.remove(conn) {
                if let Some(p) = self.processes.get_mut(owner) {
                    p.forget_socket(conn);
                }
                pids.insert(owner);
            }
        }
        // 3. Return the victim's pinned reservations.
        let kpids: Vec<Pid> = self
            .kmem_charges
            .iter()
            .filter(|&(_, &(c, _))| c == victim_id)
            .map(|(p, _)| p)
            .collect();
        for p in kpids {
            if let Some((c, bytes)) = self.kmem_charges.remove(p) {
                self.release_kernel_mem(c, MemClass::Other, bytes);
                pids.insert(p);
            }
        }
        // 4. Notify the owners, in pid order.
        for pid in pids {
            if self.processes.contains_key(pid) {
                self.deliver_oob_upcall(
                    pid,
                    AppEvent::MemKill {
                        container: victim_key,
                    },
                );
            }
        }
    }

    /// Emits `MemPressure` for limited ancestors sitting above the
    /// configured fraction of their `mem_limit` after a successful charge.
    fn mem_pressure_check(&mut self, c: ContainerId) {
        let Some(acct) = self.mem.as_mut() else {
            return;
        };
        mem::pressure_check(&self.containers, acct, c);
    }

    // ------------------------------------------------------------------
    // Request-span transmit bookkeeping (rcspan; purely observational)
    // ------------------------------------------------------------------

    /// Counts `n` freshly queued response packets against span `sp`
    /// (called from the `send` syscall, where the packets are created).
    pub(crate) fn span_tx_queued(&mut self, sp: u64, n: u32) {
        if sp == 0 || !span::enabled() {
            return;
        }
        self.span_tx.entry(sp).or_default().queued += n;
    }

    /// Arms finish-on-last-wire-byte for span `sp`: once every counted
    /// response packet has cleared the wire, the span finishes
    /// `Completed`. Finishes immediately if nothing is outstanding.
    pub(crate) fn span_arm_finish(&mut self, sp: u64) {
        if sp == 0 || !span::enabled() {
            return;
        }
        let st = self.span_tx.entry(sp).or_default();
        st.armed = true;
        self.span_tx_check_done(sp);
    }

    /// Finishes span `sp` `Completed` if it is armed and fully drained.
    fn span_tx_check_done(&mut self, sp: u64) {
        let done = self
            .span_tx
            .get(&sp)
            .map(|st| st.armed && st.queued == 0 && st.wire == 0)
            .unwrap_or(false);
        if done {
            self.span_tx.remove(&sp);
            span::finish(sp, self.clock, Outcome::Completed);
        }
    }

    /// One response packet of span `sp` has left the simulated machine
    /// (wire completion, or instantly on the linkless path).
    fn span_tx_pkt_done(&mut self, sp: u64, wired: bool) {
        if sp == 0 {
            return;
        }
        let Some(st) = self.span_tx.get_mut(&sp) else {
            return;
        };
        if wired {
            st.wire = st.wire.saturating_sub(1);
        } else {
            st.queued = st.queued.saturating_sub(1);
        }
        if st.armed && st.queued == 0 && st.wire == 0 {
            self.span_tx.remove(&sp);
            span::finish(sp, self.clock, Outcome::Completed);
        } else if st.queued > 0 && st.wire == 0 {
            // More of the response is still queued behind other
            // principals' traffic.
            span::transition(sp, Phase::TxQueue, self.clock);
        } else if st.queued == 0 && st.wire == 0 {
            // Response bytes so far are on the far side; the request is
            // back to CPU work (e.g. producing the rest under
            // backpressure).
            span::transition(sp, Phase::CpuQueue, self.clock);
        }
    }

    /// Finishes the open span of a connection being torn down, unless the
    /// span is armed — then the in-flight transmit machinery owns the
    /// finish (the response is already on its way out).
    fn span_conn_teardown(&mut self, conn: SockId, outcome: Outcome) {
        if !span::enabled() {
            return;
        }
        let sp = self.stack.span_of(conn);
        if sp == 0 || !span::is_open(sp) {
            return;
        }
        let armed = self.span_tx.get(&sp).map(|st| st.armed).unwrap_or(false);
        if !armed {
            self.span_tx.remove(&sp);
            span::finish(sp, self.clock, outcome);
        }
    }

    fn transmit(&mut self, pkt: Packet) {
        if self.link.is_none() {
            self.stats.pkts_out += 1;
            let sp = pkt.span;
            self.events.schedule(
                self.clock + self.cfg.cost.link_latency,
                KernelEvent::PacketToWorld(pkt),
            );
            // No finite link: the packet leaves instantly, so the span
            // sees zero tx-queue and wire time.
            self.span_tx_pkt_done(sp, false);
            return;
        }
        let owner = match self.stack.classify(&pkt) {
            Demux::Conn(s) | Demux::Listen(s) => self.tx_principal(s),
            Demux::NoMatch => self.containers.root(),
        };
        self.transmit_link(pkt, owner);
    }

    /// Transmits a packet whose owning socket is already gone (FIN after
    /// close, RST on teardown), charging `owner`'s container for the wire
    /// time. Falls back to the root container if `owner` has since been
    /// destroyed. Identical to [`transmit`](Self::transmit) when no finite
    /// link is configured.
    fn transmit_from(&mut self, pkt: Packet, owner: ContainerId) {
        if self.link.is_none() {
            self.transmit(pkt);
            return;
        }
        let owner = if self.containers.contains(owner) {
            owner
        } else {
            self.containers.root()
        };
        self.transmit_link(pkt, owner);
    }

    /// The container charged for bytes transmitted on `sock`: its bound
    /// container if live, else the owning process's default container,
    /// else root.
    fn tx_principal(&self, sock: SockId) -> ContainerId {
        self.stack
            .container_of(sock)
            .filter(|c| self.containers.contains(*c))
            .or_else(|| {
                self.sock_owner
                    .get(sock)
                    .and_then(|&pid| self.processes.get(pid))
                    .map(|p| p.default_container)
                    .filter(|c| self.containers.contains(*c))
            })
            .unwrap_or_else(|| self.containers.root())
    }

    /// Hands a packet to the link scheduler and starts the wire if idle.
    fn transmit_link(&mut self, pkt: Packet, owner: ContainerId) {
        let key = owner.as_u64();
        self.link_owner_ids.insert(key, owner);
        let path = self
            .containers
            .net_weight_path(owner)
            .unwrap_or_else(|_| vec![(key, 1, None)]);
        let wire_bytes = pkt.wire_bytes() as u64;
        let wire = self
            .cfg
            .net
            .link
            .as_ref()
            .expect("transmit_link requires a configured link")
            .wire_time(wire_bytes);
        if self.trace_on {
            trace::emit_at(self.clock, || TraceEventKind::LinkQueue {
                port: pkt.flow.dst_port,
                bytes: wire_bytes,
                container: key,
            });
        }
        if pkt.span != 0 {
            // The response packet now sits in the link scheduler; unless
            // an earlier packet of the same request already occupies the
            // wire, the request is link-queued.
            let on_wire = self
                .span_tx
                .get(&pkt.span)
                .map(|st| st.wire > 0)
                .unwrap_or(false);
            if !on_wire {
                span::transition(pkt.span, Phase::TxQueue, self.clock);
            }
        }
        if let Some(link) = self.link.as_mut() {
            link.enqueue(&path, pkt, wire, self.clock);
        }
        self.link_kick();
    }

    /// Starts the next packet on an idle wire, or arms a throttle tick if
    /// every backlogged container is rate-capped.
    fn link_kick(&mut self) {
        if self.link_inflight.is_some() {
            return;
        }
        let Some(link) = self.link.as_mut() else {
            return;
        };
        match link.dispatch(self.clock) {
            Dispatch::Start { pkt, owner, wire } => {
                if self.trace_on {
                    trace::emit_at(self.clock, || TraceEventKind::LinkStart {
                        port: pkt.flow.dst_port,
                        bytes: pkt.wire_bytes() as u64,
                        container: owner,
                        wire,
                    });
                }
                if pkt.span != 0 {
                    if let Some(st) = self.span_tx.get_mut(&pkt.span) {
                        st.queued = st.queued.saturating_sub(1);
                        st.wire += 1;
                    }
                    span::transition(pkt.span, Phase::Wire, self.clock);
                }
                let done = self.clock + wire;
                self.link_inflight = Some(LinkInflight {
                    pkt,
                    owner,
                    done,
                    wire,
                });
                self.events.schedule(done, KernelEvent::LinkTick);
            }
            Dispatch::Throttled(at) => {
                let at = at.max(self.clock);
                if self.link_wait_until.is_none_or(|w| at < w) {
                    self.link_wait_until = Some(at);
                    self.events.schedule(at, KernelEvent::LinkTick);
                }
            }
            Dispatch::Idle => {}
        }
    }

    /// A `LinkTick` fired: complete the in-flight packet (charging its
    /// wire time and releasing send backpressure) and restart the wire.
    fn link_tick(&mut self) {
        self.link_wait_until = None;
        if let Some(inf) = &self.link_inflight {
            if inf.done > self.clock {
                // A stale throttle tick fired while the wire is busy; the
                // completion tick for the in-flight packet is still queued.
                return;
            }
            let LinkInflight {
                pkt, owner, wire, ..
            } = self.link_inflight.take().expect("checked above");
            self.link_busy += wire;
            self.link_wire_bytes += pkt.wire_bytes() as u64;
            self.link_pkts += 1;
            let cid = self
                .link_owner_ids
                .get(&owner)
                .copied()
                .filter(|c| self.containers.contains(*c))
                .unwrap_or_else(|| self.containers.root());
            let _ = self.containers.charge_tx_time(cid, wire);
            let payload = pkt.kind.payload_bytes() as u64;
            if payload > 0 {
                if let Some(b) = self.tx_backlog.get_mut(&owner) {
                    *b = b.saturating_sub(payload);
                    if *b == 0 {
                        self.tx_backlog.remove(&owner);
                    }
                }
                self.wake_writable(owner);
            }
            self.stats.pkts_out += 1;
            let sp = pkt.span;
            self.events.schedule(
                self.clock + self.cfg.cost.link_latency,
                KernelEvent::PacketToWorld(pkt),
            );
            self.span_tx_pkt_done(sp, true);
        }
        self.link_kick();
    }

    /// Wakes threads blocked on writability of sockets charged to `owner`
    /// whose backpressure has drained, and queues writability events for
    /// processes with event-API writable interest.
    fn wake_writable(&mut self, owner: u64) {
        let mut woken: Vec<(TaskId, SockId)> = Vec::new();
        for (tid, th) in self.threads.iter() {
            if let ThreadState::Blocked(WaitFor::Writable(s)) = th.state {
                if self.tx_principal(s).as_u64() == owner && self.sock_writable(s) {
                    woken.push((tid, s));
                }
            }
        }
        for (tid, sock) in woken {
            let cost = self.cfg.cost.write_syscall;
            if let Some(th) = self.threads.get_mut(tid) {
                th.state = ThreadState::Runnable;
                th.push_work(WorkItem {
                    cost,
                    op: Op::DeliverWritable { sock },
                    charge_to: None,
                    kernel_mode: true,
                    span: SpanRef::NONE,
                });
            }
            self.scheduler.set_runnable(tid, true, self.clock);
        }
        let pids: Vec<Pid> = self.processes.keys().collect();
        for pid in pids {
            let interested: Vec<SockId> = self
                .processes
                .get(pid)
                .map(|p| p.event_interest_w.clone())
                .unwrap_or_default();
            let mut queued = false;
            for s in interested {
                if self.tx_principal(s).as_u64() == owner && self.sock_writable(s) {
                    if let Some(p) = self.processes.get_mut(pid) {
                        queued |= p.queue_writable_event(s);
                    }
                }
            }
            if queued {
                self.wake_event_waiter(pid);
            }
        }
    }

    /// Whether `sock` can accept more send bytes without queueing past
    /// its principal's sockbuf limit. Always true without a finite link;
    /// false for closed or listening sockets.
    pub(crate) fn sock_writable(&self, sock: SockId) -> bool {
        if self.link.is_none() {
            return true;
        }
        match self.stack.socket(sock).map(|s| &s.kind) {
            Some(simnet::SocketKind::Conn(_)) => self.tx_headroom(sock) > 0,
            _ => false,
        }
    }

    /// Send bytes `sock`'s principal may still queue before hitting its
    /// effective sockbuf limit. `u64::MAX` when unlimited.
    pub(crate) fn tx_headroom(&self, sock: SockId) -> u64 {
        if self.link.is_none() {
            return u64::MAX;
        }
        let owner = self.tx_principal(sock);
        match self
            .containers
            .effective_sockbuf_limit(owner)
            .ok()
            .flatten()
        {
            Some(limit) => {
                let used = self.tx_backlog.get(&owner.as_u64()).copied().unwrap_or(0);
                limit.saturating_sub(used)
            }
            None => u64::MAX,
        }
    }

    /// Reserves send-backlog bytes against `sock`'s principal; released
    /// as the queued data clocks out on the wire.
    pub(crate) fn link_reserve(&mut self, sock: SockId, bytes: u64) {
        if self.link.is_none() || bytes == 0 {
            return;
        }
        let owner = self.tx_principal(sock).as_u64();
        *self.tx_backlog.entry(owner).or_insert(0) += bytes;
    }

    /// Whether a finite-bandwidth link is configured.
    pub(crate) fn link_configured(&self) -> bool {
        self.link.is_some()
    }

    /// Delivers an upcall to the process handler, giving it a [`SysCtx`].
    fn deliver_upcall(&mut self, pid: Pid, task: TaskId, ev: AppEvent) {
        let Some(slot) = self.handlers.get_mut(pid) else {
            return;
        };
        let Some(mut handler) = slot.take() else {
            return;
        };
        {
            let mut ctx = SysCtx::new(self, pid, task);
            handler.on_event(&mut ctx, task, ev);
        }
        if let Some(slot) = self.handlers.get_mut(pid) {
            *slot = Some(handler);
        }
    }

    // ------------------------------------------------------------------
    // Crate-internal accessors used by SysCtx
    // ------------------------------------------------------------------

    pub(crate) fn clock_now(&self) -> Nanos {
        self.clock
    }

    pub(crate) fn cost_model(&self) -> &CostModel {
        &self.cfg.cost
    }

    pub(crate) fn thread_mut(&mut self, t: TaskId) -> Option<&mut Thread> {
        self.threads.get_mut(t)
    }

    pub(crate) fn thread_ref(&self, t: TaskId) -> Option<&Thread> {
        self.threads.get(t)
    }

    pub(crate) fn process_mut(&mut self, p: Pid) -> Option<&mut Process> {
        self.processes.get_mut(p)
    }

    pub(crate) fn process_ref(&self, p: Pid) -> Option<&Process> {
        self.processes.get(p)
    }

    pub(crate) fn scheduler_mut(&mut self) -> &mut dyn Scheduler {
        self.scheduler.as_mut()
    }

    /// Hot-swaps the CPU scheduling policy. Every registered task is
    /// exported from the detaching scheduler as a policy-neutral snapshot
    /// (home CPU, binding, runnable state) and replayed into a freshly
    /// built replacement; policy ledgers (passes, decayed usages, limit
    /// buckets) start fresh for everyone at once. Charged CPU time lives
    /// in the container table and is untouched, so conservation holds
    /// across the swap. Returns the name of the detached policy.
    pub fn set_cpu_policy(&mut self, kind: SchedPolicyKind) -> &'static str {
        let now = self.clock;
        let fresh = rcpolicy::build_cpu(kind, self.cfg.sched.ncpus);
        let (from, to) = rcpolicy::swap(&mut self.scheduler, fresh, (), now);
        self.cfg.sched.policy = kind;
        trace::emit_at(now, || TraceEventKind::PolicySwap {
            plane: Plane::Cpu.label(),
            from,
            to,
        });
        rctrace::record_policy_swap(now, Plane::Cpu.label(), from, to);
        from
    }

    /// Hot-swaps the disk request-ordering policy, draining queued
    /// requests from the old discipline into the new one in arrival
    /// order. The in-flight request is untouched (disk service is
    /// non-preemptive; its finish time is already fixed). Returns the
    /// name of the detached policy.
    pub fn set_disk_policy(&mut self, kind: DiskSchedKind) -> &'static str {
        let now = self.clock;
        let from = self
            .disk
            .replace_sched(rcpolicy::build_disk(kind), &self.containers);
        self.cfg.disk.sched = kind;
        trace::emit_at(now, || TraceEventKind::PolicySwap {
            plane: Plane::Disk.label(),
            from,
            to: kind.name(),
        });
        rctrace::record_policy_swap(now, Plane::Disk.label(), from, kind.name());
        from
    }

    /// Hot-swaps the link queueing discipline, draining queued packets —
    /// with their class chains — from the old qdisc into the new one in
    /// arrival order. The packet on the wire is untouched (its completion
    /// is already scheduled); rate-cap token buckets restart at their
    /// burst allowance, per the fresh-ledger rule. Returns the detached
    /// policy's name, or `None` when no finite link is configured (the
    /// swap is then a no-op).
    pub fn set_link_policy(&mut self, qdisc: QdiscKind) -> Option<&'static str> {
        let link = self.link.as_mut()?;
        let now = self.clock;
        let (from, to) = rcpolicy::swap(link, rcpolicy::build_link(qdisc), (), now);
        if let Some(p) = self.cfg.net.link.as_mut() {
            p.qdisc = qdisc;
        }
        trace::emit_at(now, || TraceEventKind::PolicySwap {
            plane: Plane::Link.label(),
            from,
            to,
        });
        rctrace::record_policy_swap(now, Plane::Link.label(), from, to);
        // Requeued packets may be immediately dispatchable under the new
        // discipline even if the old one was throttled.
        self.link_kick();
        Some(from)
    }

    pub(crate) fn post_ipc(&mut self, from: Pid, to: Pid, tag: u64) {
        self.deliver_oob_upcall(to, AppEvent::Ipc { from, tag });
    }

    pub(crate) fn reassign_socket(&mut self, sock: SockId, from: Pid, to: Pid) {
        if let Some(p) = self.processes.get_mut(from) {
            p.forget_socket(sock);
        }
        self.sock_owner.insert(sock, to);
        if let Some(p) = self.processes.get_mut(to) {
            p.sockets.push(sock);
        }
    }

    pub(crate) fn register_socket(&mut self, sock: SockId, pid: Pid) {
        self.sock_owner.insert(sock, pid);
        if let Some(p) = self.processes.get_mut(pid) {
            p.sockets.push(sock);
        }
    }

    pub(crate) fn schedule_app_timer(&mut self, task: TaskId, at: Nanos, tag: u64) {
        self.events
            .schedule(at.max(self.clock), KernelEvent::TimerFired(task, tag));
    }

    /// Injects a packet into the NIC at an absolute time (used by
    /// harnesses to seed traffic).
    pub fn inject_packet(&mut self, pkt: Packet, at: Nanos) {
        self.events
            .schedule(at.max(self.clock), KernelEvent::PacketIn(pkt));
    }

    /// Arms a world timer at an absolute time (used by harnesses to start
    /// client logic).
    pub fn arm_world_timer(&mut self, tag: u64, at: Nanos) {
        self.events
            .schedule(at.max(self.clock), KernelEvent::WorldTimer(tag));
    }

    /// Opens a listening socket on behalf of a process without charging
    /// costs (harness setup helper; applications use
    /// [`SysCtx::listen`]).
    pub fn setup_listen(
        &mut self,
        pid: Pid,
        spec: ListenSpec,
        container: Option<ContainerId>,
    ) -> SockId {
        let mut container = container.or_else(|| self.process_container(pid));
        if let Some(c) = container {
            if self.containers.bind_socket(c).is_err() {
                container = None;
            }
        }
        let s = self.stack.listen(
            spec.port,
            spec.filter,
            container,
            self.cfg.net.syn_backlog,
            self.cfg.net.accept_backlog,
            spec.notify_syn_drops,
        );
        self.set_listener_budgets(s, spec.syn_budget, spec.accept_budget);
        self.register_socket(s, pid);
        s
    }

    /// Early-drop charges per container (`Idx::as_u64()` keys): one count
    /// per packet discarded before protocol processing, billed to the
    /// container the packet *classified to* — the attacker-pays ledger.
    /// Covers no-owner, queue-full, and admission-control drops.
    pub fn drop_charges(&self) -> &BTreeMap<u64, u64> {
        &self.drop_charges
    }

    /// Early-drop charges attributed to `container` (zero when it never
    /// overflowed anything).
    pub fn drop_charges_of(&self, container: ContainerId) -> u64 {
        self.drop_charges
            .get(&container.as_u64())
            .copied()
            .unwrap_or(0)
    }

    /// Total wire time, wire bytes, and packets the finite link has
    /// transmitted (all zero without a configured link).
    pub fn link_totals(&self) -> (Nanos, u64, u64) {
        (self.link_busy, self.link_wire_bytes, self.link_pkts)
    }

    /// Wire time charged to `container`'s subtree by the link scheduler.
    pub fn subtree_tx_of(&self, container: ContainerId) -> Nanos {
        self.containers.subtree_tx(container).unwrap_or(Nanos::ZERO)
    }

    /// Unsent response bytes currently reserved against `container`'s
    /// socket-buffer limit (zero without a configured link). Never
    /// exceeds the container's effective `sockbuf_limit`.
    pub fn tx_backlog_of(&self, container: ContainerId) -> u64 {
        self.tx_backlog
            .get(&container.as_u64())
            .copied()
            .unwrap_or(0)
    }

    /// Faults injected so far under the configured [`FaultPlan`]
    /// (all-zero when no plan is configured).
    pub fn fault_counts(&self) -> FaultCounts {
        self.injector
            .as_ref()
            .map(|i| i.counts())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Observability (rctrace)
    // ------------------------------------------------------------------

    /// One metrics row per live container: its usage aggregates plus the
    /// instantaneous state a post-hoc exporter could not reconstruct
    /// (runnable depth, SYN-queue occupancy, cache residency, effective
    /// share).
    fn container_rows(&self) -> Vec<rctrace::ContainerSample> {
        let mut runnable: HashMap<u64, u32> = HashMap::new();
        for th in self.threads.values() {
            if th.state == ThreadState::Runnable {
                *runnable.entry(th.charge_container().as_u64()).or_insert(0) += 1;
            }
        }
        let mut syn: HashMap<u64, u32> = HashMap::new();
        for (c, depth) in self.stack.listener_syn_occupancy() {
            if let Some(c) = c {
                *syn.entry(c.as_u64()).or_insert(0) += depth as u32;
            }
        }
        self.containers
            .iter()
            .map(|(id, c)| {
                let key = id.as_u64();
                rctrace::ContainerSample {
                    container: key,
                    name: c.attrs().name.clone().unwrap_or_default(),
                    usage: *c.usage(),
                    subtree_cpu: self.containers.subtree_cpu(id).unwrap_or(Nanos::ZERO),
                    subtree_disk: self.containers.subtree_disk(id).unwrap_or(Nanos::ZERO),
                    subtree_tx: self.containers.subtree_tx(id).unwrap_or(Nanos::ZERO),
                    cache_bytes: self.disk_cache.resident_bytes(id),
                    runnable: runnable.get(&key).copied().unwrap_or(0),
                    syn_queue: syn.get(&key).copied().unwrap_or(0),
                    effective_share: self.containers.effective_share(id).unwrap_or(0.0),
                }
            })
            .collect()
    }

    /// End-of-run aggregates for the conservation identity: root subtree
    /// plus floating subtrees plus reaped history equals the charged
    /// totals, for CPU and disk alike.
    fn global_totals(&self) -> rctrace::GlobalTotals {
        let root = self.containers.root();
        let mut floating_cpu = Nanos::ZERO;
        let mut floating_disk = Nanos::ZERO;
        let mut floating_tx = Nanos::ZERO;
        for &f in self.containers.floating() {
            floating_cpu += self.containers.subtree_cpu(f).unwrap_or(Nanos::ZERO);
            floating_disk += self.containers.subtree_disk(f).unwrap_or(Nanos::ZERO);
            floating_tx += self.containers.subtree_tx(f).unwrap_or(Nanos::ZERO);
        }
        rctrace::GlobalTotals {
            end: self.clock,
            charged_cpu: self.stats.charged_cpu,
            interrupt_cpu: self.stats.interrupt_cpu,
            overhead_cpu: self.stats.overhead_cpu,
            idle_cpu: self.stats.idle_cpu,
            root_subtree_cpu: self.containers.subtree_cpu(root).unwrap_or(Nanos::ZERO),
            floating_cpu,
            reaped_cpu: self.containers.reaped_cpu(),
            disk_busy: self.disk.total_busy(),
            root_subtree_disk: self.containers.subtree_disk(root).unwrap_or(Nanos::ZERO),
            floating_disk,
            reaped_disk: self.containers.reaped_disk(),
            pkts_in: self.stats.pkts_in,
            pkts_out: self.stats.pkts_out,
            early_drops: self.stats.early_drops,
            ctx_switches: self.stats.ctx_switches,
            link_configured: self.link.is_some(),
            link_busy: self.link_busy,
            link_bytes: self.link_wire_bytes,
            link_pkts: self.link_pkts,
            root_subtree_tx: self.containers.subtree_tx(root).unwrap_or(Nanos::ZERO),
            floating_tx,
            reaped_tx: self.containers.reaped_tx(),
            mem_configured: self.mem.is_some(),
            mem_total: self.mem.as_ref().map_or(0, |m| m.total()),
            mem_by_class: self.mem.as_ref().map_or([0; 5], |m| m.by_class()),
            mem_reclaims: self.mem.as_ref().map_or(0, |m| m.reclaims),
            mem_reclaimed_bytes: self.mem.as_ref().map_or(0, |m| m.reclaimed_bytes),
            mem_oom_kills: self.mem.as_ref().map_or(0, |m| m.oom_kills),
            mem_refusals: self.mem.as_ref().map_or(0, |m| m.refusals),
            mem_pressure_events: self.mem.as_ref().map_or(0, |m| m.pressure_events),
        }
    }
}

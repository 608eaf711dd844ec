//! Differential property test: the production [`MultiLevelScheduler`]
//! against [`RefMultiLevel`], the scheduler as it was before its per-
//! container state moved into one id-hashed map, its pick stopped
//! allocating, and destroyed containers' state started being dropped.
//!
//! Both run behind [`PerCpu`] on one to three CPUs and are driven in
//! lockstep by random programs over a random container hierarchy —
//! nested fixed shares, time-shared priorities including the starvable
//! priority 0, CPU-limit buckets, floating orphans and destroyed
//! containers, in strict and general mode — with tasks added, removed,
//! rebound, woken, blocked, migrated and charged. Every `pick` and every
//! `next_release_time` must agree exactly.
//!
//! The programs keep the two rules the kernel keeps: a binding gains
//! only live containers (it may keep naming a container after its
//! destruction), and CPU is charged only to live containers.

use proptest::prelude::*;
use rescon::{Attributes, ContainerId, ContainerTable};
use sched::{CpuId, MultiLevelScheduler, PerCpu, Scheduler};
use simcore::Nanos;

// ---------------------------------------------------------------------
// The reference: the scheduler before the change, kept verbatim apart
// from its name and paths.
// ---------------------------------------------------------------------

use std::collections::HashMap;

use rescon::SchedPolicy;
use simcore::trace::{self, TraceEventKind};

use sched::{CoreScheduler, Pick, TaskId, TokenBucket, UsageDecay};

#[derive(Debug)]
struct MlTask {
    binding: Vec<ContainerId>,
    runnable: bool,
}

/// The multi-level scheduler as it was before its state moved into one
/// id-hashed node map and its pick stopped allocating.
struct RefMultiLevel {
    tasks: HashMap<TaskId, MlTask>,
    /// Tasks eligible at each container (via their scheduler binding).
    container_tasks: HashMap<ContainerId, Vec<TaskId>>,
    /// Stride pass per fixed-share container, in virtual seconds.
    passes: HashMap<ContainerId, f64>,
    /// Stride pass of the time-share pool at each node.
    pool_passes: HashMap<ContainerId, f64>,
    /// Per-node virtual time: the largest pass charged below the node.
    vtimes: HashMap<ContainerId, f64>,
    /// Token buckets for containers with CPU limits.
    buckets: HashMap<ContainerId, TokenBucket>,
    /// Decayed CPU usage per container.
    cusage: HashMap<ContainerId, UsageDecay>,
    quantum: Nanos,
    half_life: Nanos,
}

impl RefMultiLevel {
    /// Creates a scheduler with a 1 ms quantum and a 500 ms usage
    /// half-life.
    fn new() -> Self {
        Self::with_params(Nanos::from_millis(1), Nanos::from_millis(500))
    }

    /// Creates a scheduler with explicit quantum and usage half-life.
    fn with_params(quantum: Nanos, half_life: Nanos) -> Self {
        RefMultiLevel {
            tasks: HashMap::new(),
            container_tasks: HashMap::new(),
            passes: HashMap::new(),
            pool_passes: HashMap::new(),
            vtimes: HashMap::new(),
            buckets: HashMap::new(),
            cusage: HashMap::new(),
            quantum,
            half_life,
        }
    }

    fn detach_binding(&mut self, task: TaskId) {
        if let Some(t) = self.tasks.get(&task) {
            for c in t.binding.clone() {
                if let Some(v) = self.container_tasks.get_mut(&c) {
                    v.retain(|&x| x != task);
                }
            }
        }
    }

    fn attach_binding(&mut self, task: TaskId, binding: &[ContainerId]) {
        for &c in binding {
            let v = self.container_tasks.entry(c).or_default();
            if !v.contains(&task) {
                v.push(task);
            }
        }
        if let Some(t) = self.tasks.get_mut(&task) {
            t.binding = binding.to_vec();
        }
    }

    /// Returns the children of `node` for scheduling purposes; at the root
    /// this includes floating orphans.
    fn node_children(table: &ContainerTable, node: ContainerId) -> Vec<ContainerId> {
        let mut v: Vec<ContainerId> = table.children(node).map(|c| c.to_vec()).unwrap_or_default();
        if node == table.root() {
            v.extend_from_slice(table.floating());
        }
        v
    }

    /// Refreshes every configured CPU-limit bucket and returns the
    /// containers whose bucket is exhausted. Computed once per pick so the
    /// rest of the decision can run without mutable borrows; in the common
    /// case (no limits configured, or none exhausted) the result is empty
    /// and all throttle checks short-circuit.
    fn compute_throttled(&mut self, table: &ContainerTable, now: Nanos) -> Vec<ContainerId> {
        let mut out = Vec::new();
        for (id, c) in table.iter() {
            if let Some(limit) = c.attrs().cpu_limit {
                let eligible = self
                    .buckets
                    .entry(id)
                    .or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .eligible(now);
                if !eligible {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Returns `true` if `c` or any ancestor has an exhausted CPU-limit
    /// bucket (per the precomputed `throttled` set).
    fn is_throttled(table: &ContainerTable, throttled: &[ContainerId], c: ContainerId) -> bool {
        if throttled.is_empty() {
            return false;
        }
        let mut cursor = Some(c);
        while let Some(cur) = cursor {
            if throttled.contains(&cur) {
                return true;
            }
            cursor = table.parent(cur).ok().flatten();
        }
        false
    }

    /// The numeric priority a task presents within a pool: the maximum
    /// priority among its bound, live, unthrottled containers.
    fn task_priority(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        task: TaskId,
    ) -> Option<u32> {
        let binding = &self.tasks.get(&task)?.binding;
        let mut best: Option<u32> = None;
        for &c in binding {
            if !table.contains(c) || Self::is_throttled(table, throttled, c) {
                continue;
            }
            let prio = match table.policy(c).ok()? {
                SchedPolicy::TimeShared { priority } => priority,
                SchedPolicy::FixedShare { .. } => 10,
            };
            best = Some(best.map_or(prio, |b: u32| b.max(prio)));
        }
        best
    }

    /// Combined decayed usage of the task's scheduler binding (§4.3).
    fn task_combined_usage(&self, task: TaskId, now: Nanos) -> f64 {
        let binding = match self.tasks.get(&task) {
            Some(t) => &t.binding,
            None => return 0.0,
        };
        binding
            .iter()
            .map(|c| self.cusage.get(c).map(|u| u.peek(now)).unwrap_or(0.0))
            .sum()
    }

    /// Gathers the runnable tasks whose binding touches `c` or (for
    /// time-shared subtrees in the general model) any descendant.
    fn gather_pool_tasks(&self, table: &ContainerTable, c: ContainerId, out: &mut Vec<TaskId>) {
        if let Some(list) = self.container_tasks.get(&c) {
            for &t in list {
                if self.tasks.get(&t).map(|x| x.runnable).unwrap_or(false) && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        // General-model (non-strict) time-shared subtrees fold into the
        // nearest fixed-share pool.
        if let Ok(children) = table.children(c) {
            for &ch in children.to_vec().iter() {
                if matches!(table.policy(ch), Ok(SchedPolicy::TimeShared { .. })) {
                    self.gather_pool_tasks(table, ch, out);
                }
            }
        }
    }

    /// Returns `true` if the subtree rooted at `c` contains any runnable,
    /// locally-unthrottled work acceptable under the starvation rule.
    fn subtree_has_work(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        c: ContainerId,
        allow_starvable: bool,
    ) -> bool {
        if throttled.contains(&c) {
            return false;
        }
        if let Some(list) = self.container_tasks.get(&c) {
            for &t in list {
                if !self.tasks.get(&t).map(|x| x.runnable).unwrap_or(false) {
                    continue;
                }
                if allow_starvable {
                    return true;
                }
                if self.task_priority(table, throttled, t).unwrap_or(0) >= 1 {
                    return true;
                }
            }
        }
        if let Ok(children) = table.children(c) {
            for &ch in children {
                if self.subtree_has_work(table, throttled, ch, allow_starvable) {
                    return true;
                }
            }
        }
        false
    }

    /// Picks within the time-share pool `candidates`: strict priority
    /// levels, then minimum combined decayed usage, then lowest id.
    fn pick_from_pool(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        candidates: &[TaskId],
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        let mut best: Option<(u32, f64, TaskId)> = None;
        for &t in candidates {
            let prio = match self.task_priority(table, throttled, t) {
                Some(p) => p,
                None => continue,
            };
            if prio == 0 && !allow_starvable {
                continue;
            }
            let usage = self.task_combined_usage(t, now);
            let better = match best {
                None => true,
                Some((bp, bu, bt)) => {
                    (prio > bp) || (prio == bp && (usage < bu || (usage == bu && t < bt)))
                }
            };
            if better {
                best = Some((prio, usage, t));
            }
        }
        best.map(|(_, _, t)| t)
    }

    /// Recursive pick at a fixed-share node.
    fn pick_node(
        &mut self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        node: ContainerId,
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        let children = Self::node_children(table, node);
        let mut fs_with_work: Vec<(ContainerId, f64)> = Vec::new();
        let mut fs_share_total = 0.0;
        let mut pool: Vec<TaskId> = Vec::new();

        // Tasks bound directly to this node join its pool.
        if let Some(list) = self.container_tasks.get(&node) {
            for &t in list {
                if self.tasks.get(&t).map(|x| x.runnable).unwrap_or(false) && !pool.contains(&t) {
                    pool.push(t);
                }
            }
        }
        for ch in children {
            match table.policy(ch) {
                Ok(SchedPolicy::FixedShare { share }) => {
                    fs_share_total += share;
                    if self.subtree_has_work(table, throttled, ch, allow_starvable) {
                        fs_with_work.push((ch, share));
                    }
                }
                Ok(SchedPolicy::TimeShared { .. }) => {
                    self.gather_pool_tasks(table, ch, &mut pool);
                }
                Err(_) => {}
            }
        }
        // Filter pool: keep tasks that may run under the starvation rule
        // and are not fully throttled.
        let pool: Vec<TaskId> = pool
            .into_iter()
            .filter(|&t| match self.task_priority(table, throttled, t) {
                Some(0) => allow_starvable,
                Some(_) => true,
                None => false,
            })
            .collect();

        let pool_share = (1.0 - fs_share_total).max(0.0);
        let vt = *self.vtimes.get(&node).unwrap_or(&0.0);

        // Decide between fixed-share children and the time-share pool using
        // stride: lowest (clamped) pass runs. A pool with zero share runs
        // only as leftover.
        #[derive(Clone, Copy, PartialEq)]
        enum Choice {
            Fs(ContainerId),
            Pool,
        }
        let mut best: Option<(f64, u8, Choice)> = None;
        for &(ch, share) in &fs_with_work {
            let pass = self.passes.entry(ch).or_insert(vt);
            if *pass < vt {
                *pass = vt;
            }
            let key = (*pass, 0u8, Choice::Fs(ch));
            let better = match best {
                None => true,
                Some((bp, bo, _)) => key.0 < bp || (key.0 == bp && key.1 < bo),
            };
            if better {
                best = Some(key);
            }
            let _ = share;
            // (share is used at charge time, not selection time)
        }
        if !pool.is_empty() {
            if pool_share > 0.0 {
                let pass = self.pool_passes.entry(node).or_insert(vt);
                if *pass < vt {
                    *pass = vt;
                }
                let key = (*pass, 1u8, Choice::Pool);
                let better = match best {
                    None => true,
                    Some((bp, bo, _)) => key.0 < bp || (key.0 == bp && key.1 < bo),
                };
                if better {
                    best = Some(key);
                }
            } else if best.is_none() {
                // Leftover-only pool: runs when no fixed-share child wants
                // the CPU.
                best = Some((vt, 1, Choice::Pool));
            }
        }
        let (sel_pass, _, choice) = best?;
        // The node's virtual time follows the pass of the selected child:
        // children waking from idle join here instead of cashing in credit.
        self.vtimes.insert(node, sel_pass);
        match choice {
            Choice::Fs(ch) => self
                .pick_node(table, throttled, ch, now, allow_starvable)
                .or_else(|| self.pick_from_pool(table, throttled, &pool, now, allow_starvable)),
            Choice::Pool => self.pick_from_pool(table, throttled, &pool, now, allow_starvable),
        }
    }
}

impl CoreScheduler for RefMultiLevel {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.tasks.insert(
            task,
            MlTask {
                binding: Vec::new(),
                runnable: false,
            },
        );
        self.attach_binding(task, binding);
    }

    fn remove_task(&mut self, task: TaskId) {
        self.detach_binding(task);
        self.tasks.remove(&task);
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.detach_binding(task);
        self.attach_binding(task, binding);
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(t) = self.tasks.get_mut(&task) {
            if t.runnable != runnable {
                trace::emit_at(now, || TraceEventKind::ThreadState {
                    task: task.0,
                    runnable,
                });
            }
            t.runnable = runnable;
        }
    }

    fn is_runnable(&self, task: TaskId) -> bool {
        self.tasks.get(&task).map(|t| t.runnable).unwrap_or(false)
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        let root = table.root();
        let throttled = self.compute_throttled(table, now);
        let task = self
            .pick_node(table, &throttled, root, now, false)
            .or_else(|| self.pick_node(table, &throttled, root, now, true))?;
        trace::emit_at(now, || TraceEventKind::SchedPick {
            task: task.0,
            slice: self.quantum,
        });
        Some(Pick {
            task,
            slice: self.quantum,
        })
    }

    fn charge(
        &mut self,
        _task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    ) {
        let dt_sec = dt.as_secs_f64();
        self.cusage
            .entry(container)
            .or_insert_with(|| UsageDecay::new(self.half_life))
            .charge(dt, now);

        // Walk the chain from the charged container to the root, advancing
        // stride passes and draining limit buckets.
        let mut cur = container;
        loop {
            if let Some(limit) = table.attrs(cur).ok().and_then(|a| a.cpu_limit) {
                self.buckets
                    .entry(cur)
                    .or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .consume(dt, now);
            }
            let parent = match table.parent(cur) {
                Ok(Some(p)) => p,
                // Floating containers charge against the root's level.
                Ok(None) if cur != table.root() => table.root(),
                _ => break,
            };
            match table.policy(cur) {
                Ok(SchedPolicy::FixedShare { share }) => {
                    let pass = self.passes.entry(cur).or_insert(0.0);
                    *pass += dt_sec / share.max(1e-6);
                }
                Ok(SchedPolicy::TimeShared { .. }) => {
                    // Time-shared work charges the pool of its nearest
                    // fixed-share ancestor (strict mode: the direct parent).
                    let is_parent_pool =
                        !matches!(table.policy(parent), Ok(SchedPolicy::TimeShared { .. }));
                    if is_parent_pool {
                        let children = table
                            .children(parent)
                            .map(|c| c.to_vec())
                            .unwrap_or_default();
                        let fs_sum: f64 = children
                            .iter()
                            .filter_map(|&c| table.policy(c).ok().and_then(|p| p.share()))
                            .sum();
                        let pool_share = (1.0 - fs_sum).max(0.0);
                        if pool_share > 0.0 {
                            let pass = self.pool_passes.entry(parent).or_insert(0.0);
                            *pass += dt_sec / pool_share;
                        }
                    }
                }
                Err(_) => {}
            }
            cur = parent;
        }
    }

    fn next_release_time(&mut self, table: &ContainerTable, now: Nanos) -> Option<Nanos> {
        let any_runnable = self.tasks.values().any(|t| t.runnable);
        if !any_runnable {
            return None;
        }
        let mut earliest: Option<Nanos> = None;
        let ids: Vec<ContainerId> = self.buckets.keys().copied().collect();
        for c in ids {
            if !table.contains(c) {
                continue;
            }
            let b = self.buckets.get_mut(&c).expect("bucket exists");
            if !b.eligible(now) {
                let r = b.release_time(now);
                earliest = Some(earliest.map_or(r, |e: Nanos| e.min(r)));
            }
        }
        earliest
    }

    fn name(&self) -> &'static str {
        "multilevel-rc"
    }
}

/// One step of a random scheduler program. Small integers index into the
/// live containers or registered tasks at the time the step runs.
#[derive(Clone, Debug)]
enum Op {
    Create { parent: u8, kind: u8, param: u8 },
    Destroy { c: u8 },
    Float { c: u8 },
    AddTask { cpu: u8, binding: Vec<u8> },
    RemoveTask { t: u8 },
    SetBinding { t: u8, keep: u8, add: Vec<u8> },
    SetRunnable { t: u8, runnable: bool },
    Migrate { t: u8, to: u8 },
    Charge { t: u8, dt: u16 },
    Pick { cpu: u8, run: u16 },
    Advance { dt: u16 },
    NextRelease { cpu: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The selector's ranges weight the choice toward the common steps.
    (
        0u8..32,
        (any::<u8>(), any::<u8>(), any::<u8>()),
        any::<u16>(),
        prop::collection::vec(any::<u8>(), 1..4),
    )
        .prop_map(|(k, (a, b, c), w, v)| match k {
            0..=3 => Op::Create {
                parent: a,
                kind: b,
                param: c,
            },
            4 => Op::Destroy { c: a },
            5 => Op::Float { c: a },
            6..=8 => Op::AddTask { cpu: a, binding: v },
            9 => Op::RemoveTask { t: a },
            10..=12 => Op::SetBinding {
                t: a,
                keep: b,
                add: v,
            },
            13..=16 => Op::SetRunnable {
                t: a,
                runnable: b % 3 != 0,
            },
            17..=18 => Op::Migrate { t: a, to: b },
            19..=20 => Op::Charge { t: a, dt: w },
            21..=28 => Op::Pick { cpu: a, run: w },
            29 => Op::Advance { dt: w },
            _ => Op::NextRelease { cpu: a },
        })
}

fn attrs(kind: u8, param: u8) -> Attributes {
    let share = f64::from(param % 4 + 1) * 0.1;
    let prio = u32::from(param % 21);
    let limit = f64::from(param % 6 + 1) * 0.1;
    let window = Nanos::from_millis(u64::from(param % 19 + 2));
    match kind % 6 {
        0 | 1 => Attributes::fixed_share(share),
        2 => Attributes::time_shared(prio),
        3 => Attributes::time_shared(0),
        4 => Attributes::fixed_share(share).with_cpu_limit(limit, window),
        _ => Attributes::time_shared(prio.max(1)).with_cpu_limit(limit, window),
    }
}

struct Rig {
    table: ContainerTable,
    new: PerCpu<MultiLevelScheduler>,
    old: PerCpu<RefMultiLevel>,
    /// Registered tasks with their bindings.
    tasks: Vec<(TaskId, Vec<ContainerId>)>,
    next_task: u32,
    ncpus: u32,
    now: Nanos,
}

impl Rig {
    fn new(ncpus: u32, strict: bool) -> Self {
        Rig {
            table: ContainerTable::with_strict(strict),
            new: PerCpu::new((0..ncpus).map(|_| MultiLevelScheduler::new()).collect()),
            old: PerCpu::new((0..ncpus).map(|_| RefMultiLevel::new()).collect()),
            tasks: Vec::new(),
            next_task: 1,
            ncpus,
            now: Nanos::ZERO,
        }
    }

    /// Live containers other than the root, in id order.
    fn live(&self) -> Vec<ContainerId> {
        let root = self.table.root();
        self.table
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| id != root)
            .collect()
    }

    fn pick_live(&self, i: u8) -> Option<ContainerId> {
        let live = self.live();
        (!live.is_empty()).then(|| live[i as usize % live.len()])
    }

    fn binding_of(&self, picks: &[u8]) -> Vec<ContainerId> {
        let mut out = Vec::new();
        for &i in picks {
            if let Some(c) = self.pick_live(i) {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Where the kernel charges a task's CPU: a live container of its
    /// binding, else the root.
    fn charge_target(&self, binding: &[ContainerId]) -> ContainerId {
        binding
            .iter()
            .copied()
            .find(|&c| self.table.contains(c))
            .unwrap_or(self.table.root())
    }

    fn charge(&mut self, task: TaskId, dt: Nanos) {
        let Some(binding) = self.tasks.iter().find(|(t, _)| *t == task).map(|(_, b)| b) else {
            return;
        };
        let c = self.charge_target(binding);
        self.now += dt;
        self.new.charge(task, c, dt, &self.table, self.now);
        self.old.charge(task, c, dt, &self.table, self.now);
    }

    fn step(&mut self, op: &Op) {
        let nt = self.tasks.len();
        match *op {
            Op::Create {
                parent,
                kind,
                param,
            } => {
                let root = self.table.root();
                let mut parents = vec![root];
                parents.extend(self.live());
                let p = parents[parent as usize % parents.len()];
                let _ = self.table.create_at(Some(p), attrs(kind, param), self.now);
            }
            Op::Destroy { c } => {
                if let Some(c) = self.pick_live(c) {
                    assert!(self.table.drop_descriptor_ref(c).unwrap());
                }
            }
            Op::Float { c } => {
                if let Some(c) = self.pick_live(c) {
                    self.table.set_parent(c, None).unwrap();
                }
            }
            Op::AddTask { cpu, ref binding } => {
                let binding = self.binding_of(binding);
                let task = TaskId(self.next_task);
                self.next_task += 1;
                let cpu = CpuId(u32::from(cpu) % self.ncpus);
                self.new.add_task(task, &binding, cpu, self.now);
                self.old.add_task(task, &binding, cpu, self.now);
                self.tasks.push((task, binding));
            }
            Op::RemoveTask { t } if nt > 0 => {
                let (task, _) = self.tasks.remove(t as usize % nt);
                self.new.remove_task(task);
                self.old.remove_task(task);
            }
            Op::SetBinding { t, keep, ref add } if nt > 0 => {
                let i = t as usize % nt;
                let mut binding: Vec<ContainerId> = self.tasks[i]
                    .1
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| keep & (1 << (k % 8)) != 0)
                    .map(|(_, &c)| c)
                    .collect();
                for c in self.binding_of(add) {
                    if !binding.contains(&c) {
                        binding.push(c);
                    }
                }
                let task = self.tasks[i].0;
                self.new.set_binding(task, &binding, self.now);
                self.old.set_binding(task, &binding, self.now);
                self.tasks[i].1 = binding;
            }
            Op::SetRunnable { t, runnable } if nt > 0 => {
                let task = self.tasks[t as usize % nt].0;
                self.new.set_runnable(task, runnable, self.now);
                self.old.set_runnable(task, runnable, self.now);
            }
            Op::Migrate { t, to } if nt > 0 => {
                let task = self.tasks[t as usize % nt].0;
                let to = CpuId(u32::from(to) % self.ncpus);
                let moved = self.new.migrate(task, to, self.now);
                assert_eq!(moved, self.old.migrate(task, to, self.now));
            }
            Op::Charge { t, dt } if nt > 0 => {
                let task = self.tasks[t as usize % nt].0;
                self.charge(task, Nanos::from_micros(u64::from(dt % 2_000) + 1));
            }
            Op::Pick { cpu, run } => {
                let cpu = CpuId(u32::from(cpu) % self.ncpus);
                let got = self.new.pick(cpu, &self.table, self.now);
                let want = self.old.pick(cpu, &self.table, self.now);
                assert_eq!(got, want, "pick on {cpu} at {:?}", self.now);
                if let Some(p) = got {
                    // Run the pick for part or all of its slice.
                    let dt = Nanos::from_nanos(u64::from(run) * 20 % p.slice.as_nanos() + 1);
                    self.charge(p.task, dt);
                }
            }
            Op::Advance { dt } => {
                self.now += Nanos::from_micros(u64::from(dt));
            }
            Op::NextRelease { cpu } => {
                let cpu = CpuId(u32::from(cpu) % self.ncpus);
                let got = self.new.next_release_time(cpu, &self.table, self.now);
                let want = self.old.next_release_time(cpu, &self.table, self.now);
                assert_eq!(got, want, "next_release_time on {cpu} at {:?}", self.now);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pick and every next-release time agree with the reference.
    #[test]
    fn multilevel_matches_reference(
        ncpus in 1u32..4,
        strict in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut rig = Rig::new(ncpus, strict);
        for op in &ops {
            rig.step(op);
        }
        // Drain: every CPU picks until idle or a bounded number of steps.
        for cpu in 0..ncpus {
            for _ in 0..50 {
                rig.step(&Op::Pick { cpu: cpu as u8, run: u16::MAX });
                rig.step(&Op::NextRelease { cpu: cpu as u8 });
            }
        }
    }
}

/// A task elsewhere still names a destroyed container that no binding on
/// this CPU names any more; when the task migrates here, this CPU's
/// usage of the container must still count in its pick.
#[test]
fn migrant_sees_dead_containers_usage() {
    let mut rig = Rig::new(2, true);
    let mk = |rig: &mut Rig| {
        rig.table
            .create(None, Attributes::time_shared(10))
            .expect("container")
    };
    let (w, x, y, z) = (mk(&mut rig), mk(&mut rig), mk(&mut rig), mk(&mut rig));
    let (t1, t2, t3) = (TaskId(1), TaskId(2), TaskId(3));
    for (t, b, cpu) in [(t1, vec![x], 0), (t2, vec![x, w], 1), (t3, vec![z], 0)] {
        rig.new.add_task(t, &b, CpuId(cpu), rig.now);
        rig.old.add_task(t, &b, CpuId(cpu), rig.now);
        rig.new.set_runnable(t, true, rig.now);
        rig.old.set_runnable(t, true, rig.now);
        rig.tasks.push((t, b));
    }
    // CPU 0 charges x heavily and z lightly.
    rig.charge(t1, Nanos::from_millis(50));
    rig.charge(t3, Nanos::from_millis(1));
    assert!(rig.table.drop_descriptor_ref(x).unwrap());
    // Only t2, on CPU 1, names x now.
    for s in [&mut rig.new as &mut dyn Scheduler, &mut rig.old] {
        s.set_binding(t1, &[y], Nanos::ZERO);
        s.set_runnable(t1, false, Nanos::ZERO);
    }
    rig.tasks[0].1 = vec![y];
    rig.step(&Op::Pick { cpu: 0, run: 0 });
    rig.step(&Op::Migrate { t: 1, to: 0 });
    // t2's binding carries x's 50 ms on CPU 0 (x itself no longer lends
    // it a priority, w does), so t3 runs first.
    let got = rig.new.pick(CpuId(0), &rig.table, rig.now).map(|p| p.task);
    assert_eq!(
        got,
        rig.old.pick(CpuId(0), &rig.table, rig.now).map(|p| p.task)
    );
    assert_eq!(got, Some(t3));
}

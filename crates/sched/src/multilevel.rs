//! The paper's prototype multi-level scheduler (§5.1): resource containers
//! as resource principals.
//!
//! The container hierarchy is interpreted directly:
//!
//! - **Fixed-share** containers are guaranteed their fraction of the
//!   parent's CPU, enforced by stride scheduling with idle-credit
//!   revocation (an idle child accrues no credit, so guarantees hold over
//!   scheduling-relevant timescales but the scheduler stays
//!   work-conserving).
//! - **Time-shared** siblings share the parent's *remaining* CPU at strict
//!   numeric priority levels; within a level, the runnable task with the
//!   lowest combined decayed usage of its scheduler binding runs (paper
//!   §4.3: "the combined numeric priorities ... possibly taking into
//!   account the recent resource consumption of this set of containers").
//! - Priority **0** is starvable: such work runs only when nothing else in
//!   the system wants the CPU (used by the SYN-flood defense of §5.7).
//! - **CPU limits** are enforced with per-container token buckets over the
//!   limit's window; a container whose chain has an exhausted bucket is
//!   ineligible until it refills (the "resource sandbox" of §5.6).
//!
//! A task's scheduler binding may span several containers — for an
//! event-driven server's thread it usually does — and may even span
//! subtrees; the task is then eligible wherever any of its containers is,
//! and the CPU it consumes is charged to whichever container its *resource
//! binding* names at the time.

use std::cell::Cell;
use std::collections::hash_map::Entry;

use rescon::{ContainerId, ContainerTable, SchedPolicy};
use simcore::slab::{IdHashMap, IdSlab};
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::api::{CoreScheduler, Pick, TaskId};
use crate::bucket::TokenBucket;
use crate::usage_decay::UsageDecay;

type IdMap<V> = IdHashMap<ContainerId, V>;

#[derive(Debug)]
struct MlTask {
    binding: Vec<ContainerId>,
    runnable: bool,
    /// `task_priority` as computed during pick number `.0`.
    prio: Cell<(u64, Option<u32>)>,
}

/// Everything the scheduler keeps about one container, behind one lookup.
#[derive(Default)]
struct Node {
    /// Tasks eligible at this container (via their scheduler binding).
    tasks: Vec<TaskId>,
    /// A binding on some CPU names this container (reported by
    /// [`CoreScheduler::hold_container`]).
    held: bool,
    /// Stride pass of a fixed-share container, in virtual seconds.
    pass: Option<f64>,
    /// Stride pass of the time-share pool at this node.
    pool_pass: Option<f64>,
    /// The node's virtual time: the pass of the child it last selected.
    vtime: f64,
    /// Token bucket of a container with a CPU limit.
    bucket: Option<TokenBucket>,
    /// Decayed CPU usage.
    usage: Option<UsageDecay>,
    /// `usage` as peeked during pick number `.0`.
    peeked: Cell<(u64, f64)>,
    /// Queued in `candidates`.
    candidate: bool,
}

impl Node {
    fn named(&self) -> bool {
        !self.tasks.is_empty() || self.held
    }
}

/// The container-aware multi-level scheduler (paper §5.1).
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, MultiLevelScheduler, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let high = table.create(None, Attributes::time_shared(20)).unwrap();
/// let low = table.create(None, Attributes::time_shared(10)).unwrap();
///
/// let mut s = MultiLevelScheduler::new();
/// s.add_task(TaskId(1), &[low], Nanos::ZERO);
/// s.add_task(TaskId(2), &[high], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// s.set_runnable(TaskId(2), true, Nanos::ZERO);
///
/// // The higher-priority container's task runs first.
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
/// ```
pub struct MultiLevelScheduler {
    tasks: IdSlab<TaskId, MlTask>,
    /// Number of runnable tasks.
    runnable: usize,
    /// Per-container state: eligible tasks, stride passes, virtual time,
    /// CPU-limit bucket, decayed usage.
    nodes: IdMap<Node>,
    /// Nodes that no binding named when queued; the sweep drops those
    /// whose container has been destroyed.
    candidates: Vec<ContainerId>,
    /// A node became unnamed since the last sweep.
    sweep_due: bool,
    /// `ContainerTable::destroyed_count` at the last sweep.
    seen_destroyed: u64,
    /// Containers whose CPU-limit bucket is exhausted, for this pick.
    throttled: Vec<ContainerId>,
    /// Spare time-share pool buffers, one taken per `pick_node` level.
    spare_pools: Vec<Vec<(TaskId, u32)>>,
    /// Counts picks; keys the per-pick memos.
    epoch: u64,
    quantum: Nanos,
    half_life: Nanos,
}

impl Default for MultiLevelScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiLevelScheduler {
    /// Creates a scheduler with a 1 ms quantum and a 500 ms usage
    /// half-life.
    pub fn new() -> Self {
        Self::with_params(Nanos::from_millis(1), Nanos::from_millis(500))
    }

    /// Creates a scheduler with explicit quantum and usage half-life.
    pub fn with_params(quantum: Nanos, half_life: Nanos) -> Self {
        MultiLevelScheduler {
            tasks: IdSlab::new(),
            runnable: 0,
            nodes: IdMap::default(),
            candidates: Vec::new(),
            sweep_due: false,
            seen_destroyed: 0,
            throttled: Vec::new(),
            spare_pools: Vec::new(),
            epoch: 0,
            quantum,
            half_life,
        }
    }

    /// Returns `c`'s node, creating it (and queueing it for the sweep,
    /// since no binding names it yet) if absent.
    fn node_mut<'a>(
        nodes: &'a mut IdMap<Node>,
        candidates: &mut Vec<ContainerId>,
        c: ContainerId,
    ) -> &'a mut Node {
        match nodes.entry(c) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                candidates.push(c);
                e.insert(Node {
                    candidate: true,
                    ..Node::default()
                })
            }
        }
    }

    /// Queues `node` for the sweep if no binding names it any more;
    /// returns whether it is unnamed.
    fn queue_if_unnamed(
        candidates: &mut Vec<ContainerId>,
        node: &mut Node,
        c: ContainerId,
    ) -> bool {
        if node.named() {
            return false;
        }
        if !node.candidate {
            node.candidate = true;
            candidates.push(c);
        }
        true
    }

    fn detach_binding(&mut self, task: TaskId) {
        if let Some(t) = self.tasks.get(task) {
            for c in &t.binding {
                if let Some(n) = self.nodes.get_mut(c) {
                    n.tasks.retain(|&x| x != task);
                    self.sweep_due |= Self::queue_if_unnamed(&mut self.candidates, n, *c);
                }
            }
        }
    }

    fn attach_binding(&mut self, task: TaskId, binding: &[ContainerId]) {
        for &c in binding {
            let v = &mut self.nodes.entry(c).or_default().tasks;
            if !v.contains(&task) {
                v.push(task);
            }
        }
        if let Some(t) = self.tasks.get_mut(task) {
            t.binding.clear();
            t.binding.extend_from_slice(binding);
        }
    }

    /// Drops the state of destroyed containers that no binding names.
    /// Runs only when a container was destroyed or a node lost its last
    /// name since the previous sweep. A dead container is never
    /// traversed, charged or bucket-scanned again, and no binding can
    /// gain it back, so its state is unobservable once unnamed.
    fn sweep(&mut self, table: &ContainerTable) {
        let destroyed = table.destroyed_count();
        if !self.sweep_due && destroyed == self.seen_destroyed {
            return;
        }
        self.sweep_due = false;
        self.seen_destroyed = destroyed;
        let nodes = &mut self.nodes;
        self.candidates.retain(|c| {
            let Some(n) = nodes.get_mut(c) else {
                return false;
            };
            if n.named() {
                n.candidate = false;
                return false;
            }
            if table.contains(*c) {
                return true;
            }
            nodes.remove(c);
            false
        });
    }

    /// Refreshes every configured CPU-limit bucket and collects the
    /// containers whose bucket is exhausted into `throttled`. Computed
    /// once per pick so the rest of the decision can run without mutable
    /// borrows; in the common case (no limits configured, or none
    /// exhausted) the set is empty and all throttle checks short-circuit.
    fn compute_throttled(&mut self, table: &ContainerTable, now: Nanos) {
        self.throttled.clear();
        if table.cpu_limited_count() == 0 {
            return;
        }
        for (id, c) in table.iter() {
            if let Some(limit) = c.attrs().cpu_limit {
                let eligible = Self::node_mut(&mut self.nodes, &mut self.candidates, id)
                    .bucket
                    .get_or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .eligible(now);
                if !eligible {
                    self.throttled.push(id);
                }
            }
        }
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

    fn is_task_runnable(&self, task: TaskId) -> bool {
        self.tasks.get(task).is_some_and(|t| t.runnable)
    }

    /// The numeric priority a task presents within a pool: the maximum
    /// priority among its bound, live, unthrottled containers. Computed
    /// once per task per pick.
    fn task_priority(&self, table: &ContainerTable, task: TaskId) -> Option<u32> {
        let t = self.tasks.get(task)?;
        let (epoch, memo) = t.prio.get();
        if epoch == self.epoch {
            return memo;
        }
        let prio = Self::binding_priority(table, &self.throttled, &t.binding);
        t.prio.set((self.epoch, prio));
        prio
    }

    fn binding_priority(
        table: &ContainerTable,
        throttled: &[ContainerId],
        binding: &[ContainerId],
    ) -> Option<u32> {
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

    /// Decayed usage of `c` at `now`, peeked once per container per pick.
    fn peek_usage(&self, c: ContainerId, now: Nanos) -> f64 {
        let Some(n) = self.nodes.get(&c) else {
            return 0.0;
        };
        let (epoch, memo) = n.peeked.get();
        if epoch == self.epoch {
            return memo;
        }
        let v = n.usage.as_ref().map(|u| u.peek(now)).unwrap_or(0.0);
        n.peeked.set((self.epoch, v));
        v
    }

    /// Combined decayed usage of the task's scheduler binding (§4.3).
    fn task_combined_usage(&self, task: TaskId, now: Nanos) -> f64 {
        let binding = match self.tasks.get(task) {
            Some(t) => &t.binding,
            None => return 0.0,
        };
        binding.iter().map(|&c| self.peek_usage(c, now)).sum()
    }

    /// Appends the runnable tasks bound to `c` that `pool` lacks.
    fn push_runnable(&self, c: ContainerId, pool: &mut Vec<(TaskId, u32)>) {
        if let Some(n) = self.nodes.get(&c) {
            for &t in &n.tasks {
                if self.is_task_runnable(t) && !pool.iter().any(|&(x, _)| x == t) {
                    pool.push((t, 0));
                }
            }
        }
    }

    /// Gathers the runnable tasks whose binding touches `c` or (for
    /// time-shared subtrees in the general model) any descendant.
    fn gather_pool_tasks(
        &self,
        table: &ContainerTable,
        c: ContainerId,
        pool: &mut Vec<(TaskId, u32)>,
    ) {
        self.push_runnable(c, pool);
        // General-model (non-strict) time-shared subtrees fold into the
        // nearest fixed-share pool.
        if let Ok(children) = table.children(c) {
            for &ch in children {
                if matches!(table.policy(ch), Ok(SchedPolicy::TimeShared { .. })) {
                    self.gather_pool_tasks(table, ch, pool);
                }
            }
        }
    }

    /// Returns `true` if the subtree rooted at `c` contains any runnable,
    /// locally-unthrottled work acceptable under the starvation rule.
    fn subtree_has_work(
        &self,
        table: &ContainerTable,
        c: ContainerId,
        allow_starvable: bool,
    ) -> bool {
        if self.throttled.contains(&c) {
            return false;
        }
        if let Some(n) = self.nodes.get(&c) {
            for &t in &n.tasks {
                if !self.is_task_runnable(t) {
                    continue;
                }
                if allow_starvable {
                    return true;
                }
                if self.task_priority(table, t).unwrap_or(0) >= 1 {
                    return true;
                }
            }
        }
        if let Ok(children) = table.children(c) {
            for &ch in children {
                if self.subtree_has_work(table, ch, allow_starvable) {
                    return true;
                }
            }
        }
        false
    }

    /// Picks within the time-share pool `candidates` (tasks with their
    /// priorities, already filtered by the starvation rule): strict
    /// priority levels, then minimum combined decayed usage, then lowest
    /// id.
    fn pick_from_pool(&self, candidates: &[(TaskId, u32)], now: Nanos) -> Option<TaskId> {
        let mut best: Option<(u32, f64, TaskId)> = None;
        for &(t, prio) in candidates {
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
        node: ContainerId,
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        #[derive(Clone, Copy, PartialEq)]
        enum Choice {
            Fs(ContainerId),
            Pool,
        }
        // Decide between fixed-share children and the time-share pool
        // using stride: lowest (clamped) pass runs, fixed-share children
        // winning ties. Children waking from idle join at the node's
        // virtual time instead of cashing in credit.
        fn better(best: Option<(f64, u8, Choice)>, key: (f64, u8)) -> bool {
            match best {
                None => true,
                Some((bp, bo, _)) => key.0 < bp || (key.0 == bp && key.1 < bo),
            }
        }

        let vt = self.nodes.get(&node).map_or(0.0, |n| n.vtime);
        let mut pool = self.spare_pools.pop().unwrap_or_default();
        let mut fs_share_total = 0.0;
        let mut best: Option<(f64, u8, Choice)> = None;

        // Tasks bound directly to this node join its pool. At the root,
        // floating orphans count as children.
        self.push_runnable(node, &mut pool);
        let floating: &[ContainerId] = if node == table.root() {
            table.floating()
        } else {
            &[]
        };
        let children = table.children(node).unwrap_or_default();
        for &ch in children.iter().chain(floating) {
            match table.policy(ch) {
                Ok(SchedPolicy::FixedShare { share }) => {
                    fs_share_total += share;
                    if self.subtree_has_work(table, ch, allow_starvable) {
                        let n = Self::node_mut(&mut self.nodes, &mut self.candidates, ch);
                        let pass = n.pass.get_or_insert(vt);
                        if *pass < vt {
                            *pass = vt;
                        }
                        let key = (*pass, 0u8);
                        if better(best, key) {
                            best = Some((key.0, key.1, Choice::Fs(ch)));
                        }
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
        pool.retain_mut(|e| match self.task_priority(table, e.0) {
            Some(p) => {
                e.1 = p;
                p > 0 || allow_starvable
            }
            None => false,
        });

        let pool_share = (1.0 - fs_share_total).max(0.0);
        if !pool.is_empty() {
            if pool_share > 0.0 {
                let n = Self::node_mut(&mut self.nodes, &mut self.candidates, node);
                let pass = n.pool_pass.get_or_insert(vt);
                if *pass < vt {
                    *pass = vt;
                }
                let key = (*pass, 1u8);
                if better(best, key) {
                    best = Some((key.0, key.1, Choice::Pool));
                }
            } else if best.is_none() {
                // Leftover-only pool: runs when no fixed-share child wants
                // the CPU.
                best = Some((vt, 1, Choice::Pool));
            }
        }
        let picked = best.and_then(|(sel_pass, _, choice)| {
            // The node's virtual time follows the pass of the selected
            // child.
            Self::node_mut(&mut self.nodes, &mut self.candidates, node).vtime = sel_pass;
            match choice {
                Choice::Fs(ch) => self
                    .pick_node(table, ch, now, allow_starvable)
                    .or_else(|| self.pick_from_pool(&pool, now)),
                Choice::Pool => self.pick_from_pool(&pool, now),
            }
        });
        pool.clear();
        self.spare_pools.push(pool);
        picked
    }

    /// Returns the decayed usage recorded for a container, for tests.
    /// Reads 0 for a destroyed container once no binding names it.
    pub fn container_usage(&self, c: ContainerId, now: Nanos) -> f64 {
        self.nodes
            .get(&c)
            .and_then(|n| n.usage.as_ref())
            .map(|u| u.peek(now))
            .unwrap_or(0.0)
    }

    /// Returns how many containers the scheduler holds state for: the
    /// live ones it has met plus destroyed ones a binding still names.
    #[cfg(test)]
    fn tracked_containers(&self) -> usize {
        self.nodes.len()
    }
}

impl CoreScheduler for MultiLevelScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        let old = self.tasks.insert(
            task,
            MlTask {
                binding: Vec::new(),
                runnable: false,
                prio: Cell::new((0, None)),
            },
        );
        if old.is_some_and(|t| t.runnable) {
            self.runnable -= 1;
        }
        self.attach_binding(task, binding);
    }

    fn remove_task(&mut self, task: TaskId) {
        self.detach_binding(task);
        if self.tasks.remove(task).is_some_and(|t| t.runnable) {
            self.runnable -= 1;
        }
    }

    fn hold_container(&mut self, c: ContainerId) {
        self.nodes.entry(c).or_default().held = true;
    }

    fn release_container(&mut self, c: ContainerId) {
        if let Some(n) = self.nodes.get_mut(&c) {
            n.held = false;
            self.sweep_due |= Self::queue_if_unnamed(&mut self.candidates, n, c);
        }
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.detach_binding(task);
        self.attach_binding(task, binding);
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            if t.runnable != runnable {
                trace::emit_at(now, || TraceEventKind::ThreadState {
                    task: task.0,
                    runnable,
                });
                if runnable {
                    self.runnable += 1;
                } else {
                    self.runnable -= 1;
                }
            }
            t.runnable = runnable;
        }
    }

    fn is_runnable(&self, task: TaskId) -> bool {
        self.is_task_runnable(task)
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        self.sweep(table);
        self.epoch += 1;
        self.compute_throttled(table, now);
        let root = table.root();
        let task = self
            .pick_node(table, root, now, false)
            .or_else(|| self.pick_node(table, root, now, true))?;
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
        let half_life = self.half_life;
        Self::node_mut(&mut self.nodes, &mut self.candidates, container)
            .usage
            .get_or_insert_with(|| UsageDecay::new(half_life))
            .charge(dt, now);

        // Walk the chain from the charged container to the root, advancing
        // stride passes and draining limit buckets.
        let mut cur = container;
        loop {
            if let Some(limit) = table.attrs(cur).ok().and_then(|a| a.cpu_limit) {
                Self::node_mut(&mut self.nodes, &mut self.candidates, cur)
                    .bucket
                    .get_or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
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
                    let pass = Self::node_mut(&mut self.nodes, &mut self.candidates, cur)
                        .pass
                        .get_or_insert(0.0);
                    *pass += dt_sec / share.max(1e-6);
                }
                Ok(SchedPolicy::TimeShared { .. }) => {
                    // Time-shared work charges the pool of its nearest
                    // fixed-share ancestor (strict mode: the direct parent).
                    let is_parent_pool =
                        !matches!(table.policy(parent), Ok(SchedPolicy::TimeShared { .. }));
                    if is_parent_pool {
                        let fs_sum: f64 = table
                            .children(parent)
                            .unwrap_or_default()
                            .iter()
                            .filter_map(|&c| table.policy(c).ok().and_then(|p| p.share()))
                            .sum();
                        let pool_share = (1.0 - fs_sum).max(0.0);
                        if pool_share > 0.0 {
                            let pass =
                                Self::node_mut(&mut self.nodes, &mut self.candidates, parent)
                                    .pool_pass
                                    .get_or_insert(0.0);
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
        if self.runnable == 0 {
            return None;
        }
        let mut earliest: Option<Nanos> = None;
        for (&c, n) in self.nodes.iter_mut() {
            let Some(b) = n.bucket.as_mut() else {
                continue;
            };
            if !table.contains(c) {
                continue;
            }
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

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use rescon::Attributes;

    fn run_shares(
        table: &mut ContainerTable,
        s: &mut MultiLevelScheduler,
        bindings: &[(TaskId, ContainerId)],
        total: Nanos,
    ) -> HashMap<TaskId, Nanos> {
        let mut consumed: HashMap<TaskId, Nanos> = HashMap::new();
        let mut now = Nanos::ZERO;
        while now < total {
            match s.pick(table, now) {
                Some(p) => {
                    let dt = p.slice;
                    let c = bindings
                        .iter()
                        .find(|&&(t, _)| t == p.task)
                        .map(|&(_, c)| c)
                        .expect("binding known");
                    table.charge_cpu(c, dt).unwrap();
                    s.charge(p.task, c, dt, table, now + dt);
                    *consumed.entry(p.task).or_insert(Nanos::ZERO) += dt;
                    now += dt;
                }
                None => {
                    let next = s
                        .next_release_time(table, now)
                        .unwrap_or(now + Nanos::from_millis(1));
                    now = next.max(now + Nanos::from_micros(10));
                }
            }
        }
        consumed
    }

    #[test]
    fn strict_priority_between_timeshare_containers() {
        let mut table = ContainerTable::new();
        let hi = table.create(None, Attributes::time_shared(20)).unwrap();
        let lo = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[lo], Nanos::ZERO);
        s.add_task(TaskId(2), &[hi], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        for _ in 0..5 {
            assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        }
        s.set_runnable(TaskId(2), false, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn priority_zero_is_starvable() {
        let mut table = ContainerTable::new();
        let bg = table.create(None, Attributes::time_shared(0)).unwrap();
        let fg = table.create(None, Attributes::time_shared(1)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[bg], Nanos::ZERO);
        s.add_task(TaskId(2), &[fg], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        // Only when the foreground blocks does the starvable task run.
        s.set_runnable(TaskId(2), false, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn fixed_shares_are_respected() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let b = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(b), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca], Nanos::ZERO);
        s.add_task(TaskId(2), &[cb], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca), (TaskId(2), cb)],
            Nanos::from_secs(2),
        );
        let total = got[&TaskId(1)] + got[&TaskId(2)];
        let share_a = got[&TaskId(1)].ratio(total);
        assert!((share_a - 0.7).abs() < 0.03, "share_a = {share_a}");
    }

    #[test]
    fn work_conserving_when_one_side_idle() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.1)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        // Only a 10%-share container is active; it still gets the whole CPU.
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca)],
            Nanos::from_millis(100),
        );
        assert_eq!(got[&TaskId(1)], Nanos::from_millis(100));
    }

    #[test]
    fn cpu_limit_throttles_subtree() {
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.3).with_cpu_limit(0.3, Nanos::from_millis(100)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let free = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.add_task(TaskId(2), &[free], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), cl), (TaskId(2), free)],
            Nanos::from_secs(2),
        );
        let total = got[&TaskId(1)] + got[&TaskId(2)];
        let limited_share = got[&TaskId(1)].ratio(total);
        assert!(
            (limited_share - 0.3).abs() < 0.03,
            "limited share = {limited_share}"
        );
    }

    #[test]
    fn cpu_limit_binds_even_when_alone() {
        // §5.6: the sandbox holds even with no competing work... the CPU
        // just idles. A lone task limited to 10% gets ~10%.
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.5).with_cpu_limit(0.1, Nanos::from_millis(50)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        let got = run_shares(&mut table, &mut s, &[(TaskId(1), cl)], Nanos::from_secs(1));
        let share = got[&TaskId(1)].ratio(Nanos::from_secs(1));
        assert!((share - 0.1).abs() < 0.02, "share = {share}");
    }

    #[test]
    fn multiplexed_task_priority_is_max_of_binding() {
        let mut table = ContainerTable::new();
        let hi = table.create(None, Attributes::time_shared(20)).unwrap();
        let lo = table.create(None, Attributes::time_shared(5)).unwrap();
        let other = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        // Task 1 serves both hi and lo (an event-driven server).
        s.add_task(TaskId(1), &[lo, hi], Nanos::ZERO);
        s.add_task(TaskId(2), &[other], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn rebinding_changes_eligibility() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::time_shared(10)).unwrap();
        let b = table.create(None, Attributes::time_shared(20)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[a], Nanos::ZERO);
        s.add_task(TaskId(2), &[a], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        // Rebind task 2 to the high-priority container: it must win.
        s.set_binding(TaskId(2), &[b], Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        // And back again: now tie at same level, lower usage/id wins.
        s.set_binding(TaskId(2), &[a], Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn nested_shares_compose() {
        // Guest A (50%) subdivides into 80/20; guest B (50%).
        let mut table = ContainerTable::new();
        let ga = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let gb = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let a1 = table
            .create(Some(ga), Attributes::fixed_share(0.8))
            .unwrap();
        let a2 = table
            .create(Some(ga), Attributes::fixed_share(0.2))
            .unwrap();
        let ca1 = table.create(Some(a1), Attributes::time_shared(10)).unwrap();
        let ca2 = table.create(Some(a2), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(gb), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca1], Nanos::ZERO);
        s.add_task(TaskId(2), &[ca2], Nanos::ZERO);
        s.add_task(TaskId(3), &[cb], Nanos::ZERO);
        for t in 1..=3 {
            s.set_runnable(TaskId(t), true, Nanos::ZERO);
        }
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca1), (TaskId(2), ca2), (TaskId(3), cb)],
            Nanos::from_secs(4),
        );
        let total: Nanos = got.values().copied().sum();
        let s1 = got[&TaskId(1)].ratio(total);
        let s2 = got[&TaskId(2)].ratio(total);
        let s3 = got[&TaskId(3)].ratio(total);
        assert!((s1 - 0.4).abs() < 0.03, "s1 = {s1}");
        assert!((s2 - 0.1).abs() < 0.03, "s2 = {s2}");
        assert!((s3 - 0.5).abs() < 0.03, "s3 = {s3}");
    }

    #[test]
    fn destroyed_containers_are_dropped_once_unnamed() {
        // An event-driven server serves one short-lived container per
        // connection. A destroyed container stays in the server's binding
        // until pruned, and only then may its state go.
        let mut table = ContainerTable::new();
        let class = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let mut s = MultiLevelScheduler::new();
        let server = TaskId(1);
        s.add_task(server, &[class], Nanos::ZERO);
        s.set_runnable(server, true, Nanos::ZERO);
        let mut binding = vec![class];
        let mut now = Nanos::ZERO;
        for i in 0..2_000u64 {
            let conn = table
                .create_at(Some(class), Attributes::time_shared(10), now)
                .unwrap();
            binding.push(conn);
            s.set_binding(server, &binding, now);
            let p = s.pick(&table, now).unwrap();
            assert_eq!(p.task, server);
            s.charge(server, conn, p.slice, &table, now + p.slice);
            now += p.slice;
            assert!(table.drop_descriptor_ref(conn).unwrap());
            // Prune: keep the newest eight containers, dead or alive.
            if i % 16 == 15 {
                binding.drain(1..binding.len() - 8);
                s.set_binding(server, &binding, now);
            }
            s.pick(&table, now).unwrap();
            let named_dead = binding.iter().filter(|&&c| !table.contains(c)).count();
            assert!(
                s.tracked_containers() <= table.len() + named_dead,
                "tracking {} containers with {} live and {} dead named",
                s.tracked_containers(),
                table.len(),
                named_dead
            );
        }
        assert!(s.tracked_containers() <= 2 + 24);
    }

    #[test]
    fn next_release_time_reports_bucket_refill() {
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.5).with_cpu_limit(0.5, Nanos::from_millis(10)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        // Exhaust the bucket.
        let mut now = Nanos::ZERO;
        while let Some(p) = s.pick(&table, now) {
            let dt = p.slice;
            table.charge_cpu(cl, dt).unwrap();
            s.charge(p.task, cl, dt, &table, now + dt);
            now += dt;
            if now > Nanos::from_millis(50) {
                break;
            }
        }
        if s.pick(&table, now).is_none() {
            let rel = s.next_release_time(&table, now).expect("throttled");
            assert!(rel > now);
        }
    }
}

//! The scheduler protocol: how the kernel talks to a CPU scheduler.
//!
//! Two layers:
//!
//! - [`CoreScheduler`] is the per-CPU policy protocol. Every policy in
//!   this crate (stride, decay, lottery, multilevel) implements it and
//!   manages exactly one run queue; policies are entirely unaware of
//!   multiprocessing.
//! - [`Scheduler`] is the SMP-aware surface the kernel drives. It routes
//!   every call to the right per-CPU core and supports migrating tasks
//!   between cores. [`PerCpu`] lifts any `CoreScheduler` into a
//!   `Scheduler` by instantiating one core per CPU.

use rescon::{ContainerId, ContainerTable};
use simcore::Nanos;

/// Identifier of a schedulable task (a thread in the simulated kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl simcore::slab::SlabKey for TaskId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        TaskId(i as u32)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a simulated CPU, dense from zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// The outcome of a scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    /// The task to run next.
    pub task: TaskId,
    /// Maximum uninterrupted slice before the kernel must call
    /// [`Scheduler::pick`] again (the quantum).
    pub slice: Nanos,
}

/// The policy-neutral state of one registered task: everything the kernel
/// told the scheduler, nothing the policy invented.
///
/// A mid-run policy swap exports one snapshot per task from the detaching
/// scheduler and replays them into the freshly built replacement
/// ([`Scheduler::export_tasks`] / [`Scheduler::import_tasks`]). Policy
/// ledgers — decayed usage, stride passes, limit buckets — deliberately do
/// *not* cross the swap: the new policy starts every principal at its own
/// notion of "just joined", which is the repo-wide sleeper-rejoin rule
/// (no banked credit) applied to the whole machine at once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// The registered task.
    pub task: TaskId,
    /// Its home CPU.
    pub cpu: CpuId,
    /// Its current scheduler binding (paper §4.3).
    pub binding: Vec<ContainerId>,
    /// Whether it was runnable at export time.
    pub runnable: bool,
}

/// A single-CPU scheduling policy whose resource principals are
/// containers.
///
/// The kernel (through the [`Scheduler`] layer):
///
/// 1. registers each thread with [`CoreScheduler::add_task`], giving its
///    scheduler binding (the containers it serves, paper §4.3);
/// 2. keeps the binding current via [`CoreScheduler::set_binding`] as the
///    thread's resource binding moves between containers;
/// 3. flips [`CoreScheduler::set_runnable`] as the thread blocks and
///    wakes;
/// 4. calls [`CoreScheduler::pick`] whenever the CPU is free or an event
///    may have changed the best choice, runs the picked task for at most
///    `slice`, and then
/// 5. reports the CPU actually consumed — and which container it was
///    charged to — via [`CoreScheduler::charge`].
///
/// Implementations must be deterministic given the same call sequence.
pub trait CoreScheduler {
    /// Registers a task with its initial scheduler binding. The task starts
    /// not runnable.
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos);

    /// Unregisters a task (thread exit).
    fn remove_task(&mut self, task: TaskId);

    /// Reports that some task's binding, on this CPU or another, names
    /// `c` where none did before. [`PerCpu`](crate::PerCpu) reports every
    /// such transition to every core, so a policy that drops a destroyed
    /// container's state once no binding names it can tell that a task
    /// elsewhere, which may migrate here, still does.
    fn hold_container(&mut self, _c: ContainerId) {}

    /// Reports that no task's binding on any CPU names `c` any more.
    fn release_container(&mut self, _c: ContainerId) {}

    /// Replaces the task's scheduler binding (paper §4.3: the set of
    /// containers a multiplexed thread currently serves).
    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos);

    /// Marks the task runnable or blocked.
    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos);

    /// Returns `true` if the task is currently marked runnable.
    fn is_runnable(&self, task: TaskId) -> bool;

    /// Chooses the next task to run, or `None` if no runnable task may run
    /// now (all blocked, or all throttled by CPU limits).
    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick>;

    /// Accounts `dt` of CPU consumed by `task` while resource-bound to
    /// `container`. The kernel has already charged the container table;
    /// this call updates policy state (decayed usage, stride passes,
    /// limit buckets).
    fn charge(
        &mut self,
        task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    );

    /// If every runnable task is throttled by a CPU limit, returns the
    /// earliest time at which one becomes eligible again; otherwise `None`.
    fn next_release_time(&mut self, table: &ContainerTable, now: Nanos) -> Option<Nanos>;

    /// A short policy name for reports.
    fn name(&self) -> &'static str;
}

/// The SMP scheduler surface the kernel drives: per-CPU run queues with
/// task-to-CPU placement and migration.
///
/// Calls that identify the CPU explicitly ([`Scheduler::add_task`],
/// [`Scheduler::pick`], [`Scheduler::next_release_time`]) address a
/// specific core; the rest resolve the owning core from the task's
/// current home CPU.
pub trait Scheduler {
    /// Registers a task on `cpu` with its initial scheduler binding. The
    /// task starts not runnable.
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], cpu: CpuId, now: Nanos);

    /// Unregisters a task (thread exit).
    fn remove_task(&mut self, task: TaskId);

    /// Replaces the task's scheduler binding on its home CPU.
    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos);

    /// Marks the task runnable or blocked on its home CPU.
    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos);

    /// Returns `true` if the task is currently marked runnable.
    fn is_runnable(&self, task: TaskId) -> bool;

    /// Returns the task's current home CPU, if registered.
    fn cpu_of(&self, task: TaskId) -> Option<CpuId>;

    /// Moves a task to `to`, preserving its binding and runnable state.
    /// Returns `false` if the task is unknown or already homed there.
    fn migrate(&mut self, task: TaskId, to: CpuId, now: Nanos) -> bool;

    /// Chooses the next task to run on `cpu`.
    fn pick(&mut self, cpu: CpuId, table: &ContainerTable, now: Nanos) -> Option<Pick>;

    /// Accounts `dt` of CPU consumed by `task` (on its home CPU).
    fn charge(
        &mut self,
        task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    );

    /// If every runnable task on `cpu` is throttled by a CPU limit,
    /// returns the earliest time one becomes eligible again.
    fn next_release_time(
        &mut self,
        cpu: CpuId,
        table: &ContainerTable,
        now: Nanos,
    ) -> Option<Nanos>;

    /// Number of simulated CPUs.
    fn ncpus(&self) -> u32;

    /// A short policy name for reports.
    fn name(&self) -> &'static str;

    /// Exports every registered task as a policy-neutral
    /// [`TaskSnapshot`], sorted by task id so the export order — and
    /// therefore the replay order on import — is deterministic.
    fn export_tasks(&self) -> Vec<TaskSnapshot>;

    /// Replays exported task snapshots into this (freshly built)
    /// scheduler: registration, home CPU, binding, and runnable state are
    /// restored; policy-internal ledgers start fresh.
    fn import_tasks(&mut self, tasks: &[TaskSnapshot], now: Nanos) {
        for t in tasks {
            self.add_task(t.task, &t.binding, t.cpu, now);
            if t.runnable {
                self.set_runnable(t.task, true, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "t7");
    }

    #[test]
    fn task_id_ordering() {
        assert!(TaskId(1) < TaskId(2));
        assert_eq!(TaskId(3), TaskId(3));
    }

    #[test]
    fn cpu_id_display_and_ordering() {
        assert_eq!(CpuId(2).to_string(), "cpu2");
        assert!(CpuId(0) < CpuId(1));
    }
}

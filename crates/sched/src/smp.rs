//! [`PerCpu`]: lifts any single-CPU [`CoreScheduler`] policy into the
//! SMP-aware [`Scheduler`] surface the kernel drives.
//!
//! One policy instance ("core") is created per simulated CPU; each core
//! owns its run queue and never learns about the others. `PerCpu` keeps
//! the task → home-CPU map plus a cache of each task's binding and
//! runnable flag so a migration can unregister the task from its old
//! core and re-register it — binding and runnable state intact — on the
//! new one. It also counts, over all tasks, the bindings naming each
//! container, and tells every core when a container becomes named or
//! unnamed anywhere ([`CoreScheduler::hold_container`]): a core may drop
//! a destroyed container's state only once no task on any CPU, which
//! might migrate to it, still names the container.
//!
//! With one CPU the wrapper is a pure pass-through: the call
//! sequence a core observes is identical to what the policy saw before
//! the SMP refactor, which is what keeps single-CPU runs byte-identical.

use rescon::{ContainerId, ContainerTable};
use simcore::slab::{IdHashMap, IdSlab};
use simcore::Nanos;

use crate::api::{CoreScheduler, CpuId, Pick, Scheduler, TaskId, TaskSnapshot};

struct TaskMeta {
    cpu: u32,
    binding: Vec<ContainerId>,
    runnable: bool,
}

/// An SMP scheduler built from one [`CoreScheduler`] instance per CPU.
pub struct PerCpu<P: CoreScheduler> {
    cores: Vec<P>,
    tasks: IdSlab<TaskId, TaskMeta>,
    /// How many binding entries, over all tasks, name each container.
    names: IdHashMap<ContainerId, u32>,
}

impl<P: CoreScheduler> PerCpu<P> {
    /// Builds the wrapper from pre-constructed cores, one per CPU.
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<P>) -> Self {
        assert!(!cores.is_empty(), "PerCpu requires at least one core");
        Self {
            cores,
            tasks: IdSlab::new(),
            names: IdHashMap::default(),
        }
    }

    fn core_of(&self, task: TaskId) -> Option<u32> {
        self.tasks.get(task).map(|m| m.cpu)
    }

    /// Counts `binding` in (`up`) or out of the global name counts and
    /// tells every core about containers that become named or unnamed.
    /// A lone core sees every binding itself, so it is told nothing.
    fn count_names(
        names: &mut IdHashMap<ContainerId, u32>,
        cores: &mut [P],
        binding: &[ContainerId],
        up: bool,
    ) {
        if cores.len() == 1 {
            return;
        }
        for &c in binding {
            let n = names.entry(c).or_insert(0);
            if up {
                *n += 1;
                if *n == 1 {
                    cores.iter_mut().for_each(|core| core.hold_container(c));
                }
            } else {
                *n -= 1;
                if *n == 0 {
                    names.remove(&c);
                    cores.iter_mut().for_each(|core| core.release_container(c));
                }
            }
        }
    }
}

impl<P: CoreScheduler> Scheduler for PerCpu<P> {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], cpu: CpuId, now: Nanos) {
        let cpu = cpu.0.min(self.cores.len() as u32 - 1);
        self.tasks.insert(
            task,
            TaskMeta {
                cpu,
                binding: binding.to_vec(),
                runnable: false,
            },
        );
        Self::count_names(&mut self.names, &mut self.cores, binding, true);
        self.cores[cpu as usize].add_task(task, binding, now);
    }

    fn remove_task(&mut self, task: TaskId) {
        if let Some(meta) = self.tasks.remove(task) {
            self.cores[meta.cpu as usize].remove_task(task);
            Self::count_names(&mut self.names, &mut self.cores, &meta.binding, false);
        }
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos) {
        if let Some(meta) = self.tasks.get_mut(task) {
            // Count the new binding in before the old one out, so a
            // container in both never looks unnamed.
            Self::count_names(&mut self.names, &mut self.cores, binding, true);
            Self::count_names(&mut self.names, &mut self.cores, &meta.binding, false);
            meta.binding.clear();
            meta.binding.extend_from_slice(binding);
            self.cores[meta.cpu as usize].set_binding(task, binding, now);
        }
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(meta) = self.tasks.get_mut(task) {
            meta.runnable = runnable;
            self.cores[meta.cpu as usize].set_runnable(task, runnable, now);
        }
    }

    fn is_runnable(&self, task: TaskId) -> bool {
        match self.core_of(task) {
            Some(cpu) => self.cores[cpu as usize].is_runnable(task),
            None => false,
        }
    }

    fn cpu_of(&self, task: TaskId) -> Option<CpuId> {
        self.core_of(task).map(CpuId)
    }

    fn migrate(&mut self, task: TaskId, to: CpuId, now: Nanos) -> bool {
        if to.0 as usize >= self.cores.len() {
            return false;
        }
        let Some(meta) = self.tasks.get_mut(task) else {
            return false;
        };
        if meta.cpu == to.0 {
            return false;
        }
        let from = meta.cpu;
        meta.cpu = to.0;
        let cores = &mut self.cores;
        cores[from as usize].remove_task(task);
        let dest = &mut cores[to.0 as usize];
        dest.add_task(task, &meta.binding, now);
        if meta.runnable {
            dest.set_runnable(task, true, now);
        }
        true
    }

    fn pick(&mut self, cpu: CpuId, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        self.cores[cpu.0 as usize].pick(table, now)
    }

    fn charge(
        &mut self,
        task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    ) {
        if let Some(cpu) = self.core_of(task) {
            self.cores[cpu as usize].charge(task, container, dt, table, now);
        }
    }

    fn next_release_time(
        &mut self,
        cpu: CpuId,
        table: &ContainerTable,
        now: Nanos,
    ) -> Option<Nanos> {
        self.cores[cpu.0 as usize].next_release_time(table, now)
    }

    fn ncpus(&self) -> u32 {
        self.cores.len() as u32
    }

    fn name(&self) -> &'static str {
        self.cores[0].name()
    }

    fn export_tasks(&self) -> Vec<TaskSnapshot> {
        // The task-meta cache holds exactly the policy-neutral state;
        // sorting by task id makes the replay order deterministic
        // regardless of HashMap iteration order.
        let mut out: Vec<TaskSnapshot> = self
            .tasks
            .iter()
            .map(|(task, meta)| TaskSnapshot {
                task,
                cpu: CpuId(meta.cpu),
                binding: meta.binding.clone(),
                runnable: meta.runnable,
            })
            .collect();
        out.sort_by_key(|t| t.task);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrideScheduler;
    use rescon::{Attributes, ContainerTable};

    fn two_cpu() -> (PerCpu<StrideScheduler>, ContainerTable, ContainerId) {
        let mut table = ContainerTable::new();
        let c = table
            .create(Some(table.root()), Attributes::time_shared(10))
            .unwrap();
        let pc = PerCpu::new(vec![StrideScheduler::new(), StrideScheduler::new()]);
        (pc, table, c)
    }

    #[test]
    fn tasks_stay_on_their_home_cpu() {
        let (mut pc, table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        pc.add_task(TaskId(2), &[c], CpuId(1), Nanos::ZERO);
        pc.set_runnable(TaskId(1), true, Nanos::ZERO);
        pc.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(0)));
        assert_eq!(pc.cpu_of(TaskId(2)), Some(CpuId(1)));
        let p0 = pc.pick(CpuId(0), &table, Nanos::ZERO).unwrap();
        let p1 = pc.pick(CpuId(1), &table, Nanos::ZERO).unwrap();
        assert_eq!(p0.task, TaskId(1));
        assert_eq!(p1.task, TaskId(2));
    }

    #[test]
    fn migrate_preserves_binding_and_runnable_state() {
        let (mut pc, table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        pc.set_runnable(TaskId(1), true, Nanos::ZERO);
        assert!(pc.migrate(TaskId(1), CpuId(1), Nanos::ZERO));
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(1)));
        assert!(pc.is_runnable(TaskId(1)));
        assert!(pc.pick(CpuId(0), &table, Nanos::ZERO).is_none());
        let p = pc.pick(CpuId(1), &table, Nanos::ZERO).unwrap();
        assert_eq!(p.task, TaskId(1));
    }

    #[test]
    fn migrate_rejects_unknown_noop_and_out_of_range() {
        let (mut pc, _table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        assert!(!pc.migrate(TaskId(9), CpuId(1), Nanos::ZERO));
        assert!(!pc.migrate(TaskId(1), CpuId(0), Nanos::ZERO));
        assert!(!pc.migrate(TaskId(1), CpuId(7), Nanos::ZERO));
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(0)));
    }

    #[test]
    fn ncpus_and_name_reflect_cores() {
        let (pc, _, _) = two_cpu();
        assert_eq!(pc.ncpus(), 2);
        assert_eq!(pc.name(), "stride");
    }
}

//! The kernel-side container table: hierarchy, attributes, accounting, and
//! lifetime management (paper §4.1, §4.5, §4.6).

use simcore::trace::{self, ChargeKind, TraceEventKind};
use simcore::{Arena, Idx, Nanos};

use crate::attrs::{Attributes, SchedPolicy};
use crate::error::{RcError, Result};
use crate::usage::{MemClass, ResourceUsage};

/// Tolerance used when validating that sibling fixed shares sum to at most 1.
const SHARE_EPSILON: f64 = 1e-9;

/// One resource container (paper §4.1).
///
/// Fields are private; all mutation flows through [`ContainerTable`] so the
/// hierarchy invariants (acyclicity, parent/child consistency, share caps,
/// reference counts) are maintained at a single module boundary.
#[derive(Debug)]
pub struct Container {
    parent: Option<ContainerId>,
    children: Vec<ContainerId>,
    attrs: Attributes,
    usage: ResourceUsage,
    /// CPU charged to this container or any (possibly destroyed)
    /// descendant.
    subtree_cpu: Nanos,
    /// Disk service time charged to this container or any (possibly
    /// destroyed) descendant.
    subtree_disk: Nanos,
    /// Link wire time charged to this container or any (possibly
    /// destroyed) descendant.
    subtree_tx: Nanos,
    /// Memory currently charged to this container or any live descendant.
    subtree_mem: u64,
    /// Open file descriptors referring to this container, across all
    /// processes (§4.6: containers are visible as descriptors).
    descriptor_refs: u32,
    /// Threads whose *resource binding* currently names this container.
    thread_bindings: u32,
    /// Sockets or files bound to this container.
    socket_bindings: u32,
    created_at: Nanos,
}

/// Identifier of a container; generation-checked.
pub type ContainerId = Idx<Container>;

impl Container {
    /// Returns the container's parent, or `None` for the root and for
    /// orphans whose parent was destroyed.
    pub fn parent(&self) -> Option<ContainerId> {
        self.parent
    }

    /// Returns the container's live children.
    pub fn children(&self) -> &[ContainerId] {
        &self.children
    }

    /// Returns the container's attributes.
    pub fn attrs(&self) -> &Attributes {
        &self.attrs
    }

    /// Returns the container's accumulated usage.
    pub fn usage(&self) -> &ResourceUsage {
        &self.usage
    }

    /// Returns `true` if the container has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Returns the virtual time at which the container was created.
    pub fn created_at(&self) -> Nanos {
        self.created_at
    }

    /// Returns the number of open descriptors referring to this container.
    pub fn descriptor_refs(&self) -> u32 {
        self.descriptor_refs
    }

    /// Returns the number of threads currently resource-bound here.
    pub fn thread_bindings(&self) -> u32 {
        self.thread_bindings
    }

    /// Returns the number of sockets/files currently bound here.
    pub fn socket_bindings(&self) -> u32 {
        self.socket_bindings
    }

    fn total_refs(&self) -> u32 {
        self.descriptor_refs + self.thread_bindings + self.socket_bindings
    }
}

/// The system-wide table of resource containers.
///
/// The table owns every container, maintains the hierarchy (§4.5), performs
/// resource accounting on behalf of the kernel, and destroys containers when
/// their last reference is dropped (§4.6: "once there are no such
/// descriptors, and no threads with resource bindings, to the container, it
/// is destroyed").
///
/// In *strict* mode (the default) the table enforces the paper's prototype
/// restrictions (§5.1): only fixed-share containers may have children, and
/// threads may bind only to leaf containers. Disabling strict mode permits
/// the general model of §4.
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
///
/// let mut t = ContainerTable::new();
/// let root = t.root();
/// let class = t
///     .create(Some(root), Attributes::fixed_share(0.3).named("cgi"))
///     .unwrap();
/// let request = t.create(Some(class), Attributes::time_shared(10)).unwrap();
/// assert_eq!(t.parent(request).unwrap(), Some(class));
/// assert!((t.effective_share(class).unwrap() - 0.3).abs() < 1e-12);
/// ```
pub struct ContainerTable {
    arena: Arena<Container>,
    root: ContainerId,
    strict: bool,
    /// Orphans: live containers with `parent == None` other than the root.
    floating: Vec<ContainerId>,
    /// Total containers ever created (for stats/tests).
    created_count: u64,
    /// Total containers destroyed (for stats/tests).
    destroyed_count: u64,
    /// CPU history of destroyed parentless containers (kept so that global
    /// accounting conserves: root subtree + floating subtrees + reaped =
    /// total charged).
    reaped_cpu: Nanos,
    /// Disk-time history of destroyed parentless containers (same
    /// conservation role as `reaped_cpu`).
    reaped_disk: Nanos,
    /// Link wire-time history of destroyed parentless containers (same
    /// conservation role as `reaped_cpu`).
    reaped_tx: Nanos,
    /// Live containers whose attributes carry a CPU limit, so schedulers
    /// can skip their per-decision limit scan when there are none.
    cpu_limited: usize,
}

impl Default for ContainerTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ContainerTable {
    /// Creates a table holding only the root (system) container.
    pub fn new() -> Self {
        Self::with_strict(true)
    }

    /// Creates a table, choosing whether to enforce the prototype
    /// restrictions of paper §5.1.
    pub fn with_strict(strict: bool) -> Self {
        let mut arena = Arena::new();
        let root = arena.insert(Container {
            parent: None,
            children: Vec::new(),
            attrs: Attributes::fixed_share(1.0).named("root"),
            usage: ResourceUsage::new(),
            subtree_cpu: Nanos::ZERO,
            subtree_disk: Nanos::ZERO,
            subtree_tx: Nanos::ZERO,
            subtree_mem: 0,
            // The root is permanently referenced by the kernel itself.
            descriptor_refs: 1,
            thread_bindings: 0,
            socket_bindings: 0,
            created_at: Nanos::ZERO,
        });
        ContainerTable {
            arena,
            root,
            strict,
            floating: Vec::new(),
            created_count: 1,
            destroyed_count: 0,
            reaped_cpu: Nanos::ZERO,
            reaped_disk: Nanos::ZERO,
            reaped_tx: Nanos::ZERO,
            cpu_limited: 0,
        }
    }

    /// Returns the root (system) container.
    pub fn root(&self) -> ContainerId {
        self.root
    }

    /// Returns `true` if prototype restrictions are enforced.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Returns the number of live containers.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns `true` if only the root container exists.
    pub fn is_empty(&self) -> bool {
        self.arena.len() <= 1
    }

    /// Returns the number of containers ever created (including destroyed).
    pub fn created_count(&self) -> u64 {
        self.created_count
    }

    /// Returns the number of containers destroyed so far.
    pub fn destroyed_count(&self) -> u64 {
        self.destroyed_count
    }

    /// Returns the CPU history that belonged to destroyed containers with
    /// no parent (their history had no ancestor to remain charged to).
    pub fn reaped_cpu(&self) -> Nanos {
        self.reaped_cpu
    }

    /// Returns the disk-time history that belonged to destroyed containers
    /// with no parent.
    pub fn reaped_disk(&self) -> Nanos {
        self.reaped_disk
    }

    /// Returns the link wire-time history that belonged to destroyed
    /// containers with no parent.
    pub fn reaped_tx(&self) -> Nanos {
        self.reaped_tx
    }

    /// Returns the number of live containers with a CPU limit.
    pub fn cpu_limited_count(&self) -> usize {
        self.cpu_limited
    }

    /// Returns `true` if `id` names a live container.
    pub fn contains(&self, id: ContainerId) -> bool {
        self.arena.contains(id)
    }

    fn get(&self, id: ContainerId) -> Result<&Container> {
        self.arena.get(id).ok_or(RcError::NotFound)
    }

    fn get_mut(&mut self, id: ContainerId) -> Result<&mut Container> {
        self.arena.get_mut(id).ok_or(RcError::NotFound)
    }

    /// Creates a container (§4.6 "Creating a new container") at virtual
    /// time zero; see [`ContainerTable::create_at`] for timestamped
    /// creation.
    ///
    /// The new container starts with one descriptor reference, representing
    /// the descriptor returned to the creating process.
    pub fn create(
        &mut self,
        parent: Option<ContainerId>,
        attrs: Attributes,
    ) -> Result<ContainerId> {
        self.create_at(parent, attrs, Nanos::ZERO)
    }

    /// Creates a container at virtual time `now`.
    ///
    /// `parent == None` creates the container directly under the root.
    pub fn create_at(
        &mut self,
        parent: Option<ContainerId>,
        attrs: Attributes,
        now: Nanos,
    ) -> Result<ContainerId> {
        attrs.validate()?;
        let parent = parent.unwrap_or(self.root);
        self.check_can_parent(parent)?;
        if let Some(share) = attrs.policy.share() {
            self.check_share_capacity(parent, share, None)?;
        }
        self.cpu_limited += usize::from(attrs.cpu_limit.is_some());
        let id = self.arena.insert(Container {
            parent: Some(parent),
            children: Vec::new(),
            attrs,
            usage: ResourceUsage::new(),
            subtree_cpu: Nanos::ZERO,
            subtree_disk: Nanos::ZERO,
            subtree_tx: Nanos::ZERO,
            subtree_mem: 0,
            descriptor_refs: 1,
            thread_bindings: 0,
            socket_bindings: 0,
            created_at: now,
        });
        self.created_count += 1;
        self.arena[parent].children.push(id);
        trace::emit_at(now, || TraceEventKind::ContainerCreate {
            container: id.as_u64(),
            parent: parent.as_u64(),
        });
        Ok(id)
    }

    fn check_can_parent(&self, parent: ContainerId) -> Result<()> {
        let p = self.get(parent)?;
        if self.strict && p.attrs.policy.share().is_none() {
            return Err(RcError::ParentNotFixedShare);
        }
        Ok(())
    }

    /// Validates that adding a child with `new_share` under `parent` (while
    /// ignoring `exclude`, used during reparenting) keeps the sibling share
    /// sum at or below 1.
    fn check_share_capacity(
        &self,
        parent: ContainerId,
        new_share: f64,
        exclude: Option<ContainerId>,
    ) -> Result<()> {
        let p = self.get(parent)?;
        let mut sum = new_share;
        for &child in &p.children {
            if Some(child) == exclude {
                continue;
            }
            if let Some(s) = self.arena[child].attrs.policy.share() {
                sum += s;
            }
        }
        if sum > 1.0 + SHARE_EPSILON {
            Err(RcError::ShareOvercommit)
        } else {
            Ok(())
        }
    }

    /// Changes a container's parent (§4.6 "Set a container's parent").
    ///
    /// `None` detaches the container; detached ("floating") containers are
    /// scheduled as if they were children of the root but are not destroyed
    /// with it.
    pub fn set_parent(&mut self, id: ContainerId, new_parent: Option<ContainerId>) -> Result<()> {
        if id == self.root {
            return Err(RcError::Cycle);
        }
        self.get(id)?;
        if let Some(np) = new_parent {
            // Walking up from `np` must not reach `id`.
            let mut cursor = Some(np);
            while let Some(c) = cursor {
                if c == id {
                    return Err(RcError::Cycle);
                }
                cursor = self.get(c)?.parent;
            }
            self.check_can_parent(np)?;
            if let Some(share) = self.get(id)?.attrs.policy.share() {
                self.check_share_capacity(np, share, Some(id))?;
            }
        }
        // Detach: remove contributions from the old ancestor chain.
        let (sub_cpu, sub_disk, sub_tx, sub_mem) = {
            let c = self.get(id)?;
            (c.subtree_cpu, c.subtree_disk, c.subtree_tx, c.subtree_mem)
        };
        let old_parent = self.get(id)?.parent;
        if let Some(op) = old_parent {
            self.arena[op].children.retain(|&c| c != id);
            self.propagate_detach(op, sub_cpu, sub_disk, sub_tx, sub_mem);
        } else {
            self.floating.retain(|&c| c != id);
        }
        // Attach.
        self.arena[id].parent = new_parent;
        match new_parent {
            Some(np) => {
                self.arena[np].children.push(id);
                self.propagate_attach(np, sub_cpu, sub_disk, sub_tx, sub_mem);
            }
            None => self.floating.push(id),
        }
        Ok(())
    }

    fn propagate_detach(
        &mut self,
        from: ContainerId,
        cpu: Nanos,
        disk: Nanos,
        tx: Nanos,
        mem: u64,
    ) {
        let mut cursor = Some(from);
        while let Some(c) = cursor {
            let node = &mut self.arena[c];
            node.subtree_cpu = node.subtree_cpu.saturating_sub(cpu);
            node.subtree_disk = node.subtree_disk.saturating_sub(disk);
            node.subtree_tx = node.subtree_tx.saturating_sub(tx);
            node.subtree_mem = node.subtree_mem.saturating_sub(mem);
            cursor = node.parent;
        }
    }

    fn propagate_attach(
        &mut self,
        from: ContainerId,
        cpu: Nanos,
        disk: Nanos,
        tx: Nanos,
        mem: u64,
    ) {
        let mut cursor = Some(from);
        while let Some(c) = cursor {
            let node = &mut self.arena[c];
            node.subtree_cpu = node.subtree_cpu.saturating_add(cpu);
            node.subtree_disk = node.subtree_disk.saturating_add(disk);
            node.subtree_tx = node.subtree_tx.saturating_add(tx);
            node.subtree_mem += mem;
            cursor = node.parent;
        }
    }

    /// Returns a container's parent.
    pub fn parent(&self, id: ContainerId) -> Result<Option<ContainerId>> {
        Ok(self.get(id)?.parent)
    }

    /// Returns a container's children.
    pub fn children(&self, id: ContainerId) -> Result<&[ContainerId]> {
        Ok(self.get(id)?.children.as_slice())
    }

    /// Returns a view of the container record.
    pub fn container(&self, id: ContainerId) -> Result<&Container> {
        self.get(id)
    }

    /// Returns the top-level containers: the root's children plus any
    /// floating orphans.
    pub fn top_level(&self) -> Vec<ContainerId> {
        let mut v = self.arena[self.root].children.clone();
        v.extend_from_slice(&self.floating);
        v
    }

    /// Returns the floating orphans: live containers (other than the root)
    /// whose parent has been destroyed or explicitly cleared.
    pub fn floating(&self) -> &[ContainerId] {
        &self.floating
    }

    /// Returns the chain of ancestors of `id`, nearest first (excluding
    /// `id` itself).
    pub fn ancestors(&self, id: ContainerId) -> Vec<ContainerId> {
        let mut out = Vec::new();
        let mut cursor = self.arena.get(id).and_then(|c| c.parent);
        while let Some(c) = cursor {
            out.push(c);
            cursor = self.arena.get(c).and_then(|n| n.parent);
        }
        out
    }

    /// Returns the container's attributes (§4.6 "Container attributes").
    pub fn attrs(&self, id: ContainerId) -> Result<&Attributes> {
        Ok(&self.get(id)?.attrs)
    }

    /// Looks up a live container by its attribute name (first match in id
    /// order; names are a labelling convenience, not enforced unique).
    /// Monitoring layers use this to resolve per-tenant declarations —
    /// e.g. a latency-SLO spec naming "tenant-a" — against the hierarchy.
    pub fn find_by_name(&self, name: &str) -> Option<ContainerId> {
        self.iter()
            .find(|(_, c)| c.attrs().name.as_deref() == Some(name))
            .map(|(id, _)| id)
    }

    /// Replaces the container's attributes, revalidating hierarchy
    /// constraints (§4.6).
    pub fn set_attrs(&mut self, id: ContainerId, attrs: Attributes) -> Result<()> {
        attrs.validate()?;
        let c = self.get(id)?;
        if self.strict && !c.children.is_empty() && attrs.policy.share().is_none() {
            return Err(RcError::ParentNotFixedShare);
        }
        if let Some(share) = attrs.policy.share() {
            if let Some(parent) = c.parent {
                self.check_share_capacity(parent, share, Some(id))?;
            }
        }
        let was_limited = c.attrs.cpu_limit.is_some();
        self.cpu_limited =
            self.cpu_limited - usize::from(was_limited) + usize::from(attrs.cpu_limit.is_some());
        self.get_mut(id)?.attrs = attrs;
        Ok(())
    }

    /// Returns the scheduling policy of a container.
    pub fn policy(&self, id: ContainerId) -> Result<SchedPolicy> {
        Ok(self.get(id)?.attrs.policy)
    }

    /// Returns a copy of the usage record (§4.6 "Container usage
    /// information").
    pub fn usage(&self, id: ContainerId) -> Result<ResourceUsage> {
        Ok(self.get(id)?.usage)
    }

    /// Returns the cumulative CPU charged to the container's subtree,
    /// including already-destroyed descendants.
    pub fn subtree_cpu(&self, id: ContainerId) -> Result<Nanos> {
        Ok(self.get(id)?.subtree_cpu)
    }

    /// Returns the memory currently charged to the container's subtree.
    pub fn subtree_mem(&self, id: ContainerId) -> Result<u64> {
        Ok(self.get(id)?.subtree_mem)
    }

    /// Returns the cumulative disk service time charged to the container's
    /// subtree, including already-destroyed descendants.
    pub fn subtree_disk(&self, id: ContainerId) -> Result<Nanos> {
        Ok(self.get(id)?.subtree_disk)
    }

    /// Returns the cumulative link wire time charged to the container's
    /// subtree, including already-destroyed descendants.
    pub fn subtree_tx(&self, id: ContainerId) -> Result<Nanos> {
        Ok(self.get(id)?.subtree_tx)
    }

    /// Charges user-mode CPU time to a container and its ancestors'
    /// subtree counters.
    pub fn charge_cpu(&mut self, id: ContainerId, dt: Nanos) -> Result<()> {
        self.charge_cpu_mode(id, dt, false)
    }

    /// Charges kernel-mode CPU time (protocol processing, syscall
    /// execution) to a container.
    pub fn charge_cpu_kernel(&mut self, id: ContainerId, dt: Nanos) -> Result<()> {
        self.charge_cpu_mode(id, dt, true)
    }

    fn charge_cpu_mode(&mut self, id: ContainerId, dt: Nanos, kernel: bool) -> Result<()> {
        let c = self.get_mut(id)?;
        c.usage.charge_cpu(dt, kernel);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: if kernel {
                ChargeKind::KernelCpu
            } else {
                ChargeKind::Cpu
            },
            amount: dt.as_nanos(),
        });
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = &mut self.arena[cur];
            node.subtree_cpu = node.subtree_cpu.saturating_add(dt);
            cursor = node.parent;
        }
        Ok(())
    }

    /// Charges a completed disk request (service time `dt`, `bytes`
    /// transferred) to a container and its ancestors' subtree counters.
    pub fn charge_disk(&mut self, id: ContainerId, dt: Nanos, bytes: u64) -> Result<()> {
        let c = self.get_mut(id)?;
        c.usage.charge_disk(dt, bytes);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: ChargeKind::Disk,
            amount: dt.as_nanos(),
        });
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = &mut self.arena[cur];
            node.subtree_disk = node.subtree_disk.saturating_add(dt);
            cursor = node.parent;
        }
        Ok(())
    }

    /// Charges a received packet to a container.
    pub fn charge_rx(&mut self, id: ContainerId, bytes: u64) -> Result<()> {
        self.get_mut(id)?.usage.charge_rx(bytes);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: ChargeKind::RxBytes,
            amount: bytes,
        });
        Ok(())
    }

    /// Charges a transmitted packet to a container.
    pub fn charge_tx(&mut self, id: ContainerId, bytes: u64) -> Result<()> {
        self.get_mut(id)?.usage.charge_tx(bytes);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: ChargeKind::TxBytes,
            amount: bytes,
        });
        Ok(())
    }

    /// Charges link wire time to a container and its ancestors' subtree
    /// counters (finite-bandwidth transmit links only).
    pub fn charge_tx_time(&mut self, id: ContainerId, dt: Nanos) -> Result<()> {
        self.get_mut(id)?.usage.charge_tx_time(dt);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: ChargeKind::TxTime,
            amount: dt.as_nanos(),
        });
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = &mut self.arena[cur];
            node.subtree_tx = node.subtree_tx.saturating_add(dt);
            cursor = node.parent;
        }
        Ok(())
    }

    /// Increments the syscall counter of a container.
    pub fn charge_syscall(&mut self, id: ContainerId) -> Result<()> {
        self.get_mut(id)?.usage.syscalls += 1;
        Ok(())
    }

    /// Charges untagged ([`MemClass::Other`]) memory to a container,
    /// enforcing the memory limits of the container and every ancestor
    /// against their subtree totals.
    pub fn charge_mem(&mut self, id: ContainerId, bytes: u64) -> Result<()> {
        self.charge_mem_class(id, MemClass::Other, bytes)
    }

    /// Dry-run of the limit validation [`ContainerTable::charge_mem_class`]
    /// performs: would charging `bytes` to `id` fit under every limit on
    /// the ancestor chain? Emits nothing and mutates nothing, so reclaim
    /// drivers can poll it between steals.
    ///
    /// # Errors
    ///
    /// [`RcError::LimitExceeded`] naming the nearest refusing container,
    /// its limit, and its current subtree usage.
    pub fn check_mem(&self, id: ContainerId, bytes: u64) -> Result<()> {
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.get(cur)?;
            if let Some(limit) = node.attrs.mem_limit {
                if node.subtree_mem + bytes > limit {
                    return Err(RcError::LimitExceeded {
                        container: cur.as_u64(),
                        limit,
                        used: node.subtree_mem,
                    });
                }
            }
            cursor = node.parent;
        }
        Ok(())
    }

    /// Charges `bytes` of `class` memory to a container, enforcing the
    /// memory limits of the container and every ancestor against their
    /// subtree totals. A refusal identifies the refusing ancestor in both
    /// the error and a [`TraceEventKind::MemRefused`] trace event.
    pub fn charge_mem_class(&mut self, id: ContainerId, class: MemClass, bytes: u64) -> Result<()> {
        // Validate the whole chain before mutating anything.
        if let Err(e) = self.check_mem(id, bytes) {
            if let RcError::LimitExceeded {
                container,
                limit,
                used,
            } = e
            {
                trace::emit(|| TraceEventKind::MemRefused {
                    container: id.as_u64(),
                    refusing: container,
                    limit,
                    used,
                    wanted: bytes,
                });
            }
            return Err(e);
        }
        self.get_mut(id)?.usage.charge_mem_class(bytes, class);
        trace::emit(|| TraceEventKind::Charge {
            container: id.as_u64(),
            kind: ChargeKind::Mem,
            amount: bytes,
        });
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = &mut self.arena[cur];
            node.subtree_mem += bytes;
            cursor = node.parent;
        }
        Ok(())
    }

    /// Releases untagged ([`MemClass::Other`]) memory previously charged
    /// with [`ContainerTable::charge_mem`].
    pub fn release_mem(&mut self, id: ContainerId, bytes: u64) -> Result<()> {
        self.release_mem_class(id, MemClass::Other, bytes)
    }

    /// Releases `bytes` of `class` memory previously charged with
    /// [`ContainerTable::charge_mem_class`].
    pub fn release_mem_class(
        &mut self,
        id: ContainerId,
        class: MemClass,
        bytes: u64,
    ) -> Result<()> {
        self.get_mut(id)?.usage.release_mem_class(bytes, class);
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = &mut self.arena[cur];
            node.subtree_mem = node.subtree_mem.saturating_sub(bytes);
            cursor = node.parent;
        }
        Ok(())
    }

    /// Returns `true` if `id` is `root` or a live descendant of `root`
    /// (used by reclaim to restrict stealing to the violating subtree).
    pub fn in_subtree(&self, id: ContainerId, root: ContainerId) -> bool {
        if !self.arena.contains(id) {
            return false;
        }
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            if cur == root {
                return true;
            }
            cursor = self.arena.get(cur).and_then(|c| c.parent);
        }
        false
    }

    /// Returns the fraction of the whole machine guaranteed to this
    /// container: the product of fixed shares along the path to the root,
    /// where time-shared hops contribute no guarantee (returned as the
    /// guarantee of the nearest fixed-share ancestor chain).
    pub fn effective_share(&self, id: ContainerId) -> Result<f64> {
        let mut share = 1.0;
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.get(cur)?;
            if let Some(s) = node.attrs.policy.share() {
                share *= s;
            }
            cursor = node.parent;
        }
        Ok(share)
    }

    /// Returns the chain of `(container, net weight, rate cap)` triples
    /// from the root down to `id` (root first, `id` last). The transmit
    /// link scheduler uses this path to place the container in its class
    /// hierarchy, with each node's bandwidth divided among its active
    /// children in proportion to their weights — the same parent/child
    /// interpretation the multi-level CPU scheduler gives fixed shares.
    pub fn net_weight_path(&self, id: ContainerId) -> Result<Vec<(u64, u32, Option<u64>)>> {
        let leaf = self.get(id)?;
        let mut path = vec![(
            id.as_u64(),
            leaf.attrs.qos.weight.max(1),
            leaf.attrs.qos.rate_bps,
        )];
        let mut cursor = leaf.parent;
        while let Some(cur) = cursor {
            let node = self.get(cur)?;
            path.push((
                cur.as_u64(),
                node.attrs.qos.weight.max(1),
                node.attrs.qos.rate_bps,
            ));
            cursor = node.parent;
        }
        path.reverse();
        Ok(path)
    }

    /// Returns the tightest `sockbuf_limit` along the container's ancestor
    /// chain (paper §4.1: network QoS attributes), or `None` if no
    /// container on the path sets one.
    pub fn effective_sockbuf_limit(&self, id: ContainerId) -> Result<Option<u64>> {
        let mut limit: Option<u64> = None;
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.get(cur)?;
            if let Some(l) = node.attrs.qos.sockbuf_limit {
                limit = Some(limit.map_or(l, |cur| cur.min(l)));
            }
            cursor = node.parent;
        }
        Ok(limit)
    }

    // --- Reference counting and destruction (§4.6 "Container release") ---

    /// Adds a descriptor reference (a process opened or received a handle).
    pub fn add_descriptor_ref(&mut self, id: ContainerId) -> Result<()> {
        self.get_mut(id)?.descriptor_refs += 1;
        Ok(())
    }

    /// Drops a descriptor reference; destroys the container when the last
    /// reference of any kind is gone. Returns `true` if destroyed.
    pub fn drop_descriptor_ref(&mut self, id: ContainerId) -> Result<bool> {
        let c = self.get_mut(id)?;
        debug_assert!(c.descriptor_refs > 0, "descriptor refcount underflow");
        c.descriptor_refs = c.descriptor_refs.saturating_sub(1);
        self.maybe_destroy(id)
    }

    /// Records that a thread set its resource binding to this container.
    ///
    /// In strict mode the container must be a leaf (§5.1: "threads can only
    /// be bound to leaf-level containers").
    pub fn bind_thread(&mut self, id: ContainerId) -> Result<()> {
        let strict = self.strict;
        let c = self.get_mut(id)?;
        if strict && !c.children.is_empty() {
            return Err(RcError::NotALeaf);
        }
        c.thread_bindings += 1;
        Ok(())
    }

    /// Records that a thread's resource binding left this container.
    /// Returns `true` if this destroyed the container.
    pub fn unbind_thread(&mut self, id: ContainerId) -> Result<bool> {
        let c = self.get_mut(id)?;
        debug_assert!(c.thread_bindings > 0, "thread binding underflow");
        c.thread_bindings = c.thread_bindings.saturating_sub(1);
        self.maybe_destroy(id)
    }

    /// Records that a socket or file descriptor was bound to this container
    /// (§4.6 "Binding a socket or file to a container").
    pub fn bind_socket(&mut self, id: ContainerId) -> Result<()> {
        let strict = self.strict;
        let c = self.get_mut(id)?;
        if strict && !c.children.is_empty() {
            return Err(RcError::NotALeaf);
        }
        c.socket_bindings += 1;
        c.usage.sockets += 1;
        Ok(())
    }

    /// Records that a socket binding was removed. Returns `true` if this
    /// destroyed the container.
    pub fn unbind_socket(&mut self, id: ContainerId) -> Result<bool> {
        let c = self.get_mut(id)?;
        debug_assert!(c.socket_bindings > 0, "socket binding underflow");
        c.socket_bindings = c.socket_bindings.saturating_sub(1);
        c.usage.sockets = c.usage.sockets.saturating_sub(1);
        self.maybe_destroy(id)
    }

    fn maybe_destroy(&mut self, id: ContainerId) -> Result<bool> {
        if id == self.root {
            return Ok(false);
        }
        if self.get(id)?.total_refs() > 0 {
            return Ok(false);
        }
        // Orphan the children: §4.6 "If the parent P of a container C is
        // destroyed, C's parent is set to 'no parent'." The orphan takes its
        // subtree accounting with it (same semantics as `set_parent`), so
        // total charged CPU always equals root-subtree + floating-subtree
        // CPU; the dying container's *own* history stays with its old
        // ancestors.
        let children = std::mem::take(&mut self.arena[id].children);
        for child in children {
            let (cpu, disk, tx, mem) = {
                let c = &self.arena[child];
                (c.subtree_cpu, c.subtree_disk, c.subtree_tx, c.subtree_mem)
            };
            self.arena[child].parent = None;
            self.floating.push(child);
            self.propagate_detach(id, cpu, disk, tx, mem);
        }
        // Detach from the parent.
        let parent = self.arena[id].parent;
        let own_mem = self.arena[id].usage.mem_bytes;
        if parent.is_none() {
            // No ancestor keeps this history; record it at table level so
            // accounting still conserves.
            self.reaped_cpu = self.reaped_cpu.saturating_add(self.arena[id].subtree_cpu);
            self.reaped_disk = self.reaped_disk.saturating_add(self.arena[id].subtree_disk);
            self.reaped_tx = self.reaped_tx.saturating_add(self.arena[id].subtree_tx);
        }
        match parent {
            Some(p) => {
                self.arena[p].children.retain(|&c| c != id);
                let mut cursor = Some(p);
                while let Some(cur) = cursor {
                    let node = &mut self.arena[cur];
                    node.subtree_mem = node.subtree_mem.saturating_sub(own_mem);
                    cursor = node.parent;
                }
            }
            None => self.floating.retain(|&c| c != id),
        }
        if let Some(c) = self.arena.remove(id) {
            self.cpu_limited -= usize::from(c.attrs.cpu_limit.is_some());
        }
        self.destroyed_count += 1;
        trace::emit(|| TraceEventKind::ContainerDestroy {
            container: id.as_u64(),
        });
        Ok(true)
    }

    /// Iterates over all live containers.
    pub fn iter(&self) -> impl Iterator<Item = (ContainerId, &Container)> {
        self.arena.iter()
    }

    /// Verifies the structural invariants of the table; used by tests and
    /// property tests. Panics with a description on violation.
    pub fn check_invariants(&self) {
        for (id, c) in self.arena.iter() {
            // Parent/child consistency.
            if let Some(p) = c.parent {
                let parent = self.arena.get(p).expect("parent must be live");
                assert!(
                    parent.children.contains(&id),
                    "parent {p:?} does not list child {id:?}"
                );
            } else if id != self.root {
                assert!(
                    self.floating.contains(&id),
                    "orphan {id:?} missing from floating list"
                );
            }
            for &child in &c.children {
                let ch = self.arena.get(child).expect("child must be live");
                assert_eq!(ch.parent, Some(id), "child {child:?} parent mismatch");
            }
            // Acyclicity: walking up must terminate within the arena size.
            let mut steps = 0;
            let mut cursor = c.parent;
            while let Some(cur) = cursor {
                steps += 1;
                assert!(steps <= self.arena.len(), "cycle detected at {id:?}");
                cursor = self.arena[cur].parent;
            }
            // Share caps.
            let sum: f64 = c
                .children
                .iter()
                .filter_map(|&ch| self.arena[ch].attrs.policy.share())
                .sum();
            assert!(
                sum <= 1.0 + SHARE_EPSILON,
                "children of {id:?} overcommitted: {sum}"
            );
            // Subtree CPU dominates own CPU.
            assert!(
                c.subtree_cpu >= c.usage.cpu,
                "subtree cpu < own cpu at {id:?}"
            );
            // Subtree disk time dominates own disk time.
            assert!(
                c.subtree_disk >= c.usage.disk_time,
                "subtree disk < own disk at {id:?}"
            );
            // Subtree link time dominates own link time.
            assert!(
                c.subtree_tx >= c.usage.tx_time,
                "subtree tx < own tx at {id:?}"
            );
        }
        for &f in &self.floating {
            assert!(self.arena.contains(f), "floating list has dead id {f:?}");
            assert!(
                self.arena[f].parent.is_none(),
                "floating container {f:?} has a parent"
            );
        }
        let limited = self
            .arena
            .iter()
            .filter(|(_, c)| c.attrs.cpu_limit.is_some())
            .count();
        assert_eq!(limited, self.cpu_limited, "cpu-limited count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ContainerTable {
        ContainerTable::new()
    }

    #[test]
    fn root_exists_and_is_permanent() {
        let mut t = table();
        let root = t.root();
        assert!(t.contains(root));
        assert_eq!(t.len(), 1);
        // Dropping the kernel's ref must not destroy the root.
        assert!(!t.drop_descriptor_ref(root).unwrap());
        assert!(t.contains(root));
    }

    #[test]
    fn create_and_lookup() {
        let mut t = table();
        let c = t.create(None, Attributes::time_shared(7)).unwrap();
        assert_eq!(t.parent(c).unwrap(), Some(t.root()));
        assert_eq!(t.attrs(c).unwrap().policy.priority(), Some(7));
        assert!(t.children(t.root()).unwrap().contains(&c));
        t.check_invariants();
    }

    #[test]
    fn strict_mode_rejects_timeshare_parent() {
        let mut t = table();
        let ts = t.create(None, Attributes::time_shared(5)).unwrap();
        let err = t.create(Some(ts), Attributes::time_shared(5)).unwrap_err();
        assert_eq!(err, RcError::ParentNotFixedShare);
    }

    #[test]
    fn general_mode_allows_timeshare_parent() {
        let mut t = ContainerTable::with_strict(false);
        let ts = t.create(None, Attributes::time_shared(5)).unwrap();
        assert!(t.create(Some(ts), Attributes::time_shared(5)).is_ok());
        t.check_invariants();
    }

    #[test]
    fn share_overcommit_rejected() {
        let mut t = table();
        t.create(None, Attributes::fixed_share(0.7)).unwrap();
        assert_eq!(
            t.create(None, Attributes::fixed_share(0.4)).unwrap_err(),
            RcError::ShareOvercommit
        );
        assert!(t.create(None, Attributes::fixed_share(0.3)).is_ok());
        t.check_invariants();
    }

    #[test]
    fn mixed_share_and_timeshare_children_allowed() {
        let mut t = table();
        t.create(None, Attributes::fixed_share(0.9)).unwrap();
        // Time-shared children do not count toward the share cap.
        for _ in 0..5 {
            t.create(None, Attributes::time_shared(10)).unwrap();
        }
        t.check_invariants();
    }

    #[test]
    fn cycle_rejected_on_reparent() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let b = t.create(Some(a), Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(b), Attributes::fixed_share(0.5)).unwrap();
        assert_eq!(t.set_parent(a, Some(c)).unwrap_err(), RcError::Cycle);
        assert_eq!(t.set_parent(a, Some(a)).unwrap_err(), RcError::Cycle);
        assert_eq!(t.set_parent(t.root(), Some(a)).unwrap_err(), RcError::Cycle);
        t.check_invariants();
    }

    #[test]
    fn reparent_moves_subtree_accounting() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let b = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let child = t.create(Some(a), Attributes::time_shared(1)).unwrap();
        t.charge_cpu(child, Nanos::from_micros(100)).unwrap();
        assert_eq!(t.subtree_cpu(a).unwrap(), Nanos::from_micros(100));
        assert_eq!(t.subtree_cpu(b).unwrap(), Nanos::ZERO);
        t.set_parent(child, Some(b)).unwrap();
        assert_eq!(t.subtree_cpu(a).unwrap(), Nanos::ZERO);
        assert_eq!(t.subtree_cpu(b).unwrap(), Nanos::from_micros(100));
        // Root keeps the total either way.
        assert_eq!(t.subtree_cpu(t.root()).unwrap(), Nanos::from_micros(100));
        t.check_invariants();
    }

    #[test]
    fn detach_to_floating() {
        let mut t = table();
        let a = t.create(None, Attributes::time_shared(3)).unwrap();
        t.set_parent(a, None).unwrap();
        assert_eq!(t.parent(a).unwrap(), None);
        assert!(t.top_level().contains(&a));
        t.check_invariants();
    }

    #[test]
    fn charge_propagates_to_ancestors() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.6)).unwrap();
        let b = t.create(Some(a), Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(b), Attributes::time_shared(2)).unwrap();
        t.charge_cpu_kernel(c, Nanos::from_micros(50)).unwrap();
        assert_eq!(t.usage(c).unwrap().kernel_cpu, Nanos::from_micros(50));
        assert_eq!(t.usage(b).unwrap().cpu, Nanos::ZERO);
        assert_eq!(t.subtree_cpu(b).unwrap(), Nanos::from_micros(50));
        assert_eq!(t.subtree_cpu(a).unwrap(), Nanos::from_micros(50));
        assert_eq!(t.subtree_cpu(t.root()).unwrap(), Nanos::from_micros(50));
    }

    #[test]
    fn cpu_limited_count_follows_create_set_attrs_and_destroy() {
        let mut t = table();
        let limited = Attributes::fixed_share(0.2).with_cpu_limit(0.1, Nanos::from_millis(10));
        let a = t.create(None, limited.clone()).unwrap();
        let b = t.create(None, Attributes::fixed_share(0.2)).unwrap();
        assert_eq!(t.cpu_limited_count(), 1);
        t.set_attrs(b, limited).unwrap();
        assert_eq!(t.cpu_limited_count(), 2);
        t.set_attrs(a, Attributes::fixed_share(0.2)).unwrap();
        assert_eq!(t.cpu_limited_count(), 1);
        assert!(t.drop_descriptor_ref(b).unwrap());
        assert_eq!(t.cpu_limited_count(), 0);
        t.check_invariants();
    }

    #[test]
    fn destroy_when_last_ref_dropped() {
        let mut t = table();
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        t.bind_thread(c).unwrap();
        // Still referenced by the thread binding.
        assert!(!t.drop_descriptor_ref(c).unwrap());
        assert!(t.contains(c));
        assert!(t.unbind_thread(c).unwrap());
        assert!(!t.contains(c));
        assert_eq!(t.destroyed_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn children_orphaned_on_parent_destroy() {
        let mut t = table();
        let p = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        assert!(t.drop_descriptor_ref(p).unwrap());
        assert!(!t.contains(p));
        assert!(t.contains(c));
        assert_eq!(t.parent(c).unwrap(), None);
        assert!(t.top_level().contains(&c));
        t.check_invariants();
    }

    #[test]
    fn stale_id_errors() {
        let mut t = table();
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        t.drop_descriptor_ref(c).unwrap();
        assert_eq!(t.usage(c).unwrap_err(), RcError::NotFound);
        assert_eq!(
            t.charge_cpu(c, Nanos::from_micros(1)).unwrap_err(),
            RcError::NotFound
        );
    }

    #[test]
    fn strict_leaf_binding() {
        let mut t = table();
        let p = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let _c = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        assert_eq!(t.bind_thread(p).unwrap_err(), RcError::NotALeaf);
        assert_eq!(t.bind_socket(p).unwrap_err(), RcError::NotALeaf);
    }

    #[test]
    fn effective_share_multiplies_down() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let b = t.create(Some(a), Attributes::fixed_share(0.4)).unwrap();
        let c = t.create(Some(b), Attributes::time_shared(1)).unwrap();
        assert!((t.effective_share(b).unwrap() - 0.2).abs() < 1e-12);
        // Time-shared leaf inherits the guarantee of its chain.
        assert!((t.effective_share(c).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mem_limit_enforced_on_subtree() {
        let mut t = table();
        let p = t
            .create(None, Attributes::fixed_share(0.5).with_mem_limit(1000))
            .unwrap();
        let c1 = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        let c2 = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        t.charge_mem(c1, 600).unwrap();
        // The refusal names the refusing ancestor and its limit/usage.
        assert_eq!(
            t.charge_mem(c2, 500).unwrap_err(),
            RcError::LimitExceeded {
                container: p.as_u64(),
                limit: 1000,
                used: 600,
            }
        );
        assert!(t.check_mem(c2, 500).is_err());
        assert!(t.check_mem(c2, 400).is_ok());
        t.charge_mem(c2, 400).unwrap();
        t.release_mem(c1, 600).unwrap();
        t.charge_mem(c2, 600).unwrap();
        assert_eq!(t.subtree_mem(p).unwrap(), 1000);
        t.check_invariants();
    }

    #[test]
    fn in_subtree_walks_ancestors() {
        let mut t = table();
        let p = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        let other = t.create(None, Attributes::time_shared(1)).unwrap();
        assert!(t.in_subtree(c, p));
        assert!(t.in_subtree(p, p));
        assert!(t.in_subtree(c, t.root()));
        assert!(!t.in_subtree(other, p));
        assert!(!t.in_subtree(p, c));
    }

    #[test]
    fn socket_binding_counts_in_usage() {
        let mut t = table();
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        t.bind_socket(c).unwrap();
        t.bind_socket(c).unwrap();
        assert_eq!(t.usage(c).unwrap().sockets, 2);
        t.unbind_socket(c).unwrap();
        assert_eq!(t.usage(c).unwrap().sockets, 1);
    }

    #[test]
    fn set_attrs_validates_overcommit() {
        let mut t = table();
        let _a = t.create(None, Attributes::fixed_share(0.7)).unwrap();
        let b = t.create(None, Attributes::fixed_share(0.2)).unwrap();
        assert_eq!(
            t.set_attrs(b, Attributes::fixed_share(0.5)).unwrap_err(),
            RcError::ShareOvercommit
        );
        assert!(t.set_attrs(b, Attributes::fixed_share(0.3)).is_ok());
    }

    #[test]
    fn set_attrs_keeps_parent_capability_in_strict_mode() {
        let mut t = table();
        let p = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let _c = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        assert_eq!(
            t.set_attrs(p, Attributes::time_shared(1)).unwrap_err(),
            RcError::ParentNotFixedShare
        );
    }

    #[test]
    fn ancestors_nearest_first() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let b = t.create(Some(a), Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(b), Attributes::time_shared(1)).unwrap();
        assert_eq!(t.ancestors(c), vec![b, a, t.root()]);
        assert_eq!(t.ancestors(t.root()), Vec::<ContainerId>::new());
    }

    #[test]
    fn tx_time_propagates_and_reaps_like_disk() {
        let mut t = table();
        let a = t.create(None, Attributes::fixed_share(0.5)).unwrap();
        let c = t.create(Some(a), Attributes::time_shared(1)).unwrap();
        t.charge_tx_time(c, Nanos::from_micros(30)).unwrap();
        assert_eq!(t.usage(c).unwrap().tx_time, Nanos::from_micros(30));
        assert_eq!(t.subtree_tx(a).unwrap(), Nanos::from_micros(30));
        assert_eq!(t.subtree_tx(t.root()).unwrap(), Nanos::from_micros(30));
        // Destroying the child keeps the history with the ancestors.
        t.drop_descriptor_ref(c).unwrap();
        assert_eq!(t.subtree_tx(a).unwrap(), Nanos::from_micros(30));
        // Orphan + destroy: history moves to the reaped bucket, so
        // root-subtree + floating + reaped always equals total charged.
        t.set_parent(a, None).unwrap();
        assert_eq!(t.subtree_tx(t.root()).unwrap(), Nanos::ZERO);
        t.drop_descriptor_ref(a).unwrap();
        assert_eq!(t.reaped_tx(), Nanos::from_micros(30));
        t.check_invariants();
    }

    #[test]
    fn net_weight_path_root_first() {
        let mut t = table();
        let a = t
            .create(None, Attributes::fixed_share(0.5).with_net_weight(3))
            .unwrap();
        let b = t
            .create(Some(a), Attributes::time_shared(1).with_net_weight(2))
            .unwrap();
        assert_eq!(
            t.net_weight_path(b).unwrap(),
            vec![
                (t.root().as_u64(), 1, None),
                (a.as_u64(), 3, None),
                (b.as_u64(), 2, None)
            ]
        );
    }

    #[test]
    fn effective_sockbuf_limit_is_tightest_on_chain() {
        let mut t = table();
        let a = t
            .create(None, Attributes::fixed_share(0.5).with_sockbuf_limit(1000))
            .unwrap();
        let b = t.create(Some(a), Attributes::time_shared(1)).unwrap();
        let c = t
            .create(Some(a), Attributes::time_shared(1).with_sockbuf_limit(500))
            .unwrap();
        assert_eq!(t.effective_sockbuf_limit(b).unwrap(), Some(1000));
        assert_eq!(t.effective_sockbuf_limit(c).unwrap(), Some(500));
        let free = t.create(None, Attributes::time_shared(1)).unwrap();
        assert_eq!(t.effective_sockbuf_limit(free).unwrap(), None);
    }

    #[test]
    fn counts_track_lifecycle() {
        let mut t = table();
        let ids: Vec<_> = (0..10)
            .map(|_| t.create(None, Attributes::time_shared(1)).unwrap())
            .collect();
        assert_eq!(t.created_count(), 11); // +1 for root
        for id in ids {
            t.drop_descriptor_ref(id).unwrap();
        }
        assert_eq!(t.destroyed_count(), 10);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }
}

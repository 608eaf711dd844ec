//! Dense slab storage for simulation hot state.
//!
//! Per-thread, per-process, and per-connection bookkeeping used to live
//! in `BTreeMap`/`HashMap` nodes — a pointer chase and a hash (or a tree
//! walk) on every event. Task and process ids are handed out
//! monotonically from 1 and never reused, so an [`IdSlab`] stores their
//! state in a plain `Vec` indexed directly by id: O(1) access with no
//! hashing, and iteration in ascending id order — the same order
//! `BTreeMap` iteration produced, which the deterministic goldens depend
//! on. The id types themselves live in higher crates (`sched`, `simos`),
//! which implement [`SlabKey`] for them.
//!
//! Socket ids *are* reused (the net stack's arena recycles slots with a
//! bumped generation), so SockId-keyed side tables use a [`SockTable`]:
//! a `Vec` indexed by arena slot holding `(generation, value)` pairs.
//! Lookups miss on a stale generation exactly like a `HashMap` keyed by
//! the full id would, and inserts `debug_assert` that they never land on
//! a slot still holding a *different* generation's value — that would
//! mean a connection was torn down without releasing its charges, the
//! slab analogue of a use-after-free.
//!
//! Container ids are reused the same way, but per-container scheduler
//! state legitimately outlives its container for a while (a destroyed
//! container stays in a thread's scheduler binding until pruned) while
//! the recycled slot already holds a new one. Both ids must coexist, so
//! that state lives in an [`IdHashMap`]: a `HashMap` keyed by the full
//! id with a one-multiply hasher instead of SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;

use crate::arena::Idx;

/// A `HashMap` for keys that are small kernel-assigned integers, such as
/// generational arena ids whose slots are reused (so a slot-indexed
/// table would need a collision rule). Iteration order is unspecified:
/// use it only where nothing depends on that order.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The hasher behind [`IdHashMap`]: one multiply-rotate step (FxHash's)
/// per integer written. Ids are not attacker-chosen, so SipHash's
/// flooding resistance buys nothing on per-decision paths.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A key that is a dense, never-reused small integer.
pub trait SlabKey: Copy {
    /// The backing index.
    fn index(self) -> usize;
    /// Rebuilds the key from its index (used by iteration).
    fn from_index(i: usize) -> Self;
}

/// Dense map from a monotone id to a value, backed by a `Vec`.
///
/// Iteration order is ascending id — identical to the `BTreeMap` order
/// this replaces, so event schedules are unchanged byte for byte.
pub struct IdSlab<K: SlabKey, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: SlabKey, V> Default for IdSlab<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SlabKey, V> IdSlab<K, V> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `key` has a live entry.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.slots.get(key.index()).is_some_and(|s| s.is_some())
    }

    /// Shared access to `key`'s entry.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to `key`'s entry.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index()).and_then(|s| s.as_mut())
    }

    /// Inserts a value, returning the previous one if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns `key`'s entry.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let old = self.slots.get_mut(key.index()).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Returns `key`'s entry, inserting `default` first if absent.
    pub fn or_insert(&mut self, key: K, default: V) -> &mut V {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(default);
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Iterates live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Mutably iterates live entries in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (K::from_index(i), v)))
    }

    /// Iterates live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| K::from_index(i)))
    }

    /// Iterates live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }
}

/// Side table keyed by a generational arena id ([`Idx`]).
///
/// Indexed by the id's arena slot; each occupied slot remembers the
/// generation it was written under. A lookup with a recycled id (same
/// slot, newer generation) misses — exactly the behavior of a `HashMap`
/// keyed by the full `(slot, generation)` id — and a lookup or insert
/// observing an *older* stored generation trips a `debug_assert`,
/// because it means state outlived its connection.
pub struct SockTable<T, V> {
    slots: Vec<Option<(Idx<T>, V)>>,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T, V> Default for SockTable<T, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, V> SockTable<T, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SockTable {
            slots: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared access under `id`, missing on a generation mismatch.
    #[inline]
    pub fn get(&self, id: Idx<T>) -> Option<&V> {
        match self.slots.get(id.slot() as usize) {
            Some(Some((key, v))) if *key == id => Some(v),
            Some(Some((key, _))) => {
                debug_assert!(
                    key.generation() > id.generation(),
                    "sock table read with a live slot from a dead generation: \
                     stored gen {}, asked gen {}",
                    key.generation(),
                    id.generation()
                );
                None
            }
            _ => None,
        }
    }

    /// Mutable access under `id`, missing on a generation mismatch.
    #[inline]
    pub fn get_mut(&mut self, id: Idx<T>) -> Option<&mut V> {
        match self.slots.get_mut(id.slot() as usize) {
            Some(Some((key, v))) if *key == id => Some(v),
            _ => None,
        }
    }

    /// Inserts a value under `id`, returning the previous value written
    /// under the *same* generation if any.
    pub fn insert(&mut self, id: Idx<T>, value: V) -> Option<V> {
        let i = id.slot() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if let Some((key, _)) = &self.slots[i] {
            debug_assert!(
                *key == id,
                "sock table insert over another generation's entry: \
                 stored gen {}, inserting gen {} — a connection \
                 was recycled without releasing this state",
                key.generation(),
                id.generation()
            );
        }
        let old = self.slots[i].replace((id, value));
        match old {
            Some((key, v)) if key == id => Some(v),
            Some(_) => None,
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the entry under `id`, if its generation is
    /// still the one stored.
    pub fn remove(&mut self, id: Idx<T>) -> Option<V> {
        match self.slots.get_mut(id.slot() as usize) {
            Some(slot @ Some(_)) => {
                if slot.as_ref().map(|(key, _)| *key) == Some(id) {
                    self.len -= 1;
                    slot.take().map(|(_, v)| v)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Iterates live entries in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx<T>, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(key, v)| (*key, v)))
    }

    /// Iterates live keys in ascending slot order.
    pub fn keys(&self) -> impl Iterator<Item = Idx<T>> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(key, _)| *key))
    }

    /// Returns `true` if `id` currently maps to a value.
    pub fn contains_key(&self, id: Idx<T>) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns state left in `id`'s slot by an *older*
    /// generation, along with the id that wrote it.
    ///
    /// This is the sanctioned teardown for state orphaned by a
    /// connection that died without the owner noticing (e.g. a
    /// fault-injected reset while the socket was parked in a wait set):
    /// when the arena recycles the slot, the owner reclaims the
    /// leftovers *before* inserting the new generation's state, keeping
    /// the insert-time use-after-free assert meaningful.
    pub fn remove_stale(&mut self, id: Idx<T>) -> Option<(Idx<T>, V)> {
        match self.slots.get_mut(id.slot() as usize) {
            Some(slot @ Some(_)) => {
                let stored = slot.as_ref().map(|(key, _)| *key).expect("checked Some");
                if stored != id {
                    debug_assert!(
                        stored.generation() < id.generation(),
                        "sock slot holds a future generation: stored gen {}, \
                         reclaiming under gen {}",
                        stored.generation(),
                        id.generation()
                    );
                    self.len -= 1;
                    slot.take()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Returns the entry under `id`, inserting `default` first if absent.
    pub fn or_insert(&mut self, id: Idx<T>, default: V) -> &mut V {
        if self.get(id).is_none() {
            self.insert(id, default);
        }
        self.get_mut(id).expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    #[test]
    fn id_hash_map_tells_generations_of_one_slot_apart() {
        let mut arena: Arena<u8> = Arena::new();
        let old = arena.insert(1);
        arena.remove(old);
        let new = arena.insert(2);
        assert_eq!(old.slot(), new.slot());
        let mut m: IdHashMap<Idx<u8>, &str> = IdHashMap::default();
        m.insert(old, "dead");
        m.insert(new, "live");
        assert_eq!(m.len(), 2);
        assert_eq!(m[&old], "dead");
        assert_eq!(m.remove(&new), Some("live"));
        assert_eq!(m.get(&new), None);
    }
}

//! Entity identifiers and a small generic arena.
//!
//! Every [`crate::Function`] owns two arenas: one for basic blocks and one for
//! instructions. Entities are referenced by lightweight copyable ids
//! ([`BlockId`], [`InstId`]) so that the CFG can be freely mutated while other
//! data structures (alignments, mappings between input and merged functions)
//! hold stable references.

use std::fmt;

/// Trait implemented by all entity id types so they can index an [`Arena`].
pub trait EntityId: Copy + Eq + std::hash::Hash + fmt::Debug {
    /// Builds an id from a raw index.
    fn from_index(index: usize) -> Self;
    /// Returns the raw index of the id.
    fn index(self) -> usize;
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl EntityId for $name {
            fn from_index(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "entity index overflow");
                $name(index as u32)
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $name {
            /// Returns the raw numeric value of the id.
            pub fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a basic block within a [`crate::Function`].
    BlockId,
    "bb"
);
id_type!(
    /// Identifier of an instruction within a [`crate::Function`].
    InstId,
    "i"
);

/// A generation-free arena with tombstone removal.
///
/// Slots are never reused, which keeps ids stable for the lifetime of the
/// function and makes debugging merged-function provenance straightforward.
#[derive(Clone, Debug, Default)]
pub struct Arena<I, T> {
    slots: Vec<Option<T>>,
    live: usize,
    _marker: std::marker::PhantomData<I>,
}

impl<I: EntityId, T> Arena<I, T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            live: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Inserts a value and returns its id.
    pub fn alloc(&mut self, value: T) -> I {
        let id = I::from_index(self.slots.len());
        self.slots.push(Some(value));
        self.live += 1;
        id
    }

    /// Returns a reference to the value, if it is still live.
    pub fn get(&self, id: I) -> Option<&T> {
        self.slots.get(id.index()).and_then(|slot| slot.as_ref())
    }

    /// Returns a mutable reference to the value, if it is still live.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots
            .get_mut(id.index())
            .and_then(|slot| slot.as_mut())
    }

    /// Removes and returns the value stored under `id`.
    pub fn remove(&mut self, id: I) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        let taken = slot.take();
        if taken.is_some() {
            self.live -= 1;
        }
        taken
    }

    /// Returns `true` if `id` refers to a live entity.
    pub fn contains(&self, id: I) -> bool {
        self.get(id).is_some()
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when the arena holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(id, &value)` pairs of live entities in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (I::from_index(i), v)))
    }

    /// Iterates mutably over the live entities in allocation order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Iterates over the ids of live entities in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| I::from_index(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_remove_roundtrip() {
        let mut arena: Arena<InstId, &'static str> = Arena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&"a"));
        assert_eq!(arena.get(b), Some(&"b"));
        assert_eq!(arena.remove(a), Some("a"));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.len(), 1);
        assert!(!arena.contains(a));
        assert!(arena.contains(b));
    }

    #[test]
    fn ids_are_stable_after_removal() {
        let mut arena: Arena<BlockId, u32> = Arena::new();
        let ids: Vec<_> = (0..10).map(|i| arena.alloc(i)).collect();
        arena.remove(ids[3]);
        arena.remove(ids[7]);
        let live: Vec<_> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        // New allocations never reuse a tombstoned index.
        let fresh = arena.alloc(99);
        assert_eq!(fresh.index(), 10);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(format!("{}", BlockId::from_index(4)), "bb4");
        assert_eq!(format!("{}", InstId::from_index(2)), "i2");
    }
}

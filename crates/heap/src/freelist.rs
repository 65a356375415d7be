//! Object free lists with pluggable ordering policy.
//!
//! The paper's conclusion argues that a conservative collector gains a space
//! advantage over typical `malloc` implementations because "it is usually
//! much less expensive to keep free lists sorted by address", improving
//! locality of reallocation and the chance of coalescing. Both policies are
//! implemented so the fragmentation experiment (EXPERIMENTS.md, C1) can
//! compare them.

use crate::{Block, BlockId};
use gc_vmspace::Addr;
use std::collections::BTreeSet;
use std::fmt;

/// Ordering policy for object free lists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FreeListPolicy {
    /// Pop the lowest-addressed free slot first (the paper's recommended
    /// policy for reduced fragmentation).
    #[default]
    AddressOrdered,
    /// Pop the most recently freed slot first (typical `malloc` behaviour).
    Lifo,
}

impl fmt::Display for FreeListPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeListPolicy::AddressOrdered => f.write_str("address-ordered"),
            FreeListPolicy::Lifo => f.write_str("LIFO"),
        }
    }
}

/// The free list of *recycled* slots for one (size class, kind) pair: the
/// clear allocation bits below each swept block's bump cursor. (A block's
/// never-used tail, at and past the cursor, is served by the heap's bump
/// cursor instead.)
#[derive(Clone, Debug)]
pub(crate) enum FreeList {
    /// The blocks holding at least one recycled slot, in address order.
    AddressOrdered(BlockSet),
    /// Recycled slots, most recently freed last.
    Lifo(Vec<(BlockId, u32)>),
}

/// An address-ordered set of blocks with recycled slots. The next slot is
/// the lowest clear allocation bit of the lowest block, so slots come out
/// in global address order without one entry per slot. The lowest block
/// is held out of the set with a lower bound on its free slots, so
/// consecutive pops from one block neither search the set nor rescan the
/// block's full words.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockSet {
    /// The lowest block and the first slot of it that may be free. `None`
    /// exactly when `rest` is empty too.
    head: Option<(Addr, BlockId, u32)>,
    rest: BTreeSet<(Addr, BlockId)>,
}

impl BlockSet {
    /// Lists `block`, whose slots from `from` on may be free.
    fn insert(&mut self, block: &Block, from: u32) {
        let (base, id) = (block.base, block.id);
        match &mut self.head {
            Some((_, head, hint)) if *head == id => *hint = (*hint).min(from),
            Some((head_base, ..)) if *head_base < base => {
                self.rest.insert((base, id));
            }
            head => {
                if let Some((b, i, _)) = head.replace((base, id, from)) {
                    self.rest.insert((b, i));
                }
            }
        }
    }

    /// Promotes the next-lowest block to the head.
    fn advance(&mut self) {
        self.head = self.rest.pop_first().map(|(base, id)| (base, id, 0));
    }
}

impl FreeList {
    /// Creates an empty free list with the given policy.
    pub(crate) fn new(policy: FreeListPolicy) -> Self {
        match policy {
            FreeListPolicy::AddressOrdered => FreeList::AddressOrdered(BlockSet::default()),
            FreeListPolicy::Lifo => FreeList::Lifo(Vec::new()),
        }
    }

    /// Adds every recycled slot of `block`, in ascending order.
    pub(crate) fn add_block(&mut self, block: &Block) {
        match self {
            FreeList::AddressOrdered(set) => {
                if block.allocated.next_zero(0, block.bump).is_some() {
                    set.insert(block, 0);
                }
            }
            FreeList::Lifo(v) => v.extend(
                block
                    .allocated
                    .iter_zeros()
                    .take_while(|&slot| slot < block.bump)
                    .map(|slot| (block.id, slot)),
            ),
        }
    }

    /// Adds slot `slot` of `block`, just freed.
    pub(crate) fn add_slot(&mut self, block: &Block, slot: u32) {
        match self {
            FreeList::AddressOrdered(set) => set.insert(block, slot),
            FreeList::Lifo(v) => v.push((block.id, slot)),
        }
    }

    /// The slot the next [`take`](Self::take) would remove, without
    /// removing it: the heap merges it with its bump cursor, so keeping
    /// recycled slots apart from never-used tails preserves the policy's
    /// global allocation order. Returns `(address, block, slot)`.
    pub(crate) fn peek(&self, blocks: &[Option<Block>]) -> Option<(Addr, BlockId, u32)> {
        let live = |id: BlockId| {
            blocks[id.0 as usize]
                .as_ref()
                .expect("listed block is live")
        };
        let (id, slot) = match self {
            FreeList::AddressOrdered(set) => {
                let (_, id, hint) = set.head?;
                let b = live(id);
                let slot = b
                    .allocated
                    .next_zero(hint, b.bump)
                    .expect("listed block has a recycled slot");
                (id, slot)
            }
            FreeList::Lifo(v) => *v.last()?,
        };
        Some((live(id).slot_base(slot), id, slot))
    }

    /// Removes the slot [`peek`](Self::peek) returned; `block` is its
    /// block, with the slot not yet marked allocated.
    pub(crate) fn take(&mut self, block: &Block, slot: u32) {
        match self {
            FreeList::AddressOrdered(set) => {
                match block.allocated.next_zero(slot + 1, block.bump) {
                    Some(next) => {
                        if let Some((.., hint)) = &mut set.head {
                            *hint = next;
                        }
                    }
                    None => set.advance(),
                }
            }
            FreeList::Lifo(v) => {
                v.pop();
            }
        }
    }

    /// Drops every slot of a released block.
    pub(crate) fn remove_block(&mut self, block: &Block) {
        match self {
            FreeList::AddressOrdered(set) => {
                if set.head.is_some_and(|(_, id, _)| id == block.id) {
                    set.advance();
                } else {
                    set.rest.remove(&(block.base, block.id));
                }
            }
            FreeList::Lifo(v) => v.retain(|&(id, _)| id != block.id),
        }
    }

    /// Returns `true` if there are no free slots.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            FreeList::AddressOrdered(set) => set.head.is_none(),
            FreeList::Lifo(v) => v.is_empty(),
        }
    }

    /// Removes all slots.
    pub(crate) fn clear(&mut self) {
        match self {
            FreeList::AddressOrdered(set) => *set = BlockSet::default(),
            FreeList::Lifo(v) => v.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectKind, SizeClass};

    /// Two blocks of the 8-byte class; the one at the lower address has
    /// the higher id, so address order and id order disagree.
    fn blocks() -> Vec<Option<Block>> {
        let class = SizeClass::for_bytes(8).unwrap();
        let mut v = Vec::new();
        for (id, base) in [(0, 0x2000), (1, 0x1000)] {
            let mut b =
                Block::new_small(BlockId(id), Addr::new(base), class, ObjectKind::Composite);
            b.bump = 4;
            for slot in 0..4 {
                b.allocated.set(slot);
            }
            v.push(Some(b));
        }
        v
    }

    fn free(blocks: &mut [Option<Block>], fl: &mut FreeList, id: u32, slot: u32) {
        let b = blocks[id as usize].as_mut().unwrap();
        b.allocated.clear(slot);
        fl.add_slot(b, slot);
    }

    /// Pops every slot, allocating each as the heap would.
    fn drain(blocks: &mut [Option<Block>], fl: &mut FreeList) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        while let Some((_, id, slot)) = fl.peek(blocks) {
            let b = blocks[id.0 as usize].as_mut().unwrap();
            fl.take(b, slot);
            b.allocated.set(slot);
            out.push((id.0, slot));
        }
        out
    }

    #[test]
    fn address_ordered_pops_lowest_address_first() {
        let mut blocks = blocks();
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        free(&mut blocks, &mut fl, 0, 1);
        free(&mut blocks, &mut fl, 1, 3);
        free(&mut blocks, &mut fl, 1, 0);
        assert_eq!(drain(&mut blocks, &mut fl), vec![(1, 0), (1, 3), (0, 1)]);
        assert!(fl.is_empty());
    }

    #[test]
    fn lifo_pops_most_recent_first() {
        let mut blocks = blocks();
        let mut fl = FreeList::new(FreeListPolicy::Lifo);
        free(&mut blocks, &mut fl, 0, 1);
        free(&mut blocks, &mut fl, 1, 3);
        free(&mut blocks, &mut fl, 1, 0);
        free(&mut blocks, &mut fl, 0, 2);
        assert_eq!(
            drain(&mut blocks, &mut fl),
            vec![(0, 2), (1, 0), (1, 3), (0, 1)]
        );
    }

    #[test]
    fn add_block_takes_only_slots_below_the_bump_cursor() {
        for policy in [FreeListPolicy::AddressOrdered, FreeListPolicy::Lifo] {
            let mut blocks = blocks();
            let b = blocks[0].as_mut().unwrap();
            b.allocated.clear(2);
            let mut fl = FreeList::new(policy);
            fl.add_block(b);
            assert_eq!(drain(&mut blocks, &mut fl), vec![(0, 2)], "{policy}");
            let full = blocks[1].as_ref().unwrap();
            fl.add_block(full);
            assert!(fl.is_empty(), "{policy}: a full block adds nothing");
        }
    }

    #[test]
    fn remove_block_and_clear() {
        for policy in [FreeListPolicy::AddressOrdered, FreeListPolicy::Lifo] {
            let mut blocks = blocks();
            let mut fl = FreeList::new(policy);
            free(&mut blocks, &mut fl, 0, 1);
            free(&mut blocks, &mut fl, 1, 2);
            fl.remove_block(blocks[1].as_ref().unwrap());
            let next = fl.peek(&blocks);
            assert_eq!(next, Some((Addr::new(0x2008), BlockId(0), 1)), "{policy}");
            fl.clear();
            assert!(fl.is_empty(), "{policy}");
        }
    }
}

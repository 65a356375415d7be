//! Heap blocks and object references.
//!
//! A *block* is a run of whole pages dedicated either to small objects of a
//! single size class and kind, or to one large object. Block metadata
//! (headers, mark bits, allocation bits) is kept out-of-band in Rust data —
//! the analogue of bdwgc's separate header map — so the simulated heap bytes
//! are exactly what the mutator wrote.

use crate::sweep::{sweep_block, BlockSweep};
use crate::{AtomicBitmap, Bitmap, SizeClass, GRANULE_BYTES};
use gc_vmspace::{Addr, PAGE_BYTES};
use std::fmt;

/// Identifier of a live [`Block`]. Ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Raw index of this block id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Whether objects in a block may contain pointers.
///
/// The paper stresses that the allocator must let clients state that an
/// object contains no pointers ("compressed bitmaps introduce false pointers
/// with excessively high probability", §2), and that *blacklisted pages may
/// still serve small pointer-free objects* (§3, observation 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ObjectKind {
    /// May contain pointers anywhere; scanned conservatively word by word.
    #[default]
    Composite,
    /// Guaranteed pointer-free (the `GC_malloc_atomic` analogue); never
    /// scanned.
    Atomic,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Composite => f.write_str("composite"),
            ObjectKind::Atomic => f.write_str("atomic"),
        }
    }
}

/// The shape of a block: many small slots or one large object.
#[derive(Clone, Debug)]
pub enum BlockShape {
    /// One page holding `class.objects_per_page()` slots of one size class.
    Small {
        /// The size class of every slot in the block.
        class: SizeClass,
    },
    /// `npages` contiguous pages holding a single object.
    Large {
        /// Exact object size in bytes (granule-rounded, ≤ npages·4096).
        obj_bytes: u32,
    },
}

/// A live heap block.
///
/// Cache-line aligned and kept within 128 bytes, so each block occupies
/// exactly two cache lines: the mark phase looks a block up for every
/// candidate pointer, and a block straddling a third line measurably
/// slows it.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub struct Block {
    pub(crate) id: BlockId,
    pub(crate) base: Addr,
    pub(crate) shape: BlockShape,
    pub(crate) kind: ObjectKind,
    pub(crate) allocated: Bitmap,
    /// Mark bits. Atomic so parallel mark workers can test-and-set through
    /// `&Heap`; all serial paths use the `&mut` accessors, which compile to
    /// plain loads and stores.
    pub(crate) marked: AtomicBitmap,
    /// Generation bits for the sticky-mark-bit generational mode (one per
    /// slot): objects that survived a collection are *old*; minor
    /// collections treat them as immortal roots and sweep only the young.
    pub(crate) old: Bitmap,
    /// Set between a lazy-sweep snapshot and this block's deferred sweep:
    /// the allocation/old bits still describe the pre-collection heap, and
    /// the mark bits of that collection decide each slot's fate. While
    /// pending, per-slot liveness is `allocated && survives-the-snapshot`.
    pub(crate) pending: bool,
    /// Bump cursor: slots at indices `>= bump` have never been allocated
    /// since the block was created (the never-used tail). Equal to
    /// [`slots()`](Self::slots) once the tail is exhausted — or immediately,
    /// for blocks allocated without a cursor (LIFO policy, the old-style
    /// prepopulated path, and large blocks once their single slot is taken).
    pub(crate) bump: u32,
    /// The block was carved from pages never written since the address
    /// space mapped (and zeroed) them, so never-used slots are still
    /// all-zero and allocation may skip the explicit fill.
    pub(crate) zeroed: bool,
    /// The descriptors of the block's typed objects. `None` until the
    /// block's first typed allocation, so untyped blocks carry no table
    /// and their sweeps do no descriptor work. Boxed, so untyped blocks
    /// pay one word for it.
    pub(crate) typed: Option<Box<DescriptorTable>>,
}

/// A block's per-slot descriptor table: one bit per slot says whether the
/// slot holds a typed object, and `ids` holds its descriptor id (stale
/// where the bit is clear). A sweep drops entries a word at a time by
/// clearing bits with its freed mask.
#[derive(Clone, Debug)]
pub(crate) struct DescriptorTable {
    typed: Bitmap,
    ids: Box<[u32]>,
}

impl Block {
    pub(crate) fn new_small(id: BlockId, base: Addr, class: SizeClass, kind: ObjectKind) -> Self {
        let n = class.objects_per_page();
        Block {
            id,
            base,
            shape: BlockShape::Small { class },
            kind,
            allocated: Bitmap::new(n),
            marked: AtomicBitmap::new(n),
            old: Bitmap::new(n),
            pending: false,
            bump: 0,
            zeroed: false,
            typed: None,
        }
    }

    pub(crate) fn new_large(id: BlockId, base: Addr, bytes: u32, kind: ObjectKind) -> Self {
        let obj_bytes = bytes.div_ceil(GRANULE_BYTES) * GRANULE_BYTES;
        Block {
            id,
            base,
            shape: BlockShape::Large { obj_bytes },
            kind,
            allocated: Bitmap::new(1),
            marked: AtomicBitmap::new(1),
            old: Bitmap::new(1),
            pending: false,
            bump: 0,
            zeroed: false,
            typed: None,
        }
    }

    /// The block's identifier.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Lowest address of the block.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of pages the block spans.
    pub fn npages(&self) -> u32 {
        match self.shape {
            BlockShape::Small { .. } => 1,
            BlockShape::Large { obj_bytes } => obj_bytes.div_ceil(PAGE_BYTES),
        }
    }

    /// Whether the block's objects may contain pointers.
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// The block's shape.
    pub fn shape(&self) -> &BlockShape {
        &self.shape
    }

    /// Object size in bytes for every slot of this block.
    pub fn obj_bytes(&self) -> u32 {
        match self.shape {
            BlockShape::Small { class } => class.bytes(),
            BlockShape::Large { obj_bytes } => obj_bytes,
        }
    }

    /// Number of object slots in the block.
    pub fn slots(&self) -> u32 {
        match self.shape {
            BlockShape::Small { class } => class.objects_per_page(),
            BlockShape::Large { .. } => 1,
        }
    }

    /// Number of live (allocated) objects in the block.
    pub fn live_objects(&self) -> u32 {
        self.allocated.count_ones()
    }

    /// Base address of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= slots()`.
    pub fn slot_base(&self, index: u32) -> Addr {
        assert!(index < self.slots(), "slot index out of range");
        self.base + index * self.obj_bytes()
    }

    /// Maps an address to the slot whose extent contains it, if any.
    ///
    /// Returns `None` for addresses in the block's trailing waste (the
    /// unused remainder when the object size does not divide the page) or
    /// past a large object's granule-rounded end.
    pub fn slot_containing(&self, addr: Addr) -> Option<u32> {
        if addr < self.base {
            return None;
        }
        let off = addr - self.base;
        match self.shape {
            BlockShape::Small { class } => {
                let idx = off / class.bytes();
                (idx < class.objects_per_page()).then_some(idx)
            }
            BlockShape::Large { obj_bytes } => (off < obj_bytes).then_some(0),
        }
    }

    /// Sweeps the block in place with [`sweep_block`], dropping the freed
    /// slots' descriptor entries.
    pub(crate) fn sweep(&mut self, minor: bool) -> BlockSweep {
        let Block {
            allocated,
            marked,
            old,
            typed,
            ..
        } = self;
        sweep_block(allocated, marked, old, minor, |word, freed| {
            if let Some(table) = typed {
                table.typed.words_mut()[word] &= !freed;
            }
        })
    }

    /// Records slot `index`'s descriptor id, creating the block's table
    /// on its first typed allocation.
    pub(crate) fn set_descriptor(&mut self, index: u32, id: u32) {
        let slots = self.slots();
        let table = self.typed.get_or_insert_with(|| {
            Box::new(DescriptorTable {
                typed: Bitmap::new(slots),
                ids: vec![0; slots as usize].into_boxed_slice(),
            })
        });
        table.typed.set(index);
        table.ids[index as usize] = id;
    }

    /// Drops slot `index`'s descriptor entry, if the block has a table.
    pub(crate) fn clear_descriptor(&mut self, index: u32) {
        if let Some(table) = &mut self.typed {
            table.typed.clear(index);
        }
    }

    /// Slot `index`'s descriptor id, if it holds a typed object.
    #[inline]
    pub(crate) fn descriptor(&self, index: u32) -> Option<u32> {
        let table = self.typed.as_ref()?;
        table.typed.get(index).then(|| table.ids[index as usize])
    }

    /// Is slot `index` currently allocated?
    pub fn is_allocated(&self, index: u32) -> bool {
        self.allocated.get(index)
    }

    /// Is slot `index` marked?
    pub fn is_marked(&self, index: u32) -> bool {
        self.marked.get(index)
    }

    /// Is slot `index` in the old generation?
    pub fn is_old(&self, index: u32) -> bool {
        self.old.get(index)
    }

    /// Returns `true` if the block contains no live objects.
    pub fn is_unused(&self) -> bool {
        self.allocated.count_ones() == 0
    }

    /// First never-used slot index: slots `>= bump_cursor()` have never
    /// been allocated since the block was created. `slots()` when the
    /// block has no never-used tail.
    pub fn bump_cursor(&self) -> u32 {
        self.bump
    }

    /// Is the block awaiting a deferred (lazy) sweep?
    ///
    /// A pending block's allocation bits still include the objects the last
    /// collection condemned; use [`Heap::live_objects_in`] rather than
    /// [`live_objects`](Self::live_objects) to count survivors exactly.
    ///
    /// [`Heap::live_objects_in`]: crate::Heap::live_objects_in
    pub fn is_pending_sweep(&self) -> bool {
        self.pending
    }
}

/// A resolved reference to a live heap object.
///
/// Produced by [`Heap::object_containing`](crate::Heap::object_containing);
/// carries everything the collector's mark phase needs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef {
    /// Block holding the object.
    pub block: BlockId,
    /// Slot index within the block.
    pub index: u32,
    /// Base address of the object.
    pub base: Addr,
    /// Object size in bytes.
    pub bytes: u32,
    /// Whether the object may contain pointers.
    pub kind: ObjectKind,
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj {}+{}B in {}", self.base, self.bytes, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_block_slot_math() {
        let class = SizeClass::for_bytes(12).unwrap();
        let b = Block::new_small(BlockId(0), Addr::new(0x10000), class, ObjectKind::Composite);
        assert_eq!(b.slots(), 341);
        assert_eq!(b.slot_base(0), Addr::new(0x10000));
        assert_eq!(b.slot_base(2), Addr::new(0x10018));
        assert_eq!(b.slot_containing(Addr::new(0x10000)), Some(0));
        assert_eq!(b.slot_containing(Addr::new(0x10017)), Some(1));
        // Trailing waste: 341 * 12 = 4092, bytes 4092..4096 belong to no slot.
        assert_eq!(b.slot_containing(Addr::new(0x10000 + 4092)), None);
        assert_eq!(b.slot_containing(Addr::new(0xffff)), None);
    }

    #[test]
    fn large_block_slot_math() {
        let b = Block::new_large(BlockId(1), Addr::new(0x20000), 10_000, ObjectKind::Atomic);
        assert_eq!(b.npages(), 3);
        assert_eq!(b.obj_bytes(), 10_000);
        assert_eq!(b.slots(), 1);
        assert_eq!(b.slot_containing(Addr::new(0x20000)), Some(0));
        assert_eq!(b.slot_containing(Addr::new(0x20000 + 9_999)), Some(0));
        // Granule-rounded end: past the object, inside the last page.
        assert_eq!(b.slot_containing(Addr::new(0x20000 + 10_000)), None);
    }

    #[test]
    fn large_block_rounds_to_granule() {
        let b = Block::new_large(BlockId(2), Addr::new(0x30000), 10, ObjectKind::Composite);
        assert_eq!(b.obj_bytes(), 12);
        assert_eq!(b.npages(), 1);
    }

    #[test]
    fn block_fits_two_cache_lines() {
        assert_eq!(std::mem::size_of::<Option<Block>>(), 128);
    }

    #[test]
    fn unused_tracking() {
        let class = SizeClass::for_bytes(8).unwrap();
        let mut b = Block::new_small(BlockId(0), Addr::new(0), class, ObjectKind::Composite);
        assert!(b.is_unused());
        b.allocated.set(5);
        assert!(!b.is_unused());
        assert_eq!(b.live_objects(), 1);
        assert!(b.is_allocated(5));
        assert!(!b.is_marked(5));
    }
}

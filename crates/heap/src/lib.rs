//! Page-level heap substrate for the conservative collector.
//!
//! This crate provides the allocator machinery underneath the collector of
//! Boehm's *Space Efficient Conservative Garbage Collection* (PLDI 1993):
//!
//! * **Blocks** ([`Block`]): page-granular regions dedicated either to small
//!   objects of one [`SizeClass`] and [`ObjectKind`], or to a single large
//!   object. Metadata lives out-of-band, like bdwgc's header map.
//! * **Object map** ([`Heap::object_containing`]): resolves *any* interior
//!   address to its object — the "valid object address" test of the paper's
//!   figure 2.
//! * **Placement predicates** ([`PagePredicate`]): every acquisition of a
//!   fresh page asks the caller whether the page is usable; the collector
//!   plugs its blacklist in here, so *allocation around blacklisted pages*
//!   (the paper's key technique) is a first-class operation.
//! * **Free lists** ([`FreeListPolicy`]) with address-ordered and LIFO
//!   policies, for the paper's fragmentation claim. The address-ordered
//!   list is block-granular: a set of blocks, each popping its lowest
//!   clear allocation bit.
//! * **Sweeping** ([`sweep_block`]): one kernel over 64-bit bitmap words,
//!   shared by the eager sweep, the lazy sweep and the lazy snapshot.
//! * **An explicit `malloc`/`free` baseline** ([`ExplicitHeap`]) sharing the
//!   same machinery, for the Zorn-style comparisons.
//!
//! # Example
//!
//! ```
//! use gc_heap::{accept_all, Heap, HeapConfig, ObjectKind};
//! use gc_vmspace::{AddressSpace, Endian};
//!
//! # fn main() -> Result<(), gc_heap::HeapError> {
//! let mut space = AddressSpace::new(Endian::Big);
//! let mut heap = Heap::new(HeapConfig::default());
//! let obj = heap.alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)?;
//! assert_eq!(heap.object_containing(obj + 4).expect("interior resolves").base, obj);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod block;
mod error;
mod explicit;
mod freelist;
mod heap;
mod sizeclass;
mod sweep;

pub use bitmap::{AtomicBitmap, Bitmap};
pub use block::{Block, BlockId, BlockShape, ObjRef, ObjectKind};
pub use error::HeapError;
pub use explicit::ExplicitHeap;
pub use freelist::FreeListPolicy;
pub use heap::{
    accept_all, Descriptor, DescriptorId, Heap, HeapConfig, HeapStats, LazySweepStats, MarkMode,
    PagePredicate, PageResolveCache, PageUse, SizeClassCensus, SweepStats,
};
pub use sizeclass::{SizeClass, GRANULE_BYTES, MAX_SMALL_BYTES};
pub use sweep::{sweep_block, BlockSweep};

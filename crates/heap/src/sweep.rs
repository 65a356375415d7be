//! The per-block sweep kernel, one 64-bit bitmap word at a time.
//!
//! Every sweep path — the eager sweep, the lazy sweep's deferred block
//! sweeps, and the lazy snapshot's survivor census — decides a slot's fate
//! with the same mask, [`keep_mask`]: a slot survives if it is allocated
//! and marked, or allocated and old during a minor sweep. Freed slots are
//! the allocated ones that do not survive; every survivor ends up old
//! (tenured, the sticky-mark-bit scheme). The stats come from popcounts,
//! so no slot is visited one at a time.

use crate::{AtomicBitmap, Bitmap, Block};

/// What one block's sweep decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BlockSweep {
    /// Slots that survived.
    pub live: u32,
    /// Slots reclaimed.
    pub freed: u32,
    /// Survivors that were young and are now old.
    pub promoted: u32,
}

/// The survivors among one word of slots.
#[inline]
fn keep_mask(allocated: u64, marked: u64, old: u64, minor: bool) -> u64 {
    allocated & (marked | if minor { old } else { 0 })
}

/// Sweeps one block's bitmaps in place: `allocated` becomes the survivors,
/// and `old` loses the freed slots and gains every survivor. `marked` is
/// left as it is. `on_freed(word, mask)` is called once per word that
/// freed any slot, with that word's freed mask, so side tables (the
/// block's descriptor table) can drop their entries.
///
/// Bits at or beyond the bitmaps' length stay zero: every result is a
/// subset of `allocated`, or of `old` with nothing added.
pub fn sweep_block(
    allocated: &mut Bitmap,
    marked: &AtomicBitmap,
    old: &mut Bitmap,
    minor: bool,
    mut on_freed: impl FnMut(usize, u64),
) -> BlockSweep {
    let mut out = BlockSweep::default();
    for (i, (alloc, old)) in allocated
        .words_mut()
        .iter_mut()
        .zip(old.words_mut())
        .enumerate()
    {
        let keep = keep_mask(*alloc, marked.word(i), *old, minor);
        let freed = *alloc & !keep;
        out.live += keep.count_ones();
        out.freed += freed.count_ones();
        out.promoted += (keep & !*old).count_ones();
        *alloc = keep;
        *old = (*old & !freed) | keep;
        if freed != 0 {
            on_freed(i, freed);
        }
    }
    out
}

/// The survivor census of one block against its current mark bits,
/// without changing anything: what [`sweep_block`] would decide. The lazy
/// snapshot runs it so every census stays exact while the sweep itself is
/// deferred to the allocator.
pub(crate) fn survivor_census(block: &Block, minor: bool) -> BlockSweep {
    let mut out = BlockSweep::default();
    for (i, (&alloc, &old)) in block
        .allocated
        .words()
        .iter()
        .zip(block.old.words())
        .enumerate()
    {
        let keep = keep_mask(alloc, block.marked.word(i), old, minor);
        out.live += keep.count_ones();
        out.freed += (alloc & !keep).count_ones();
        out.promoted += (keep & !old).count_ones();
    }
    out
}

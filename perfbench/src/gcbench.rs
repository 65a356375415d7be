//! `gcbench`: the classic GCBench shape on a clean machine, repeated until
//! the collector has run at least `min_collections` times.
//!
//! Each pass *replaces* the long-lived structures (a depth-16 tree and a
//! 4 MB pointer-free array) and then churns short-lived trees of depth
//! 4..16 in both construction orders; at the end of the pass the
//! long-lived tree is walked and the array's checksum re-read. The seed
//! chooses the tree's node tags and the array's contents. Collector time is
//! mark over a large pointer-dense live set plus eager sweep of small dead
//! nodes; root scan, blacklisting and finalization do almost nothing.

use crate::client::{Client, Pins};
use crate::Rng;
use gc_heap::ObjectKind;
use gc_platforms::Profile;
use gc_vmspace::Addr;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub long_lived_depth: u32,
    pub max_depth: u32,
    pub min_depth: u32,
    pub array_bytes: u32,
    pub min_collections: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            long_lived_depth: 16,
            max_depth: 16,
            min_depth: 4,
            array_bytes: 4 << 20,
            min_collections: 34,
        }
    }

    pub fn small() -> Size {
        Size {
            long_lived_depth: 10,
            max_depth: 10,
            min_depth: 4,
            array_bytes: 256 << 10,
            min_collections: 12,
        }
    }
}

pub fn profile() -> Profile {
    Profile::synthetic()
}

pub fn pins() -> Pins {
    Pins {
        mark_threads: 1,
        mark_threads_force: false,
        lazy_sweep: false,
        resolve_cache: true,
        bump_alloc: true,
        blacklisting: true,
        generational: false,
        full_gc_every: 8,
    }
}

const ARRAY_STRIDE: u32 = 16;

fn tree_size(depth: u32) -> u64 {
    (1u64 << (depth + 1)) - 1
}

/// A node tag: small enough never to look like a heap address.
fn tag(rng: &mut Rng) -> u32 {
    rng.next_u32() & 0xFFFF
}

/// Runs passes until `size.min_collections` collections have happened.
/// Returns the static roots the workload owns.
pub fn run(d: &mut Client<'_>, seed: u64, size: Size) -> Vec<Addr> {
    let long_root = d.alloc_static(1);
    let array_root = d.alloc_static(1);
    let scratch = d.alloc_static(1);
    let roots = [long_root, array_root, scratch];
    let mut pass = 0u64;
    while pass == 0 || d.collections() < size.min_collections {
        let pass_seed = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        run_pass(d, pass_seed, size, roots);
        pass += 1;
    }
    roots.to_vec()
}

fn run_pass(
    d: &mut Client<'_>,
    seed: u64,
    size: Size,
    [long_root, array_root, scratch]: [Addr; 3],
) {
    // Long-lived structures, replacing the previous pass's.
    d.begin_op("gcbench.long_lived", 0);
    let mut tags = Rng::new(seed);
    if let Some(tree) = tree_top_down(d, size.long_lived_depth, Some(&mut tags)) {
        d.store(long_root, tree.raw());
    }
    // Every 16th word is written and read back, as GCBench fills only
    // part of its array.
    let words = size.array_bytes / 4 / ARRAY_STRIDE;
    let mut fill = Rng::new(!seed);
    let mut checksum = 0u32;
    if let Some(array) = d.alloc(size.array_bytes, ObjectKind::Atomic) {
        d.store(array_root, array.raw());
        for k in 0..words {
            let v = fill.next_u32();
            checksum = checksum.wrapping_add(v);
            d.store(array + k * 4 * ARRAY_STRIDE, v);
        }
    }
    d.end_op();

    // Short-lived churn at increasing depths, both construction orders.
    let mut id = 1u64;
    let mut depth = size.min_depth;
    while depth <= size.max_depth {
        let iterations = (tree_size(size.max_depth) / tree_size(depth)).clamp(1, 64) as u32;
        for i in 0..iterations {
            d.begin_op("gcbench.tree", id);
            let tree = if i % 2 == 0 {
                tree_top_down(d, depth, None)
            } else {
                tree_bottom_up(d, depth)
            };
            // Held for a moment, then dropped.
            d.store(scratch, tree.map_or(0, Addr::raw));
            d.store(scratch, 0);
            d.end_op();
            id += 1;
        }
        depth += 2;
    }

    // The long-lived structures must have survived the churn intact.
    d.begin_op("gcbench.check", id);
    let mut tags = Rng::new(seed);
    let tree = Addr::new(d.load(long_root));
    let ok = walk_preorder(d, tree, &mut tags) == Some(tree_size(size.long_lived_depth));
    d.check(ok);
    let array = Addr::new(d.load(array_root));
    let mut sum = 0u32;
    if array.raw() != 0 {
        for k in 0..words {
            sum = sum.wrapping_add(d.load(array + k * 4 * ARRAY_STRIDE));
        }
    }
    d.check(array.raw() != 0 && sum == checksum);
    d.end_op();
}

/// GCBench `Node`: `[left, right, tag, 0]`, 16 bytes.
fn new_node(d: &mut Client<'_>, left: u32, right: u32, tag: u32) -> Option<Addr> {
    let node = d.alloc(16, ObjectKind::Composite)?;
    d.store(node, left);
    d.store(node + 4, right);
    d.store(node + 8, tag);
    Some(node)
}

/// Classic `MakeTree`: the node first, then its subtrees (pre-order), with
/// the node held in a frame slot while they are built. Long-lived trees
/// take their tags from `tags`.
fn tree_top_down(d: &mut Client<'_>, depth: u32, mut tags: Option<&mut Rng>) -> Option<Addr> {
    d.call(2, |d| {
        let t = tags.as_deref_mut().map_or(0, tag);
        let node = new_node(d, 0, 0, t)?;
        d.set_local(0, node.raw());
        if depth > 0 {
            let left = tree_top_down(d, depth - 1, tags.as_deref_mut())?;
            d.store(node, left.raw());
            let right = tree_top_down(d, depth - 1, tags)?;
            d.store(node + 4, right.raw());
        }
        Some(node)
    })
}

/// Classic `Populate` order: both subtrees first, then the parent.
fn tree_bottom_up(d: &mut Client<'_>, depth: u32) -> Option<Addr> {
    d.call(2, |d| {
        if depth == 0 {
            return new_node(d, 0, 0, 0);
        }
        let left = tree_bottom_up(d, depth - 1)?;
        d.set_local(0, left.raw());
        let right = tree_bottom_up(d, depth - 1)?;
        d.set_local(1, right.raw());
        new_node(d, left.raw(), right.raw(), 0)
    })
}

/// Walks a tree in pre-order, checking each node's tag against `tags`.
/// Returns the node count, or `None` on the first mismatch.
fn walk_preorder(d: &mut Client<'_>, root: Addr, tags: &mut Rng) -> Option<u64> {
    let mut stack = vec![root];
    let mut count = 0u64;
    while let Some(node) = stack.pop() {
        if node.raw() == 0 || d.load(node + 8) != tag(tags) {
            return None;
        }
        count += 1;
        let (left, right) = (d.load(node), d.load(node + 4));
        match (left, right) {
            (0, 0) => {}
            (0, _) | (_, 0) => return None,
            _ => {
                stack.push(Addr::new(right));
                stack.push(Addr::new(left));
            }
        }
    }
    Some(count)
}

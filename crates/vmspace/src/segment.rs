//! Mapped segments of the simulated process image.

use crate::{Addr, PageIdx, PAGE_BYTES};
use std::fmt;

/// Identifier of a mapped [`Segment`], stable across later mappings and
/// unmappings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentId(pub(crate) u32);

impl SegmentId {
    /// Returns the raw index of this segment id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}

/// The role a segment plays in the simulated process image.
///
/// The kind determines the *default* root-scanning and writability behaviour
/// (overridable via [`SegmentSpec`]), and is used by the analysis crate to
/// classify the provenance of false references, mirroring the paper's
/// appendix-B breakdown (static data vs. stacks vs. registers vs. heap).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum SegmentKind {
    /// Program text. Not writable, not scanned.
    Text,
    /// Initialized static data; scanned conservatively as roots.
    Data,
    /// Zero-initialized static data; scanned conservatively as roots.
    Bss,
    /// A mutator thread stack; scanned conservatively as roots.
    Stack,
    /// The simulated register file (including register windows); scanned.
    Registers,
    /// Heap pages managed by the collector; scanned via the heap's own
    /// object map, never as raw roots.
    Heap,
    /// UNIX environment block and similar process droppings that pollute the
    /// scanned address space (observation 3 of the paper); scanned.
    Environ,
}

impl SegmentKind {
    /// Default root-scanning behaviour for this kind.
    pub fn default_root(self) -> bool {
        match self {
            SegmentKind::Data
            | SegmentKind::Bss
            | SegmentKind::Stack
            | SegmentKind::Registers
            | SegmentKind::Environ => true,
            SegmentKind::Text | SegmentKind::Heap => false,
        }
    }

    /// Default writability for this kind.
    pub fn default_writable(self) -> bool {
        !matches!(self, SegmentKind::Text)
    }
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SegmentKind::Text => "text",
            SegmentKind::Data => "data",
            SegmentKind::Bss => "bss",
            SegmentKind::Stack => "stack",
            SegmentKind::Registers => "registers",
            SegmentKind::Heap => "heap",
            SegmentKind::Environ => "environ",
        };
        f.write_str(s)
    }
}

/// A request to map a new segment, builder-style.
///
/// # Example
///
/// ```
/// use gc_vmspace::{SegmentSpec, SegmentKind, Addr};
/// let spec = SegmentSpec::new("libc junk", SegmentKind::Data, Addr::new(0x8000), 0x1000)
///     .root(true)
///     .writable(false);
/// assert_eq!(spec.len(), 0x1000);
/// ```
#[derive(Clone, Debug)]
pub struct SegmentSpec {
    pub(crate) name: String,
    pub(crate) kind: SegmentKind,
    pub(crate) base: Addr,
    pub(crate) len: u32,
    pub(crate) root: bool,
    pub(crate) writable: bool,
}

impl SegmentSpec {
    /// Creates a spec with the kind's default root/writability flags.
    pub fn new(name: impl Into<String>, kind: SegmentKind, base: Addr, len: u32) -> Self {
        SegmentSpec {
            name: name.into(),
            kind,
            base,
            len,
            root: kind.default_root(),
            writable: kind.default_writable(),
        }
    }

    /// Overrides whether the segment is scanned as a GC root.
    pub fn root(mut self, root: bool) -> Self {
        self.root = root;
        self
    }

    /// Overrides whether the segment is writable.
    pub fn writable(mut self, writable: bool) -> Self {
        self.writable = writable;
        self
    }

    /// Length of the requested mapping in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Returns `true` if the requested mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A contiguous mapped region of the simulated address space.
///
/// Segment memory is zero-initialized, like fresh pages from a real kernel.
#[derive(Clone, Debug)]
pub struct Segment {
    pub(crate) id: SegmentId,
    pub(crate) name: String,
    pub(crate) kind: SegmentKind,
    pub(crate) base: Addr,
    pub(crate) data: Vec<u8>,
    pub(crate) root: bool,
    pub(crate) writable: bool,
    pub(crate) root_window: Option<(Addr, Addr)>,
}

impl Segment {
    /// The segment's stable identifier.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Human-readable name given at mapping time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segment's kind.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// Lowest address of the segment.
    #[inline]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// Returns `true` if the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One past the highest address of the segment, as a 64-bit value so a
    /// segment may end exactly at the 4 GiB boundary.
    #[inline]
    pub fn end(&self) -> u64 {
        u64::from(self.base.raw()) + self.data.len() as u64
    }

    /// Returns `true` if `addr` lies within the segment.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && u64::from(addr.raw()) < self.end()
    }

    /// Returns `true` if the segment is scanned conservatively as a GC root.
    pub fn is_root(&self) -> bool {
        self.root
    }

    /// The explicit root-scanning window, if one is set.
    ///
    /// Stacks are scanned only between the current stack pointer and the
    /// stack top: dead area below `sp` is invisible to a real collector
    /// until the stack grows over it again (§3.1 of the paper). The mutator
    /// maintains this window via
    /// [`AddressSpace::set_root_window`](crate::AddressSpace::set_root_window).
    pub fn root_window(&self) -> Option<(Addr, Addr)> {
        self.root_window
    }

    /// The effective root-scan range: the root window clamped to the
    /// segment extent, as `(start, end)` with a 64-bit exclusive end.
    pub fn scan_range(&self) -> (Addr, u64) {
        match self.root_window {
            None => (self.base, self.end()),
            Some((lo, hi)) => {
                let lo = lo.max(self.base);
                let hi = u64::from(hi.raw()).min(self.end());
                (lo, hi.max(u64::from(lo.raw())))
            }
        }
    }

    /// Returns `true` if the segment may be written.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Read-only view of the raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Iterator over the pages the segment covers (including partial pages).
    pub fn pages(&self) -> impl Iterator<Item = PageIdx> + '_ {
        let first = self.base.page().raw();
        let last = ((self.end() - 1) / u64::from(PAGE_BYTES)) as u32;
        (first..=last).map(PageIdx::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(base: u32, len: usize) -> Segment {
        Segment {
            id: SegmentId(0),
            name: "t".into(),
            kind: SegmentKind::Data,
            base: Addr::new(base),
            data: vec![0; len],
            root: true,
            writable: true,
            root_window: None,
        }
    }

    #[test]
    fn contains_bounds() {
        let s = seg(0x1000, 0x100);
        assert!(s.contains(Addr::new(0x1000)));
        assert!(s.contains(Addr::new(0x10ff)));
        assert!(!s.contains(Addr::new(0x1100)));
        assert!(!s.contains(Addr::new(0xfff)));
    }

    #[test]
    fn end_at_top_of_space() {
        let s = seg(u32::MAX - 0xfff, 0x1000);
        assert_eq!(s.end(), 1 << 32);
        assert!(s.contains(Addr::MAX));
    }

    #[test]
    fn pages_cover_partial_pages() {
        let s = seg(0x1800, 0x1000); // spans pages 1 and 2
        let pages: Vec<_> = s.pages().map(PageIdx::raw).collect();
        assert_eq!(pages, vec![1, 2]);
    }

    #[test]
    fn scan_range_honours_window() {
        let mut s = seg(0x1000, 0x1000);
        assert_eq!(s.scan_range(), (Addr::new(0x1000), 0x2000));
        s.root_window = Some((Addr::new(0x1800), Addr::new(0x1c00)));
        assert_eq!(s.scan_range(), (Addr::new(0x1800), 0x1c00));
        // Window clamped to the segment.
        s.root_window = Some((Addr::new(0x800), Addr::new(0x9000)));
        assert_eq!(s.scan_range(), (Addr::new(0x1000), 0x2000));
        // Empty window.
        s.root_window = Some((Addr::new(0x1900), Addr::new(0x1900)));
        assert_eq!(s.scan_range(), (Addr::new(0x1900), 0x1900));
        // Inverted window is treated as empty.
        s.root_window = Some((Addr::new(0x1c00), Addr::new(0x1800)));
        assert_eq!(s.scan_range(), (Addr::new(0x1c00), 0x1c00));
    }

    #[test]
    fn kind_defaults() {
        assert!(SegmentKind::Stack.default_root());
        assert!(!SegmentKind::Text.default_root());
        assert!(!SegmentKind::Heap.default_root());
        assert!(!SegmentKind::Text.default_writable());
        assert!(SegmentKind::Heap.default_writable());
    }

    #[test]
    fn spec_builder_overrides() {
        let spec = SegmentSpec::new("x", SegmentKind::Text, Addr::new(0), 8)
            .root(true)
            .writable(true);
        assert!(spec.root);
        assert!(spec.writable);
        assert!(!spec.is_empty());
    }
}

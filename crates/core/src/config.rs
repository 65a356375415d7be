//! Collector configuration.

use crate::error::GcError;
use crate::telemetry::SharedObserver;
use gc_heap::HeapConfig;
use std::fmt;

/// How candidate pointers into object interiors are treated.
///
/// The paper (§2, observation 7) distinguishes environments in which any
/// interior pointer must keep its object alive (required when array elements
/// are passed by reference, and for fully conforming C) from those in which
/// only object bases, or pointers into an object's first page, are honoured.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PointerPolicy {
    /// Any address inside an object's extent retains it — the paper's hard
    /// case, and the configuration under which Table 1 was measured.
    #[default]
    AllInterior,
    /// Only addresses within the *first page* of an object retain it
    /// (observation 7: "never a problem if addresses that do not point to
    /// the first page of an object can be considered invalid").
    FirstPage,
    /// Only exact object base addresses retain (a fully type-accurate heap
    /// would allow this; closest to Bartlett-style collectors).
    BaseOnly,
}

impl fmt::Display for PointerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PointerPolicy::AllInterior => "all-interior",
            PointerPolicy::FirstPage => "first-page",
            PointerPolicy::BaseOnly => "base-only",
        };
        f.write_str(s)
    }
}

/// Stride at which root and heap words are scanned for candidate pointers.
///
/// Machines that guarantee pointer alignment let the collector step by whole
/// words; without that guarantee "all possible alignments must be
/// considered, thus greatly increasing the number of false pointers" (§2 and
/// figure 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ScanAlignment {
    /// Word-aligned candidates only (modern compilers; the common case).
    #[default]
    Word,
    /// Halfword-aligned candidates (figure 1's integer-concatenation case).
    HalfWord,
    /// Every byte offset is a candidate (worst case).
    Byte,
}

impl ScanAlignment {
    /// The scanning stride in bytes.
    pub fn stride(self) -> u32 {
        match self {
            ScanAlignment::Word => 4,
            ScanAlignment::HalfWord => 2,
            ScanAlignment::Byte => 1,
        }
    }
}

impl fmt::Display for ScanAlignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScanAlignment::Word => "word",
            ScanAlignment::HalfWord => "halfword",
            ScanAlignment::Byte => "byte",
        };
        f.write_str(s)
    }
}

/// Storage backend for the page blacklist.
///
/// The paper: "The blacklist can be implemented as a bit array, indexed by
/// page numbers. If the heap is discontinuous … a hash table with one bit
/// per entry. If a false reference is seen to any of the pages with a given
/// hash address, all of them are effectively blacklisted. Since collisions
/// can easily be made rare, this does not result in much lost precision."
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BlacklistKind {
    /// Exact per-page entries with provenance and aging metadata.
    #[default]
    Exact,
    /// One-bit-per-entry hash table with `1 << bits` entries; collisions
    /// over-blacklist, never under-blacklist.
    Hashed {
        /// log₂ of the table size in bits.
        bits: u8,
    },
}

/// Ceiling on [`GcConfig::mark_threads`]: per-worker statistics are kept in
/// fixed-size (`Copy`) arrays inside [`CollectionStats`](crate::CollectionStats).
pub const MAX_MARK_THREADS: u32 = 16;

/// Full collector configuration.
///
/// The defaults correspond to the paper's evaluated collector: blacklisting
/// on, all interior pointers honoured, word-aligned scanning, a collection
/// at startup before any allocation, and atomic small objects permitted on
/// blacklisted pages.
#[derive(Clone, Debug)]
pub struct GcConfig {
    /// Heap substrate configuration (base address, limit, growth, policy).
    pub heap: HeapConfig,
    /// Interior-pointer treatment.
    pub pointer_policy: PointerPolicy,
    /// Whether the blacklist is maintained and consulted (Table 1 toggles
    /// this).
    pub blacklisting: bool,
    /// Blacklist storage backend.
    pub blacklist_kind: BlacklistKind,
    /// Number of collections an unconfirmed blacklist entry survives before
    /// aging out ("blacklisted values that are no longer found by a later
    /// collection may be removed").
    pub blacklist_ttl: u32,
    /// Root/heap scanning stride.
    pub scan_alignment: ScanAlignment,
    /// Run a (fast) collection at startup, before any allocation, so static
    /// data's false references are blacklisted before they can pin objects.
    pub initial_collect: bool,
    /// Collect when bytes allocated since the last collection exceed
    /// `mapped heap bytes / free_space_divisor` (bdwgc's
    /// `GC_free_space_divisor`).
    pub free_space_divisor: u32,
    /// Never auto-collect before this many bytes have been allocated since
    /// the previous collection.
    pub min_bytes_between_gcs: u64,
    /// Vicinity window beyond the current heap break, in pages: invalid
    /// candidates within the current heap range *or* this window "could
    /// conceivably become valid object addresses as a result of later
    /// allocation" and are blacklisted.
    pub growth_window_pages: u32,
    /// Allow small pointer-free objects on blacklisted pages (§3: allowed
    /// "because the objects are small and known not to contain pointers").
    pub allow_atomic_on_blacklist: bool,
    /// Record per-page provenance of blacklist entries and retention traces
    /// (diagnostics; small cost).
    pub track_sources: bool,
    /// Enable sticky-mark-bit generational collection (the PCR design the
    /// paper builds on, \[12\]): automatic collections are *minor* — they
    /// scan roots plus dirty old objects and sweep only the young
    /// generation — with a full collection every
    /// [`full_gc_every`](GcConfig::full_gc_every) cycles. Requires the
    /// mutator to report heap writes via
    /// [`Collector::record_write`](crate::Collector::record_write).
    pub generational: bool,
    /// With [`generational`](GcConfig::generational): run a full collection
    /// after this many consecutive minor collections.
    pub full_gc_every: u32,
    /// Enable incremental marking, in the style of the mostly-parallel
    /// collector the paper cites as \[8\] (Boehm–Demers–Shenker): a brief
    /// root scan starts the cycle, tracing proceeds in bounded increments
    /// interleaved with the mutator, and a short stop-the-world finish
    /// rescans roots and dirty pages. Both
    /// [`alloc`](crate::Collector::alloc) and
    /// [`alloc_typed`](crate::Collector::alloc_typed) step an in-progress
    /// cycle (or start one at the usual threshold) instead of collecting
    /// stop-the-world, and objects they allocate mid-cycle are allocated
    /// black. Requires the mutator to report heap writes via
    /// [`Collector::record_write`](crate::Collector::record_write).
    /// Mutually exclusive with [`generational`](GcConfig::generational).
    pub incremental: bool,
    /// Objects traced per increment in incremental mode.
    pub incremental_budget: u32,
    /// Mark-phase worker threads for stop-the-world (full and minor)
    /// collections. `1` (the default) is the existing serial marker;
    /// `2..=`[`MAX_MARK_THREADS`] runs a work-stealing parallel drain that
    /// is bit-identical to serial marking — same mark set, counters,
    /// blacklist contents and dump output. Values are clamped into
    /// `1..=MAX_MARK_THREADS`. Incremental tracing increments are always
    /// serial (they are budgeted mutator pauses, not a throughput phase).
    /// The default honours the `GC_MARK_THREADS` environment variable so a
    /// whole test run can be switched to parallel marking externally.
    pub mark_threads: u32,
    /// Defer sweeping to the allocation slow path: collections stop at a
    /// per-block sweep *snapshot* (exact survivor accounting, no free-list
    /// rebuilding), and [`Heap::alloc`](gc_heap::Heap::alloc) sweeps pending
    /// blocks of the requested size class — at most
    /// [`HeapConfig::sweep_budget`](gc_heap::HeapConfig::sweep_budget) blocks
    /// per slow path — until the request is satisfied. Reported collection
    /// pauses shrink by the deferred free-list work; liveness queries,
    /// censuses and retention are unchanged. Use
    /// [`Collector::finish_sweep`](crate::Collector::finish_sweep) before
    /// whole-heap analyses that must see final page accounting. The default
    /// honours the `GC_LAZY_SWEEP` environment variable (`1` enables) so a
    /// whole test run can be switched externally.
    pub lazy_sweep: bool,
    /// Consult a small direct-mapped page → block resolve cache
    /// ([`PageResolveCache`](gc_heap::PageResolveCache)) during candidate
    /// resolution in the mark phase (one cache in the serial marker,
    /// one per worker in a parallel drain). Bit-identical to the uncached
    /// path — same mark set, counters, blacklist contents — the cache only
    /// skips repeated page-map walks for same-page candidates; its
    /// hit/miss counts are surfaced in
    /// [`CollectionStats`](crate::CollectionStats) and the metrics
    /// snapshot. The default honours the `GC_RESOLVE_CACHE` environment
    /// variable (`0` disables) so a whole test run can be switched
    /// externally.
    pub resolve_cache: bool,
    /// Spawn exactly [`mark_threads`](GcConfig::mark_threads) workers even
    /// when that exceeds the machine's available cores. Normally the
    /// collector clamps the worker count to the cores present (an
    /// oversubscribed stop-world mark only adds context switches); tests
    /// force the full count so multi-worker racing is exercised on any
    /// host.
    pub mark_threads_force: bool,
    /// Telemetry sink receiving the collector's [`GcEvent`](crate::GcEvent)
    /// stream (collections, allocation slow paths, heap and blacklist
    /// growth, incremental pauses). `None` disables event delivery; wrap a
    /// sink with [`observer`](crate::observer) and keep a clone of the
    /// handle to inspect it afterwards.
    pub observer: Option<SharedObserver>,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            heap: HeapConfig::default(),
            pointer_policy: PointerPolicy::AllInterior,
            blacklisting: true,
            blacklist_kind: BlacklistKind::Exact,
            blacklist_ttl: 2,
            scan_alignment: ScanAlignment::Word,
            initial_collect: true,
            free_space_divisor: 4,
            min_bytes_between_gcs: 256 << 10,
            growth_window_pages: 8192,
            allow_atomic_on_blacklist: true,
            track_sources: true,
            generational: false,
            full_gc_every: 8,
            incremental: false,
            incremental_budget: 512,
            mark_threads: mark_threads_from_env(),
            lazy_sweep: lazy_sweep_from_env(),
            resolve_cache: resolve_cache_from_env(),
            mark_threads_force: false,
            observer: None,
        }
    }
}

/// The `GC_MARK_THREADS` default: lets CI run the whole suite with
/// parallel marking without touching any call site. Unset, empty or
/// unparsable values mean serial.
fn mark_threads_from_env() -> u32 {
    std::env::var("GC_MARK_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(1, |n| n.clamp(1, MAX_MARK_THREADS))
}

/// The `GC_LAZY_SWEEP` default: `1` turns lazy sweeping on for every
/// default-constructed config, so CI can run the whole suite in lazy mode.
/// Unset, empty or anything but `1` means eager.
fn lazy_sweep_from_env() -> bool {
    std::env::var("GC_LAZY_SWEEP").is_ok_and(|v| v.trim() == "1")
}

/// The `GC_RESOLVE_CACHE` default: `0` turns the mark-phase resolve cache
/// off for every default-constructed config, so CI can difference the
/// cached and uncached paths externally. Unset, empty or anything but `0`
/// means on (the cache is bit-identical, so on is the safe default).
fn resolve_cache_from_env() -> bool {
    !std::env::var("GC_RESOLVE_CACHE").is_ok_and(|v| v.trim() == "0")
}

impl GcConfig {
    /// The paper's "no blacklisting" baseline: identical except the
    /// blacklist is never maintained or consulted.
    pub fn without_blacklisting(mut self) -> Self {
        self.blacklisting = false;
        self
    }

    /// Starts a validated configuration, seeded from
    /// [`GcConfig::default()`].
    ///
    /// Struct-literal construction stays available for tests that want to
    /// build configurations directly; the builder is for call sites that
    /// want nonsense (zero worker counts, zero budgets, contradictory
    /// modes) rejected with a [`GcError::InvalidConfig`] instead of a
    /// runtime panic or a silent clamp.
    ///
    /// ```
    /// use gc_core::GcConfig;
    ///
    /// let config = GcConfig::builder()
    ///     .generational(true)
    ///     .lazy_sweep(true)
    ///     .sweep_budget(32)
    ///     .build()
    ///     .expect("valid configuration");
    /// assert!(config.generational && config.lazy_sweep);
    /// assert!(GcConfig::builder().mark_threads(0).build().is_err());
    /// ```
    pub fn builder() -> GcConfigBuilder {
        GcConfigBuilder {
            config: GcConfig::default(),
        }
    }
}

/// Builder for [`GcConfig`] with validation; see [`GcConfig::builder`].
#[derive(Clone, Debug)]
pub struct GcConfigBuilder {
    config: GcConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl GcConfigBuilder {
    builder_setters! {
        /// Sets the heap substrate configuration. See [`GcConfig::heap`].
        heap: HeapConfig,
        /// Sets the interior-pointer treatment. See
        /// [`GcConfig::pointer_policy`].
        pointer_policy: PointerPolicy,
        /// Enables or disables blacklisting. See [`GcConfig::blacklisting`].
        blacklisting: bool,
        /// Sets the blacklist backend. See [`GcConfig::blacklist_kind`].
        blacklist_kind: BlacklistKind,
        /// Sets blacklist entry aging. See [`GcConfig::blacklist_ttl`].
        blacklist_ttl: u32,
        /// Sets the scanning stride. See [`GcConfig::scan_alignment`].
        scan_alignment: ScanAlignment,
        /// Enables the startup collection. See [`GcConfig::initial_collect`].
        initial_collect: bool,
        /// Sets the collection trigger ratio. See
        /// [`GcConfig::free_space_divisor`].
        free_space_divisor: u32,
        /// Sets the auto-collect floor. See
        /// [`GcConfig::min_bytes_between_gcs`].
        min_bytes_between_gcs: u64,
        /// Sets the blacklist vicinity window. See
        /// [`GcConfig::growth_window_pages`].
        growth_window_pages: u32,
        /// Allows atomic objects on blacklisted pages. See
        /// [`GcConfig::allow_atomic_on_blacklist`].
        allow_atomic_on_blacklist: bool,
        /// Records blacklist provenance. See [`GcConfig::track_sources`].
        track_sources: bool,
        /// Enables generational collection. See [`GcConfig::generational`].
        generational: bool,
        /// Sets the full-collection cadence. See
        /// [`GcConfig::full_gc_every`].
        full_gc_every: u32,
        /// Enables incremental marking. See [`GcConfig::incremental`].
        incremental: bool,
        /// Sets the tracing increment size. See
        /// [`GcConfig::incremental_budget`].
        incremental_budget: u32,
        /// Sets the mark-phase worker count. See
        /// [`GcConfig::mark_threads`].
        mark_threads: u32,
        /// Enables lazy (allocation-driven) sweeping. See
        /// [`GcConfig::lazy_sweep`].
        lazy_sweep: bool,
        /// Enables the mark-phase page-resolve cache. See
        /// [`GcConfig::resolve_cache`].
        resolve_cache: bool,
        /// Forces the exact worker count. See
        /// [`GcConfig::mark_threads_force`].
        mark_threads_force: bool,
        /// Sets the telemetry sink. See [`GcConfig::observer`].
        observer: Option<SharedObserver>,
    }

    /// Sets the lazy-sweep work bound, in blocks per allocation slow path.
    /// See [`HeapConfig::sweep_budget`](gc_heap::HeapConfig::sweep_budget).
    #[must_use]
    pub fn sweep_budget(mut self, blocks: u32) -> Self {
        self.config.heap.sweep_budget = blocks;
        self
    }

    /// Enables or disables the bump-cursor/zero-once allocation fast path.
    /// See [`HeapConfig::bump_alloc`](gc_heap::HeapConfig::bump_alloc);
    /// behaviorally invisible either way, `false` restores the old
    /// prepopulated-free-list shapes for differential testing.
    #[must_use]
    pub fn bump_alloc(mut self, enabled: bool) -> Self {
        self.config.heap.bump_alloc = enabled;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GcError::InvalidConfig`] when the configuration is
    /// internally inconsistent: zero mark threads (or more than
    /// [`MAX_MARK_THREADS`]), a zero sweep budget, zero-valued collection
    /// pacing (`free_space_divisor`, `full_gc_every`,
    /// `incremental_budget`), or generational and incremental modes
    /// enabled together.
    pub fn build(self) -> Result<GcConfig, GcError> {
        let c = &self.config;
        let reason = if c.mark_threads == 0 {
            Some("mark_threads must be at least 1")
        } else if c.mark_threads > MAX_MARK_THREADS {
            Some("mark_threads exceeds MAX_MARK_THREADS")
        } else if c.heap.sweep_budget == 0 {
            Some("sweep_budget must be at least 1 block per allocation")
        } else if c.free_space_divisor == 0 {
            Some("free_space_divisor must be at least 1")
        } else if c.full_gc_every == 0 {
            Some("full_gc_every must be at least 1")
        } else if c.incremental_budget == 0 {
            Some("incremental_budget must be at least 1")
        } else if c.generational && c.incremental {
            Some("generational and incremental modes are mutually exclusive")
        } else {
            None
        };
        match reason {
            Some(reason) => Err(GcError::InvalidConfig { reason }),
            None => Ok(self.config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = GcConfig::default();
        assert!(c.blacklisting);
        assert!(c.initial_collect);
        assert_eq!(c.pointer_policy, PointerPolicy::AllInterior);
        assert_eq!(c.scan_alignment, ScanAlignment::Word);
        assert!(c.allow_atomic_on_blacklist);
    }

    #[test]
    fn strides() {
        assert_eq!(ScanAlignment::Word.stride(), 4);
        assert_eq!(ScanAlignment::HalfWord.stride(), 2);
        assert_eq!(ScanAlignment::Byte.stride(), 1);
    }

    #[test]
    fn without_blacklisting_only_toggles_blacklist() {
        let c = GcConfig::default().without_blacklisting();
        assert!(!c.blacklisting);
        assert!(c.initial_collect, "other settings untouched");
    }

    #[test]
    fn displays() {
        assert_eq!(PointerPolicy::AllInterior.to_string(), "all-interior");
        assert_eq!(ScanAlignment::Byte.to_string(), "byte");
    }

    fn rejection(b: GcConfigBuilder) -> &'static str {
        match b.build() {
            Err(GcError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn builder_defaults_build_cleanly() {
        let c = GcConfig::builder().build().expect("defaults are valid");
        assert!(c.blacklisting);
        assert_eq!(c.full_gc_every, GcConfig::default().full_gc_every);
    }

    #[test]
    fn builder_sets_every_layer() {
        let c = GcConfig::builder()
            .pointer_policy(PointerPolicy::BaseOnly)
            .blacklisting(false)
            .generational(true)
            .full_gc_every(3)
            .mark_threads(4)
            .lazy_sweep(true)
            .sweep_budget(7)
            .bump_alloc(false)
            .min_bytes_between_gcs(1)
            .build()
            .expect("valid configuration");
        assert_eq!(c.pointer_policy, PointerPolicy::BaseOnly);
        assert!(!c.blacklisting);
        assert!(c.generational && c.lazy_sweep);
        assert_eq!(c.full_gc_every, 3);
        assert_eq!(c.mark_threads, 4);
        assert_eq!(c.heap.sweep_budget, 7, "sweep_budget reaches the heap");
        assert!(!c.heap.bump_alloc, "bump_alloc reaches the heap");
        assert_eq!(c.min_bytes_between_gcs, 1);
    }

    #[test]
    fn builder_rejects_each_nonsense_setting() {
        assert_eq!(
            rejection(GcConfig::builder().mark_threads(0)),
            "mark_threads must be at least 1"
        );
        assert_eq!(
            rejection(GcConfig::builder().mark_threads(MAX_MARK_THREADS + 1)),
            "mark_threads exceeds MAX_MARK_THREADS"
        );
        assert_eq!(
            rejection(GcConfig::builder().sweep_budget(0)),
            "sweep_budget must be at least 1 block per allocation"
        );
        assert_eq!(
            rejection(GcConfig::builder().free_space_divisor(0)),
            "free_space_divisor must be at least 1"
        );
        assert_eq!(
            rejection(GcConfig::builder().full_gc_every(0)),
            "full_gc_every must be at least 1"
        );
        assert_eq!(
            rejection(GcConfig::builder().incremental_budget(0)),
            "incremental_budget must be at least 1"
        );
        assert_eq!(
            rejection(GcConfig::builder().generational(true).incremental(true)),
            "generational and incremental modes are mutually exclusive"
        );
    }

    #[test]
    fn invalid_config_error_displays_its_reason() {
        let err = GcConfig::builder().mark_threads(0).build().unwrap_err();
        assert!(err.to_string().contains("invalid collector configuration"));
        assert!(err.to_string().contains("mark_threads"));
    }

    #[test]
    fn struct_literal_construction_still_works() {
        // The builder validates; the struct stays open for direct
        // construction (existing tests and embedders rely on it).
        let c = GcConfig {
            blacklisting: false,
            lazy_sweep: true,
            ..GcConfig::default()
        };
        assert!(!c.blacklisting);
        assert!(c.lazy_sweep);
    }
}

//! Finalization support.
//!
//! The paper's PCR experiments gather statistics "using the PCR finalization
//! facility, which allows selected otherwise unreachable heap cells to be
//! enqueued for further action" (appendix B). The same facility is used by
//! our Program T harness to detect which lists were actually reclaimed.
//!
//! Semantics follow PCR/bdwgc: when a registered object is found
//! unreachable, it (and everything reachable from it) is *resurrected* for
//! one more cycle, its registration is dropped, and its token is queued for
//! the client. It is reclaimed by a later collection if still unreachable.

use gc_vmspace::Addr;
use std::collections::HashMap;

/// Registry of finalizable objects.
#[derive(Debug, Default)]
pub(crate) struct Finalizers {
    registered: HashMap<Addr, u64>,
    ready: Vec<(Addr, u64)>,
}

impl Finalizers {
    /// Registers `token` to be enqueued when the object based at `addr`
    /// becomes unreachable. A second registration replaces the first.
    pub fn register(&mut self, addr: Addr, token: u64) {
        self.registered.insert(addr, token);
    }

    /// Removes a registration; returns its token if present.
    pub fn unregister(&mut self, addr: Addr) -> Option<u64> {
        self.registered.remove(&addr)
    }

    /// Number of live registrations.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Partitions registrations by the `is_marked` predicate: unmarked ones
    /// are moved to the ready queue and returned (for resurrection by the
    /// caller), both in address order, so the resurrection drain and what
    /// the client drains repeat from run to run.
    pub fn collect_unreachable(&mut self, mut is_marked: impl FnMut(Addr) -> bool) -> Vec<Addr> {
        let mut doomed: Vec<Addr> = self
            .registered
            .keys()
            .copied()
            .filter(|&a| !is_marked(a))
            .collect();
        doomed.sort_unstable();
        let mut newly = Vec::with_capacity(doomed.len());
        for addr in doomed {
            let token = self
                .registered
                .remove(&addr)
                .expect("doomed key is registered");
            self.ready.push((addr, token));
            newly.push(addr);
        }
        newly
    }

    /// Drains the queue of (address, token) pairs whose objects became
    /// unreachable.
    pub fn drain_ready(&mut self) -> Vec<(Addr, u64)> {
        std::mem::take(&mut self.ready)
    }

    /// Number of queued-but-undrained finalizations.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_registrations_become_ready() {
        let mut f = Finalizers::default();
        f.register(Addr::new(0x100), 1);
        f.register(Addr::new(0x200), 2);
        f.register(Addr::new(0x300), 3);
        // 0x200 is marked (reachable); the others are not.
        let resurrected = f.collect_unreachable(|a| a == Addr::new(0x200));
        assert_eq!(resurrected.len(), 2);
        assert_eq!(f.registered_count(), 1);
        assert_eq!(f.ready_count(), 2);
        assert_eq!(resurrected, vec![Addr::new(0x100), Addr::new(0x300)]);
        assert_eq!(
            f.drain_ready(),
            vec![(Addr::new(0x100), 1), (Addr::new(0x300), 3)],
            "queued in address order"
        );
        assert_eq!(f.ready_count(), 0);
    }

    #[test]
    fn reregistration_replaces_token() {
        let mut f = Finalizers::default();
        f.register(Addr::new(0x100), 1);
        f.register(Addr::new(0x100), 9);
        f.collect_unreachable(|_| false);
        assert_eq!(f.drain_ready(), vec![(Addr::new(0x100), 9)]);
    }

    #[test]
    fn unregister_prevents_finalization() {
        let mut f = Finalizers::default();
        f.register(Addr::new(0x100), 1);
        assert_eq!(f.unregister(Addr::new(0x100)), Some(1));
        assert_eq!(f.unregister(Addr::new(0x100)), None);
        f.collect_unreachable(|_| false);
        assert!(f.drain_ready().is_empty());
    }
}

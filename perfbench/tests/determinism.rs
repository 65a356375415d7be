//! The benchmark's inputs come from its seed alone: at reduced size, two
//! trials with one seed do the same collector work and end with the same
//! heap, and a different seed changes the generated inputs.

use perfbench::{run_trial, Rng, Scale, Trial, Workload};

const WORKLOADS: [Workload; 3] = [Workload::GcBench, Workload::ProgramT, Workload::CacheChurn];

fn trial(w: Workload, seed: u64, traced: bool) -> Trial {
    run_trial(w, seed, Scale::Small, traced).expect("pinned configuration builds")
}

/// What must repeat exactly for one seed.
fn fingerprint(t: &Trial) -> (usize, u64, u32, u64, u64, u64) {
    (
        t.pauses.len(),
        t.objects_marked,
        t.peak_pages,
        t.retained_bytes,
        t.tally.allocs,
        t.tally.word_ops,
    )
}

#[test]
fn one_seed_repeats_exactly_and_passes_its_checks() {
    for w in WORKLOADS {
        let a = trial(w, 7, false);
        let b = trial(w, 7, false);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name());
        assert_eq!(a.tally.failed(), 0, "{}: {:?}", w.name(), a.tally);
        // Program T's check compares whole runs with the library's
        // Program T; see the last test.
        assert!(
            a.tally.checks > 0 || w == Workload::ProgramT,
            "{} checks its outputs",
            w.name()
        );
        assert!(!a.pauses.is_empty(), "{} collects", w.name());
    }
}

#[test]
fn tracing_changes_no_collector_work() {
    for w in WORKLOADS {
        let plain = trial(w, 3, false);
        let traced = trial(w, 3, true);
        assert_eq!(fingerprint(&plain), fingerprint(&traced), "{}", w.name());
        assert!(traced.spans.as_deref().is_some_and(|s| !s.is_empty()));
        let unattributed = traced
            .layers
            .iter()
            .find(|(n, _)| *n == "core.unattributed_ms")
            .expect("traced trials report unattributed time")
            .1;
        assert!(
            unattributed >= 0.0,
            "{}: collector pauses fit inside the calls that caused them",
            w.name()
        );
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let draws = |seed| {
        let mut r = Rng::new(seed);
        (0..8).map(|_| r.next_u32()).collect::<Vec<_>>()
    };
    assert_eq!(draws(1), draws(1));
    assert_ne!(draws(1), draws(2));
    // cache_churn's request mix (payload sizes) depends on the seed.
    let a = trial(Workload::CacheChurn, 1, false);
    let b = trial(Workload::CacheChurn, 2, false);
    assert_ne!(
        (a.tally.word_ops, a.objects_marked, a.peak_pages),
        (b.tally.word_ops, b.objects_marked, b.peak_pages),
    );
}

#[test]
fn program_t_client_retains_what_the_library_program_t_retains() {
    for seed in [1, 2] {
        let r = perfbench::run(Workload::ProgramT, seed, 1, false, Scale::Small).expect("runs");
        assert_eq!(r.checks, r.plain.len() as u64);
        assert_eq!(r.check_failures, 0, "seed {seed}");
    }
}

//! The repository's benchmark: three workloads scored on space and time.
//!
//! A run repeats *trials* of its workload until `--seconds` have passed.
//! A trial builds a fresh platform (the set-up that `setup_s` times),
//! runs the workload's operations through [`client::Client`], and then
//! drops every root the workload owns and collects until nothing more is
//! finalized, to read what false references still keep alive. Every trial
//! of a run uses the run's seed, so trials repeat the same inputs and the
//! run reports medians over them. See `README.md` for the metrics.

pub mod cache_churn;
pub mod cli;
pub mod client;
pub mod clock;
pub mod gcbench;
pub mod program_t;
pub mod report;
pub mod trace;

use client::{Pins, Rig, Tally};
use gc_platforms::Profile;
use gc_workloads::ProgramT;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GcBench,
    ProgramT,
    CacheChurn,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "gcbench" => Some(Workload::GcBench),
            "program_t" => Some(Workload::ProgramT),
            "cache_churn" => Some(Workload::CacheChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GcBench => "gcbench",
            Workload::ProgramT => "program_t",
            Workload::CacheChurn => "cache_churn",
        }
    }

    pub fn profile(self) -> Profile {
        match self {
            Workload::GcBench => gcbench::profile(),
            Workload::ProgramT => program_t::profile(),
            Workload::CacheChurn => cache_churn::profile(),
        }
    }

    pub fn pins(self) -> Pins {
        match self {
            Workload::GcBench => gcbench::pins(),
            Workload::ProgramT => program_t::pins(),
            Workload::CacheChurn => cache_churn::pins(),
        }
    }
}

/// How much work a trial does: the benchmark's sizes, or much smaller ones
/// for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

fn program_t_shape(scale: Scale) -> ProgramT {
    match scale {
        Scale::Full => ProgramT::paper(),
        Scale::Small => ProgramT::paper().scaled(20),
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// What one trial measured.
#[derive(Clone, Debug)]
pub struct Trial {
    /// CPU time of `Profile::build_custom`.
    pub setup: Duration,
    /// Wall time of the workload's operations.
    pub run_time: Duration,
    /// CPU time of the workload's operations.
    pub run_cpu: Duration,
    /// The probe's time beside the trial: the mean of the probes [`run`]
    /// makes just before and just after it. A trial made by [`run_trial`]
    /// alone keeps [`clock::PROBE_REFERENCE`], so it is not scaled.
    pub probe: Duration,
    pub tally: Tally,
    /// Stop-the-world time of each collection during the operations.
    pub pauses: Vec<Duration>,
    /// CPU time of each of those pauses.
    pub pause_cpu: Vec<Duration>,
    pub objects_marked: u64,
    pub peak_pages: u32,
    /// Live bytes once every root is dropped and the heap has settled.
    pub retained_bytes: u64,
    /// Program T only: lists never finalized.
    pub retained_lists: Option<u32>,
    /// Per-layer metrics, in a traced trial.
    pub layers: Vec<(&'static str, f64)>,
    /// The trial's spans as JSON Lines, in a traced trial.
    pub spans: Option<String>,
}

/// Builds a fresh platform and runs one trial of `workload`.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<Trial, String> {
    let (mut rig, setup) = Rig::build(&workload.profile(), seed, workload.pins(), traced)?;
    let start = Instant::now();
    let cpu_start = clock::thread_cpu();
    let (roots, retained_lists) = {
        let mut d = rig.client();
        match workload {
            Workload::GcBench => {
                let size = match scale {
                    Scale::Full => gcbench::Size::full(),
                    Scale::Small => gcbench::Size::small(),
                };
                (gcbench::run(&mut d, seed, size), None)
            }
            Workload::ProgramT => {
                let retained = program_t::run(&mut d, program_t_shape(scale));
                (Vec::new(), Some(retained))
            }
            Workload::CacheChurn => {
                let size = match scale {
                    Scale::Full => cache_churn::Size::full(),
                    Scale::Small => cache_churn::Size::small(),
                };
                (cache_churn::run(&mut d, seed, size), None)
            }
        }
    };
    let run_time = start.elapsed();
    let run_cpu = clock::thread_cpu() - cpu_start;
    rig.client().sample_heap();
    let timed_collections = rig.recorder().collections.len();
    let mut layers = if traced {
        report::layer_metrics(&rig, setup, run_time, timed_collections)
    } else {
        Vec::new()
    };
    let (pauses, pause_cpu, objects_marked) = {
        let rec = rig.recorder();
        let timed = &rec.collections[..timed_collections];
        (
            timed.iter().map(|c| c.duration).collect::<Vec<_>>(),
            timed.iter().map(|c| c.cpu).collect::<Vec<_>>(),
            timed.iter().map(|c| c.objects_marked).sum(),
        )
    };
    // Program T's own last step already dropped its roots and settled.
    if workload != Workload::ProgramT {
        rig.client().drop_roots_and_settle(&roots);
    }
    let retained_bytes = rig.gc().heap().stats().bytes_live;
    if traced {
        layers.push(("heap.retained_kb", retained_bytes as f64 / 1024.0));
    }
    let spans = rig.ctx.tracer.as_ref().map(trace::Tracer::to_json_lines);
    Ok(Trial {
        setup,
        run_time,
        run_cpu,
        probe: clock::PROBE_REFERENCE,
        tally: rig.ctx.tally,
        pauses,
        pause_cpu,
        objects_marked,
        peak_pages: rig.ctx.peak_pages,
        retained_bytes,
        retained_lists,
        layers,
        spans,
    })
}

/// Extra builds timed before each trial, so `setup_s` is a median of many
/// samples spread over the whole run, not of a moment of it.
const BUILDS_PER_TRIAL: usize = 20;

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// The CPU time of every build in the run, scaled by the probe.
    pub setups: Vec<Duration>,
    pub plain: Vec<Trial>,
    pub traced: Vec<Trial>,
    /// Checks made at run level (Program T's reference comparison).
    pub checks: u64,
    pub check_failures: u64,
}

/// Runs trials of `workload` until `seconds` have passed: untraced trials,
/// or untraced and traced trials in alternation when `trace` is set.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
) -> Result<RunResult, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut setups = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // Each trial, with the builds timed just before it, is bracketed by two
    // probes of the host's speed.
    let mut probe = clock::probe();
    let mut probed = |traced: bool| -> Result<Trial, String> {
        let mut builds = Vec::with_capacity(BUILDS_PER_TRIAL);
        for _ in 0..BUILDS_PER_TRIAL {
            builds.push(Rig::build(&workload.profile(), seed, workload.pins(), false)?.1);
        }
        let mut t = run_trial(workload, seed, scale, traced)?;
        let after = clock::probe();
        t.probe = (probe + after) / 2;
        probe = after;
        builds.push(t.setup);
        setups.extend(builds.iter().map(|&b| clock::at_reference(b, t.probe)));
        Ok(t)
    };
    loop {
        let round = Instant::now();
        plain.push(probed(false)?);
        if trace {
            traced.push(probed(true)?);
        }
        // Stop when another round would overrun the budget.
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let (mut checks, mut check_failures) = (0, 0);
    if workload == Workload::ProgramT {
        let reference = program_t::reference_retained(program_t_shape(scale), seed)?;
        for t in plain.iter().chain(&traced) {
            checks += 1;
            check_failures += u64::from(t.retained_lists != Some(reference));
        }
    }
    Ok(RunResult {
        setups,
        plain,
        traced,
        checks,
        check_failures,
    })
}

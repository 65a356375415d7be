//! How the benchmark reads time.
//!
//! Time metrics are taken on the CPU clock of the benchmark's one thread
//! (marking is pinned serial, so the collector runs there too), and then
//! scaled by the host's speed as a fixed probe kernel measures it beside
//! every trial. The CPU clock leaves out time the thread did not run:
//! other processes, and the hypervisor giving the virtual CPU away (steal
//! time). The probe corrects for what the CPU clock cannot see: on a
//! shared host the same trial's CPU time can double as other tenants load
//! the core and the shared cache, and the probe's time moves with it,
//! though less.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock through 64-bit Linux clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Words in the probe's update table: 512 KB, inside one core's private
/// cache.
const PROBE_WORDS: usize = 1 << 16;
const PROBE_UPDATES: u32 = 8_000_000;
/// Keys the probe sorts: 4 MB, larger than a core's private cache.
const PROBE_KEYS: u32 = 1 << 20;

/// The probe's median CPU time on the host the bounds were set on (a
/// 2-vCPU Intel Xeon virtual machine, CPU model 207), rounded. Scaled
/// times read as times on that host.
pub const PROBE_REFERENCE: Duration = Duration::from_millis(50);

/// Times the probe: random read-modify-write updates into a table that
/// fits a core's private cache, then a sort of keys that do not. Neither
/// touches the collector's code, so no change to the collector moves the
/// probe; both slow down, as the workloads do, when other tenants load the
/// core and the shared cache.
pub fn probe() -> Duration {
    let mut table = vec![1u64; PROBE_WORDS];
    let start = thread_cpu();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..PROBE_UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (PROBE_WORDS - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    let mut keys: Vec<u32> = (0..PROBE_KEYS)
        .map(|i| i.wrapping_mul(0x9E37_79B1))
        .collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    thread_cpu() - start
}

/// Scales a CPU time measured beside probe time `probe` to the reference
/// host's speed.
pub fn at_reference(cpu: Duration, probe: Duration) -> Duration {
    cpu.mul_f64(PROBE_REFERENCE.as_secs_f64() / probe.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_advances_with_work() {
        let before = thread_cpu();
        assert!(probe() > Duration::ZERO);
        assert!(thread_cpu() > before);
    }

    #[test]
    fn times_scale_inversely_with_the_probe() {
        let t = Duration::from_millis(30);
        assert_eq!(at_reference(t, PROBE_REFERENCE), t);
        assert_eq!(at_reference(t, PROBE_REFERENCE * 2), t / 2);
    }
}

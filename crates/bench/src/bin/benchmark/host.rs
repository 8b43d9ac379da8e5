//! The benchmark's clock and its host-speed reference.
//!
//! The machines this runs on are shared, and two things outside the
//! program slow a run by tens of percent for seconds to minutes at a
//! time. The hypervisor takes the vCPU away (steal time): that is kept
//! out by timing with the thread's CPU clock, which a guest kernel that
//! accounts steal time does not advance while the vCPU is away. Other
//! tenants on the same core and caches make it run slower: that is
//! measured. A profiling timer interrupts the run every 100 ms of its
//! CPU time, and the signal handler times a fixed reference round —
//! sorting 50,000 integers, then building and searching a 10,000-key
//! binary search tree, branchy cache-bound work like the simulators'.
//! Because the timer fires inside long operations too, the samples
//! cover the whole of a phase, not only the gaps between operations.
//! Host times are reported as work time × [`NOMINAL_S`] / the median
//! reference time over the same phase of the run ([`scale`]); the
//! fastest of many short set-ups is divided by the fastest reference
//! round instead ([`fastest_scale`]). [`now`] leaves out the handler's
//! own time, so sampling costs the measured work nothing.
//!
//! Linux only: the clock, the timer and the signal are called through
//! their C declarations, as the standard library does not expose them.

use crate::probes::Rng;
use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Duration;

/// One reference round's CPU time on a quiet vCPU of the machine the
/// bounds were calibrated on (Intel Xeon, 2.0 GHz).
pub const NOMINAL_S: f64 = 0.003;
/// CPU time between two samples.
const EVERY: Duration = Duration::from_millis(100);
/// Room for 400 s of sampled CPU time; later samples are dropped.
const CAPACITY: usize = 4096;

static SAMPLES_NS: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// CPU time the handler has spent, which [`now`] subtracts.
static SPENT_NS: AtomicU64 = AtomicU64::new(0);
/// Only [`start`] locks this from the main thread, before the timer is
/// armed; afterwards only the handler takes it, with `try_lock`.
static REFERENCE: Mutex<Option<Reference>> = Mutex::new(None);

/// The reference round's inputs and scratch space, allocated up front:
/// the handler may not allocate, as it can interrupt the allocator.
struct Reference {
    values: Vec<u32>,
    sorted: Vec<u32>,
    keys: Vec<u64>,
    left: Vec<u32>,
    right: Vec<u32>,
}

const NIL: u32 = u32::MAX;

impl Reference {
    fn new() -> Self {
        // A fixed seed: every run times the same round.
        let mut rng = Rng(0x5EED);
        let values: Vec<u32> = (0..50_000)
            .map(|_| u32::try_from(rng.below(1 << 32)).expect("below 2^32"))
            .collect();
        let keys: Vec<u64> = (0..10_000).map(|_| rng.below(u64::MAX)).collect();
        Reference {
            sorted: vec![0; values.len()],
            values,
            left: vec![NIL; keys.len()],
            right: vec![NIL; keys.len()],
            keys,
        }
    }

    /// Sorts a copy of the values, inserts every key into an unbalanced
    /// binary search tree held in arrays, then finds every other key.
    fn round(&mut self) -> u64 {
        self.sorted.copy_from_slice(&self.values);
        self.sorted.sort_unstable();
        self.left.fill(NIL);
        self.right.fill(NIL);
        let keys = &self.keys;
        for (i, &k) in keys.iter().enumerate().skip(1) {
            let mut node = 0;
            loop {
                let next = if k < keys[node] {
                    &mut self.left[node]
                } else {
                    &mut self.right[node]
                };
                if *next == NIL {
                    *next = u32::try_from(i).expect("fewer than 2^32 keys");
                    break;
                }
                node = *next as usize;
            }
        }
        let mut depth = 0u64;
        for &k in keys.iter().step_by(2) {
            let mut node = 0;
            while keys[node] != k {
                node = if k < keys[node] {
                    self.left[node]
                } else {
                    self.right[node]
                } as usize;
                depth += 1;
            }
        }
        depth + u64::from(self.sorted[self.sorted.len() / 2])
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const ITIMER_PROF: c_int = 2;
const SIGPROF: c_int = 27;
const SIG_ERR: usize = usize::MAX;

fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec of the C layout, and
    // clock_gettime writes only it. It is async-signal-safe, so the
    // handler may call it too.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// The SIGPROF handler: times one reference round. It touches only
/// atomics, the reference (through `try_lock`, which never blocks) and
/// the CPU clock, all of which are safe to use from a signal handler.
extern "C" fn on_sigprof(_signal: c_int) {
    let Ok(mut guard) = REFERENCE.try_lock() else {
        return;
    };
    let Some(reference) = guard.as_mut() else {
        return;
    };
    let t = thread_cpu_ns();
    black_box(reference.round());
    let dt = thread_cpu_ns() - t;
    let i = TAKEN.load(SeqCst);
    if i < CAPACITY {
        SAMPLES_NS[i].store(dt, SeqCst);
        TAKEN.store(i + 1, SeqCst);
    }
    SPENT_NS.fetch_add(dt, SeqCst);
}

/// Starts sampling the host's speed for the rest of the process. The
/// timer and its signal are process-wide, so only `main` calls this:
/// tests run on several threads and measure without it.
pub fn start() {
    *REFERENCE
        .lock()
        .expect("nothing has used the reference yet") = Some(Reference::new());
    let every = Timeval {
        tv_sec: 0,
        tv_usec: c_long::try_from(EVERY.as_micros()).expect("EVERY is under a second"),
    };
    let timer = Itimerval {
        it_interval: every,
        it_value: every,
    };
    // SAFETY: `on_sigprof` has the C signature a handler needs and only
    // does async-signal-safe work (see its comment). glibc's `signal`
    // installs it with SA_RESTART, so interrupted reads and writes resume.
    let old = unsafe { signal(SIGPROF, on_sigprof) };
    assert_ne!(old, SIG_ERR, "SIGPROF can be handled");
    // SAFETY: `timer` is a valid itimerval for the call to read, and a
    // null `old` asks for no previous value.
    let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "the profiling timer can be armed");
}

/// This thread's CPU time less the time the sampler has taken: the
/// clock every host time in the benchmark is measured with.
pub fn now() -> Duration {
    loop {
        let spent = SPENT_NS.load(SeqCst);
        let cpu = thread_cpu_ns();
        // A sample taken between the two loads would be counted in
        // `cpu` but not in `spent`; read again.
        if SPENT_NS.load(SeqCst) == spent {
            return Duration::from_nanos(cpu.saturating_sub(spent));
        }
    }
}

/// How many reference samples have been taken; marks a phase boundary.
pub fn taken() -> usize {
    TAKEN.load(SeqCst)
}

/// The reference round's times in seconds over samples `from..to`, or
/// over every sample before `to` if the phase was too short to hold
/// one; empty when sampling is off.
fn samples(from: usize, to: usize) -> Vec<f64> {
    let to = to.min(CAPACITY);
    let from = if from < to { from } else { 0 };
    SAMPLES_NS[from..to]
        .iter()
        .map(|s| s.load(SeqCst) as f64 * 1e-9)
        .collect()
}

/// The reference round's median time over samples `from..to` (see
/// [`samples`]); `None` when sampling is off.
pub fn ref_s(from: usize, to: usize) -> Option<f64> {
    let s = samples(from, to);
    (!s.is_empty()).then(|| crate::median(&s))
}

/// The factor that turns work time measured during samples `from..to`
/// into nominal-speed seconds; 1 when sampling is off.
pub fn scale(from: usize, to: usize) -> f64 {
    ref_s(from, to).map_or(1.0, |r| NOMINAL_S / r)
}

/// Like [`scale`], for the fastest of many short repetitions: the factor
/// that divides by the fastest reference round over samples `from..to`.
pub fn fastest_scale(from: usize, to: usize) -> f64 {
    samples(from, to)
        .into_iter()
        .reduce(f64::min)
        .map_or(1.0, |r| NOMINAL_S / r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_round_is_fixed_and_the_clock_moves_with_work() {
        let mut a = Reference::new();
        let first = a.round();
        assert_eq!(first, a.round());
        assert_eq!(first, Reference::new().round());
        let t = now();
        black_box(a.round());
        assert!(now() > t);
        assert_eq!(scale(0, 0), 1.0);
        assert_eq!(fastest_scale(0, 0), 1.0);
    }
}

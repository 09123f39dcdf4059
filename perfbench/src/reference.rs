//! A fixed reference kernel that gauges how fast the machine runs right
//! now, so that host times measured at different moments compare.
//!
//! On a shared machine the speed of a core drifts by tens of percent over
//! minutes, with the load other tenants put on shared caches, memory and
//! sibling hyperthreads; on-CPU time does not remove that. The benchmark
//! runs this kernel next to every timed iteration and states the
//! iteration's host time at the reference speed: the speed at which the
//! kernel takes `NOMINAL_S`. The kernel is plain `std` code that calls
//! no simulator crate, so a change to the simulator moves the scaled
//! figures exactly as it moves the raw ones.

use crate::{fresh, HostClock};

/// Host seconds the kernel takes at the reference speed.
pub(crate) const NOMINAL_S: f64 = 0.15;

/// Table words of the kernel's random walk (16 MiB): past the private
/// caches, inside a shared last-level cache, like the simulator's tables.
const TABLE_WORDS: usize = 1 << 21;

/// Steps of the kernel.
const STEPS: u64 = 1 << 20;

/// The kernel: a random read-modify-write walk over a table, a dependent
/// load chain through it, a hash-map update and an append to a growing
/// log per step: the operations the simulator's mapping tables, dedup
/// index and tracer spend their time in.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![0u64; TABLE_WORDS];
    let mut map = std::collections::HashMap::with_capacity(1 << 16);
    let mut log = Vec::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE_WORDS - 1);
        table[slot] = table[slot].wrapping_add(i);
        *map.entry(x & 0xFFFF).or_insert(0u64) += 1;
        acc = acc.rotate_left(5) ^ table[(acc as usize) & (TABLE_WORDS - 1)];
        log.push((i, acc, x));
    }
    acc.wrapping_add(map.len() as u64).wrapping_add(log[(x as usize) % log.len()].1)
}

/// On-CPU seconds of one kernel run, run on each of `threads` fresh
/// threads at once (the cores a timed iteration keeps busy); the mean
/// over the threads.
fn kernel_s(threads: usize) -> f64 {
    let timed = || {
        let clock = HostClock::start(1);
        std::hint::black_box(kernel());
        clock.seconds()
    };
    let times: Vec<f64> = if threads <= 1 {
        vec![fresh(timed)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    };
    times.iter().sum::<f64>() / times.len() as f64
}

/// The kernel's time after each timed iteration.
pub(crate) struct Speed {
    threads: usize,
    /// Kernel seconds, one after each iteration.
    samples: Vec<f64>,
}

impl Speed {
    /// Gauge the machine on `threads` threads. The first sample comes
    /// after the first iteration, which is where the benchmark reads the
    /// peak resident memory: the kernel's own tables would raise it.
    pub(crate) fn new(threads: usize) -> Self {
        Self { threads, samples: Vec::new() }
    }

    /// Gauge the machine after an iteration; returns the factor that
    /// turns that iteration's host seconds into seconds at the reference
    /// speed: `NOMINAL_S` over the kernel's mean time before (the sample
    /// after the previous iteration, if any) and after it.
    pub(crate) fn after_iteration(&mut self) -> f64 {
        let after = kernel_s(self.threads);
        let around = match self.samples.last() {
            Some(before) => (before + after) / 2.0,
            None => after,
        };
        self.samples.push(after);
        NOMINAL_S / around
    }

    /// The kernel's times, in ms, for the notes.
    pub(crate) fn samples_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s * 1e3).collect()
    }
}

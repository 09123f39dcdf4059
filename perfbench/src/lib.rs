//! The repository benchmark: four workloads of the CAGC simulator,
//! end-to-end metrics from an untraced run, per-layer metrics and wall
//! spans from a traced run, and output checks on both. README.md is the
//! reference; `src/main.rs` is the command.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod metric;
pub mod micro;
pub mod plan;
mod reference;
pub mod single;
pub mod spans;

use std::time::{Duration, Instant};

pub use metric::{Kind, Metrics, END_TO_END, PER_LAYER};
pub use plan::{Plan, Workload};
pub use spans::Spans;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Output {
    /// Measured values.
    pub metrics: Metrics,
    /// Requests attempted across every replay of the run.
    pub attempted: u64,
    /// Requests that did not complete `Success`.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
    /// Wall spans of the traced run (empty when untraced).
    pub spans: Spans,
}

impl Output {
    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the mode's catalogue (0 for a layer the workload bypasses).
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = metric::catalogue(traced)
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `plan` for about `seconds` of measurement, untraced (end-to-end
/// metrics) or traced (per-layer metrics and spans).
pub fn run(plan: &Plan, traced: bool, seconds: f64) -> Output {
    let mut out = Output::default();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    match (plan.is_fleet(), traced) {
        (false, false) => single::end_to_end(plan, budget, &mut out),
        (false, true) => single::traced(plan, budget, &mut out),
        (true, false) => fleet::end_to_end(plan, budget, &mut out),
        (true, true) => fleet::traced(plan, budget, &mut out),
    }
    for d in metric::catalogue(traced) {
        if let Some(v) = out.metrics.get(d.name) {
            out.check(v.is_finite(), || format!("{} is not finite", d.name));
        }
    }
    out
}

/// Run `f` on a new thread and return its result. The simulator's
/// SHA-1 memo (`FingerprintCache::of_content_cached`) is per thread, so
/// every replay run this way starts with a cold memo, as a fresh user
/// process does.
pub(crate) fn fresh<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| match s.spawn(f).join() {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    })
}

/// Median of a non-empty sample (mean of the middle two when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A sample as a list, for the notes.
pub(crate) fn listed(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", v.join(", "))
}

/// The `q` quantile (nearest rank) of a sample, 0 when empty.
pub(crate) fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of a piece of work, robust to whatever else runs on a shared
/// machine. Work on one thread is timed by that thread's on-CPU time
/// (`/proc/thread-self/schedstat`): the wall time it takes with a core to
/// itself. Work spread over `busy` threads is timed by the on-CPU time of
/// every thread of the process (`/proc/self/stat`, exited threads
/// included) divided by `busy`: the wall time it takes with that many
/// cores to itself and evenly shared. Without either file this is plain
/// wall time.
pub(crate) struct HostClock {
    wall: Instant,
    busy: usize,
    cpu: Option<Cpu>,
}

/// The on-CPU clock a `HostClock` reads, and its value at the start.
enum Cpu {
    /// ns of the starting thread.
    Thread(std::thread::ThreadId, u64),
    /// Seconds of the whole process.
    Process(f64),
}

impl HostClock {
    /// Start timing work that keeps `busy` threads running. One-thread
    /// work must be read on the thread that started the clock; work on
    /// several threads must be the only work of the process meanwhile.
    pub(crate) fn start(busy: usize) -> Self {
        let busy = busy.clamp(1, nproc());
        let cpu = if busy == 1 {
            thread_cpu_ns().map(|ns| Cpu::Thread(std::thread::current().id(), ns))
        } else {
            process_cpu_s().map(Cpu::Process)
        };
        Self { wall: Instant::now(), busy, cpu }
    }

    /// Host seconds since `start`.
    pub(crate) fn seconds(&self) -> f64 {
        match self.cpu {
            Some(Cpu::Thread(thread, start)) => {
                if let Some(now) = thread_cpu_ns() {
                    assert_eq!(
                        thread,
                        std::thread::current().id(),
                        "HostClock read on another thread"
                    );
                    return now.saturating_sub(start) as f64 / 1e9;
                }
            }
            Some(Cpu::Process(start)) => {
                if let Some(now) = process_cpu_s() {
                    return (now - start) / self.busy as f64;
                }
            }
            None => {}
        }
        self.wall.elapsed().as_secs_f64()
    }
}

/// On-CPU ns of the calling thread so far. The kernel refreshes a running
/// thread's figure only at scheduler events, up to a tick late; yielding
/// first makes one.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// On-CPU seconds of every thread of this process so far, exited threads
/// included: `utime` + `stime` of `/proc/self/stat`, in USER_HZ ticks
/// (100 per second on Linux).
fn process_cpu_s() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name, which may hold
    // spaces; `utime` and `stime` are the 12th and 13th of them.
    let mut rest = s.get(s.rfind(')')? + 1..)?.split_whitespace();
    let utime: f64 = rest.nth(11)?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Worker threads for "one per core".
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether a timed loop should stop: at least `min_rounds` done and the
/// budget spent.
pub(crate) fn done(start: Instant, budget: Duration, rounds: usize, min_rounds: usize) -> bool {
    rounds >= min_rounds && start.elapsed() >= budget
}

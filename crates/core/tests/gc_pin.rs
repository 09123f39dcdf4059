//! Byte pins for every GC entry point.
//!
//! Each cell of the grid below replays one short churn trace and records an
//! FNV-1a digest of its `RunReport` JSON; traced non-preemptive cells also
//! pin the digest of their JSONL event log. The grid crosses:
//!
//! * schemes: [`Scheme::EXTENDED`];
//! * GC modes: run-to-completion, preemptible with 1-page slices (deep
//!   enough to hit urgent escalation) and 8-page slices, idle-window GC,
//!   and a `gc_pump` driven between requests;
//! * faults: none, or injected program, erase and ECC faults (no power
//!   loss);
//! * victim policies: Greedy, Random and Cost-Benefit;
//! * tracing: off, or every event recorded.
//!
//! The digests in `tests/gc_pin.golden` were captured before the GC
//! control flow was merged into one engine; any refactor of that code must
//! reproduce them exactly. Traced preemptive cells are pinned without their
//! telemetry section, whose span set is allowed to gain container spans.
//!
//! To print the current digests (for example after an intended behaviour
//! change, which must be explained in the commit), run
//! `CAGC_PIN_PRINT=1 cargo test -p cagc-core --test gc_pin -- --nocapture`.

use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_flash::FaultConfig;
use cagc_ftl::VictimKind;
use cagc_harness::ToJson;
use cagc_workloads::{SynthConfig, Trace};

const GOLDEN: &str = include_str!("gc_pin.golden");

#[derive(Clone, Copy, Debug)]
enum Mode {
    Off,
    Slice1,
    Slice8,
    Idle,
    Pump,
}

impl Mode {
    const ALL: [Mode; 5] = [Mode::Off, Mode::Slice1, Mode::Slice8, Mode::Idle, Mode::Pump];

    fn preemptive(self) -> bool {
        matches!(self, Mode::Slice1 | Mode::Slice8 | Mode::Pump)
    }
}

fn churn_trace() -> Trace {
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    SynthConfig {
        name: "pin".into(),
        requests: 3_000,
        logical_pages: (flash.logical_pages() as f64 * 0.93) as u64,
        write_ratio: 0.85,
        dedup_ratio: 0.2,
        trim_ratio: 0.03,
        mean_req_pages: 2.5,
        max_req_pages: 8,
        mean_interarrival_ns: 150_000,
        seed: 41,
        ..Default::default()
    }
    .generate()
}

fn faults() -> FaultConfig {
    FaultConfig {
        program_fail_prob: 0.004,
        erase_fail_prob: 0.01,
        read_ecc_prob: 0.02,
        seed: 5,
        ..FaultConfig::none()
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Replay one cell; returns its golden lines (`name digest`).
fn run_cell(
    trace: &Trace,
    scheme: Scheme,
    mode: Mode,
    faulty: bool,
    victim: VictimKind,
    traced: bool,
) -> Vec<String> {
    let mut cfg = SsdConfig::tiny(scheme);
    cfg.victim = victim;
    if faulty {
        cfg.faults = faults();
    }
    match mode {
        Mode::Off => {}
        Mode::Slice1 => {
            cfg.gc_preempt = true;
            cfg.gc_slice_pages = 1;
        }
        Mode::Slice8 | Mode::Pump => {
            cfg.gc_preempt = true;
            cfg.gc_slice_pages = 8;
        }
        Mode::Idle => cfg.idle_gc = true,
    }
    let mut ssd = Ssd::new(cfg);
    if traced {
        ssd.enable_tracing(TraceConfig::default());
    }
    for (i, req) in trace.requests.iter().enumerate() {
        let done = ssd.process(req);
        if let Mode::Pump = mode {
            let next = trace.requests.get(i + 1).map_or(done, |r| r.at_ns);
            let mut t = done;
            while t < next {
                match ssd.gc_pump(t) {
                    Some(end) => t = end,
                    None => break,
                }
            }
        }
    }
    ssd.audit().expect("audit after pinned replay");
    let name = format!(
        "{}/{:?}/{}/{}/{}",
        scheme.name(),
        mode,
        if faulty { "faults" } else { "clean" },
        victim.name(),
        if traced { "traced" } else { "untraced" }
    );
    if traced && matches!(mode, Mode::Slice1) && matches!(scheme, Scheme::Baseline | Scheme::Cagc) {
        // 1-page slices fall behind the foreground: the escalation leg runs.
        let urgent = ssd.tracer().events().iter().filter(|e| e.name == "gc_urgent").count();
        assert!(urgent > 0, "{name}: no urgent escalation");
    }
    let mut report = ssd.report(&trace.name);
    if traced && mode.preemptive() {
        report.telemetry = None;
    }
    let mut lines = vec![format!("{name} {:016x}", fnv1a(&report.to_json().render()))];
    if traced && !mode.preemptive() {
        lines.push(format!("{name}/jsonl {:016x}", fnv1a(&ssd.trace_jsonl())));
    }
    lines
}

fn check_scheme(scheme: Scheme) {
    let trace = churn_trace();
    let mut actual = Vec::new();
    for mode in Mode::ALL {
        for faulty in [false, true] {
            for victim in VictimKind::ALL {
                for traced in [false, true] {
                    actual.extend(run_cell(&trace, scheme, mode, faulty, victim, traced));
                }
            }
        }
    }
    if std::env::var_os("CAGC_PIN_PRINT").is_some() {
        println!("{}", actual.join("\n"));
    }
    let prefix = format!("{}/", scheme.name());
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert_eq!(expected.len(), actual.len(), "{}: golden cell count", scheme.name());
    let diverged: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(diverged.is_empty(), "{} cells diverged:\n{}", diverged.len(), diverged.join("\n"));
}

#[test]
fn pinned_bytes_inline_dedupe() {
    check_scheme(Scheme::InlineDedup);
}

#[test]
fn pinned_bytes_inline_sampled() {
    check_scheme(Scheme::InlineSampled);
}

#[test]
fn pinned_bytes_baseline() {
    check_scheme(Scheme::Baseline);
}

#[test]
fn pinned_bytes_cagc() {
    check_scheme(Scheme::Cagc);
}

//! Victim-selection cost per policy and candidate-set size — the per-GC
//! overhead the FTL pays before any flash work happens.

use cagc_ftl::{VictimCandidate, VictimKind, VictimSelector};
use cagc_harness::bench::{Bench, BenchmarkId};

fn candidates(n: u32) -> Vec<VictimCandidate> {
    (0..n)
        .map(|b| VictimCandidate {
            block: b,
            valid: b.wrapping_mul(31) % 65,
            invalid: 64 - b.wrapping_mul(31) % 65,
            trimmed: b.wrapping_mul(17) % (64 - b.wrapping_mul(31) % 65 + 1),
            stranded: 0,
            pages: 64,
            erase_count: b % 13,
            last_modified: (b as u64).wrapping_mul(7_919_000),
        })
        .collect()
}

fn bench_policies(c: &mut Bench) {
    let mut g = c.benchmark_group("victim_select");
    for n in [256u32, 4_096, 32_768] {
        let cands = candidates(n);
        for kind in VictimKind::EXTENDED {
            g.bench_with_input(
                BenchmarkId::new(kind.name(), n),
                &cands,
                |b, cands| {
                    let mut sel = VictimSelector::new(kind, 7);
                    let mut now = 0u64;
                    b.iter(|| {
                        now += 1_000_000;
                        sel.select_streaming(std::hint::black_box(cands).iter().copied(), now)
                    })
                },
            );
        }
    }
    g.finish();
}

cagc_harness::harness_bench_main!(bench_policies);

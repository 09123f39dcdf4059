//! Per-layer wall-time micro-benchmarks, each fed the run's own data:
//! the end-of-run device, the trace's write stream, the run's
//! latencies. Each repeats `ROUNDS` times and reports the median.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use cagc_core::Ssd;
use cagc_dedup::{ContentId, Fingerprint, FingerprintCache, FingerprintIndex};
use cagc_flash::{FlashDevice, UllConfig};
use cagc_ftl::{VictimCandidate, VictimKind, VictimSelector};
use cagc_metrics::Histogram;
use cagc_sim::{EventQueue, TimelineGroup};
use cagc_workloads::{OpKind, Trace};

use crate::{fresh, median, Output};

const ROUNDS: usize = 5;

/// Wall ns per call of `calls` calls made by `f`.
fn per_call_ns(calls: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Median ns per call over `ROUNDS` rounds.
fn rounds(calls: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..ROUNDS).map(|_| per_call_ns(calls, &mut f)).collect();
    median(&v)
}

/// Greedy victim candidates of a fault-free device: its closed (full,
/// not retired) blocks that hold garbage.
fn closed_blocks(dev: &FlashDevice) -> impl Iterator<Item = VictimCandidate> + '_ {
    (0..dev.block_count()).filter_map(move |b| {
        let blk = dev.block(b);
        if dev.is_retired(b) || !blk.is_full() || blk.invalid_count() == 0 {
            return None;
        }
        Some(VictimCandidate {
            block: b,
            valid: blk.valid_count(),
            invalid: blk.invalid_count(),
            trimmed: blk.trimmed_count(),
            stranded: blk.free_count(),
            pages: blk.pages(),
            erase_count: blk.erase_count(),
            last_modified: blk.last_modified(),
        })
    })
}

/// Dense victim index (`FlashDevice::greedy_full_victim`) against the
/// O(blocks) streaming scan (`VictimSelector::select_streaming`) on the
/// end-of-run device, alternating which goes first. Both must pick the
/// same block.
pub(crate) fn victim(ssd: &Ssd, out: &mut Output) {
    const DENSE: usize = 2_000;
    const SCAN: usize = 200;
    let dev = ssd.device();
    let mut sel = VictimSelector::new(VictimKind::Greedy, 0);
    let dense = dev.greedy_full_victim();
    let scanned = sel.select_streaming(closed_blocks(dev), 0);
    out.check(dense == scanned, || {
        format!("dense victim index picked {dense:?}, a scan of closed blocks {scanned:?}")
    });
    let (mut d, mut s, mut x) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let time_dense = || {
            per_call_ns(DENSE, || {
                for _ in 0..DENSE {
                    black_box(black_box(dev).greedy_full_victim());
                }
            })
        };
        let mut time_scan = || {
            per_call_ns(SCAN, || {
                for _ in 0..SCAN {
                    black_box(sel.select_streaming(closed_blocks(black_box(dev)), 0));
                }
            })
        };
        let (dn, sn) = if round % 2 == 0 {
            let dn = time_dense();
            (dn, time_scan())
        } else {
            let sn = time_scan();
            (time_dense(), sn)
        };
        d.push(dn);
        s.push(sn);
        x.push(sn / dn);
    }
    out.metrics.set("flash.victim_dense_us", median(&d) / 1e3);
    out.metrics.set("ftl.victim_scan_us", median(&s) / 1e3);
    out.metrics.set("ftl.scan_over_dense_x", median(&x));
}

/// SHA-1 per distinct written content, the warm memo, and the
/// fingerprint index fed the trace's write stream.
pub(crate) fn dedup(trace: &Trace, out: &mut Output) {
    const DISTINCT: usize = 100_000;
    const WRITES: usize = 500_000;
    let mut seen = HashSet::new();
    let mut ids: Vec<ContentId> = Vec::new();
    let mut stream: Vec<(u64, ContentId)> = Vec::new();
    for r in trace.requests.iter().filter(|r| r.kind == OpKind::Write) {
        for (lpn, &c) in r.lpns().zip(&r.contents) {
            if stream.len() < WRITES {
                stream.push((lpn, c));
            }
            if ids.len() < DISTINCT && seen.insert(c.0) {
                ids.push(c);
            }
        }
    }
    let sha1 = rounds(ids.len(), || {
        for &id in &ids {
            black_box(Fingerprint::of_content(black_box(id)));
        }
    });
    // The memo is per thread: warm it on a thread of its own.
    let memo = fresh(|| {
        for &id in &ids {
            FingerprintCache::of_content_cached(id);
        }
        rounds(ids.len(), || {
            for &id in &ids {
                black_box(FingerprintCache::of_content_cached(black_box(id)));
            }
        })
    });
    let mut cache = FingerprintCache::new();
    let writes: Vec<(usize, Fingerprint)> =
        stream.iter().map(|&(lpn, c)| (lpn as usize, cache.get_or_insert(c))).collect();
    let mut ops = 0usize;
    let index = median(
        &(0..ROUNDS)
            .map(|_| {
                let mut index = FingerprintIndex::new();
                let mut map = vec![u64::MAX; trace.logical_pages as usize];
                let mut next = 0u64;
                ops = 0;
                let t = Instant::now();
                for (lpn, fp) in &writes {
                    let old = map[*lpn];
                    if old != u64::MAX {
                        black_box(index.release_ppn(old));
                        ops += 1;
                    }
                    map[*lpn] = match index.lookup(fp) {
                        Some(e) => {
                            index.add_refs(fp, 1);
                            e.ppn
                        }
                        None => {
                            index.insert(*fp, next, 1);
                            next += 1;
                            next - 1
                        }
                    };
                    ops += 2;
                }
                t.elapsed().as_nanos() as f64 / ops.max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    out.metrics.set("dedup.sha1_ns", sha1);
    out.metrics.set("dedup.memo_ns", memo);
    out.metrics.set("dedup.index_op_ns", index);
}

/// `TimelineGroup::reserve` over the device's dies.
pub(crate) fn reserve(flash: &UllConfig, out: &mut Output) {
    const CALLS: usize = 200_000;
    let dies = (flash.channels * flash.dies_per_channel) as usize;
    let ns = rounds(CALLS, || {
        let mut g = TimelineGroup::new(dies);
        for i in 0..CALLS {
            black_box(g.reserve(i % dies, i as u64 * 500, 16_000));
        }
    });
    out.metrics.set("sim.reserve_ns", ns);
}

/// `EventQueue::push` + `pop` with `occupancy` events pending.
pub(crate) fn events(occupancy: u64, out: &mut Output) {
    const CALLS: usize = 200_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let ns = rounds(CALLS, || {
        let mut q = EventQueue::with_capacity(occupancy as usize + 1);
        for _ in 0..occupancy.max(1) {
            q.push(next() % 1_000_000, 0u64);
        }
        for _ in 0..CALLS {
            let e = q.pop().expect("the queue is never empty");
            q.push(e.at + next() % 100_000, black_box(e.payload));
        }
    });
    out.metrics.set("sim.event_ns", ns);
}

/// `Histogram::record` fed the run's own latencies.
pub(crate) fn record(lats: &[u64], out: &mut Output) {
    if lats.is_empty() {
        return;
    }
    let ns = rounds(lats.len(), || {
        let mut h = Histogram::new();
        for &v in lats {
            h.record(black_box(v));
        }
        black_box(h.count());
    });
    out.metrics.set("metrics.record_ns", ns);
}

/// `Ssd::report` on the end-of-run device.
pub(crate) fn report(ssd: &Ssd, name: &str, out: &mut Output) {
    let ns = rounds(1, || {
        black_box(ssd.report(name));
    });
    out.metrics.set("metrics.report_ms", ns / 1e6);
}

//! Property-based tests for the FTL substrate.

use cagc_ftl::{Allocator, MappingTable, Region, ReverseMap, VictimCandidate, VictimKind,
               VictimSelector};
use cagc_harness::prop::*;
use std::collections::HashMap;

harness_proptest! {
    /// Mapping table + reverse map stay mutually consistent under random
    /// map/remap/unmap traffic; total_refs equals mapped_count.
    #[test]
    fn forward_and_reverse_maps_agree(ops in vec((0u8..2, 0u64..50, 0u64..200), 1..400)) {
        let mut fwd = MappingTable::new(50);
        let mut rev = ReverseMap::new();
        for &(op, lpn, ppn) in &ops {
            match op {
                0 => {
                    // write lpn -> ppn
                    if let Some(old) = fwd.set(lpn, ppn) {
                        rev.remove(old, lpn);
                    }
                    rev.add(ppn, lpn);
                }
                _ => {
                    // trim lpn
                    if let Some(old) = fwd.clear(lpn) {
                        rev.remove(old, lpn);
                    }
                }
            }
            prop_assert_eq!(rev.total_refs(), fwd.mapped_count());
        }
        // Every forward entry appears exactly once in the reverse map.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (_, ppn) in fwd.iter_mapped() {
            *counts.entry(ppn).or_default() += 1;
        }
        for (&ppn, &n) in &counts {
            prop_assert_eq!(rev.count(ppn), n);
        }
    }

    /// The allocator never double-hands-out a block, never exceeds device
    /// page capacity per block, and conserves blocks across release cycles.
    #[test]
    fn allocator_conserves_blocks(
        total in 8u32..64,
        ppb in 1u32..16,
        steps in vec((any::<bool>(), any::<bool>()), 1..300),
    ) {
        let reserve = 2u32.min(total - 4);
        let mut a = Allocator::new(total, ppb, reserve);
        let mut pages_in_block: HashMap<u32, u32> = HashMap::new();
        let mut closed: Vec<u32> = Vec::new();

        for &(cold, for_gc) in &steps {
            let region = if cold { Region::Cold } else { Region::Hot };
            if let Some(b) = a.alloc_page(region, for_gc) {
                let n = pages_in_block.entry(b).or_default();
                *n += 1;
                prop_assert!(*n <= ppb, "block {b} over-programmed");
                prop_assert_eq!(a.region_of(b), Some(region));
                if *n == ppb {
                    closed.push(b);
                }
            } else if !closed.is_empty() {
                // Simulate GC: erase and release the oldest closed block.
                let b = closed.remove(0);
                pages_in_block.remove(&b);
                a.release(b);
            }
            // Conservation: free + open + closed-tracked == total.
            let open_count = (0..total).filter(|&b| a.is_open(b)).count() as u32;
            let accounted = a.free_blocks() + open_count
                + closed.len() as u32
                + pages_in_block.keys().filter(|&&b| !a.is_open(b) && !closed.contains(&b)).count() as u32;
            prop_assert_eq!(accounted, total);
        }
    }

    /// All policies return a member of the candidate set.
    #[test]
    fn victim_selection_is_closed_over_candidates(
        n in 1usize..32, seed in any::<u64>(), now in 0u64..1_000_000_000
    ) {
        let cands: Vec<VictimCandidate> = (0..n as u32)
            .map(|b| VictimCandidate {
                block: b,
                valid: (b * 7) % 64,
                invalid: 64 - (b * 7) % 64,
                trimmed: (b * 3) % (64 - (b * 7) % 64 + 1),
                stranded: 0,
                pages: 64,
                erase_count: b % 5,
                last_modified: (b as u64) * 1000,
            })
            .collect();
        for kind in VictimKind::ALL {
            let mut s = VictimSelector::new(kind, seed);
            let pick = s.select_streaming(cands.iter().copied(), now).expect("non-empty candidates");
            prop_assert!(cands.iter().any(|c| c.block == pick), "{kind:?} invented a block");
        }
    }

    /// Greedy is optimal in reclaimed-invalid-pages among the candidates.
    #[test]
    fn greedy_maximizes_invalid(seed in any::<u64>(), n in 1usize..40) {
        let cands: Vec<VictimCandidate> = (0..n as u32)
            .map(|b| VictimCandidate {
                block: b,
                valid: 64 - (b.wrapping_mul(13) % 65),
                invalid: b.wrapping_mul(13) % 65,
                trimmed: b.wrapping_mul(5) % (b.wrapping_mul(13) % 65 + 1),
                stranded: 0,
                pages: 64,
                erase_count: 0,
                last_modified: 0,
            })
            .collect();
        let mut s = VictimSelector::new(VictimKind::Greedy, seed);
        let pick = s.select_streaming(cands.iter().copied(), 0).unwrap();
        let picked = cands.iter().find(|c| c.block == pick).unwrap();
        let best = cands.iter().map(|c| c.invalid).max().unwrap();
        prop_assert_eq!(picked.invalid, best);
    }
}

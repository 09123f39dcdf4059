//! Garbage collection: one budgeted engine and the two page migrators.
//!
//! This module implements the workflow of Fig. 5 as one loop,
//! `Ssd::gc_run`:
//!
//! 1. a caller decides GC is due — the free-space watermark on a host
//!    write (`Ssd::maybe_gc`), an allocation stall, an idle window, the
//!    host interface's pump ([`Ssd::gc_pump`]) or [`Ssd::force_gc`];
//! 2. the suspended `GcJob` is resumed, or a victim is selected by the
//!    configured policy — Greedy from the device's dense per-block index
//!    plus its short list of part-written blocks, every other policy by
//!    streaming the whole candidate set;
//! 3. up to a page budget of still-valid pages are read out; under
//!    **CAGC** each page is fingerprinted on the hash engine *in parallel*
//!    with die work (reads of later pages, programs, the previous victim's
//!    erase) and probed in the fingerprint index: a hit absorbs the page
//!    into the existing stored copy (metadata-only — the redundant write
//!    is eliminated), a miss programs it into a region chosen by its
//!    reference count (Sec. III-C);
//! 4. the victim is erased once its last valid page is safely elsewhere,
//!    and the next victim's migration overlaps the erase.
//!
//! Collecting a whole victim is a run with no page budget. Preemptible GC
//! ([`crate::SsdConfig::gc_preempt`]) gives each run a `gc_slice_pages`
//! budget and leaves the rest of the victim suspended — Nagel et al.'s
//! time-budgeted partial GC. The trace context, the `gc_round`/`gc_slice`
//! container span, busy time, the GC-period horizon and the stall valve
//! all live in that one loop.
//!
//! Baseline and Inline-Dedupe use the blind migrator: every valid page is
//! copied, no content processing (Inline-Dedupe already deduplicated on the
//! write path, so its GC never sees redundant pages).

use cagc_dedup::Fingerprint;
use cagc_flash::{BlockId, FlashError, JournalOp, PageOob, PageState, Ppn};
use cagc_ftl::{Region, VictimCandidate, VictimKind};
use cagc_sim::time::Nanos;
use cagc_trace::Track;

use crate::config::Scheme;
use crate::ssd::{fp_stamp, Ssd, TraceCtx};

/// A victim being collected: its valid pages, snapshotted when it was
/// selected, and how far migration has got. Between preemptible slices
/// the job is suspended in `Ssd::gc_job`; pages invalidated meanwhile
/// (foreground overwrites, dedup absorption) are re-checked and skipped
/// when their turn comes.
#[derive(Debug, Clone)]
pub(crate) struct GcJob {
    /// Victim block being drained. It stays out of the frontier pool until
    /// its erase, and no victim is selected while a job is suspended, so
    /// no other GC run touches it.
    pub victim: BlockId,
    /// Snapshot of the victim's valid pages at selection.
    pub pages: Vec<Ppn>,
    /// Next index into `pages` to migrate.
    pub next: usize,
}

/// When a [`Ssd::gc_run`] stops, and whether a run that finds nothing to
/// collect still counts as a GC period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GcStop {
    /// After one victim, or one slice when page-budgeted. Finding nothing
    /// to collect leaves no trace (allocation stalls, [`Ssd::force_gc`],
    /// idle windows, [`Ssd::gc_pump`]).
    Once,
    /// Like `Once`, but the free-space watermark fired: the trigger opens
    /// a GC period even when nothing is collectable.
    Trigger,
    /// Urgent escalation: drain the suspended job, then collect whole
    /// victims until free space reaches the low watermark, giving up after
    /// two victims in a row that free no block.
    Urgent,
}

impl Ssd {
    /// Run GC if the free-space watermark demands it. Returns when the
    /// run's *space reclamation* is complete (the last erase): free
    /// blocks exist logically as soon as this returns, so the foreground
    /// proceeds immediately — GC interference reaches user requests through
    /// die contention (reads/programs/erases reserved on the die timelines),
    /// which is exactly how GC hurts foreground I/O in a real SSD and the
    /// effect Figs. 11/12 measure.
    ///
    /// Run-to-completion GC collects one whole victim per trigger
    /// (FlashSim-style: re-checked on the next write). Preemptible GC
    /// escalates below `gc_urgent_fraction` (preemption suspended until
    /// the low watermark clears); otherwise, with a job pending or free
    /// space below the low watermark, it runs one slice and yields.
    pub(crate) fn maybe_gc(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        let free = self.alloc.free_fraction();
        let (budget, stop) = if !self.cfg.gc_preempt {
            (None, GcStop::Trigger)
        } else if free < self.cfg.gc_urgent_fraction {
            (None, GcStop::Urgent)
        } else {
            (Some(self.cfg.gc_slice_pages), GcStop::Trigger)
        };
        if stop == GcStop::Trigger && self.gc_job.is_none() && !self.trigger.should_start(free) {
            return Ok(now);
        }
        let end = self.gc_run(now, budget, stop)?;
        if end.is_none() && !self.cfg.gc_preempt {
            // Run-to-completion GC counts the trigger even when no victim
            // is reclaimable.
            self.gc_stats.invocations += 1;
        }
        Ok(end.unwrap_or(now))
    }

    /// Background GC inside an idle window (enabled by
    /// [`crate::SsdConfig::idle_gc`]). If the gap between the previous
    /// request's completion and this arrival exceeds the idle threshold
    /// and free space sits below the high watermark, victims are collected
    /// on the *idle window's* clock — their die reservations largely drain
    /// before the new request arrives, so the foreground barely notices.
    pub(crate) fn maybe_idle_gc(&mut self, arrival: Nanos) -> Result<(), FlashError> {
        if !self.cfg.idle_gc {
            return Ok(());
        }
        let mut t = self.last_completion().saturating_add(self.cfg.idle_threshold_ns);
        while t < arrival && self.alloc.free_fraction() < self.cfg.gc_high {
            let before = self.alloc.free_blocks();
            t = self.gc_run(t, None, GcStop::Once)?.unwrap_or(t);
            if self.alloc.free_blocks() <= before {
                break; // nothing reclaimable
            }
        }
        Ok(())
    }

    /// Collect one victim right now, regardless of the watermark (a
    /// suspended preemptible job is finished first). Returns the erase
    /// completion time (or `now` if no block is reclaimable).
    ///
    /// Foreground-triggered GC goes through the watermark path
    /// automatically during [`Ssd::process`]; this entry point exists for
    /// scripted scenarios, tests and idle-time collection policies built
    /// on top of the simulator.
    pub fn force_gc(&mut self, now: Nanos) -> Nanos {
        self.gc_run(now, None, GcStop::Once).ok().flatten().unwrap_or(now)
    }

    /// Advance preemptible GC by one quantum on the *caller's* clock —
    /// the host-interface idle hook (`cagc-host`'s pump). Returns the
    /// quantum's completion time when work was done, `None` when there is
    /// nothing to do (preemption disabled, free space already above the
    /// high watermark with no suspended job, or no reclaimable victim).
    /// A mid-slice power loss is absorbed (`None`); the next host command
    /// observes the crash exactly as with [`Ssd::force_gc`].
    pub fn gc_pump(&mut self, now: Nanos) -> Option<Nanos> {
        if !self.cfg.gc_preempt
            || (self.gc_job.is_none() && self.alloc.free_fraction() >= self.cfg.gc_high)
        {
            return None;
        }
        self.gc_run(now, Some(self.cfg.gc_slice_pages), GcStop::Once).ok().flatten()
    }

    /// The GC engine. Each step resumes the suspended job or selects a
    /// victim, migrates up to `page_budget` of its still-valid pages
    /// (`None`: all of them), then erases the victim if it is drained and
    /// suspends it otherwise. `stop` says how many steps to run.
    ///
    /// Returns the completion of the run's last operation, or `None` when
    /// there was nothing to collect. A power loss propagates without any
    /// span or busy-time bookkeeping; the suspended job is dropped with it
    /// (recovery supersedes it).
    pub(crate) fn gc_run(
        &mut self,
        now: Nanos,
        page_budget: Option<u32>,
        stop: GcStop,
    ) -> Result<Option<Nanos>, FlashError> {
        // GC is always traced (sampling applies to host ops only); the
        // context renames die spans to migrate_read/migrate_write and is
        // restored on exit so a sampled host request resumes its own spans.
        let prev_ctx = self.tctx;
        if self.tracer.is_enabled() {
            self.tctx = TraceCtx::Gc;
        }
        if stop == GcStop::Urgent {
            self.tracer.instant(
                Track::Gc,
                "gc_urgent",
                now,
                &[("free_blocks", u64::from(self.alloc.free_blocks()))],
            );
        }
        let budget = page_budget.map_or(usize::MAX, |p| p as usize);
        // `cursor` is when the next victim's migration may start — it
        // overlaps the previous victim's erase (Sec. III-B parallelism;
        // per-die timelines serialize same-die conflicts). `end` tracks
        // the last completion.
        let (mut cursor, mut end) = (now, now);
        let (mut victims, mut stalls) = (0u64, 0u32);
        // The last step's (pages migrated, victim, pages left).
        let mut last = None;
        let outcome = loop {
            let free_before = self.alloc.free_blocks();
            let mut job = match self.gc_job.take() {
                Some(job) => job,
                None if stop == GcStop::Urgent
                    && self.alloc.free_fraction() >= self.cfg.gc_low =>
                {
                    break Ok(())
                }
                None => {
                    let Some(victim) = self.select_victim(cursor) else { break Ok(()) };
                    self.gc_stats.invocations += 1;
                    let mut pages = std::mem::take(&mut self.gc_pages);
                    pages.clear();
                    let geom = *self.dev.geometry();
                    self.dev.block(victim).for_each_valid(|p| pages.push(geom.ppn(victim, p)));
                    GcJob { victim, pages, next: 0 }
                }
            };
            let (moved, done, erase_end) = match self.gc_step(&mut job, budget, cursor) {
                Ok(step) => step,
                Err(e) => break Err(e),
            };
            cursor = done;
            end = end.max(erase_end.unwrap_or(done));
            last = Some((moved, job.victim, job.pages.len() - job.next));
            if erase_end.is_some() {
                victims += 1;
                self.gc_pages = job.pages;
            } else {
                self.gc_job = Some(job);
            }
            if stop != GcStop::Urgent {
                break Ok(());
            }
            // Safety valve: a victim so full of valid pages that migrating
            // it consumed as many blocks as it freed makes no net progress;
            // two such victims in a row means the device is effectively out
            // of reclaimable space for this run.
            if self.alloc.free_blocks() <= free_before {
                stalls += 1;
                if stalls >= 2 {
                    break Ok(());
                }
            } else {
                stalls = 0;
            }
        };
        self.tctx = prev_ctx;
        outcome?;
        if last.is_none() && stop == GcStop::Once {
            return Ok(None);
        }
        match (page_budget, last) {
            (Some(_), Some((pages, victim, remaining))) => {
                let erased = u64::from(remaining == 0);
                self.tracer.span(
                    Track::Gc,
                    "gc_slice",
                    now,
                    end,
                    &[("pages", pages), ("victim", u64::from(victim)), ("erased", erased)],
                );
                if remaining > 0 {
                    self.tracer
                        .instant(Track::Gc, "gc_yield", end, &[("remaining", remaining as u64)]);
                }
            }
            (None, _) if victims > 0 => {
                self.tracer.span(Track::Gc, "gc_round", now, end, &[("victims", victims)]);
            }
            _ => {}
        }
        self.gc_stats.busy_ns += end - now;
        self.gc_active_until = self.gc_active_until.max(end);
        Ok(last.map(|_| end))
    }

    /// Migrate up to `budget` still-valid pages of `job` starting at `t`,
    /// then erase the victim if that drained it. Returns `(pages migrated,
    /// migration done, erase end if drained)`.
    fn gc_step(
        &mut self,
        job: &mut GcJob,
        budget: usize,
        t: Nanos,
    ) -> Result<(u64, Nanos, Option<Nanos>), FlashError> {
        let mut done = t;
        let mut moved = 0usize;
        if self.cfg.scheme == Scheme::Cagc {
            let mut read_ready = t;
            while moved < budget && job.next < job.pages.len() {
                let ppn = job.pages[job.next];
                job.next += 1;
                // The snapshot may be stale: a foreground overwrite between
                // slices, or a promotion earlier in this pass (its stored
                // copy lived later in the same victim), can have drained
                // this page already.
                if self.dev.page_state(ppn) != PageState::Valid {
                    continue;
                }
                moved += 1;
                let (end, next_ready) =
                    self.migrate_page_content_aware(job.victim, ppn, read_ready)?;
                read_ready = next_ready;
                done = done.max(end);
            }
        } else {
            // Pre-filter this step's still-valid pages, then migrate them
            // as one grouped batch. Blind migration never invalidates other
            // snapshot pages, so the pre-filter cannot go stale mid-batch.
            let mut batch = std::mem::take(&mut self.valids_scratch);
            batch.clear();
            while batch.len() < budget && job.next < job.pages.len() {
                let ppn = job.pages[job.next];
                job.next += 1;
                if self.dev.page_state(ppn) == PageState::Valid {
                    batch.push(ppn);
                }
            }
            moved = batch.len();
            let res = self.migrate_blind(&batch, t);
            self.valids_scratch = batch;
            done = done.max(res?);
        }
        let erase_end = if job.next == job.pages.len() {
            Some(self.erase_victim(job.victim, done)?)
        } else {
            None
        };
        Ok((moved as u64, done, erase_end))
    }

    /// Ask the configured policy for a victim. Candidates are the closed,
    /// non-retired blocks whose erase would reclaim something: invalid
    /// pages, or free pages stranded behind a closed write pointer. A
    /// program failure (or recovery) closes a frontier early; without
    /// counting its stranded pages such a block is invisible to GC and its
    /// free pages are lost until an overwrite happens to land there, which
    /// under sustained fault injection starves foreground allocation.
    ///
    /// Greedy is answered from the device's dense index of full blocks
    /// plus its short list of part-written ones — the only candidates the
    /// index cannot see. Every other policy streams the whole candidate
    /// set. The traced `victim_select` instant and the `stranded_pages`
    /// gauge need only the chosen block, the index's candidate count and
    /// that short list.
    fn select_victim(&mut self, now: Nanos) -> Option<BlockId> {
        let dev = &self.dev;
        let alloc = &self.alloc;
        let candidate = |b| victim_candidate(dev, b);
        // Part-written blocks that are not open frontiers: closed early.
        let stranded = || dev.partial_blocks().iter().copied().filter(|&b| !alloc.is_open(b));
        let chosen = if self.selector.kind() == VictimKind::Greedy {
            let full = dev.greedy_full_victim();
            self.selector.select_streaming(full.into_iter().chain(stranded()).map(candidate), now)
        } else {
            let all = (0..dev.block_count()).filter(|&b| {
                let blk = dev.block(b);
                !alloc.is_open(b)
                    && !dev.is_retired(b)
                    && !blk.is_free()
                    && blk.invalid_count() + blk.free_count() > 0
            });
            self.selector.select_streaming(all.map(candidate), now)
        };
        let stranded_pages = stranded().map(|b| u64::from(dev.block(b).free_count())).sum();
        self.tracer.gauge("stranded_pages", now, stranded_pages);
        if let Some(block) = chosen {
            let blk = dev.block(block);
            let candidates = u64::from(dev.full_victim_candidates()) + stranded().count() as u64;
            self.tracer.instant(
                Track::Gc,
                "victim_select",
                now,
                &[
                    ("block", u64::from(block)),
                    ("valid", u64::from(blk.valid_count())),
                    ("invalid", u64::from(blk.invalid_count())),
                    ("candidates", candidates),
                ],
            );
        }
        chosen
    }

    /// Erase a fully-drained victim at `done`: snapshot trim attribution,
    /// issue the erase, and fold the outcome (release / bad-block
    /// retirement) into the allocator. Returns the erase completion time.
    fn erase_victim(&mut self, victim: BlockId, done: Nanos) -> Result<Nanos, FlashError> {
        let geom = *self.dev.geometry();
        // Snapshot before the erase resets the block's trim attribution:
        // every trim-invalidated page reclaimed here is a migration avoided.
        self.gc_stats.trim_reclaimed_pages += self.dev.block(victim).trimmed_count() as u64;
        let erase_end = match self.dev.erase(victim, done) {
            Ok(r) => {
                if self.tracer.is_enabled() {
                    let track = Track::Die {
                        channel: geom.die_of_block(victim) / geom.dies_per_channel,
                        die: geom.die_of_block(victim),
                    };
                    self.tracer.span(
                        track,
                        "erase",
                        r.start,
                        r.end,
                        &[("block", u64::from(victim)), ("queued_ns", r.queued)],
                    );
                }
                self.alloc.release(victim);
                self.gc_stats.blocks_erased += 1;
                r.end
            }
            Err(FlashError::EraseFailed { at, .. }) => {
                self.tracer.instant(
                    Track::Fault,
                    "erase_failed_retired",
                    at,
                    &[("block", u64::from(victim))],
                );
                // The device already moved the block to its bad-block
                // table; mirror the retirement in the allocator so the
                // block leaves the frontier/victim pool for good. Every
                // valid page was migrated before the erase was issued, so
                // no data is stranded — only capacity is lost.
                self.alloc.retire(victim);
                self.first_retirement_ns.get_or_insert(at);
                at
            }
            Err(FlashError::PowerLoss) => return Err(FlashError::PowerLoss),
            Err(e) => panic!("GC erase of block {victim} failed: {e}"),
        };
        Ok(erase_end)
    }

    /// Blind migration: read + rewrite every valid page (Fig. 3), in two
    /// grouped passes. Pass 1 issues every read + program back-to-back
    /// (this fixes the flash timing — identical to the old per-page loop,
    /// since reads all started at `t` and programs all queued in the same
    /// order); pass 2 then updates mapping, reverse-map, index and
    /// invalidation state for the whole batch. Grouping the metadata pass
    /// keeps it in cache and lets each relocation take the O(1)
    /// [`cagc_ftl::ReverseMap::relocate`] path. Blind migration never
    /// touches other snapshot pages (no dedup absorption), so deferring
    /// the metadata updates cannot change what later pages observe; each
    /// source is invalidated at its *own* program-completion time, exactly
    /// as before.
    fn migrate_blind(&mut self, valids: &[Ppn], t: Nanos) -> Result<Nanos, FlashError> {
        let mut done = t;
        let mut batch = std::mem::take(&mut self.gc_batch);
        batch.clear();
        for &ppn in valids {
            self.gc_stats.pages_scanned += 1;
            let read_end = match self.read_flash(ppn, t) {
                Ok(v) => v,
                Err(e) => {
                    self.gc_batch = batch;
                    return Err(e);
                }
            };
            // Inline schemes track migrated pages in the index; carry the
            // fingerprint stamp so the relocated copy stays recoverable.
            let stamp = self.index.fp_of_ppn(ppn).map(|fp| fp_stamp(&fp));
            match self.program_region(Region::Hot, true, PageOob::gc(stamp), read_end) {
                Ok((end, new_ppn)) => {
                    // The program physically copied the cells: record the
                    // content before any later fallible step can tear the
                    // relocation (recovery rebuilds the rest from OOB +
                    // journal whether or not pass 2 ran).
                    self.content_of[new_ppn as usize] = self.content_of[ppn as usize];
                    batch.push((ppn, new_ppn, end));
                    done = done.max(end);
                }
                Err(e) => {
                    self.gc_batch = batch;
                    return Err(e);
                }
            }
        }
        for i in 0..batch.len() {
            let (old, new, end) = batch[i];
            if let Err(e) = self.remap_sharers(old, new) {
                self.gc_batch = batch;
                return Err(e);
            }
            if self.index.fp_of_ppn(old).is_some() {
                self.index.relocate(old, new);
            }
            self.dev.invalidate(old, end);
            self.gc_stats.pages_migrated += 1;
        }
        batch.clear();
        self.gc_batch = batch;
        Ok(done)
    }

    /// Content-aware migration of one page (the Fig. 5 per-page pipeline):
    /// read, fingerprint on the hash engine, probe the index, then absorb
    /// or place by reference count. Returns `(completion, next_read_ready)`
    /// — the second value carries the hash-serialization stall of the
    /// `overlap_hash = false` ablation to the following page.
    fn migrate_page_content_aware(
        &mut self,
        victim: BlockId,
        ppn: Ppn,
        read_ready: Nanos,
    ) -> Result<(Nanos, Nanos), FlashError> {
        self.gc_stats.pages_scanned += 1;
        let read_end = self.read_flash(ppn, read_ready)?;
        // Fingerprint on the dedicated engine. With overlap enabled the
        // engine runs beside the dies; the ablation serializes the
        // pipeline by stalling the next read until the hash finishes.
        let h = self.hash.hash_page(read_end);
        self.tracer
            .span(Track::Hash, "fingerprint", h.start, h.end, &[("ppn", ppn)]);
        let next_ready = if self.cfg.overlap_hash { read_ready } else { h.end };
        let decided = h.end + self.cfg.lookup_ns;
        let content = self.content_at(ppn);
        // Memoized: the simulated hash cost was charged above; the memo
        // only avoids recomputing the same SHA-1 on the wall clock.
        let fp = self.fingerprint_of(content);

        let end = match self.index.lookup(&fp) {
            Some(entry) if entry.ppn != ppn => {
                // Redundant page: the content already has a stored copy
                // elsewhere. Absorb all sharers — no flash write.
                self.gc_stats.dedup_hits += 1;
                self.tracer.instant(
                    Track::Gc,
                    "dedup_drop",
                    decided,
                    &[("from", ppn), ("to", entry.ppn), ("refs", u64::from(entry.refs))],
                );
                self.absorb_into(ppn, entry.ppn, &fp, decided)?
            }
            Some(entry) => {
                // This page *is* the stored copy: migrate it, choosing
                // the region by its current reference count.
                let dest = self.region_for_refs(entry.refs);
                let src = self.alloc.region_of(victim).unwrap_or(Region::Hot);
                let (end, _) = self.relocate_page(ppn, dest, Some(fp_stamp(&fp)), decided)?;
                self.gc_stats.pages_migrated += 1;
                match (src, dest) {
                    (Region::Hot, Region::Cold) => self.gc_stats.promotions += 1,
                    (Region::Cold, Region::Hot) => self.gc_stats.demotions += 1,
                    _ => {}
                }
                end
            }
            None => {
                // First time this content passes through GC: fingerprint
                // it into the index and place it (a single sharer ⇒ hot).
                let sharers = self.rmap.count(ppn) as u32;
                debug_assert!(sharers >= 1, "valid page with no sharers");
                let dest = self.region_for_refs(sharers);
                let (end, new_ppn) = self.relocate_page(ppn, dest, Some(fp_stamp(&fp)), decided)?;
                self.index.insert(fp, new_ppn, sharers);
                self.gc_stats.pages_migrated += 1;
                end
            }
        };
        Ok((end, next_ready))
    }

    /// Sec. III-C placement rule: refcount above the threshold ⇒ cold.
    fn region_for_refs(&self, refs: u32) -> Region {
        if self.cfg.placement && refs > self.cfg.cold_threshold {
            Region::Cold
        } else {
            Region::Hot
        }
    }

    /// Dedup hit during migration: remap every sharer of `from` onto the
    /// stored copy at `to`, bump its refcount, and invalidate `from`
    /// without a write. May then *promote* the stored copy to the cold
    /// region if the merge pushed its refcount across the threshold
    /// (Fig. 5's "Ref == threshold?" branch). Returns the completion time.
    fn absorb_into(
        &mut self,
        from: Ppn,
        to: Ppn,
        fp: &Fingerprint,
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let mut sharers = std::mem::take(&mut self.sharers_scratch);
        self.rmap.take_into(from, &mut sharers);
        debug_assert!(!sharers.is_empty(), "absorbing a page with no sharers");
        let n = sharers.len() as u32;
        for &l in &sharers {
            self.map.set(l, to);
            self.rmap.add(to, l);
            // Durable record *before* `from` is invalidated (and its block
            // eventually erased) — this is the dedup-during-GC crash
            // window recovery has to close: a crash between here and the
            // victim erase must find every sharer already remapped.
            if let Err(e) = self.journal(JournalOp::Remap { lpn: l, ppn: to }) {
                self.sharers_scratch = sharers;
                return Err(e);
            }
        }
        self.sharers_scratch = sharers;
        let new_refs = self.index.add_refs(fp, n);
        self.dev.invalidate(from, now);

        // Promotion: the stored copy lives in a hot-region block but its
        // refcount now exceeds the threshold — move it cold as part of this
        // GC pass. Two exclusions keep this from wasting writes: a copy
        // still sitting in an *open* frontier was programmed moments ago
        // (typically by this very GC pass — rewriting it immediately would
        // be pure churn; it will be placed cold when its block is
        // collected), and a copy inside the current victim will be
        // migrated, with the correct region, when its turn comes.
        let stored_block = self.dev.geometry().block_of(to);
        if self.cfg.placement
            && new_refs > self.cfg.cold_threshold
            && self.alloc.region_of(stored_block) == Some(Region::Hot)
            && !self.alloc.is_open(stored_block)
        {
            let read_end = self.read_flash(to, now)?;
            let (end, _) = self.relocate_page(to, Region::Cold, Some(fp_stamp(fp)), read_end)?;
            self.gc_stats.pages_migrated += 1;
            self.gc_stats.promotions += 1;
            return Ok(end);
        }
        Ok(now)
    }

    /// Move one valid page to the `dest` frontier: program a copy, remap
    /// every sharer (each remap journaled — the durable record a crash
    /// before the source's erase recovers from), carry index/content
    /// metadata, and invalidate the source. Returns the program completion
    /// time and the new PPN.
    fn relocate_page(
        &mut self,
        ppn: Ppn,
        dest: Region,
        fp_stamp: Option<u64>,
        ready: Nanos,
    ) -> Result<(Nanos, Ppn), FlashError> {
        let (end, new_ppn) = self.program_region(dest, true, PageOob::gc(fp_stamp), ready)?;
        // The program physically copied the cells: record the content
        // before any later fallible step can tear this relocation.
        self.content_of[new_ppn as usize] = self.content_of[ppn as usize];
        self.remap_sharers(ppn, new_ppn)?;
        if self.index.fp_of_ppn(ppn).is_some() {
            self.index.relocate(ppn, new_ppn);
        }
        self.dev.invalidate(ppn, end);
        Ok((end, new_ppn))
    }

    /// Point every sharer of `old` at `new` (a freshly-programmed copy with
    /// no sharers of its own), in forward map, reverse map and — when fault
    /// injection is armed — the journal.
    ///
    /// The forward entries are retargeted in place and the reverse-map slot
    /// moves wholesale ([`cagc_ftl::ReverseMap::relocate`], O(1) and
    /// allocation-free). With faults armed, each sharer of `new` is then
    /// journaled in slot order. A crash part-way through the journal leaves
    /// only volatile maps ahead of it, and [`Ssd::recover`] rebuilds those
    /// from OOB plus journal.
    fn remap_sharers(&mut self, old: Ppn, new: Ppn) -> Result<(), FlashError> {
        debug_assert!(self.rmap.count(old) > 0, "relocating an unreferenced page");
        for &l in self.rmap.lpns(old) {
            self.map.set(l, new);
        }
        self.rmap.relocate(old, new);
        if self.dev.faults_active() {
            for i in 0..self.rmap.count(new) {
                let lpn = self.rmap.lpns(new)[i];
                self.journal(JournalOp::Remap { lpn, ppn: new })?;
            }
        }
        Ok(())
    }
}

/// Block `b`'s state as the victim policies see it.
fn victim_candidate(dev: &cagc_flash::FlashDevice, b: BlockId) -> VictimCandidate {
    let blk = dev.block(b);
    VictimCandidate {
        block: b,
        valid: blk.valid_count(),
        invalid: blk.invalid_count(),
        trimmed: blk.trimmed_count(),
        stranded: blk.free_count(),
        pages: blk.pages(),
        erase_count: blk.erase_count(),
        last_modified: blk.last_modified(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;
    use cagc_flash::FaultConfig;
    use cagc_ftl::VictimSelector;
    use cagc_workloads::SynthConfig;

    /// Greedy over a walk of every block: the reference the dense index
    /// plus the part-written list must reproduce.
    fn scanned_greedy(ssd: &Ssd) -> Option<BlockId> {
        let dev = &ssd.dev;
        let all = (0..dev.block_count()).filter(|&b| {
            let blk = dev.block(b);
            !ssd.alloc.is_open(b)
                && !dev.is_retired(b)
                && !blk.is_free()
                && blk.invalid_count() + blk.free_count() > 0
        });
        VictimSelector::new(VictimKind::Greedy, 0)
            .select_streaming(all.map(|b| victim_candidate(dev, b)), 0)
    }

    /// Program failures close host frontiers early, and a forced program
    /// that fails unrecoverably leaves its allocated page unwritten, so
    /// the frontier later rotates out short of full. Both leave stranded
    /// blocks the dense index cannot see; Greedy must still match the scan.
    #[test]
    fn greedy_index_and_part_written_list_match_a_full_scan() {
        let flash = cagc_flash::UllConfig::tiny_for_tests();
        let trace = SynthConfig {
            name: "stranded".into(),
            requests: 4_000,
            logical_pages: (flash.logical_pages() as f64 * 0.9) as u64,
            write_ratio: 0.9,
            mean_req_pages: 2.5,
            max_req_pages: 8,
            seed: 11,
            ..Default::default()
        }
        .generate();
        for unrecoverable_prob in [0.0, 0.2] {
            let mut cfg = SsdConfig::tiny(Scheme::Baseline);
            cfg.max_program_retries = 1;
            cfg.faults = FaultConfig {
                program_fail_prob: 0.05,
                erase_fail_prob: 0.005,
                read_ecc_prob: 0.01,
                unrecoverable_prob,
                seed: 9,
                ..FaultConfig::none()
            };
            let mut ssd = Ssd::new(cfg);
            let mut stranded_seen = 0usize;
            for req in &trace.requests {
                ssd.process(req);
                assert_eq!(ssd.select_victim(req.at_ns), scanned_greedy(&ssd));
                let alloc = &ssd.alloc;
                stranded_seen +=
                    ssd.dev.partial_blocks().iter().filter(|&&b| !alloc.is_open(b)).count();
            }
            assert!(stranded_seen > 0, "the faults must strand some blocks");
        }
    }
}

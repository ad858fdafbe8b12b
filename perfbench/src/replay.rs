//! Component replay: the access streams a traced pass captured, driven
//! into fresh standalone TLB, cache, DRAM and OMT-cache instances
//! through their public entry points. Each loop is timed as a whole and
//! divided by its call count, so the per-call host time of one layer is
//! measured without a timer inside the program.

use crate::common::median;
use po_cache::{CacheHierarchy, LookupResult};
use po_dram::DramModel;
use po_overlay::OmtCache;
use po_sim::SystemConfig;
use po_tlb::{Tlb, TlbEntry};
use po_types::{AccessKind, MainMemAddr, Opn, PhysAddr};
use std::hint::black_box;
use std::time::Instant;

/// One captured timed access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// The translation the TLB caches for the access's page.
    pub entry: TlbEntry,
    pub kind: AccessKind,
    /// The address the cache hierarchy sees (overlay or regular).
    pub cache_addr: PhysAddr,
    /// The main-memory address DRAM serves on a miss.
    pub mem_addr: MainMemAddr,
}

/// Mean host ns per call of each replayed entry point (0 when the
/// stream gave the layer nothing to do).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayNs {
    pub tlb_lookup: f64,
    pub cache_access: f64,
    pub dram_read: f64,
    pub omt_cache_access: f64,
}

const REPEATS: usize = 5;

fn ns_per_call(calls: usize, mut run: impl FnMut()) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

pub fn replay(stream: &[Access], config: &SystemConfig) -> ReplayNs {
    // The cache replay's full misses become the DRAM read stream, and
    // its overlay-address misses the OMT-cache stream, as in the
    // machine's fetch path.
    let mut caches = CacheHierarchy::new(config.hierarchy.clone());
    let mut dram_reads = Vec::new();
    let mut omt_refs: Vec<(Opn, bool)> = Vec::new();
    for a in stream {
        let out = caches.access(a.cache_addr, a.kind);
        if matches!(out.result, LookupResult::Miss) {
            dram_reads.push(a.mem_addr);
            if a.cache_addr.is_overlay() {
                omt_refs.push((a.cache_addr.opn(), a.kind.is_write()));
            }
            caches.fill(a.cache_addr, a.kind.is_write());
        }
    }

    let tlb_lookup = ns_per_call(stream.len(), || {
        let mut tlb = Tlb::new(config.tlb.clone());
        for a in stream {
            let e = a.entry;
            if black_box(tlb.lookup(e.asid, e.vpn)).entry.is_none() {
                tlb.fill(e);
            }
        }
        black_box(&tlb);
    });
    let cache_access = ns_per_call(stream.len(), || {
        let mut caches = CacheHierarchy::new(config.hierarchy.clone());
        for a in stream {
            let out = caches.access(a.cache_addr, a.kind);
            if matches!(out.result, LookupResult::Miss) {
                black_box(caches.fill(a.cache_addr, a.kind.is_write()));
            }
            black_box(out);
        }
    });
    let dram_read = ns_per_call(dram_reads.len(), || {
        let mut dram = DramModel::new(config.dram.clone());
        let mut now = 0;
        for &addr in &dram_reads {
            black_box(dram.read(now, addr));
            now += 16;
        }
        black_box(&dram);
    });
    let omt_cache_access = ns_per_call(omt_refs.len(), || {
        let mut omt = OmtCache::new(config.overlay.omt_cache_entries);
        for &(opn, modify) in &omt_refs {
            black_box(omt.access(opn, modify));
        }
    });
    ReplayNs { tlb_lookup, cache_access, dram_read, omt_cache_access }
}

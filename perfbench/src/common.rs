//! What every workload shares: the per-job result record, the per-pass
//! record, the per-layer counter collector, and small statistics.

use crate::replay::Access;
use crate::trace::Tracer;
use po_sim::{Machine, TraceOp};
use po_tlb::TlbEntry;
use po_types::{AccessKind, Asid, MainMemAddr, OBitVector, Opn, PhysAddr};
use std::collections::BTreeMap;
use std::time::Instant;

/// The simulated outcome of one job. Repeats of a job, and the traced
/// and untraced runs of it, must produce identical records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSim {
    pub label: String,
    /// Overlay side (overlay-on-write, overlay SpMV kernel) or baseline
    /// side (copy-on-write, CSR kernel) of a comparison pair.
    pub overlay: bool,
    /// Simulated cycles over the job's measured window.
    pub cycles: u64,
    /// Simulated cycles of the whole job (the window telemetry's CPI
    /// stack covers).
    pub total_cycles: u64,
    /// Simulated instructions the job executed in total.
    pub instructions: u64,
    /// The memory figure the paper compares (Fig 8 extra memory after
    /// fork; Fig 10 representation bytes).
    pub memory_bytes: u64,
    /// Fingerprint of the final machine snapshot (0 where the program
    /// does not expose the machine).
    pub fingerprint: u64,
    /// Closed-loop operations the job counts for.
    pub ops: u64,
}

/// One job of one pass: its simulated record, its host time, and the
/// host-speed reference kernel timed right after it.
#[derive(Clone, Debug)]
pub struct JobRun {
    pub sim: JobSim,
    pub host_s: f64,
    pub reference_s: f64,
    /// When the reference kernel ran.
    pub at: Instant,
}

impl JobRun {
    /// Records a job and times the reference kernel next to it.
    pub fn new(tr: &mut Tracer, sim: JobSim, host_s: f64) -> Self {
        let at = Instant::now();
        let reference_s = tr.time("bench.reference", reference_kernel);
        Self { sim, host_s, reference_s, at }
    }
}

/// Host times are reported scaled to a host that runs
/// [`reference_kernel`] in exactly this long.
pub const REFERENCE_NOMINAL_S: f64 = 0.6e-3;

thread_local! {
    static REFERENCE_TABLE: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(vec![0; 1 << 18]);
}

/// A fixed host-speed probe: dependent pseudo-random read-modify-writes
/// over a 2 MiB table, cache- and branch-sensitive like the simulator.
/// The first, untimed sweep pulls the table back into cache, so the
/// timed one does not depend on how much the preceding job evicted.
pub fn reference_kernel() -> f64 {
    REFERENCE_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let mut sweep = || {
            let mask = table.len() - 1;
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = (x as usize ^ table[i as usize & mask] as usize) & mask;
                table[k] = table[k].wrapping_add(x | i);
            }
        };
        sweep();
        let t = Instant::now();
        sweep();
        std::hint::black_box(&*table);
        t.elapsed().as_secs_f64()
    })
}

/// One pass over a workload's fixed, seed-determined work.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Host seconds spent generating inputs and constructing machines.
    pub setup_s: f64,
    pub jobs: Vec<JobRun>,
}

impl PassOut {
    pub fn sims(&self) -> Vec<JobSim> {
        self.jobs.iter().map(|j| j.sim.clone()).collect()
    }
}

/// Per-layer counters collected from the public `stats()` accessors of
/// the machines a traced pass drove, plus the access streams captured
/// for the component replay.
#[derive(Default)]
pub struct Layers {
    pub counts: BTreeMap<&'static str, f64>,
    pub fragmentation_max: f64,
    pub streams: Vec<Access>,
    /// Host ns of every `SimHarness::apply` call the traced pass made.
    pub apply_ns: Vec<u64>,
    /// Accesses to capture per job (0 disables capture).
    pub capture_per_job: usize,
}

impl Layers {
    pub fn with_capture(capture_per_job: usize) -> Self {
        Self { capture_per_job, ..Self::default() }
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every layer counter of a machine at the end of a job.
    pub fn absorb(&mut self, m: &Machine) {
        let s = m.snapshot();
        self.add("sim.loads", s.loads.get() as f64);
        self.add("sim.stores", s.stores.get() as f64);
        self.add("sim.promotions", s.promotions.get() as f64);
        self.add("sim.coherence_obit_msgs", s.coherence_obit_msgs.get() as f64);
        self.add("sim.coherence_invalidations", s.coherence_invalidations.get() as f64);
        self.add("sim.coherence_stall_cycles", s.coherence_stall_cycles.get() as f64);
        self.add("sim.contention_stall_cycles", s.contention_stall_cycles.get() as f64);

        let os = m.os().stats();
        self.add("vm.forks", os.forks.get() as f64);
        self.add("vm.cow_faults", os.cow_faults.get() as f64);
        self.add("vm.pages_copied", os.pages_copied.get() as f64);
        self.add("vm.frames_allocated", os.frames_allocated.get() as f64);
        self.add("vm.tlb_shootdowns", os.tlb_shootdowns.get() as f64);

        for core in 0..m.cores() {
            let t = m.tlb_of(core).stats();
            self.add("tlb.l1_hits", t.l1_hits.get() as f64);
            self.add("tlb.l2_hits", t.l2_hits.get() as f64);
            self.add("tlb.misses", t.misses.get() as f64);
            self.add("tlb.shootdowns", t.shootdowns.get() as f64);
            self.add("tlb.obit_updates", t.obit_updates.get() as f64);
        }

        let c = m.caches().stats();
        self.add("cache.l1_hits", c.l1_hits.get() as f64);
        self.add("cache.l2_hits", c.l2_hits.get() as f64);
        self.add("cache.l3_hits", c.l3_hits.get() as f64);
        self.add("cache.misses", c.misses.get() as f64);
        self.add("cache.prefetch_fills", c.prefetch_fills.get() as f64);

        let d = m.dram().stats();
        self.add("dram.reads", d.reads.get() as f64);
        self.add("dram.writes", d.writes.get() as f64);
        self.add("dram.bus_bytes", d.bus_bytes.get() as f64);
        self.add("dram.drains", d.drains.get() as f64);
        self.add("dram.row_hits", d.row_hits.get() as f64);
        self.add(
            "dram.row_accesses",
            (d.row_hits.get() + d.row_closed.get() + d.row_conflicts.get()) as f64,
        );

        let o = m.overlay().stats();
        self.add("overlay.overlaying_writes", o.overlaying_writes.get() as f64);
        self.add("overlay.simple_writes", o.simple_writes.get() as f64);
        self.add("overlay.evictions", o.evictions.get() as f64);
        self.add("overlay.segment_allocs", o.segment_allocs.get() as f64);
        self.add("overlay.migrations", o.migrations.get() as f64);
        self.add("overlay.commits", o.commits.get() as f64);
        self.add("overlay.discards", o.discards.get() as f64);
        self.add("overlay.reclaims", o.reclaims.get() as f64);
        let oc = m.overlay().omt_cache().stats();
        self.add("omt_cache.hits", oc.hits.get() as f64);
        self.add("omt_cache.misses", oc.misses.get() as f64);
        let store = m.overlay().store();
        self.add("oms.bytes_in_use", store.bytes_in_use() as f64);
        self.add("oms.compaction_passes", store.stats().compaction_passes.get() as f64);
        self.add("oms.relocated_bytes", store.stats().relocated_bytes.get() as f64);
        self.fragmentation_max = self.fragmentation_max.max(store.fragmentation_ratio());
    }

    /// Captures up to `capture_per_job` timed accesses of `ops` (as
    /// process `asid`) for the component replay, resolved against the
    /// machine's end-of-job translation and overlay state.
    pub fn capture(&mut self, m: &Machine, asid: Asid, ops: &[TraceOp]) {
        let mut left = self.capture_per_job;
        for op in ops {
            if left == 0 {
                break;
            }
            let (va, kind) = match *op {
                TraceOp::Load(va) => (va, AccessKind::Read),
                TraceOp::Store(va) => (va, AccessKind::Write),
                _ => continue,
            };
            let Ok(pte) = m.os().translate(asid, va) else { continue };
            let vpn = va.vpn();
            let line = va.line_in_page();
            let opn = Opn::encode(asid, vpn);
            let obitvec = if pte.flags.overlay_enabled {
                m.overlay().obitvec(opn).unwrap_or(OBitVector::EMPTY)
            } else {
                OBitVector::EMPTY
            };
            let (cache_addr, mem_addr) = if obitvec.contains(line) {
                // The OMS slot of the line, when it has one; otherwise
                // the line is cache-resident only and the replay sends
                // the overlay address itself to DRAM.
                let slot = m
                    .overlay()
                    .omt()
                    .get(opn)
                    .and_then(|e| e.segment)
                    .and_then(|seg| seg.meta.line_addr(seg.base, line));
                let addr = opn.line_addr(line);
                (addr, slot.unwrap_or(MainMemAddr::new(addr.raw())))
            } else {
                let addr = PhysAddr::new(pte.ppn.line_addr(line).raw());
                (addr, MainMemAddr::new(addr.raw()))
            };
            self.streams.push(Access {
                entry: TlbEntry { asid, vpn, pte, obitvec },
                kind,
                cache_addr,
                mem_addr,
            });
            left -= 1;
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent per-stream seeds from the run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

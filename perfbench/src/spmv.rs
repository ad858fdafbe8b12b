//! `spmv_suite`: Figure 10 SpMV over the 87-matrix suite, timing the
//! overlay kernel and the CSR kernel on every matrix.

use crate::common::{JobRun, JobSim, Layers, PassOut};
use crate::trace::Tracer;
use crate::workload::{err, pair_ratios, price_with, Priced, Workload};
use po_sim::{Machine, SystemConfig, TraceOp};
use po_sparse::overlay_repr::VALUES_PER_LINE;
use po_sparse::{nonzero_locality, uf_like_suite, CsrMatrix, OverlayMatrix, TimedSpmv};
use po_sparse::{MatrixSpec, SpmvTiming, TripletMatrix};
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{LineData, VirtAddr, Vpn};
use std::time::Instant;

pub struct SpmvSuite {
    pub seed: u64,
    pub scale: f64,
}

struct Matrix {
    name: String,
    triplets: TripletMatrix,
    csr: CsrMatrix,
    ovl: OverlayMatrix,
}

impl Matrix {
    fn build(spec: MatrixSpec) -> Self {
        Self {
            csr: CsrMatrix::from_triplets(&spec.matrix),
            ovl: OverlayMatrix::from_triplets(&spec.matrix),
            name: spec.name,
            triplets: spec.matrix,
        }
    }
}

fn config() -> SystemConfig {
    SystemConfig::table2_overlay()
}

impl SpmvSuite {
    fn suite(&self) -> Vec<MatrixSpec> {
        uf_like_suite(self.scale, self.seed)
    }
}

fn record(label: String, overlay: bool, t: &SpmvTiming) -> JobSim {
    JobSim {
        label,
        overlay,
        cycles: t.cycles,
        total_cycles: t.cycles,
        instructions: t.instructions,
        memory_bytes: t.memory_bytes,
        fingerprint: 0,
        ops: 1,
    }
}

/// Both kernels must compute the dense product.
fn check_product(m: &Matrix) -> Result<(), String> {
    let x: Vec<f64> = (0..m.csr.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let want = m.triplets.to_dense().spmv(&x);
    for (kernel, got) in [("CSR", m.csr.spmv(&x)), ("overlay", m.ovl.spmv(&x))] {
        let bad = want.iter().zip(&got).position(|(w, g)| (w - g).abs() > 1e-9 * w.abs().max(1.0));
        if got.len() != want.len() || bad.is_some() {
            return Err(format!("{}: {kernel} SpMV differs from the dense product", m.name));
        }
    }
    Ok(())
}

impl Workload for SpmvSuite {
    fn pass(
        &self,
        tr: &mut Tracer,
        _layers: Option<&mut Layers>,
        check: bool,
    ) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        let t = Instant::now();
        let suite = tr.time("sparse.build", || self.suite());
        out.setup_s = t.elapsed().as_secs_f64();
        let timed = TimedSpmv::new(config());
        // Representations are built per matrix and dropped after its
        // kernels, so a pass holds one matrix's CSR and overlay forms.
        for (i, spec) in suite.into_iter().enumerate() {
            tr.set_job(2 * i as u64);
            let t = Instant::now();
            let m = tr.time("sparse.build", || Matrix::build(spec));
            out.setup_s += t.elapsed().as_secs_f64();
            tr.begin("bench.job");
            let t = Instant::now();
            let csr = tr.time("sparse.csr_kernel", || timed.time_csr(&m.csr));
            let csr_s = t.elapsed().as_secs_f64();
            tr.end();
            let csr = csr.map_err(err("CSR kernel"))?;
            let sim = record(format!("spmv/{}/csr", m.name), false, &csr);
            out.jobs.push(JobRun::new(tr, sim, csr_s));

            tr.set_job(2 * i as u64 + 1);
            tr.begin("bench.job");
            let t = Instant::now();
            let ovl = tr.time("sparse.overlay_kernel", || timed.time_overlay(&m.ovl));
            let ovl_s = t.elapsed().as_secs_f64();
            tr.end();
            let ovl = ovl.map_err(err("overlay kernel"))?;
            let sim = record(format!("spmv/{}/overlay", m.name), true, &ovl);
            out.jobs.push(JobRun::new(tr, sim, ovl_s));
            if check {
                tr.time("bench.check", || check_product(&m))?;
            }
        }
        Ok(out)
    }

    /// Counters and replay streams come from the replica kernels, each
    /// checked cycle-exact against `TimedSpmv`.
    fn collect_layers(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let timed = TimedSpmv::new(config());
        for m in self.suite().into_iter().map(Matrix::build) {
            for overlay in [false, true] {
                let want =
                    if overlay { timed.time_overlay(&m.ovl) } else { timed.time_csr(&m.csr) }
                        .map_err(err("SpMV kernel"))?;
                let got = replica(tr, layers, &m, overlay)?;
                if got != want.cycles {
                    return Err(format!(
                        "{}: replica of the {} kernel took {got} cycles, TimedSpmv {}",
                        m.name,
                        if overlay { "overlay" } else { "CSR" },
                        want.cycles
                    ));
                }
            }
        }
        Ok(())
    }

    fn price_telemetry(&self) -> Result<Priced, String> {
        let matrices: Vec<Matrix> =
            self.suite().into_iter().step_by(8).map(Matrix::build).collect();
        price_with(3, |sink| {
            let timed = TimedSpmv::new(config()).with_telemetry(sink.clone());
            let mut cycles = 0;
            for m in &matrices {
                cycles += timed.time_overlay(&m.ovl).map_err(err("overlay kernel"))?.cycles;
            }
            Ok(cycles)
        })
    }

    fn readout(&self, sims: &[JobSim]) -> Vec<String> {
        let (speedup, mem) = pair_ratios(sims);
        let locality: Vec<f64> =
            self.suite().iter().map(|s| nonzero_locality(&s.matrix, LINE_SIZE)).collect();
        let mut by_l: Vec<(f64, bool)> =
            sims.chunks(2).zip(&locality).map(|(p, &l)| (l, p[0].cycles > p[1].cycles)).collect();
        let wins = by_l.iter().filter(|(_, w)| *w).count();
        by_l.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = by_l.len() / 2;
        let low = by_l[..half].iter().filter(|(_, w)| *w).count();
        let high = by_l[half..].iter().filter(|(_, w)| *w).count();
        vec![
            format!(
                "  overlay_speedup {speedup:.3} (geomean CSR/overlay cycles over all matrices)"
            ),
            format!("  overlay_memory_ratio {mem:.3} (geomean overlay/CSR bytes)"),
            format!(
                "  sparse.overlay_wins {wins}/{}; paper Fig 10: 34/87 (low-L half {low}, \
                 high-L half {high})",
                by_l.len()
            ),
            format!(
                "  ordering (overlay wins concentrate in the high-L half): {}",
                if high > low { "holds" } else { "DOES NOT hold" }
            ),
        ]
    }
}

// The replica re-issues the exact traces `po_sparse::TimedSpmv` builds
// (same layout, same op order) on a machine the benchmark owns, so the
// machine's layer counters and its access stream are observable.
// `collect_layers` checks it cycle-exact against `TimedSpmv`.
const A_VPN: u64 = 0x1_0000;
const VALUES_VPN: u64 = 0x2_0000;
const COLIDX_VPN: u64 = 0x3_0000;
const ROWPTR_VPN: u64 = 0x4_0000;
const X_VPN: u64 = 0x5_0000;
const Y_VPN: u64 = 0x6_0000;
const MAC_OPS_PER_VALUE: u32 = 2;

fn va(vpn_base: u64, byte_off: u64) -> VirtAddr {
    VirtAddr::new(vpn_base * PAGE_SIZE as u64 + byte_off)
}

fn pages_for(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE_SIZE) as u64
}

/// Runs one kernel's replica, adds its counters and stream to `layers`,
/// and returns its cycles.
fn replica(tr: &mut Tracer, layers: &mut Layers, m: &Matrix, overlay: bool) -> Result<u64, String> {
    let mut mach = Machine::new(config()).map_err(err("machine construction"))?;
    let pid = mach.spawn_process().map_err(err("spawn"))?;
    let e = err("replica setup");
    let mut trace = Vec::new();
    if overlay {
        let ovl = &m.ovl;
        let a_pages = pages_for(ovl.rows() * ovl.cols() * 8).max(1);
        mach.map_shared_zero_range(pid, Vpn::new(A_VPN), a_pages).map_err(e)?;
        mach.map_range(pid, Vpn::new(X_VPN), pages_for(ovl.cols() * 8)).map_err(err("map x"))?;
        mach.map_range(pid, Vpn::new(Y_VPN), pages_for(ovl.rows() * 8)).map_err(err("map y"))?;
        let lines_per_page = PAGE_SIZE / LINE_SIZE;
        for (line, vals) in ovl.iter_lines() {
            let vpn = Vpn::new(A_VPN + (line / lines_per_page) as u64);
            mach.seed_overlay_line(pid, vpn, line % lines_per_page, LineData::from_f64x8(*vals))
                .map_err(err("seed overlay line"))?;
        }
        let lines_per_row = ovl.cols() / VALUES_PER_LINE;
        let mut last_row = usize::MAX;
        for (line, _) in ovl.iter_lines() {
            let row = line / lines_per_row;
            trace.push(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)));
            trace.push(TraceOp::Load(va(X_VPN, ((line % lines_per_row) * LINE_SIZE) as u64)));
            trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32));
            if row != last_row {
                trace.push(TraceOp::Store(va(Y_VPN, (row * 8) as u64)));
                last_row = row;
            }
        }
    } else {
        let csr = &m.csr;
        for (vpn, bytes) in [
            (VALUES_VPN, csr.nnz() * 8),
            (COLIDX_VPN, csr.nnz() * 4),
            (ROWPTR_VPN, (csr.rows() + 1) * 4),
        ] {
            mach.map_range(pid, Vpn::new(vpn), pages_for(bytes).max(1)).map_err(err("map"))?;
        }
        mach.map_range(pid, Vpn::new(X_VPN), pages_for(csr.cols() * 8)).map_err(err("map x"))?;
        mach.map_range(pid, Vpn::new(Y_VPN), pages_for(csr.rows() * 8)).map_err(err("map y"))?;
        for r in 0..csr.rows() {
            trace.push(TraceOp::Load(va(ROWPTR_VPN, (r * 4) as u64)));
            let (lo, hi) = (csr.row_ptr()[r] as usize, csr.row_ptr()[r + 1] as usize);
            for i in lo..hi {
                let col = csr.col_idx()[i] as usize;
                trace.push(TraceOp::Load(va(COLIDX_VPN, (i * 4) as u64)));
                trace.push(TraceOp::Load(va(VALUES_VPN, (i * 8) as u64)));
                trace.push(TraceOp::Load(va(X_VPN, (col * 8) as u64)));
                trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE));
            }
            trace.push(TraceOp::Store(va(Y_VPN, (r * 8) as u64)));
        }
    }
    let before = mach.snapshot().cycles;
    tr.execute(&mut mach, 0, pid, &trace).map_err(err("replica trace"))?;
    let cycles = mach.snapshot().cycles - before;
    layers.absorb(&mach);
    layers.capture(&mach, pid, &trace);
    Ok(cycles)
}

//! `contended_mc`: the 4-core contended fork, post-fork streams
//! interleaved by po-mc's scheduler, under copy-on-write and
//! overlay-on-write.

use crate::common::{JobRun, JobSim, Layers, PassOut};
use crate::trace::Tracer;
use crate::workload::{err, halves, pair_ratios, price_with, Priced, Workload};
use po_mc::{build_core_streams, run_contended_fork, run_interleaved, ContendedForkSpec};
use po_sim::{Machine, SystemConfig, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, VirtAddr, Vpn};
use std::time::Instant;

pub struct Mc {
    pub seed: u64,
    pub cores: usize,
    pub ops_per_core: usize,
}

impl Mc {
    fn spec(&self) -> ContendedForkSpec {
        ContendedForkSpec {
            ops_per_core: self.ops_per_core,
            ..ContendedForkSpec::standard(self.cores, self.seed)
        }
    }

    /// The steps of `po_mc::run_contended_fork`, each timed at its call,
    /// plus the invariant check.
    fn job(
        &self,
        tr: &mut Tracer,
        layers: Option<&mut Layers>,
        (label, config): (&str, SystemConfig),
        warmup: &[TraceOp],
        streams: &[Vec<TraceOp>],
        sink: &TelemetrySink,
    ) -> Result<(JobSim, f64, f64), String> {
        let spec = self.spec();
        let overlay = config.overlay_mode;
        let t = Instant::now();
        tr.begin("sim.build");
        let mut m = Machine::new(SystemConfig { cores: spec.cores, ..config })
            .map_err(err("machine construction"))?;
        m.install_telemetry(sink.clone());
        let pid = m.spawn_process().map_err(err("spawn"))?;
        m.map_range(pid, Vpn::new(spec.base_vpn), spec.pages).map_err(err("map"))?;
        tr.end();
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        tr.begin("sim.execute");
        tr.execute(&mut m, 0, pid, warmup).map_err(err("warmup"))?;
        tr.end();
        tr.begin("vm.fork");
        m.fork(pid).map_err(err("fork"))?;
        m.mark_memory_epoch();
        tr.end();
        let sched = tr
            .time("mc.interleave", || run_interleaved(&mut m, pid, streams, spec.quantum_ops))
            .map_err(err("run_interleaved"))?;
        tr.time("overlay.flush", || m.flush_overlays()).map_err(err("flush_overlays"))?;
        tr.time("sim.invariants", || m.verify_invariants()).map_err(err("invariants"))?;
        let fingerprint = tr.time("sim.snapshot", || fingerprint64_bytes(&m.save_snapshot()));
        let run_s = t.elapsed().as_secs_f64();

        if let Some(layers) = layers {
            tr.time("bench.capture", || layers.absorb(&m));
        }
        let end = m.snapshot();
        let sim = JobSim {
            label: format!("mc/{}c/{label}", spec.cores),
            overlay,
            cycles: sched.stats.cycles,
            total_cycles: end.cycles,
            instructions: end.instructions,
            memory_bytes: m.extra_memory_bytes(),
            fingerprint,
            ops: 1,
        };
        Ok((sim, setup_s, run_s))
    }

    /// Inputs: core 0's warmup (a store to every line of the shared
    /// range) and the per-core post-fork streams.
    fn gen(&self) -> (Vec<TraceOp>, Vec<Vec<TraceOp>>) {
        let spec = self.spec();
        let warmup = (0..spec.pages)
            .flat_map(|page| {
                (0..LINES_PER_PAGE).map(move |line| {
                    TraceOp::Store(VirtAddr::new(
                        (spec.base_vpn + page) * PAGE_SIZE as u64 + (line * LINE_SIZE) as u64,
                    ))
                })
            })
            .collect();
        (warmup, build_core_streams(&spec))
    }
}

impl Workload for Mc {
    fn pass(
        &self,
        tr: &mut Tracer,
        mut layers: Option<&mut Layers>,
        _check: bool,
    ) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        let t = Instant::now();
        let (warmup, streams) = tr.time("mc.streams", || self.gen());
        out.setup_s = t.elapsed().as_secs_f64();
        for (half, mode) in halves().into_iter().enumerate() {
            tr.set_job(half as u64);
            tr.begin("bench.job");
            let (sim, setup_s, run_s) = self.job(
                tr,
                layers.as_deref_mut(),
                mode,
                &warmup,
                &streams,
                &TelemetrySink::noop(),
            )?;
            tr.end();
            out.setup_s += setup_s;
            out.jobs.push(JobRun::new(tr, sim, run_s));
        }
        Ok(out)
    }

    fn cross_check(&self, sims: &[JobSim]) -> Result<(), String> {
        for ((_, config), sim) in halves().into_iter().zip(sims) {
            let r = run_contended_fork(config, &self.spec(), TelemetrySink::noop())
                .map_err(err("run_contended_fork"))?;
            if r.snapshot_fingerprint != sim.fingerprint
                || r.sched.stats.cycles != sim.cycles
                || r.extra_memory_bytes != sim.memory_bytes
            {
                return Err(format!(
                    "{}: run_contended_fork (fingerprint {:#x}, {} cycles) disagrees with the \
                     benchmark's drive (fingerprint {:#x}, {} cycles)",
                    sim.label,
                    r.snapshot_fingerprint,
                    r.sched.stats.cycles,
                    sim.fingerprint,
                    sim.cycles
                ));
            }
        }
        Ok(())
    }

    fn price_telemetry(&self) -> Result<Priced, String> {
        let (warmup, streams) = self.gen();
        let oow = halves()[1].clone();
        price_with(3, |sink| {
            let (sim, _, _) =
                self.job(&mut Tracer::off(), None, oow.clone(), &warmup, &streams, sink)?;
            Ok(sim.total_cycles)
        })
    }

    fn readout(&self, sims: &[JobSim]) -> Vec<String> {
        let (speedup, mem) = pair_ratios(sims);
        vec![format!(
            "  contended fork at {} cores: overlay_speedup {speedup:.3}, overlay_memory_ratio \
             {mem:.3} (no paper figure; §4.3.3 gives the mechanism only)",
            self.cores
        )]
    }
}

//! `fork_suite`: the §5.1 fork experiment over the 15-workload suite,
//! each under copy-on-write and overlay-on-write.

use crate::common::{JobRun, JobSim, Layers, PassOut};
use crate::trace::Tracer;
use crate::workload::{err, halves, pair_ratios, price_with, Priced, Workload};
use po_sim::{run_job, Machine, SystemConfig, TraceOp, WorkloadJob};
use po_telemetry::TelemetrySink;
use po_types::fingerprint64_bytes;
use po_workloads::{spec_suite, WorkloadSpec};
use std::time::Instant;

pub struct ForkSuite {
    pub seed: u64,
    pub warmup_instr: u64,
    pub post_instr: u64,
}

/// Setup and run host seconds of one job, and its record.
struct Timed {
    sim: JobSim,
    setup_s: f64,
    run_s: f64,
}

impl ForkSuite {
    fn traces(&self, spec: &WorkloadSpec) -> (Vec<TraceOp>, Vec<TraceOp>) {
        (
            spec.generate_warmup(self.warmup_instr, self.seed),
            spec.generate_post_fork(self.post_instr, self.seed),
        )
    }

    fn mapped_pages(&self, spec: &WorkloadSpec) -> u64 {
        spec.mapped_pages(self.warmup_instr.max(self.post_instr))
    }

    /// The steps of `po_sim::run_fork_experiment_on`, each timed at its
    /// call, followed by the invariant check and the snapshot
    /// fingerprint `run_job` takes.
    #[allow(clippy::too_many_arguments)]
    fn job(
        &self,
        tr: &mut Tracer,
        layers: Option<&mut Layers>,
        spec: &WorkloadSpec,
        (label, config): (&str, SystemConfig),
        warmup: &[TraceOp],
        post: &[TraceOp],
        sink: &TelemetrySink,
    ) -> Result<Timed, String> {
        let overlay = config.overlay_mode;
        let t = Instant::now();
        tr.begin("sim.build");
        let mut m = Machine::new(config).map_err(err("machine construction"))?;
        m.install_telemetry(sink.clone());
        let pid = m.spawn_process().map_err(err("spawn"))?;
        m.map_range(pid, spec.base_vpn(), self.mapped_pages(spec)).map_err(err("map"))?;
        tr.end();
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        tr.begin("sim.execute");
        tr.execute(&mut m, 0, pid, warmup).map_err(err("warmup trace"))?;
        tr.end();
        tr.begin("vm.fork");
        m.fork(pid).map_err(err("fork"))?;
        m.mark_memory_epoch();
        tr.end();
        tr.begin("sim.execute");
        let before = m.snapshot();
        tr.execute(&mut m, 0, pid, post).map_err(err("post-fork trace"))?;
        let after = m.snapshot();
        tr.end();
        tr.time("overlay.flush", || m.flush_overlays()).map_err(err("flush_overlays"))?;
        tr.time("sim.invariants", || m.verify_invariants()).map_err(err("invariants"))?;
        let fingerprint = tr.time("sim.snapshot", || fingerprint64_bytes(&m.save_snapshot()));
        let run_s = t.elapsed().as_secs_f64();

        if let Some(layers) = layers {
            tr.time("bench.capture", || {
                layers.absorb(&m);
                layers.capture(&m, pid, post);
            });
        }
        let end = m.snapshot();
        Ok(Timed {
            sim: JobSim {
                label: format!("fork/{}/{label}", spec.name),
                overlay,
                cycles: after.cycles - before.cycles,
                total_cycles: end.cycles,
                instructions: end.instructions,
                memory_bytes: m.extra_memory_bytes(),
                fingerprint,
                ops: 1,
            },
            setup_s,
            run_s,
        })
    }
}

impl Workload for ForkSuite {
    fn pass(
        &self,
        tr: &mut Tracer,
        mut layers: Option<&mut Layers>,
        _check: bool,
    ) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        for (i, spec) in spec_suite().iter().enumerate() {
            // Traces are generated per workload and dropped after its two
            // jobs, so a pass holds one workload's traces at a time.
            tr.set_job(2 * i as u64);
            let t = Instant::now();
            let (warmup, post) = tr.time("workloads.gen", || self.traces(spec));
            out.setup_s += t.elapsed().as_secs_f64();
            for (half, mode) in halves().into_iter().enumerate() {
                tr.set_job((2 * i + half) as u64);
                tr.begin("bench.job");
                let j = self.job(
                    tr,
                    layers.as_deref_mut(),
                    spec,
                    mode,
                    &warmup,
                    &post,
                    &TelemetrySink::noop(),
                )?;
                tr.end();
                out.setup_s += j.setup_s;
                out.jobs.push(JobRun::new(tr, j.sim, j.run_s));
            }
        }
        Ok(out)
    }

    fn cross_check(&self, sims: &[JobSim]) -> Result<(), String> {
        let mut sims = sims.iter();
        for (i, spec) in spec_suite().iter().enumerate() {
            let (warmup, post) = self.traces(spec);
            for (half, (_, config)) in halves().into_iter().enumerate() {
                let job = WorkloadJob::fork(
                    (2 * i + half) as u64,
                    spec.name,
                    config,
                    spec.base_vpn(),
                    self.mapped_pages(spec),
                    warmup.clone(),
                    post.clone(),
                );
                let r = run_job(job).map_err(err("run_job"))?;
                let f = r.outcome.as_fork().ok_or("run_job returned no fork outcome")?;
                let sim = sims.next().ok_or("fewer job records than jobs")?;
                if r.snapshot_fingerprint != sim.fingerprint
                    || f.post_cycles != sim.cycles
                    || f.extra_memory_bytes != sim.memory_bytes
                {
                    return Err(format!(
                        "{}: run_job (fingerprint {:#x}, {} cycles, {} B) disagrees with the \
                         benchmark's drive (fingerprint {:#x}, {} cycles, {} B)",
                        sim.label,
                        r.snapshot_fingerprint,
                        f.post_cycles,
                        f.extra_memory_bytes,
                        sim.fingerprint,
                        sim.cycles,
                        sim.memory_bytes
                    ));
                }
            }
        }
        Ok(())
    }

    fn price_telemetry(&self) -> Result<Priced, String> {
        let spec = spec_suite().into_iter().find(|s| s.name == "mcf").ok_or("no mcf workload")?;
        let (warmup, post) = self.traces(&spec);
        let oow = halves()[1].clone();
        price_with(3, |sink| {
            let j = self.job(&mut Tracer::off(), None, &spec, oow.clone(), &warmup, &post, sink)?;
            Ok(j.sim.total_cycles)
        })
    }

    fn readout(&self, sims: &[JobSim]) -> Vec<String> {
        let (speedup, mem) = pair_ratios(sims);
        vec![
            format!(
                "  overlay_speedup {speedup:.3} = OoW/CoW CPI ratio {:.3}; paper Fig 9: OoW 15% \
                 faster (ratio 0.85)",
                1.0 / speedup
            ),
            format!("  overlay_memory_ratio {mem:.3}; paper Fig 8: 53% less memory (ratio 0.47)"),
            format!(
                "  ordering (OoW faster and smaller than CoW on the geomean): {}",
                if speedup > 1.0 && mem < 1.0 { "holds" } else { "DOES NOT hold" }
            ),
        ]
    }
}

//! `checked_churn`: fork-churn op streams (`generate_soak_ops`) driven
//! through the differential harness, which checks the byte oracle, the
//! spec refinement and the machine invariants after every op.

use crate::common::{mix, JobRun, JobSim, Layers, PassOut};
use crate::trace::Tracer;
use crate::workload::{err, halves, price_with, Priced, Workload};
use po_sim::{generate_soak_ops, run_job, SimHarness, SystemConfig, TraceOp, WorkloadJob};
use po_telemetry::TelemetrySink;
use po_types::fingerprint64_bytes;
use std::time::Instant;

pub struct Churn {
    pub seed: u64,
    /// Independent streams per pass (averages out per-seed churn depth).
    pub streams: usize,
    pub ops_per_stream: usize,
}

impl Churn {
    fn gen(&self) -> Vec<Vec<TraceOp>> {
        (0..self.streams as u64)
            .map(|k| generate_soak_ops(mix(self.seed, k), self.ops_per_stream))
            .collect()
    }

    /// One stream through a fresh harness. Returns the record, the
    /// harness construction time and the time of the ops plus the final
    /// byte sweep. Traced, every `apply` is its own span and is followed
    /// by one extra, separately timed refinement check and invariant
    /// sweep (the harness runs both inside `apply`; timing a second call
    /// is how their cost is seen from outside).
    fn stream(
        &self,
        tr: &mut Tracer,
        layers: Option<&mut Layers>,
        label: String,
        config: SystemConfig,
        ops: &[TraceOp],
        sink: &TelemetrySink,
    ) -> Result<(JobSim, f64, f64), String> {
        let overlay = config.overlay_mode;
        let t = Instant::now();
        let mut h = tr.time("sim.build", || SimHarness::new(config)).map_err(err("harness"))?;
        h.machine.install_telemetry(sink.clone());
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut apply_ns = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if tr.is_on() {
                let t_op = Instant::now();
                tr.begin("harness.apply");
                let r = h.apply(op);
                tr.end();
                apply_ns.push(t_op.elapsed().as_nanos() as u64);
                r.map_err(|e| format!("{label} op {i}: {e}"))?;
                tr.time("spec.refinement", || h.spec.check_refinement(&h.machine, &h.procs))?;
                tr.time("sim.invariants", || h.machine.verify_invariants())
                    .map_err(err("invariants"))?;
            } else {
                h.apply(op).map_err(|e| format!("{label} op {i}: {e}"))?;
            }
        }
        tr.time("oracle.sweep", || h.check_all()).map_err(|e| format!("{label} sweep: {e}"))?;
        let fingerprint =
            tr.time("sim.snapshot", || fingerprint64_bytes(&h.machine.save_snapshot()));
        let run_s = t.elapsed().as_secs_f64();

        if let Some(layers) = layers {
            tr.time("bench.capture", || {
                layers.absorb(&h.machine);
                layers.add("harness.procs_final", h.procs.len() as f64);
                layers.add("harness.streams", 1.0);
                let q = apply_ns.len() / 4;
                let sum = |s: &[u64]| s.iter().sum::<u64>() as f64;
                layers.add("harness.first_quarter_ns", sum(&apply_ns[..q]));
                layers.add("harness.last_quarter_ns", sum(&apply_ns[apply_ns.len() - q..]));
                layers.apply_ns.extend(&apply_ns);
            });
        }
        let s = h.machine.snapshot();
        let sim = JobSim {
            label,
            overlay,
            cycles: s.cycles,
            total_cycles: s.cycles,
            instructions: s.instructions,
            // Epoch 0: everything the stream left allocated.
            memory_bytes: h.machine.extra_memory_bytes(),
            fingerprint,
            ops: ops.len() as u64,
        };
        Ok((sim, setup_s, run_s))
    }
}

impl Workload for Churn {
    fn pass(
        &self,
        tr: &mut Tracer,
        mut layers: Option<&mut Layers>,
        _check: bool,
    ) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        let t = Instant::now();
        let streams = tr.time("workloads.gen", || self.gen());
        out.setup_s = t.elapsed().as_secs_f64();
        for (k, ops) in streams.iter().enumerate() {
            for (half, (mode, config)) in halves().into_iter().enumerate() {
                tr.set_job((2 * k + half) as u64);
                tr.begin("bench.job");
                let (sim, setup_s, run_s) = self.stream(
                    tr,
                    layers.as_deref_mut(),
                    format!("churn/{k}/{mode}"),
                    config,
                    ops,
                    &TelemetrySink::noop(),
                )?;
                tr.end();
                out.setup_s += setup_s;
                out.jobs.push(JobRun::new(tr, sim, run_s));
            }
        }
        Ok(out)
    }

    fn cross_check(&self, sims: &[JobSim]) -> Result<(), String> {
        let mut sims = sims.iter();
        for (k, ops) in self.gen().into_iter().enumerate() {
            for (half, (_, config)) in halves().into_iter().enumerate() {
                let job = WorkloadJob::harness_ops(
                    (2 * k + half) as u64,
                    "churn",
                    config,
                    ops.clone(),
                    false,
                );
                let r = run_job(job).map_err(err("run_job"))?;
                let verdict =
                    r.outcome.as_harness().ok_or("run_job returned no harness verdict")?;
                verdict.clone().map_err(|e| format!("run_job harness verdict: {e}"))?;
                let sim = sims.next().ok_or("fewer job records than jobs")?;
                if r.snapshot_fingerprint != sim.fingerprint {
                    return Err(format!(
                        "{}: run_job fingerprint {:#x} disagrees with the benchmark's drive {:#x}",
                        sim.label, r.snapshot_fingerprint, sim.fingerprint
                    ));
                }
            }
        }
        Ok(())
    }

    fn price_telemetry(&self) -> Result<Priced, String> {
        let ops = generate_soak_ops(mix(self.seed, 0), self.ops_per_stream);
        let (_, config) = halves()[1].clone();
        price_with(3, |sink| {
            let (sim, _, _) =
                self.stream(&mut Tracer::off(), None, "price".into(), config.clone(), &ops, sink)?;
            Ok(sim.total_cycles)
        })
    }
}

//! The interface every benchmark workload implements.

use crate::common::{JobSim, Layers, PassOut};
use crate::trace::Tracer;
use po_sim::SystemConfig;
use po_telemetry::{CpiStack, TelemetrySink};
use std::time::Instant;

/// A workload: a fixed amount of seed-determined work (one *pass*)
/// that the closed loop repeats for the run's duration.
pub trait Workload {
    /// One pass: generates the inputs and runs every job once, in a
    /// fixed order. `layers` is `Some` on the traced pass, which also
    /// collects per-layer counters and replay streams; `check` turns on
    /// the output checks that are not part of a job.
    fn pass(
        &self,
        tr: &mut Tracer,
        layers: Option<&mut Layers>,
        check: bool,
    ) -> Result<PassOut, String>;

    /// Checks the pass's job records against the program's own scenario
    /// runners (`run_job`, `run_contended_fork`).
    fn cross_check(&self, _sims: &[JobSim]) -> Result<(), String> {
        Ok(())
    }

    /// Extra per-layer collection outside the traced pass (counters and
    /// replay streams of layers the traced pass cannot reach).
    fn collect_layers(&self, _tr: &mut Tracer, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    /// Runs a representative job with a no-op and with an active
    /// telemetry sink.
    fn price_telemetry(&self) -> Result<Priced, String>;

    /// Paper-gap and ordering lines for the human-readable report.
    fn readout(&self, _sims: &[JobSim]) -> Vec<String> {
        Vec::new()
    }
}

/// `(label, config)` of the two halves of every comparison pair,
/// baseline (copy-on-write) first.
pub fn halves() -> [(&'static str, SystemConfig); 2] {
    [("cow", SystemConfig::table2()), ("oow", SystemConfig::table2_overlay())]
}

/// Telemetry pricing: host time of the same job(s) with the no-op sink
/// and with an active one, and what the active sink recorded.
pub struct Priced {
    pub noop_s: f64,
    pub active_s: f64,
    pub stack: CpiStack,
    /// Simulated cycles the priced job(s) measured over the window the
    /// stack covers.
    pub measured_cycles: u64,
    pub journal_dropped: u64,
}

/// Times `job` alternately with a no-op and an active sink, `reps`
/// times each, and returns the median host times and the last active
/// sink. `job` returns the measured cycles.
pub fn price_with(
    reps: usize,
    mut job: impl FnMut(&TelemetrySink) -> Result<u64, String>,
) -> Result<Priced, String> {
    let (mut noop, mut active) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        job(&TelemetrySink::noop())?;
        noop.push(t.elapsed().as_secs_f64());
        let sink = TelemetrySink::active();
        let t = Instant::now();
        let cycles = job(&sink)?;
        active.push(t.elapsed().as_secs_f64());
        last = Some((sink, cycles));
    }
    let (sink, measured_cycles) = last.ok_or("telemetry pricing ran no repetition")?;
    Ok(Priced {
        noop_s: crate::common::median(&noop),
        active_s: crate::common::median(&active),
        stack: sink.cpi_stack().unwrap_or_else(CpiStack::new),
        measured_cycles,
        journal_dropped: sink.with_core(|c| c.journal().dropped()).unwrap_or(0),
    })
}

/// Geomean of baseline/overlay cycles and of overlay/baseline memory
/// over the `(baseline, overlay)` job pairs of a pass. A pair whose
/// baseline used no extra memory counts as ratio 1, as in Figure 8.
pub fn pair_ratios(sims: &[JobSim]) -> (f64, f64) {
    let (mut speed, mut mem) = (Vec::new(), Vec::new());
    for pair in sims.chunks(2) {
        let [base, ovl] = pair else { continue };
        debug_assert!(!base.overlay && ovl.overlay, "jobs come in (baseline, overlay) pairs");
        speed.push(base.cycles as f64 / ovl.cycles.max(1) as f64);
        mem.push(if base.memory_bytes == 0 {
            1.0
        } else {
            ovl.memory_bytes as f64 / base.memory_bytes as f64
        });
    }
    (crate::common::geomean(&speed), crate::common::geomean(&mem))
}

pub fn err<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

//! The repository benchmark: four closed-loop workloads over the
//! simulator's public API, measured on two clocks (host time of the
//! simulator and its checkers; simulated cycles of the modelled
//! machine). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. A failed output check exits with status 1.

mod churn;
mod common;
mod fork;
mod mc;
mod replay;
mod spmv;
mod trace;
mod workload;

use common::{median, peak_rss_mb, quantile, Layers, PassOut, REFERENCE_NOMINAL_S};
use po_sim::SystemConfig;
use po_telemetry::Layer;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{pair_ratios, Workload};

const WORKLOADS: [&str; 4] = ["fork_suite", "spmv_suite", "checked_churn", "contended_mc"];

/// Passes every untraced run makes, whatever `--seconds` says: job
/// host times are medians over passes, and repeats are checked equal.
const MIN_PASSES: usize = 3;
/// No pass starts after this much of a run has gone by.
const MAX_RUN: Duration = Duration::from_secs(120);
/// Reference-kernel samples within this many seconds of a job scale
/// its host time.
const REFERENCE_WINDOW_S: f64 = 0.5;
/// Accesses captured for the component replay, per workload.
const REPLAY_ACCESSES: usize = 1_000_000;

/// Every span name the workloads record; each is reported as the
/// per-layer metric `<name>_s` (its summed self time).
const SPANS: [&str; 19] = [
    "bench.capture",
    "bench.check",
    "bench.job",
    "bench.reference",
    "harness.apply",
    "mc.interleave",
    "mc.streams",
    "oracle.sweep",
    "overlay.flush",
    "sim.build",
    "sim.execute",
    "sim.invariants",
    "sim.snapshot",
    "sparse.build",
    "sparse.csr_kernel",
    "sparse.overlay_kernel",
    "spec.refinement",
    "vm.fork",
    "workloads.gen",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = raw.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        raw.get(i + 1).cloned().ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let num = |key: &str| get(key)?.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds: num("--seconds")?.max(1), trace })
}

fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fork_suite" => {
            Box::new(fork::ForkSuite { seed, warmup_instr: 400_000, post_instr: 600_000 })
        }
        "spmv_suite" => Box::new(spmv::SpmvSuite { seed, scale: 1.0 }),
        "checked_churn" => Box::new(churn::Churn { seed, streams: 48, ops_per_stream: 600 }),
        "contended_mc" => Box::new(mc::Mc { seed, cores: 4, ops_per_core: 100_000 }),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Metrics in report order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run found wrong, plus the attempted/failed op tally.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, ops: u64, e: String) {
        self.attempted += ops;
        self.failed += ops;
        self.errors.push(e);
    }
}

fn pass_ops(p: &PassOut) -> u64 {
    p.jobs.iter().map(|j| j.sim.ops).sum()
}

fn end_to_end(
    w: &dyn Workload,
    seconds: u64,
    out: &mut Outcome,
    lines: &mut Vec<String>,
) -> Metrics {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds).min(MAX_RUN);
    let mut passes: Vec<PassOut> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        if start.elapsed() >= MAX_RUN {
            break;
        }
        match w.pass(&mut Tracer::off(), None, passes.is_empty()) {
            Ok(p) => {
                let ops = pass_ops(&p);
                match passes.first() {
                    Some(first) if first.sims() != p.sims() => out.fail(
                        ops,
                        format!(
                            "pass {} disagrees with pass 0 on a simulated result",
                            passes.len()
                        ),
                    ),
                    _ => out.attempted += ops,
                }
                passes.push(p);
            }
            Err(e) => {
                out.fail(1, e);
                break;
            }
        }
    }
    let mut m = Metrics::default();
    let Some(first) = passes.first() else { return m };
    let jobs = first.jobs.len();
    let raw_host_s: f64 = (0..jobs)
        .map(|j| median(&passes.iter().map(|p| p.jobs[j].host_s).collect::<Vec<_>>()))
        .sum();
    // Host times at the nominal host speed: each job's time over the
    // median reference-kernel time within REFERENCE_WINDOW_S of it, then
    // the median over passes.
    let samples: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| ((j.at - start).as_secs_f64(), j.reference_s)))
        .collect();
    let local_reference = |at: f64| {
        let lo = samples.partition_point(|s| s.0 < at - REFERENCE_WINDOW_S);
        let hi = samples.partition_point(|s| s.0 <= at + REFERENCE_WINDOW_S);
        median(&samples[lo..hi].iter().map(|s| s.1).collect::<Vec<_>>())
    };
    let host_s: f64 = REFERENCE_NOMINAL_S
        * (0..jobs)
            .map(|j| {
                let scaled = |p: &PassOut| {
                    p.jobs[j].host_s / local_reference((p.jobs[j].at - start).as_secs_f64())
                };
                median(&passes.iter().map(scaled).collect::<Vec<_>>())
            })
            .sum::<f64>();
    let setup_scaled: Vec<f64> = passes
        .iter()
        .map(|p| {
            let at = (p.jobs[0].at - start).as_secs_f64();
            p.setup_s / local_reference(at) * REFERENCE_NOMINAL_S
        })
        .collect();
    let sims = first.sims();
    let ops: u64 = sims.iter().map(|s| s.ops).sum();
    let instr: u64 = sims.iter().map(|s| s.instructions).sum();
    let (speedup, mem_ratio) = pair_ratios(&sims);
    m.put("setup_s", median(&setup_scaled), "s");
    m.put("ops_per_s", ops as f64 / host_s, "ops/s");
    m.put("sim_instr_per_s", instr as f64 / host_s, "instr/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("sim_cycles", sims.iter().map(|s| s.cycles as f64).sum(), "cycles");
    m.put("overlay_speedup", speedup, "ratio");
    m.put("overlay_memory_ratio", mem_ratio, "ratio");
    m.put("pass_frac", 1.0 - out.failed as f64 / out.attempted.max(1) as f64, "fraction");

    let per_pass: Vec<f64> =
        passes.iter().map(|p| ops as f64 / p.jobs.iter().map(|j| j.host_s).sum::<f64>()).collect();
    lines.push(format!(
        "{} passes of {jobs} jobs ({ops} ops each); per-pass ops/s min {:.4} median {:.4} max {:.4}",
        passes.len(),
        quantile(&per_pass, 0.0),
        median(&per_pass),
        quantile(&per_pass, 1.0),
    ));
    lines.push(format!(
        "raw (unscaled) medians: ops/s {:.4}, setup {:.4} s; reference kernel median {:.4} ms",
        ops as f64 / raw_host_s,
        median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()) * 1e3,
    ));
    lines.extend(w.readout(&sims));
    m
}

fn per_layer(
    w: &dyn Workload,
    name: &str,
    seed: u64,
    out: &mut Outcome,
    lines: &mut Vec<String>,
) -> Result<Metrics, String> {
    let t = Instant::now();
    let untraced = w.pass(&mut Tracer::off(), None, true)?;
    let wall_u = t.elapsed().as_secs_f64();

    // The replay stream takes the same share of accesses from every job
    // that captures one (fork jobs here, SpMV replica kernels below).
    let mut layers = Layers::with_capture(REPLAY_ACCESSES / untraced.jobs.len());
    let mut tr = Tracer::on();
    let t = Instant::now();
    let traced = w.pass(&mut tr, Some(&mut layers), true)?;
    let wall_t = t.elapsed().as_secs_f64();
    let ops = pass_ops(&traced);
    out.attempted += pass_ops(&untraced) + ops;
    if untraced.sims() != traced.sims() {
        out.fail(ops, "traced and untraced passes disagree on a simulated result".into());
    }
    if let Err(e) = w.cross_check(&traced.sims()) {
        out.fail(ops, e);
    }

    // Layers the traced pass cannot observe (the SpMV replica) and the
    // component replay, both outside the traced wall time.
    let mut extra = Tracer::on();
    w.collect_layers(&mut extra, &mut layers)?;
    let ns = replay::replay(&layers.streams, &SystemConfig::table2_overlay());
    let priced = w.price_telemetry()?;

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    lines.push(format!("{} spans written to {}", tr.spans().len(), path.display()));

    let mut m = Metrics::default();
    let (self_s, top_s) = tr.self_times();
    if let Some(unknown) = self_s.keys().find(|k| !SPANS.contains(k)) {
        return Err(format!("span {unknown} has no per-layer metric"));
    }
    for span in SPANS {
        m.put(format!("{span}_s"), self_s.get(span).copied().unwrap_or(0.0), "s");
    }
    let unattributed = wall_t - top_s;
    m.put("bench.unattributed_s", unattributed, "s");
    m.put("bench.traced_wall_s", wall_t, "s");
    m.put("bench.tracing_overhead", wall_t / wall_u, "ratio");
    let sum: f64 = self_s.values().sum::<f64>() + unattributed;
    if (sum - wall_t).abs() > 1e-6 * wall_t.max(1.0) {
        out.fail(0, format!("span self times + unattributed = {sum} s, traced wall {wall_t} s"));
    }

    let exec = {
        let (a, b) = (&tr.exec, &extra.exec);
        let mean = |x: (u64, u64), y: (u64, u64)| (x.1 + y.1) as f64 / (x.0 + y.0).max(1) as f64;
        [mean(a.loads, b.loads), mean(a.stores, b.stores), mean(a.computes, b.computes)]
    };
    m.put("sim.load_ns", exec[0], "ns");
    m.put("sim.store_ns", exec[1], "ns");
    m.put("sim.compute_ns", exec[2], "ns");

    let l = &layers;
    for (metric, unit) in [
        ("sim.loads", "count"),
        ("sim.stores", "count"),
        ("sim.promotions", "count"),
        ("vm.forks", "count"),
        ("vm.cow_faults", "count"),
        ("vm.pages_copied", "count"),
        ("vm.frames_allocated", "count"),
        ("vm.tlb_shootdowns", "count"),
        ("tlb.l1_hits", "count"),
        ("tlb.l2_hits", "count"),
        ("tlb.misses", "count"),
        ("tlb.shootdowns", "count"),
        ("tlb.obit_updates", "count"),
        ("cache.l1_hits", "count"),
        ("cache.l2_hits", "count"),
        ("cache.l3_hits", "count"),
        ("cache.misses", "count"),
        ("cache.prefetch_fills", "count"),
        ("dram.reads", "count"),
        ("dram.writes", "count"),
        ("dram.bus_bytes", "bytes"),
        ("dram.drains", "count"),
        ("overlay.overlaying_writes", "count"),
        ("overlay.simple_writes", "count"),
        ("overlay.evictions", "count"),
        ("overlay.segment_allocs", "count"),
        ("overlay.migrations", "count"),
        ("overlay.commits", "count"),
        ("overlay.discards", "count"),
        ("overlay.reclaims", "count"),
        ("omt_cache.misses", "count"),
        ("oms.bytes_in_use", "bytes"),
        ("oms.compaction_passes", "count"),
        ("oms.relocated_bytes", "bytes"),
        ("sim.coherence_obit_msgs", "count"),
        ("sim.coherence_invalidations", "count"),
        ("sim.coherence_stall_cycles", "cycles"),
        ("sim.contention_stall_cycles", "cycles"),
    ] {
        m.put(metric, l.get(metric), unit);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.put("dram.row_hit_rate", ratio(l.get("dram.row_hits"), l.get("dram.row_accesses")), "ratio");
    let omt = l.get("omt_cache.hits");
    m.put("omt_cache.hit_rate", ratio(omt, omt + l.get("omt_cache.misses")), "ratio");
    m.put("oms.fragmentation", l.fragmentation_max, "ratio");

    let apply: Vec<f64> = l.apply_ns.iter().map(|&n| n as f64).collect();
    m.put("harness.apply_p50_ns", quantile(&apply, 0.5), "ns");
    m.put("harness.apply_p99_ns", quantile(&apply, 0.99), "ns");
    m.put(
        "harness.cost_growth",
        ratio(l.get("harness.last_quarter_ns"), l.get("harness.first_quarter_ns")),
        "ratio",
    );
    m.put(
        "harness.procs_final",
        ratio(l.get("harness.procs_final"), l.get("harness.streams")),
        "count",
    );

    let wins = if name == "spmv_suite" {
        traced.sims().chunks(2).filter(|p| p[0].cycles > p[1].cycles).count()
    } else {
        0
    };
    m.put("sparse.overlay_wins", wins as f64, "count");

    m.put("tlb.lookup_ns", ns.tlb_lookup, "ns");
    m.put("cache.access_ns", ns.cache_access, "ns");
    m.put("dram.read_ns", ns.dram_read, "ns");
    m.put("omt_cache.access_ns", ns.omt_cache_access, "ns");

    m.put("telemetry.active_overhead", ratio(priced.active_s, priced.noop_s), "ratio");
    m.put(
        "telemetry.cpi_stack_sum_ratio",
        ratio(priced.stack.total_cycles() as f64, priced.measured_cycles as f64),
        "ratio",
    );
    m.put("telemetry.journal_dropped", priced.journal_dropped as f64, "count");
    for layer in Layer::ALL {
        let metric = format!("cpi.{}", layer.as_str());
        m.put(metric, priced.stack.layer_cpi(layer), "cycles/instr");
    }
    m.put("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "fraction");

    lines.push(format!(
        "traced wall {wall_t:.4} s = {:.4} s in spans + {unattributed:.6} s unattributed; \
         untraced wall {wall_u:.4} s",
        top_s
    ));
    lines.push(format!(
        "telemetry: Noop {:.4} s, active {:.4} s; CPI stack sums to {} cycles against {} measured",
        priced.noop_s,
        priced.active_s,
        priced.stack.total_cycles(),
        priced.measured_cycles
    ));
    lines.extend(w.readout(&traced.sims()));
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = build(&args.workload, args.seed);
    let mut out = Outcome::default();
    let mut lines = Vec::new();
    let metrics = if args.trace {
        per_layer(w.as_ref(), &args.workload, args.seed, &mut out, &mut lines).unwrap_or_else(|e| {
            out.fail(1, e);
            Metrics::default()
        })
    } else {
        end_to_end(w.as_ref(), args.seconds, &mut out, &mut lines)
    };
    for (name, v, _) in &metrics.0 {
        if !v.is_finite() {
            out.fail(0, format!("metric {name} is not finite"));
        }
    }

    println!(
        "perfbench {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for line in &lines {
        println!("{line}");
    }
    println!(
        "  The model is not validated against hardware measurements, so no error figure is given."
    );
    for (name, v, unit) in &metrics.0 {
        println!("  {name:<32} {v:>20.6} {unit}");
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, v, unit)) in metrics.0.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

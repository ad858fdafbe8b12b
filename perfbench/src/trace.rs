//! Host-time spans recorded from the benchmark's own call sites.
//!
//! Every span wraps one call into a public entry point of a simulator
//! crate (or one bench-side step such as an output check). Spans carry
//! a name, start and end (ns since the tracer's origin), their parent
//! span and the id of the job they belong to. They stay in memory and
//! are written out once the run ends. With tracing off, `begin`/`end`
//! do nothing, so untraced and traced passes run the same code.

use po_sim::{Machine, TraceOp};
use po_types::{Asid, PoResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Host ns spent in `Machine::execute` per op kind (count, total ns).
#[derive(Clone, Debug, Default)]
pub struct ExecTimes {
    pub loads: (u64, u64),
    pub stores: (u64, u64),
    pub computes: (u64, u64),
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub exec: ExecTimes,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
            exec: ExecTimes::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to job `id`.
    pub fn set_job(&mut self, id: u64) {
        self.job = id;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("span end without a matching begin");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Drives `ops` through `Machine::execute_at_core`. Traced, each
    /// call is timed by op kind; untraced, it is the plain loop.
    pub fn execute(
        &mut self,
        m: &mut Machine,
        core: usize,
        asid: Asid,
        ops: &[TraceOp],
    ) -> PoResult<()> {
        if !self.on {
            for op in ops {
                m.execute_at_core(core, asid, op)?;
            }
            return Ok(());
        }
        for op in ops {
            let t = Instant::now();
            m.execute_at_core(core, asid, op)?;
            let ns = t.elapsed().as_nanos() as u64;
            let slot = match op {
                TraceOp::Load(_) => &mut self.exec.loads,
                TraceOp::Store(_) => &mut self.exec.stores,
                _ => &mut self.exec.computes,
            };
            slot.0 += 1;
            slot.1 += ns;
        }
        Ok(())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (span minus the time its child spans cover), summed
    /// per span name, in seconds; plus the summed duration of the
    /// top-level spans. Every instant inside a top-level span belongs
    /// to exactly one span's self time, so the per-name self times add
    /// up to the top-level total.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        assert!(self.open.is_empty(), "self times of a tracer with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut top_ns = 0u64;
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            match s.parent {
                Some(p) => child_ns[p] += d,
                None => top_ns += d,
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - child) as f64 * 1e-9;
        }
        (by_name, top_ns as f64 * 1e-9)
    }

    /// The spans as JSON lines (`name`, `job`, `parent`, `start_ns`,
    /// `end_ns`), parent given as the parent's line index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

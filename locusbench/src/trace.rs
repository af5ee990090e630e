//! Spans around every call the benchmark makes into a layer of the
//! program. Off in the measured run (one branch per call); on in the
//! traced run, which keeps every span in memory and writes them out at
//! the end.

use locus_net::Net;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::speed::HostClock;

/// One call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `fs.open`, or `op.<kind>` for a whole operation.
    pub name: &'static str,
    /// Normalised host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Normalised host nanoseconds since the tracer started.
    pub end_ns: u64,
    /// The operation this call belongs to (0 outside operations).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Virtual time the call took, in microseconds.
    pub vt_us: u64,
    /// Messages sent during the call, for calls that count them.
    pub msgs: Option<u64>,
}

impl Span {
    /// Host time of the call.
    pub fn host_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder, and the normalised host clock every host time of
/// the run is read from.
pub struct Tracer {
    on: bool,
    clock: RefCell<HostClock>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a plain pass-through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: RefCell::new(HostClock::default()),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Normalised host nanoseconds since the tracer started.
    pub fn now_ns(&self) -> f64 {
        self.clock.borrow_mut().now_ns()
    }

    /// Refreshes the host-speed estimate if it is due (between
    /// operations, off the clock).
    pub fn maybe_sample(&self) {
        self.clock.borrow_mut().maybe_sample();
    }

    /// Runs `f` inside a span named `name`. With `count_msgs`, the span
    /// also records the messages sent during the call (a statistics
    /// snapshot on each side, so only for coarse calls).
    pub fn span<T>(
        &self,
        net: &Net,
        name: &'static str,
        count_msgs: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                op: self.op.get(),
                parent,
                vt_us: 0,
                msgs: None,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let sends0 = count_msgs.then(|| net.stats().total_sends());
        let vt0 = net.now();
        let start = self.now_ns() as u64;
        let out = f();
        let end = self.now_ns() as u64;
        let vt = net.now() - vt0;
        let msgs = sends0.map(|s| net.stats().total_sends() - s);
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[idx];
        s.start_ns = start;
        s.end_ns = end;
        s.vt_us = vt.0;
        s.msgs = msgs;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Host durations (ns) of the spans named `name`.
    pub fn host_ns_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.host_ns() as f64)
            .collect()
    }

    /// Virtual durations (µs) of the spans named `name`.
    pub fn vt_us_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.vt_us as f64)
            .collect()
    }

    /// Message counts of the spans named `name` that counted them.
    pub fn msgs_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.msgs.map(|m| m as f64))
            .collect()
    }

    /// The spans as JSON lines: name, start, end, operation id, parent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{},\"parent\":{},\"vt_us\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.vt_us
            );
            if let Some(m) = s.msgs {
                let _ = write!(out, ",\"msgs\":{m}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Per-call table: count, busy time (sum of durations) and self time
    /// (busy time minus the part its direct children cover), with one
    /// subtotal row per layer (the name's first component).
    pub fn layer_table(&self) -> String {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.host_ns();
            }
        }
        // name -> (count, busy, self)
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let r = rows.entry(s.name).or_default();
            r.0 += 1;
            r.1 += s.host_ns();
            r.2 += s.host_ns().saturating_sub(child_ns[i]);
        }
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (name, r) in &rows {
            let layer = name.split('.').next().unwrap_or(name);
            let l = layers.entry(layer).or_default();
            l.0 += r.0;
            l.1 += r.1;
            l.2 += r.2;
        }
        let mut out = format!(
            "{:<24} {:>10} {:>12} {:>12}\n",
            "span", "count", "busy_ms", "self_ms"
        );
        for (layer, l) in &layers {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>12.3} {:>12.3}",
                format!("[{layer}]"),
                l.0,
                l.1 as f64 / 1e6,
                l.2 as f64 / 1e6
            );
            for (name, r) in rows
                .iter()
                .filter(|(n, _)| n.split('.').next() == Some(layer))
            {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>10} {:>12.3} {:>12.3}",
                    name,
                    r.0,
                    r.1 as f64 / 1e6,
                    r.2 as f64 / 1e6
                );
            }
        }
        out
    }
}

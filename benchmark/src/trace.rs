//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is one call (or, for per-operation calls, the calls of one
//! group of operations folded together: `busy_ns` is then the summed
//! duration of the `calls` calls, which do not fill `start..end`).
//! Spans stay in memory and are written out once, at exit. A layer's
//! self time is its spans' busy time minus the busy time of their
//! direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    /// Half-open range of request numbers the span served.
    pub reqs: (u64, u64),
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub spans: u64,
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Requests served, summed over the spans' ranges.
    pub reqs: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Whether spans are being recorded. The traced run toggles this per
    /// block of work, so traced and untraced blocks interleave in one
    /// process and their throughputs can be compared.
    pub on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span that children can name as their parent; `close`
    /// fills in its times. `None` while recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            busy_ns: 0,
            calls: 1,
            reqs: (0, 0),
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn close(&mut self, id: Option<SpanId>, start: Instant, dur: Duration, reqs: (u64, u64)) {
        let Some(id) = id else { return };
        let start_ns = self.ns(start);
        let s = &mut self.spans[id as usize];
        s.start_ns = start_ns;
        s.end_ns = start_ns + dur.as_nanos() as u64;
        s.busy_ns = dur.as_nanos() as u64;
        s.reqs = reqs;
    }

    /// Record a finished span with no children of its own.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        dur: Duration,
        reqs: (u64, u64),
    ) {
        let id = self.open(name, parent);
        self.close(id, start, dur, reqs);
    }

    /// Record the calls of one group folded together: `calls` calls that
    /// took `busy_ns` in total somewhere inside the parent span.
    pub fn folded(&mut self, name: &'static str, parent: Option<SpanId>, busy_ns: u64, calls: u64) {
        let Some(p) = parent else { return };
        if !self.on || calls == 0 {
            return;
        }
        let (start_ns, end_ns, reqs) = {
            let ps = &self.spans[p as usize];
            (ps.start_ns, ps.end_ns, ps.reqs)
        };
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
            reqs,
        });
    }

    /// Totals by name over the whole trace.
    #[cfg(test)]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|_| true)
    }

    /// Totals by name over the spans that have an ancestor called `root`.
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|s| {
            let mut parent = s.parent;
            while let Some(p) = parent {
                if self.spans[p as usize].name == root {
                    return true;
                }
                parent = self.spans[p as usize].parent;
            }
            false
        })
    }

    fn totals_where(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p as usize] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s)) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.calls += s.calls;
            t.busy_ns += s.busy_ns;
            t.self_ns += s.busy_ns.saturating_sub(child_busy[i]);
            t.reqs += s.reqs.1 - s.reqs.0;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start\":{},\"end\":{},\
                 \"busy\":{},\"calls\":{},\"req_lo\":{},\"req_hi\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                s.reqs.0,
                s.reqs.1,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        // window 100 ms
        //   offer 60 ms
        //     enqueue (folded) 10 ms over 4 calls
        //     tick    (folded) 30 ms over 2 calls
        //   drain 30 ms
        //     tick 25 ms
        let window = t.open("window", None);
        let offer = t.open("offer", window);
        t.close(offer, t0, ms(60), (0, 4));
        t.folded("enqueue", offer, 10_000_000, 4);
        t.folded("tick", offer, 30_000_000, 2);
        let drain = t.open("drain", window);
        t.leaf("tick", drain, t0 + ms(62), ms(25), (2, 4));
        t.close(drain, t0 + ms(60), ms(30), (2, 4));
        t.close(window, t0, ms(100), (0, 4));

        let totals = t.totals();
        assert_eq!(totals["window"].self_ns, 10_000_000);
        assert_eq!(totals["offer"].self_ns, 20_000_000);
        assert_eq!(totals["drain"].self_ns, 5_000_000);
        assert_eq!(
            totals["enqueue"],
            Totals {
                spans: 1,
                calls: 4,
                busy_ns: 10_000_000,
                self_ns: 10_000_000,
                reqs: 4
            }
        );
        assert_eq!(totals["tick"].busy_ns, 55_000_000);
        assert_eq!(totals["tick"].calls, 3);
        // Self times of a tree add up to its root's busy time.
        let sum: u64 = totals.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100_000_000);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        assert!(id.is_none());
        t.close(id, Instant::now(), ms(1), (0, 0));
        t.folded("y", id, 5, 1);
        assert_eq!(t.len(), 0);
    }
}

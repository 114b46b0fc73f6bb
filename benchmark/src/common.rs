//! What every workload shares: the run's arguments, its result, and the
//! text → compiled-program part of set-up.

use crate::model::Tally;
use crate::sut;
use crate::trace::{SpanId, Tracer};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunCfg {
    pub seed: u64,
    /// Scale of the measured phases: operation counts are fixed multiples
    /// of this, sized so that the phases take about this many wall
    /// seconds on the 2-core reference host (README.md, "Run length").
    pub seconds: u64,
    pub trace: bool,
    /// The benchmark's own directory (programs/, out/).
    pub home: PathBuf,
}

/// Metric values by name; `main.rs` owns the list of names and units and
/// refuses a run that leaves one out.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    /// Anything besides a wrong reply that makes the run incorrect.
    pub violations: Vec<String>,
    /// Wall seconds of each part of the run, for the log.
    pub walls: Vec<(&'static str, f64)>,
    /// Lines for the log, such as each segment's value of a metric.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Report a timing metric as the best of its segments, and log every
    /// segment's value.
    pub fn put_best(&mut self, name: &'static str, segments: &[f64], better: Better) {
        self.note(format!("segments {name} {segments:.4?}"));
        self.put(name, best(segments, better));
    }

    /// Note how long a part of the run took, from `since` to now.
    pub fn wall(&mut self, part: &'static str, since: Instant) {
        self.walls.push((part, since.elapsed().as_secs_f64()));
    }
}

/// Segments each measured phase is cut into. A timing metric is the best
/// of its segments: other tenants of the host only ever make a segment
/// slower, in episodes that last longer than a segment, so the best
/// segment is the one least disturbed, and it repeats far better from
/// run to run than the median one does.
pub const SEGMENTS: usize = 5;

/// Which way a metric is better.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The best of the segments' values of a metric.
pub fn best(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => values.iter().copied().fold(f64::MIN, f64::max),
        Better::Lower => values.iter().copied().fold(f64::MAX, f64::min),
    }
}

/// Set up `reps` times (once in the traced run, whose spans should show
/// one set-up), dropping each instance before the next is built, so that
/// `setup_s` can be a median. `set_up` returns its seconds and the
/// instance; the last instance serves the traffic.
pub fn set_up_repeatedly<T>(
    cfg: &RunCfg,
    reps: usize,
    mut set_up: impl FnMut() -> (f64, T),
) -> (f64, T) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..if cfg.trace { 1 } else { reps } {
        drop(last.take());
        let (s, instance) = set_up();
        seconds.push(s);
        last = Some(instance);
    }
    (
        crate::stats::median(&seconds),
        last.expect("at least one set-up"),
    )
}

/// A program taken from text to a compiled core, with what each step cost.
pub struct Compiled {
    pub parsed: sut::Parsed,
    pub partition: sut::Partition,
    pub core: sut::Core,
    pub src_bytes: usize,
    pub diagnostics: usize,
    pub core_build_ns: u64,
}

/// Read → parse → preflight → partition → `ProgramCore::new`, one span
/// each. Refuses a program with an error-severity diagnostic.
pub fn compile(cfg: &RunCfg, file: &str, tracer: &mut Tracer, parent: Option<SpanId>) -> Compiled {
    let path = cfg.home.join("programs").join(file);
    let t = Instant::now();
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    tracer.leaf("read_text", parent, t, t.elapsed(), (0, 0));

    let t = Instant::now();
    let parsed = sut::parse(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    tracer.leaf("parse_program", parent, t, t.elapsed(), (0, 0));

    let t = Instant::now();
    let pre = sut::preflight(&parsed);
    tracer.leaf("preflight", parent, t, t.elapsed(), (0, 0));
    assert!(
        pre.errors() == 0,
        "{file} fails preflight:\n{}",
        pre.rendered()
    );

    let t = Instant::now();
    let partition = sut::partition(&parsed);
    tracer.leaf("partition", parent, t, t.elapsed(), (0, 0));

    // `ProgramCore::new` consumes its program; the copy is the
    // benchmark's doing and stays outside the span.
    let copy = parsed.clone();
    let t = Instant::now();
    let core = sut::build_core(copy).unwrap_or_else(|e| panic!("{file}: {e}"));
    let core_build = t.elapsed();
    tracer.leaf("ProgramCore::new", parent, t, core_build, (0, 0));

    Compiled {
        parsed,
        partition,
        core,
        src_bytes: src.len(),
        diagnostics: pre.diagnostics(),
        core_build_ns: core_build.as_nanos() as u64,
    }
}

/// The front end's per-layer metrics: the median cost in µs of parse,
/// preflight and partition over 200 repeats (they take well under a
/// millisecond, so one sample says little), and what set-up recorded.
pub fn front_end_metrics(cfg: &RunCfg, file: &str, compiled: &Compiled, out: &mut Outcome) {
    let src = std::fs::read_to_string(cfg.home.join("programs").join(file)).expect("read program");
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..200 {
        let t = Instant::now();
        let parsed = sut::parse(&src).expect("parse");
        samples[0].push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        std::hint::black_box(sut::preflight(&parsed));
        samples[1].push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        std::hint::black_box(sut::partition(&parsed));
        samples[2].push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let [parse_us, preflight_us, partition_us] = samples.map(|s| crate::stats::median(&s));
    out.put("lang.parse_us", parse_us);
    out.put("lang.src_bytes", compiled.src_bytes as f64);
    out.put("analysis.preflight_us", preflight_us);
    out.put("analysis.partition_us", partition_us);
    out.put("analysis.diagnostics", compiled.diagnostics as f64);
    out.put("interp.core_build_us", compiled.core_build_ns as f64 / 1e3);
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

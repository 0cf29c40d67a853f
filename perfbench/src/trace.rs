//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run's origin),
//! the span that caused it and the request it belongs to.  Spans stay in
//! memory while the workload runs and are written out as JSON lines when it
//! ends.  A disabled tracer records nothing and reads no clock.

use std::io::Write as _;
use std::time::Instant;

/// Reconciliation tolerance: the share of a run's wall time its layer spans
/// may leave uncovered ...
pub const TOLERANCE_PCT: f64 = 5.0;
/// ... or the absolute time they may leave uncovered: the bookkeeping
/// between two spans of a run of a few microseconds, or one descheduling
/// on a shared host.
pub const TOLERANCE_NS: u64 = 100_000;

/// How well the layer spans of the root spans account for their wall time.
#[derive(Debug, Default)]
pub struct Reconciliation {
    /// Share of the roots' total wall time no child span covers.
    pub unattributed_pct: f64,
    pub roots: usize,
    /// Roots outside the tolerance.
    pub outside: usize,
}

impl Reconciliation {
    pub fn note(&self, what: &str) -> String {
        format!(
            "reconciliation: {:.2}% of {what} wall time outside layer spans; \
             {} of {} {what}s outside the tolerance ({TOLERANCE_PCT}% or {} us): {}",
            self.unattributed_pct,
            self.outside,
            self.roots,
            TOLERANCE_NS / 1000,
            if self.outside == 0 { "ok" } else { "exceeded" }
        )
    }
}

/// Handle of an open or closed span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No span: the parent of a root span.
    pub const NONE: SpanId = SpanId(None);
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A span recorder; one per thread, merged with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.ns(Instant::now());
        self.push(name, start_ns, start_ns, parent, request)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, request)
    }

    fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Mean duration in milliseconds of the spans called `name` (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.durations_ms(name))
    }

    /// Reconciles every root span whose name starts with `root_prefix`
    /// against its direct children.  A root reconciles when the part of it
    /// no child covers is at most [`TOLERANCE_PCT`] of its wall time or at
    /// most [`TOLERANCE_NS`].
    pub fn reconcile(&self, root_prefix: &str) -> Reconciliation {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut r = Reconciliation::default();
        let (mut wall, mut loose) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name.starts_with(root_prefix) {
                let total = s.end_ns - s.start_ns;
                let rest = total.saturating_sub(covered[i]);
                wall += total;
                loose += rest;
                r.roots += 1;
                if rest > TOLERANCE_NS && rest as f64 > total as f64 * TOLERANCE_PCT / 100.0 {
                    r.outside += 1;
                }
            }
        }
        if wall > 0 {
            r.unattributed_pct = 100.0 * loose as f64 / wall as f64;
        }
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

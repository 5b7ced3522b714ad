//! Spans recorded from the benchmark's side of the engine's public API.
//!
//! The load generator is one thread, so open spans form a stack and a
//! span's parent is whatever was open when it began. Spans stay in memory
//! and are written out once, after measuring. Nothing inside the engine is
//! instrumented: a span brackets a call into a public function, and what
//! happens beneath it is read from the statistics that call returns.

use crate::json;
use distme_cluster::JobError;
use distme_engine::session::RealOps;
use distme_matrix::elementwise::EwOp;
use distme_matrix::BlockMatrix;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Inner {
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Ends its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.end(self.id);
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                enabled: false,
                rep: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Turns recording on or off. Only between spans: a span that began
    /// while recording must end while recording.
    pub fn set_enabled(&self, enabled: bool) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "tracing toggled inside a span");
        inner.enabled = enabled;
    }

    /// The repetition number stamped on spans begun from now on.
    pub fn set_rep(&self, rep: u32) {
        self.inner.borrow_mut().rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Begins a span; `None` while recording is off.
    pub fn begin(&self, name: &'static str) -> Option<u32> {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return None;
        }
        let id = inner.spans.len() as u32;
        let span = Span {
            id,
            parent: inner.open.last().copied(),
            name,
            rep: inner.rep,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        inner.spans.push(span);
        inner.open.push(id);
        Some(id)
    }

    /// Ends the span `begin` returned.
    ///
    /// # Panics
    /// When `id` is not the innermost open span: spans nest.
    pub fn end(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.open.pop(), Some(id), "spans must end innermost first");
        inner.spans[id as usize].end_ns = now;
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.begin(name),
        }
    }

    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Every span recorded so far, in the order they began.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.borrow();
        assert!(inner.open.is_empty(), "spans read while one is open");
        inner.spans.clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                json::quote(s.name),
                json::quote(workload),
                s.rep,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, in seconds, indexed like `spans`: a span's
/// duration minus the part of it that its direct children cover.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

/// Total seconds of `parent`'s direct children named `name`.
pub fn child_secs(spans: &[Span], parent: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(Span::secs)
        .sum()
}

/// A [`RealOps`] that records one span per operator and forwards to the
/// session it wraps, so a query written against `RealOps` (GNMF) is traced
/// without being edited.
pub struct Timed<'t, S> {
    pub inner: S,
    pub tracer: &'t Tracer,
}

impl<S: RealOps> RealOps for Timed<'_, S> {
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        let _s = self.tracer.span("engine.session.matmul");
        self.inner.matmul(a, b)
    }

    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        let _s = self.tracer.span("engine.session.transpose");
        self.inner.transpose(x)
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        let _s = self.tracer.span("engine.session.elementwise");
        self.inner.elementwise(x, op, y)
    }

    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        let _s = self.tracer.span("engine.session.spmm");
        self.inner.spmm(a, b)
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        let _s = self.tracer.span("engine.session.sddmm");
        self.inner.sddmm(a, b, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, None, 0, 1_000),
            span(1, Some(0), 100, 400),
            span(2, Some(0), 500, 900),
            span(3, Some(2), 600, 700),
        ];
        let own = self_secs(&spans);
        assert_eq!(own[0], 300e-9); // 1000 - 300 - 400; the grandchild is not subtracted twice
        assert_eq!(own[1], 300e-9);
        assert_eq!(own[2], 300e-9);
        assert_eq!(own[3], 100e-9);
        // Self times of a tree add back up to the root's duration.
        assert!((own.iter().sum::<f64>() - spans[0].secs()).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span(0, None, 100, 1_100),
            span(1, Some(0), 200, 600),
            span(2, Some(0), 400, 800),
            span(3, Some(0), 1_000, 1_500),
        ];
        assert_eq!(self_secs(&spans)[0], 300e-9); // covered: 200..800 and 1000..1100
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_while_off() {
        let t = Tracer::new();
        drop(t.span("ignored"));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_rep(3);
        let outer = t.begin("outer");
        {
            let _inner = t.span("inner");
        }
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(child_secs(&spans, 0, "inner"), spans[1].secs());

        let mut out = Vec::new();
        t.write_jsonl("w", &mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let doc = json::Json::parse(line).expect("each line is JSON");
            assert_eq!(doc.get("workload").and_then(json::Json::as_str), Some("w"));
        }
    }
}

//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API; they stay in memory and are written out as JSON lines when
//! the run ends.  A span has a name, start, end, an optional parent span and
//! an optional request index (every span of one served request shares it).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span, in microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span list sharing one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// A recorder on an existing origin, so spans from several threads can
    /// be merged onto one timeline with [`Tracer::absorb`].
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span; `f` gets the recorder back with the new span's
    /// id so it can open children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        let result = f(self, id);
        self.spans[id].end_us = self.now_us();
        result
    }

    /// A childless span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, parent, request, |_, _| f())
    }

    /// Move every span of `other` (same origin) into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Summed duration (µs) of every span called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
                span.name, span.start_us, span.end_us
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(request) = span.request {
                let _ = write!(out, ",\"req\":{request}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_merge() {
        let mut t = Tracer::new();
        t.span("pass", None, None, |t, id| {
            t.leaf("a", Some(id), None, || ());
            t.leaf("b", Some(id), None, || ());
        });
        let mut other = Tracer::with_origin(t.origin());
        other.span("req", None, Some(7), |t, id| {
            t.leaf("c", Some(id), Some(7), || ())
        });
        t.absorb(other);
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.spans[4].request, Some(7));
        assert!(t.total_us("a") + t.total_us("b") <= t.total_us("pass"));
    }
}

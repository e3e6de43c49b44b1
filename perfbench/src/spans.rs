//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written out at the end as Chrome trace-event JSON (opens in
//! `chrome://tracing`, Perfetto or any trace viewer).
//!
//! A disabled tracer takes no clock reads, so the untraced run that
//! produces the end-to-end metrics pays one branch per call site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;
/// Item id of a span that belongs to no job or request.
pub const NO_ITEM: i64 = -1;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique, nonzero when tracing.
    pub id: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// `<layer>.<call>`, e.g. `farm.run` or `store.fetch`.
    pub name: &'static str,
    /// Job index or request id, or [`NO_ITEM`].
    pub item: i64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span sink.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, item: i64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: ROOT,
                parent,
                name,
                item,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: self,
            // A unique id publishes no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            item,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: u64, item: i64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, parent, item);
        f()
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans as a Chrome trace-event document; `meta` is a
    /// JSON object stored under `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(64 + spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.item
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// An open span; records itself on drop when tracing is enabled.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    item: i64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            item: self.item,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // Never panic in drop: a poisoned sink just loses the span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("farm.run", ROOT, NO_ITEM);
            assert_eq!(g.id(), ROOT);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_carry_parent_item_and_order() {
        let t = Tracer::new(true);
        let outer = t.span("farm.run", ROOT, NO_ITEM);
        t.time("pricing.compute", outer.id(), 7, || ());
        let outer_id = outer.id();
        drop(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "pricing.compute");
        assert_eq!(spans[0].parent, outer_id);
        assert_eq!(spans[0].item, 7);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let t = Tracer::new(true);
        t.time("store.fetch", ROOT, 3, || ());
        t.time("xdr.sload", ROOT, 3, || ());
        let json = t.chrome_json("{\"seed\":1}");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"seed\":1}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"store.fetch\",\"cat\":\"store\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}

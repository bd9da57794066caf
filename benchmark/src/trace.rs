//! Benchmark-side spans: recorded around the calls into each library
//! layer, kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it;
/// spans of one operation (solve, compile, request) share `op_id`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A single-threaded span recorder. Disabled, [`Tracer::span`] only runs
/// the closure — the state end-to-end runs measure in.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become its children.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// A fresh recorder on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn sibling(&self, enabled: bool) -> Self {
        Self::new(self.origin, enabled)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .collect()
    }

    /// Total duration, in seconds, of the spans named `name`, per
    /// operation.
    pub fn seconds_per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut ops = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *ops.entry(span.op_id).or_insert(0.0) += span.seconds();
        }
        ops
    }

    /// Append the spans another recorder (a client thread's) collected
    /// against the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time of every span: its duration minus the time its child
    /// spans cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(SpanRec::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own.iter().map(|s| s.max(0.0)).collect()
    }

    /// The share of root-span time no child span accounts for:
    /// `Σ self(root) ÷ Σ duration(root)` over every root that has
    /// children (a childless root is a leaf measurement, not a tree).
    pub fn unattributed_share(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                has_child[parent] = true;
            }
        }
        let own = self.self_seconds();
        let (mut unattributed, mut total) = (0.0, 0.0);
        for (index, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && has_child[index] {
                unattributed += own[index];
                total += span.seconds();
            }
        }
        if total > 0.0 {
            unattributed / total
        } else {
            0.0
        }
    }

    /// The span list as a JSON array (one object per span).
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op_id
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_unattributed_share() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.span("root", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(tracer.spans().len(), 3);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.seconds_of("child").len(), 2);
        let share = tracer.unattributed_share();
        assert!((0.0..0.5).contains(&share), "share {share}");
        assert_eq!(tracer.seconds_per_op("child").len(), 1);
        let mut other = Tracer::new(Instant::now(), true);
        other.span("root", 2, |t| t.span("child", 2, |_| ()));
        tracer.absorb(other);
        assert_eq!(tracer.spans()[4].parent, Some(3));
        assert_eq!(tracer.seconds_per_op("child").len(), 2);
        assert!(tracer.self_seconds()[0] <= tracer.spans()[0].seconds());
        assert!(tracer.render_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        assert_eq!(tracer.span("root", 1, |_| 7), 7);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.unattributed_share(), 0.0);
    }
}

//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions, and the per-layer self-time table built from
//! them.
//!
//! A disabled tracer runs the wrapped call and records nothing, so the same
//! code path serves the untraced run; the difference between a traced and an
//! untraced pass is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// The request this span served, when it belongs to one.
    request: Option<u64>,
}

/// An in-memory span recorder for the thread that owns it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: RefCell<Option<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: RefCell::new(None),
        }
    }

    /// Tags the spans that follow with request `id` (`None` ends the tag).
    pub fn set_request(&self, id: Option<u64>) {
        *self.request.borrow_mut() = id;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                request: *self.request.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Durations (s) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Distinct requests that recorded at least one span.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self
            .spans
            .borrow()
            .iter()
            .filter_map(|s| s.request)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_time) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end - s.start) - children;
            entry.1 += 1;
        }
        out
    }
}

/// A per-layer self-time table over a pass of `wall_s` seconds: the measured
/// rows from the spans, an `unattributed` row that makes them sum to the wall
/// time, and `derived` rows (unit cost × count, not added to the sum).
pub struct Table {
    pub title: String,
    pub wall_s: f64,
    pub measured: Vec<(String, f64, usize)>,
    pub derived: Vec<(String, f64, String)>,
}

impl Table {
    pub fn from_tracer(title: impl Into<String>, wall_s: f64, tracer: &Tracer) -> Self {
        let measured = tracer
            .self_times()
            .into_iter()
            .map(|(n, (s, c))| (n.to_string(), s, c))
            .collect();
        Table {
            title: title.into(),
            wall_s,
            measured,
            derived: Vec::new(),
        }
    }

    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.measured.iter().map(|r| r.1).sum::<f64>()
    }

    pub fn render(&self) -> Vec<String> {
        let mut out = vec![
            format!("trace: {}", self.title),
            format!(
                "  {:<28} {:>12} {:>8} {:>7}  kind",
                "layer", "self_s", "calls", "share"
            ),
        ];
        let share = |s: f64| {
            if self.wall_s > 0.0 {
                100.0 * s / self.wall_s
            } else {
                0.0
            }
        };
        for (name, s, calls) in &self.measured {
            out.push(format!(
                "  {name:<28} {s:>12.6} {calls:>8} {:>6.2}%  measured",
                share(*s)
            ));
        }
        let un = self.unattributed_s();
        out.push(format!(
            "  {:<28} {un:>12.6} {:>8} {:>6.2}%  measured",
            "unattributed",
            "",
            share(un)
        ));
        out.push(format!(
            "  {:<28} {:>12.6} {:>8} {:>6.2}%",
            "wall", self.wall_s, "", 100.0
        ));
        for (name, s, how) in &self.derived {
            out.push(format!(
                "  {name:<28} {s:>12.6} {:>8} {:>6.2}%  derived: {how}",
                "",
                share(*s)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_children_and_table_sums_to_wall() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        tracer.set_request(Some(7));
        tracer.span("outer", || {
            spin(2);
            tracer.span("inner", || spin(3));
        });
        tracer.set_request(None);
        let wall = t0.elapsed().as_secs_f64();
        let times = tracer.self_times();
        assert!(times["inner"].0 >= 0.003);
        assert!(times["outer"].0 >= 0.002 && times["outer"].0 < times["inner"].0 + 0.002);
        assert_eq!(tracer.requests(), 1);
        let table = Table::from_tracer("t", wall, &tracer);
        let total: f64 = table.measured.iter().map(|r| r.1).sum::<f64>() + table.unattributed_s();
        assert!((total - wall).abs() < 1e-9);
        assert!(table.render().iter().any(|l| l.contains("unattributed")));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 5), 5);
        assert!(tracer.self_times().is_empty());
    }
}

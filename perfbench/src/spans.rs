//! The benchmark's own spans: one per public call it makes into a layer.
//!
//! A [`Tracer`] keeps spans in memory (name, problem or opcode tag, start,
//! end, parent span, round or request id) and the run writes them out once
//! at exit. A disabled tracer records nothing, so the untraced run pays
//! one branch per call.

use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `mg.cycle`.
    pub name: &'static str,
    /// Problem name or opcode the call served (may be empty).
    pub tag: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Round (solve workloads) or request (serve workload) id.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off (spans already open still close).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, tag: &str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag: tag.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in stack order");
        }
    }

    /// Run `f` inside a span.
    pub fn wrap<R>(&mut self, name: &'static str, tag: &str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, tag, id);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name` with tag `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Append another thread's spans (re-basing their parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                // clip to the parent's interval
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Render spans and their self times as JSON lines (one object per line).
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
        out.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{st}}}\n",
            s.name,
            s.tag,
            s.id,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            tag: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(12, 18, Some(1)),  // grandchild: counts against span 1 only
            span(90, 130, Some(0)), // clipped to the parent's end
        ];
        let st = self_times(&spans);
        // covered: [10,50) + [60,70) + [90,100) = 60
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20 - 6);
        assert_eq!(st[2], 30);
        assert_eq!(st[4], 6);
    }

    #[test]
    fn tracer_links_parents_and_ignores_disabled_calls() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.begin("round", "", 7);
        t.wrap("mg.cycle", "p", 7, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 7);
        t.set_enabled(false);
        t.wrap("mg.cycle", "p", 8, || ());
        assert_eq!(t.spans().len(), 2);

        let mut other = Tracer::new(true, epoch);
        let o = other.begin("a", "", 0);
        other.wrap("b", "", 0, || ());
        other.end(o);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.durations("mg.cycle", "p").len(), 1);
    }
}

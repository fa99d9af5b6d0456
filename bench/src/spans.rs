//! Spans recorded by the benchmark's own code around its calls into the
//! program. Kept in memory; written as JSON Lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or still-open interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position in the recording, which is also the order of `start_ns`.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// What ran, e.g. `rep:3` or `runtime.run`.
    pub name: String,
    /// The workload it ran for; empty for probes.
    pub workload: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while still open.
    pub end_ns: u64,
}

/// Handle returned by [`Spans::enter`] and consumed by [`Spans::exit`].
#[derive(Debug)]
#[must_use = "a span that is never exited has no duration"]
pub struct Open(Option<usize>);

/// The recorder. A disabled recorder takes no timestamps and stores nothing,
/// which is what the untraced run uses.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            workload: "",
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off; spans already taken are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let span = Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_owned(),
            workload: self.workload,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The recording as JSON Lines, one span per line, self time included.
    pub fn to_json_lines(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.id,
                crate::json::quote(&s.name),
                crate::json::quote(s.workload),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children. Children of one parent never overlap here, because one thread
/// opens and closes them in turn.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns.saturating_sub(s.start_ns)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: format!("s{id}"), workload: "w", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // 0: [0,100] with children 1: [10,40] and 2: [50,90]; 3: [55,60] under 2.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 35, 5]);
        // Children plus self time give back the parent.
        let own = self_times(&spans);
        assert_eq!(own[0] + 30 + 40, 100);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_stores_nothing() {
        let mut on = Spans::new(true);
        on.set_workload("w");
        let outer = on.enter("outer");
        let inner = on.enter("inner");
        on.exit(inner);
        on.exit(outer);
        let all = on.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(on.to_json_lines().lines().count(), 2);

        let mut off = Spans::new(false);
        let s = off.enter("x");
        off.exit(s);
        assert!(off.all().is_empty());
    }
}

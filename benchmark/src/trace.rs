//! Spans recorded by the benchmark around the calls it makes into each
//! layer: `{name, start, end, parent, round}`, kept in memory and written
//! out when the run ends. A disabled tracer (the timed run) costs one
//! branch per call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round the harness was in: spans of one round share it.
    pub round: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span [`Tracer::enter`] opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Like [`Tracer::durations_us`], of the rounds listed (ascending).
    pub fn durations_in_rounds_us(&self, name: &str, rounds: &[u64]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && rounds.binary_search(&s.round).is_ok())
            .map(Span::micros)
            .collect()
    }

    /// Per span name: how many, their total time, and their self time —
    /// the span's duration minus the part its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total += Duration::from_nanos(total);
            e.self_time += Duration::from_nanos(total.saturating_sub(children));
        }
        out
    }

    /// The trace file: a summary per span name, then every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s =
            format!("{{\n\"workload\": \"{workload}\",\n\"seed\": {seed},\n\"summary\": [\n");
        let rows: Vec<String> = self
            .summary()
            .iter()
            .map(|(name, sum)| {
                format!(
                    "  {{\"name\": \"{name}\", \"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}}}",
                    sum.count,
                    sum.total.as_secs_f64() * 1e6,
                    sum.self_time.as_secs_f64() * 1e6
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n],\n\"spans\": [\n";
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|sp| {
                let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"round\": {}}}",
                    sp.name, sp.start_ns, sp.end_ns, sp.round
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n]\n}\n";
        s
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("a");
        t.exit(id);
        assert!(id.is_none() && t.spans().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.set_round(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].round, 7);
        let sum = t.summary();
        assert_eq!(
            sum["outer"].self_time,
            sum["outer"].total - sum["inner"].total
        );
        assert!(sum["inner"].total >= Duration::from_millis(2));
        let json = t.to_json("w", 1);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}

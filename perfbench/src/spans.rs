//! The traced run's span recorder.
//!
//! Spans are taken from outside the program, around calls into its
//! public API, and kept in memory until the run ends. A span's children
//! are linked one of two ways:
//!
//! * [`Link::Nested`] — the child ran inside the parent's interval (a
//!   pool item inside the pool map). The parent's self time loses the
//!   part of its interval the nested children cover.
//! * [`Link::Replay`] — the parent is a call that hides several layers,
//!   and the child is one of those layers' public calls, issued again
//!   right after the parent on the same inputs to explain it. The
//!   parent's self time loses the child's whole duration; what is left
//!   of a hidden call is time no public call explains (`unattributed_s`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// How a span relates to its parent (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    Nested,
    Replay,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub link: Link,
    /// The call hides layers: its self time counts as unattributed.
    pub hidden: bool,
    pub iteration: u32,
}

impl Span {
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    iteration: u32,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            iteration: 0,
        }
    }

    /// Starts the next traced iteration; later spans carry its id.
    pub fn next_iteration(&mut self) {
        self.iteration += 1;
    }

    #[must_use]
    pub fn iterations(&self) -> u32 {
        self.iteration
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose start and end were read elsewhere (on a
    /// worker thread, say).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        link: Link,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start: self.nanos(start),
            end: self.nanos(end),
            parent,
            link,
            hidden: false,
            iteration: self.iteration,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        link: Link,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        (self.record(name, parent, link, start, end), result)
    }

    /// [`time`](Self::time) for a call that hides layers.
    pub fn time_hidden<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        link: Link,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let (id, result) = self.time(name, parent, link, f);
        self.hide(id);
        (id, result)
    }

    /// Marks span `id` as a call that hides layers.
    pub fn hide(&mut self, id: usize) {
        self.spans[id].hidden = true;
    }

    /// Self time of every span, in seconds (index-aligned with
    /// [`spans`](Self::spans)). May be negative for a hidden call whose
    /// replayed parts took longer than the call itself.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut replayed = vec![0.0; self.spans.len()];
        let mut nested: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                match span.link {
                    Link::Replay => replayed[p] += span.duration(),
                    Link::Nested => nested[p].push((span.start, span.end)),
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let covered = covered_nanos(&mut nested[i], span.start, span.end) as f64 * 1e-9;
                span.duration() - covered - replayed[i]
            })
            .collect()
    }

    /// The call path of span `i`, root first, joined by `;`.
    #[must_use]
    pub fn path(&self, mut i: usize) -> String {
        let mut names = vec![self.spans[i].name.as_str()];
        while let Some(p) = self.spans[i].parent {
            names.push(&self.spans[p].name);
            i = p;
        }
        names.reverse();
        names.join(";")
    }

    /// Self times as collapsed stacks (`frame;frame;leaf weight`), the
    /// format `accelerometer_profiler::fold` reads; weights are whole
    /// microseconds summed over all traced iterations. Negative and
    /// sub-microsecond self times are left out.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
        for (i, own) in self.self_times().into_iter().enumerate() {
            *stacks.entry(self.path(i)).or_insert(0.0) += own;
        }
        let mut out = String::new();
        for (stack, seconds) in stacks {
            let micros = (seconds * 1e6).round();
            if micros >= 1.0 {
                let _ = writeln!(out, "{stack} {micros}");
            }
        }
        out
    }

    /// Every span as one JSON document, for offline reading.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let own = self.self_times();
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(i, (span, own))| {
                serde_json::json!({
                    "id": i,
                    "name": span.name,
                    "iteration": span.iteration,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": span.parent,
                    "link": match span.link { Link::Nested => "nested", Link::Replay => "replay" },
                    "hidden": span.hidden,
                    "self_s": own,
                })
            })
            .collect();
        serde_json::Value::Array(spans)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_nanos(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_children_cover_their_union_once() {
        let mut intervals = vec![(10, 30), (20, 40), (50, 60)];
        assert_eq!(covered_nanos(&mut intervals, 0, 100), 40);
        assert_eq!(covered_nanos(&mut intervals, 25, 55), 20);
    }

    #[test]
    fn replayed_children_subtract_their_duration() {
        let mut rec = Recorder::new();
        let t0 = rec.epoch;
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let parent = rec.record("call", None, Link::Nested, at(0), at(100));
        rec.spans[parent].hidden = true;
        rec.record("part", Some(parent), Link::Replay, at(100), at(170));
        let pool = rec.record("pool", Some(parent), Link::Replay, at(170), at(200));
        rec.record("item", Some(pool), Link::Nested, at(170), at(190));
        let own = rec.self_times();
        assert!((own[0] - 0.0).abs() < 1e-9, "{own:?}");
        assert!((own[1] - 0.07).abs() < 1e-9);
        assert!((own[2] - 0.01).abs() < 1e-9);
        let folded = rec.folded();
        assert!(folded.contains("call;part 70000\n"), "{folded}");
        assert!(folded.contains("call;pool;item 20000\n"), "{folded}");
        assert_eq!(accelerometer_profiler::from_folded(&folded).len(), 3);
    }
}

//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files, around the calls into each
//! crate; the crates' internal tracing (`unizk_testkit::trace`) is read
//! separately. Spans stay in memory and are written out once, at exit.
//! The recorder is off during the timed pass, so it costs the end-to-end
//! metrics nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use unizk_testkit::json::Json;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// What ran.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The repetition this span belongs to (0 = outside any repetition).
    pub rep: u64,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the benchmark's main thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    rep: u64,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Turns recording on or off; spans opened while off are not recorded.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.open.is_empty(),
            "toggle the recorder between spans, not inside one"
        );
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    /// Opens a span named `name`, nested under the open span, and returns
    /// the token [`Recorder::close`] takes. Spans close in reverse order of
    /// opening.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `token` came from.
    pub fn close(&mut self, token: Option<usize>) {
        if let Some(index) = token {
            assert_eq!(
                self.open.pop(),
                Some(index),
                "spans close in reverse order of opening"
            );
            self.spans[index].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The closed spans, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The JSON written to `trace-<workload>.json`: every span with its
    /// self time, a per-name roll-up, and whatever the caller attaches.
    pub fn to_json(&self, extra: Vec<(String, Json)>) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("rep", Json::from(s.rep)),
                    ("self_ns", Json::from(self_ns)),
                ])
            });
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            let slot = by_name.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += s.duration_ns();
            slot.2 += self_ns;
        }
        let rollup = by_name.into_iter().map(|(name, (count, total, self_ns))| {
            (
                name,
                Json::obj([
                    ("count", Json::from(count)),
                    ("total_ns", Json::from(total)),
                    ("self_ns", Json::from(self_ns)),
                ]),
            )
        });
        let mut out = vec![
            ("spans".to_string(), Json::arr(spans)),
            ("by_name".to_string(), Json::obj(rollup)),
        ];
        out.extend(extra);
        Json::Obj(out)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the previous child by 10
            span(35, 38, Some(1)), // grandchild: charged to span 1 only
            span(90, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 3, 30, 3, 10]);
    }

    #[test]
    fn spans_nest_and_carry_the_repetition() {
        let mut rec = Recorder::new(true);
        let setup = rec.open("setup");
        rec.close(setup);
        rec.set_rep(3);
        let rep = rec.open("rep");
        let prove = rec.open("prove");
        rec.close(prove);
        rec.close(rep);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].rep),
            ("setup", None, 0)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].rep),
            ("rep", None, 3)
        );
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[2].rep),
            ("prove", Some(1), 3)
        );
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);

        let json = rec.to_json(vec![("workload".to_string(), Json::str("w"))]);
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert!(json.get("by_name").and_then(|b| b.get("prove")).is_some());
        assert_eq!(json.get("workload").and_then(Json::as_str), Some("w"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let token = rec.open("prove");
        assert_eq!(token, None);
        rec.close(token);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let token = rec.open("prove");
        rec.close(token);
        assert_eq!(rec.spans().len(), 1);
    }
}

//! The benchmark's own arithmetic: percentiles, span self time, result
//! digests and failure accounting. Kept free of any simulator type so the
//! unit tests pin the numbers the benchmark reports.

use std::collections::BTreeMap;

/// A percentile with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the requested rank.
    pub value: f64,
    /// How many samples the rank was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile (`p` in `0..=100`): the smallest sample with at
/// least `p` % of the samples at or below it. `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(Percentile {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// The median as the mean of the two middle samples (the convention of
/// Python's `statistics.median`). `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// One recorded span: a named interval with an optional parent (an index
/// into the same span list) and the id of the operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `store.append`.
    pub name: String,
    /// The campaign, class range, job or probe this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
}

impl Span {
    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t;
    }
    out
}

/// 64-bit FNV-1a over `bytes`, as 16 hex digits: the result digest. Not a
/// cryptographic hash; it only has to change when a statistic changes.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The digest of a whole pass: the operation digests in key order, so the
/// order a seed ran them in does not change it.
pub fn pass_digest(ops: &BTreeMap<String, String>) -> String {
    let mut text = String::new();
    for (key, d) in ops {
        text.push_str(key);
        text.push('=');
        text.push_str(d);
        text.push('\n');
    }
    digest(text.as_bytes())
}

/// Failure accounting for one run: every operation attempted, and those
/// that failed — on an error, an anomaly, or a digest that differs from
/// the recorded one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation: it failed when `got` is an error, or when
    /// its digest is missing from `expected` or differs from it. With no
    /// record to compare against (`None`), only errors fail.
    pub fn check(
        &mut self,
        key: &str,
        got: Result<&str, &str>,
        expected: Option<&BTreeMap<String, String>>,
    ) {
        self.attempted += 1;
        let reason = match (got, expected) {
            (Err(e), _) => Some(format!("{key}: {e}")),
            (Ok(_), None) => None,
            (Ok(d), Some(expected)) => match expected.get(key) {
                None => Some(format!("{key}: no recorded digest")),
                Some(want) if want != d => Some(format!("{key}: digest {d}, recorded {want}")),
                Some(_) => None,
            },
        };
        if let Some(r) = reason {
            self.failed += 1;
            self.reasons.push(r);
        }
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_sample_count() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 50.0),
            Some(Percentile {
                value: 5.0,
                samples: 10
            })
        );
        assert_eq!(percentile(&xs, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
        let one = percentile(&[0.25], 90.0).unwrap();
        assert_eq!((one.value, one.samples), (0.25, 1));
        assert_eq!(percentile(&[], 50.0), None);
        // Input order does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).unwrap().value, 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            op: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op.campaign", None, 0.0, 10.0),
            span("campaign.run", Some(0), 1.0, 5.0),
            span("store.append_row", Some(0), 4.0, 7.0),
            span("store.append", Some(2), 5.0, 6.0),
            // A child overrunning its parent is clipped to the parent.
            span("cpu.golden", Some(0), 9.0, 12.0),
        ];
        let t = self_times(&spans);
        // Children cover [1,7) and [9,10): 7 of 10 seconds.
        assert!((t[0] - 3.0).abs() < 1e-12);
        assert!((t[1] - 4.0).abs() < 1e-12);
        assert!((t[2] - 2.0).abs() < 1e-12);
        assert!((t[3] - 1.0).abs() < 1e-12);
        let by_layer = layer_self_times(&spans);
        assert!((by_layer["store"] - 3.0).abs() < 1e-12);
        assert!((by_layer["op"] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn digest_mismatch_counts_as_failure() {
        let expected: BTreeMap<String, String> = [
            ("a".to_string(), digest(b"a")),
            ("b".to_string(), digest(b"b")),
        ]
        .into_iter()
        .collect();
        let mut t = Tally::default();
        t.check("a", Ok(&digest(b"a")), Some(&expected));
        t.check("b", Ok(&digest(b"not b")), Some(&expected));
        t.check("c", Ok(&digest(b"c")), Some(&expected));
        t.check("a", Err("golden run failed"), Some(&expected));
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.reasons.len(), 3);
        assert!(t.reasons[0].starts_with("b: digest"));
        // Without a record only errors fail.
        let mut probe = Tally::default();
        probe.check("x", Ok("anything"), None);
        probe.check("y", Err("worker panicked"), None);
        assert_eq!((probe.attempted, probe.failed), (2, 1));
    }

    #[test]
    fn failed_frac_is_over_attempted_operations() {
        assert_eq!(Tally::default().failed_frac(), 0.0);
        let t = Tally {
            attempted: 8,
            failed: 2,
            reasons: Vec::new(),
        };
        assert_eq!(t.failed_frac(), 0.25);
    }

    #[test]
    fn pass_digest_ignores_run_order() {
        let a: BTreeMap<String, String> = [("x", "1"), ("y", "2")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let b: BTreeMap<String, String> = [("y", "2"), ("x", "1")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(pass_digest(&a), pass_digest(&b));
        assert_ne!(digest(b"x"), digest(b"y"));
    }
}

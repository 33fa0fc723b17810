//! Parser for the Prometheus-style text a server returns to a
//! `StatsRequest` (`hts_metrics::render`): counters and gauges as
//! `name value`, histograms as cumulative `name_bucket{le="…"}` series
//! (empty buckets elided) plus `name_sum` / `name_count`.
//!
//! A phase's per-layer numbers are the difference of two scrapes, summed
//! over the servers. A server built without the `metrics` feature
//! answers with an empty body; that parses to an empty [`Scrape`], every
//! lookup on it returns `None`, and the rows that depend on it read null.

use std::collections::BTreeMap;

/// One histogram: cumulative counts at the bucket bounds that were
/// printed, plus the sum and count of everything recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(le, cumulative count)`, ascending, `+Inf` excluded.
    pub buckets: Vec<(f64, u64)>,
    pub sum: f64,
    pub count: u64,
}

impl Hist {
    /// Cumulative count at bound `le` (a step function over the printed
    /// bounds, since empty buckets are elided).
    fn cumulative_at(&self, le: f64) -> u64 {
        self.buckets
            .iter()
            .take_while(|(bound, _)| *bound <= le)
            .last()
            .map_or(0, |(_, cum)| *cum)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The upper bound of the bucket holding quantile `q` (the registry's
    /// log buckets are at most ~19 % wide).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        self.buckets
            .iter()
            .find(|(_, cum)| *cum >= rank)
            .or(self.buckets.last())
            .map(|(le, _)| *le)
    }

    /// Combines two histograms bound by bound, over the union of the
    /// bounds either one printed.
    fn zip(&self, other: &Hist, combine: impl Fn(u64, u64) -> u64) -> Vec<(f64, u64)> {
        let mut bounds: Vec<f64> = self
            .buckets
            .iter()
            .chain(&other.buckets)
            .map(|(le, _)| *le)
            .collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        bounds
            .into_iter()
            .map(|le| (le, combine(self.cumulative_at(le), other.cumulative_at(le))))
            .collect()
    }

    fn since(&self, earlier: &Hist) -> Hist {
        Hist {
            buckets: self.zip(earlier, u64::saturating_sub),
            sum: (self.sum - earlier.sum).max(0.0),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    fn add(&mut self, other: &Hist) {
        self.buckets = self.zip(other, |a, b| a + b);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One parsed exposition (or the difference / sum of several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Scrape {
    /// Parses an exposition. Lines it does not understand are skipped:
    /// the scrape is observational and must never fail a run.
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    kinds.insert(name, kind.trim());
                }
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((name, label)) = series.split_once("_bucket{le=\"") {
                let hist = scrape.hists.entry(name.to_string()).or_default();
                let bound = label.trim_end_matches("\"}");
                if bound != "+Inf" {
                    if let Ok(le) = bound.parse::<f64>() {
                        hist.buckets.push((le, value as u64));
                    }
                }
                continue;
            }
            let hist_part =
                [("_sum", true), ("_count", false)]
                    .into_iter()
                    .find_map(|(suffix, is_sum)| {
                        let name = series.strip_suffix(suffix)?;
                        (kinds.get(name) == Some(&"histogram")).then_some((name, is_sum))
                    });
            match hist_part {
                Some((name, true)) => scrape.hists.entry(name.to_string()).or_default().sum = value,
                Some((name, false)) => {
                    scrape.hists.entry(name.to_string()).or_default().count = value as u64
                }
                None if kinds.get(series) == Some(&"gauge") => {
                    scrape.gauges.insert(series.to_string(), value);
                }
                None => {
                    scrape.counters.insert(series.to_string(), value);
                }
            }
        }
        scrape
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// What was recorded between `earlier` and `self`: counters and
    /// histogram `_count` / `_sum` / `_bucket` are subtracted; gauges
    /// keep their later reading.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| {
                    let before = earlier.counters.get(name).copied().unwrap_or(0.0);
                    (name.clone(), (v - before).max(0.0))
                })
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(name, h)| {
                    let diff = match earlier.hists.get(name) {
                        Some(before) => h.since(before),
                        None => h.clone(),
                    };
                    (name.clone(), diff)
                })
                .collect(),
        }
    }

    /// Adds another server's scrape into this one.
    pub fn add(&mut self, other: &Scrape) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().add(h);
        }
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two scrapes of one live 3-server ring (`Cluster::stats`), 6 writes
    // in, then 20 more writes and 20 reads later.
    const BEFORE: &str = include_str!("../tests/data/stats_before.txt");
    const AFTER: &str = include_str!("../tests/data/stats_after.txt");

    #[test]
    fn parses_each_series_kind() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.counter("hts_net_reactor_wakeups_total"), Some(197.0));
        assert_eq!(s.gauge("hts_net_threads"), Some(6.0));
        assert_eq!(s.counter("hts_net_threads"), None);
        let h = s.hist("hts_core_write_commit_nanos").unwrap();
        assert_eq!((h.count, h.sum), (26, 13_627_417.0));
        assert_eq!(
            h.buckets,
            vec![
                (458_751.0, 6),
                (524_287.0, 18),
                (655_359.0, 25),
                (1_310_719.0, 26)
            ]
        );
        assert_eq!(h.quantile(0.5), Some(524_287.0));
        assert_eq!(h.quantile(1.0), Some(1_310_719.0));
    }

    #[test]
    fn diffs_counters_and_histograms_between_scrapes() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        assert_eq!(d.counter("hts_net_reactor_wakeups_total"), Some(143.0));
        // Gauges are levels, not totals: the later reading stands.
        assert_eq!(d.gauge("hts_net_threads"), Some(6.0));
        let h = d.hist("hts_core_write_commit_nanos").unwrap();
        assert_eq!((h.count, h.sum), (20, 10_183_348.0));
        assert_eq!(
            h.buckets,
            vec![
                (458_751.0, 5),
                (524_287.0, 14),
                (655_359.0, 20),
                (1_310_719.0, 20)
            ]
        );
        assert_eq!(h.mean(), Some(509_167.4));
        // Buckets the earlier scrape elided as empty (5119, 7167, 10239,
        // 12287) take the cumulative count of the bucket below them.
        let h = d.hist("hts_net_ring_write_nanos").unwrap();
        assert_eq!(h.count, 120);
        assert_eq!(
            &h.buckets[..6],
            &[
                (5_119.0, 3),
                (6_143.0, 6),
                (7_167.0, 8),
                (10_239.0, 9),
                (12_287.0, 92),
                (14_335.0, 109)
            ]
        );
        assert_eq!(h.quantile(0.5), Some(12_287.0));
    }

    #[test]
    fn sums_servers() {
        let mut total = Scrape::parse(AFTER);
        total.add(&Scrape::parse(BEFORE));
        assert_eq!(total.counter("hts_net_reactor_wakeups_total"), Some(251.0));
        let h = total.hist("hts_core_write_commit_nanos").unwrap();
        assert_eq!(h.count, 32);
        assert_eq!(h.cumulative_at(524_287.0), 22);
    }

    #[test]
    fn empty_reply_yields_no_rows() {
        let none = Scrape::parse("");
        assert!(none.is_empty());
        let d = none.since(&none);
        assert_eq!(d.counter("hts_net_reactor_wakeups_total"), None);
        assert!(d.hist("hts_core_write_commit_nanos").is_none());
    }
}

//! Timing arithmetic: the sliced meter behind every end-to-end rate and
//! latency, quantiles, and the process's peak resident set.
//!
//! The run is cut into slices of whole rounds at least a fixed wall
//! time long, and the first slice is a warm-up and is dropped. Two ways
//! of taking medians follow, chosen by whether the rounds repeat:
//!
//! * [`Meter::sliced`]: each slice yields its own rates and latency
//!   quantiles, and every figure is the median over slices.
//! * [`Meter::repeated`]: every round makes the same calls, so each
//!   slice yields one round whose call `k` takes the median over the
//!   slice's rounds of call `k`; the run's round takes, call by call, the
//!   median over slices of these, and rates and quantiles are taken over
//!   it.
//!
//! Either way a host stall that covers less than half of the slices
//! cannot move a reported figure. A closed slice keeps only its figures
//! (or its one median round), so the meter's memory does not grow with
//! the number of calls a run makes.

use std::time::{Duration, Instant};

/// Median of `values` (0 when empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 when empty). Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Work and call latencies accumulated in one slice or round.
#[derive(Debug, Default, Clone)]
struct Slice {
    changes: u64,
    firings: u64,
    busy_ns: u64,
    call_ns: Vec<f64>,
}

/// The end-to-end figures of one slice.
#[derive(Debug, Clone, Copy)]
struct Figures {
    wme_changes_per_sec: f64,
    firings_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Slice {
    fn figures(&mut self) -> Figures {
        let per_sec = |n: u64| ratio(n as f64, self.busy_ns as f64 / 1e9);
        Figures {
            wme_changes_per_sec: per_sec(self.changes),
            firings_per_sec: per_sec(self.firings),
            p50_us: quantile(&mut self.call_ns, 0.5) / 1e3,
            p99_us: quantile(&mut self.call_ns, 0.99) / 1e3,
        }
    }
}

/// The end-to-end figures of one measured window.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Working-memory changes per busy second.
    pub wme_changes_per_sec: f64,
    /// Firings per busy second.
    pub firings_per_sec: f64,
    /// Median call latency (µs).
    pub cycle_p50_us: f64,
    /// 99th-percentile call latency (µs).
    pub cycle_p99_us: f64,
    /// Slices kept after the warm-up.
    pub slices: usize,
    /// Timed calls in the kept slices.
    pub calls: u64,
}

/// Accumulates timed calls; see the module docs for the two modes.
#[derive(Debug)]
pub struct Meter {
    repeated: bool,
    /// Close a slice at the first round boundary after this much wall
    /// time.
    slice_wall: Duration,
    slice_start: Instant,
    /// The open round (repeated mode) or slice (sliced mode).
    current: Slice,
    /// Repeated mode: the open slice's rounds.
    rounds: Vec<Slice>,
    /// Sliced mode: the figures of each closed slice.
    figures: Vec<Figures>,
    /// Repeated mode: the median round of each closed slice.
    medians: Vec<Slice>,
    /// Calls in each closed slice.
    calls: Vec<u64>,
}

impl Meter {
    /// A meter that cuts the run into slices of at least `slice_wall`
    /// and takes each figure's median over slices.
    pub fn sliced(slice_wall: Duration) -> Self {
        Meter {
            repeated: false,
            slice_wall,
            slice_start: Instant::now(),
            current: Slice::default(),
            rounds: Vec::new(),
            figures: Vec::new(),
            medians: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// A meter for runs whose rounds repeat the same calls, cut into
    /// slices of at least `slice_wall`.
    pub fn repeated(slice_wall: Duration) -> Self {
        Meter {
            repeated: true,
            ..Meter::sliced(slice_wall)
        }
    }

    /// Records one timed call of `ns` that processed `changes` working
    /// memory changes and `firings` firings.
    pub fn record(&mut self, ns: u64, changes: u64, firings: u64) {
        let s = &mut self.current;
        s.changes += changes;
        s.firings += firings;
        s.busy_ns += ns;
        s.call_ns.push(ns as f64);
    }

    /// Marks the end of a round; closes the slice when it is long enough.
    pub fn end_round(&mut self) {
        if self.repeated && !self.current.call_ns.is_empty() {
            self.rounds.push(std::mem::take(&mut self.current));
        }
        if self.open() && self.slice_start.elapsed() >= self.slice_wall {
            self.close_slice();
        }
    }

    /// Whether the open slice holds any call.
    fn open(&self) -> bool {
        if self.repeated {
            !self.rounds.is_empty()
        } else {
            !self.current.call_ns.is_empty()
        }
    }

    fn close_slice(&mut self) {
        if self.repeated {
            let rounds = std::mem::take(&mut self.rounds);
            self.calls
                .push(rounds.iter().map(|r| r.call_ns.len() as u64).sum());
            self.medians.push(median_round(&rounds));
        } else {
            self.calls.push(self.current.call_ns.len() as u64);
            self.figures.push(self.current.figures());
            // Keep the allocation: the next slice is about as long.
            self.current.call_ns.clear();
            self.current = Slice {
                call_ns: std::mem::take(&mut self.current.call_ns),
                ..Slice::default()
            };
        }
        self.slice_start = Instant::now();
    }

    /// Closes the meter: drops the warm-up slice (and an unfinished last
    /// slice, unless no other is left) and takes medians over the rest.
    pub fn finish(mut self) -> Summary {
        if self.calls.len() <= 1 && self.open() {
            self.close_slice();
        }
        let skip = usize::from(self.calls.len() > 1);
        let calls = self.calls.iter().skip(skip).sum();
        let kept: Vec<Figures> = if self.repeated {
            let medians = &self.medians[skip.min(self.medians.len())..];
            if medians.is_empty() {
                Vec::new()
            } else {
                vec![median_round(medians).figures()]
            }
        } else {
            self.figures.split_off(skip.min(self.figures.len()))
        };
        let slices = self.calls.len() - skip;
        let pick = |f: fn(&Figures) -> f64| median(&mut kept.iter().map(f).collect::<Vec<_>>());
        Summary {
            wme_changes_per_sec: pick(|f| f.wme_changes_per_sec),
            firings_per_sec: pick(|f| f.firings_per_sec),
            cycle_p50_us: pick(|f| f.p50_us),
            cycle_p99_us: pick(|f| f.p99_us),
            slices,
            calls,
        }
    }
}

/// One round whose call `k` takes the median over `rounds` of call `k`
/// (rounds repeat the same calls, so their work counts agree).
fn median_round(rounds: &[Slice]) -> Slice {
    let calls = rounds.iter().map(|r| r.call_ns.len()).min().unwrap_or(0);
    let call_ns: Vec<f64> = (0..calls)
        .map(|k| median(&mut rounds.iter().map(|r| r.call_ns[k]).collect::<Vec<_>>()))
        .collect();
    Slice {
        changes: rounds[0].changes,
        firings: rounds[0].firings,
        busy_ns: call_ns.iter().sum::<f64>() as u64,
        call_ns,
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn meter_drops_the_warm_up_slice() {
        let mut m = Meter::sliced(Duration::ZERO);
        m.record(1_000_000, 100, 1);
        m.end_round();
        for _ in 0..3 {
            m.record(2_000_000, 100, 1);
            m.end_round();
        }
        let s = m.finish();
        assert_eq!(s.slices, 3);
        assert_eq!(s.wme_changes_per_sec, 50_000.0);
        assert_eq!(s.cycle_p50_us, 2_000.0);
    }

    #[test]
    fn closed_slices_keep_no_samples() {
        let mut m = Meter::sliced(Duration::ZERO);
        for _ in 0..1000 {
            m.record(1_000, 1, 1);
            m.record(3_000, 1, 1);
            m.end_round();
        }
        assert!(m.current.call_ns.is_empty());
        assert_eq!(m.figures.len(), 1000);
        let s = m.finish();
        assert_eq!((s.slices, s.calls), (999, 1998));
        assert_eq!(s.cycle_p50_us, 2.0);
    }

    #[test]
    fn repeated_rounds_take_each_call_s_median() {
        let mut m = Meter::repeated(Duration::ZERO);
        // Warm-up, then three rounds of two calls; one round stalls.
        for round in [[9.0, 9.0], [1.0, 3.0], [1.0, 3.0], [50.0, 50.0]] {
            for ms in round {
                m.record((ms * 1e6) as u64, 10, 1);
            }
            m.end_round();
        }
        let s = m.finish();
        assert_eq!(s.slices, 3);
        assert_eq!(s.firings_per_sec, 500.0);
        assert_eq!(s.wme_changes_per_sec, 5_000.0);
    }
}

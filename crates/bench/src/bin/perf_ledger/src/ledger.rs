//! The metric catalogue, summary statistics and process accounting.

use std::collections::BTreeMap;
use std::time::Duration;

use chop_core::SearchOutcome;

use crate::gen::Kind;

/// End-to-end metrics (`--trace 0`), in print order: name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics without a request-type suffix: name, unit.
const LAYERS: [(&str, &str); 30] = [
    ("dfg.parse_us", "us"),
    ("dfg.nodes_per_ms", "nodes/ms"),
    ("spec.build_us", "us"),
    ("bad.predict_us", "us"),
    ("bad.designs", "count"),
    ("bad.share", "ratio"),
    ("prune.us", "us"),
    ("prune.kept_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("cache.entries", "count"),
    ("engine.predict_ms", "ms"),
    ("engine.prune_l1_ms", "ms"),
    ("engine.search_ms", "ms"),
    ("engine.integrate_ms", "ms"),
    ("engine.feasibility_ms", "ms"),
    ("engine.evaluations", "count"),
    ("engine.integrate_us_per_eval", "us"),
    ("engine.bnb_skip_ratio", "ratio"),
    ("engine.quick_reject_ratio", "ratio"),
    ("engine.predictor_calls_per_op", "count"),
    ("optimize.evaluations", "count"),
    ("optimize.ms_per_evaluation", "ms"),
    ("optimize.predictor_calls_per_evaluation", "count"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("net.ping_rtt_us", "us"),
    ("net.pool_rtt_us", "us"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics measured per timed request type (`<prefix>.<type>`,
/// µs).
const PER_TYPE: [&str; 5] = [
    "protocol.decode_us",
    "protocol.encode_us",
    "manager.dispatch_us",
    "manager.self_us",
    "net.residual_us",
];

/// Every per-layer metric (`--trace 1`), in print order: name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect();
    for prefix in PER_TYPE {
        for kind in Kind::TIMED {
            all.push((format!("{prefix}.{}", kind.name()), "us"));
        }
    }
    all
}

/// Named running sums, and where a typical value matters more than a
/// total, the samples themselves: how traced passes hand their
/// measurements on.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Tally {
    pub fn add(&mut self, key: &str, value: f64) {
        *self.sums.entry(key.to_owned()).or_insert(0.0) += value;
    }

    /// Adds `value` to the sum and keeps it for [`Tally::median`].
    pub fn sample(&mut self, key: &str, value: f64) {
        self.add(key, value);
        self.samples.entry(key.to_owned()).or_default().push(value);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The median sample of `key`, or 0 when there is none.
    pub fn median(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |values| median(values))
    }

    /// `get(num) / get(den)`, or 0 when nothing was counted.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.get(num), self.get(den))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.sums.iter()
    }
}

/// Adds one explore to `t`: its span and its `ExploreTrace`.
pub fn add_explore(t: &mut Tally, outcome: &SearchOutcome, span_ns: f64) {
    let trace = &outcome.trace;
    t.add("work_ns", span_ns);
    t.add("explores", 1.0);
    for (key, value) in [
        ("predict_ns", trace.predict_ns),
        ("prune_l1_ns", trace.prune_l1_ns),
        ("search_ns", trace.search_ns),
        ("integrate_ns", trace.integrate_ns),
        ("feasibility_ns", trace.feasibility_ns),
        ("evaluations", trace.evaluations),
        ("quick_rejects", trace.quick_rejects),
        ("combinations_skipped", trace.combinations_skipped),
        ("predictor_calls", trace.predictor_calls),
        ("trials", outcome.trials as u64),
    ] {
        t.add(key, value as f64);
    }
}

/// The `engine.*` metrics of the explores [`add_explore`] recorded.
pub fn engine_metrics(t: &Tally) -> Vec<(&'static str, f64)> {
    let per_explore = |key: &str| t.ratio(key, "explores");
    vec![
        ("engine.predict_ms", per_explore("predict_ns") / 1e6),
        ("engine.prune_l1_ms", per_explore("prune_l1_ns") / 1e6),
        ("engine.search_ms", per_explore("search_ns") / 1e6),
        ("engine.integrate_ms", per_explore("integrate_ns") / 1e6),
        ("engine.feasibility_ms", per_explore("feasibility_ns") / 1e6),
        ("engine.evaluations", per_explore("evaluations")),
        ("engine.integrate_us_per_eval", t.ratio("integrate_ns", "evaluations") / 1e3),
        (
            "engine.bnb_skip_ratio",
            ratio(
                t.get("combinations_skipped"),
                t.get("trials") + t.get("combinations_skipped"),
            ),
        ),
        ("engine.quick_reject_ratio", t.ratio("quick_rejects", "trials")),
        ("engine.predictor_calls_per_op", per_explore("predictor_calls")),
    ]
}

/// The `bad.*` and `prune.*` metrics from the direct predictions of
/// `designer::direct_bad`. BAD's share of the explore (or optimize) span
/// counts the span's predictor calls at the directly measured cost.
pub fn bad_metrics(t: &Tally) -> Vec<(&'static str, f64)> {
    let per_call = t.ratio("bad_ns", "bad_calls");
    vec![
        ("bad.predict_us", per_call / 1e3),
        ("bad.designs", t.ratio("bad_designs", "bad_calls")),
        ("bad.share", ratio(t.get("predictor_calls") * per_call, t.get("work_ns"))),
        ("prune.us", t.ratio("prune_ns", "bad_calls") / 1e3),
        ("prune.kept_ratio", t.ratio("prune_kept", "prune_total")),
    ]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of an ascending sample, `p` in `0..=1`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample, or 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Milliseconds per `/proc/<pid>/stat` clock tick (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
pub const TICK_MS: f64 = 10.0;

/// User + system CPU ticks a process (all its threads, live or exited)
/// has consumed, from `/proc/<pid>/stat` fields 14 and 15.
pub fn cpu_ticks(pid: &str) -> Result<u64, String> {
    let stat =
        std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat.rsplit(')').next().unwrap_or("").split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("short /proc/{pid}/stat"))
    };
    Ok(field(11)? + field(12)?)
}

/// A process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kib(pid: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// How often a timed phase samples the CPU time of the processes under
/// test. Rates are computed per window and reported as their median.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When it completed, from the start of the timed phase.
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// A finished run's timed phase: its operations, and the CPU time the
/// processes under test had spent at points through it.
#[derive(Debug, Default)]
pub struct Timed {
    /// In completion order.
    pub ops: Vec<Op>,
    /// `(ns from the start, CPU ticks since the start)`, ascending, from
    /// `(0, 0)` to the end of the phase, about one [`WINDOW`] apart.
    pub cpu: Vec<(u64, u64)>,
    pub peak_rss_kib: u64,
}

/// One window of a timed phase: its length, and the CPU ticks spent and
/// operations completed in it.
struct Window {
    seconds: f64,
    cpu_ticks: u64,
    ops: usize,
}

impl Timed {
    /// The windows between consecutive CPU samples; a last window shorter
    /// than half a [`WINDOW`] joins the one before it.
    fn windows(&self) -> Vec<Window> {
        let mut bounds = self.cpu.clone();
        let half = u64::try_from(WINDOW.as_nanos() / 2).unwrap_or(u64::MAX);
        if let [.., (before, _), (last, _)] = bounds[..] {
            if bounds.len() > 2 && last - before < half {
                bounds.remove(bounds.len() - 2);
            }
        }
        let mut done = self.ops.iter().map(|op| op.done_ns).peekable();
        bounds
            .windows(2)
            .map(|pair| {
                let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
                let mut ops = 0;
                while done.next_if(|&at| at <= to).is_some() {
                    ops += 1;
                }
                Window { seconds: (to - from) as f64 / 1e9, cpu_ticks: cpu_to - cpu_from, ops }
            })
            .filter(|w| w.ops > 0)
            .collect()
    }
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order. Latency
/// percentiles cover every operation; the rates are medians over the
/// run's windows, so a disturbance shorter than half the run (another
/// tenant of the host, a disk stall) moves them little.
pub fn end_to_end(setup_s: &[f64], timed: &Timed) -> Vec<f64> {
    let mut sorted: Vec<u64> = timed.ops.iter().map(|op| op.latency_ns).collect();
    sorted.sort_unstable();
    let windows = timed.windows();
    let per_window =
        |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<f64>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        median(setup_s),
        per_window(|w| w.ops as f64 / w.seconds),
        ms(percentile(&sorted, 0.50)),
        ms(percentile(&sorted, 0.90)),
        per_window(|w| w.cpu_ticks as f64 * TICK_MS / w.ops as f64),
        timed.peak_rss_kib as f64 / 1024.0,
    ]
}

/// Renders the result object the benchmark prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

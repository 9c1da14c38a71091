//! Measurement loops shared by the workloads.

use crate::data::K;
use crate::report::Outcome;
use crate::run::Run;
use crate::stats::{
    chunked_percentile, interquartile_mean, mean_segment_median, median, sorted, tail,
};
use mmdr::index::VectorIndex;
use mmdr::linalg::ParConfig;
use mmdr_json::Value;
use std::ops::Range;
use std::time::{Duration, Instant};

/// A KNN answer: `(distance, id)` ascending.
pub type Answer = Vec<(f64, u64)>;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Serial KNN samples a pass takes at least: two p99 chunks.
pub const MIN_KNN_SAMPLES: usize = 2 * P99_CHUNK;

/// Queries per `batch_knn` call.
pub const BATCH: usize = 64;

/// Bitwise answer equality: same ids, same distance bits, same order.
pub fn same_answer(a: &[(f64, u64)], b: &[(f64, u64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1 == y.1)
}

/// The process's peak resident set so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPS`] times (once when traced), records the
/// median wall time as `setup_s`, and returns the last set-up. Each
/// earlier set-up is dropped before the next starts.
pub fn repeated_setup<T>(
    run: &mut Run,
    mut setup: impl FnMut(&mut Run) -> Result<T, String>,
) -> Result<T, String> {
    let reps = if run.traced() { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let span = run.tracer.enter("setup");
        let r = setup(run);
        run.tracer.exit(span);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r?);
    }
    run.set("setup_s", median(&times));
    run.env("setup_reps", reps);
    run.env(
        "setup_s_each",
        Value::Array(times.iter().map(|&t| t.into()).collect()),
    );
    Ok(last.expect("at least one set-up"))
}

/// Length of one measuring segment. Serial and batch segments alternate,
/// so both see the same share of interference from other tenants of a
/// shared host.
pub const SEGMENT: Duration = Duration::from_millis(250);

/// KNN latencies per p99 chunk: a chunk's p99 has ten samples beyond it.
pub const P99_CHUNK: usize = 1_000;

/// Serial KNN results: latencies in issue order, and the first answer to
/// each query.
pub struct KnnPass {
    /// Per-query latency in milliseconds, in issue order.
    pub lat_ms: Vec<f64>,
    /// The answer to each query, the first time it was asked.
    pub answers: Vec<Option<Answer>>,
    /// Queries issued so far (the next query is `issued % len`).
    issued: usize,
}

impl KnnPass {
    fn new(queries: usize) -> Self {
        Self {
            lat_ms: Vec::new(),
            answers: vec![None; queries],
            issued: 0,
        }
    }
}

/// Issues the next 10-NN query as one request: a root span and a child
/// span named `layer` around the call into the index. A query asked again
/// must get the same answer as the first time.
fn one_knn(
    run: &mut Run,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    pass: &mut KnnPass,
    layer: &'static str,
) {
    let qi = pass.issued % queries.len();
    pass.issued += 1;
    let t0 = Instant::now();
    let r = run.tracer.request("request.knn", |t| {
        t.span(layer, |_| index.knn(&queries[qi], K))
    });
    let dt = t0.elapsed();
    match r {
        Ok(ans) => {
            pass.lat_ms.push(dt.as_secs_f64() * 1e3);
            match &pass.answers[qi] {
                Some(first) => {
                    let same = same_answer(first, &ans);
                    run.check(same, || format!("query {qi}: repeated KNN answer changed"));
                }
                None => {
                    run.outcome(Outcome::Ok);
                    pass.answers[qi] = Some(ans);
                }
            }
        }
        Err(e) => {
            eprintln!("knn error: {e}");
            run.outcome(Outcome::Error);
        }
    }
}

/// Serial 10-NN queries, cycling through `queries`, until `budget` has
/// passed and at least [`MIN_KNN_SAMPLES`] were taken. Returns the pass
/// and its throughput.
pub fn knn_pass(
    run: &mut Run,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    budget: Duration,
    layer: &'static str,
) -> (KnnPass, f64) {
    let mut pass = KnnPass::new(queries.len());
    let start = Instant::now();
    while start.elapsed() < budget || pass.lat_ms.len() < MIN_KNN_SAMPLES {
        one_knn(run, index, queries, &mut pass, layer);
    }
    let qps = pass.lat_ms.len() as f64 / start.elapsed().as_secs_f64();
    (pass, qps)
}

/// One `batch_knn` call over the [`BATCH`] queries from `*at`, checked
/// against the serial answers where they exist. Returns how many queries
/// it answered.
fn one_batch(
    run: &mut Run,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    serial: &[Option<Answer>],
    at: &mut usize,
    par: &ParConfig,
) -> usize {
    let (from, to) = (*at, (*at + BATCH).min(queries.len()));
    *at = if to == queries.len() { 0 } else { to };
    let r = run.tracer.request("request.batch_knn", |t| {
        t.span("index.batch_knn", |_| {
            index.batch_knn(&queries[from..to], K, par)
        })
    });
    match r {
        Ok(batch) => {
            for (j, ans) in batch.iter().enumerate() {
                match &serial[from + j] {
                    Some(first) => {
                        let same = same_answer(first, ans);
                        run.check(same, || {
                            format!("query {}: batch answer differs from serial", from + j)
                        });
                    }
                    None => run.outcome(Outcome::Ok),
                }
            }
            batch.len()
        }
        Err(e) => {
            eprintln!("batch_knn error: {e}");
            for _ in from..to {
                run.outcome(Outcome::Error);
            }
            0
        }
    }
}

/// `batch_knn` calls at `threads` threads until `budget` has passed.
/// Returns the throughput.
pub fn batch_pass(
    run: &mut Run,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    serial: &[Option<Answer>],
    threads: usize,
    budget: Duration,
) -> f64 {
    let par = ParConfig::threads(threads);
    let mut at = 0;
    let mut n = 0;
    let start = Instant::now();
    while start.elapsed() < budget || n == 0 {
        n += one_batch(run, index, queries, serial, &mut at, &par);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Alternates segments of serial 10-NN queries and segments of
/// `batch_knn` at two threads until `budget` has passed (and the serial
/// side has [`MIN_KNN_SAMPLES`]), then records `knn_qps`, `knn_p50_ms`,
/// `knn_p99_ms`, `batch_qps_2t` and `ops_s`. One untimed pair of segments
/// warms caches and the pool first; its answers are kept and checked like
/// the rest. Each throughput is the interquartile mean of its per-segment
/// throughputs, so a stall of the host in a few segments does not move
/// it. Returns the serial pass.
pub fn measure_knn_and_batch(
    run: &mut Run,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    budget: Duration,
    layer: &'static str,
) -> Result<KnnPass, String> {
    let par = ParConfig::threads(2);
    let mut pass = KnnPass::new(queries.len());
    let mut at = 0;
    let knn_segment = |run: &mut Run, pass: &mut KnnPass| {
        let t0 = Instant::now();
        while t0.elapsed() < SEGMENT {
            one_knn(run, index, queries, pass, layer);
        }
        t0.elapsed().as_secs_f64()
    };
    let mut batch_segment = |run: &mut Run, pass: &KnnPass| {
        let (t0, mut n) = (Instant::now(), 0);
        while t0.elapsed() < SEGMENT {
            n += one_batch(run, index, queries, &pass.answers, &mut at, &par);
        }
        (n, t0.elapsed().as_secs_f64())
    };
    knn_segment(run, &mut pass);
    batch_segment(run, &pass);
    pass.lat_ms.clear();

    // Per segment pair: the serial range of `lat_ms`, and the serial,
    // batch and combined throughputs.
    let mut segments = Vec::new();
    let (mut knn_rate, mut batch_rate, mut ops_rate) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || pass.lat_ms.len() < MIN_KNN_SAMPLES {
        let from = pass.lat_ms.len();
        let knn_s = knn_segment(run, &mut pass);
        let knn_n = pass.lat_ms.len() - from;
        segments.push(from..pass.lat_ms.len());
        let (batch_n, batch_s) = batch_segment(run, &pass);
        knn_rate.push(knn_n as f64 / knn_s);
        batch_rate.push(batch_n as f64 / batch_s);
        ops_rate.push((knn_n + batch_n) as f64 / (knn_s + batch_s));
    }
    record_knn_latency(run, &pass.lat_ms, &segments)?;
    run.set("knn_qps", interquartile_mean(&knn_rate));
    run.set("batch_qps_2t", interquartile_mean(&batch_rate));
    run.set("ops_s", interquartile_mean(&ops_rate));
    run.env("segment_pairs", segments.len());
    Ok(pass)
}

/// Records `knn_p50_ms` (the mean of the medians of `segments`, ranges of
/// `lat_ms` measured one after another; see [`mean_segment_median`]) and
/// `knn_p99_ms` (median of [`P99_CHUNK`]-sample chunks; with fewer
/// samples, the highest percentile they back) from latencies in issue
/// order.
pub fn record_knn_latency(
    run: &mut Run,
    lat_ms: &[f64],
    segments: &[Range<usize>],
) -> Result<(), String> {
    let p50 = mean_segment_median(lat_ms, segments).ok_or("too few KNN samples for p50")?;
    let (tail_p, tail_ms) = match chunked_percentile(lat_ms, P99_CHUNK, 0.99) {
        Some(v) => (0.99, v),
        None => tail(&sorted(lat_ms.to_vec()))
            .map(|t| (t.p, t.value))
            .ok_or("too few KNN samples")?,
    };
    run.set("knn_p50_ms", p50);
    run.set("knn_p99_ms", tail_ms);
    run.env(
        "knn_latency_samples",
        Value::object(vec![
            ("total", lat_ms.len().into()),
            ("p50_segments", segments.len().into()),
            ("p99_chunk", P99_CHUNK.into()),
            ("p99_chunks", (lat_ms.len() / P99_CHUNK).into()),
            ("tail_percentile", tail_p.into()),
        ]),
    );
    Ok(())
}

/// Median of the durations of spans named `name`, scaled by `scale`
/// (e.g. `1e-6` for milliseconds); 0 when no such span was recorded.
pub fn span_median(run: &Run, name: &str, scale: f64) -> f64 {
    let d = run.tracer.durations_ns(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) * scale
    }
}

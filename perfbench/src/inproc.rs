//! `knn-resident` and `knn-paged`: in-process extended iDistance.

use crate::common::{
    batch_pass, knn_pass, measure_knn_and_batch, peak_rss_mb, record_knn_latency, repeated_setup,
    same_answer, span_median, Answer, KnnPass,
};
use crate::data::{Inputs, Rng, K};
use crate::run::Run;
use crate::stats::median;
use mmdr::core::{Mmdr, MmdrParams, ReductionResult};
use mmdr::idistance::{Backend, IDistanceIndex};
use mmdr::index::{QueryStats, VectorIndex};
use mmdr::persist::{BuiltIndex, OpenOptions};
use mmdr::storage::{BufferPool, PoolStats, PAGE_SIZE};
use mmdr_json::Value;
use std::time::Instant;

/// Buffer pages a resident build gets: half each for tree and heap, more
/// than either ever holds.
pub const RESIDENT_POOL_PAGES: usize = 4096;

/// The paged workload caps each pool at about this share of the index's
/// pages.
const PAGED_POOL_SHARE: f64 = 0.1;

/// Queries compared against the `SeqScan` oracle.
const ORACLE_QUERIES: usize = 200;

/// How the index is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Built in memory; the buffer pool holds every page.
    Resident,
    /// Saved, then reopened on demand with small pools.
    Paged,
}

struct Setup {
    model: ReductionResult,
    index: BuiltIndex,
    snapshot_bytes: u64,
}

/// Fits the model with the workload's parameters.
pub fn fit(run: &mut Run, inputs: &Inputs) -> Result<ReductionResult, String> {
    let params = MmdrParams {
        seed: run.seed,
        ..MmdrParams::default()
    };
    run.tracer
        .span("core.fit", |_| Mmdr::new(params).fit(&inputs.base))
        .map_err(|e| format!("fit: {e}"))
}

fn setup(run: &mut Run, inputs: &Inputs, mode: Mode) -> Result<Setup, String> {
    let model = fit(run, inputs)?;
    let built = run
        .tracer
        .span("idistance.build", |_| {
            mmdr::persist::build_index(
                Backend::IDistance,
                &inputs.base,
                &model,
                RESIDENT_POOL_PAGES,
            )
        })
        .map_err(|e| format!("build: {e}"))?;
    if mode == Mode::Resident {
        return Ok(Setup {
            model,
            index: built,
            snapshot_bytes: 0,
        });
    }
    let pages = idistance(&built).total_pages();
    let frames = ((pages as f64 * PAGED_POOL_SHARE).round() as usize).max(2);
    let path = run.dir.join("index.mmdr");
    run.tracer
        .span("persist.save", |_| {
            mmdr::persist::save(&path, &built, &model)
        })
        .map_err(|e| format!("save: {e}"))?;
    drop(built);
    let opts = OpenOptions {
        pool_pages: Some(frames),
        ..OpenOptions::default()
    };
    let opened = run
        .tracer
        .span("persist.open", |_| mmdr::persist::open_with(&path, &opts))
        .map_err(|e| format!("open: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Setup {
        model,
        index: opened.index,
        snapshot_bytes,
    })
}

fn idistance(built: &BuiltIndex) -> &IDistanceIndex {
    match built {
        BuiltIndex::IDistance(i) => i,
        _ => unreachable!("the workloads build iDistance"),
    }
}

/// Runs `knn-resident` or `knn-paged`.
pub fn run(run: &mut Run, inputs: &Inputs, mode: Mode) -> Result<(), String> {
    let s = repeated_setup(run, |run| setup(run, inputs, mode))?;
    let idx = idistance(&s.index);
    let (tree_pages, heap_pages) = (idx.tree().num_pages(), idx.heap().num_pages());
    let (tree_frames, heap_frames) = (idx.tree().pool().capacity(), idx.heap().pool().capacity());
    run.env(
        "pool",
        pool_env(tree_pages, tree_frames, heap_pages, heap_frames),
    );
    let index = s.index.as_dyn();
    let queries = &inputs.queries;

    let pass = if run.traced() {
        traced(run, inputs, &s)?
    } else {
        measure_knn_and_batch(run, index, queries, run.budget(1.0), "idistance.knn")?
    };
    oracle_check(run, inputs, &s, &pass.answers)?;
    if !run.traced() {
        let bytes = match mode {
            Mode::Resident => (idx.total_pages() * PAGE_SIZE) as u64,
            Mode::Paged => s.snapshot_bytes,
        };
        run.set("store_bytes_per_row", bytes as f64 / index.len() as f64);
        run.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(())
}

/// Pages against frames, per pool.
fn pool_env(tree_pages: usize, tree_frames: usize, heap_pages: usize, heap_frames: usize) -> Value {
    let pool = |pages: usize, frames: usize| {
        Value::object(vec![
            ("pages", pages.into()),
            ("frames", frames.into()),
            ("pages_per_frame", (pages as f64 / frames as f64).into()),
        ])
    };
    Value::object(vec![
        ("tree", pool(tree_pages, tree_frames)),
        ("heap", pool(heap_pages, heap_frames)),
    ])
}

/// Compares the first answers to a sample of queries with a `SeqScan`
/// over the same model, bit for bit.
fn oracle_check(
    run: &mut Run,
    inputs: &Inputs,
    s: &Setup,
    answers: &[Option<Answer>],
) -> Result<(), String> {
    let oracle = mmdr::persist::build_index(
        Backend::SeqScan,
        &inputs.base,
        &s.model,
        RESIDENT_POOL_PAGES,
    )
    .map_err(|e| format!("oracle build: {e}"))?;
    for (qi, ans) in answers.iter().enumerate().take(ORACLE_QUERIES) {
        let Some(ans) = ans else { continue };
        let want = oracle.as_dyn().knn(&inputs.queries[qi], K);
        let ok = want.as_ref().is_ok_and(|w| same_answer(w, ans));
        run.check(ok, || {
            format!("query {qi}: answer differs from the SeqScan oracle")
        });
    }
    Ok(())
}

fn pool_totals(index: &dyn VectorIndex) -> (u64, u64, u64) {
    index
        .pool_stats()
        .iter()
        .fold((0, 0, 0), |acc, p: &PoolStats| {
            (acc.0 + p.hits(), acc.1 + p.misses(), acc.2 + p.evictions())
        })
}

/// The traced run: an untraced and a traced KNN pass (for the tracing
/// overhead), 1- and 2-thread batches, then the layer probes.
fn traced(run: &mut Run, inputs: &Inputs, s: &Setup) -> Result<KnnPass, String> {
    let index = s.index.as_dyn();
    let queries = &inputs.queries;
    run.set("core.fit_s", span_median(run, "core.fit", 1e-9));
    run.set(
        "idistance.build_s",
        span_median(run, "idistance.build", 1e-9),
    );
    run.set("persist.save_s", span_median(run, "persist.save", 1e-9));
    run.set("persist.open_s", span_median(run, "persist.open", 1e-9));

    run.tracer.set_enabled(false);
    let (_, plain_qps) = knn_pass(run, index, queries, run.budget(0.2), "idistance.knn");
    run.tracer.set_enabled(true);

    let q0 = index.query_stats();
    let p0 = pool_totals(index);
    let (pass, qps) = knn_pass(run, index, queries, run.budget(0.2), "idistance.knn");
    record_knn_latency(run, &pass.lat_ms, &[0..pass.lat_ms.len()])?;
    let q = pass.lat_ms.len() as f64;
    let dq = index.query_stats().since(&q0);
    let p1 = pool_totals(index);
    record_query_costs(run, &dq, q);
    let (hits, misses, evictions) = (p1.0 - p0.0, p1.1 - p0.1, p1.2 - p0.2);
    run.set(
        "storage.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.set("storage.evictions_per_q", evictions as f64 / q);
    run.set("idistance.knn_ms", span_median(run, "idistance.knn", 1e-6));
    run.set("trace.overhead_frac", 1.0 - qps / plain_qps);

    let one = batch_pass(run, index, queries, &pass.answers, 1, run.budget(0.15));
    let two = batch_pass(run, index, queries, &pass.answers, 2, run.budget(0.15));
    run.set("index.batch_speedup_2t", two / one);

    probes(run, idistance(&s.index))?;
    Ok(pass)
}

/// Per-query cost counters of the index layers, from a counter delta
/// over `q` serial queries.
fn record_query_costs(run: &mut Run, dq: &QueryStats, q: f64) {
    run.set("idistance.dists_per_q", dq.dist_computations as f64 / q);
    run.set("idistance.refined_per_q", dq.candidates_refined as f64 / q);
    run.set(
        "idistance.useful_frac",
        K as f64 / (dq.dist_computations as f64 / q).max(1.0),
    );
    run.set("storage.pages_per_q", dq.pages_touched as f64 / q);
    run.set("storage.physical_reads_per_q", dq.physical_reads as f64 / q);
    run.set(
        "storage.readahead_hit_frac",
        dq.readahead_hits as f64 / dq.page_reads.max(1) as f64,
    );
}

/// Steps per cursor run in the B⁺-tree probe.
const STEP_RUN: usize = 32;

/// Times single calls into the B⁺-tree, the heap and the buffer pool.
fn probes(run: &mut Run, idx: &IDistanceIndex) -> Result<(), String> {
    let tree = idx.tree();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    run.set("btree.height", tree.height() as f64);

    // Every key in the tree, to sample seek targets from.
    let mut keys = Vec::with_capacity(tree.len());
    let mut c = tree.seek(f64::MIN).map_err(|e| err(&e))?;
    while let Some((key, _)) = tree.cursor_next(&mut c).map_err(|e| err(&e))? {
        keys.push(key);
    }
    let mut rng = Rng::new(run.seed ^ 0x7072_6f62);
    let sample: Vec<f64> = (0..1000)
        .map(|_| keys[rng.below(keys.len() as u64) as usize])
        .collect();

    for &key in &sample {
        run.tracer
            .span("btree.seek", |_| tree.seek(key))
            .map_err(|e| err(&e))?;
    }
    run.set("btree.seek_us", span_median(run, "btree.seek", 1e-3));

    // Cursor runs from sampled keys; the rids they yield are the heap
    // records a query walking that key range fetches, in its order.
    let mut step_ns = Vec::new();
    let mut get_ns = Vec::new();
    let (mut steps, mut step_pages) = (0u64, 0u64);
    let mut coords = Vec::new();
    for &key in sample.iter().take(300) {
        let mut c = tree.seek(key).map_err(|e| err(&e))?;
        let before = tree.pool().snapshot();
        let t0 = Instant::now();
        let mut rids = Vec::with_capacity(STEP_RUN);
        let r: Result<(), String> = run.tracer.span("btree.step", |_| {
            for _ in 0..STEP_RUN {
                match tree.cursor_next(&mut c).map_err(|e| err(&e))? {
                    Some((_, rid)) => rids.push(rid),
                    None => break,
                }
            }
            Ok(())
        });
        r?;
        let dt = t0.elapsed().as_nanos() as f64;
        step_pages += tree.pool().snapshot().since(&before).pages_touched();
        if rids.is_empty() {
            continue;
        }
        steps += rids.len() as u64;
        step_ns.push(dt / rids.len() as f64);
        let t0 = Instant::now();
        let r: Result<(), String> = run.tracer.span("idistance.heap_get", |_| {
            for &rid in &rids {
                idx.heap().get_into(rid, &mut coords).map_err(|e| err(&e))?;
            }
            Ok(())
        });
        r?;
        get_ns.push(t0.elapsed().as_nanos() as f64 / rids.len() as f64);
    }
    run.set("btree.step_ns", median(&step_ns));
    run.set(
        "btree.pages_per_step",
        step_pages as f64 / steps.max(1) as f64,
    );
    run.set("idistance.heap_get_ns", median(&get_ns));

    let (hit_ns, miss_us) = fetch_probe(run, idx.heap().pool())?;
    run.set("storage.fetch_hit_ns", hit_ns);
    run.set("storage.fetch_miss_us", miss_us);
    Ok(())
}

/// Times `BufferPool::page`: repeated fetches of a few warm pages (hits),
/// then a strided sweep over every page (misses, when the pool is smaller
/// than the file). Returns (median hit ns, median miss µs; 0 when no fetch
/// missed).
fn fetch_probe(run: &mut Run, pool: &BufferPool) -> Result<(f64, f64), String> {
    const RUN: usize = 16;
    let pages = pool.num_pages() as u64;
    let warm = (pool.capacity() as u64 / 2).clamp(1, 8).min(pages);
    for id in 0..warm {
        pool.page(id).map_err(|e| e.to_string())?;
    }
    let mut hit_ns = Vec::new();
    for _ in 0..500 {
        let t0 = Instant::now();
        for id in (0..warm).cycle().take(RUN) {
            std::hint::black_box(pool.page(id).map_err(|e| e.to_string())?);
        }
        hit_ns.push(t0.elapsed().as_nanos() as f64 / RUN as f64);
    }
    // A prime stride defeats both the pool and sequential readahead.
    let mut miss_us = Vec::new();
    for i in 0..pages.min(2000) {
        let id = (i * 7919) % pages;
        let before = pool.misses();
        let t0 = Instant::now();
        let r = run.tracer.span("storage.fetch", |_| pool.page(id));
        let dt = t0.elapsed();
        r.map_err(|e| e.to_string())?;
        if pool.misses() > before {
            miss_us.push(dt.as_secs_f64() * 1e6);
        }
    }
    let miss = if miss_us.is_empty() {
        0.0
    } else {
        median(&miss_us)
    };
    Ok((median(&hit_ns), miss))
}

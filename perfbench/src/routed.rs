//! `routed-knn`: the base rows split into four cluster shards, each behind
//! an in-process static server, queried through the scatter-gather
//! `Router` by one caller thread.

use crate::common::{
    knn_pass, measure_knn_and_batch, peak_rss_mb, record_knn_latency, repeated_setup, same_answer,
    span_median,
};
use crate::data::{Inputs, DIM, K, N_BASE};
use crate::inproc::{fit, RESIDENT_POOL_PAGES};
use crate::run::Run;
use crate::stats::median;
use mmdr::core::ReductionResult;
use mmdr::idistance::Backend;
use mmdr::index::VectorIndex;
use mmdr::persist::{Manifest, OpenOptions};
use mmdr::router::{Router, RouterConfig};
use mmdr::serve::{Client, Server, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::Instant;

/// Shards the base rows are split into.
const SHARDS: usize = 4;
/// Queries compared between the router and the single node.
const PARITY_QUERIES: usize = 200;

struct Setup {
    model: ReductionResult,
    router: Arc<Router>,
    shards: Vec<ServerHandle>,
    snapshot_bytes: u64,
}

fn setup(run: &mut Run, inputs: &Inputs) -> Result<Setup, String> {
    let model = fit(run, inputs)?;
    let plans = run
        .tracer
        .span("persist.shard_split", |_| {
            mmdr::persist::plan_shards(&inputs.base, &model, SHARDS)
        })
        .map_err(|e| format!("shard split: {e}"))?;
    let mut entries = Vec::new();
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    let mut snapshot_bytes = 0;
    for (i, plan) in plans.iter().enumerate() {
        let name = format!("shard-{i}.mmdr");
        let path = run.dir.join(&name);
        let built = run
            .tracer
            .span("idistance.build", |_| {
                mmdr::persist::build_index(
                    Backend::IDistance,
                    &plan.data,
                    &plan.model,
                    RESIDENT_POOL_PAGES,
                )
            })
            .map_err(|e| format!("build shard {i}: {e}"))?;
        run.tracer
            .span("persist.save", |_| {
                mmdr::persist::save(&path, &built, &plan.model)
            })
            .map_err(|e| format!("save shard {i}: {e}"))?;
        drop(built);
        snapshot_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let opened = run
            .tracer
            .span("persist.open", |_| {
                mmdr::persist::open_with(&path, &OpenOptions::default())
            })
            .map_err(|e| format!("open shard {i}: {e}"))?;
        let index: Arc<dyn VectorIndex> = Arc::from(opened.index.into_boxed());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = run
            .tracer
            .span("serve.start", |_| {
                Server::start_static(index, ("127.0.0.1", 0), config)
            })
            .map_err(|e| format!("start shard {i}: {e}"))?;
        addrs.push(handle.local_addr().to_string());
        shards.push(handle);
        entries.push(plan.entry(name));
    }
    let manifest = Manifest {
        backend: Backend::IDistance.name().to_string(),
        dim: DIM,
        num_points: N_BASE,
        shards: entries,
    };
    let router = run
        .tracer
        .span("router.connect", |_| {
            Router::connect(manifest, &addrs, RouterConfig::default())
        })
        .map_err(|e| format!("router connect: {e}"))?;
    Ok(Setup {
        model,
        router: Arc::new(router),
        shards,
        snapshot_bytes,
    })
}

/// Runs `routed-knn`.
pub fn run(run: &mut Run, inputs: &Inputs) -> Result<(), String> {
    let s = repeated_setup(run, |run| setup(run, inputs))?;
    run.env("shards", SHARDS);
    run.env("shard_server_workers", 1u64);
    run.env("callers", 1u64);
    let router: &dyn VectorIndex = s.router.as_ref();
    let queries = &inputs.queries;
    if run.traced() {
        run.set("core.fit_s", span_median(run, "core.fit", 1e-9));
        // Four shards are built, saved and opened: report the sum.
        for (span, metric) in [
            ("idistance.build", "idistance.build_s"),
            ("persist.save", "persist.save_s"),
            ("persist.open", "persist.open_s"),
        ] {
            let total: f64 = run.tracer.durations_ns(span).iter().sum();
            run.set(metric, total * 1e-9);
        }
    }

    let stats0 = router
        .shard_stats()
        .ok_or("the router reports shard stats")?;
    let pass = if run.traced() {
        run.tracer.set_enabled(false);
        let (_, plain_qps) = knn_pass(run, router, queries, run.budget(0.3), "router.knn");
        run.tracer.set_enabled(true);
        let (pass, qps) = knn_pass(run, router, queries, run.budget(0.3), "router.knn");
        record_knn_latency(run, &pass.lat_ms, &[0..pass.lat_ms.len()])?;
        run.set("trace.overhead_frac", 1.0 - qps / plain_qps);
        pass
    } else {
        measure_knn_and_batch(run, router, queries, run.budget(1.0), "router.knn")?
    };
    let stats1 = router
        .shard_stats()
        .ok_or("the router reports shard stats")?;

    // The single node: one iDistance index over all rows, same model.
    let single = mmdr::persist::build_index(
        Backend::IDistance,
        &inputs.base,
        &s.model,
        RESIDENT_POOL_PAGES,
    )
    .map_err(|e| format!("single-node build: {e}"))?;
    let single = single.as_dyn();
    for (qi, ans) in pass.answers.iter().enumerate().take(PARITY_QUERIES) {
        let Some(ans) = ans else { continue };
        let want = single.knn(&queries[qi], K);
        let ok = want.as_ref().is_ok_and(|w| same_answer(w, ans));
        run.check(ok, || {
            format!("query {qi}: routed answer differs from the single node")
        });
    }

    if run.traced() {
        let routed = stats1.queries - stats0.queries;
        run.set(
            "router.shards_per_q",
            (stats1.contacted - stats0.contacted) as f64 / routed.max(1) as f64,
        );
        let mut local = Vec::new();
        for q in queries.iter().take(1000) {
            let t0 = Instant::now();
            single.knn(q, K).map_err(|e| e.to_string())?;
            local.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        run.set("router.overhead_ms", median(&pass.lat_ms) - median(&local));
        let mut hops = Vec::new();
        for shard in &s.shards {
            let mut c = Client::connect(shard.local_addr()).map_err(|e| e.to_string())?;
            for _ in 0..100 {
                let d = run
                    .tracer
                    .span("router.hop", |_| c.ping())
                    .map_err(|e| e.to_string())?;
                hops.push(d.as_secs_f64() * 1e6);
            }
        }
        run.set("router.hop_us", median(&hops));
    } else {
        run.set(
            "store_bytes_per_row",
            s.snapshot_bytes as f64 / N_BASE as f64,
        );
        run.set("peak_rss_mb", peak_rss_mb());
    }
    let Setup { router, shards, .. } = s;
    drop(router);
    for h in shards {
        h.shutdown();
    }
    Ok(())
}

//! `served-mixed`: the WAL-backed ingest engine behind the TCP server,
//! driven by two closed-loop connections issuing a fixed operation mix.

use crate::common::{
    batch_pass, peak_rss_mb, record_knn_latency, repeated_setup, same_answer, span_median, Answer,
    SEGMENT,
};
use crate::data::{Inputs, Rng, ATTR_VALUES, K, N_BASE, N_HELD, N_QUERIES};
use crate::inproc::fit;
use crate::report::{Outcome, Tally};
use crate::run::Run;
use crate::stats::{median, time_windows, Latency};
use crate::trace::Tracer;
use mmdr::idistance::Backend;
use mmdr::index::{LiveIndex, PinnedEpoch};
use mmdr::persist::{IngestEngine, IngestOptions};
use mmdr::query::{AttrStore, AttrType, AttrValue, Planner, Predicate};
use mmdr::serve::{Client, ServeError, Server, ServerConfig, ServerHandle};
use mmdr::storage::PAGE_SIZE;
use mmdr_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames per engine pool, and the page budget merges build with: more
/// than the index has, as in `knn-resident`.
const POOL_PAGES: usize = 4096;
/// Delta pressure (rows + tombstones) that starts a background merge; at
/// the mix's write rate several merges and epoch swaps finish per run.
const MERGE_THRESHOLD: usize = 128;
/// Closed-loop connections (at most `nproc` on the reference host).
const CONNECTIONS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Held-out rows kept back from the connections for the in-process
/// insert probe of the traced run.
const PROBE_INSERTS: usize = 100;
/// Base ids kept back from the connections for the delete probe.
const PROBE_DELETES: usize = 10;
/// Queries compared between served and in-process answers at the end.
const PARITY_QUERIES: usize = 200;
/// Filtered queries compared likewise.
const PARITY_FILTERED: usize = 50;

/// One operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Knn,
    Range,
    FilteredKnn,
    Insert,
    Delete,
}

/// The mix, in percent of operations.
const MIX: [(Op, u64); 5] = [
    (Op::Knn, 75),
    (Op::Range, 5),
    (Op::FilteredKnn, 10),
    (Op::Insert, 8),
    (Op::Delete, 2),
];

fn pick(rng: &mut Rng) -> Op {
    let mut r = rng.below(100);
    for (op, share) in MIX {
        if r < share {
            return op;
        }
        r -= share;
    }
    unreachable!("the mix sums to 100")
}

struct Setup {
    clients: Vec<Client>,
    server: ServerHandle,
    engine: IngestEngine,
}

fn attr_store(inputs: &Inputs) -> Result<AttrStore, String> {
    let mut store = AttrStore::new(&[("a", AttrType::I64)]).map_err(|e| e.to_string())?;
    for (id, &a) in inputs.attr_a.iter().enumerate() {
        store
            .set(id as u64, "a", &AttrValue::I64(a))
            .map_err(|e| e.to_string())?;
    }
    Ok(store)
}

fn setup(run: &mut Run, inputs: &Inputs) -> Result<Setup, String> {
    let model = fit(run, inputs)?;
    let store = attr_store(inputs)?;
    let path = run.dir.join("served.mmdr");
    let opts = IngestOptions {
        pool_pages: Some(POOL_PAGES),
        merge_threshold: MERGE_THRESHOLD,
        ..IngestOptions::default()
    };
    let engine = run
        .tracer
        .span("persist.create", |_| {
            IngestEngine::create_with_attrs(
                &path,
                Backend::IDistance,
                &inputs.base,
                &model,
                POOL_PAGES,
                opts,
                Some(&store),
            )
        })
        .map_err(|e| format!("create engine: {e}"))?;
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let live: Arc<dyn LiveIndex> = Arc::new(engine.clone());
    let server = run
        .tracer
        .span("serve.start", |_| {
            Server::start(live, ("127.0.0.1", 0), config)
        })
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr();
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = run
            .tracer
            .span("serve.connect", |_| Client::connect(addr))
            .map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        clients.push(c);
    }
    Ok(Setup {
        clients,
        server,
        engine,
    })
}

/// State the connections share.
struct Shared<'a> {
    inputs: &'a Inputs,
    engine: &'a IngestEngine,
    /// Base ids the connections delete, dealt out in turn.
    delete_ids: &'a [u64],
    /// When each delete was acknowledged.
    deleted: Mutex<HashMap<u64, Instant>>,
    radius: f64,
    seed: u64,
    start: Instant,
    deadline: Instant,
}

impl Shared<'_> {
    /// Ids in `ans` whose delete was acknowledged before `sent`.
    fn stale(&self, ans: &[(f64, u64)], sent: Instant) -> Vec<u64> {
        let deleted = self
            .deleted
            .lock()
            .expect("no thread panics holding the lock");
        ans.iter()
            .map(|&(_, id)| id)
            .filter(|id| deleted.get(id).is_some_and(|&acked| acked < sent))
            .collect()
    }

    fn acknowledge_delete(&self, id: u64) {
        let acked = Instant::now();
        let mut deleted = self
            .deleted
            .lock()
            .expect("no thread panics holding the lock");
        deleted.insert(id, acked);
    }
}

/// What one connection did.
#[derive(Default)]
struct ConnResult {
    tally: Tally,
    mismatches: Vec<String>,
    /// `(completion time since the mix started in s, op, latency in ms)`
    /// of every successful operation.
    done: Vec<(f64, &'static str, f64)>,
    /// `(id, held-out row)` of every acknowledged insert.
    inserted: Vec<(u64, usize)>,
    deletes: u64,
    delta_rows: Vec<f64>,
    tracer: Option<Tracer>,
}

/// A successful reply, before it is checked.
enum Reply {
    /// A read answer, and the `a` value a filtered read asked for.
    Hits(Vec<(f64, u64)>, Option<i64>),
    /// The id an insert of held-out row `.1` got.
    Inserted(u64, usize),
    /// Whether deleting id `.0` changed state.
    Deleted(u64, bool),
}

/// One closed-loop connection: the next operation is sent when the
/// previous answer arrives.
fn connection(c: usize, client: &mut Client, shared: &Shared, mut tracer: Tracer) -> ConnResult {
    let inputs = shared.inputs;
    let mut rng = Rng::new(shared.seed ^ (0xC0_77EC + c as u64).wrapping_mul(0x9E37_79B9));
    let mut held = (c..N_HELD - PROBE_INSERTS).step_by(CONNECTIONS);
    let mut deletes = shared.delete_ids.iter().skip(c).step_by(CONNECTIONS);
    let mut out = ConnResult::default();
    tracer.set_request_base(1 + c as u64 * 1_000_000_000);
    while Instant::now() < shared.deadline {
        let op = pick(&mut rng);
        let q = &inputs.queries[rng.below(N_QUERIES as u64) as usize];
        let sent = Instant::now();
        let (name, result) = match op {
            Op::Knn => {
                let r = tracer.request("request.knn", |t| {
                    t.span("serve.client.knn", |_| client.knn(q, K))
                });
                ("knn", r.map(|a| Reply::Hits(a, None)))
            }
            Op::Range => {
                let r = tracer.request("request.range", |t| {
                    t.span("serve.client.range", |_| client.range(q, shared.radius))
                });
                ("range", r.map(|a| Reply::Hits(a, None)))
            }
            Op::FilteredKnn => {
                let v = rng.below(ATTR_VALUES) as i64;
                let pred = format!("a = {v}");
                let r = tracer.request("request.fknn", |t| {
                    t.span("serve.client.fknn", |_| client.filtered_knn(q, K, &pred))
                });
                ("fknn", r.map(|a| Reply::Hits(a, Some(v))))
            }
            Op::Insert => {
                let Some(row) = held.next() else { break };
                let r = tracer.request("request.insert", |t| {
                    t.span("serve.client.insert", |_| {
                        client.insert(inputs.held.row(row))
                    })
                });
                ("insert", r.map(|id| Reply::Inserted(id, row)))
            }
            Op::Delete => {
                let Some(&id) = deletes.next() else { break };
                let r = tracer.request("request.delete", |t| {
                    t.span("serve.client.delete", |_| client.delete(id))
                });
                ("delete", r.map(|changed| Reply::Deleted(id, changed)))
            }
        };
        let dt = sent.elapsed().as_secs_f64() * 1e3;
        let problem = match result {
            Ok(Reply::Hits(ans, attr)) => check_read(shared, &ans, sent, attr),
            Ok(Reply::Inserted(id, row)) => {
                out.inserted.push((id, row));
                None
            }
            Ok(Reply::Deleted(id, changed)) => {
                shared.acknowledge_delete(id);
                out.deletes += 1;
                (!changed).then(|| format!("delete of live base id {id} changed nothing"))
            }
            Err(ServeError::Overloaded) => {
                out.tally.record(Outcome::Refused);
                continue;
            }
            Err(e) => {
                if out.tally.failed < 5 {
                    eprintln!("connection {c}: {name}: {e}");
                }
                out.tally.record(Outcome::Error);
                continue;
            }
        };
        out.done
            .push((shared.start.elapsed().as_secs_f64(), name, dt));
        match problem {
            None => out.tally.record(Outcome::Ok),
            Some(p) => {
                out.tally.record(Outcome::Mismatch);
                out.mismatches.push(p);
            }
        }
        if tracer.enabled() && out.done.len().is_multiple_of(16) {
            out.delta_rows
                .push(shared.engine.ingest_stats().delta_rows as f64);
        }
    }
    out.tracer = Some(tracer);
    out
}

/// Checks a read answer: no id deleted before the request was sent, and
/// for a filtered query (`attr = Some(v)`) only base rows with `a = v`.
fn check_read(
    shared: &Shared,
    ans: &[(f64, u64)],
    sent: Instant,
    attr: Option<i64>,
) -> Option<String> {
    let stale = shared.stale(ans, sent);
    if !stale.is_empty() {
        return Some(format!("answer returned deleted ids {stale:?}"));
    }
    let v = attr?;
    let bad: Vec<u64> = ans
        .iter()
        .map(|&(_, id)| id)
        .filter(|&id| id as usize >= N_BASE || shared.inputs.attr_a[id as usize] != v)
        .collect();
    (!bad.is_empty()).then(|| format!("filtered answer for a = {v} returned ids {bad:?}"))
}

/// Runs `served-mixed`.
pub fn run(run: &mut Run, inputs: &Inputs) -> Result<(), String> {
    let mut s = repeated_setup(run, |run| setup(run, inputs))?;
    let engine = s.engine.clone();
    if run.traced() {
        run.set("core.fit_s", span_median(run, "core.fit", 1e-9));
    }
    run.env("merge_threshold", MERGE_THRESHOLD);
    run.env(
        "flush_policy",
        "WAL fsync per insert and delete, acknowledged after the fsync",
    );
    run.env(
        "load",
        Value::object(vec![
            ("loop", "closed".into()),
            ("connections", CONNECTIONS.into()),
            ("server_workers", WORKERS.into()),
            (
                "mix_percent",
                Value::object(vec![
                    ("knn", 75u64.into()),
                    ("range", 5u64.into()),
                    ("filtered_knn_1pct", 10u64.into()),
                    ("insert", 8u64.into()),
                    ("delete", 2u64.into()),
                ]),
            ),
        ]),
    );
    let snapshot_bytes = std::fs::metadata(engine.path())
        .map_err(|e| e.to_string())?
        .len();
    run.env(
        "pool",
        Value::object(vec![
            ("frames_per_pool", POOL_PAGES.into()),
            ("snapshot_pages", (snapshot_bytes / PAGE_SIZE as u64).into()),
        ]),
    );

    // Range radius: the median 10th-neighbour distance, so a range query
    // returns about ten rows.
    let pinned = engine.pin();
    let mut kth = Vec::new();
    for q in inputs.queries.iter().take(50) {
        let a = pinned.index.knn(q, K).map_err(|e| e.to_string())?;
        kth.push(a.last().map_or(0.0, |x| x.0));
    }
    drop(pinned);
    let radius = median(&kth);

    let mut order: Vec<u64> = (0..N_BASE as u64).collect();
    Rng::new(run.seed ^ 0xde1e7e).shuffle(&mut order);
    let (probe_deletes, delete_ids) = order.split_at(PROBE_DELETES);

    let counters0 = s.server.stats();
    let planner0 = engine.planner_snapshot();
    let ingest0 = engine.ingest_stats();
    let mix_share = if run.traced() { 0.5 } else { 0.7 };
    let start = Instant::now();
    let shared = Shared {
        inputs,
        engine: &engine,
        delete_ids,
        deleted: Mutex::new(HashMap::new()),
        radius,
        seed: run.seed,
        start,
        deadline: start + run.budget(mix_share),
    };
    let origin = run.tracer.origin();
    let traced = run.traced();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                let tracer = Tracer::with_origin(traced, origin);
                scope.spawn(move || connection(c, client, shared, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let counters = s.server.stats();
    let planner = engine.planner_snapshot();
    let ingest = engine.ingest_stats();

    let mut done: Vec<(f64, &'static str, f64)> = Vec::new();
    let mut inserted = Vec::new();
    let mut deletes = 0;
    let mut delta_rows = Vec::new();
    for mut r in results {
        run.tally.merge(r.tally);
        for m in r.mismatches.drain(..) {
            run.check(false, || m);
        }
        done.extend(r.done);
        inserted.extend(r.inserted);
        deletes += r.deletes;
        delta_rows.extend(r.delta_rows);
        if let Some(t) = r.tracer.take() {
            run.tracer.absorb(t);
        }
    }
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lat_of =
        |name: &str| -> Vec<f64> { done.iter().filter(|d| d.1 == name).map(|d| d.2).collect() };
    let mut samples = Vec::new();
    for name in ["knn", "range", "fknn", "insert", "delete"] {
        let l = Latency::of(&lat_of(name));
        let tail = l.tail.map_or(Value::Null, |t| t.p.into());
        let v = Value::object(vec![("samples", l.count.into()), ("tail_percentile", tail)]);
        samples.push((name.to_string(), v));
    }
    run.env("percentile_samples", Value::Object(samples));
    let knn = lat_of("knn");
    let knn_at: Vec<f64> = done.iter().filter(|d| d.1 == "knn").map(|d| d.0).collect();
    let windows = time_windows(&knn_at, SEGMENT.as_secs_f64());
    record_knn_latency(run, &knn, &windows)?;
    run.set("knn_qps", knn.len() as f64 / wall);
    run.set("ops_s", done.len() as f64 / wall);
    let merges = ingest.merges - ingest0.merges;
    run.env("merges_during_mix", merges);
    run.env("epoch_swaps_during_mix", ingest.epoch - ingest0.epoch);

    if traced {
        let fknn = Latency::of(&lat_of("fknn"));
        let range = Latency::of(&lat_of("range"));
        let ins = Latency::of(&lat_of("insert"));
        run.set("fknn_p50_ms", fknn.p50.unwrap_or(0.0));
        run.set("fknn_p99_ms", fknn.tail.map_or(0.0, |t| t.value));
        run.set("range_p50_ms", range.p50.unwrap_or(0.0));
        run.set("insert_p50_ms", ins.p50.unwrap_or(0.0));
        run.set("insert_p99_ms", ins.tail.map_or(0.0, |t| t.value));
        let fk = (planner.post_filter - planner0.post_filter)
            + (planner.pushdown - planner0.pushdown)
            + (planner.prefilter_rank - planner0.prefilter_rank);
        let frac = |n: u64| n as f64 / fk.max(1) as f64;
        run.set(
            "query.postfilter_frac",
            frac(planner.post_filter - planner0.post_filter),
        );
        run.set(
            "query.pushdown_frac",
            frac(planner.pushdown - planner0.pushdown),
        );
        run.set(
            "query.prefilter_frac",
            frac(planner.prefilter_rank - planner0.prefilter_rank),
        );
        let knn_reqs = counters.knn_requests - counters0.knn_requests;
        run.set(
            "serve.coalesced_frac",
            (counters.coalesced_queries - counters0.coalesced_queries) as f64
                / knn_reqs.max(1) as f64,
        );
        run.set(
            "serve.overloaded",
            (counters.overloaded - counters0.overloaded) as f64,
        );
        run.set(
            "serve.protocol_errors",
            (counters.protocol_errors - counters0.protocol_errors) as f64,
        );
        run.set("persist.merges", merges as f64);
        run.set(
            "persist.delta_rows_mean",
            if delta_rows.is_empty() {
                0.0
            } else {
                delta_rows.iter().sum::<f64>() / delta_rows.len() as f64
            },
        );
        let (per_insert, per_delete) = write_probes(run, &shared, probe_deletes, &mut inserted)?;
        run.set("persist.wal_bytes_per_insert", per_insert);
        let user = inserted.len() as f64 * (crate::data::DIM * 8) as f64 + deletes as f64 * 8.0;
        let written = inserted.len() as f64 * per_insert
            + deletes as f64 * per_delete
            + merges as f64 * snapshot_bytes as f64;
        run.set("persist.write_amp", written / user.max(1.0));
        query_probes(run, inputs, &engine)?;
    }

    // The final flush, then every check against the settled epoch.
    let flushed = run.tracer.span("persist.flush", |_| s.clients[0].flush());
    run.outcome(if flushed.is_ok() {
        Outcome::Ok
    } else {
        Outcome::Error
    });
    if let Err(e) = flushed {
        return Err(format!("final flush: {e}"));
    }
    run.set("persist.flush_s", span_median(run, "persist.flush", 1e-9));
    let pinned = engine.pin();
    let serial = parity(run, inputs, &engine, &pinned, &mut s.clients[0], &shared)?;
    for &(id, row) in &inserted {
        let a = pinned.index.knn(inputs.held.row(row), 1);
        let ok = a
            .as_ref()
            .is_ok_and(|a| a.first().is_some_and(|x| x.1 == id));
        run.check(ok, || format!("inserted id {id} is not its own 1-NN"));
    }

    if traced {
        overhead_probes(run, inputs, &pinned, &mut s.clients[0])?;
    } else {
        let batch = batch_pass(
            run,
            pinned.index.as_ref(),
            &inputs.queries,
            &serial,
            2,
            run.budget(0.25),
        );
        run.set("batch_qps_2t", batch);
        let snapshot = std::fs::metadata(engine.path())
            .map_err(|e| e.to_string())?
            .len();
        let wal = engine.ingest_stats().wal_bytes;
        run.set(
            "store_bytes_per_row",
            (snapshot + wal) as f64 / pinned.index.len() as f64,
        );
        run.set("peak_rss_mb", peak_rss_mb());
    }
    drop(pinned);
    let Setup {
        clients,
        server,
        engine: _,
    } = s;
    drop(clients);
    server.shutdown();
    engine.quiesce();
    Ok(())
}

/// After the final flush: served answers equal the in-process answers on
/// the pinned epoch, bit for bit, and contain no deleted id. Returns the
/// in-process answers (indexed like the queries) for the batch check.
fn parity(
    run: &mut Run,
    inputs: &Inputs,
    engine: &IngestEngine,
    pinned: &PinnedEpoch,
    client: &mut Client,
    shared: &Shared,
) -> Result<Vec<Option<Answer>>, String> {
    let mut serial = vec![None; inputs.queries.len()];
    let now = Instant::now();
    for (qi, q) in inputs.queries.iter().enumerate().take(PARITY_QUERIES) {
        let local = pinned.index.knn(q, K).map_err(|e| e.to_string())?;
        let remote = client.knn(q, K);
        let ok = remote.as_ref().is_ok_and(|r| same_answer(r, &local))
            && shared.stale(&local, now).is_empty();
        run.check(ok, || {
            format!("query {qi}: served answer differs from the pinned epoch")
        });
        serial[qi] = Some(local);
    }
    for (qi, q) in inputs.queries.iter().enumerate().take(PARITY_FILTERED) {
        let pred = format!("a = {}", qi as u64 % ATTR_VALUES);
        let local = engine
            .filtered_knn(q, K, &pred)
            .map_err(|e| e.to_string())?;
        let remote = client.filtered_knn(q, K, &pred);
        let ok = remote.as_ref().is_ok_and(|r| same_answer(r, &local));
        run.check(ok, || format!("query {qi}: served filtered answer differs"));
    }
    Ok(serial)
}

/// In-process writes on the engine: insert latency and WAL bytes per
/// insert and per delete. Returns (bytes per insert, bytes per delete).
fn write_probes(
    run: &mut Run,
    shared: &Shared,
    delete_ids: &[u64],
    inserted: &mut Vec<(u64, usize)>,
) -> Result<(f64, f64), String> {
    let (inputs, engine) = (shared.inputs, shared.engine);
    // Start from an empty delta so no merge truncates the WAL mid-probe.
    engine.flush().map_err(|e| e.to_string())?;
    engine.quiesce();
    let s0 = engine.ingest_stats();
    for row in N_HELD - PROBE_INSERTS..N_HELD {
        let id = run
            .tracer
            .span("persist.insert", |_| engine.insert(inputs.held.row(row)))
            .map_err(|e| e.to_string())?;
        inserted.push((id, row));
        run.outcome(Outcome::Ok);
    }
    let s1 = engine.ingest_stats();
    for &id in delete_ids {
        let changed = engine.delete(id).map_err(|e| e.to_string())?;
        shared.acknowledge_delete(id);
        run.check(changed, || {
            format!("delete of live base id {id} changed nothing")
        });
    }
    let s2 = engine.ingest_stats();
    if s2.merges != s0.merges {
        return Err("a merge ran during the write probe".into());
    }
    run.set(
        "persist.insert_ms",
        span_median(run, "persist.insert", 1e-6),
    );
    Ok((
        (s1.wal_bytes - s0.wal_bytes) as f64 / PROBE_INSERTS as f64,
        (s2.wal_bytes - s1.wal_bytes) as f64 / delete_ids.len() as f64,
    ))
}

/// Times predicate parsing and planning, and counts pages per filtered
/// KNN, in process.
fn query_probes(run: &mut Run, inputs: &Inputs, engine: &IngestEngine) -> Result<(), String> {
    let sketches = engine.attr_sketches();
    let planner = Planner::new();
    let n = N_BASE as u64;
    for i in 0..500u64 {
        let text = format!("a = {}", i % ATTR_VALUES);
        let pred = run
            .tracer
            .span("query.parse", |_| Predicate::parse(&text))
            .map_err(|e| e.to_string())?;
        let r = run.tracer.span("query.plan", |_| {
            engine.with_attrs(|store| {
                pred.validate(store)?;
                let rows = pred.compile(store)?;
                planner.plan_knn(pred.clone(), rows, sketches.as_deref(), n, K)
            })
        });
        r.map_err(|e| e.to_string())?;
    }
    run.set("query.parse_us", span_median(run, "query.parse", 1e-3));
    run.set("query.plan_us", span_median(run, "query.plan", 1e-3));

    let index = engine.pin().index;
    let before = index.query_stats();
    let n_fknn = 100;
    for (i, q) in inputs.queries.iter().take(n_fknn).enumerate() {
        let pred = format!("a = {}", i as u64 % ATTR_VALUES);
        engine
            .filtered_knn(q, K, &pred)
            .map_err(|e| e.to_string())?;
    }
    let pages = index.query_stats().since(&before).pages_touched;
    run.set("query.pages_per_fknn", pages as f64 / n_fknn as f64);
    Ok(())
}

/// Serving overhead on the pinned epoch: the same queries served and in
/// process, one after another; plus ping round trips.
fn overhead_probes(
    run: &mut Run,
    inputs: &Inputs,
    pinned: &PinnedEpoch,
    client: &mut Client,
) -> Result<(), String> {
    let (mut remote, mut local) = (Vec::new(), Vec::new());
    for q in inputs.queries.iter().take(400) {
        let t0 = Instant::now();
        pinned.index.knn(q, K).map_err(|e| e.to_string())?;
        local.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        client.knn(q, K).map_err(|e| e.to_string())?;
        remote.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    run.set("serve.overhead_ms", median(&remote) - median(&local));
    let mut ping = Vec::new();
    for _ in 0..200 {
        let d = run
            .tracer
            .span("serve.ping", |_| client.ping())
            .map_err(|e| e.to_string())?;
        ping.push(d.as_secs_f64() * 1e6);
    }
    run.set("serve.ping_us", median(&ping));
    Ok(())
}

//! Serving stages: open-loop latency at fixed rates, the rate ladder,
//! scorer batches, and top-10 retrieval through the item index.

use std::sync::Arc;
use std::time::Duration;

use mgbr_core::FrozenModel;
use mgbr_obs::TraceFormat;
use mgbr_serve::{
    Admission, BatcherConfig, IndexConfig, ItemIndex, PoolConfig, Reply, Retriever, Scorer,
    WorkerPool,
};
use mgbr_tensor::{top_k_slice, Pcg32};

use crate::kernels;
use crate::load::{open_loop, LoadResult, Until};
use crate::rec::{self, Journal};
use crate::sys::{median, median_call_s, quantile};
use crate::work::{Ctx, Expected};

/// The light rate: batches of one or two, so the coalescing wait
/// dominates latency.
pub const LIGHT_QPS: f64 = 2_000.0;
/// The heavy rate: 2.5 times the light rate, and a tenth of what one
/// worker sustains on a quiet 2-vCPU host (about 50k/s). At 12k/s, a
/// quarter of that, stretches of a loaded shared host pushed the pool
/// into a backlog in some runs and not in others (median latency 1.2 ms
/// in one set of runs, 1.9 ms in another; 0.3 ms on a quiet host).
const HEAVY_QPS: f64 = 5_000.0;
/// The rate ladder starts at twice the light rate, and each rung is
/// 1.12x the last (finer than 2x).
const LADDER_FIRST_QPS: f64 = 2.0 * LIGHT_QPS;
const LADDER_STEP: f64 = 1.12;
const LADDER_RUNGS: usize = 40;
/// Seconds per rung of the rate ladder.
const RUNG_S: f64 = 0.2;
/// A rung passes when p90 latency stays under this limit, nothing is
/// shed, and the backlog at its end is no more than this limit's worth
/// of arrivals plus one batch.
const LIMIT_MS: f64 = 10.0;
/// Clusters probed per top-10 query, of the index's 8: with one, recall
/// shows how well the index's clustering fits the model's rankings.
const NPROBE: usize = 1;
/// Distinct (user, item) pairs the traffic cycles through.
const TRAFFIC_PAIRS: usize = 8192;

/// In a traced run the pool journals one request in this many (plus the
/// ones the pool always journals: sheds, expiries, swap boundaries).
/// Journaling every request doubled the heavy-rate median, so the
/// journaled queue and scoring times would describe a slower pool than
/// the one the end-to-end metrics measure.
const TRACE_SAMPLE: u64 = 16;

/// One worker, one shared queue, the default coalescing window, and a
/// queue deep enough that overload shows as latency rather than sheds.
/// Built explicitly: no environment knob reaches the benchmark's pools.
pub fn pool_config(trace: bool) -> PoolConfig {
    PoolConfig {
        workers: 1,
        admission: Admission::Shared,
        batcher: BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_cap: 1 << 16,
            default_deadline: None,
        },
        slo_us: None,
        trace_sample: trace.then_some(TRACE_SAMPLE),
    }
}

/// Uniform (user, item) pairs over the model's id space, from `seed`.
pub fn traffic(seed: u64, n_users: usize, n_items: usize) -> Vec<(usize, usize)> {
    let mut rng = Pcg32::new(seed, 0x7aff);
    (0..TRAFFIC_PAIRS)
        .map(|_| (rng.below(n_users), rng.below(n_items)))
        .collect()
}

/// Adds a phase's requests to the run's counts and checks its replies;
/// `other` is how many requests the pool answered outside the generator
/// during the phase.
pub fn account(ctx: &mut Ctx, what: &str, r: &LoadResult, other: u64) {
    ctx.attempted += r.attempted;
    ctx.failed += r.failed;
    ctx.check(
        format!("{what}: every answered score equals the training path"),
        r.wrong == 0,
    );
    ctx.check(
        format!("{what}: every admitted request answered exactly once"),
        r.scored == r.lat_ms.len() as u64 + other,
    );
    ctx.note(format!(
        "{what}: {} requests, {} answered, {} failed; p50 {:.4} p90 {:.4} p99 {:.4} ms; \
         mean batch {:.2}; generator late p99 {:.4} ms",
        r.attempted,
        r.lat_ms.len(),
        r.failed,
        r.p(0.5),
        r.p(0.9),
        r.p(0.99),
        r.mean_batch(),
        quantile(&r.late_ms, 0.99)
    ));
}

/// Seconds at each fixed rate in one serving round. Each latency metric
/// is the median over rounds of the round's percentile (from its raw
/// samples), so a round spoiled by a stall of the machine does not move
/// it; short rounds make many of them.
const ROUND_RATE_S: f64 = 0.25;
/// Seconds at each fixed rate in a journaled round of a traced run.
const TRACED_ROUND_S: f64 = 1.0;

/// One fixed-rate phase of `secs` seconds.
fn run_rate(
    pool: &WorkerPool,
    rate: f64,
    secs: f64,
    pairs: &[(usize, usize)],
    check: &(dyn Fn(usize, &Reply) -> bool + Sync),
) -> LoadResult {
    let n = (rate * secs).ceil() as u64;
    rec::time_n("mgbr-serve", "WorkerPool::submit_item", n, || {
        open_loop(pool, rate, Until::Count(n), pairs, check)
    })
    .0
}

/// A traced round of a phase: the journaled queue and scoring times.
fn traced_round(
    ctx: &mut Ctx,
    pool: &WorkerPool,
    name: &str,
    rate: f64,
    pairs: &[(usize, usize)],
    check: &(dyn Fn(usize, &Reply) -> bool + Sync),
) -> LoadResult {
    let stage = format!("serve-{name}");
    let session = mgbr_obs::trace_to(&ctx.journal_path(&stage), TraceFormat::Jsonl);
    ctx.check(format!("trace session for {name} starts"), session.is_ok());
    let traced = run_rate(pool, rate, TRACED_ROUND_S, pairs, check);
    drop(session);
    account(ctx, &format!("{name} (traced)"), &traced, 0);
    let mut j = Journal::default();
    ctx.absorb_journal(&stage, &mut j);
    ctx.layer(
        &format!("serve.queued_ms.{name}"),
        median(&j.queued_us) / 1e3,
        "ms",
    );
    ctx.layer(
        &format!("serve.scored_ms.{name}"),
        median(&j.scored_us) / 1e3,
        "ms",
    );
    ctx.note(format!(
        "{name}: queued/scored medians over {} serve.request spans journaled \
         (1 in {TRACE_SAMPLE} of {} requests)",
        j.queued_us.len(),
        traced.attempted
    ));
    traced
}

/// Whether a reply to request `pairs[idx]` carries the training-path
/// score of its pair.
fn reply_ok(pairs: &[(usize, usize)], exp: &Expected, idx: usize, r: &Reply) -> bool {
    let (u, i) = pairs[idx];
    r.result
        .as_ref()
        .is_ok_and(|s| s.to_bits() == exp.score(u, i).to_bits())
}

/// Top-10 retrieval measurements accumulated over passes.
#[derive(Default)]
struct Topk {
    lat: Vec<f64>,
    retr: Vec<f64>,
    kern: Vec<f64>,
    recall: f64,
    queries: u64,
    errors: u64,
    wrong_full: u64,
    wrong_kernel: u64,
}

/// The exact top-10 of a score row: score descending, lower id first.
fn exact_top10(row: &[f32]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..row.len()).collect();
    ids.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    ids.truncate(10);
    ids
}

/// The serving stage: one pool over the frozen artifact, an item index,
/// and the accumulated measurements of its rounds.
pub struct Serving<'a> {
    pool: WorkerPool,
    pairs: Vec<(usize, usize)>,
    exp: &'a Expected,
    art: Arc<FrozenModel>,
    index: ItemIndex,
    /// Every user once per top-10 pass, in an order drawn from the seed.
    users: Vec<usize>,
    light: LoadResult,
    heavy: LoadResult,
    light_p50: Vec<f64>,
    heavy_p50: Vec<f64>,
    heavy_p90: Vec<f64>,
    topk: Topk,
}

impl<'a> Serving<'a> {
    /// Starts the pool, warms it up, builds the index and runs one
    /// checked top-10 pass: full probe, the exhaustive retriever and
    /// `top_k_slice` against the benchmark's own exact top-10.
    pub fn new(ctx: &mut Ctx, art: &Arc<FrozenModel>, exp: &'a Expected) -> Self {
        let (pool, _) = rec::time("mgbr-serve", "WorkerPool::new", || {
            WorkerPool::new(art.clone(), pool_config(ctx.trace))
        });
        let (index, build_s) = rec::time("mgbr-serve", "ItemIndex::build", || {
            ItemIndex::build(art.clone(), IndexConfig::default())
        });
        ctx.layer("serve.index_build_s", build_s, "s");
        let mut users: Vec<usize> = (0..art.n_users()).collect();
        let mut rng = Pcg32::new(ctx.seed, 0x70bc);
        for i in (1..users.len()).rev() {
            users.swap(i, rng.below(i + 1));
        }
        let mut s = Self {
            pool,
            pairs: traffic(ctx.seed, art.n_users(), art.n_items()),
            exp,
            art: art.clone(),
            index,
            users,
            light: LoadResult::default(),
            heavy: LoadResult::default(),
            light_p50: Vec::new(),
            heavy_p50: Vec::new(),
            heavy_p90: Vec::new(),
            topk: Topk::default(),
        };
        // Warm-up: the worker's buffers reach steady size.
        let (pairs, exp) = (&s.pairs, s.exp);
        let warm = open_loop(&s.pool, LIGHT_QPS, Until::Count(500), pairs, &|i, r| {
            reply_ok(pairs, exp, i, r)
        });
        account(ctx, "warm-up", &warm, 0);
        s.checked_topk_pass();
        s
    }

    fn checked_topk_pass(&mut self) {
        let retriever = Retriever::new(self.art.clone());
        let full_probe = self.index.n_clusters();
        let t = &mut self.topk;
        for &u in &self.users {
            let exact = exact_top10(self.exp.row(u));
            let (full, _) = rec::time("mgbr-serve", "ItemIndex::top_items", || {
                self.index.top_items(u, 10, full_probe)
            });
            let (all, s) = rec::time("mgbr-serve", "Retriever::top_items", || {
                retriever.top_items(u, 10, None)
            });
            t.retr.push(s);
            let (top, s) = rec::time("mgbr-tensor", "top_k_slice", || {
                top_k_slice(self.exp.row(u), 10)
            });
            t.kern.push(s);
            t.wrong_kernel += u64::from(top != exact);
            match (full, all) {
                (Ok(full), Ok(_)) => {
                    let same = full.iter().map(|h| h.id).eq(exact.iter().copied())
                        && full
                            .iter()
                            .all(|h| h.score.to_bits() == self.exp.score(u, h.id).to_bits());
                    t.wrong_full += u64::from(!same);
                }
                _ => t.errors += 1,
            }
            t.queries += 2;
        }
    }

    /// One top-10 query per user through the index at [`NPROBE`].
    fn topk_pass(&mut self) {
        let t = &mut self.topk;
        for &u in &self.users {
            let exact = exact_top10(self.exp.row(u));
            let (hits, s) = rec::time("mgbr-serve", "ItemIndex::top_items", || {
                self.index.top_items(u, 10, NPROBE)
            });
            t.lat.push(s);
            t.queries += 1;
            match hits {
                Ok(hits) => {
                    t.recall += hits.iter().filter(|h| exact.contains(&h.id)).count() as f64 / 10.0
                }
                Err(_) => t.errors += 1,
            }
        }
    }

    /// One round: the light rate, the heavy rate, and a top-10 pass.
    /// Rounds alternate with the online segments, so every stage samples
    /// the same stretches of the machine.
    pub fn round(&mut self) {
        let (pairs, exp) = (&self.pairs, self.exp);
        let check = |i: usize, r: &Reply| reply_ok(pairs, exp, i, r);
        let l = run_rate(&self.pool, LIGHT_QPS, ROUND_RATE_S, pairs, &check);
        let h = run_rate(&self.pool, HEAVY_QPS, ROUND_RATE_S, pairs, &check);
        self.light_p50.push(l.p(0.5));
        self.heavy_p50.push(h.p(0.5));
        self.heavy_p90.push(h.p(0.9));
        self.light.merge(l);
        self.heavy.merge(h);
        self.topk_pass();
    }

    /// What only a traced run measures: a journaled round at each fixed
    /// rate, the rate ladder and the scorer batches.
    pub fn traced(&self, ctx: &mut Ctx) {
        let (pairs, exp) = (&self.pairs, self.exp);
        let check = |i: usize, r: &Reply| reply_ok(pairs, exp, i, r);
        traced_round(ctx, &self.pool, "light", LIGHT_QPS, pairs, &check);
        let traced = traced_round(ctx, &self.pool, "heavy", HEAVY_QPS, pairs, &check);
        ctx.layer(
            "bench.trace_overhead_pct",
            (traced.p(0.5) / median(&self.heavy_p50) - 1.0) * 100.0,
            "%",
        );
        ladder(ctx, &self.pool, pairs, &check);
        scorer_batches(ctx, &self.art, pairs, exp);
    }

    /// Checks and reports the rounds.
    pub fn finish(self, ctx: &mut Ctx) {
        account(ctx, "light", &self.light, 0);
        account(ctx, "heavy", &self.heavy, 0);
        for (name, r) in [("light", &self.light), ("heavy", &self.heavy)] {
            ctx.layer(&format!("serve.mean_batch.{name}"), r.mean_batch(), "count");
            ctx.layer(
                &format!("bench.late_p99_ms.{name}"),
                quantile(&r.late_ms, 0.99),
                "ms",
            );
        }
        ctx.note(format!(
            "round medians, ms: light {:?} heavy {:?}",
            self.light_p50.iter().map(|x| (x * 1e3).round() / 1e3).collect::<Vec<_>>(),
            self.heavy_p50.iter().map(|x| (x * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));
        ctx.e2e("light_p50_ms", median(&self.light_p50), "ms");
        ctx.e2e("heavy_p50_ms", median(&self.heavy_p50), "ms");
        ctx.layer("serve.p90_ms.heavy", median(&self.heavy_p90), "ms");
        ctx.layer("serve.p90_ms.light", self.light.p(0.9), "ms");
        ctx.layer("serve.p99_ms.light", self.light.p(0.99), "ms");
        ctx.layer("serve.p99_ms.heavy", self.heavy.p(0.99), "ms");

        let t = &self.topk;
        ctx.attempted += t.queries;
        ctx.failed += t.errors;
        ctx.check(
            "ItemIndex at full probe returns the exact top-10",
            t.wrong_full == 0,
        );
        ctx.check("top_k_slice returns the exact top-10", t.wrong_kernel == 0);
        ctx.e2e("topk_p50_ms", median(&t.lat) * 1e3, "ms");
        ctx.e2e(
            "topk_recall10",
            t.recall / t.lat.len().max(1) as f64,
            "ratio",
        );
        ctx.layer("serve.index_topk_ms", median(&t.lat) * 1e3, "ms");
        ctx.layer("serve.retriever_topk_ms", median(&t.retr) * 1e3, "ms");
        ctx.layer("tensor.top_k_us", median(&t.kern) * 1e6, "us");
        ctx.note(format!(
            "top-10: {} timed queries ({} passes over {} users) at nprobe {NPROBE} of {} clusters \
             over {} items (cluster sizes {:?})",
            t.lat.len(),
            t.lat.len() / self.users.len().max(1),
            self.users.len(),
            self.index.n_clusters(),
            self.art.n_items(),
            self.index.cluster_sizes()
        ));
    }
}

/// The rate ladder: `serve.max_rate_qps` is the highest rung at which
/// p90 stays under [`LIMIT_MS`], nothing is shed and the backlog does not
/// grow. It climbs until two rungs in a row fail, so one rung spoiled by
/// a stall of the machine does not end it.
fn ladder(
    ctx: &mut Ctx,
    pool: &WorkerPool,
    pairs: &[(usize, usize)],
    check: &(dyn Fn(usize, &Reply) -> bool + Sync),
) {
    let mut max_rate = 0.0;
    let mut rate = LADDER_FIRST_QPS;
    let mut failed_in_a_row = 0;
    for _ in 0..LADDER_RUNGS {
        let r = run_rate(pool, rate, RUNG_S, pairs, check);
        account(ctx, &format!("ladder {rate:.0}/s"), &r, 0);
        let backlog_ok = (r.backlog_at_end as f64) <= rate * LIMIT_MS / 1e3 + 64.0;
        if r.failed == 0 && r.p(0.9) < LIMIT_MS && backlog_ok {
            max_rate = rate;
            failed_in_a_row = 0;
        } else {
            failed_in_a_row += 1;
            if failed_in_a_row == 2 {
                break;
            }
        }
        rate *= LADDER_STEP;
    }
    ctx.layer("serve.max_rate_qps", max_rate, "req/s");
}

/// Scorer batches of one and of 64, outside the pool.
fn scorer_batches(ctx: &mut Ctx, art: &Arc<FrozenModel>, pairs: &[(usize, usize)], exp: &Expected) {
    let scorer = Scorer::new(art.clone());
    let mut k = 0usize;
    let mut same = true;
    let (b1, _) = rec::time_n("mgbr-serve", "Scorer::score_item_batch", 2000, || {
        median_call_s(2000, 0.0, || {
            let p = pairs[k % pairs.len()];
            k += 1;
            let s = scorer.score_item_batch(&[p]).expect("in-range pair");
            same &= s[0].to_bits() == exp.score(p.0, p.1).to_bits();
        })
    });
    let (b64, _) = rec::time_n("mgbr-serve", "Scorer::score_item_batch", 200, || {
        median_call_s(200, 0.0, || {
            let start = (k * 64) % (pairs.len() - 64);
            k += 1;
            let batch = &pairs[start..start + 64];
            let s = scorer.score_item_batch(batch).expect("in-range pairs");
            for (p, v) in batch.iter().zip(&s) {
                same &= v.to_bits() == exp.score(p.0, p.1).to_bits();
            }
        })
    });
    ctx.attempted += 2200;
    ctx.check("scorer batches equal the training path", same);
    ctx.layer("serve.score_b1_us", b1 * 1e6, "us");
    ctx.layer("serve.score_b64_us_per_req", b64 * 1e6 / 64.0, "us");
    ctx.layer(
        "plan.serve_ops",
        art.serve_plan_a().ops.len() as f64,
        "count",
    );
    ctx.layer(
        "plan.serve_kflop_per_req",
        kernels::serve_kflop_per_req(art),
        "count",
    );
}

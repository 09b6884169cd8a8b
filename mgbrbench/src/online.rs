//! The online stage: replay the update stream in segments into
//! `OnlineLoop`, hot-swap each update into a live one-worker pool that
//! serves light open-loop traffic while the update runs, and score the
//! stream prequentially before each segment is learned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mgbr_core::{FineTuneConfig, FrozenModel, Mgbr};
use mgbr_data::UpdateEvent;
use mgbr_online::{ArtifactPublisher, DriftConfig, FoldInLedger, OnlineConfig, OnlineLoop};
use mgbr_serve::{Reply, WorkerPool};
use mgbr_tensor::Workspace;

use crate::load::{open_loop, LoadResult, Until};
use crate::rec;
use crate::serve::{account, pool_config, traffic, LIGHT_QPS};
use crate::sys::{median, quantile};
use crate::work::{bits, Ctx, Data};

/// Fine-tune settings of every update cycle, built explicitly: `rounds`
/// gentle rounds per segment at one kernel thread.
fn online_config(rounds: usize) -> OnlineConfig {
    OnlineConfig {
        fine_tune: FineTuneConfig {
            rounds,
            lr: 2e-4,
            batch_size: 64,
            n_neg: 4,
            grad_clip: Some(5.0),
            seed: 0x0417e,
            threads: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            watchdog: Default::default(),
        },
        drift: DriftConfig::default(),
        checkpoint_dir: None,
        event_batch: 64,
    }
}

/// Rank (0-based) of `item` in `scores` ordered by score descending,
/// lower id first.
fn rank_of(scores: &[f32], item: usize) -> usize {
    let s = scores[item];
    scores
        .iter()
        .enumerate()
        .filter(|&(j, &x)| x > s || (x == s && j < item))
        .count()
}

/// The online stage: the loop, the live pool it publishes into, and the
/// accumulated measurements of the segments replayed so far.
pub struct Replay {
    online_loop: OnlineLoop,
    pool: Arc<WorkerPool>,
    publisher: ArtifactPublisher,
    /// A fold-in-only arm: the static artifact plus every cold entity.
    ledger: FoldInLedger,
    art: Arc<FrozenModel>,
    /// The artifact serving before the next segment is learned.
    current: Arc<FrozenModel>,
    pairs: Arc<Vec<(usize, usize)>>,
    published: Vec<u64>,
    seen_gens: Vec<u64>,
    live: LoadResult,
    ws: Workspace,
    update_s: Vec<f64>,
    ingest: Vec<f64>,
    finetune: Vec<f64>,
    fold: Vec<f64>,
    publish: Vec<f64>,
    visible: Vec<f64>,
    steps: usize,
    hits: usize,
    instances: usize,
    /// Pool requests sent outside the live generator.
    probes: u64,
    cold_users: usize,
    cold_items: usize,
    probe_ok: bool,
    cold_ok: bool,
    foldin_ok: bool,
    updates_ok: bool,
}

impl Replay {
    pub fn new(
        ctx: &mut Ctx,
        model: Mgbr,
        data: &Data,
        art: &Arc<FrozenModel>,
        finetune_rounds: usize,
    ) -> Option<Self> {
        let (online_loop, _) = rec::time("mgbr-online", "OnlineLoop::new", || {
            OnlineLoop::new(model, data.base.clone(), online_config(finetune_rounds))
        });
        let online_loop = match online_loop {
            Ok(d) => d,
            Err(e) => {
                ctx.note(format!("online loop does not start: {e}"));
                ctx.check("online loop starts", false);
                return None;
            }
        };
        let pool = Arc::new(WorkerPool::new(art.clone(), pool_config(false)));
        Some(Self {
            published: vec![pool.generation()],
            online_loop,
            pool,
            publisher: ArtifactPublisher::new(None),
            ledger: FoldInLedger::new(data.base.n_users, data.base.n_items, &data.base.groups),
            art: art.clone(),
            current: art.clone(),
            pairs: Arc::new(traffic(ctx.seed ^ 0x0111, art.n_users(), art.n_items())),
            seen_gens: Vec::new(),
            live: LoadResult::default(),
            ws: Workspace::new(),
            update_s: Vec::new(),
            ingest: Vec::new(),
            finetune: Vec::new(),
            fold: Vec::new(),
            publish: Vec::new(),
            visible: Vec::new(),
            steps: 0,
            hits: 0,
            instances: 0,
            probes: 0,
            cold_users: 0,
            cold_items: 0,
            probe_ok: true,
            cold_ok: true,
            foldin_ok: true,
            updates_ok: true,
        })
    }

    /// Replays one segment while the live generator sends light traffic
    /// to the pool.
    pub fn segment(&mut self, segment: &[UpdateEvent]) {
        // Prequential: rank every group of the segment with the artifact
        // serving before the segment is learned.
        let all: Vec<usize> = (0..self.current.n_items()).collect();
        for e in segment {
            if let UpdateEvent::NewGroup(g) = e {
                self.instances += 1;
                let (u, i) = (g.initiator as usize, g.item as usize);
                if u < self.current.n_users() && i < self.current.n_items() {
                    let scores = self.current.logits_a(&self.ws, u, &all);
                    self.hits += usize::from(rank_of(&scores, i) < 10);
                }
            }
            match e {
                UpdateEvent::NewUser { user, .. } => self.ledger.announce_user(*user),
                UpdateEvent::NewItem { item, .. } => self.ledger.announce_item(*item),
                UpdateEvent::NewGroup(g) => self.ledger.observe_group(g),
            }
        }

        let stop = AtomicBool::new(false);
        let gens = Mutex::new(Vec::new());
        let record = |_: usize, r: &Reply| {
            gens.lock().expect("generation log").push(r.generation);
            true
        };
        let (pool, pairs) = (Arc::clone(&self.pool), Arc::clone(&self.pairs));
        let live = std::thread::scope(|s| {
            let gen = s.spawn(|| open_loop(&pool, LIGHT_QPS, Until::Flag(&stop), &pairs, &record));
            self.update(segment);
            stop.store(true, Ordering::Release);
            gen.join().expect("generator thread panicked")
        });
        self.live.merge(live);
        self.seen_gens
            .extend(gens.into_inner().expect("generation log"));
    }

    /// Ingest, update, publish, and wait until the pool serves the new
    /// generation; then check the published artifact.
    fn update(&mut self, segment: &[UpdateEvent]) {
        let t0 = Instant::now();
        let online_loop = &mut self.online_loop;
        let (_, t) = rec::time("mgbr-online", "OnlineLoop::ingest", || {
            online_loop.ingest(segment)
        });
        self.ingest.push(t);
        let (summary, t) = rec::time("mgbr-online", "OnlineLoop::update", || online_loop.update());
        self.finetune.push(t);
        match summary {
            Ok(s) => {
                self.steps += s.steps;
                self.updates_ok &= !s.rolled_back;
            }
            Err(_) => self.updates_ok = false,
        }
        let (receipt, t) = rec::time("mgbr-online", "ArtifactPublisher::publish", || {
            self.publisher.publish(&self.online_loop, &self.pool)
        });
        self.publish.push(t);
        let Ok(receipt) = receipt else {
            self.updates_ok = false;
            return;
        };
        let (pu, pi) = self.pairs[0];
        let t1 = Instant::now();
        let probe = loop {
            self.probes += 1;
            match self.pool.submit_item(pu, pi) {
                Ok(h) => {
                    let r = h.wait_reply();
                    if r.generation == receipt.new_generation || r.result.is_err() {
                        break r;
                    }
                }
                Err(e) => {
                    break Reply {
                        result: Err(e),
                        generation: 0,
                    }
                }
            }
        };
        self.visible.push(t1.elapsed().as_secs_f64());
        self.update_s.push(t0.elapsed().as_secs_f64());
        self.published.push(receipt.new_generation);

        let (frozen, t) = rec::time("mgbr-online", "OnlineLoop::frozen", || {
            self.online_loop.frozen()
        });
        self.fold.push(t);
        let Ok(frozen) = frozen else {
            self.updates_ok = false;
            return;
        };
        self.probe_ok &= probe
            .result
            .as_ref()
            .is_ok_and(|s| s.to_bits() == frozen.logits_a(&self.ws, pu, &[pi])[0].to_bits());
        // Entities announced in this segment serve after its publish.
        for e in segment {
            let served = match e {
                UpdateEvent::NewUser { user, .. } => {
                    self.cold_users += 1;
                    self.pool.score_item(*user as usize, 0)
                }
                UpdateEvent::NewItem { item, .. } => {
                    self.cold_items += 1;
                    self.pool.score_item(0, *item as usize)
                }
                UpdateEvent::NewGroup(_) => continue,
            };
            self.probes += 1;
            self.cold_ok &= served.is_ok();
        }
        // Folding in leaves every warm score of the static artifact.
        let mut folded = self.art.as_ref().clone();
        let ws = &self.ws;
        let art = &self.art;
        self.foldin_ok &= self.ledger.apply(&mut folded).is_ok()
            && self.pairs.iter().take(64).all(|&(u, i)| {
                bits(&folded.logits_a(ws, u, &[i])) == bits(&art.logits_a(ws, u, &[i]))
            });
        self.current = Arc::new(frozen);
    }

    pub fn finish(self, ctx: &mut Ctx, data: &Data) {
        let segments = self.update_s.len();
        ctx.attempted += segments as u64 + self.probes + self.instances as u64;
        account(ctx, "online live traffic", &self.live, self.probes);
        ctx.check(
            "online: every segment updates and publishes",
            self.updates_ok && segments == data.stream.len(),
        );
        ctx.check(
            "online: every reply carries a published generation",
            self.seen_gens.iter().all(|g| self.published.contains(g)),
        );
        ctx.check(
            "online: probe after publish equals OnlineLoop::frozen()",
            self.probe_ok,
        );
        ctx.check(
            "online: every announced cold entity serves after its publish",
            self.cold_ok,
        );
        ctx.check(
            "online: fold-in keeps warm scores bit for bit",
            self.foldin_ok,
        );
        // The mean, not the median: segments differ in size (3 to 5
        // fine-tune steps a round), so the median jumps between size
        // classes from run to run.
        let mean_update = self.update_s.iter().sum::<f64>() / segments.max(1) as f64;
        ctx.e2e("update_s", mean_update, "s");
        ctx.e2e("online_p50_ms", self.live.p(0.5), "ms");
        ctx.e2e(
            "tail_recall10",
            self.hits as f64 / self.instances.max(1) as f64,
            "ratio",
        );
        ctx.layer("online.ingest_ms", median(&self.ingest) * 1e3, "ms");
        ctx.layer("online.finetune_s", median(&self.finetune), "s");
        ctx.layer("online.finetune_steps", self.steps as f64, "count");
        ctx.layer("online.freeze_fold_s", median(&self.fold), "s");
        ctx.layer("online.publish_s", median(&self.publish), "s");
        ctx.layer("online.swap_visible_ms", median(&self.visible) * 1e3, "ms");
        ctx.layer("online.p90_ms", self.live.p(0.9), "ms");
        ctx.layer("online.p99_ms", self.live.p(0.99), "ms");
        ctx.layer(
            "bench.late_p99_ms.online",
            quantile(&self.live.late_ms, 0.99),
            "ms",
        );
        ctx.note(format!(
            "online: {segments} segments, {} stream groups ranked, {} cold users and {} cold \
             items announced, {} fine-tune steps, update seconds {:?}",
            self.instances, self.cold_users, self.cold_items, self.steps, self.update_s
        ));
    }
}

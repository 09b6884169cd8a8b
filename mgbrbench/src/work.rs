//! The pipeline every workload runs — data → train → evaluate → freeze
//! → serve → retrieve → learn online — and the run context that
//! collects its metrics and output checks.
//!
//! Every workload prints every end-to-end metric, so every workload passes
//! through every stage. The workloads differ in how much of the run each
//! stage takes (fine-tune rounds per segment) and
//! in the data protocol; `--seconds` is the length of the whole run, and
//! serving rounds fill what training and the update stream leave of it
//! (see the README's workload table).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgbr_core::{train, FrozenModel, Mgbr, MgbrConfig, TrainConfig};
use mgbr_data::{
    filter_min_interactions, split_dataset, synthetic, temporal_split, DataSplit, Dataset,
    DealGroup, Sampler, SyntheticConfig, TaskAInstance, TaskBInstance, UpdateEvent,
};
use mgbr_eval::{evaluate_task_a, evaluate_task_b, GroupBuyScorer};
use mgbr_tensor::{set_threads, Workspace};

use crate::rec::{self, Journal};
use crate::sys::{self, median, CpuMeter};
use crate::{kernels, online, serve};

/// A metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measures and checks.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started; `--seconds` counts from here.
    pub start: Instant,
    /// Wall seconds of each stage, in the order the stages ran.
    pub stages: Vec<(&'static str, f64)>,
    pub out_dir: PathBuf,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// `(check, passed)` for every output check.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed beside the metrics (sample counts, shapes).
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Runs `f` as (part of) stage `name`, adding its wall time.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        let dt = t0.elapsed().as_secs_f64();
        match self.stages.iter_mut().find(|s| s.0 == name) {
            Some(s) => s.1 += dt,
            None => self.stages.push((name, dt)),
        }
        out
    }

    /// A fresh journal path for a traced stage.
    pub fn journal_path(&self, stage: &str) -> PathBuf {
        self.out_dir.join(format!("journal-{stage}.jsonl"))
    }

    /// Adds the journal a traced stage wrote to `into`.
    pub fn absorb_journal(&mut self, stage: &str, into: &mut Journal) {
        let res = into.absorb(&self.journal_path(stage));
        if let Err(e) = &res {
            self.note(format!("journal {stage}: {e}"));
        }
        self.check(format!("journal of {stage} parses"), res.is_ok());
    }
}

/// Which workload runs; each sizes and configures the shared stages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Serve,
    Online,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve" => Some(Self::Serve),
            "online" => Some(Self::Online),
            _ => None,
        }
    }
}

/// Stage sizes and settings of one workload. Every end-to-end metric is
/// printed on every workload; what differs is which stage takes most of
/// the run: the serving rounds (`serve`) or the fine-tune rounds of the
/// update stream (`online`). Training, fine-tuning and serving all run
/// with one kernel thread; only the traced run trains at `nproc` threads
/// (see [`threading_cell`]).
pub struct Plan {
    pub workload: Workload,
    /// Fine-tune rounds of each online update.
    pub finetune_rounds: usize,
    /// Serving rounds keep starting until this long after process start
    /// (and at least [`MIN_ROUNDS`] run).
    pub budget: Duration,
}

/// Segments the update stream is replayed in, and the fewest serving
/// rounds a run makes. Rounds and segments alternate, so every segment
/// has a serving round beside it.
const SEGMENTS: usize = 8;
const MIN_ROUNDS: usize = SEGMENTS;
/// What a run does after its last serving round: reporting, and in a
/// traced run the journaled rounds, the rate ladder, the kernel and
/// scorer cells and the threading cell.
const FINISH_S: f64 = 0.5;
const TRACED_EXTRAS_S: f64 = 16.0;

impl Plan {
    pub fn new(workload: Workload, seconds: f64, trace: bool) -> Self {
        let finetune_rounds = match workload {
            Workload::Serve => 1,
            Workload::Online => 3,
        };
        let reserve = FINISH_S + if trace { TRACED_EXTRAS_S } else { 0.0 };
        Self {
            workload,
            finetune_rounds,
            budget: Duration::from_secs_f64((seconds - reserve).max(0.0)),
        }
    }
}

/// The default-scale synthetic dataset and everything derived from it.
pub struct Data {
    /// Negativity reference for sampling during training.
    pub full: Dataset,
    /// What [`train`] trains on.
    pub split: DataSplit,
    /// The model's id space.
    pub base: Dataset,
    /// Held-out 1+9 candidate lists.
    pub test_a: Vec<TaskAInstance>,
    pub test_b: Vec<TaskBInstance>,
    /// The update stream, in replay segments.
    pub stream: Vec<Vec<UpdateEvent>>,
}

/// Seed of the dataset, its split and its candidate lists: the
/// repository's experiment seeds. The data, the model and its training
/// are the same on every run, so the quality metrics read the same on
/// every run of the same code and move only when the code changes what
/// it computes. The workload seed draws the request streams instead.
const DATA_SEED: u64 = 2023;
const CANDIDATE_SEED: u64 = 0xe7a1;
const TRAIN_SEED: u64 = 7;

/// The synthetic generator at the repository's default experiment scale
/// (`ExperimentEnv::default_scale`: 500 users, 200 items, 2400 groups).
fn synthetic_config() -> SyntheticConfig {
    SyntheticConfig {
        n_users: 500,
        n_items: 200,
        n_groups: 2400,
        seed: DATA_SEED,
        ..SyntheticConfig::default()
    }
}

/// Builds the workload's inputs, recording the layer times.
fn make_data(plan: &Plan) -> (Data, f64, f64) {
    let ((full, split, base, held_out, stream), gen_s) = rec::time("mgbr-data", "generate", || {
        let raw = synthetic::generate(&synthetic_config());
        // The paper's ≥5-interaction filter.
        let (full, _) = filter_min_interactions(&raw, 5);
        match plan.workload {
            Workload::Online => {
                // Temporal protocol: train on the earliest 70%, replay the
                // rest as a stream; candidate lists come from tail groups
                // whose entities the prefix model knows.
                let ts = temporal_split(&full, 0.7);
                let base = ts.train_dataset();
                let split = DataSplit {
                    n_users: base.n_users,
                    n_items: base.n_items,
                    train: base.groups.clone(),
                    val: Vec::new(),
                    test: Vec::new(),
                };
                let warm: Vec<DealGroup> = ts
                    .tail
                    .iter()
                    .filter(|g| in_space(g, &base))
                    .cloned()
                    .collect();
                let n_events = ts.update_events().len();
                let stream = ts.event_batches(n_events.div_ceil(SEGMENTS).max(1));
                (base.clone(), split, base, warm, stream)
            }
            _ => {
                // The paper's 7:3:1 split; validation groups, never
                // trained on, are the update stream.
                let split = split_dataset(&full, (7.0, 3.0, 1.0), DATA_SEED);
                let base = split.train_dataset();
                let per = split.val.len().div_ceil(SEGMENTS).max(1);
                let stream = split
                    .val
                    .chunks(per)
                    .map(|c| c.iter().cloned().map(UpdateEvent::NewGroup).collect())
                    .collect();
                let test = split.test.clone();
                (full, split, base, test, stream)
            }
        }
    });
    let ((test_a, test_b), cand_s) = rec::time("mgbr-data", "candidates", || {
        let mut sampler = Sampler::new(&full, CANDIDATE_SEED);
        (
            sampler.task_a_instances(&held_out, 9),
            sampler.task_b_instances(&held_out, 9),
        )
    });
    let data = Data {
        full,
        split,
        base,
        test_a,
        test_b,
        stream,
    };
    (data, gen_s, cand_s)
}

fn in_space(g: &DealGroup, ds: &Dataset) -> bool {
    (g.initiator as usize) < ds.n_users
        && (g.item as usize) < ds.n_items
        && g.participants.iter().all(|&p| (p as usize) < ds.n_users)
}

/// Set-up runs this many times, once at the start and then once beside
/// each segment, so its median samples the machine over the run as the
/// other metrics do; `setup_s` is the median.
const SETUP_REPS: usize = 1 + SEGMENTS;

/// One set-up: the inputs and the untrained model, with its wall time
/// and the times of its layers `[total, generate, candidates, model]`.
fn set_up(plan: &Plan) -> (Data, Mgbr, [f64; 4]) {
    let t0 = Instant::now();
    let (data, g, c) = make_data(plan);
    let (model, m) = rec::time("mgbr-core", "Mgbr::new", || {
        Mgbr::new(MgbrConfig::repro_scale(), &data.base)
    });
    (data, model, [t0.elapsed().as_secs_f64(), g, c, m])
}

/// Runs one workload end to end.
pub fn run(ctx: &mut Ctx, workload: Workload) {
    let plan = Plan::new(workload, ctx.seconds, ctx.trace);
    // The first set-up is the one used; the later repetitions are timed
    // and dropped.
    set_threads(1);
    let (data, mut model, t) = set_up(&plan);
    let mut setups = vec![t];
    ctx.stages.push(("setup", t[0]));
    ctx.note(format!(
        "data: {} users, {} items, {} training groups, {} + {} held-out lists, {} stream segments",
        data.base.n_users,
        data.base.n_items,
        data.split.train.len(),
        data.test_a.len(),
        data.test_b.len(),
        data.stream.len()
    ));

    if ctx.trace {
        ctx.stage("traced extras", |ctx| {
            kernels::cells(ctx, &model);
            threading_cell(ctx, &data);
        });
    }
    ctx.stage("train", |ctx| train_stage(ctx, &mut model, &data));
    rss_note(ctx, "training");
    let exp = ctx.stage("evaluate", |ctx| evaluate(ctx, &model, &data));
    let art = ctx.stage("freeze", |ctx| freeze_stage(ctx, &model));

    // Serving runs with one kernel thread behind one pool worker. Serving
    // rounds and online segments alternate, so each samples the same
    // stretches of the machine; rounds go on until the budget is spent.
    let mut serving = ctx.stage("serve", |ctx| serve::Serving::new(ctx, &art, &exp));
    let mut replay = ctx.stage("online", |ctx| {
        online::Replay::new(ctx, model, &data, &art, plan.finetune_rounds)
    });
    let mut r = 0;
    loop {
        let segment = data.stream.get(r);
        let time_left = ctx.start.elapsed() < plan.budget;
        if r >= MIN_ROUNDS && segment.is_none() && !time_left {
            break;
        }
        if r < MIN_ROUNDS || time_left {
            ctx.stage("serve", |_| serving.round());
        }
        if setups.len() < SETUP_REPS {
            setups.push(ctx.stage("setup", |_| set_up(&plan).2));
        }
        if let (Some(replay), Some(segment)) = (replay.as_mut(), segment) {
            ctx.stage("online", |_| replay.segment(segment));
        }
        r += 1;
    }
    if ctx.trace {
        ctx.stage("traced extras", |ctx| serving.traced(ctx));
    }
    ctx.stage("serve", |ctx| serving.finish(ctx));
    if let Some(replay) = replay {
        ctx.stage("online", |ctx| replay.finish(ctx, &data));
    }
    let layer = |i: usize| median(&setups.iter().map(|t| t[i]).collect::<Vec<_>>());
    ctx.e2e("setup_s", layer(0), "s");
    ctx.layer("data.generate_s", layer(1), "s");
    ctx.layer("data.candidates_s", layer(2), "s");
    ctx.layer("core.model_new_s", layer(3), "s");
    rss_note(ctx, "online");
    ctx.e2e("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    stage_note(ctx);
}

/// Prints each stage's share of the run so far.
fn stage_note(ctx: &mut Ctx) {
    let total = ctx.start.elapsed().as_secs_f64();
    let shares: Vec<String> = ctx
        .stages
        .iter()
        .map(|(name, s)| format!("{name} {s:.2} s ({:.0}%)", 100.0 * s / total))
        .collect();
    ctx.note(format!(
        "stage shares of the {total:.1} s run: {}",
        shares.join(", ")
    ));
}

fn rss_note(ctx: &mut Ctx, stage: &str) {
    ctx.note(format!(
        "peak RSS after {stage}: {:.1} MiB",
        sys::peak_rss_mib()
    ));
}

/// Training-path scores of every (user, item) pair of the base id space,
/// row-major by user: the reference every served score must equal.
pub struct Expected {
    pub n_items: usize,
    pub scores: Vec<f32>,
}

impl Expected {
    pub fn score(&self, user: usize, item: usize) -> f32 {
        self.scores[user * self.n_items + item]
    }

    pub fn row(&self, user: usize) -> &[f32] {
        &self.scores[user * self.n_items..(user + 1) * self.n_items]
    }
}

/// One whole training epoch at one kernel thread (a whole epoch, so the
/// trained model and its quality are the same on every run); a traced run
/// journals it.
fn train_stage(ctx: &mut Ctx, model: &mut Mgbr, data: &Data) {
    let tc = TrainConfig {
        epochs: 1,
        threads: 1,
        seed: TRAIN_SEED,
        trace_path: ctx.trace.then(|| ctx.journal_path("train")),
        ..TrainConfig::repro_scale()
    };
    let (report, _) = rec::time("mgbr-core", "train", || {
        train(model, &data.full, &data.split, &tc)
    });
    ctx.attempted += 1;
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            ctx.failed += 1;
            ctx.note(format!("training failed: {err}"));
            ctx.check("training runs", false);
            return;
        }
    };
    ctx.check(
        "every epoch loss is finite",
        report.epoch_losses.iter().all(|l| l.is_finite()),
    );
    ctx.check("no watchdog recoveries", report.recoveries == 0);

    let (steps, epoch_s) = (report.steps as f64, report.epoch_secs[0]);
    ctx.e2e("train_steps_per_s", steps / epoch_s, "steps/s");
    ctx.layer("core.epoch_s", epoch_s, "s");
    ctx.layer("core.steps", steps, "count");
    let mflop = kernels::train_mflop_per_step(model);
    ctx.layer("plan.train_mflop_per_step", mflop, "count");
    // Forward plus backward is taken as three forward passes.
    ctx.layer(
        "core.train_gflops",
        3.0 * mflop * 1e6 * (steps / epoch_s) / 1e9,
        "GFLOP/s",
    );
    if ctx.trace {
        let mut journal = Journal::default();
        ctx.absorb_journal("train", &mut journal);
        for (metric, span) in [
            ("train.forward_ms", "loss.forward"),
            ("train.backward_ms", "backward"),
            ("train.optimizer_ms", "optimizer.step"),
            ("plan.gemm_ms", "plan.gemm"),
            ("plan.mix_ms", "plan.mix"),
            ("plan.concat_ms", "plan.concat"),
        ] {
            ctx.layer(metric, journal.total_ms(span) / steps, "ms");
        }
    }
    ctx.note(format!(
        "training: 1 epoch x {steps} steps at 1 kernel thread in {epoch_s:.3} s"
    ));
}

/// The threading cell of a traced run: one epoch of a fresh model at
/// `nproc` kernel threads, with the process's CPU time around it. The
/// end-to-end runs train at one thread, because on a small shared host
/// a fork-join epoch at `nproc` threads stalls whenever one of them is
/// descheduled, and its time swings by more than any bound.
fn threading_cell(ctx: &mut Ctx, data: &Data) {
    let threads = sys::nproc();
    let mut model = Mgbr::new(MgbrConfig::repro_scale(), &data.base);
    set_threads(threads);
    let tc = TrainConfig {
        epochs: 1,
        threads,
        seed: TRAIN_SEED,
        ..TrainConfig::repro_scale()
    };
    let meter = CpuMeter::start();
    let (report, _) = rec::time("mgbr-core", "train", || {
        train(&mut model, &data.full, &data.split, &tc)
    });
    let (user_s, sys_s, wall_s) = meter.stop();
    set_threads(1);
    ctx.attempted += 1;
    let Ok(report) = report else {
        ctx.failed += 1;
        ctx.check(format!("training at {threads} kernel threads runs"), false);
        return;
    };
    let steps = report.steps.max(1) as f64;
    ctx.layer("proc.epoch_s_nproc", report.epoch_secs[0], "s");
    ctx.layer("proc.sys_s_per_step", sys_s / steps, "s");
    ctx.layer("proc.cpu_per_wall", (user_s + sys_s) / wall_s, "ratio");
    ctx.note(format!(
        "threading cell: 1 epoch x {} steps at {threads} kernel threads in {:.3} s",
        report.steps, report.epoch_secs[0]
    ));
}

/// Task A/B NDCG@10 through `mgbr-eval`, recomputed here from the raw
/// candidate scores, and the training-path score table.
fn evaluate(ctx: &mut Ctx, model: &Mgbr, data: &Data) -> Expected {
    let scorer = model.scorer();
    let ((a, b), _) = rec::time("mgbr-eval", "evaluate_task_a/b", || {
        (
            evaluate_task_a(&scorer, &data.test_a, 10),
            evaluate_task_b(&scorer, &data.test_b, 10),
        )
    });
    let own_a = own_ndcg10(data.test_a.iter().map(|inst| {
        let mut c = vec![inst.pos_item];
        c.extend_from_slice(&inst.neg_items);
        scorer.score_items(inst.user, &c)
    }));
    let own_b = own_ndcg10(data.test_b.iter().map(|inst| {
        let mut c = vec![inst.pos_participant];
        c.extend_from_slice(&inst.neg_participants);
        scorer.score_participants(inst.user, inst.item, &c)
    }));
    ctx.check("ndcg10_a recomputed equals mgbr-eval", own_a == a.ndcg);
    ctx.check("ndcg10_b recomputed equals mgbr-eval", own_b == b.ndcg);
    // A uniformly random rank among 10: (1/10) Σ_r 1/log2(r+1).
    let random = (1..=10).map(|r| 1.0 / ((r + 1) as f64).log2()).sum::<f64>() / 10.0;
    ctx.check("ndcg10_a beats a random ranking", a.ndcg > random);
    ctx.check("ndcg10_b beats a random ranking", b.ndcg > random);
    ctx.e2e("ndcg10_a", a.ndcg, "ratio");
    ctx.e2e("ndcg10_b", b.ndcg, "ratio");
    ctx.attempted += (data.test_a.len() + data.test_b.len()) as u64;

    // The frozen artifact must score the test candidates exactly as the
    // training path does.
    let frozen = model.freeze();
    let ws = Workspace::new();
    let mut same = true;
    for inst in &data.test_a {
        let mut c = vec![inst.pos_item];
        c.extend_from_slice(&inst.neg_items);
        let idx: Vec<usize> = c.iter().map(|&i| i as usize).collect();
        same &= bits(&frozen.logits_a(&ws, inst.user as usize, &idx))
            == bits(&scorer.score_items(inst.user, &c));
    }
    for inst in &data.test_b {
        let mut c = vec![inst.pos_participant];
        c.extend_from_slice(&inst.neg_participants);
        let idx: Vec<usize> = c.iter().map(|&p| p as usize).collect();
        same &= bits(&frozen.logits_b(&ws, inst.user as usize, inst.item as usize, &idx))
            == bits(&scorer.score_participants(inst.user, inst.item, &c));
    }
    ctx.check(
        "frozen scores equal training-path scores on test candidates",
        same,
    );

    let n_items = model.n_items();
    let items: Vec<u32> = (0..n_items as u32).collect();
    let mut scores = Vec::with_capacity(model.n_users() * n_items);
    for u in 0..model.n_users() as u32 {
        scores.extend(scorer.score_items(u, &items));
    }
    Expected { n_items, scores }
}

/// NDCG@10 of single-positive lists (`scores[0]` positive), with ties
/// counting half toward the rank, summed in list order.
fn own_ndcg10(lists: impl Iterator<Item = Vec<f32>>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for s in lists {
        let greater = s[1..].iter().filter(|&&x| x > s[0]).count();
        let equal = s[1..].iter().filter(|&&x| x == s[0]).count();
        let rank = 1 + greater + equal / 2;
        if rank <= 10 {
            sum += 1.0 / ((rank + 1) as f64).log2();
        }
        n += 1;
    }
    sum / n.max(1) as f64
}

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Freeze, serialize and reload: the loaded artifact is what serves.
fn freeze_stage(ctx: &mut Ctx, model: &Mgbr) -> Arc<FrozenModel> {
    let (frozen, freeze_s) = rec::time("mgbr-core", "Mgbr::freeze", || model.freeze());
    let mut bytes = Vec::new();
    let (saved, _) = rec::time("mgbr-core", "FrozenModel::save", || frozen.save(&mut bytes));
    let (loaded, load_s) = rec::time("mgbr-core", "FrozenModel::load", || {
        FrozenModel::load(bytes.as_slice())
    });
    ctx.check("artifact saves", saved.is_ok());
    ctx.layer("core.freeze_s", freeze_s, "s");
    ctx.layer("core.artifact_bytes", bytes.len() as f64, "bytes");
    ctx.layer("core.artifact_load_s", load_s, "s");
    match loaded {
        Ok(a) => Arc::new(a),
        Err(e) => {
            ctx.note(format!("artifact does not load: {e}"));
            ctx.check("artifact loads", false);
            Arc::new(frozen)
        }
    }
}

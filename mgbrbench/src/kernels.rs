//! GEMM cells at the shapes the plans run, and the plan FLOP counts.
//!
//! Shapes come from `Plan::infer_shapes` on the Task A plan, FLOPs from
//! `Plan::op_flops`. Bytes are computed from the operand and result
//! sizes (each read or written once), not measured.

use std::hint::black_box;

use mgbr_core::{FrozenModel, Mgbr};
use mgbr_plan::{Plan, PlanOp, ShapeEnv};
use mgbr_tensor::{matmul, matmul_nt, matmul_tn, Pcg32, Tensor};

use crate::rec;
use crate::sys::median_call_s;
use crate::work::Ctx;

/// The trainer's batch size and negatives per positive
/// (`TrainConfig::repro_scale`).
const BATCH: usize = 128;
const N_NEG: usize = 9;
/// Each cell is the median call over at least this many calls and
/// seconds.
const CELL_CALLS: usize = 5;
const CELL_S: f64 = 0.1;

/// Unfused Task A and Task B plans, as the trainer's taped backend runs
/// them.
fn plans(model: &Mgbr) -> (FrozenModel, Plan, Plan) {
    let mut frozen = model.freeze();
    frozen.set_fused(false);
    let (a, b) = (frozen.serve_plan_a().clone(), frozen.serve_plan_b().clone());
    (frozen, a, b)
}

fn env(frozen: &FrozenModel, rows: usize) -> ShapeEnv {
    ShapeEnv {
        inputs: vec![(rows, 2 * frozen.d()); 3],
        params: frozen
            .params()
            .iter()
            .map(|t| (t.rows(), t.cols()))
            .collect(),
        ..ShapeEnv::default()
    }
}

/// Forward FLOPs of `plan` over `rows` candidate rows.
fn plan_flops(plan: &Plan, frozen: &FrozenModel, rows: usize) -> u64 {
    let env = env(frozen, rows);
    let shapes = plan.infer_shapes(&env).expect("plan shapes infer");
    plan.ops
        .iter()
        .map(|op| plan.op_flops(op, &shapes, &env))
        .sum()
}

/// Forward MFLOP of one training step: the Task A and Task B BPR passes
/// (1+9 rows per positive) and the two auxiliary passes (Eqs. 21, 24).
pub fn train_mflop_per_step(model: &Mgbr) -> f64 {
    let (frozen, a, b) = plans(model);
    let t = model.cfg.t_size;
    let flops = plan_flops(&a, &frozen, BATCH * (1 + N_NEG))
        + plan_flops(&b, &frozen, BATCH * (1 + N_NEG))
        + plan_flops(&a, &frozen, BATCH * (1 + 2 * t))
        + plan_flops(&b, &frozen, BATCH * (1 + t));
    flops as f64 / 1e6
}

/// Forward kFLOP of one Task A request through the serving plan.
pub fn serve_kflop_per_req(art: &FrozenModel) -> f64 {
    plan_flops(art.serve_plan_a(), art, 1) as f64 / 1e3
}

/// The largest GEMM of `plan` at `rows`: `(m, k, n, flops)`.
fn largest_gemm(plan: &Plan, frozen: &FrozenModel, rows: usize) -> (usize, usize, usize, u64) {
    let env = env(frozen, rows);
    let shapes = plan.infer_shapes(&env).expect("plan shapes infer");
    let dims = |id: mgbr_plan::SlotId| shapes[id.index()].expect("shaped slot");
    plan.ops
        .iter()
        .filter_map(|op| match op {
            PlanOp::Gemm { x, w, .. } | PlanOp::AffineAct { x, w, .. } => {
                let ((m, k), (_, n)) = (dims(*x), dims(*w));
                Some((m, k, n, plan.op_flops(op, &shapes, &env)))
            }
            _ => None,
        })
        .max_by_key(|g| g.3)
        .expect("the Task A plan has a GEMM")
}

fn random(rows: usize, cols: usize, rng: &mut Pcg32) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.uniform() - 0.5).collect();
    Tensor::from_vec(rows, cols, data).expect("shape matches data")
}

/// Runs every GEMM cell at the workload's kernel-thread setting.
pub fn cells(ctx: &mut Ctx, model: &Mgbr) {
    let (frozen, a, _) = plans(model);
    let mut rng = Pcg32::new(ctx.seed, 0x6e33);
    let (m, k, n, train_flops) = largest_gemm(&a, &frozen, BATCH * (1 + N_NEG));
    let x = random(m, k, &mut rng);
    let w = random(k, n, &mut rng);
    let dy = random(m, n, &mut rng);
    let bytes = |r: usize, c: usize, p: usize| 4.0 * (r * c + c * p + r * p) as f64;
    let train_bytes = bytes(m, k, n);
    let cell = |ctx: &mut Ctx, name: &str, flops: u64, bytes: f64, s: f64| {
        ctx.layer(
            &format!("tensor.{name}.gflops"),
            flops as f64 / s / 1e9,
            "GFLOP/s",
        );
        ctx.layer(&format!("tensor.{name}.gbps"), bytes / s / 1e9, "GB/s");
    };
    let (s, _) = rec::time("mgbr-tensor", "matmul", || {
        median_call_s(CELL_CALLS, CELL_S, || {
            black_box(matmul(black_box(&x), black_box(&w)));
        })
    });
    cell(ctx, "gemm_train", train_flops, train_bytes, s);
    let (s, _) = rec::time("mgbr-tensor", "matmul_nt", || {
        median_call_s(CELL_CALLS, CELL_S, || {
            black_box(matmul_nt(black_box(&dy), black_box(&w)));
        })
    });
    cell(ctx, "gemm_nt_train", train_flops, train_bytes, s);
    let (s, _) = rec::time("mgbr-tensor", "matmul_tn", || {
        median_call_s(CELL_CALLS, CELL_S, || {
            black_box(matmul_tn(black_box(&x), black_box(&dy)));
        })
    });
    cell(ctx, "gemm_tn_train", train_flops, train_bytes, s);
    ctx.note(format!(
        "kernel cells: training GEMM {m}x{k} . {k}x{n} ({train_flops} FLOP from op_flops; bytes computed)"
    ));
    for rows in [1usize, 64] {
        let (m, k, n, flops) = largest_gemm(&a, &frozen, rows);
        let xs = random(m, k, &mut rng);
        let ws = random(k, n, &mut rng);
        let (s, _) = rec::time("mgbr-tensor", "matmul", || {
            median_call_s(CELL_CALLS, CELL_S, || {
                black_box(matmul(black_box(&xs), black_box(&ws)));
            })
        });
        cell(
            ctx,
            &format!("gemm_serve_b{rows}"),
            flops,
            bytes(m, k, n),
            s,
        );
    }
}

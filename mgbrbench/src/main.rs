//! The MGBR benchmark: runs one workload per process and prints every
//! metric by name and unit, the operations attempted and failed, and
//! whether every output check passed.
//!
//! ```sh
//! cargo run --release --offline --manifest-path mgbrbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The process
//! exits with 1 when an output check fails and with 2 on bad arguments
//! or environment.

mod kernels;
mod load;
mod online;
mod rec;
mod serve;
mod sys;
mod work;

use std::path::PathBuf;
use std::time::Instant;

use work::{Ctx, Metric, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Where traced runs write their spans and journals.
const OUT_DIR: &str = ".mgbrbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (serve, online)")
                    })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?} (1 to 600)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The program reads `MGBR_*` variables in many places (`MGBR_THREADS`
/// silently overrides the configured kernel threads), so a run with any
/// of them set would not measure the configuration it reports.
fn refuse_mgbr_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MGBR_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mgbrbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let start = Instant::now();
    let args = parse_args()?;
    refuse_mgbr_env()?;
    let out_dir = PathBuf::from(OUT_DIR);
    if args.trace {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        rec::enable();
    }
    println!(
        "# mgbrbench workload={:?} seed={} seconds={} trace={} nproc={} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        sys::cpu_model()
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        start,
        stages: Vec::new(),
        out_dir: out_dir.clone(),
        e2e: Vec::new(),
        layer: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    work::run(&mut ctx, args.workload);

    let metrics = if args.trace { &ctx.layer } else { &ctx.e2e };
    for m in metrics {
        ctx.checks
            .push((format!("{} is finite", m.name), m.value.is_finite()));
    }
    for n in &ctx.notes {
        println!("# {n}");
    }
    for (what, ok) in &ctx.checks {
        println!("# check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for m in metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        println!("# per-layer spans recorded by the benchmark around its calls");
        println!(
            "# {:<14} {:>10} {:>12} {:>12}",
            "layer", "count", "total_ms", "self_ms"
        );
        for r in rec::layer_table() {
            println!(
                "# {:<14} {:>10} {:>12.3} {:>12.3}",
                r.layer, r.count, r.total_ms, r.self_ms
            );
        }
        let path = out_dir.join(format!("spans-{:?}-{}.jsonl", args.workload, args.seed));
        let written = rec::write_spans(&path);
        ctx.checks.push(("spans written".into(), written.is_ok()));
    }
    let correct = ctx.checks.iter().all(|c| c.1);
    let sanitized: Vec<Metric> = metrics
        .iter()
        .map(|m| Metric {
            name: m.name.clone(),
            value: if m.value.is_finite() { m.value } else { 0.0 },
            unit: m.unit,
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.attempted.max(1),
        ctx.failed,
        json_metrics(&sanitized)
    );
    Ok(if correct { 0 } else { 1 })
}

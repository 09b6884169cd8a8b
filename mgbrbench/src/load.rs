//! Open-loop load generation against a [`WorkerPool`].
//!
//! One generator thread sends Task A requests on a fixed schedule,
//! whatever the pool is doing; a collector thread waits for the replies
//! in send order. Each latency is timed from the request's *due* time,
//! so a stall is charged to every request it delays, and how late the
//! generator itself ran is reported beside it. Percentiles are taken
//! from the raw samples.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mgbr_serve::{Reply, WorkerPool};

use crate::sys::quantile;

/// What one open-loop phase observed.
#[derive(Default)]
pub struct LoadResult {
    /// Latency of every answered request, ms from its due time.
    pub lat_ms: Vec<f64>,
    /// How late each request was sent, ms after its due time.
    pub late_ms: Vec<f64>,
    /// Requests the generator sent.
    pub attempted: u64,
    /// Requests shed at admission or answered with an error.
    pub failed: u64,
    /// Replies the check rejected (wrong score or generation).
    pub wrong: u64,
    /// Requests admitted but not yet answered when the last one was sent.
    pub backlog_at_end: u64,
    /// Pool batches and requests scored during the phase.
    pub batches: u64,
    pub scored: u64,
}

impl LoadResult {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_ms, q)
    }

    /// Folds another phase's observations into this one.
    pub fn merge(&mut self, o: LoadResult) {
        self.lat_ms.extend(o.lat_ms);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.backlog_at_end = self.backlog_at_end.max(o.backlog_at_end);
        self.batches += o.batches;
        self.scored += o.scored;
    }

    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.scored as f64 / self.batches as f64
        }
    }
}

/// Where an open-loop phase stops.
pub enum Until<'a> {
    /// After this many requests.
    Count(u64),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

/// Sends requests `pairs[0], pairs[1], …` (cycling) at `rate` per
/// second until `until`, and waits for every reply. `check` sees each
/// reply with its request index and says whether it is right.
pub fn open_loop(
    pool: &WorkerPool,
    rate: f64,
    until: Until<'_>,
    pairs: &[(usize, usize)],
    check: &(dyn Fn(usize, &Reply) -> bool + Sync),
) -> LoadResult {
    let before = pool.metrics();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let done = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<mgbr_serve::ScoreHandle>)>();
    let mut res = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut r = LoadResult::default();
            for (idx, due, handle) in rx {
                match handle {
                    Some(h) => {
                        let reply = h.wait_reply();
                        let t = due.elapsed().as_secs_f64() * 1e3;
                        done.fetch_add(1, Ordering::Relaxed);
                        if reply.result.is_err() {
                            r.failed += 1;
                        } else {
                            r.lat_ms.push(t);
                            if !check(idx, &reply) {
                                r.wrong += 1;
                            }
                        }
                    }
                    None => {
                        done.fetch_add(1, Ordering::Relaxed);
                        r.failed += 1;
                    }
                }
            }
            r
        });
        let start = Instant::now() + Duration::from_millis(1);
        let mut late_ms = Vec::new();
        let mut i = 0u64;
        loop {
            match until {
                Until::Count(n) if i >= n => break,
                Until::Flag(f) if f.load(Ordering::Acquire) => break,
                _ => {}
            }
            let due = start + interval.mul_f64(i as f64);
            wait_until(due);
            let sent = Instant::now();
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            let idx = i as usize % pairs.len();
            let (u, it) = pairs[idx];
            let handle = pool.submit_item(u, it).ok();
            if tx.send((idx, due, handle)).is_err() {
                break;
            }
            i += 1;
        }
        let backlog = i.saturating_sub(done.load(Ordering::Relaxed));
        drop(tx);
        let mut r = collector.join().expect("collector thread panicked");
        r.late_ms = late_ms;
        r.attempted = i;
        r.backlog_at_end = backlog;
        r
    });
    let after = pool.metrics();
    res.batches = after.batches - before.batches;
    res.scored = after.requests - before.requests;
    res
}

/// Sleeps until `due`. The generator never spins: on a small machine a
/// spinning generator takes a core from the worker it is measuring.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

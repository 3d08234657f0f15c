//! Open-loop load on a ladder of fixed offered rates.
//!
//! Up to `nproc` generator threads each send `recommend_one` on a
//! seeded Poisson schedule (the rung's rate split evenly). A thread
//! sleeps until 2 ms before a query's scheduled instant and spins the
//! rest, and every query is timed from that scheduled instant, so a
//! stall is charged to every query it delays. A query still unsent when
//! the rung's grace period ends is counted as missing the limit.
//!
//! Once per rung, at its midpoint, the main thread applies a small
//! preference delta, takes the next generation from the dynamic
//! recommender and publishes it into the daemon; readers move to the
//! new seed right after. Every 16th answer is kept and checked bit for
//! bit against the framework under the generation that served it.

use crate::stages::{churn_delta, epsilon, reference_topn, same_topn, zipf_user, Run, TOP_N};
use crate::stats::{median, quantile, sorted};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use socialrec_core::private::{ClusterFramework, NoisyClusterAverages};
use socialrec_core::{DynamicRecommender, RecommenderInputs, TopN};
use socialrec_graph::{PreferenceGraph, UserId};
use socialrec_serve::loadgen::{poisson_interarrival, Zipf};
use socialrec_serve::ShardedServer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sleep until this long before a scheduled instant, then spin. Longer
/// than a thread's gap between sends from the 2000 q/s rung up on two
/// cores, so there the generator threads do not sleep and a late
/// wake-up from sleep is not added to their lateness.
const SPIN: Duration = Duration::from_millis(2);
/// Keep every `SAMPLE_EVERY`-th answer for the bit-identity check.
const SAMPLE_EVERY: usize = 16;
/// Preference toggles in each rung's published delta.
const PUBLISH_PREFS: usize = 8;
/// Backlog growth over a rung's second half, as a share of the queries
/// offered in it, above which the backlog counts as growing.
const MAX_GROWTH: f64 = 0.05;
/// Shortest window the rung's p99 is taken over.
const MIN_WINDOW_SECS: f64 = 0.5;

/// A frozen ladder: absolute offered rates (ascending), the p99 limit,
/// and the reference rung the query latencies are reported at.
pub struct Ladder {
    pub rates: &'static [f64],
    pub p99_limit_us: f64,
    pub reference: usize,
}

/// One rung's outcome.
pub struct Rung {
    pub rate: f64,
    pub scheduled: usize,
    pub unsent: usize,
    /// Medians over the rung's windows of the window quantiles.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub late_p50_us: f64,
    pub late_p99_us: f64,
    /// Scheduled-but-unsent queries at the rung's end minus at its
    /// midpoint: positive when the generator falls further behind.
    pub backlog_growth: f64,
    pub meets: bool,
}

/// What one generator thread saw.
#[derive(Default)]
struct Thread {
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    /// (scheduled, sent) offsets from the rung start, seconds.
    times: Vec<(f64, f64)>,
    unsent: Vec<f64>,
    kept: Vec<(u64, TopN)>,
}

/// A rung's latency quantile `q`: the median of the `q`-quantiles of
/// consecutive windows of the schedule, each long enough to hold ~1000
/// queries (so ≥ 10 lie beyond its p99), at least `MIN_WINDOW_SECS`.
/// One stall of the host then moves one window, not the rung's figure.
/// Unsent queries count as infinitely late in their window.
fn windowed(threads: &[Thread], rate: f64, rung_secs: f64, q: f64) -> f64 {
    let window = (1000.0 / rate).max(MIN_WINDOW_SECS);
    let windows = ((rung_secs / window).floor() as usize).max(1);
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let slot = |at: f64| ((at / rung_secs * windows as f64) as usize).min(windows - 1);
    for t in threads {
        for (&(at, _), &lat) in t.times.iter().zip(&t.lat_us) {
            by_window[slot(at)].push(lat);
        }
        for &at in &t.unsent {
            by_window[slot(at)].push(f64::INFINITY);
        }
    }
    let per_window: Vec<f64> = by_window.into_iter().map(|w| quantile(&sorted(w), q)).collect();
    median(&per_window)
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Queries scheduled at or before `x` seconds but not yet sent then.
fn backlog_at(threads: &[Thread], x: f64) -> f64 {
    let mut n = 0i64;
    for t in threads {
        n += t.times.iter().filter(|(s, _)| *s <= x).count() as i64;
        n -= t.times.iter().filter(|(_, s)| *s <= x).count() as i64;
        n += t.unsent.iter().filter(|s| **s <= x).count() as i64;
    }
    n as f64
}

/// The daemon side of a ladder run: the server, its query inputs, and
/// what the per-rung publish needs.
pub struct Target<'a, 'p> {
    pub server: &'a ShardedServer<'p>,
    pub inputs: RecommenderInputs<'a>,
    pub prefs: &'a mut PreferenceGraph,
    pub dynrec: &'a mut DynamicRecommender,
    /// Seed of the generation the daemon serves now, and its release.
    pub seed: u64,
    pub averages: NoisyClusterAverages,
    /// Publishes made into `server` so far.
    pub publishes: u64,
}

/// Run every rung of `ladder` for `rung_secs` each.
pub fn run(
    run: &Run,
    t: &mut Target<'_, '_>,
    ladder: &Ladder,
    rung_secs: f64,
    seed: u64,
) -> Vec<Rung> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num_users = t.inputs.num_users();
    let num_items = t.inputs.num_items();
    let zipf = Zipf::new(num_users, 1.0);
    let fw = ClusterFramework::new(t.server.framework().partition(), epsilon());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1ADD_E125);
    let mut gens: BTreeMap<u64, NoisyClusterAverages> = BTreeMap::new();
    gens.insert(t.seed, t.averages.clone());
    let mut out = Vec::new();
    for (k, &rate) in ladder.rates.iter().enumerate() {
        let current = AtomicU64::new(t.seed);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(rung_secs);
        let cutoff = end + Duration::from_secs_f64(rung_secs / 4.0);
        let per_thread = rate / threads as f64;
        let (server, inputs, zipf, current) = (t.server, &t.inputs, &zipf, &current);
        let mut next: Option<(u64, NoisyClusterAverages)> = None;
        let results: Vec<Thread> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|th| {
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ ((k as u64) << 32)
                            ^ (th as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    s.spawn(move || {
                        let mut me = Thread::default();
                        let mut at = 0.0f64;
                        loop {
                            at += poisson_interarrival(&mut rng, per_thread);
                            if at >= rung_secs {
                                break;
                            }
                            if Instant::now() > cutoff {
                                me.unsent.push(at);
                                continue;
                            }
                            let due = start + Duration::from_secs_f64(at);
                            wait_until(due);
                            let user: UserId = zipf_user(&mut rng, zipf, num_users);
                            let qseed = current.load(Ordering::SeqCst);
                            let (qid, cid) = (run.tr.alloc(), run.tr.alloc());
                            let sent = Instant::now();
                            let top = server.recommend_one(inputs, user, TOP_N, qseed);
                            let done = Instant::now();
                            run.tr.push(cid, "serve.recommend_one", qid, qid, sent, done);
                            run.tr.push(qid, "loadgen.query", 0, qid, due, done);
                            me.lat_us.push((done - due).as_secs_f64() * 1e6);
                            me.late_us.push((sent - due).as_secs_f64() * 1e6);
                            me.times.push((at, (sent - start).as_secs_f64()));
                            if me.times.len() % SAMPLE_EVERY == 0 {
                                me.kept.push((qseed, top));
                            }
                        }
                        me
                    })
                })
                .collect();
            // The rung's publish, under load, at its midpoint.
            wait_until(start + Duration::from_secs_f64(rung_secs / 2.0));
            let delta = churn_delta(&mut rng, zipf, num_users, num_items, 0, PUBLISH_PREFS);
            let new_seed = t.seed.wrapping_add(1);
            let published = run.tr.span("bench.publish", 0, |root| {
                let (applied, _) = run
                    .tr
                    .span("graph.apply_preferences", root, |_| delta.apply_preferences(t.prefs));
                let (p2, _) = applied.ok()?;
                *t.prefs = p2;
                let (_, avg) = run.release_averages(
                    t.dynrec,
                    server.framework().partition(),
                    t.prefs,
                    new_seed,
                    root,
                )?;
                let (_, ms) = run.tr.span("serve.publish_release", root, |_| {
                    server.publish_release(new_seed, avg.clone())
                });
                run.sample("serve.publish_ms", ms);
                current.store(new_seed, Ordering::SeqCst);
                Some(avg)
            });
            match published.0 {
                Some(avg) => next = Some((new_seed, avg)),
                None => run.ops(1, 1),
            }
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
        });
        if let Some((s, avg)) = next {
            gens.insert(s, avg.clone());
            t.seed = s;
            t.averages = avg;
            t.publishes += 1;
        }

        // Bit-identity of the kept answers under their generation.
        let mut scratch = (Vec::new(), Vec::new());
        let kept: Vec<&(u64, TopN)> = results.iter().flat_map(|r| &r.kept).collect();
        let ok = kept.iter().all(|(s, got)| {
            gens.get(s).is_some_and(|avg| {
                same_topn(got, &reference_topn(&fw, &t.inputs, avg, got.user, &mut scratch))
            })
        });
        run.check("served answers equal ClusterFramework::recommend for their generation", ok);

        let unsent: usize = results.iter().map(|r| r.unsent.len()).sum();
        let mut lat: Vec<f64> = results.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
        lat.extend(std::iter::repeat_n(f64::INFINITY, unsent));
        let lat = sorted(lat);
        let whole_p99 = quantile(&lat, 0.99);
        let late = sorted(results.iter().flat_map(|r| r.late_us.iter().copied()).collect());
        let growth = backlog_at(&results, rung_secs) - backlog_at(&results, rung_secs / 2.0);
        // "Growing" means falling behind by more than 5% of the second
        // half's offered queries (and by more than two per thread).
        let max_growth = (MAX_GROWTH * rate * rung_secs / 2.0).max(2.0 * threads as f64);
        run.ops((lat.len() - unsent) as u64, 0);
        let p99 = windowed(&results, rate, rung_secs, 0.99);
        let rung = Rung {
            rate,
            scheduled: lat.len(),
            unsent,
            p50_us: windowed(&results, rate, rung_secs, 0.5),
            p90_us: windowed(&results, rate, rung_secs, 0.9),
            p99_us: p99,
            late_p50_us: quantile(&late, 0.5),
            late_p99_us: quantile(&late, 0.99),
            backlog_growth: growth,
            meets: unsent == 0 && p99 <= ladder.p99_limit_us && growth <= max_growth,
        };
        eprintln!(
            "perfbench:   rung {rate:>7.0} q/s: {} queries, p50 {:.0} us, p90 {:.0} us, p99 {:.0} us (whole rung {:.0}), \
             late p99 {:.0} us, backlog +{}, unsent {}{}",
            rung.scheduled,
            rung.p50_us,
            rung.p90_us,
            rung.p99_us,
            whole_p99,
            rung.late_p99_us,
            rung.backlog_growth,
            rung.unsent,
            if rung.meets { "" } else { "  (misses)" }
        );
        out.push(rung);
    }
    out
}

/// The highest rate that meets the limit, interpolated on log p99
/// between the last rung that meets it and the first that does not
/// (rungs above the first miss do not count). The lowest rung's rate if
/// it already misses; the highest rung's if every rung meets.
pub fn max_rate(rungs: &[Rung], limit_us: f64) -> f64 {
    let first_miss = rungs.iter().position(|r| !r.meets);
    match first_miss {
        None => rungs.last().map_or(f64::NAN, |r| r.rate),
        Some(0) => rungs[0].rate,
        Some(m) => {
            let (lo, hi) = (&rungs[m - 1], &rungs[m]);
            // Interpolate only when the miss is a finite p99 above the
            // limit; a backlog or unsent miss pins the rate to `lo`.
            let f = if hi.p99_us.is_finite() && hi.p99_us > limit_us && hi.p99_us > lo.p99_us {
                ((limit_us.ln() - lo.p99_us.ln()) / (hi.p99_us.ln() - lo.p99_us.ln()))
                    .clamp(0.0, 1.0)
            } else {
                0.0
            };
            lo.rate * (hi.rate / lo.rate).powf(f)
        }
    }
}

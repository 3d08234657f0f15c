//! The socialrec benchmark.
//!
//! ```text
//! perfbench --workload <serve-zipf|refresh-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload against the public API of the layer crates, checks
//! the outputs, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--tiny` shrinks every input for the self-test. See `README.md`.

mod ladder;
mod stages;
mod stats;
mod trace;

use ladder::{Ladder, Rung, Target};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use socialrec_core::private::NoisyClusterAverages;
use socialrec_core::{top_n_items, RecommenderInputs};
use socialrec_datasets::Dataset;
use socialrec_graph::UserId;
use socialrec_serve::kernel::{utilities_block_tiled, ITEM_TILE, USER_BLOCK};
use socialrec_serve::loadgen::Zipf;
use socialrec_serve::SimMassIndex;
use stages::{Clusters, Live, Offline, Run};
use stats::{mean, median, quantile, sorted};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed of the graph, its clustering and its first release. `--seed`
/// drives everything that happens to the graph afterwards: the query
/// schedule and users, the published deltas and the refresh deltas. A
/// fixed graph keeps the work of a set-up, a query and a round the same
/// from seed to seed, so only the traffic and the machine vary.
const GRAPH_SEED: u64 = 7;
/// Set-ups per run; `setup_s`, `build_s` and `batch_users_per_s` are
/// their medians.
const SETUP_REPS: usize = 5;
/// Social+preference refresh rounds per refresh-churn run, at least (so
/// ≥ 10 lie beyond p90).
const MIN_ROUNDS: usize = 100;
/// Preference-only refresh rounds per serve-zipf run.
const PREF_ROUNDS: usize = 300;
/// Social / preference toggles per refresh-churn round.
const CHURN_SOCIAL: usize = 8;
const CHURN_PREFS: usize = 8;
/// Preference toggles per preference-only refresh round.
const PREF_ROUND_PREFS: usize = 8;
/// Rung length of refresh-churn's ladder (serve-zipf spreads
/// `--seconds` over its rungs).
const CHURN_RUNG_SECS: f64 = 1.5;
/// Untimed closed-loop queries that flip every shard to the served
/// generation before the ladder.
const WARMUP_QUERIES: usize = 2000;
/// Users drawn for the kernel and top-N timings.
const KERNEL_PROBES: usize = 2000;

/// The ladder for the serving workloads' daemon, frozen from
/// measurements on a 2-core x86-64 container (see README.md).
const LADDER: Ladder = Ladder {
    rates: &[2000.0, 4000.0, 8000.0, 12000.0, 16000.0, 20000.0, 24000.0, 32000.0, 48000.0],
    p99_limit_us: 20000.0,
    reference: 0,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeZipf,
    RefreshChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-zipf" => Some(Workload::ServeZipf),
            "refresh-churn" => Some(Workload::RefreshChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve-zipf",
            Workload::RefreshChurn => "refresh-churn",
        }
    }

    /// `flixster_like` scale of the workload's graph.
    fn scale(self, tiny: bool) -> f64 {
        match (self, tiny) {
            (_, true) => 0.005,
            (Workload::ServeZipf, false) => 0.15,
            (Workload::RefreshChurn, false) => 0.1,
        }
    }
}

struct Cfg {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Cfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = need("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Cfg { workload, seed, seconds, trace, tiny: args.iter().any(|a| a == "--tiny") })
}

/// End-to-end figures of one pass.
#[derive(Default)]
struct E2e {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    batch_users_per_s: Vec<f64>,
    rungs: Vec<Rung>,
    refresh_ms: Vec<f64>,
    /// Daemon registry counters over the ladder.
    serve: Vec<(String, u64)>,
    release_epochs: u64,
    publishes: u64,
}

/// A pass: its run state (samples, spans, counts) and figures.
struct Pass {
    run: Run,
    e2e: E2e,
    ledger_spends: usize,
    peak_rss_mib: f64,
    wall_s: f64,
}

fn ladder(cfg: &Cfg) -> Ladder {
    if cfg.tiny {
        Ladder { rates: &[1000.0, 2000.0], ..LADDER }
    } else {
        LADDER
    }
}

/// One set-up: generate the graph, build the offline half, serve it and
/// answer one full-population batch.
fn setup_once(run: &Run, cfg: &Cfg, e2e: &mut E2e, tag: &str) -> (Dataset, Offline) {
    let ds = stages::generate(run, cfg.workload.scale(cfg.tiny), GRAPH_SEED, 0);
    let live = cfg.workload == Workload::RefreshChurn;
    let off = stages::build_offline(run, &ds.social, &ds.prefs, GRAPH_SEED, live, tag);
    if let Some((server, serve_ms)) = stages::serve_offline(run, &off) {
        e2e.build_s.push((off.build_ms + serve_ms) / 1e3);
        let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &off.sim };
        e2e.batch_users_per_s.push(stages::full_batch(
            run,
            &server,
            &inputs,
            &off.averages,
            off.release_seed,
        ));
    }
    (ds, off)
}

/// The repeated set-up; returns the last one's state.
fn setup(run: &Run, cfg: &Cfg, e2e: &mut E2e) -> (Dataset, Offline) {
    for rep in 1..SETUP_REPS {
        let t = Instant::now();
        drop(setup_once(run, cfg, e2e, &format!("setup{rep}")));
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let out = setup_once(run, cfg, e2e, "setup");
    e2e.setup_s.push(t.elapsed().as_secs_f64());
    out
}

/// Time the serving kernel and top-N directly, one user per call and in
/// `USER_BLOCK` blocks, for Zipf-drawn users; record the computed
/// multiply-adds and bytes per query.
fn kernel_probe(run: &Run, off: &Offline, averages: &NoisyClusterAverages, seed: u64, tiny: bool) {
    let index = match SimMassIndex::open_artifact(&off.artifact) {
        Ok(ix) => ix,
        Err(e) => {
            eprintln!("perfbench: reopening {}: {e}", off.artifact.display());
            run.ops(1, 1);
            return;
        }
    };
    let n = index.num_users();
    let items = averages.num_items() as f64;
    let zipf = Zipf::new(n, 1.0);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4B45_524E);
    let probes = if tiny { 64 } else { KERNEL_PROBES };
    let users: Vec<UserId> = (0..probes).map(|_| stages::zipf_user(&mut rng, &zipf, n)).collect();
    let mut buf = Vec::new();
    for &u in &users {
        let (_, ms) = run.tr.span("kernel.utilities_block_tiled", 0, |_| {
            utilities_block_tiled(averages, &index, &[u], ITEM_TILE, &mut buf)
        });
        run.sample("kernel.one_user_us", ms * 1e3);
        let (top, ms) = run.tr.span("core.top_n_items", 0, |_| top_n_items(&buf, stages::TOP_N));
        std::hint::black_box(top);
        run.sample("core.topn_us", ms * 1e3);
        let row = index.row_vals(u).0.len() as f64;
        run.sample("kernel.madds_per_query", row * items);
        // Release rows streamed (8 B per item per touched cluster), the
        // index row (4 B id + 8 B mass per entry), and the utility
        // vector written then scanned by top-N.
        run.sample("kernel.bytes_per_query", row * items * 8.0 + row * 12.0 + items * 16.0);
    }
    for block in users.chunks(USER_BLOCK) {
        let (_, ms) = run.tr.span("kernel.utilities_block_tiled", 0, |_| {
            utilities_block_tiled(averages, &index, block, ITEM_TILE, &mut buf)
        });
        run.sample("kernel.block_us_per_user", ms * 1e3 / block.len() as f64);
    }
}

/// The ladder (`rung_secs` per rung), daemon counters around it, and the
/// epoch check; leaves the latest generation in `target`.
fn serve_ladder(run: &Run, cfg: &Cfg, e2e: &mut E2e, target: &mut Target<'_, '_>, rung_secs: f64) {
    let n = target.inputs.num_users();
    let zipf = Zipf::new(n, 1.0);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x3A4B_0001);
    for _ in 0..WARMUP_QUERIES {
        let u = stages::zipf_user(&mut rng, &zipf, n);
        std::hint::black_box(target.server.recommend_one(
            &target.inputs,
            u,
            stages::TOP_N,
            target.seed,
        ));
    }
    let before = target.server.registry().snapshot().counters;
    e2e.rungs = ladder::run(run, target, &ladder(cfg), rung_secs, cfg.seed);
    let after = target.server.registry().snapshot().counters;
    e2e.serve = after
        .iter()
        .map(|(name, v)| {
            let was = before.iter().find(|(n, _)| n == name).map_or(0, |(_, b)| *b);
            (name.clone(), v - was)
        })
        .collect();
    e2e.release_epochs = target.server.exchange().epoch();
    e2e.publishes = target.publishes;
    run.check(
        "release epochs equal publishes (no query-path rebuild)",
        e2e.release_epochs == target.publishes,
    );
}

/// `PREF_ROUNDS` preference-only refresh rounds on a fixed partition.
fn pref_rounds(
    run: &Run,
    cfg: &Cfg,
    e2e: &mut E2e,
    dynrec: &mut socialrec_core::DynamicRecommender,
    partition: &socialrec_community::Partition,
    prefs: &mut socialrec_graph::PreferenceGraph,
    first_seed: u64,
) {
    let n = prefs.num_users();
    let zipf = Zipf::new(n, 1.0);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE);
    let rounds = if cfg.tiny { 12 } else { PREF_ROUNDS };
    for r in 0..rounds {
        let delta = stages::churn_delta(&mut rng, &zipf, n, prefs.num_items(), 0, PREF_ROUND_PREFS);
        let seed = first_seed.wrapping_add(r as u64);
        if let Some((ms, _)) = stages::pref_round(run, dynrec, partition, prefs, &delta, seed) {
            e2e.refresh_ms.push(ms);
        }
    }
}

fn serve_zipf(run: &Run, cfg: &Cfg, e2e: &mut E2e) {
    let (ds, off) = setup(run, cfg, e2e);
    let Some((server, _)) = stages::serve_offline(run, &off) else { return };
    let mut prefs = ds.prefs.clone();
    let mut dynrec = stages::dynamic_recommender();
    let mut target = Target {
        server: &server,
        inputs: RecommenderInputs { prefs: &ds.prefs, sim: &off.sim },
        prefs: &mut prefs,
        dynrec: &mut dynrec,
        seed: off.release_seed,
        averages: off.averages.clone(),
        publishes: 1,
    };
    let rung_secs = cfg.seconds / ladder(cfg).rates.len() as f64;
    serve_ladder(run, cfg, e2e, &mut target, rung_secs);
    let (seed, averages) = (target.seed, target.averages.clone());
    kernel_probe(run, &off, &averages, cfg.seed, cfg.tiny);
    drop(server);
    pref_rounds(
        run,
        cfg,
        e2e,
        &mut dynrec,
        off.clusters.partition(),
        &mut prefs,
        seed.wrapping_add(1),
    );
}

fn refresh_churn(run: &Run, cfg: &Cfg, e2e: &mut E2e) {
    let (ds, off) = setup(run, cfg, e2e);
    let mut prefs = ds.prefs.clone();
    let mut dynrec = stages::dynamic_recommender();
    if let Some((server, _)) = stages::serve_offline(run, &off) {
        let mut target = Target {
            server: &server,
            inputs: RecommenderInputs { prefs: &ds.prefs, sim: &off.sim },
            prefs: &mut prefs,
            dynrec: &mut dynrec,
            seed: off.release_seed,
            averages: off.averages.clone(),
            publishes: 1,
        };
        serve_ladder(run, cfg, e2e, &mut target, CHURN_RUNG_SECS);
        let averages = target.averages.clone();
        kernel_probe(run, &off, &averages, cfg.seed, cfg.tiny);
    }
    let Offline { sim, clusters: Clusters::Live(inc), index, .. } = off else {
        unreachable!("refresh-churn builds an incremental Louvain")
    };
    let mut live = Live { social: ds.social, prefs, sim, inc, index };
    let n = live.social.num_users();
    let zipf = Zipf::new(n, 1.0);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC4A2_11E5);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let min_rounds = if cfg.tiny { 12 } else { MIN_ROUNDS };
    let mut last: Option<(u64, NoisyClusterAverages)> = None;
    let mut round = 0u64;
    while (round as usize) < min_rounds || Instant::now() < deadline {
        let delta = stages::churn_delta(
            &mut rng,
            &zipf,
            n,
            live.prefs.num_items(),
            CHURN_SOCIAL,
            CHURN_PREFS,
        );
        let seed = cfg.seed.wrapping_add(1_000_000 + round);
        if let Some((ms, avg)) = stages::churn_round(run, &mut live, &mut dynrec, &delta, seed) {
            e2e.refresh_ms.push(ms);
            last = Some((seed, avg));
        }
        round += 1;
    }
    stages::check_against_rebuild(run, &live, last.as_ref().map(|(s, a)| (*s, a)));
}

/// One pass of the workload, traced or not.
fn pass(cfg: &Cfg, traced: bool, dir: &Path) -> Pass {
    let t = Instant::now();
    socialrec_obs::PrivacyLedger::global().reset();
    if traced {
        // The program's own instrumentation is what feeds the privacy
        // ledger today, so the traced pass arms it too.
        socialrec_obs::enable();
    }
    let run = Run::new(traced, dir.to_path_buf());
    let mut e2e = E2e::default();
    match cfg.workload {
        Workload::ServeZipf => serve_zipf(&run, cfg, &mut e2e),
        Workload::RefreshChurn => refresh_churn(&run, cfg, &mut e2e),
    }
    socialrec_obs::disable();
    drop(socialrec_obs::drain_events());
    let ledger_spends = socialrec_obs::PrivacyLedger::global().snapshot().records.len();
    let peak_rss_mib = socialrec_obs::sample_memory()
        .map_or(f64::NAN, |m| m.peak_rss_bytes as f64 / (1024.0 * 1024.0));
    Pass { run, e2e, ledger_spends, peak_rss_mib, wall_s: t.elapsed().as_secs_f64() }
}

/// The reference rung, or `None` if the ladder did not run.
fn reference_rung<'a>(cfg: &Cfg, e2e: &'a E2e) -> Option<&'a Rung> {
    e2e.rungs.get(ladder(cfg).reference)
}

fn end_to_end(cfg: &Cfg, p: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let e = &p.e2e;
    let refresh = sorted(e.refresh_ms.clone());
    let reference = reference_rung(cfg, e);
    vec![
        ("setup_s", median(&e.setup_s), "s"),
        ("build_s", median(&e.build_s), "s"),
        ("batch_users_per_s", median(&e.batch_users_per_s), "1/s"),
        ("query_p50_us", reference.map_or(f64::NAN, |r| r.p50_us), "us"),
        ("refresh_p50_ms", quantile(&refresh, 0.5), "ms"),
        ("refresh_p90_ms", quantile(&refresh, 0.9), "ms"),
        ("peak_rss_mib", p.peak_rss_mib, "MiB"),
    ]
}

/// The workload's headline figure, compared traced vs untraced.
fn headline(cfg: &Cfg, p: &Pass) -> f64 {
    let e2e = end_to_end(cfg, p);
    let pick = match cfg.workload {
        Workload::ServeZipf => "query_p50_us",
        Workload::RefreshChurn => "refresh_p50_ms",
    };
    e2e.iter().find(|(n, _, _)| *n == pick).map_or(f64::NAN, |(_, v, _)| *v)
}

fn counter(e: &E2e, suffix: &str) -> Vec<f64> {
    e.serve.iter().filter(|(n, _)| n.ends_with(suffix)).map(|(_, v)| *v as f64).collect()
}

/// Per-layer metrics of the traced pass `p`; `base` is the untraced
/// pass of the same run.
fn per_layer(cfg: &Cfg, p: &Pass, base: &Pass) -> Vec<(String, f64, &'static str)> {
    let r = &p.run;
    let e = &p.e2e;
    let med = |name: &str| median(&r.samples(name));
    let avg = |name: &str| mean(&r.samples(name));
    let last = |name: &str| r.samples(name).last().copied().unwrap_or(0.0);
    let q = |name: &str, x: f64| quantile(&sorted(r.samples(name)), x);
    let (releases, eps_spent) = r.privacy();
    let queries: f64 = counter(e, ".queries").iter().sum();
    let admissions: f64 = counter(e, ".admissions").iter().sum();
    let coalesced: f64 = counter(e, ".coalesced").iter().sum();
    let shard_max = counter(e, ".queries").into_iter().fold(0.0, f64::max);
    let reference = reference_rung(cfg, e);
    let overhead = reference.map_or(f64::NAN, |rung| {
        rung.p50_us - q("kernel.one_user_us", 0.5) - q("core.topn_us", 0.5)
    });
    let base_headline = headline(cfg, base);
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("datasets.generate_ms".into(), med("datasets.generate_ms"), "ms"),
        ("graph.delta_apply_ms".into(), med("graph.delta_apply_ms"), "ms"),
        ("graph.delta_edges".into(), avg("graph.delta_edges"), "count/round"),
        ("similarity.build_ms".into(), med("similarity.build_ms"), "ms"),
        ("similarity.entries".into(), last("similarity.entries"), "count"),
        ("similarity.update_rows_ms".into(), med("similarity.update_rows_ms"), "ms"),
        ("similarity.dirty_rows".into(), avg("similarity.dirty_rows"), "count/round"),
        ("community.louvain_ms".into(), med("community.louvain_ms"), "ms"),
        ("community.clusters".into(), last("community.clusters"), "count"),
        ("community.refresh_ms".into(), med("community.refresh_ms"), "ms"),
        ("community.moved_users".into(), avg("community.moved_users"), "count/round"),
        ("community.restarts".into(), r.samples("community.restarts").iter().sum(), "count"),
        ("core.release_ms".into(), med("core.release_ms"), "ms"),
        ("core.dynamic_release_ms".into(), med("core.dynamic_release_ms"), "ms"),
        ("core.topn_p50_us".into(), q("core.topn_us", 0.5), "us"),
        ("core.topn_p99_us".into(), q("core.topn_us", 0.99), "us"),
        ("dp.releases".into(), releases as f64, "count"),
        ("dp.epsilon_spent".into(), eps_spent, "epsilon"),
        ("dp.refusals".into(), r.refusals() as f64, "count"),
        ("serve.index_build_ms".into(), med("serve.index_build_ms"), "ms"),
        ("serve.index_entries".into(), last("serve.index_entries"), "count"),
        ("serve.index_update_rows_ms".into(), med("serve.index_update_rows_ms"), "ms"),
        ("serve.index_dirty_rows".into(), avg("serve.index_dirty_rows"), "count/round"),
        ("serve.artifact_write_ms".into(), med("serve.artifact_write_ms"), "ms"),
        ("serve.artifact_open_ms".into(), med("serve.artifact_open_ms"), "ms"),
        ("serve.admissions".into(), admissions, "count"),
        ("serve.mean_ride".into(), queries / admissions, "queries"),
        ("serve.coalesced_frac".into(), coalesced / queries, "fraction"),
        ("serve.shard_max_share".into(), shard_max / queries, "fraction"),
        ("serve.release_swaps".into(), counter(e, ".release_swaps").iter().sum(), "count"),
        ("serve.release_epochs".into(), e.release_epochs as f64, "count"),
        ("serve.publishes".into(), e.publishes as f64, "count"),
        ("serve.publish_ms".into(), med("serve.publish_ms"), "ms"),
        ("serve.overhead_us".into(), overhead, "us"),
        ("kernel.one_user_p50_us".into(), q("kernel.one_user_us", 0.5), "us"),
        ("kernel.one_user_p99_us".into(), q("kernel.one_user_us", 0.99), "us"),
        ("kernel.block_us_per_user".into(), med("kernel.block_us_per_user"), "us"),
        ("kernel.madds_per_query".into(), avg("kernel.madds_per_query"), "count"),
        ("kernel.bytes_per_query".into(), avg("kernel.bytes_per_query"), "bytes"),
        ("obs.ledger_spends".into(), p.ledger_spends as f64, "count"),
        ("obs.ledger_spends_untraced".into(), base.ledger_spends as f64, "count"),
        (
            "obs.trace_overhead_frac".into(),
            (headline(cfg, p) - base_headline) / base_headline,
            "fraction",
        ),
        ("obs.spans".into(), r.tr.len() as f64, "count"),
        ("max_rate_qps".into(), ladder::max_rate(&e.rungs, ladder(cfg).p99_limit_us), "1/s"),
        ("query_p90_us".into(), reference.map_or(f64::NAN, |x| x.p90_us), "us"),
        ("query_p99_us".into(), reference.map_or(f64::NAN, |x| x.p99_us), "us"),
        ("loadgen.late_p50_us".into(), reference.map_or(f64::NAN, |x| x.late_p50_us), "us"),
        ("loadgen.late_p99_us".into(), reference.map_or(f64::NAN, |x| x.late_p99_us), "us"),
        (
            "loadgen.backlog_growth".into(),
            reference.map_or(f64::NAN, |x| x.backlog_growth),
            "count",
        ),
        (
            "build.unattributed_frac".into(),
            r.tr.unattributed_frac(&["bench.build", "bench.serve"]),
            "fraction",
        ),
        (
            "failed_frac".into(),
            (p.run.failed() + base.run.failed()) as f64
                / (p.run.attempted() + base.run.attempted()).max(1) as f64,
            "fraction",
        ),
    ];
    let self_ms = r.tr.layer_self_ms();
    for layer in [
        "datasets",
        "graph",
        "similarity",
        "community",
        "core",
        "serve",
        "kernel",
        "loadgen",
        "bench",
    ] {
        out.push((format!("{layer}.self_ms"), self_ms.get(layer).copied().unwrap_or(0.0), "ms"));
    }
    out
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-zipf|refresh-churn> --seed <n> \
                 --seconds <s> --trace <0|1> [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {cores} cores, simd {:?}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        socialrec_simd::active()
    );

    let base = pass(&cfg, false, &dir);
    eprintln!("perfbench: untraced pass took {:.1} s", base.wall_s);
    let (metrics, attempted, failed, checks): (Vec<(String, f64, &str)>, u64, u64, u64) = if cfg
        .trace
    {
        let traced = pass(&cfg, true, &dir);
        eprintln!(
            "perfbench: traced pass took {:.1} s, {} spans",
            traced.wall_s,
            traced.run.tr.len()
        );
        let path = dir.join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) = traced.run.tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let m = per_layer(&cfg, &traced, &base)
            .into_iter()
            .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect();
        (
            m,
            base.run.attempted() + traced.run.attempted(),
            base.run.failed() + traced.run.failed(),
            base.run.checks().min(traced.run.checks()),
        )
    } else {
        let m =
            end_to_end(&cfg, &base).into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect();
        (m, base.run.attempted(), base.run.failed(), base.run.checks())
    };
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|x| x == "srart") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite() && *v != 0.0 || cfg.trace);
    if !finite {
        for (n, v, _) in metrics.iter().filter(|(_, v, _)| !v.is_finite() || *v == 0.0) {
            eprintln!("perfbench: end-to-end metric {n} is {v}");
        }
    }
    eprintln!("perfbench: {checks} correctness checks, {failed} failed operations of {attempted}");
    let correct = failed == 0 && checks > 0 && finite;
    let metrics: Vec<(String, f64, &str)> =
        metrics.into_iter().map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u)).collect();
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

//! One-shot measurement jobs for the cluster-simulator benchmark.
//!
//! `run.py` (next to this crate) is the benchmark's entry point. It builds
//! this binary and launches it once per sample, so every timed run starts
//! in a fresh process: it pays the first touch of its memory, as a fresh
//! simulation in a sweep does, and its peak resident set (`VmHWM`) belongs
//! to that one run alone. Each invocation prints one JSON object on
//! stdout:
//!
//! ```text
//! perfbench run    --workload W --seed S --mode full|setup|oneshard|traced
//! perfbench layers --workload W --seed S
//! ```
//!
//! * `run` times one whole run (config build, `ClusterSim::new`, the run
//!   itself) and applies the correctness gate to its report. `setup` is
//!   the same config cut to one request per proxy with no warm-up;
//!   `oneshard` forces one shard (the shard-invariance reference);
//!   `traced` runs through `run_observed` / `run_faulted_observed` with
//!   tracing on and adds the per-layer counts the telemetry exposes.
//! * `layers` times isolated calls into each crate's public functions on
//!   the workload's own inputs.

use bench::{delayed_adaptive_cluster, latency_coop_cluster, small_static_cluster};
use cachesim::{LruCache, Mshr, MshrAccess, MshrConfig, TaggedCache, Waiter};
use cluster::{report_to_json, ClusterConfig, ClusterObs, ClusterReport, ClusterSim, Topology};
use cluster::{CooperativeWorkload, DelayedHitsConfig, Workload};
use coop::{DeltaOp, Router};
use predictor::OraclePredictor;
use prefetch_core::{ModelA, SystemParams};
use queueing::{PsServer, Server};
use simcore::dist::{Exponential, Sample};
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::obs::ObsConfig;
use simcore::rng::Rng;
use simcore::trace::{TraceClass, TraceStore};
use simcore::{Json, Scheduler};
use std::hint::black_box;
use std::time::Instant;
use workload::synth_web::SynthWeb;

/// Largest relative error tolerated between the open-loop run and the
/// Model-A closed form (per-proxy access-link `ρ`, cluster bytes/request).
const MODEL_A_TOLERANCE: f64 = 0.05;

/// Head-sampling modulus of the traced run: one request in this many.
const TRACE_EVERY: u64 = 8;

/// Uniform per-attempt loss on every routed link of `lossy_delayed_mesh64`.
const LOSS: f64 = 0.1;

/// The benchmark's workloads (see `perfbench/README.md` for why each).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    CoopMesh64,
    CoopMesh256,
    StaticTwoTier,
    LossyDelayedMesh64,
}

struct Spec {
    kind: Kind,
    shards: usize,
    faults: Option<FaultConfig>,
}

impl Spec {
    fn parse(name: &str) -> Spec {
        let kind = match name {
            "coop_mesh64" => Kind::CoopMesh64,
            "coop_mesh256" => Kind::CoopMesh256,
            "static_two_tier" => Kind::StaticTwoTier,
            "lossy_delayed_mesh64" => Kind::LossyDelayedMesh64,
            other => fail(&format!("unknown workload {other:?}")),
        };
        let shards = if kind == Kind::CoopMesh64 { 2 } else { 1 };
        let faults = (kind == Kind::LossyDelayedMesh64).then(lossy_faults);
        Spec { kind, shards, faults }
    }

    /// The workload's full configuration; `setup` cuts it to one request
    /// per proxy with no warm-up, which keeps validation, structure
    /// build, engine init and report merge but almost no drive.
    fn config<'a>(&self, size: &'a Exponential, setup: bool) -> ClusterConfig<'a> {
        let mut cfg = match self.kind {
            Kind::CoopMesh64 => latency_coop_cluster(64, 2_000, 0.05),
            Kind::CoopMesh256 => latency_coop_cluster(256, 200, 0.05),
            Kind::StaticTwoTier => {
                let mut c = small_static_cluster(16, size);
                c.requests_per_proxy = 80_000;
                c.warmup_per_proxy = 16_000;
                c
            }
            Kind::LossyDelayedMesh64 => {
                let mut c = delayed_adaptive_cluster(64, 6_000, DelayedHitsConfig::default());
                c.topology = lossy_topology();
                c
            }
        };
        if setup {
            cfg.requests_per_proxy = 1;
            cfg.warmup_per_proxy = 0;
        }
        cfg
    }

    fn run(&self, sim: &ClusterSim<'_>, seed: u64, shards: usize) -> ClusterReport {
        match &self.faults {
            Some(f) => sim.run_faulted(seed, shards, f),
            None => sim.run_sharded(seed, shards),
        }
    }

    fn run_traced(&self, sim: &ClusterSim<'_>, seed: u64) -> (ClusterReport, ClusterObs) {
        let obs = ObsConfig::on().with_trace_every(TRACE_EVERY);
        match &self.faults {
            Some(f) => sim.run_faulted_observed(seed, self.shards, f, &obs),
            None => sim.run_observed(seed, self.shards, &obs),
        }
    }
}

/// The delayed-hits mesh with a wider backbone: the stock one runs near
/// ρ = 0.94 without faults; this one keeps every link inside the stable
/// region (the adaptive prefetchers fill spare backbone capacity, so it
/// still runs at ρ ≈ 0.85).
fn lossy_topology() -> Topology {
    Topology::mesh_with_latency(64, 60.0, 12.0 * 64.0, 45.0, 0.08)
}

/// Every link a fetch crosses (access links and backbone; the peer links
/// carry nothing without cooperation) degraded from t = 0, the default
/// retry policy, and one proxy crash in mid-run.
fn lossy_faults() -> FaultConfig {
    let topo = lossy_topology();
    let mut routed: Vec<usize> =
        (0..topo.n_proxies()).flat_map(|p| topo.route(p, 0).iter().copied()).collect();
    routed.sort_unstable();
    routed.dedup();
    let mut events: Vec<FaultEvent> = routed
        .into_iter()
        .map(|link| FaultEvent {
            t: 0.0,
            kind: FaultKind::LinkDegrade { link, loss: LOSS, latency_factor: 1.0 },
        })
        .collect();
    events.push(FaultEvent { t: 100.0, kind: FaultKind::ProxyCrash { proxy: 7 } });
    FaultConfig { plan: FaultPlan::new(events), retry: RetryPolicy::default() }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    mode: String,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it.next().unwrap_or_else(|| fail("missing command (run | layers)"));
    let (mut workload, mut seed, mut mode) = (None, None, "full".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| fail("bad --seed"))),
            "--mode" => mode = value,
            other => fail(&format!("unknown flag {other}")),
        }
    }
    Args {
        command,
        workload: workload.unwrap_or_else(|| fail("missing --workload")),
        seed: seed.unwrap_or_else(|| fail("missing --seed")),
        mode,
    }
}

fn main() {
    let args = parse_args();
    let spec = Spec::parse(&args.workload);
    let out = match args.command.as_str() {
        "run" => run_job(&spec, args.seed, &args.mode),
        "layers" => layers_job(&spec, args.seed),
        other => fail(&format!("unknown command {other:?}")),
    };
    println!("{}", out.render());
}

/// 64-bit FNV-1a: a hash that is stable across builds and toolchains, so
/// digests compare between two commits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-run correctness gate. Returns the reasons the report fails it.
fn gate(report: &ClusterReport) -> Vec<String> {
    let mut why = Vec::new();
    if !report.mshr_conservation_ok() {
        why.push("MSHR conservation violated".to_string());
    }
    if !report.mean_access_time.is_finite() {
        why.push(format!("mean access time {} is not finite", report.mean_access_time));
    }
    if let Some(l) = report.links.iter().find(|l| l.utilisation >= 1.0 || l.utilisation.is_nan()) {
        why.push(format!("link {} overloaded at rho {}", l.name, l.utilisation));
    }
    why
}

/// Relative errors of the open-loop run against Model A: the largest
/// per-proxy access-link `ρ` error and the bytes/request error.
fn model_a_errors(report: &ClusterReport, cfg: &ClusterConfig<'_>) -> (f64, f64) {
    let Workload::Static(w) = &cfg.workload else { unreachable!("Model A covers the open loop") };
    let access = cfg.topology.links()[1].bandwidth;
    let mut rho_err: f64 = 0.0;
    let (mut bytes, mut rate) = (0.0, 0.0);
    for (i, p) in w.proxies.iter().enumerate() {
        let params = SystemParams::new(p.lambda, access, 1.0, p.h_prime).expect("valid params");
        let model = ModelA::new(params, p.n_f, p.p);
        let measured = report.link(&format!("access[{i}]")).expect("access link").utilisation;
        rho_err = rho_err.max((measured - model.utilisation()).abs() / model.utilisation());
        bytes += p.lambda * (1.0 - model.hit_ratio_raw() + p.n_f);
        rate += p.lambda;
    }
    let expected = bytes / rate;
    (rho_err, (report.bytes_per_request - expected).abs() / expected)
}

fn run_job(spec: &Spec, seed: u64, mode: &str) -> Json {
    let size = Exponential::with_mean(1.0);
    let (setup, shards, traced) = match mode {
        "full" => (false, spec.shards, false),
        "setup" => (true, spec.shards, false),
        "oneshard" => (false, 1, false),
        "traced" => (false, spec.shards, true),
        other => fail(&format!("unknown mode {other:?}")),
    };
    let start = Instant::now();
    let cfg = spec.config(&size, setup);
    let sim = ClusterSim::new(&cfg);
    let (report, obs) = if traced {
        let (r, o) = spec.run_traced(&sim, seed);
        (r, Some(o))
    } else {
        (spec.run(&sim, seed, shards), None)
    };
    let wall = start.elapsed().as_secs_f64();

    let mut why = gate(&report);
    let mut out = Json::obj();
    if spec.kind == Kind::StaticTwoTier && !setup {
        let (rho_err, bytes_err) = model_a_errors(&report, &cfg);
        if rho_err > MODEL_A_TOLERANCE || bytes_err > MODEL_A_TOLERANCE {
            why.push(format!("Model A mismatch: rho {rho_err:.4}, bytes/request {bytes_err:.4}"));
        }
        out = out.set("model_a.rho_rel_err", Json::num(rho_err));
        out = out.set("model_a.bytes_rel_err", Json::num(bytes_err));
    }
    let measured: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
    let json_digest = fnv1a(report_to_json(&report).render().as_bytes()) >> 11;
    out = out
        .set("mode", Json::str(mode))
        .set("wall_s", Json::num(wall))
        .set("vmhwm_mb", Json::num(vm_hwm_mb()))
        .set("measured_requests", Json::num(measured as f64))
        .set("identity", Json::str(format!("{:016x}", fnv1a(format!("{report:?}").as_bytes()))))
        .set("report_digest", Json::num(json_digest as f64))
        .set("ok", Json::Bool(why.is_empty()))
        .set("why", Json::str(why.join("; ")));
    if let Some(obs) = obs {
        out = out.set("traced", traced_metrics(&report, &obs));
    }
    out
}

/// Per-layer counts of one traced run, read from its report and telemetry.
fn traced_metrics(report: &ClusterReport, obs: &ClusterObs) -> Json {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p = &obs.profiles;
    let events: u64 = p.iter().map(|s| s.events).sum();
    let max_events = p.iter().map(|s| s.events).max().unwrap_or(0);
    let total = |w: &simcore::stats::Welford| w.mean() * w.count() as f64;
    let shards = p.len().max(1) as f64;
    let window_s = p.iter().map(|s| total(&s.window_wall)).sum::<f64>() / shards;
    let barrier_s = p.iter().map(|s| total(&s.barrier_wall)).sum::<f64>() / shards;

    let goodput: f64 = report.nodes.iter().filter_map(|n| n.goodput_bytes).sum();
    let badput: f64 = report.nodes.iter().filter_map(|n| n.badput_bytes).sum();
    let measured: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
    let hits: f64 = report.nodes.iter().map(|n| n.hit_ratio * n.measured_requests as f64).sum();
    let demand_misses: u64 = report.nodes.iter().filter_map(|n| n.demand_misses).sum();
    let (peer_fetches, false_hits) =
        report.coop.map_or((0, 0), |c| (c.peer_fetches, c.peer_false_hits));

    let mut m = Json::obj()
        .set("cluster.events", Json::num(events as f64))
        .set("shard.window_s", Json::num(window_s))
        .set("shard.barrier_s", Json::num(barrier_s))
        .set("shard.barrier_share", Json::num(ratio(barrier_s, barrier_s + window_s)))
        .set("shard.windows", Json::num(p.iter().map(|s| s.windows).max().unwrap_or(0) as f64))
        .set("shard.effects_sent", Json::num(p.iter().map(|s| s.effects_sent).sum::<u64>() as f64))
        .set("shard.event_imbalance", Json::num(ratio(max_events as f64, events as f64 / shards)))
        .set(
            "sched.heap_depth_hwm",
            Json::num(p.iter().map(|s| s.heap_depth_hwm).max().unwrap_or(0) as f64),
        )
        .set("predictor.calls", Json::num(obs.registry.counter_value("predictor.calls") as f64))
        .set("prefetch.issued", Json::num(obs.registry.counter_value("prefetch.issued") as f64))
        .set("prefetch.useful_ratio", Json::num(ratio(goodput, goodput + badput)))
        .set("cachesim.hit_ratio", Json::num(ratio(hits, measured as f64)))
        .set(
            "cachesim.coalesced_ratio",
            Json::num(ratio(report.coalesced_requests() as f64, demand_misses as f64)),
        )
        .set("cachesim.origin_fetches", Json::num(report.origin_fetches() as f64))
        .set("coop.peer_fetches", Json::num(peer_fetches as f64))
        .set("coop.false_hit_ratio", Json::num(ratio(false_hits as f64, peer_fetches as f64)))
        .set("coop.digest_bytes", Json::num(report.digest_bytes() as f64))
        .set("faults.retries", Json::num(report.retries() as f64))
        .set(
            "faults.timeouts",
            Json::num(report.nodes.iter().map(|n| n.timeouts).sum::<u64>() as f64),
        )
        .set("faults.failed_fetches", Json::num(report.failed_fetches() as f64))
        .set("faults.unavailability", Json::num(report.unavailability()))
        .set("queueing.max_link_rho", Json::num(report.max_link_utilisation()))
        .set("net.bytes_per_request", Json::num(report.bytes_per_request))
        .set("sim.mean_access_s", Json::num(report.mean_access_time));
    for (bucket, share) in demand_latency_shares(obs.traces.as_ref()) {
        m = m.set(format!("trace.share.{bucket}"), Json::num(share));
    }
    m
}

/// Share of measured demand latency (demand misses, delayed hits and
/// failed requests) that the sampled traces attribute to each bucket.
fn demand_latency_shares(store: Option<&TraceStore>) -> Vec<(&'static str, f64)> {
    const SHOWN: [&str; 7] = ["queue", "service", "prop", "wait", "timeout", "backoff", "redirect"];
    let mut sums = [0.0; SHOWN.len()];
    let mut latency = 0.0;
    let demand = [TraceClass::Demand, TraceClass::DelayedHit, TraceClass::Failed];
    for tr in store.into_iter().flat_map(|s| &s.traces) {
        if !tr.measured || !demand.contains(&tr.class) {
            continue;
        }
        latency += tr.latency();
        for seg in &tr.segments {
            if let Some(i) = SHOWN.iter().position(|&b| b == seg.bucket()) {
                sums[i] += seg.duration();
            }
        }
    }
    SHOWN
        .iter()
        .zip(sums)
        .map(|(&b, s)| (b, if latency > 0.0 { s / latency } else { 0.0 }))
        .collect()
}

/// Median wall time of `reps` calls of `f`, in seconds. Whatever `f`
/// returns is dropped outside the timed region.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = black_box(f());
            let t = start.elapsed().as_secs_f64();
            drop(out);
            t
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Times isolated calls into each layer on the workload's own inputs.
/// Layers the workload never calls report 0.
fn layers_job(spec: &Spec, seed: u64) -> Json {
    let size = Exponential::with_mean(1.0);
    let cfg = spec.config(&size, false);
    let topo = &cfg.topology;
    let n_proxies = topo.n_proxies();
    let mut rng = Rng::new(seed);
    let mut out = Json::obj();

    out =
        out.set("cluster.validate_ms", Json::num(1e3 * time_median(21, || ClusterSim::new(&cfg))));

    // The PS server is driven at the offered load of proxy 0's access
    // link if every request were fetched. The scheduler holds one shard's
    // timers: two per link and, per proxy, five in the closed loop and
    // four in the open loop.
    let access_bw = topo.links()[1].bandwidth;
    let links = topo.links().len();
    let (job_rate, timers, closed) = match &cfg.workload {
        Workload::Static(w) => {
            let p = &w.proxies[0];
            (p.lambda * (1.0 - p.h_prime - p.n_f * p.p + p.n_f), 2 * links + 4 * n_proxies, None)
        }
        Workload::Adaptive(w) | Workload::Cooperative(CooperativeWorkload { base: w, .. }) => {
            (w.proxies[0].lambda, 2 * links + 5 * n_proxies, Some(w))
        }
        Workload::Trace(_) => unreachable!("no trace workload in the benchmark"),
    };
    let timers = timers / spec.shards;
    out = out.set("sched.op_ns", Json::num(sched_op_ns(timers, &mut rng)));
    out = out.set("queueing.ps_job_ns", Json::num(ps_job_ns(access_bw, job_rate, &mut rng)));
    let loss_ns = spec.faults.as_ref().map_or(0.0, |f| loss_roll_ns(&f.plan, topo, seed, &mut rng));
    out = out.set("faults.loss_roll_ns", Json::num(loss_ns));

    let (mut build_ms, mut oracle_ms, mut probe_ns) = (0.0, 0.0, 0.0);
    if let Some(w) = closed {
        let web_cfg = w.proxies[0];
        let structure = w.shared_structure_seed.unwrap_or(seed);
        build_ms = 1e3 * time_median(15, || SynthWeb::new(web_cfg, &mut Rng::new(structure)));
        let web = SynthWeb::new(web_cfg, &mut Rng::new(structure));
        oracle_ms = 1e3 * time_median(15, || OraclePredictor::from_chain(&web.chain));
        probe_ns = probe_via_ns(web, w.cache_capacity, &mut rng);
    }
    out = out
        .set("workload.structure_build_ms", Json::num(build_ms))
        .set("predictor.oracle_build_ms", Json::num(oracle_ms))
        .set("cachesim.probe_ns", Json::num(probe_ns));

    let (mut resolve_ns, mut refresh_ms) = (0.0, 0.0);
    if let Workload::Cooperative(c) = &cfg.workload {
        let items = c.base.proxies[0].n_items as u64;
        let churn = (c.base.proxies[0].lambda * c.coop.digest.epoch / 2.0).round() as usize;
        let mut router = Router::new(n_proxies, c.base.cache_capacity, c.coop);
        let mut held: Vec<Vec<u64>> = (0..n_proxies)
            .map(|_| {
                let mut keys: Vec<u64> = (0..items).collect();
                rng.shuffle(&mut keys);
                keys
            })
            .collect();
        let cap = c.base.cache_capacity;
        let loads = vec![0.0; n_proxies];
        let mut deltas: Vec<Vec<DeltaOp>> =
            held.iter().map(|k| k[..cap].iter().map(|&x| DeltaOp::Insert(x)).collect()).collect();
        let mut t = c.coop.digest.epoch;
        router.apply_deltas(t, &mut deltas, &loads);

        let queries: Vec<(usize, u64)> =
            (0..200_000).map(|_| (rng.index(n_proxies), rng.below(items))).collect();
        let start = Instant::now();
        for &(me, key) in &queries {
            black_box(router.resolve(me, key));
        }
        resolve_ns = 1e9 * start.elapsed().as_secs_f64() / queries.len() as f64;

        // One epoch of churn per proxy: evict the oldest `churn` cached
        // keys, insert as many uncached ones (rotating each proxy's list).
        let mut epoch = || {
            for (p, keys) in held.iter_mut().enumerate() {
                let ops = &mut deltas[p];
                for j in 0..churn {
                    ops.push(DeltaOp::Evict(keys[j]));
                    ops.push(DeltaOp::Insert(keys[cap + j]));
                }
                keys.rotate_left(churn);
            }
            t += c.coop.digest.epoch;
            let start = Instant::now();
            router.apply_deltas(t, &mut deltas, &loads);
            start.elapsed().as_secs_f64()
        };
        let mut times: Vec<f64> = (0..41).map(|_| epoch()).collect();
        times.sort_by(f64::total_cmp);
        refresh_ms = 1e3 * times[times.len() / 2];
    }
    out.set("coop.resolve_ns", Json::num(resolve_ns)).set("coop.refresh_ms", Json::num(refresh_ms))
}

/// ns per `Scheduler::pop` + re-arming `sync` with `timers` armed keys.
fn sched_op_ns(timers: usize, rng: &mut Rng) -> f64 {
    let mut sched = Scheduler::with_timers(timers);
    for k in 0..timers {
        sched.sync(k, Some(rng.exp(1.0)));
    }
    let gaps: Vec<f64> = (0..1 << 16).map(|_| rng.exp(1.0)).collect();
    let ops = 2_000_000;
    let start = Instant::now();
    for i in 0..ops {
        let (t, k) = sched.pop().expect("every key stays armed");
        sched.sync(k, Some(t + gaps[i & 0xffff]));
    }
    1e9 * start.elapsed().as_secs_f64() / ops as f64
}

/// ns per `FaultPlan::attempt_lost` roll — one per link a fetch attempt
/// crosses — on the workload's own plan, over its access links and
/// backbone.
fn loss_roll_ns(plan: &FaultPlan, topo: &Topology, seed: u64, rng: &mut Rng) -> f64 {
    let routed = 1 + topo.n_proxies();
    let rolls: Vec<(usize, f64)> =
        (0..200_000).map(|_| (rng.index(routed), rng.f64() * 50.0)).collect();
    let start = Instant::now();
    for (job, &(link, t)) in rolls.iter().enumerate() {
        black_box(plan.attempt_lost(seed, link, job as u64, 0, t));
    }
    1e9 * start.elapsed().as_secs_f64() / rolls.len() as f64
}

/// ns per job through a `PsServer` (`arrive` plus its departure's
/// `on_event`) under Poisson arrivals of unit-mean exponential jobs.
fn ps_job_ns(bandwidth: f64, rate: f64, rng: &mut Rng) -> f64 {
    let jobs = 1_000_000;
    let size = Exponential::with_mean(1.0);
    let input: Vec<(f64, f64)> = (0..jobs).map(|_| (rng.exp(rate), size.sample(rng))).collect();
    let mut server: PsServer<u64> = PsServer::new(bandwidth);
    let mut t = 0.0;
    let start = Instant::now();
    for (i, &(gap, work)) in input.iter().enumerate() {
        t += gap;
        while let Some(due) = server.next_event().filter(|&d| d <= t) {
            black_box(server.on_event(due));
        }
        server.arrive(t, work, i as u64);
    }
    while let Some(due) = server.next_event() {
        black_box(server.on_event(due));
    }
    1e9 * start.elapsed().as_secs_f64() / jobs as f64
}

/// ns per request through `TaggedCache::probe_via` an `Mshr`, on the
/// workload's own request stream; each fetch lands (completes its entry
/// and is admitted) 8 requests after it was launched.
fn probe_via_ns(mut web: SynthWeb, capacity: usize, rng: &mut Rng) -> f64 {
    const LAND_AFTER: usize = 8;
    let requests: Vec<_> = (0..500_000).map(|_| web.next_request(rng)).collect();
    let mut cache = TaggedCache::new(LruCache::new(capacity));
    let mut mshr = Mshr::new(MshrConfig::default());
    let mut in_flight = std::collections::VecDeque::new();
    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        while in_flight.front().is_some_and(|&(due, _)| due <= i) {
            let (_, item) = in_flight.pop_front().expect("front exists");
            black_box(mshr.complete(&item));
            cache.admit_after_fetch(item);
        }
        let access = cache.probe_via(&mut mshr, r.item, r.time, r.size, Waiter::demand(r.time));
        if let MshrAccess::Fetch { tracked: true } = access {
            in_flight.push_back((i + LAND_AFTER, r.item));
        }
    }
    1e9 * start.elapsed().as_secs_f64() / requests.len() as f64
}

//! Closed-loop cluster engine: adaptive prefetching, optionally with
//! cooperative caching.
//!
//! Each proxy is a real edge cache: a Zipf catalog with Markov client
//! navigation (`workload::SynthWeb`), a shared tagged LRU cache
//! (`cachesim::TaggedCache`) fronting its whole client population, an
//! online `prefetch_core::AdaptiveController` provisioned against the
//! proxy's bottleneck bandwidth, and a per-proxy access predictor that
//! proposes prefetch candidates with probabilities. Misses and accepted
//! prefetches traverse a route of queueing links; items are partitioned
//! over origin shards by `item % n_shards`.
//!
//! Because every controller estimates `ρ̂′` from *its own* traffic, two
//! proxies with different local load converge to different thresholds —
//! the per-node divergence the cluster experiment (E13) demonstrates.
//!
//! With a [`coop::CoopConfig`] attached (the [`crate::Workload::Cooperative`]
//! mode, experiment E14), a [`coop::Router`] additionally resolves every
//! miss and prefetch against the peers' Bloom digests and the consistent-
//! hash placement ring: a `Peer(q)` resolution traverses the proxy↔proxy
//! peer links instead of the backbone, and a transfer that reaches a peer
//! not actually holding the entry (a **false hit** — epoch staleness or a
//! structural Bloom false positive) falls back to the origin, paying both
//! paths. Digest refresh is a first-class periodic event firing exactly on
//! the epoch grid `k · epoch`, at which point the placement policy may
//! migrate virtual nodes from hot proxies to cold ones. With a single
//! proxy the router always resolves to the origin and the engine makes
//! exactly the draws of plain adaptive mode — the parity the integration
//! tests pin.
//!
//! ## Event core vs drivers
//!
//! The module is an [`Engine`] — a **scope** of the simulation state
//! (some subset of proxies and link servers, or all of them) plus one
//! handler per event kind — while event *selection* lives in the
//! [`crate::shard`] drivers: the single-threaded merge (the classic
//! driver, and the parity oracle) and the conservative-window
//! multi-threaded driver. Handlers never reach outside their scope:
//! anything an event does to an entity at a later instant or in another
//! scope is emitted as a timestamped [`Effect`] which the driver settles —
//! depth-first at the same instant (reproducing inline handling
//! bit-for-bit), through per-entity `TimedQueue`s when the topology's
//! link latency puts it in the future, and across shard mailboxes when it
//! belongs to another thread. On zero-latency topologies every effect
//! settles at its emission instant and the engine behaves exactly as the
//! pre-shard monolith — pinned against the retired scan driver
//! ([`crate::legacy`]) by the engine-parity tests.
//!
//! Digest refresh turned into a two-phase protocol so it shards: each
//! scope builds per-proxy [`RefreshPayload`]s (delta streams, snapshots,
//! or the cheaper of the two under [`RefreshStrategy::Auto`] — the
//! compaction fallback), and the driver flushes them to the shared router
//! at the epoch boundary.

use crate::obs::{ClusterObs, EngineObs};
use crate::report::{ClusterReport, CoopReport, LinkReport, NodeReport};
use crate::shard::{
    self, Effect, ShardRunner, CLASS_ARRIVE, CLASS_CHECK, CLASS_DELIVER, CLASS_DEPART, CLASS_FAIL,
    CLASS_PREFETCH, CLASS_REQUEST, N_CLASSES,
};
use crate::sim::{proxy_seed, LinkState, Scope, ScopeIndex};
use crate::topology::ShardPlan;
use crate::{
    AdaptiveWorkload, CandidateSource, DelayedHitsConfig, ProxyPolicy, RankingMode, Topology,
    TraceWorkload,
};
use cachesim::{
    AccessKind, FetchOrigin, LruCache, Mshr, MshrAccess, MshrConfig, ReplacementCache, TaggedCache,
    ValueAwareCache, Waiter,
};
use coop::{CoopConfig, DeltaOp, RefreshPayload, RefreshStrategy, Router};
use predictor::{MarkovPredictor, OraclePredictor, Predictor};
use prefetch_core::controller::{AdaptiveController, ControllerConfig};
use prefetch_core::estimator::EntryStatus;
use prefetch_core::AggregateDelay;
use simcore::faults::{FaultConfig, FaultKind};
use simcore::obs::ObsConfig;
use simcore::rng::Rng;
use simcore::sched::TimedQueue;
use simcore::stats::{BatchMeans, Welford};
use simcore::trace::{
    self, SpanEvent, SpanKind, TraceBuf, TraceStore, TF_FALSE_HIT, TF_MEASURED, TF_PREFETCH,
};
use simcore::{Registry, Scheduler};
use std::collections::{BinaryHeap, HashMap};
use std::io::Read;
use workload::events::TraceStream;
use workload::synth_web::SynthWeb;
use workload::{ItemId, TraceRecord};

#[derive(Clone, Copy, Debug)]
enum JobKind {
    Demand { measured: bool },
    Prefetch { measured: bool },
}

/// Where a transfer is being served from.
#[derive(Clone, Copy, Debug)]
enum Dest {
    /// The item's origin shard, over the proxy's origin route.
    Origin,
    /// A peer proxy's cache, over the peer route.
    Peer(u32),
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Job {
    /// Stable id: requesting proxy in the high bits, that proxy's job
    /// sequence number in the low — allocation is per proxy, so ids are
    /// identical under every sharding (they break `(time, id)` ties in
    /// the pending queues).
    id: u64,
    proxy: u32,
    shard: u32,
    dest: Dest,
    hop: usize,
    size: f64,
    /// Bytes this transfer has cost so far: `size`, plus `size` again for
    /// every false-hit fallback path — the per-transfer quantity good/bad
    /// prefetch accounting conserves.
    spent: f64,
    issued: f64,
    item: ItemId,
    kind: JobKind,
    /// Whether this fetch owns an MSHR entry (false = a bypassed demand
    /// fetch on a full table). Failure settlement reclassifies exactly
    /// what the launch allocated.
    tracked: bool,
    /// Trace id when this job is head-sampled, 0 otherwise. Rides the job
    /// through effects/mailboxes so cross-shard hops keep recording.
    trace: u64,
    /// Per-trace record counter: `(trace, tseq)` totally orders the job's
    /// span records independent of sharding.
    tseq: u32,
}

impl Job {
    /// The link path this job is currently traversing.
    fn path<'t>(&self, topology: &'t Topology) -> &'t [usize] {
        match self.dest {
            Dest::Origin => topology.route(self.proxy as usize, self.shard as usize),
            Dest::Peer(q) => topology.peer_route(self.proxy as usize, q as usize),
        }
    }
}

/// A prefetch decision waiting out its pacing jitter before hitting the
/// first link.
#[derive(Clone, Copy)]
struct PendingPrefetch {
    due: f64,
    item: ItemId,
    size: f64,
    measured: bool,
    /// When the prefetch was decided — the trace's pending-stall start.
    decided: f64,
}

impl PartialEq for PendingPrefetch {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for PendingPrefetch {}
impl PartialOrd for PendingPrefetch {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingPrefetch {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest due first.
        other.due.total_cmp(&self.due)
    }
}

/// The proxy's tagged cache under either ranking mode. Every call
/// delegates to the same `TaggedCache` method on the wrapped policy, so
/// the §4 estimator sees identical streams in both variants; only the
/// eviction order differs (LRU vs minimum aggregate delay).
enum Store {
    /// Classic recency ranking ([`RankingMode::Recency`], the default).
    Lru(TaggedCache<ItemId, LruCache<ItemId>>),
    /// Delayed-hits-aware ranking ([`RankingMode::AggregateDelay`]):
    /// evicts the minimum-aggregate-delay entry; values are maintained
    /// from the proxy's [`AggregateDelay`] scores at every settle.
    Ranked(TaggedCache<ItemId, ValueAwareCache<ItemId>>),
}

impl Store {
    fn probe_via(
        &mut self,
        mshr: &mut Mshr<ItemId>,
        k: ItemId,
        t: f64,
        bytes: f64,
        w: Waiter,
    ) -> MshrAccess {
        match self {
            Store::Lru(c) => c.probe_via(mshr, k, t, bytes, w),
            Store::Ranked(c) => c.probe_via(mshr, k, t, bytes, w),
        }
    }

    fn contains(&self, k: &ItemId) -> bool {
        match self {
            Store::Lru(c) => c.inner().contains(k),
            Store::Ranked(c) => c.inner().contains(k),
        }
    }

    fn charge_after_fetch(&mut self, k: ItemId, bytes: f64) -> (bool, Vec<ItemId>) {
        match self {
            Store::Lru(c) => c.charge_after_fetch(k, bytes),
            Store::Ranked(c) => c.charge_after_fetch(k, bytes),
        }
    }

    fn charge_prefetch(&mut self, k: ItemId, bytes: f64) -> (bool, Vec<ItemId>) {
        match self {
            Store::Lru(c) => c.charge_prefetch(k, bytes),
            Store::Ranked(c) => c.charge_prefetch(k, bytes),
        }
    }

    fn used_bytes(&self) -> f64 {
        match self {
            Store::Lru(c) => c.used_bytes(),
            Store::Ranked(c) => c.used_bytes(),
        }
    }

    fn keys(&self) -> Vec<ItemId> {
        match self {
            Store::Lru(c) => c.keys(),
            Store::Ranked(c) => c.keys(),
        }
    }

    /// Updates a cached entry's eviction value (no-op on the recency
    /// store, and for absent keys).
    fn set_value(&mut self, k: ItemId, v: f64) {
        if let Store::Ranked(c) = self {
            c.inner_mut().set_value(k, v);
        }
    }
}

/// The policy knobs the closed loop consults per event, identical whether
/// the request stream is synthetic or replayed. Copied out of the workload
/// at engine construction, so the hot path never branches on stream kind
/// to read a threshold.
#[derive(Clone, Copy)]
pub(crate) struct Knobs {
    cache_capacity: usize,
    cache_bytes: Option<f64>,
    max_candidates: usize,
    prefetch_jitter: f64,
    policy: ProxyPolicy,
    delayed: DelayedHitsConfig,
}

/// What drives the closed loop: a synthetic workload (the classic
/// adaptive/cooperative modes) or a recorded trace replayed from an
/// `.events` source ([`crate::Workload::Trace`]).
#[derive(Clone, Copy)]
pub(crate) enum EngineWorkload<'a> {
    Synth(&'a AdaptiveWorkload),
    Trace(&'a TraceWorkload),
}

impl EngineWorkload<'_> {
    pub(crate) fn knobs(&self) -> Knobs {
        match self {
            EngineWorkload::Synth(w) => Knobs {
                cache_capacity: w.cache_capacity,
                cache_bytes: w.cache_bytes,
                max_candidates: w.max_candidates,
                prefetch_jitter: w.prefetch_jitter,
                policy: w.policy,
                delayed: w.delayed,
            },
            EngineWorkload::Trace(w) => Knobs {
                cache_capacity: w.cache_capacity,
                cache_bytes: w.cache_bytes,
                max_candidates: w.max_candidates,
                prefetch_jitter: w.prefetch_jitter,
                policy: w.policy,
                delayed: w.delayed,
            },
        }
    }
}

/// One proxy's lazy cursor into a replayed trace. The stream covers the
/// *whole* trace; this proxy consumes only the records whose client id is
/// congruent to it modulo the recording's proxy count (the recorder folds
/// the source proxy into the client's low digits), so every proxy stays at
/// O(chunk) resident bytes regardless of trace length.
struct TraceFeed {
    stream: TraceStream<Box<dyn Read + Send>>,
    me: u32,
    stride: u32,
    /// Sizes learned from consumed records. With a Markov predictor every
    /// candidate is a previously observed item, so this table answers
    /// exactly the lookups the synthetic catalog would.
    sizes: HashMap<ItemId, f64>,
}

/// Per-proxy request source: the synthetic web model, or a trace feed.
enum Source {
    Synth(SynthWeb),
    Trace(TraceFeed),
}

impl Source {
    /// Next request for this proxy; `None` when a replayed trace runs out.
    /// Synthetic streams are endless. Replay decodes the recorder's
    /// client folding, so a re-recorded replay round-trips.
    fn next_request(&mut self, rng: &mut Rng) -> Option<TraceRecord> {
        match self {
            Source::Synth(web) => Some(web.next_request(rng)),
            Source::Trace(feed) => {
                for rec in &mut feed.stream {
                    let rec = match rec {
                        Ok(r) => r,
                        Err(e) => panic!("trace replay failed: {e}"),
                    };
                    if rec.client % feed.stride == feed.me {
                        feed.sizes.insert(rec.item, rec.size);
                        return Some(TraceRecord {
                            time: rec.time,
                            client: rec.client / feed.stride,
                            item: rec.item,
                            size: rec.size,
                        });
                    }
                }
                None
            }
        }
    }

    /// Size of `item`, if known. Always `Some` on synthetic sources; on
    /// replay, `Some` exactly for items this proxy has already seen —
    /// which covers every Markov candidate.
    fn size_of(&self, item: ItemId) -> Option<f64> {
        match self {
            Source::Synth(web) => Some(web.catalog.size(item)),
            Source::Trace(feed) => feed.sizes.get(&item).copied(),
        }
    }
}

struct ProxyState {
    rng: Rng,
    jitter_rng: Rng,
    source: Source,
    cache: Store,
    controller: AdaptiveController,
    predictor: Box<dyn Predictor + Send>,
    /// Outstanding-fetch table: one entry per in-flight item (demand
    /// fetches and reserved prefetches), carrying the FIFO waiter queue
    /// of demand misses coalesced onto the fetch.
    mshr: Mshr<ItemId>,
    /// Per-key aggregate-delay scores — `Some` exactly under
    /// [`RankingMode::AggregateDelay`], charged at every settled fetch.
    agg: Option<AggregateDelay<ItemId>>,
    /// Measured requests settled as delayed hits (waiters on an
    /// outstanding fetch inside the measurement window).
    delayed_hits: u64,
    /// Residual waits of those measured delayed hits.
    residual: Welford,
    delayed: BinaryHeap<PendingPrefetch>,
    /// Bytes spent on the prefetch transfer behind each *untagged* cache
    /// entry, credited to goodput once, on the entry's first use. Keyed by
    /// item; an entry is removed exactly when the item's untagged copy is
    /// first accessed, so each distinct prefetched entry is counted at
    /// most once and goodput can never exceed the prefetched volume.
    prefetch_cost: HashMap<ItemId, f64>,
    pending: Option<TraceRecord>,
    job_seq: u64,
    issued: u64,
    access_times: BatchMeans,
    retrievals: Welford,
    total_job_time: f64,
    hits: u64,
    measured: u64,
    prefetch_jobs: u64,
    threshold_sum: f64,
    threshold_n: u64,
    demand_bytes: f64,
    prefetch_bytes: f64,
    used_prefetch_bytes: f64,
    peer_bytes: f64,
    peer_fetches: u64,
    peer_false_hits: u64,
    /// Fetch attempts declared failed at their timeout (fault runs only;
    /// all of the following stay zero under an empty plan).
    timeouts: u64,
    /// Re-attempts the retry budget paid for after a timeout.
    retries: u64,
    /// Peer-routed fetches rerouted to the origin because their peer
    /// route was dark at launch.
    failovers: u64,
    /// Fetches (demand and prefetch) that exhausted their attempt budget
    /// and settled as failed.
    failed_fetches: u64,
    /// Measured requests (fetch owners and coalesced waiters) that
    /// settled with a failure instead of data — the unavailability
    /// numerator.
    measured_failed: u64,
    /// Cache entries wiped by crashes plus digest delta ops dropped by
    /// crashes/digest-loss faults.
    lost_entries: u64,
}

/// One scope of closed-loop simulation state plus one handler per event
/// kind. Drivers (`crate::shard`) own only event *selection* and effect
/// routing; every state transition lives here, so no two drivers can
/// diverge semantically.
pub(crate) struct Engine<'a> {
    topology: &'a Topology,
    knobs: Knobs,
    n_shards: u64,
    pub(crate) scope: Scope,
    /// Local link servers, indexed by scope-local link id.
    pub(crate) links: Vec<LinkState>,
    /// How this scope's proxies flush their digests at epoch boundaries.
    refresh_strategy: RefreshStrategy,
    /// Delta-stream length past which `Auto` ships a snapshot instead
    /// (`⌈capacity · bits / 8⌉ / 9` ops — the E16 crossover).
    delta_crossover: u64,
    coop_on: bool,
    /// Per-local-proxy digest-delta buffers: one op per cache-content
    /// change since the last epoch boundary, drained into the refresh
    /// payloads. Empty (never written) without a router.
    deltas: Vec<Vec<DeltaOp>>,
    proxies: Vec<ProxyState>,
    /// Jobs currently on this scope's links, by job id. A job in a
    /// pending queue or in flight to another shard lives in its
    /// effect/queue entry instead.
    jobs: HashMap<u64, Job>,
    /// Per-local-link queued arrivals (latency topologies only).
    arrivals: Vec<TimedQueue<Job>>,
    /// Per-local-proxy queued peer-serve checks.
    checks: Vec<TimedQueue<Job>>,
    /// Per-local-proxy queued response deliveries (`false_hit` flagged).
    delivers: Vec<TimedQueue<(Job, bool)>>,
    /// Per-local-proxy queued fetch-failure settlements (fault runs only;
    /// empty and never polled past its `None` head otherwise).
    fails: Vec<TimedQueue<Job>>,
    /// Cross-instant / cross-scope handoffs staged for the driver.
    effects: Vec<Effect<Job>>,
    /// Timer streams touched since the driver last re-synced.
    dirty: Vec<(usize, usize)>,
    t_end: f64,
    warm: u64,
    n_requests: u64,
    /// Probe state when this run is observed; `None` (the default) keeps
    /// every hook to a single branch.
    obs: Option<Box<EngineObs>>,
    /// Span buffer when this run is traced; same zero-overhead contract
    /// as `obs`.
    trace: Option<Box<TraceBuf>>,
    /// Per-local-proxy recorded requests when this run records a trace
    /// (`None`, the default, keeps the hook to one branch per request).
    recorder: Option<Vec<Vec<TraceRecord>>>,
    /// Client-id folding stride for the recorder: the recorded client is
    /// `proxy + stride * client`, so replay can route each record back to
    /// its source proxy by `client % stride`.
    client_stride: u32,
    /// Fault schedule and retry policy when this run injects faults;
    /// `None` keeps every fault hook to one branch, and an **empty** plan
    /// behaves bit-identically to `None` (every query answers healthy
    /// without touching a float or an RNG).
    faults: Option<&'a FaultConfig>,
    /// The run seed — packet-loss rolls and backoff jitter are pure
    /// hashes of it, never draws from the workload RNG streams.
    seed: u64,
    /// Per-local-proxy "ship a full snapshot at the next epoch boundary"
    /// flags, set by crash/digest-loss faults (parallel to `deltas`).
    force_snapshot: Vec<bool>,
}

/// Mirrors one access-time sample into the latency probe. A free function
/// over the `obs` field alone, so call sites holding a `&mut` proxy can
/// still record (disjoint-field borrows).
#[inline]
fn obs_lat(obs: &mut Option<Box<EngineObs>>, x: f64) {
    if let Some(o) = obs.as_deref_mut() {
        o.latency(x);
    }
}

/// Appends one span record for a traced job and advances its per-trace
/// sequence counter. Free function over the buffer alone (like
/// [`obs_lat`]) so call sites holding a `&mut` proxy can record.
#[inline]
fn trace_job(
    buf: &mut Option<Box<TraceBuf>>,
    job: &mut Job,
    t: f64,
    kind: SpanKind,
    entity: u64,
    aux: f64,
    flags: u8,
) {
    if let Some(b) = buf.as_deref_mut() {
        if job.trace != 0 {
            let seq = job.tseq;
            job.tseq += 1;
            b.push(SpanEvent {
                trace: job.trace,
                seq,
                t,
                kind,
                entity,
                aux,
                item: job.item.0,
                flags,
            });
        }
    }
}

/// Appends a single-record trace (a cache hit or an in-flight wait).
#[inline]
#[allow(clippy::too_many_arguments)]
fn trace_point(
    buf: &mut Option<Box<TraceBuf>>,
    id: u64,
    t: f64,
    kind: SpanKind,
    entity: u64,
    aux: f64,
    item: u64,
    flags: u8,
) {
    if id != 0 {
        if let Some(b) = buf.as_deref_mut() {
            b.push(SpanEvent { trace: id, seq: 0, t, kind, entity, aux, item, flags });
        }
    }
}

/// Settles a completed MSHR entry's waiters at `t`, in FIFO order: one
/// `Wait` span per waiter; measured waiters record their residual wait as
/// an access time and count as **delayed hits**. Returns the sum of all
/// waiters' residual waits — the aggregate-delay charge the blocking key
/// accrues beyond the fetch's own latency. A free function (like
/// [`obs_lat`]) so call sites holding a `&mut` proxy can settle.
fn settle_waiters(
    trace: &mut Option<Box<TraceBuf>>,
    obs: &mut Option<Box<EngineObs>>,
    p: &mut ProxyState,
    waiters: &[Waiter],
    t: f64,
    proxy: u64,
    item: u64,
) -> f64 {
    let mut residual_sum = 0.0;
    for w in waiters {
        let wf = if w.measured { TF_MEASURED } else { 0 };
        trace_point(trace, w.trace, t, SpanKind::Wait, proxy, w.t, item, wf);
        residual_sum += t - w.t;
        if w.measured {
            p.delayed_hits += 1;
            p.residual.push(t - w.t);
            p.access_times.push(t - w.t);
            obs_lat(obs, t - w.t);
        }
    }
    residual_sum
}

/// Settles the waiters of a **failed** fetch at `t`: their wait ends with
/// a failure, not data, so they count toward unavailability instead of
/// delayed hits. Each measured waiter still records the full wall-clock it
/// spent blocked as an access time — graceful degradation is visible in
/// `t̄`, not hidden from it.
fn settle_failed_waiters(
    trace: &mut Option<Box<TraceBuf>>,
    obs: &mut Option<Box<EngineObs>>,
    p: &mut ProxyState,
    waiters: &[Waiter],
    t: f64,
    proxy: u64,
    item: u64,
) {
    for w in waiters {
        let wf = if w.measured { TF_MEASURED } else { 0 };
        trace_point(trace, w.trace, t, SpanKind::Wait, proxy, w.t, item, wf);
        if w.measured {
            p.measured_failed += 1;
            p.access_times.push(t - w.t);
            obs_lat(obs, t - w.t);
        }
    }
}

/// Bookkeeping shared by every cache admission: drop evicted entries'
/// pending prefetch-cost records (they can never be credited once the
/// entry is gone) and append the ops the digest delta protocol ships at
/// the next epoch boundary. `deltas` is empty when no router is attached,
/// which disables the recording without a branch at every site.
fn note_cache_change(
    deltas: &mut [Vec<DeltaOp>],
    proxy: usize,
    p: &mut ProxyState,
    item: ItemId,
    admitted: bool,
    evicted: &[ItemId],
) {
    for v in evicted {
        p.prefetch_cost.remove(v);
    }
    if let Some(d) = deltas.get_mut(proxy) {
        for v in evicted {
            d.push(DeltaOp::Evict(v.0));
        }
        if admitted {
            d.push(DeltaOp::Insert(item.0));
        }
    }
}

/// Resolves where a miss/prefetch at global proxy `me` is served from.
fn resolve(router: Option<&Router>, me: usize, item: ItemId) -> Dest {
    match router.map(|r| r.resolve(me, item.0)) {
        Some(coop::Resolution::Peer(q)) => Dest::Peer(q as u32),
        _ => Dest::Origin,
    }
}

/// Builds one proxy's (empty) tagged store from the policy knobs — used
/// at construction and again when a crash fault cold-restarts the proxy.
fn new_store(knobs: &Knobs) -> Store {
    match knobs.delayed.ranking {
        RankingMode::Recency => Store::Lru(TaggedCache::new(match knobs.cache_bytes {
            Some(bytes) => LruCache::with_byte_capacity(knobs.cache_capacity, bytes),
            None => LruCache::new(knobs.cache_capacity),
        })),
        RankingMode::AggregateDelay => Store::Ranked(TaggedCache::new(match knobs.cache_bytes {
            Some(bytes) => ValueAwareCache::with_byte_capacity(knobs.cache_capacity, bytes),
            None => ValueAwareCache::new(knobs.cache_capacity),
        })),
    }
}

/// Workload structure built once per run, before any shard engine exists.
///
/// Under a shared structure seed every proxy whose config has the same
/// [`SynthWebConfig::structure_key`] draws the same catalogue, chain and
/// initial client positions from `Rng::new(seed)`, so one [`SynthWeb`]
/// (and, for oracle candidates, one successor table) per distinct key
/// serves them all: each proxy gets a [`SynthWeb::with_lambda`] clone
/// that shares the catalogue and chain through `Arc`, and a predictor
/// clone that shares the table. Without a shared seed each proxy draws
/// its own structure from its own stream at engine construction.
///
/// [`SynthWebConfig::structure_key`]: workload::synth_web::SynthWebConfig::structure_key
pub(crate) struct Structures {
    /// Per global proxy, its entry in `shared`; empty when proxies draw
    /// their own structures.
    of_proxy: Vec<usize>,
    shared: Vec<(SynthWeb, Option<OraclePredictor>)>,
}

impl Structures {
    pub(crate) fn build(workload: EngineWorkload<'_>) -> Structures {
        let mut out = Structures { of_proxy: Vec::new(), shared: Vec::new() };
        let EngineWorkload::Synth(w) = workload else { return out };
        let Some(seed) = w.shared_structure_seed else { return out };
        let mut index: HashMap<[u64; 6], usize> = HashMap::new();
        for cfg in &w.proxies {
            let k = *index.entry(cfg.structure_key()).or_insert_with(|| {
                let web = SynthWeb::new(*cfg, &mut Rng::new(seed));
                let oracle = oracle_for(w, &web);
                out.shared.push((web, oracle));
                out.shared.len() - 1
            });
            out.of_proxy.push(k);
        }
        out
    }

    /// Global proxy `i`'s request generator and candidate predictor. A
    /// proxy without a shared structure draws its own from `rng`.
    fn proxy(
        &self,
        w: &AdaptiveWorkload,
        i: usize,
        rng: &mut Rng,
    ) -> (SynthWeb, Box<dyn Predictor + Send>) {
        let cfg = &w.proxies[i];
        let (web, oracle) = match self.of_proxy.get(i) {
            Some(&k) => {
                let (web, oracle) = &self.shared[k];
                (web.with_lambda(cfg.lambda), oracle.clone())
            }
            None => {
                let web = SynthWeb::new(*cfg, rng);
                let oracle = oracle_for(w, &web);
                (web, oracle)
            }
        };
        let predictor: Box<dyn Predictor + Send> = match oracle {
            Some(o) => Box::new(o),
            None => Box::new(MarkovPredictor::new(1)),
        };
        (web, predictor)
    }
}

/// The oracle over `web`'s chain, when the workload asks for oracle
/// candidates.
fn oracle_for(w: &AdaptiveWorkload, web: &SynthWeb) -> Option<OraclePredictor> {
    matches!(w.predictor, CandidateSource::Oracle).then(|| OraclePredictor::from_chain(&web.chain))
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        topology: &'a Topology,
        workload: EngineWorkload<'a>,
        coop_cfg: Option<&CoopConfig>,
        requests: usize,
        warmup: usize,
        seed: u64,
        scope: Scope,
        faults: Option<&'a FaultConfig>,
        structures: &Structures,
    ) -> Self {
        if let Some(fc) = faults {
            fc.retry.validate();
        }
        let links: Vec<LinkState> =
            scope.links.iter().map(|&g| LinkState::new(&topology.links()[g])).collect();
        let knobs = workload.knobs();

        let proxies: Vec<ProxyState> = scope
            .proxies
            .iter()
            .map(|&i| {
                let mut rng = Rng::new(proxy_seed(seed, i));
                // The jitter stream splits off *before* any workload draw,
                // so it is a pure function of (seed, proxy) — replaying a
                // recorded run reconstructs the identical jitter sequence.
                let jitter_rng = rng.split();
                let (mut source, predictor): (Source, Box<dyn Predictor + Send>) = match workload {
                    EngineWorkload::Synth(w) => {
                        let (web, predictor) = structures.proxy(w, i, &mut rng);
                        (Source::Synth(web), predictor)
                    }
                    EngineWorkload::Trace(tw) => {
                        // Oracle candidates need the generating chain, which
                        // a replayed trace does not carry — rejected by
                        // `TraceWorkload::validate`.
                        debug_assert!(matches!(tw.predictor, CandidateSource::Markov1));
                        let feed = TraceFeed {
                            stream: tw
                                .source
                                .open(tw.chunk_records)
                                .expect("validated trace source"),
                            me: i as u32,
                            stride: topology.n_proxies() as u32,
                            sizes: HashMap::new(),
                        };
                        (Source::Trace(feed), Box::new(MarkovPredictor::new(1)))
                    }
                };
                let pending = source.next_request(&mut rng);
                ProxyState {
                    rng,
                    jitter_rng,
                    source,
                    cache: new_store(&knobs),
                    controller: AdaptiveController::new(ControllerConfig::model_a(
                        topology.proxy_bottleneck(i),
                    )),
                    predictor,
                    mshr: Mshr::new(MshrConfig {
                        entries: knobs.delayed.mshr_entries,
                        coalesce: knobs.delayed.coalesce,
                    }),
                    agg: matches!(knobs.delayed.ranking, RankingMode::AggregateDelay)
                        .then(AggregateDelay::new),
                    delayed_hits: 0,
                    residual: Welford::new(),
                    delayed: BinaryHeap::new(),
                    prefetch_cost: HashMap::new(),
                    pending,
                    job_seq: 0,
                    issued: 0,
                    access_times: BatchMeans::new(20),
                    retrievals: Welford::new(),
                    total_job_time: 0.0,
                    hits: 0,
                    measured: 0,
                    prefetch_jobs: 0,
                    threshold_sum: 0.0,
                    threshold_n: 0,
                    demand_bytes: 0.0,
                    prefetch_bytes: 0.0,
                    used_prefetch_bytes: 0.0,
                    peer_bytes: 0.0,
                    peer_fetches: 0,
                    peer_false_hits: 0,
                    timeouts: 0,
                    retries: 0,
                    failovers: 0,
                    failed_fetches: 0,
                    measured_failed: 0,
                    lost_entries: 0,
                }
            })
            .collect();

        let deltas = match coop_cfg {
            Some(_) => vec![Vec::new(); proxies.len()],
            None => Vec::new(),
        };
        let force_snapshot = vec![false; deltas.len()];
        let delta_crossover = coop_cfg
            .map(|c| c.digest.delta_crossover_ops(knobs.cache_capacity))
            .unwrap_or(u64::MAX);
        Engine {
            topology,
            knobs,
            n_shards: topology.n_shards() as u64,
            links,
            refresh_strategy: coop_cfg.map(|c| c.refresh).unwrap_or_default(),
            delta_crossover,
            coop_on: coop_cfg.is_some(),
            deltas,
            proxies,
            jobs: HashMap::new(),
            arrivals: (0..scope.links.len()).map(|_| TimedQueue::new()).collect(),
            checks: (0..scope.proxies.len()).map(|_| TimedQueue::new()).collect(),
            delivers: (0..scope.proxies.len()).map(|_| TimedQueue::new()).collect(),
            fails: (0..scope.proxies.len()).map(|_| TimedQueue::new()).collect(),
            effects: Vec::new(),
            dirty: Vec::new(),
            t_end: 0.0,
            warm: warmup as u64,
            n_requests: requests as u64,
            scope,
            obs: None,
            trace: None,
            recorder: None,
            client_stride: topology.n_proxies() as u32,
            faults,
            seed,
            force_snapshot,
        }
    }

    /// Arms this scope's request recorder: every issued request is kept as
    /// a [`TraceRecord`] with the proxy folded into the client id.
    pub(crate) fn attach_recorder(&mut self) {
        self.recorder = Some(vec![Vec::new(); self.proxies.len()]);
    }

    /// Takes this scope's recorded requests, tagged with global proxy ids.
    pub(crate) fn take_recorded(&mut self) -> Vec<(usize, Vec<TraceRecord>)> {
        match self.recorder.take() {
            Some(parts) => self.scope.proxies.iter().copied().zip(parts).collect(),
            None => Vec::new(),
        }
    }

    /// Replay accounting for this scope: `(records consumed, max per-stream
    /// resident bytes)`. `None` when no proxy replays a trace.
    pub(crate) fn replay_stats(&self) -> Option<(u64, usize)> {
        let mut any = false;
        let (mut records, mut peak) = (0u64, 0usize);
        for p in &self.proxies {
            if let Source::Trace(feed) = &p.source {
                any = true;
                records += p.issued;
                peak = peak.max(feed.stream.peak_resident_bytes());
            }
        }
        any.then_some((records, peak))
    }

    /// Arms this scope's observability probes.
    pub(crate) fn attach_obs(&mut self, o: EngineObs) {
        self.obs = Some(Box::new(o));
    }

    /// Arms this scope's span buffer, head-sampling 1-in-`every`.
    pub(crate) fn attach_trace(&mut self, every: u64) {
        self.trace = Some(Box::new(TraceBuf::new(every)));
    }

    /// Takes this scope's recorded span events (empties the buffer).
    pub(crate) fn take_trace_events(&mut self) -> Vec<SpanEvent> {
        self.trace.take().map(|b| b.events).unwrap_or_default()
    }

    /// Flushes every sampling-grid point at or before `t`. Called at the
    /// entry of every public handler (and the cross-shard `apply_now`
    /// path) **before** any state mutation at `t`, so a grid point `g`
    /// always samples "all events strictly before `g`" — the same state
    /// under every sharding.
    fn obs_tick(&mut self, t: f64) {
        let Some(mut o) = self.obs.take() else { return };
        let proxies = &self.proxies;
        o.tick(t, &self.links, || {
            let cache_bytes = proxies.iter().map(|p| p.cache.used_bytes()).sum();
            let outstanding = proxies.iter().map(|p| p.mshr.len()).sum::<usize>() as f64;
            (cache_bytes, outstanding)
        });
        self.obs = Some(o);
    }

    /// Final grid flush at the cluster-wide `t_end`, returning this
    /// scope's registry for merging (`None` when unobserved).
    pub(crate) fn obs_finish(&mut self, t_end: f64) -> Option<Registry> {
        let mut o = self.obs.take()?;
        let proxies = &self.proxies;
        o.tick(t_end, &self.links, || {
            let cache_bytes = proxies.iter().map(|p| p.cache.used_bytes()).sum();
            let outstanding = proxies.iter().map(|p| p.mshr.len()).sum::<usize>() as f64;
            (cache_bytes, outstanding)
        });
        Some(o.finish())
    }

    /// Local proxy count (the legacy scan's iteration bound).
    #[cfg(feature = "legacy-oracle")]
    pub(crate) fn n_proxies(&self) -> usize {
        self.proxies.len()
    }

    /// When local proxy `i`'s next client request arrives, while its
    /// stream has requests left (a replayed trace may also run dry).
    pub(crate) fn request_due(&self, i: usize) -> Option<f64> {
        let p = &self.proxies[i];
        if p.issued >= self.n_requests {
            return None;
        }
        p.pending.map(|r| r.time)
    }

    /// When local proxy `i`'s earliest jittered prefetch decision comes
    /// due. Pending prefetches are still issued after the request stream
    /// ends so any waiters attached to them resolve.
    pub(crate) fn prefetch_due(&self, i: usize) -> Option<f64> {
        self.proxies[i].delayed.peek().map(|d| d.due)
    }

    /// Propagation latency into global link `g` at `now`, inflated by any
    /// active degradation fault. The factor is 1.0 on healthy links and
    /// the multiply is skipped entirely, so unfaulted latencies stay
    /// bit-identical; a degrade fault guarantees factor ≥ 1, which keeps
    /// conservative-window lookaheads sound.
    fn entry_latency_at(&self, g: usize, now: f64) -> f64 {
        let base = self.topology.entry_latency(g);
        if let Some(fc) = self.faults {
            let f = fc.plan.link_latency_factor(g, now);
            if f != 1.0 {
                return base * f;
            }
        }
        base
    }

    /// Summed return propagation of `route` at `now`, per-hop inflated
    /// like [`Engine::entry_latency_at`].
    fn return_latency_at(&self, route: &[usize], now: f64) -> f64 {
        match self.faults {
            Some(fc) => route
                .iter()
                .map(|&g| {
                    let base = self.topology.entry_latency(g);
                    let f = fc.plan.link_latency_factor(g, now);
                    if f != 1.0 {
                        base * f
                    } else {
                        base
                    }
                })
                .sum(),
            None => self.topology.return_latency(route),
        }
    }

    /// Stages `job`'s entry into global link `g` at `tau` (`now` plus the
    /// link's propagation latency; equal to `now` on zero-latency hops).
    fn send_arrive(&mut self, g: usize, now: f64, job: Job) {
        let tau = now + self.entry_latency_at(g, now);
        debug_assert!(tau >= now);
        self.effects.push(Effect::Arrive { link: g as u32, t: tau, job });
    }

    /// Stages the peer-serve check of `job` at proxy `q` (the far end of
    /// the peer route's last hop).
    fn send_check(&mut self, last_link: usize, now: f64, job: Job) {
        let Dest::Peer(q) = job.dest else { unreachable!("check on an origin transfer") };
        let tau = now + self.entry_latency_at(last_link, now);
        self.effects.push(Effect::Check { q, t: tau, job });
    }

    /// Stages `job`'s response delivery back at its requesting proxy,
    /// after the return propagation of `route` — plus any active origin
    /// brownout delay on origin responses.
    fn send_deliver(&mut self, route: &[usize], now: f64, job: Job, false_hit: bool) {
        let mut tau = now + self.return_latency_at(route, now);
        if matches!(job.dest, Dest::Origin) {
            if let Some(fc) = self.faults {
                let d = fc.plan.origin_delay(now);
                if d > 0.0 {
                    tau += d;
                }
            }
        }
        self.effects.push(Effect::Deliver { p: job.proxy, t: tau, job, false_hit });
    }

    /// Any link on `job`'s current path down at `t`? Origin routes also
    /// consult the origin's own blackout state. A pure query of the
    /// static plan — identical under every sharding.
    fn route_dark(&self, job: &Job, t: f64) -> bool {
        let Some(fc) = self.faults else { return false };
        if matches!(job.dest, Dest::Origin) && fc.plan.origin_dark(t) {
            return true;
        }
        job.path(self.topology).iter().any(|&g| fc.plan.link_down(g, t))
    }

    /// Does attempt `attempt` of `job`, launched at `t`, make it? Dark
    /// routes always fail; degraded links lose the attempt with a
    /// deterministic per-`(job, attempt)` roll.
    fn attempt_survives(&self, fc: &FaultConfig, job: &Job, attempt: u32, t: f64) -> bool {
        if self.route_dark(job, t) {
            return false;
        }
        !job.path(self.topology)
            .iter()
            .any(|&g| fc.plan.attempt_lost(self.seed, g, job.id, attempt, t))
    }

    /// Injects `job` onto the first link of its path at time `t`.
    ///
    /// Under a fault plan this is where the whole timeout–retry–backoff
    /// schedule resolves, **analytically**: the plan is static, so each
    /// attempt's fate (dark route, lost packet, or success) is a pure
    /// function of its launch instant. Each failed attempt charges
    /// `timeout + backoff(k)` of pure client-side wall clock (the lost
    /// attempt never occupies a link); the surviving attempt enters the
    /// network at its delayed instant; exhausting the budget stages a
    /// `Fail` effect at the last attempt's timeout expiry. A dark peer
    /// route fails over to the origin before spending an attempt — the
    /// cooperative mesh degrades instead of stalling (quarantined crash
    /// victims are already filtered at resolution). Speculative transfers
    /// get exactly one attempt: a prefetch is never worth a retry budget.
    fn launch(&mut self, t: f64, mut job: Job) {
        let Some(fc) = self.faults else {
            let first = job.path(self.topology)[0];
            self.send_arrive(first, t, job);
            return;
        };
        let attempts = match job.kind {
            JobKind::Demand { .. } => fc.retry.attempts(),
            JobKind::Prefetch { .. } => 1,
        };
        let mut t_att = t;
        for attempt in 0..attempts {
            if matches!(job.dest, Dest::Peer(_)) && self.route_dark(&job, t_att) {
                let i = self.scope.proxy_local(job.proxy as usize).expect("launch in scope");
                self.proxies[i].failovers += 1;
                job.dest = Dest::Origin;
                job.hop = 0;
            }
            if self.attempt_survives(fc, &job, attempt, t_att) {
                let first = job.path(self.topology)[0];
                self.send_arrive(first, t_att, job);
                return;
            }
            let i = self.scope.proxy_local(job.proxy as usize).expect("launch in scope");
            self.proxies[i].timeouts += 1;
            let expiry = t_att + fc.retry.timeout;
            if attempt + 1 < attempts {
                self.proxies[i].retries += 1;
                let next = expiry + fc.retry.backoff(self.seed, job.id, attempt);
                let jp = job.proxy as u64;
                trace_job(&mut self.trace, &mut job, next, SpanKind::Retry, jp, expiry, 0);
                t_att = next;
            } else {
                self.effects.push(Effect::Fail { p: job.proxy, t: expiry, job });
                return;
            }
        }
    }

    /// A link departure event on local link `l` at time `t`.
    pub(crate) fn on_link(&mut self, t: f64, l: usize) {
        self.obs_tick(t);
        self.t_end = t;
        self.dirty.push((CLASS_DEPART, l));
        let g_l = self.scope.links[l];
        let done = self.links[l].on_event(t);
        if let Some(o) = self.obs.as_deref_mut() {
            o.jobs_completed(l, done.len());
        }
        let bandwidth = self.topology.links()[g_l].bandwidth;
        for c in done {
            let mut job = self.jobs.remove(&c.tag).expect("completed job on this scope's link");
            self.links[l].bytes_carried += job.size;
            let service = job.size / bandwidth;
            trace_job(&mut self.trace, &mut job, t, SpanKind::Dequeue, g_l as u64, service, 0);
            let route = job.path(self.topology);
            if job.hop + 1 < route.len() {
                let mut fwd = job;
                fwd.hop += 1;
                self.send_arrive(route[fwd.hop], t, fwd);
                continue;
            }
            match job.dest {
                // A peer transfer must find the entry actually present at
                // the peer — checked at the peer itself (its cache is that
                // shard's state), after the last hop's propagation.
                Dest::Peer(_) => self.send_check(g_l, t, job),
                Dest::Origin => self.send_deliver(route, t, job, false),
            }
        }
    }

    /// Queued arrivals on local link `l` coming due at `t`, in
    /// `(time, job id)` order.
    pub(crate) fn on_arrivals(&mut self, t: f64, l: usize) {
        self.obs_tick(t);
        self.t_end = t;
        while let Some(job) = self.arrivals[l].pop_due(t) {
            self.arrive_now(l, t, job);
        }
        self.dirty.push((CLASS_ARRIVE, l));
    }

    /// `job` enters local link `l`'s server at `t`.
    fn arrive_now(&mut self, l: usize, t: f64, mut job: Job) {
        trace_job(
            &mut self.trace,
            &mut job,
            t,
            SpanKind::Enqueue,
            self.scope.links[l] as u64,
            0.0,
            0,
        );
        self.jobs.insert(job.id, job);
        self.links[l].arrive(t, job.size, job.id);
        if let Some(o) = self.obs.as_deref_mut() {
            o.job_arrived(l);
        }
        self.dirty.push((CLASS_DEPART, l));
    }

    /// Queued peer-serve checks at local proxy `i` coming due at `t`.
    pub(crate) fn on_checks(&mut self, t: f64, i: usize) {
        self.obs_tick(t);
        self.t_end = t;
        while let Some(job) = self.checks[i].pop_due(t) {
            self.check_now(i, t, job);
        }
        self.dirty.push((CLASS_CHECK, i));
    }

    /// The peer-serve check of `job` at local proxy `i` (= `job.dest`'s
    /// peer): does the peer actually hold the item? Either way the answer
    /// travels back to the requester over the peer route.
    fn check_now(&mut self, i: usize, t: f64, mut job: Job) {
        self.t_end = t;
        debug_assert!(matches!(job.dest, Dest::Peer(q) if self.scope.proxies[i] == q as usize));
        let holds = self.proxies[i].cache.contains(&job.item);
        trace_job(
            &mut self.trace,
            &mut job,
            t,
            SpanKind::Check,
            self.scope.proxies[i] as u64,
            if holds { 1.0 } else { 0.0 },
            if holds { 0 } else { TF_FALSE_HIT },
        );
        let route = job.path(self.topology);
        self.send_deliver(route, t, job, !holds);
    }

    /// Queued response deliveries at local proxy `i` coming due at `t`.
    pub(crate) fn on_delivers(&mut self, t: f64, i: usize) {
        self.obs_tick(t);
        self.t_end = t;
        while let Some((job, false_hit)) = self.delivers[i].pop_due(t) {
            self.deliver_now(i, t, job, false_hit);
        }
        self.dirty.push((CLASS_DELIVER, i));
    }

    /// `job`'s response (or false-hit notification) lands at its
    /// requesting proxy — local index `i`.
    fn deliver_now(&mut self, i: usize, t: f64, mut job: Job, false_hit: bool) {
        self.t_end = t;
        debug_assert_eq!(self.scope.proxies[i], job.proxy as usize);
        if false_hit {
            // Digest false hit: the transfer reached a peer that does not
            // hold the item (evicted since the last refresh, or a
            // structural Bloom false positive) — fall back to the origin,
            // paying the peer path *and* the origin path.
            let mut fwd = job;
            fwd.dest = Dest::Origin;
            fwd.hop = 0;
            fwd.spent += fwd.size;
            let fp = fwd.proxy as u64;
            trace_job(&mut self.trace, &mut fwd, t, SpanKind::Redirect, fp, 0.0, TF_FALSE_HIT);
            let p = &mut self.proxies[i];
            p.peer_false_hits += 1;
            match job.kind {
                JobKind::Demand { .. } => p.demand_bytes += job.size,
                JobKind::Prefetch { .. } => p.prefetch_bytes += job.size,
            }
            self.launch(t, fwd);
            return;
        }
        let jp = job.proxy as u64;
        trace_job(&mut self.trace, &mut job, t, SpanKind::Deliver, jp, 0.0, 0);
        let p = &mut self.proxies[i];
        if matches!(job.dest, Dest::Peer(_)) {
            p.peer_fetches += 1;
            p.peer_bytes += job.size;
        }
        match job.kind {
            JobKind::Demand { measured } => {
                let (admitted, evicted) = p.cache.charge_after_fetch(job.item, job.size);
                note_cache_change(&mut self.deltas, i, p, job.item, admitted, &evicted);
                // Any landing of the key's data ends the wait — an entry
                // already settled by a concurrent (bypassed) fetch, or a
                // bypassed fetch itself, yields `None` here.
                let entry = p.mshr.complete(&job.item);
                if measured {
                    let sojourn = t - job.issued;
                    p.access_times.push(sojourn);
                    p.retrievals.push(sojourn);
                    p.total_job_time += sojourn;
                    obs_lat(&mut self.obs, sojourn);
                }
                let waiters = entry.map(|e| e.waiters).unwrap_or_default();
                let residual_sum = settle_waiters(
                    &mut self.trace,
                    &mut self.obs,
                    p,
                    &waiters,
                    t,
                    job.proxy as u64,
                    job.item.0,
                );
                if let Some(agg) = p.agg.as_mut() {
                    // The blocking fetch is charged its own latency plus
                    // every waiter's residual — the key's aggregate delay.
                    let score = agg.charge(job.item, (t - job.issued) + residual_sum);
                    p.cache.set_value(job.item, score);
                }
            }
            JobKind::Prefetch { measured } => {
                if measured {
                    p.total_job_time += t - job.issued;
                }
                let entry = p.mshr.complete(&job.item);
                let waiters = entry.map(|e| e.waiters).unwrap_or_default();
                if !waiters.is_empty() {
                    // The item was demanded while the prefetch was in
                    // flight: it lands as a demand-fetched (tagged)
                    // entry and the waiters' clocks stop now. The
                    // transfer served real demand, so everything it
                    // cost counts as used.
                    let (admitted, evicted) = p.cache.charge_after_fetch(job.item, job.size);
                    note_cache_change(&mut self.deltas, i, p, job.item, admitted, &evicted);
                    p.used_prefetch_bytes += job.spent;
                    let residual_sum = settle_waiters(
                        &mut self.trace,
                        &mut self.obs,
                        p,
                        &waiters,
                        t,
                        job.proxy as u64,
                        job.item.0,
                    );
                    if let Some(agg) = p.agg.as_mut() {
                        // A prefetch the demand stream caught up with:
                        // only the residuals were felt as delay.
                        let score = agg.charge(job.item, residual_sum);
                        p.cache.set_value(job.item, score);
                    }
                } else {
                    let (admitted, evicted) = p.cache.charge_prefetch(job.item, job.size);
                    note_cache_change(&mut self.deltas, i, p, job.item, admitted, &evicted);
                    if admitted {
                        p.controller.on_prefetch_insert();
                        p.prefetch_cost.insert(job.item, job.spent);
                        if let Some(agg) = p.agg.as_ref() {
                            p.cache.set_value(job.item, agg.score(&job.item));
                        }
                    }
                }
            }
        }
    }

    /// Queued fetch-failure settlements at local proxy `i` coming due at
    /// `t` (fault runs only).
    pub(crate) fn on_fails(&mut self, t: f64, i: usize) {
        self.obs_tick(t);
        self.t_end = t;
        while let Some(job) = self.fails[i].pop_due(t) {
            self.fail_now(i, t, job);
        }
        self.dirty.push((CLASS_FAIL, i));
    }

    /// `job`'s fetch exhausted its attempt budget — settle it (and every
    /// coalesced waiter) as **failed** at `t`, the last attempt's timeout
    /// expiry. The MSHR entry is reclassified with a failure outcome so
    /// the conservation law `origin_fetches + coalesced + failed ==
    /// demand_misses` stays exact, and the bytes of the never-launched
    /// leg are refunded: a transfer that never entered a link is client
    /// pain, not network load.
    fn fail_now(&mut self, i: usize, t: f64, mut job: Job) {
        self.t_end = t;
        debug_assert_eq!(self.scope.proxies[i], job.proxy as usize);
        let jp = job.proxy as u64;
        let pf = if matches!(job.kind, JobKind::Prefetch { .. }) { TF_PREFETCH } else { 0 };
        trace_job(&mut self.trace, &mut job, t, SpanKind::Failed, jp, 0.0, pf);
        let p = &mut self.proxies[i];
        p.failed_fetches += 1;
        let entry = match job.kind {
            JobKind::Demand { measured } => {
                p.demand_bytes -= job.size;
                if measured {
                    let sojourn = t - job.issued;
                    p.measured_failed += 1;
                    p.access_times.push(sojourn);
                    p.total_job_time += sojourn;
                    obs_lat(&mut self.obs, sojourn);
                }
                if !job.tracked {
                    // A bypassed fetch has no entry; reclassify by volume.
                    p.mshr.fail_untracked(job.size);
                    None
                } else if p
                    .mshr
                    .entry(&job.item)
                    .is_some_and(|e| e.origin == FetchOrigin::Demand && e.issued == job.issued)
                {
                    p.mshr.fail(&job.item)
                } else {
                    // The entry is gone (a crash drained and reclassified
                    // it) or belongs to a newer fetch generation — nothing
                    // of ours left to settle.
                    None
                }
            }
            JobKind::Prefetch { .. } => {
                p.prefetch_bytes -= job.size;
                if p.mshr.entry(&job.item).is_some_and(|e| e.origin == FetchOrigin::Prefetch) {
                    // Duplicate reservations are filtered on the table, so
                    // a Prefetch-origin entry for this item is this job's.
                    p.mshr.fail(&job.item)
                } else {
                    None
                }
            }
        };
        if let Some(entry) = entry {
            settle_failed_waiters(
                &mut self.trace,
                &mut self.obs,
                p,
                &entry.waiters,
                t,
                jp,
                job.item.0,
            );
        }
    }

    /// A jittered prefetch decision of local proxy `i` coming due.
    pub(crate) fn on_issue_prefetch(&mut self, i: usize, router: Option<&Router>) {
        let me = self.scope.proxies[i];
        let due = self.proxies[i].delayed.peek().expect("pending prefetch").due;
        self.obs_tick(due);
        let pfx = self.proxies[i].delayed.pop().expect("pending prefetch");
        self.t_end = pfx.due;
        self.dirty.push((CLASS_PREFETCH, i));
        if !self.proxies[i].cache.contains(&pfx.item) {
            let dest = resolve(router, me, pfx.item);
            let shard = (pfx.item.0 % self.n_shards) as u32;
            let id = {
                let p = &mut self.proxies[i];
                p.prefetch_jobs += 1;
                p.prefetch_bytes += pfx.size;
                p.job_seq += 1;
                ((me as u64) << 40) | p.job_seq
            };
            if let Some(o) = self.obs.as_deref_mut() {
                o.prefetch_issued();
            }
            // The prefetch-id stream mirrors the job-id stream: the low 40
            // bits of `id` are this proxy's job sequence number.
            let tid = match self.trace.as_deref() {
                Some(b) => b.admit(trace::prefetch_trace_id(me as u64, id & ((1 << 40) - 1))),
                None => 0,
            };
            let mut job = Job {
                id,
                proxy: me as u32,
                shard,
                dest,
                hop: 0,
                size: pfx.size,
                spent: pfx.size,
                issued: pfx.due,
                item: pfx.item,
                kind: JobKind::Prefetch { measured: pfx.measured },
                tracked: true,
                trace: tid,
                tseq: 0,
            };
            let mf = if pfx.measured { TF_MEASURED } else { 0 };
            trace_job(
                &mut self.trace,
                &mut job,
                pfx.due,
                SpanKind::Issue,
                me as u64,
                pfx.decided,
                TF_PREFETCH | mf,
            );
            self.launch(pfx.due, job);
        } else {
            // Unreachable under the default unbounded coalescing table:
            // the MSHR entry allocated at decision time reserves the item
            // until this transfer (or its cancellation here) resolves —
            // demand misses on a reserved item coalesce instead of
            // fetching, and duplicate prefetch decisions are filtered on
            // the table — so nothing can have cached the item since the
            // decision checked it was absent. Pinned by
            // `pending_prefetch_never_finds_item_cached`. With coalescing
            // off, or a bounded table, an *untracked* concurrent demand
            // fetch can legitimately land first and cache the item.
            debug_assert!(
                self.knobs.delayed.mshr_entries.is_some() || !self.knobs.delayed.coalesce,
                "pending prefetch for item {:?} found it already cached",
                pfx.item
            );
            // Cancel the reservation, resolving any waiters at the
            // cancellation instant instead of silently dropping their
            // measured access times (the waiter-leak bug).
            let p = &mut self.proxies[i];
            if let Some(entry) = p.mshr.complete(&pfx.item) {
                settle_waiters(
                    &mut self.trace,
                    &mut self.obs,
                    p,
                    &entry.waiters,
                    pfx.due,
                    me as u64,
                    pfx.item.0,
                );
            }
        }
    }

    /// The next client request of local proxy `i`.
    pub(crate) fn on_request(&mut self, i: usize, router: Option<&Router>) {
        let me = self.scope.proxies[i];
        let n_shards = self.n_shards;
        let t_req = self.proxies[i].pending.expect("request due").time;
        self.obs_tick(t_req);
        if let Some(o) = self.obs.as_deref_mut() {
            o.request();
        }
        let p = &mut self.proxies[i];
        let req = p.pending.take().expect("request due");
        p.pending = p.source.next_request(&mut p.rng);
        let t = req.time;
        self.t_end = t;
        let idx = p.issued;
        p.issued += 1;
        if let Some(rec) = self.recorder.as_mut() {
            // Fold the proxy into the client id so replay can route the
            // record back (`client % n_proxies == proxy`) while keeping
            // the original client recoverable by division.
            rec[i].push(TraceRecord::new(
                t,
                me as u32 + self.client_stride * req.client,
                req.item,
                req.size,
            ));
        }
        let in_window = idx >= self.warm;
        let mut launch_demand = false;
        let mut fetch_tracked = true;
        // The request's head-sampling decision is a pure hash of
        // `(proxy, request index)` — identical under every sharding.
        let rid = match self.trace.as_deref() {
            Some(b) => b.admit(trace::request_trace_id(me as u64, idx)),
            None => 0,
        };
        let mf = if in_window { TF_MEASURED } else { 0 };

        // One probe consults the cache *and* the outstanding-fetch table:
        // a miss on an in-flight item joins the fetch's FIFO waiter queue
        // (a delayed hit in the making) instead of authorising a second
        // transfer.
        let waiter = Waiter { t, measured: in_window, trace: rid };
        match p.cache.probe_via(&mut p.mshr, req.item, t, req.size, waiter) {
            MshrAccess::Hit(AccessKind::HitTagged) => {
                p.controller.on_cache_hit(t, EntryStatus::Tagged, req.size);
                trace_point(&mut self.trace, rid, t, SpanKind::Hit, me as u64, 0.0, req.item.0, mf);
                if in_window {
                    p.access_times.push(0.0);
                    obs_lat(&mut self.obs, 0.0);
                    p.hits += 1;
                    p.measured += 1;
                }
            }
            MshrAccess::Hit(AccessKind::HitUntagged) => {
                p.controller.on_cache_hit(t, EntryStatus::Untagged, req.size);
                // First use of a prefetched entry: credit exactly what its
                // transfer cost, once. The probe retags the entry, so a
                // re-access is a tagged hit and cannot double-count.
                let cost = p
                    .prefetch_cost
                    .remove(&req.item)
                    .expect("untagged cache entry must have a recorded prefetch cost");
                p.used_prefetch_bytes += cost;
                trace_point(&mut self.trace, rid, t, SpanKind::Hit, me as u64, 0.0, req.item.0, mf);
                if in_window {
                    p.access_times.push(0.0);
                    obs_lat(&mut self.obs, 0.0);
                    p.hits += 1;
                    p.measured += 1;
                }
            }
            MshrAccess::Hit(AccessKind::Miss) => unreachable!("probe_via maps misses"),
            MshrAccess::Coalesced => {
                // Joined the in-flight fetch instead of duplicating the
                // transfer; the waiter settles when that fetch lands.
                p.controller.on_miss(t, req.size);
                if in_window {
                    p.measured += 1;
                }
            }
            MshrAccess::Fetch { tracked } => {
                p.controller.on_miss(t, req.size);
                if in_window {
                    p.measured += 1;
                }
                p.demand_bytes += req.size;
                launch_demand = true;
                fetch_tracked = tracked;
            }
        }
        if launch_demand {
            let shard = (req.item.0 % n_shards) as u32;
            let dest = resolve(router, me, req.item);
            let id = {
                let p = &mut self.proxies[i];
                p.job_seq += 1;
                ((me as u64) << 40) | p.job_seq
            };
            let mut job = Job {
                id,
                proxy: me as u32,
                shard,
                dest,
                hop: 0,
                size: req.size,
                spent: req.size,
                issued: t,
                item: req.item,
                kind: JobKind::Demand { measured: in_window },
                tracked: fetch_tracked,
                trace: rid,
                tseq: 0,
            };
            trace_job(&mut self.trace, &mut job, t, SpanKind::Issue, me as u64, t, mf);
            self.launch(t, job);
        }

        // Predict and prefetch.
        let p = &mut self.proxies[i];
        p.predictor.observe(req.item);
        let threshold = match self.knobs.policy {
            ProxyPolicy::NoPrefetch => f64::INFINITY,
            ProxyPolicy::FixedThreshold(th) => th,
            ProxyPolicy::Adaptive => p.controller.policy().threshold,
        };
        if in_window && threshold.is_finite() {
            p.threshold_sum += threshold;
            p.threshold_n += 1;
        }
        if threshold.is_finite() {
            let cands = p.predictor.candidates(self.knobs.max_candidates);
            if let Some(o) = self.obs.as_deref_mut() {
                o.predictions(cands.len() as u64);
            }
            let size_aware =
                self.knobs.delayed.size_aware && matches!(self.knobs.policy, ProxyPolicy::Adaptive);
            for (item, prob) in cands {
                // The size is pure data (no RNG draw), so reading it before
                // the acceptance check keeps draw order intact. On replay
                // an unknown size means the item was never seen here — a
                // Markov predictor cannot propose one, but skip defensively.
                let Some(size) = p.source.size_of(item) else { continue };
                // Byte-charged threshold: a candidate is compared against
                // ρ̂′ scaled by its own size, so big speculative objects
                // need proportionally higher confidence. Item-counted
                // configs are the degenerate case (size = ŝ̄).
                let mut th = if size_aware {
                    p.controller.threshold_for_size(size).unwrap_or(1.0)
                } else {
                    threshold
                };
                // Aggregate-delay bias: keys that have been charged
                // delayed-hit latency get a proportionally lower bar —
                // prefetching them saves their whole waiter queue.
                if let Some(agg) = p.agg.as_ref() {
                    let scale = p.retrievals.mean();
                    if scale > 0.0 {
                        th = th * scale / (scale + agg.score(&item));
                    }
                }
                // `reserve_prefetch` is the in-flight filter: false when
                // the item already has an outstanding entry (or the table
                // is full, dropping the candidate deterministically).
                if prob > th && !p.cache.contains(&item) && p.mshr.reserve_prefetch(item, t, size) {
                    let due = if self.knobs.prefetch_jitter > 0.0 {
                        t + p.jitter_rng.exp(1.0 / self.knobs.prefetch_jitter)
                    } else {
                        t
                    };
                    p.delayed.push(PendingPrefetch {
                        due,
                        item,
                        size,
                        measured: in_window,
                        decided: t,
                    });
                }
            }
        }
        self.dirty.push((CLASS_REQUEST, i));
        self.dirty.push((CLASS_PREFETCH, i));
    }
}

impl shard::EngineCore for Engine<'_> {
    type Job = Job;

    fn class_counts(&self) -> [usize; N_CLASSES] {
        let (l, p) = (self.links.len(), self.proxies.len());
        [l, l, p, p, p, p, p]
    }

    fn global_id(&self, class: usize, idx: usize) -> usize {
        match class {
            CLASS_DEPART | CLASS_ARRIVE => self.scope.links[idx],
            _ => self.scope.proxies[idx],
        }
    }

    fn due(&self, class: usize, idx: usize) -> Option<f64> {
        match class {
            CLASS_DEPART => self.links[idx].next_event(),
            CLASS_ARRIVE => self.arrivals[idx].next_time(),
            CLASS_CHECK => self.checks[idx].next_time(),
            CLASS_DELIVER => self.delivers[idx].next_time(),
            CLASS_REQUEST => self.request_due(idx),
            CLASS_PREFETCH => self.prefetch_due(idx),
            CLASS_FAIL => self.fails[idx].next_time(),
            _ => unreachable!("unknown class {class}"),
        }
    }

    fn dispatch(&mut self, class: usize, idx: usize, t: f64, router: Option<&Router>) {
        match class {
            CLASS_DEPART => self.on_link(t, idx),
            CLASS_ARRIVE => self.on_arrivals(t, idx),
            CLASS_CHECK => self.on_checks(t, idx),
            CLASS_DELIVER => self.on_delivers(t, idx),
            CLASS_REQUEST => self.on_request(idx, router),
            CLASS_PREFETCH => self.on_issue_prefetch(idx, router),
            CLASS_FAIL => self.on_fails(t, idx),
            _ => unreachable!("unknown class {class}"),
        }
    }

    fn apply_now(&mut self, e: Effect<Job>, t: f64) {
        debug_assert_eq!(e.time(), t);
        // A same-instant effect can land on a scope whose own dispatch at
        // `t` has not fired yet — tick first so grid samples stay "state
        // before `t`" under every sharding.
        self.obs_tick(t);
        match e {
            Effect::Arrive { link, job, .. } => {
                let l = self.scope.link_local(link as usize).expect("arrive in scope");
                self.arrive_now(l, t, job);
            }
            Effect::Check { q, job, .. } => {
                let i = self.scope.proxy_local(q as usize).expect("check in scope");
                self.check_now(i, t, job);
            }
            Effect::Deliver { p, job, false_hit, .. } => {
                let i = self.scope.proxy_local(p as usize).expect("deliver in scope");
                self.deliver_now(i, t, job, false_hit);
            }
            Effect::Fail { p, job, .. } => {
                let i = self.scope.proxy_local(p as usize).expect("fail in scope");
                self.fail_now(i, t, job);
            }
        }
    }

    fn enqueue(&mut self, e: Effect<Job>) {
        match e {
            Effect::Arrive { link, t, job } => {
                let l = self.scope.link_local(link as usize).expect("arrive in scope");
                self.arrivals[l].push(t, job.id, job);
                self.dirty.push((CLASS_ARRIVE, l));
            }
            Effect::Check { q, t, job } => {
                let i = self.scope.proxy_local(q as usize).expect("check in scope");
                self.checks[i].push(t, job.id, job);
                self.dirty.push((CLASS_CHECK, i));
            }
            Effect::Deliver { p, t, job, false_hit } => {
                let i = self.scope.proxy_local(p as usize).expect("deliver in scope");
                self.delivers[i].push(t, job.id, (job, false_hit));
                self.dirty.push((CLASS_DELIVER, i));
            }
            Effect::Fail { p, t, job } => {
                let i = self.scope.proxy_local(p as usize).expect("fail in scope");
                self.fails[i].push(t, job.id, job);
                self.dirty.push((CLASS_FAIL, i));
            }
        }
    }

    fn owns(&self, e: &Effect<Job>) -> bool {
        match e {
            Effect::Arrive { link, .. } => self.scope.link_local(*link as usize).is_some(),
            Effect::Check { q, .. } => self.scope.proxy_local(*q as usize).is_some(),
            Effect::Deliver { p, .. } => self.scope.proxy_local(*p as usize).is_some(),
            Effect::Fail { p, .. } => self.scope.proxy_local(*p as usize).is_some(),
        }
    }

    fn take_effects(&mut self, out: &mut Vec<Effect<Job>>) {
        out.append(&mut self.effects);
    }

    fn drain_dirty(&mut self, out: &mut Vec<(usize, usize)>) {
        out.append(&mut self.dirty);
    }

    fn sync_link_timer(&mut self, idx: usize, sched: &mut Scheduler, key: usize) {
        self.links[idx].sync_timer(sched, key);
    }

    fn refresh_payloads(&mut self, out: &mut Vec<shard::BoundaryEntry>) {
        if !self.coop_on {
            return;
        }
        for (li, p) in self.proxies.iter().enumerate() {
            let load = p.controller.rho_prime_estimate().unwrap_or(0.0);
            let snapshot =
                |p: &ProxyState| p.cache.keys().iter().map(|k| k.0).collect::<Vec<u64>>();
            let payload = if self.force_snapshot[li] {
                // A crash or digest loss invalidated the peers' view of
                // this node; the next boundary ships a full snapshot no
                // matter which refresh strategy is configured.
                self.force_snapshot[li] = false;
                self.deltas[li].clear();
                RefreshPayload::Snapshot(snapshot(p))
            } else {
                match self.refresh_strategy {
                    RefreshStrategy::Deltas => {
                        RefreshPayload::Deltas(std::mem::take(&mut self.deltas[li]))
                    }
                    RefreshStrategy::FullRebuild => {
                        // The snapshot supersedes the buffered stream; discard
                        // it so engine state stays identical across strategies.
                        self.deltas[li].clear();
                        RefreshPayload::Snapshot(snapshot(p))
                    }
                    RefreshStrategy::Auto => {
                        // The compaction fallback: a delta stream that outgrew
                        // the snapshot's wire size ships the snapshot instead.
                        if self.deltas[li].len() as u64 > self.delta_crossover {
                            self.deltas[li].clear();
                            RefreshPayload::Snapshot(snapshot(p))
                        } else {
                            RefreshPayload::Deltas(std::mem::take(&mut self.deltas[li]))
                        }
                    }
                }
            };
            out.push((self.scope.proxies[li], load, payload));
        }
    }

    fn apply_fault(&mut self, t: f64, kind: &FaultKind) {
        match kind {
            FaultKind::ProxyCrash { proxy } => {
                let Some(i) = self.scope.proxy_local(*proxy) else { return };
                self.t_end = self.t_end.max(t);
                let jp = *proxy as u64;
                let p = &mut self.proxies[i];
                // The data plane is lost: cached entries, the outstanding
                // fetch table, and the buffered digest stream. The control
                // plane (controller, predictor) survives the restart, as
                // does anything already in flight on the wire — a transfer
                // launched before the crash still lands on the cold cache.
                p.lost_entries += p.cache.keys().len() as u64;
                p.cache = new_store(&self.knobs);
                p.prefetch_cost.clear();
                let drained = p.mshr.drain_failed();
                for (item, entry) in &drained {
                    if entry.origin == FetchOrigin::Demand {
                        p.failed_fetches += 1;
                    }
                    settle_failed_waiters(
                        &mut self.trace,
                        &mut self.obs,
                        p,
                        &entry.waiters,
                        t,
                        jp,
                        item.0,
                    );
                }
                if self.coop_on {
                    self.deltas[i].clear();
                    self.force_snapshot[i] = true;
                }
            }
            FaultKind::DigestLoss { proxy } => {
                let Some(i) = self.scope.proxy_local(*proxy) else { return };
                if self.coop_on {
                    self.proxies[i].lost_entries += self.deltas[i].len() as u64;
                    self.deltas[i].clear();
                    self.force_snapshot[i] = true;
                }
            }
            _ => debug_assert!(false, "non-boundary fault {kind:?} routed to an engine"),
        }
    }
}

/// Builds one proxy's report block.
fn node_report(p: &ProxyState, proxy: usize, n_requests: u64, coop_on: bool) -> NodeReport {
    let (mean_access, ci) = p.access_times.mean_ci();
    let measured = p.measured.max(1);
    // Every demand miss launched a fetch that succeeds, coalesced onto
    // one, or failed — faults must not leak requests out of the ledger.
    debug_assert!(
        p.mshr.conservation_ok(),
        "proxy {proxy}: MSHR conservation law violated \
         (origin_fetches + coalesced + failed != demand_misses)"
    );
    // Per-distinct-entry accounting conserves prefetched bytes exactly:
    // every transferred byte is either used (served a demand) or not — no
    // clamp needed to keep goodput within the prefetched volume.
    debug_assert!(
        p.used_prefetch_bytes <= p.prefetch_bytes * (1.0 + 1e-9) + 1e-9,
        "proxy {proxy}: goodput {} exceeds prefetched volume {}",
        p.used_prefetch_bytes,
        p.prefetch_bytes
    );
    let goodput = p.used_prefetch_bytes;
    let badput = (p.prefetch_bytes - p.used_prefetch_bytes).max(0.0);
    debug_assert!(
        (goodput + badput - p.prefetch_bytes).abs() <= 1e-6 * p.prefetch_bytes.max(1.0),
        "proxy {proxy}: goodput {goodput} + badput {badput} != prefetched {}",
        p.prefetch_bytes
    );
    NodeReport {
        proxy,
        measured_requests: p.measured,
        hit_ratio: p.hits as f64 / measured as f64,
        mean_access_time: mean_access,
        access_time_ci95: ci,
        mean_retrieval_time: p.retrievals.mean(),
        retrieval_per_request: p.total_job_time / measured as f64,
        prefetches_per_request: p.prefetch_jobs as f64 / n_requests.max(1) as f64,
        goodput_bytes: Some(goodput),
        badput_bytes: Some(badput),
        demand_bytes: p.demand_bytes,
        cache_used_bytes: Some(p.cache.used_bytes()),
        peer_bytes: coop_on.then_some(p.peer_bytes),
        peer_fetches: coop_on.then_some(p.peer_fetches),
        peer_false_hits: coop_on.then_some(p.peer_false_hits),
        mean_threshold: (p.threshold_n > 0).then(|| p.threshold_sum / p.threshold_n as f64),
        rho_prime_estimate: p.controller.rho_prime_estimate(),
        h_prime_estimate: p.controller.h_prime_estimate(),
        delayed_hits: Some(p.delayed_hits),
        coalesced_requests: Some(p.mshr.coalesced()),
        origin_fetches: Some(p.mshr.origin_fetches()),
        mean_residual_wait: (p.delayed_hits > 0).then(|| p.residual.mean()),
        mean_waiter_depth: p.mshr.waiter_depth_mean(),
        mshr_rejections: Some(p.mshr.rejections()),
        demand_misses: Some(p.mshr.demand_misses()),
        mshr_failed: Some(p.mshr.failed()),
        timeouts: p.timeouts,
        retries: p.retries,
        failovers: p.failovers,
        failed_fetches: p.failed_fetches,
        lost_entries: p.lost_entries,
        unavailability: if p.measured > 0 {
            p.measured_failed as f64 / p.measured as f64
        } else {
            0.0
        },
    }
}

/// Assembles the cluster report from the (possibly sharded) engine
/// scopes, iterating every per-proxy and per-link aggregate in **global**
/// index order so the floating-point reductions are identical under every
/// partitioning.
pub(crate) fn merge_reports(
    topology: &Topology,
    engines: Vec<Engine<'_>>,
    router: Option<Router>,
) -> ClusterReport {
    let n_requests = engines[0].n_requests;
    let t_end = engines.iter().map(|e| e.t_end).fold(0.0, f64::max);
    let coop_on = router.is_some();

    let n_proxies = topology.n_proxies();
    let index = ScopeIndex::new(topology, engines.iter().map(|e| &e.scope));
    let proxy = |g: usize| {
        let (ei, li) = index.proxy(g);
        &engines[ei].proxies[li]
    };

    let nodes: Vec<NodeReport> =
        (0..n_proxies).map(|g| node_report(proxy(g), g, n_requests, coop_on)).collect();

    let link_reports: Vec<LinkReport> = topology
        .links()
        .iter()
        .enumerate()
        .map(|(g, spec)| {
            let (ei, li) = index.link(g);
            let state = &engines[ei].links[li];
            LinkReport {
                name: spec.name.clone(),
                utilisation: if t_end > 0.0 { state.busy_time() / t_end } else { 0.0 },
                bytes_carried: state.bytes_carried,
                jobs_completed: state.jobs_completed,
            }
        })
        .collect();

    let total_measured: u64 = nodes.iter().map(|n| n.measured_requests).sum();
    let mean_access_time =
        nodes.iter().map(|n| n.mean_access_time * n.measured_requests as f64).sum::<f64>()
            / total_measured.max(1) as f64;
    let total_bytes: f64 =
        (0..n_proxies).map(|g| proxy(g).demand_bytes + proxy(g).prefetch_bytes).sum();

    ClusterReport {
        nodes,
        links: link_reports,
        mean_access_time,
        bytes_per_request: total_bytes / (n_requests * n_proxies as u64).max(1) as f64,
        duration: t_end,
        coop: router.map(|r| CoopReport {
            router: r.stats(),
            peer_fetches: (0..n_proxies).map(|g| proxy(g).peer_fetches).sum(),
            peer_false_hits: (0..n_proxies).map(|g| proxy(g).peer_false_hits).sum(),
        }),
    }
}

/// What replaying a trace cost: consumed records and the high-water mark
/// of any single proxy's resident trace buffer — pinned O(chunk-size), not
/// O(trace), by the replay tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayStats {
    /// Records consumed across all proxies.
    pub records_replayed: u64,
    /// Max per-stream resident trace bytes observed.
    pub peak_resident_bytes: usize,
}

/// Side outputs of a run beyond the report/obs pair.
pub(crate) struct RunExtras {
    /// The recorded request trace, merged in global time order, when
    /// recording was requested.
    pub(crate) recorded: Option<Vec<TraceRecord>>,
    /// Replay accounting, when the workload replayed a trace.
    pub(crate) replay: Option<ReplayStats>,
}

/// Merges per-proxy recorded request streams (each already time-ordered)
/// into one globally ordered trace: by time, ties by global proxy id, then
/// by per-proxy sequence — deterministic under every sharding.
pub(crate) fn merge_recorded(parts: Vec<(usize, Vec<TraceRecord>)>) -> Vec<TraceRecord> {
    let mut tagged: Vec<(usize, usize, TraceRecord)> = parts
        .into_iter()
        .flat_map(|(g, recs)| recs.into_iter().enumerate().map(move |(s, r)| (g, s, r)))
        .collect();
    tagged.sort_by(|a, b| a.2.time.total_cmp(&b.2.time).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    tagged.into_iter().map(|(_, _, r)| r).collect()
}

/// Runs the closed loop partitioned by `plan` — the single-shard plan is
/// the classic single-threaded driver — optionally with observability
/// attached. The report is bit-identical with probes on or off (pinned by
/// `obs_parity.rs`); the second return is `Some` exactly when an enabled
/// config was passed. With `record` set, every issued request is captured
/// and returned as a merged trace in [`RunExtras`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_observed(
    topology: &Topology,
    workload: EngineWorkload<'_>,
    coop_cfg: Option<&CoopConfig>,
    requests: usize,
    warmup: usize,
    seed: u64,
    plan: &ShardPlan,
    obs: Option<&ObsConfig>,
    record: bool,
    faults: Option<&FaultConfig>,
) -> (ClusterReport, Option<ClusterObs>, RunExtras) {
    let router =
        coop_cfg.map(|c| Router::new(topology.n_proxies(), workload.knobs().cache_capacity, *c));
    // Boundary faults (crashes, digest losses) apply at globally
    // synchronised driver boundaries; everything else is a pure time
    // query the engines make directly against the plan.
    let boundary = faults.map(|f| f.plan.boundary_events()).unwrap_or_default();
    let obs_cfg = obs.filter(|c| c.enabled);
    // Series sample on the explicit grid, or the cooperative digest epoch
    // when none was given; without either, series probes stay off.
    let grid = match obs_cfg {
        Some(c) if c.sample_every > 0.0 => c.sample_every,
        Some(_) => coop_cfg.map(|c| c.digest.epoch).unwrap_or(0.0),
        None => 0.0,
    };
    let trace_every = obs_cfg.map(|c| c.trace_every).unwrap_or(0);
    let structures = Structures::build(workload);
    let runners: Vec<ShardRunner<Engine<'_>>> = (0..plan.n_shards())
        .map(|s| {
            let scope = Scope::shard(topology, plan, s);
            let mut engine = Engine::new(
                topology,
                workload,
                coop_cfg,
                requests,
                warmup,
                seed,
                scope,
                faults,
                &structures,
            );
            if trace_every > 0 {
                engine.attach_trace(trace_every);
            }
            if record {
                engine.attach_recorder();
            }
            match obs_cfg {
                Some(cfg) => {
                    let probes = EngineObs::new(cfg, grid, topology, &engine.scope);
                    engine.attach_obs(probes);
                    ShardRunner::new(engine).with_obs(s, cfg)
                }
                None => ShardRunner::new(engine),
            }
        })
        .collect();
    let driver =
        if plan.n_shards() > 1 && plan.lookahead() > 0.0 { "windowed" } else { "sequential" };
    let (runners, router) = shard::drive(runners, router, plan, &boundary);

    let mut engines = Vec::with_capacity(plan.n_shards());
    let mut profiles = Vec::new();
    let mut flight = Vec::new();
    for r in runners {
        let (core, robs) = r.into_parts();
        if let Some(o) = robs {
            flight.extend(o.flight.records());
            profiles.push(o.profile);
        }
        engines.push(core);
    }

    let cluster_obs = obs_cfg.map(|_| {
        let t_end = engines.iter().map(|e| e.t_end).fold(0.0, f64::max);
        let registries: Vec<Registry> =
            engines.iter_mut().filter_map(|e| e.obs_finish(t_end)).collect();
        // Span buffers concatenate in shard order; the store's total sort
        // makes the merge order-independent anyway.
        let traces = (trace_every > 0).then(|| {
            let mut events = Vec::new();
            for e in &mut engines {
                events.extend(e.take_trace_events());
            }
            TraceStore::from_events(events, trace_every)
        });
        let mut out = crate::obs::assemble(
            registries,
            profiles,
            flight,
            traces,
            plan.n_shards(),
            driver,
            grid,
            t_end,
        );
        // The router's counters become registry metrics (digest traffic is
        // the cooperative layer's headline overhead).
        if let Some(r) = router.as_ref() {
            let s = r.stats();
            for (name, v) in [
                ("coop.digest_epochs", s.digest_epochs),
                ("coop.vnode_migrations", s.vnode_migrations),
                ("coop.digest_bytes", s.digest_bytes),
                ("coop.delta_ops", s.delta_ops),
                ("coop.delta_flushes", s.delta_flushes),
                ("coop.snapshot_flushes", s.snapshot_flushes),
            ] {
                let id = out.registry.counter(name);
                out.registry.inc(id, v);
            }
        }
        out
    });

    let recorded = record.then(|| {
        let mut parts = Vec::new();
        for e in &mut engines {
            parts.extend(e.take_recorded());
        }
        merge_recorded(parts)
    });
    let replay = {
        let mut any = false;
        let (mut records, mut peak) = (0u64, 0usize);
        for e in &engines {
            if let Some((r, pk)) = e.replay_stats() {
                any = true;
                records += r;
                peak = peak.max(pk);
            }
        }
        any.then_some(ReplayStats { records_replayed: records, peak_resident_bytes: peak })
    };
    let extras = RunExtras { recorded, replay };

    (merge_reports(topology, engines, router), cluster_obs, extras)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use workload::synth_web::SynthWebConfig;

    fn workload(proxies: Vec<SynthWebConfig>, seed: Option<u64>) -> AdaptiveWorkload {
        AdaptiveWorkload {
            proxies,
            cache_capacity: 20,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.0,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: seed,
            delayed: DelayedHitsConfig::default(),
        }
    }

    #[test]
    fn structures_are_shared_exactly_across_lambda() {
        let base = SynthWebConfig::default();
        let w = workload(
            vec![
                base,
                SynthWebConfig { lambda: 5.0, ..base },
                SynthWebConfig { n_items: 600, ..base },
                SynthWebConfig { n_clients: 4, ..base },
                SynthWebConfig { lambda: 9.0, n_items: 600, ..base },
            ],
            Some(3),
        );
        let structures = Structures::build(EngineWorkload::Synth(&w));
        assert_eq!(structures.shared.len(), 3, "one structure per distinct non-lambda config");
        assert_eq!(structures.of_proxy, vec![0, 0, 1, 2, 1]);
        let webs: Vec<SynthWeb> =
            (0..5).map(|i| structures.proxy(&w, i, &mut Rng::new(i as u64)).0).collect();
        assert!(Arc::ptr_eq(&webs[0].chain, &webs[1].chain));
        assert!(Arc::ptr_eq(&webs[2].chain, &webs[4].chain));
        assert!(!Arc::ptr_eq(&webs[0].chain, &webs[2].chain), "n_items differs");
        assert!(!Arc::ptr_eq(&webs[0].chain, &webs[3].chain), "n_clients differs");
        for (web, cfg) in webs.iter().zip(&w.proxies) {
            assert_eq!(web.config().lambda, cfg.lambda, "the rate stays per proxy");
        }

        // Without a shared seed every proxy draws its own structure.
        let own = workload(vec![base, base], None);
        let structures = Structures::build(EngineWorkload::Synth(&own));
        assert!(structures.shared.is_empty());
        let a = structures.proxy(&own, 0, &mut Rng::new(1)).0;
        let b = structures.proxy(&own, 1, &mut Rng::new(1)).0;
        assert!(!Arc::ptr_eq(&a.chain, &b.chain));
    }
}

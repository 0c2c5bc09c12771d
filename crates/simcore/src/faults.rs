//! Deterministic fault injection: scheduled link/node/origin failures and
//! the timeout–retry–backoff policy the request path survives them with.
//!
//! A [`FaultPlan`] is a validated, time-sorted schedule of [`FaultEvent`]s
//! — link down/up with optional packet loss or latency inflation, proxy
//! crashes (cold cache + MSHR drain), origin brownouts/blackouts, digest
//! delta loss. The plan is **static**: once built it never changes, so
//! every piece of fault state is a *pure function of `(plan, t)`*. That is
//! the whole determinism story:
//!
//! * **Empty plan ⇒ bit-identical.** Every query returns its healthy
//!   default without touching a float, an RNG, or an event, so a run
//!   driven through the fault-aware paths with an empty plan is
//!   bit-identical (derived `PartialEq`, no tolerance) to a run that
//!   never heard of faults.
//! * **Shard-invariant.** Queries are pure and the only *stateful*
//!   fault kinds (crash, digest loss) apply at globally synchronised
//!   driver boundaries, exactly like digest refreshes — so a non-empty
//!   plan is itself bit-identical across shard counts.
//! * **No RNG perturbation.** Packet-loss rolls and retry jitter come
//!   from pure hashes of `(seed, entity, job, attempt)` built on
//!   [`crate::rng::stream_seed`]/[`crate::rng::splitmix64`], never from
//!   the workload generators' RNG streams.
//!
//! [`RetryPolicy`] describes the client side: a per-attempt fetch
//! timeout, capped exponential backoff with deterministic jitter, and a
//! bounded retry budget. Because the plan is static, an engine can
//! resolve the *entire* attempt schedule analytically at launch time —
//! walk the attempts, charge `timeout + backoff` per failure, and either
//! launch the transfer at the delayed instant or settle the request as
//! failed at the known failure time.

use crate::rng::{splitmix64, stream_seed};

/// Domain separator for packet-loss rolls.
const SALT_LOSS: u64 = 0x6661_756c_742d_6c73; // "fault-ls"
/// Domain separator for retry-backoff jitter.
const SALT_BACKOFF: u64 = 0x6661_756c_742d_626f; // "fault-bo"

/// One kind of injected fault. Link and proxy indices are **global**
/// topology ids, so a plan means the same thing under every sharding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The link stops carrying traffic: every fetch attempt routed over
    /// it fails until a `LinkUp`/`LinkDegrade` supersedes it.
    LinkDown { link: usize },
    /// The link returns to full health (no loss, nominal latency).
    LinkUp { link: usize },
    /// The link carries traffic but degraded: each fetch attempt routed
    /// over it is lost with probability `loss` (a deterministic
    /// per-attempt roll), and its propagation latency is multiplied by
    /// `latency_factor` (≥ 1, so conservative-window lookaheads stay
    /// sound).
    LinkDegrade { link: usize, loss: f64, latency_factor: f64 },
    /// The proxy restarts cold: its cache is wiped, its outstanding
    /// MSHR fetches are drained (waiters settle as failed), its buffered
    /// digest deltas are dropped, and the router quarantines its stale
    /// digest until the proxy's next refresh payload lands.
    ProxyCrash { proxy: usize },
    /// The proxy's buffered digest delta ops are lost before the next
    /// boundary; it recovers by shipping a full snapshot instead.
    DigestLoss { proxy: usize },
    /// The origin stays reachable but slow: every origin response is
    /// delayed by an extra `delay` until superseded.
    OriginBrownout { delay: f64 },
    /// The origin stops answering: every origin-routed fetch attempt
    /// fails until `OriginRestore`.
    OriginBlackout,
    /// The origin returns to full health.
    OriginRestore,
}

impl FaultKind {
    /// Stateful kinds mutate engine/router state and must apply at a
    /// globally synchronised driver boundary (like a digest refresh).
    /// Everything else is resolved by the pure time queries below.
    pub fn is_boundary(&self) -> bool {
        matches!(self, FaultKind::ProxyCrash { .. } | FaultKind::DigestLoss { .. })
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulation time the fault takes effect (inclusive).
    pub t: f64,
    pub kind: FaultKind,
}

/// The state a link event leaves its link in, until the link's next event.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LinkState {
    down: bool,
    loss: f64,
    latency_factor: f64,
}

impl LinkState {
    const HEALTHY: LinkState = LinkState { down: false, loss: 0.0, latency_factor: 1.0 };
}

/// The state an origin event leaves the origin in.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OriginState {
    dark: bool,
    delay: f64,
}

impl OriginState {
    const HEALTHY: OriginState = OriginState { dark: false, delay: 0.0 };
}

/// The state a timeline of `(t, state from t on)` entries, in schedule
/// order, gives at time `t`: the latest entry at or before `t` wins, and
/// among entries at the same time the last scheduled one. Before the
/// first entry the entity is `healthy`.
fn state_at<S: Copy>(timeline: &[(f64, S)], t: f64, healthy: S) -> S {
    match timeline.partition_point(|&(te, _)| te <= t) {
        0 => healthy,
        i => timeline[i - 1].1,
    }
}

/// A validated, time-sorted schedule of faults. See the module docs for
/// the determinism contract; [`FaultPlan::default`] is the empty plan.
///
/// Queries are `O(log k)` in the number `k` of events that touch the
/// queried entity: the plan keeps one state timeline per link and one for
/// the origin, built once from the schedule.
#[derive(Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Per global link id, the link's state changes in schedule order.
    links: Vec<Vec<(f64, LinkState)>>,
    /// The origin's state changes in schedule order.
    origin: Vec<(f64, OriginState)>,
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The timelines are a function of the events.
        f.debug_struct("FaultPlan").field("events", &self.events).finish()
    }
}

impl FaultPlan {
    /// Builds a plan from events in any order. Panics on invalid events:
    /// non-finite or negative times, `loss` outside `[0, 1)`,
    /// `latency_factor < 1`, or a negative brownout delay.
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        for (i, e) in events.iter().enumerate() {
            assert!(e.t.is_finite() && e.t >= 0.0, "fault {i}: bad time {}", e.t);
            match e.kind {
                FaultKind::LinkDegrade { loss, latency_factor, .. } => {
                    assert!((0.0..1.0).contains(&loss), "fault {i}: loss must be in [0,1)");
                    assert!(
                        latency_factor >= 1.0 && latency_factor.is_finite(),
                        "fault {i}: latency factor must be ≥ 1 (window lookaheads rely on it)"
                    );
                }
                FaultKind::OriginBrownout { delay } => {
                    assert!(delay >= 0.0 && delay.is_finite(), "fault {i}: bad brownout delay");
                }
                _ => {}
            }
        }
        // Stable by schedule order on ties: later entries supersede.
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        let mut links: Vec<Vec<(f64, LinkState)>> = Vec::new();
        let mut origin = Vec::new();
        for e in &events {
            let (link, state) = match e.kind {
                FaultKind::LinkDown { link } => {
                    (link, LinkState { down: true, ..LinkState::HEALTHY })
                }
                FaultKind::LinkUp { link } => (link, LinkState::HEALTHY),
                FaultKind::LinkDegrade { link, loss, latency_factor } => {
                    (link, LinkState { down: false, loss, latency_factor })
                }
                FaultKind::OriginBlackout => {
                    origin.push((e.t, OriginState { dark: true, delay: 0.0 }));
                    continue;
                }
                FaultKind::OriginBrownout { delay } => {
                    origin.push((e.t, OriginState { dark: false, delay }));
                    continue;
                }
                FaultKind::OriginRestore => {
                    origin.push((e.t, OriginState::HEALTHY));
                    continue;
                }
                FaultKind::ProxyCrash { .. } | FaultKind::DigestLoss { .. } => continue,
            };
            if links.len() <= link {
                links.resize_with(link + 1, Vec::new);
            }
            links[link].push((e.t, state));
        }
        FaultPlan { events, links, origin }
    }

    /// The empty plan: every query answers "healthy".
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The boundary (stateful) events in schedule order — the driver
    /// applies these at globally synchronised instants.
    pub fn boundary_events(&self) -> Vec<FaultEvent> {
        self.events.iter().filter(|e| e.kind.is_boundary()).copied().collect()
    }

    fn link(&self, link: usize, t: f64) -> LinkState {
        let timeline = self.links.get(link).map_or(&[][..], Vec::as_slice);
        state_at(timeline, t, LinkState::HEALTHY)
    }

    fn origin(&self, t: f64) -> OriginState {
        state_at(&self.origin, t, OriginState::HEALTHY)
    }

    /// Is `link` down at time `t`? (The latest link event at or before
    /// `t` wins; links start up.)
    pub fn link_down(&self, link: usize, t: f64) -> bool {
        self.link(link, t).down
    }

    /// Packet-loss probability of `link` at time `t` (0 when healthy).
    pub fn link_loss(&self, link: usize, t: f64) -> f64 {
        self.link(link, t).loss
    }

    /// Latency multiplier of `link` at time `t` (1 when healthy; always
    /// ≥ 1, so inflated hops never undercut a window lookahead).
    pub fn link_latency_factor(&self, link: usize, t: f64) -> f64 {
        self.link(link, t).latency_factor
    }

    /// Is the origin blacked out at time `t`?
    pub fn origin_dark(&self, t: f64) -> bool {
        self.origin(t).dark
    }

    /// Extra origin response delay at time `t` (0 when healthy).
    pub fn origin_delay(&self, t: f64) -> f64 {
        self.origin(t).delay
    }

    /// Deterministic packet-loss roll: is attempt `attempt` of job `job`
    /// lost on `link` at time `t`? A pure hash — identical under every
    /// sharding, and never touched when the link is healthy.
    pub fn attempt_lost(&self, seed: u64, link: usize, job: u64, attempt: u32, t: f64) -> bool {
        let p = self.link_loss(link, t);
        if p <= 0.0 {
            return false;
        }
        let mut s = stream_seed(stream_seed(seed, SALT_LOSS), job)
            .wrapping_add(stream_seed(link as u64, u64::from(attempt)));
        let u = (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

/// Client-side survival policy: per-attempt fetch timeout, capped
/// exponential backoff with deterministic jitter, bounded retries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// How long one fetch attempt waits before it is declared failed.
    pub timeout: f64,
    /// Re-attempts after the first (0 = fail on the first timeout).
    pub max_retries: u32,
    /// Backoff before retry `k` is nominally `base · 2^k`, capped below.
    pub backoff_base: f64,
    /// Upper bound on the nominal backoff.
    pub backoff_cap: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { timeout: 1.0, max_retries: 3, backoff_base: 0.25, backoff_cap: 2.0 }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, fail at its timeout.
    pub fn no_retries(timeout: f64) -> RetryPolicy {
        RetryPolicy { timeout, max_retries: 0, ..RetryPolicy::default() }
    }

    /// Panics on non-positive/non-finite timings.
    pub fn validate(&self) {
        assert!(self.timeout > 0.0 && self.timeout.is_finite(), "timeout must be positive");
        assert!(self.backoff_base >= 0.0 && self.backoff_base.is_finite(), "bad backoff base");
        assert!(self.backoff_cap >= self.backoff_base, "cap below base");
        assert!(self.backoff_cap.is_finite(), "bad backoff cap");
    }

    /// Total attempts the budget allows.
    pub fn attempts(&self) -> u32 {
        1 + self.max_retries
    }

    /// The nominal (pre-jitter) backoff before retry `attempt` — a
    /// monotone non-decreasing doubling schedule, capped.
    pub fn nominal_backoff(&self, attempt: u32) -> f64 {
        (self.backoff_base * 2f64.powi(attempt.min(1023) as i32)).min(self.backoff_cap)
    }

    /// The jittered backoff before retry `attempt` of job `job`: the
    /// nominal value scaled into `[½·nominal, nominal)` by a pure hash of
    /// `(seed, job, attempt)`. Deterministic and shard-invariant.
    pub fn backoff(&self, seed: u64, job: u64, attempt: u32) -> f64 {
        let nominal = self.nominal_backoff(attempt);
        if nominal <= 0.0 {
            return 0.0;
        }
        let mut s = stream_seed(stream_seed(seed, SALT_BACKOFF), job)
            .wrapping_add(stream_seed(1, u64::from(attempt)));
        let u = (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        nominal * (0.5 + 0.5 * u)
    }
}

/// Everything an engine needs to run faulted: the schedule plus the
/// client-side retry policy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    pub plan: FaultPlan,
    pub retry: RetryPolicy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original whole-plan scans, kept as the reference the indexed
    /// queries are checked against.
    mod scan {
        use super::*;

        pub fn link_down(p: &FaultPlan, link: usize, t: f64) -> bool {
            let mut down = false;
            for e in p.events() {
                if e.t > t {
                    break;
                }
                match e.kind {
                    FaultKind::LinkDown { link: l } if l == link => down = true,
                    FaultKind::LinkUp { link: l } | FaultKind::LinkDegrade { link: l, .. }
                        if l == link =>
                    {
                        down = false
                    }
                    _ => {}
                }
            }
            down
        }

        pub fn link_loss(p: &FaultPlan, link: usize, t: f64) -> f64 {
            let mut loss = 0.0;
            for e in p.events() {
                if e.t > t {
                    break;
                }
                match e.kind {
                    FaultKind::LinkDegrade { link: l, loss: x, .. } if l == link => loss = x,
                    FaultKind::LinkUp { link: l } | FaultKind::LinkDown { link: l }
                        if l == link =>
                    {
                        loss = 0.0
                    }
                    _ => {}
                }
            }
            loss
        }

        pub fn link_latency_factor(p: &FaultPlan, link: usize, t: f64) -> f64 {
            let mut factor = 1.0;
            for e in p.events() {
                if e.t > t {
                    break;
                }
                match e.kind {
                    FaultKind::LinkDegrade { link: l, latency_factor: f, .. } if l == link => {
                        factor = f
                    }
                    FaultKind::LinkUp { link: l } | FaultKind::LinkDown { link: l }
                        if l == link =>
                    {
                        factor = 1.0
                    }
                    _ => {}
                }
            }
            factor
        }

        pub fn origin_dark(p: &FaultPlan, t: f64) -> bool {
            let mut dark = false;
            for e in p.events() {
                if e.t > t {
                    break;
                }
                match e.kind {
                    FaultKind::OriginBlackout => dark = true,
                    FaultKind::OriginRestore | FaultKind::OriginBrownout { .. } => dark = false,
                    _ => {}
                }
            }
            dark
        }

        pub fn origin_delay(p: &FaultPlan, t: f64) -> f64 {
            let mut delay = 0.0;
            for e in p.events() {
                if e.t > t {
                    break;
                }
                match e.kind {
                    FaultKind::OriginBrownout { delay: d } => delay = d,
                    FaultKind::OriginRestore | FaultKind::OriginBlackout => delay = 0.0,
                    _ => {}
                }
            }
            delay
        }
    }

    /// A fault from generated `(kind, entity, time slot, magnitude)`.
    /// Times sit on a coarse half-second grid, so plans are full of
    /// same-instant events whose schedule order decides the winner.
    fn fault((kind, entity, slot, x): (u8, usize, u8, f64)) -> FaultEvent {
        let kind = match kind {
            0 => FaultKind::LinkDown { link: entity },
            1 => FaultKind::LinkUp { link: entity },
            2 => FaultKind::LinkDegrade { link: entity, loss: x, latency_factor: 1.0 + 4.0 * x },
            3 => FaultKind::OriginBrownout { delay: x },
            4 => FaultKind::OriginBlackout,
            5 => FaultKind::OriginRestore,
            6 => FaultKind::ProxyCrash { proxy: entity },
            _ => FaultKind::DigestLoss { proxy: entity },
        };
        FaultEvent { t: 0.5 * f64::from(slot), kind }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        #[test]
        fn indexed_queries_match_the_linear_scan(
            raw in proptest::collection::vec((0u8..8, 0usize..4, 0u8..10, 0.0f64..0.99), 0..40)
        ) {
            let events: Vec<FaultEvent> = raw.into_iter().map(fault).collect();
            let plan = FaultPlan::new(events.clone());
            prop_assert_eq!(plan.events().len(), events.len());
            prop_assert!(plan.events().windows(2).all(|w| w[0].t <= w[1].t));
            prop_assert_eq!(&plan, &FaultPlan::new(events.clone()));
            for step in 0..24 {
                // Every grid instant (ties), the gaps between them, and
                // times before and after the whole plan.
                let t = 0.25 * f64::from(step) - 0.5;
                for link in 0..6 {
                    prop_assert_eq!(plan.link_down(link, t), scan::link_down(&plan, link, t));
                    prop_assert_eq!(
                        plan.link_loss(link, t).to_bits(),
                        scan::link_loss(&plan, link, t).to_bits()
                    );
                    prop_assert_eq!(
                        plan.link_latency_factor(link, t).to_bits(),
                        scan::link_latency_factor(&plan, link, t).to_bits()
                    );
                }
                prop_assert_eq!(plan.origin_dark(t), scan::origin_dark(&plan, t));
                prop_assert_eq!(
                    plan.origin_delay(t).to_bits(),
                    scan::origin_delay(&plan, t).to_bits()
                );
            }
        }
    }

    fn flap(link: usize, down: f64, up: f64) -> Vec<FaultEvent> {
        vec![
            FaultEvent { t: down, kind: FaultKind::LinkDown { link } },
            FaultEvent { t: up, kind: FaultKind::LinkUp { link } },
        ]
    }

    #[test]
    fn empty_plan_answers_healthy() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        assert!(!p.link_down(3, 10.0));
        assert_eq!(p.link_loss(3, 10.0), 0.0);
        assert_eq!(p.link_latency_factor(3, 10.0), 1.0);
        assert!(!p.origin_dark(10.0));
        assert_eq!(p.origin_delay(10.0), 0.0);
        assert!(!p.attempt_lost(7, 3, 9, 0, 10.0));
    }

    #[test]
    fn link_flap_windows_are_inclusive_and_isolated() {
        let p = FaultPlan::new(flap(2, 5.0, 8.0));
        assert!(!p.link_down(2, 4.999));
        assert!(p.link_down(2, 5.0));
        assert!(p.link_down(2, 7.999));
        assert!(!p.link_down(2, 8.0));
        // Other links unaffected.
        assert!(!p.link_down(1, 6.0));
    }

    #[test]
    fn degrade_sets_loss_and_latency_until_superseded() {
        let p = FaultPlan::new(vec![
            FaultEvent {
                t: 1.0,
                kind: FaultKind::LinkDegrade { link: 0, loss: 0.4, latency_factor: 3.0 },
            },
            FaultEvent { t: 6.0, kind: FaultKind::LinkUp { link: 0 } },
        ]);
        assert_eq!(p.link_loss(0, 2.0), 0.4);
        assert_eq!(p.link_latency_factor(0, 2.0), 3.0);
        assert!(!p.link_down(0, 2.0));
        assert_eq!(p.link_loss(0, 6.0), 0.0);
        assert_eq!(p.link_latency_factor(0, 6.0), 1.0);
    }

    #[test]
    fn origin_state_machine() {
        let p = FaultPlan::new(vec![
            FaultEvent { t: 2.0, kind: FaultKind::OriginBrownout { delay: 0.5 } },
            FaultEvent { t: 4.0, kind: FaultKind::OriginBlackout },
            FaultEvent { t: 9.0, kind: FaultKind::OriginRestore },
        ]);
        assert_eq!(p.origin_delay(3.0), 0.5);
        assert!(!p.origin_dark(3.0));
        assert!(p.origin_dark(5.0));
        assert_eq!(p.origin_delay(5.0), 0.0);
        assert!(!p.origin_dark(9.0));
    }

    #[test]
    fn events_sort_and_boundary_filter() {
        let p = FaultPlan::new(vec![
            FaultEvent { t: 9.0, kind: FaultKind::DigestLoss { proxy: 1 } },
            FaultEvent { t: 3.0, kind: FaultKind::ProxyCrash { proxy: 0 } },
            FaultEvent { t: 5.0, kind: FaultKind::LinkDown { link: 0 } },
        ]);
        let ts: Vec<f64> = p.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![3.0, 5.0, 9.0]);
        let boundary = p.boundary_events();
        assert_eq!(boundary.len(), 2);
        assert!(boundary.iter().all(|e| e.kind.is_boundary()));
    }

    #[test]
    fn loss_rolls_are_pure_functions() {
        let p = FaultPlan::new(vec![FaultEvent {
            t: 0.0,
            kind: FaultKind::LinkDegrade { link: 4, loss: 0.5, latency_factor: 1.0 },
        }]);
        let a = p.attempt_lost(11, 4, 77, 2, 1.0);
        assert_eq!(a, p.attempt_lost(11, 4, 77, 2, 1.0));
        // About half the rolls lose at p = 0.5.
        let lost = (0..10_000u64).filter(|&j| p.attempt_lost(11, 4, j, 0, 1.0)).count();
        assert!((3_500..6_500).contains(&lost), "{lost} of 10000 lost");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_nominal_monotone() {
        let r = RetryPolicy::default();
        r.validate();
        for k in 0..8 {
            let b = r.backoff(5, 99, k);
            assert_eq!(b, r.backoff(5, 99, k), "deterministic");
            let nominal = r.nominal_backoff(k);
            assert!(b >= 0.5 * nominal && b < nominal, "jitter bounds: {b} vs {nominal}");
            if k > 0 {
                assert!(nominal >= r.nominal_backoff(k - 1), "nominal monotone");
            }
            assert!(nominal <= r.backoff_cap);
        }
        assert_eq!(RetryPolicy::no_retries(0.7).attempts(), 1);
    }

    #[test]
    #[should_panic(expected = "latency factor")]
    fn latency_deflation_is_rejected() {
        FaultPlan::new(vec![FaultEvent {
            t: 0.0,
            kind: FaultKind::LinkDegrade { link: 0, loss: 0.0, latency_factor: 0.5 },
        }]);
    }
}

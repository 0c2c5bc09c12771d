//! The retired O(links + proxies) scan drivers, kept **only** as a parity
//! oracle.
//!
//! Before the indexed event scheduler (`simcore::sched`) landed, both
//! cluster engines selected the next event by scanning every link and
//! every proxy per iteration. The scan is gone from the hot paths
//! (`closed_loop`/`static_mode` now arm per-link/per-proxy timers and run
//! under the `shard` drivers), but it survives here, driving the *same*
//! `Engine` handler cores, so the engine-parity tests can pin that the
//! scheduler rewrite changed event *selection cost* and nothing else: both
//! drivers must produce byte-identical [`ClusterReport`]s.
//!
//! Compiled only under the `legacy-oracle` cargo feature (on by default
//! for this crate, so `cargo test` keeps the parity suites; release
//! consumers — the harness, the facade — opt out with
//! `default-features = false` and carry no dead driver). Not part of the
//! public API surface (`#[doc(hidden)]` at the re-export); do not build
//! features on it.
//!
//! The scan predates link latency, so it only accepts zero-latency
//! topologies (every effect settles at its emission instant, inline —
//! exactly the behaviour the pre-shard engines hard-coded).

use crate::report::ClusterReport;
use crate::shard::{flush_boundary, BoundaryEntry, Effect, EngineCore};
use crate::sim::{LinkState, Scope};
use crate::{closed_loop, static_mode, ClusterConfig, Workload};
use coop::Router;
use std::collections::VecDeque;

/// Earliest pending event over a set of links: `(time, link_index)`,
/// lowest index first on ties — the O(links) scan the scheduler replaced.
fn earliest_link_event(links: &[LinkState]) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (i, l) in links.iter().enumerate() {
        if let Some(t) = l.next_event() {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
    }
    best
}

/// Inline settlement of a full-scope handler's effects: on the
/// zero-latency topologies the scan supports, every effect applies at its
/// emission instant, children-before-siblings — byte-identical to the
/// nesting the pre-shard engines executed inline.
fn settle<C: EngineCore>(core: &mut C, t: f64, scratch: &mut Vec<Effect<C::Job>>) {
    let mut dq: VecDeque<Effect<C::Job>> = VecDeque::new();
    core.take_effects(scratch);
    dq.extend(scratch.drain(..));
    while let Some(e) = dq.pop_front() {
        debug_assert!(core.owns(&e), "legacy scan runs one full scope");
        debug_assert_eq!(e.time(), t, "legacy scan supports zero-latency topologies only");
        core.apply_now(e, t);
        core.take_effects(scratch);
        for child in scratch.drain(..).rev() {
            dq.push_front(child);
        }
    }
}

/// Runs one cluster simulation with the legacy scan driver. Same
/// semantics, dispatch, and validation as [`crate::ClusterSim::run`] on
/// zero-latency topologies (the only kind the scan era had).
pub fn run(config: &ClusterConfig<'_>, seed: u64) -> ClusterReport {
    config.validate();
    assert!(
        !config.topology.has_latency(),
        "the legacy scan predates link latency; use the shard drivers"
    );
    let scope = Scope::full(&config.topology);
    match &config.workload {
        Workload::Static(w) => {
            let eng = static_mode::Engine::new(
                &config.topology,
                w,
                config.requests_per_proxy,
                config.warmup_per_proxy,
                seed,
                scope,
                None,
            );
            run_static(&config.topology, eng)
        }
        Workload::Adaptive(w) => {
            let workload = closed_loop::EngineWorkload::Synth(w);
            let eng = closed_loop::Engine::new(
                &config.topology,
                workload,
                None,
                config.requests_per_proxy,
                config.warmup_per_proxy,
                seed,
                scope,
                None,
                &closed_loop::Structures::build(workload),
            );
            run_closed(&config.topology, eng, None)
        }
        Workload::Cooperative(w) => {
            let workload = closed_loop::EngineWorkload::Synth(&w.base);
            let eng = closed_loop::Engine::new(
                &config.topology,
                workload,
                Some(&w.coop),
                config.requests_per_proxy,
                config.warmup_per_proxy,
                seed,
                scope,
                None,
                &closed_loop::Structures::build(workload),
            );
            let router = Router::new(config.topology.n_proxies(), w.base.cache_capacity, w.coop);
            run_closed(&config.topology, eng, Some(router))
        }
        Workload::Trace(w) => {
            let workload = closed_loop::EngineWorkload::Trace(w);
            let eng = closed_loop::Engine::new(
                &config.topology,
                workload,
                None,
                config.requests_per_proxy,
                config.warmup_per_proxy,
                seed,
                scope,
                None,
                &closed_loop::Structures::build(workload),
            );
            run_closed(&config.topology, eng, None)
        }
    }
}

/// The closed-loop scan loop: every iteration walks all links and all
/// proxies for the earliest event. Tie order (links by index, then
/// requests by proxy, then prefetches, refresh strictly last) matches the
/// shard drivers' class layout exactly.
fn run_closed(
    topology: &crate::Topology,
    mut eng: closed_loop::Engine<'_>,
    mut router: Option<Router>,
) -> ClusterReport {
    let mut scratch = Vec::new();
    let mut dirty = Vec::new();
    loop {
        let link_ev = earliest_link_event(&eng.links);
        let mut req: Option<(f64, usize)> = None;
        let mut pre: Option<(f64, usize)> = None;
        for i in 0..eng.n_proxies() {
            if let Some(t) = eng.request_due(i) {
                if req.is_none_or(|(bt, _)| t < bt) {
                    req = Some((t, i));
                }
            }
            if let Some(t) = eng.prefetch_due(i) {
                if pre.is_none_or(|(bt, _)| t < bt) {
                    pre = Some((t, i));
                }
            }
        }

        let ts = link_ev.map_or(f64::INFINITY, |(t, _)| t);
        let tr = req.map_or(f64::INFINITY, |(t, _)| t);
        let tp = pre.map_or(f64::INFINITY, |(t, _)| t);
        if ts.is_infinite() && tr.is_infinite() && tp.is_infinite() {
            // Refresh boundaries beyond the last real event never fire.
            break;
        }
        let tb = router.as_ref().map_or(f64::INFINITY, |r| r.next_refresh());
        if tb < ts && tb < tr && tb < tp {
            let mut entries: Vec<BoundaryEntry> = Vec::new();
            eng.refresh_payloads(&mut entries);
            flush_boundary(router.as_mut().expect("boundary without a router"), entries);
        } else if ts <= tr && ts <= tp {
            let (t, l) = link_ev.expect("link event");
            eng.on_link(t, l);
            settle(&mut eng, t, &mut scratch);
        } else if tr <= tp {
            let (t, i) = req.expect("request event");
            eng.on_request(i, router.as_ref());
            settle(&mut eng, t, &mut scratch);
        } else {
            let (t, i) = pre.expect("prefetch event");
            eng.on_issue_prefetch(i, router.as_ref());
            settle(&mut eng, t, &mut scratch);
        }
        // The scan recomputes everything next iteration; no timers to sync.
        eng.drain_dirty(&mut dirty);
        dirty.clear();
    }
    closed_loop::merge_reports(topology, vec![eng], router)
}

/// The open-loop scan loop, mirroring the closed-loop one (no refresh).
fn run_static(topology: &crate::Topology, mut eng: static_mode::Engine<'_>) -> ClusterReport {
    let mut scratch = Vec::new();
    let mut dirty = Vec::new();
    loop {
        let link_ev = earliest_link_event(&eng.links);
        let mut req: Option<(f64, usize)> = None;
        let mut pre: Option<(f64, usize)> = None;
        for i in 0..eng.n_proxies() {
            if let Some(t) = eng.request_due(i) {
                if req.is_none_or(|(bt, _)| t < bt) {
                    req = Some((t, i));
                }
            }
            if let Some(t) = eng.prefetch_due(i) {
                if pre.is_none_or(|(bt, _)| t < bt) {
                    pre = Some((t, i));
                }
            }
        }

        let ts = link_ev.map_or(f64::INFINITY, |(t, _)| t);
        let tr = req.map_or(f64::INFINITY, |(t, _)| t);
        let tp = pre.map_or(f64::INFINITY, |(t, _)| t);
        if ts.is_infinite() && tr.is_infinite() && tp.is_infinite() {
            break;
        } else if ts <= tr && ts <= tp {
            let (t, l) = link_ev.expect("link event");
            eng.on_link(t, l);
            settle(&mut eng, t, &mut scratch);
        } else if tr <= tp {
            let (t, i) = req.expect("request event");
            eng.on_request(i);
            settle(&mut eng, t, &mut scratch);
        } else {
            let (t, i) = pre.expect("prefetch event");
            eng.on_prefetch(i);
            settle(&mut eng, t, &mut scratch);
        }
        eng.drain_dirty(&mut dirty);
        dirty.clear();
    }
    static_mode::merge_reports(topology, vec![eng])
}

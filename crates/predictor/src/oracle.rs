//! Oracle predictor: the generating chain's true probabilities.
//!
//! The paper's analysis assumes the access probabilities `p` are *known*.
//! The oracle realises that assumption in simulation, isolating the
//! threshold policy's behaviour from prediction error; comparing a learned
//! predictor against the oracle quantifies how much of the analytic gain
//! survives estimation noise.

use crate::{sort_candidates, Predictor};
use std::sync::Arc;
use workload::{ItemId, MarkovChain};

/// Predictor with perfect knowledge of a first-order Markov source.
///
/// The successor table is immutable and `Arc`-shared: a clone shares it
/// and copies only the observed state, so one table serves every proxy
/// that walks the same chain.
#[derive(Clone)]
pub struct OraclePredictor {
    /// Per item, its non-zero successors in candidate order (descending
    /// probability, ascending id on ties).
    successors: Arc<Vec<Vec<(ItemId, f64)>>>,
    current: Option<ItemId>,
}

impl OraclePredictor {
    /// Snapshots the chain's transition structure.
    pub fn from_chain(chain: &MarkovChain) -> Self {
        let successors = (0..chain.len() as u64)
            .map(|i| {
                let mut row = chain.successors(ItemId(i));
                sort_candidates(&mut row, usize::MAX);
                row
            })
            .collect();
        OraclePredictor { successors: Arc::new(successors), current: None }
    }

    /// The current item's successor row (empty before any observation).
    fn row(&self) -> &[(ItemId, f64)] {
        self.current.and_then(|cur| self.successors.get(cur.0 as usize)).map_or(&[], Vec::as_slice)
    }

    /// True `P(next = b | current)`.
    pub fn prob(&self, b: ItemId) -> f64 {
        self.row().iter().find(|(id, _)| *id == b).map_or(0.0, |&(_, p)| p)
    }
}

impl Predictor for OraclePredictor {
    fn observe(&mut self, item: ItemId) {
        self.current = Some(item);
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        self.row().iter().take(max).copied().collect()
    }

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Rng;

    #[test]
    fn reports_exact_chain_probabilities() {
        let mut rng = Rng::new(1);
        let chain = MarkovChain::random(20, 3, 0.5, &mut rng);
        let mut o = OraclePredictor::from_chain(&chain);
        o.observe(ItemId(4));
        for (succ, p) in chain.successors(ItemId(4)) {
            assert!((o.prob(succ) - p).abs() < 1e-12);
        }
        let c = o.candidates(3);
        assert_eq!(c, chain.successors(ItemId(4)));
    }

    #[test]
    fn shared_table_candidates_match_from_chain_for_every_state() {
        let mut rng = Rng::new(4);
        let chain = MarkovChain::random(60, 5, 0.6, &mut rng);
        let template = OraclePredictor::from_chain(&chain);
        let mut shared = template.clone();
        assert!(Arc::ptr_eq(&shared.successors, &template.successors));
        for i in 0..60 {
            let mut fresh = OraclePredictor::from_chain(&chain);
            fresh.observe(ItemId(i));
            shared.observe(ItemId(i));
            for max in [1, 3, 5, 10] {
                assert_eq!(shared.candidates(max), fresh.candidates(max), "state {i}, max {max}");
            }
            let mut expect = chain.successors(ItemId(i));
            sort_candidates(&mut expect, 3);
            assert_eq!(shared.candidates(3), expect, "state {i}");
        }
        assert!(template.candidates(3).is_empty(), "a clone's observations stay its own");
    }

    #[test]
    fn candidates_empty_before_first_observation() {
        let mut rng = Rng::new(2);
        let chain = MarkovChain::random(5, 2, 0.5, &mut rng);
        let o = OraclePredictor::from_chain(&chain);
        assert!(o.candidates(5).is_empty());
    }

    #[test]
    fn oracle_is_calibrated() {
        // Empirical frequency of the top candidate must equal its stated
        // probability.
        use workload::RequestStream;
        let mut rng = Rng::new(3);
        let mut chain = MarkovChain::random(10, 2, 0.5, &mut rng);
        let mut o = OraclePredictor::from_chain(&chain);
        let mut hits = 0usize;
        let mut preds = 0usize;
        let mut stated = 0.0;
        o.observe(chain.state());
        for _ in 0..100_000 {
            let c = o.candidates(1);
            let (top, p) = c[0];
            let actual = chain.next_item(&mut rng);
            preds += 1;
            stated += p;
            if actual == top {
                hits += 1;
            }
            o.observe(actual);
        }
        let emp = hits as f64 / preds as f64;
        let avg_stated = stated / preds as f64;
        assert!((emp - avg_stated).abs() < 0.01, "empirical {emp} vs stated {avg_stated}");
    }
}

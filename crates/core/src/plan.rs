//! The cost-based planner: lowers a [`Query`] AST into a physical plan
//! DAG.
//!
//! The original engine made per-step CPU/GPU/Split decisions along one
//! AND-chain. The planner generalizes that to arbitrary operator trees:
//! every AND-chain of terms becomes a [`PlanNode::Chain`] in execution
//! order, and every union, difference, and phrase check becomes its own
//! costed operator node. Where a chain runs is not part of the node: the
//! engine decides that when the chain starts, from the same first
//! pairwise ratio plus what the caches hold at that moment
//! ([`Plan::decisions`] keeps the planner's residency-blind view). Set
//! operations run on the host: the device exposes no set-op kernels, and
//! for the intermediate sizes the planner estimates, a device set-op would
//! pay two PCIe round-trips that dwarf the `~cpu_ns_per_elem` host merge —
//! the same Fig. 7 reasoning that keeps final ranking on the CPU.
//!
//! # Scoring semantics (the bit-exactness contract)
//!
//! f32 addition is not associative, so the fold order *is* the result.
//! Every execution mode follows the orders fixed here, and the
//! brute-force reference in `tests/plan_properties.rs` mirrors them:
//!
//! * **Chain** (`AND` of terms): terms sorted by ascending document
//!   frequency (stable — ties keep AST order); the score accumulates one
//!   BM25 contribution per intersection step, in that planned order.
//! * **Phrase**: scored exactly like the chain of its terms (df-sorted),
//!   then filtered by the positional check (which never changes scores).
//! * **And** (mixed): the term children form one chain, evaluated first;
//!   each complex child then intersects in AST order, adding its score
//!   (`chain + c1 + c2 + …`).
//! * **Or**: children union left-to-right in AST order; where arms
//!   overlap the scores add (`a + b`, left operand first).
//! * **Not**: keeps the left child's docids and scores unchanged.

use griffin_index::{InvertedIndex, TermId};

use crate::query::Query;
use crate::sched::{DecisionTrace, Proc, Scheduler};

/// One operator of the physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// An AND-chain of terms in execution order (df-sorted, stable). Under
    /// [`crate::ExecMode::Hybrid`] the engine places the chain's first
    /// step at run time and schedules every later intersection on its
    /// own, migrating or splitting as it goes.
    Chain { terms: Vec<TermId>, est: usize },
    /// A phrase: its term chain (run like [`PlanNode::Chain`]) followed by
    /// the host-side positional adjacency check (the positions side-file
    /// is host-resident).
    Phrase { terms: Vec<TermId>, est: usize },
    /// Intersection of sub-plans (a mixed AND). Children keep AST order;
    /// the set intersection itself runs on the host.
    Intersect { children: Vec<PlanNode>, est: usize },
    /// Union of sub-plans, folded left-to-right on the host.
    Union { children: Vec<PlanNode>, est: usize },
    /// Left sub-plan minus right sub-plan, on the host.
    Difference {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        est: usize,
    },
    /// Matches nothing.
    Empty,
}

impl PlanNode {
    /// The planner's cardinality estimate (an upper bound).
    pub fn est(&self) -> usize {
        match self {
            PlanNode::Chain { est, .. }
            | PlanNode::Phrase { est, .. }
            | PlanNode::Intersect { est, .. }
            | PlanNode::Union { est, .. }
            | PlanNode::Difference { est, .. } => *est,
            PlanNode::Empty => 0,
        }
    }
}

/// A lowered query: the operator DAG plus, per chain, the scheduler's trace
/// for its first pairwise ratio as seen at plan time — blind to cache
/// residency, so not necessarily what the engine decides (and records into
/// telemetry) when the chain runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub root: PlanNode,
    pub decisions: Vec<DecisionTrace>,
}

/// Lowers normalized [`Query`] trees against one index + scheduler pair.
pub struct Planner<'a> {
    pub index: &'a InvertedIndex,
    pub scheduler: &'a Scheduler,
}

impl Planner<'_> {
    /// Plans a normalized query. Cardinality estimates: a term is its
    /// document frequency; an intersection is its smallest child; a
    /// union is the clipped sum; a difference is its left child.
    pub fn plan(&self, q: &Query) -> Plan {
        let mut decisions = Vec::new();
        let root = self.lower(q, &mut decisions);
        Plan { root, decisions }
    }

    fn lower(&self, q: &Query, decisions: &mut Vec<DecisionTrace>) -> PlanNode {
        match q {
            Query::Nothing => PlanNode::Empty,
            Query::Term(t) => self.chain(vec![*t], decisions),
            Query::Phrase(ts) => {
                // The phrase keeps its ORIGINAL term order — the
                // positional check is order-sensitive; the chain
                // executors df-sort internally for the intersections.
                let mut dfs: Vec<usize> = ts.iter().map(|&t| self.index.doc_freq(t)).collect();
                dfs.sort_unstable();
                let est = dfs.first().copied().unwrap_or(0);
                if let Some(&second) = dfs.get(1) {
                    decisions.push(self.scheduler.decide_traced(est, second, Proc::Cpu));
                }
                PlanNode::Phrase {
                    terms: ts.clone(),
                    est,
                }
            }
            Query::And(children) => {
                let mut terms = Vec::new();
                let mut complex = Vec::new();
                for c in children {
                    match c {
                        Query::Term(t) => terms.push(*t),
                        other => complex.push(other),
                    }
                }
                let mut nodes = Vec::with_capacity(1 + complex.len());
                if !terms.is_empty() {
                    nodes.push(self.chain(terms, decisions));
                }
                for c in complex {
                    nodes.push(self.lower(c, decisions));
                }
                match nodes.len() {
                    0 => PlanNode::Empty,
                    1 => nodes.pop().expect("len checked"),
                    _ => {
                        let est = nodes.iter().map(PlanNode::est).min().unwrap_or(0);
                        PlanNode::Intersect {
                            children: nodes,
                            est,
                        }
                    }
                }
            }
            Query::Or(children) => {
                let nodes: Vec<PlanNode> =
                    children.iter().map(|c| self.lower(c, decisions)).collect();
                let est = nodes
                    .iter()
                    .map(PlanNode::est)
                    .sum::<usize>()
                    .min(self.index.num_docs() as usize);
                PlanNode::Union {
                    children: nodes,
                    est,
                }
            }
            Query::Not(a, b) => {
                let left = self.lower(a, decisions);
                let right = self.lower(b, decisions);
                let est = left.est();
                PlanNode::Difference {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                }
            }
        }
    }

    /// Builds a chain node: df-sorts the terms (stable, like the CPU
    /// engine's own plan), estimates the intersection by its shortest
    /// list, and traces the scheduler's view of the first pairwise ratio —
    /// the inputs the engine's starting-placement decision uses, minus
    /// residency.
    fn chain(&self, mut terms: Vec<TermId>, decisions: &mut Vec<DecisionTrace>) -> PlanNode {
        if terms.is_empty() {
            return PlanNode::Empty;
        }
        // scoring_df: the chain order fixes the score fold order, so a
        // shard view must sort by the same global dfs as the unsharded
        // index. The cost estimates below stay on local list lengths —
        // they steer placement and latency, never results.
        terms.sort_by_key(|&t| self.index.scoring_df(t));
        let est = self.index.doc_freq(terms[0]);
        if let Some(&second) = terms.get(1) {
            let second = self.index.doc_freq(second);
            decisions.push(self.scheduler.decide_traced(est, second, Proc::Cpu));
        }
        PlanNode::Chain { terms, est }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_index::InvertedIndex;

    fn idx() -> InvertedIndex {
        // t0: 4 docs, t1: 3 docs, t2: 2 docs.
        let lists: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![0, 2, 4], vec![1, 3]];
        InvertedIndex::from_docid_lists(&lists, 10, Codec::EliasFano, 128)
    }

    fn tid(i: &InvertedIndex, n: usize) -> TermId {
        i.lookup(&format!("t{n}")).unwrap()
    }

    #[test]
    fn chains_are_df_sorted_and_estimated_by_shortest() {
        let i = idx();
        let sched = Scheduler::for_block_len(128);
        let planner = Planner {
            index: &i,
            scheduler: &sched,
        };
        let q = Query::And(vec![
            Query::Term(tid(&i, 0)),
            Query::Term(tid(&i, 2)),
            Query::Term(tid(&i, 1)),
        ])
        .normalize();
        let plan = planner.plan(&q);
        match &plan.root {
            PlanNode::Chain { terms, est } => {
                assert_eq!(terms, &[tid(&i, 2), tid(&i, 1), tid(&i, 0)]);
                assert_eq!(*est, 2);
            }
            other => panic!("expected a chain, got {other:?}"),
        }
        assert_eq!(plan.decisions.len(), 1, "one placement decision per chain");
    }

    #[test]
    fn mixed_and_keeps_ast_order_after_the_chain() {
        let i = idx();
        let sched = Scheduler::for_block_len(128);
        let planner = Planner {
            index: &i,
            scheduler: &sched,
        };
        let or = Query::Or(vec![Query::Term(tid(&i, 1)), Query::Term(tid(&i, 2))]);
        let q = Query::And(vec![or.clone(), Query::Term(tid(&i, 0))]).normalize();
        let plan = planner.plan(&q);
        match &plan.root {
            PlanNode::Intersect { children, est } => {
                assert!(matches!(children[0], PlanNode::Chain { .. }));
                assert!(matches!(children[1], PlanNode::Union { .. }));
                // est = min(chain est 4, union est min(3+2, 10) = 5) = 4.
                assert_eq!(*est, 4);
            }
            other => panic!("expected an intersect, got {other:?}"),
        }
    }

    #[test]
    fn union_difference_and_phrase_estimates() {
        let i = idx();
        let sched = Scheduler::for_block_len(128);
        let planner = Planner {
            index: &i,
            scheduler: &sched,
        };
        let q = Query::Not(
            Box::new(Query::Or(vec![
                Query::Term(tid(&i, 0)),
                Query::Term(tid(&i, 1)),
            ])),
            Box::new(Query::Phrase(vec![tid(&i, 1), tid(&i, 2)])),
        )
        .normalize();
        let plan = planner.plan(&q);
        match &plan.root {
            PlanNode::Difference { left, right, est } => {
                assert_eq!(left.est(), 7, "clipped sum of the union arms");
                assert_eq!(*est, 7, "difference estimated by its left side");
                match right.as_ref() {
                    PlanNode::Phrase { terms, est } => {
                        // Phrase order is preserved (not df-sorted).
                        assert_eq!(terms, &[tid(&i, 1), tid(&i, 2)]);
                        assert_eq!(*est, 2);
                    }
                    other => panic!("expected a phrase, got {other:?}"),
                }
            }
            other => panic!("expected a difference, got {other:?}"),
        }
    }

    #[test]
    fn nothing_lowers_to_empty() {
        let i = idx();
        let sched = Scheduler::for_block_len(128);
        let planner = Planner {
            index: &i,
            scheduler: &sched,
        };
        assert_eq!(planner.plan(&Query::Nothing).root, PlanNode::Empty);
    }
}

//! The planner: lowers a [`Query`] AST into a physical plan DAG.
//!
//! The original engine made per-step CPU/GPU/Split decisions along one
//! AND-chain. The planner generalizes that to arbitrary operator trees:
//! every AND-chain of terms becomes a [`PlanNode::Chain`] in execution
//! order, and every union, difference, and phrase check becomes its own
//! operator node. Where a chain runs is not part of the node: the engine
//! decides that when the chain starts, from its first pairwise ratio
//! plus what the caches hold at that moment, so [`lower`] is all it
//! needs. [`Planner::plan`] derives [`Plan::decisions`] from the lowered
//! tree for callers that want the scheduler's residency-blind view. Set
//! operations run on the host: the device exposes no set-op kernels, and
//! a device set-op would pay two PCIe round-trips that dwarf the
//! `~cpu_ns_per_elem` host merge — the same Fig. 7 reasoning that keeps
//! final ranking on the CPU.
//!
//! # Scoring semantics (the bit-exactness contract)
//!
//! f32 addition is not associative, so the fold order *is* the result.
//! Every execution mode follows the orders fixed here, and the naive
//! reference the integration suites check against (`oracle`) restates
//! them independently:
//!
//! * **Chain** (`AND` of terms): terms in
//!   [`InvertedIndex::chain_order`] (ascending scoring df, stable — ties
//!   keep AST order); the score accumulates one BM25 contribution per
//!   intersection step, in that order.
//! * **Phrase**: scored exactly like the chain of its terms, then
//!   filtered by the positional check (which never changes scores).
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
    /// An AND-chain of terms in execution order
    /// ([`InvertedIndex::chain_order`]). Under [`crate::ExecMode::Hybrid`]
    /// the engine places the chain's first step at run time and schedules
    /// every later intersection on its own, migrating or splitting as it
    /// goes.
    Chain { terms: Vec<TermId> },
    /// A phrase, in phrase order: its term chain (run like
    /// [`PlanNode::Chain`]) followed by the host-side positional
    /// adjacency check (the positions side-file is host-resident).
    Phrase { terms: Vec<TermId> },
    /// Intersection of sub-plans (a mixed AND). Children keep AST order;
    /// the set intersection itself runs on the host.
    Intersect { children: Vec<PlanNode> },
    /// Union of sub-plans, folded left-to-right on the host.
    Union { children: Vec<PlanNode> },
    /// Left sub-plan minus right sub-plan, on the host.
    Difference {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Matches nothing.
    Empty,
}

/// A lowered query: the operator DAG plus, per chain and phrase in
/// lowering order, the scheduler's trace for its first pairwise ratio —
/// blind to cache residency, so not necessarily what the engine decides
/// (and records into telemetry) when the chain runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub root: PlanNode,
    pub decisions: Vec<DecisionTrace>,
}

/// Lowers a normalized query against `index`: what the engine runs.
pub fn lower(index: &InvertedIndex, q: &Query) -> PlanNode {
    match q {
        Query::Nothing => PlanNode::Empty,
        Query::Term(t) => PlanNode::Chain { terms: vec![*t] },
        // The phrase keeps its original term order: the positional check
        // is order-sensitive; the chain executors order it for the
        // intersections.
        Query::Phrase(ts) => PlanNode::Phrase { terms: ts.clone() },
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
                nodes.push(PlanNode::Chain {
                    terms: index.chain_order(&terms),
                });
            }
            nodes.extend(complex.into_iter().map(|c| lower(index, c)));
            match nodes.len() {
                0 => PlanNode::Empty,
                1 => nodes.pop().expect("len checked"),
                _ => PlanNode::Intersect { children: nodes },
            }
        }
        Query::Or(children) => PlanNode::Union {
            children: children.iter().map(|c| lower(index, c)).collect(),
        },
        Query::Not(a, b) => PlanNode::Difference {
            left: Box::new(lower(index, a)),
            right: Box::new(lower(index, b)),
        },
    }
}

/// Plans normalized [`Query`] trees against one index + scheduler pair:
/// [`lower`], plus the scheduler's residency-blind view of each chain.
pub struct Planner<'a> {
    pub index: &'a InvertedIndex,
    pub scheduler: &'a Scheduler,
}

impl Planner<'_> {
    /// Plans a normalized query: [`lower`], then the decisions derived
    /// from the lowered tree.
    pub fn plan(&self, q: &Query) -> Plan {
        let root = lower(self.index, q);
        let mut decisions = Vec::new();
        self.decide(&root, &mut decisions);
        Plan { root, decisions }
    }

    /// Appends the trace of every chain and phrase under `node`, in
    /// lowering order (pre-order, children left to right).
    fn decide(&self, node: &PlanNode, out: &mut Vec<DecisionTrace>) {
        match node {
            PlanNode::Empty => {}
            PlanNode::Chain { terms } => self.decide_chain(terms, out),
            PlanNode::Phrase { terms } => self.decide_chain(&self.index.chain_order(terms), out),
            PlanNode::Intersect { children } | PlanNode::Union { children } => {
                children.iter().for_each(|c| self.decide(c, out));
            }
            PlanNode::Difference { left, right } => {
                self.decide(left, out);
                self.decide(right, out);
            }
        }
    }

    /// The inputs of the engine's starting-placement decision for a chain
    /// in execution order, minus residency: its first two list lengths.
    /// A lone list makes no decision.
    fn decide_chain(&self, chain: &[TermId], out: &mut Vec<DecisionTrace>) {
        if let [first, second, ..] = *chain {
            let (short, long) = (self.index.doc_freq(first), self.index.doc_freq(second));
            out.push(self.scheduler.decide_traced(short, long, Proc::Cpu));
        }
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
    fn chains_are_in_chain_order_with_one_decision() {
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
        let terms = vec![tid(&i, 2), tid(&i, 1), tid(&i, 0)];
        assert_eq!(plan.root, PlanNode::Chain { terms });
        assert_eq!(plan.decisions.len(), 1, "one placement decision per chain");
        assert_eq!(plan.decisions[0], sched.decide_traced(2, 3, Proc::Cpu));
    }

    #[test]
    fn mixed_and_keeps_ast_order_after_the_chain() {
        let i = idx();
        let or = Query::Or(vec![Query::Term(tid(&i, 1)), Query::Term(tid(&i, 2))]);
        let q = Query::And(vec![or.clone(), Query::Term(tid(&i, 0))]).normalize();
        match lower(&i, &q) {
            PlanNode::Intersect { children } => {
                assert!(matches!(children[0], PlanNode::Chain { .. }));
                assert!(matches!(children[1], PlanNode::Union { .. }));
            }
            other => panic!("expected an intersect, got {other:?}"),
        }
    }

    #[test]
    fn difference_keeps_the_phrase_order_and_decisions_follow_the_tree() {
        let i = idx();
        let sched = Scheduler::for_block_len(128);
        let planner = Planner {
            index: &i,
            scheduler: &sched,
        };
        let q = Query::Not(
            Box::new(Query::And(vec![
                Query::Term(tid(&i, 0)),
                Query::Term(tid(&i, 1)),
            ])),
            Box::new(Query::Phrase(vec![tid(&i, 1), tid(&i, 2)])),
        )
        .normalize();
        let plan = planner.plan(&q);
        match &plan.root {
            PlanNode::Difference { right, .. } => {
                // Phrase order is preserved (not df-sorted).
                let terms = vec![tid(&i, 1), tid(&i, 2)];
                assert_eq!(right.as_ref(), &PlanNode::Phrase { terms });
            }
            other => panic!("expected a difference, got {other:?}"),
        }
        // The chain (dfs 3, 4), then the phrase on its two shortest lists.
        let want = [(3, 4), (2, 3)].map(|(s, l)| sched.decide_traced(s, l, Proc::Cpu));
        assert_eq!(plan.decisions, want);
    }

    #[test]
    fn nothing_lowers_to_empty() {
        let i = idx();
        assert_eq!(lower(&i, &Query::Nothing), PlanNode::Empty);
    }
}

//! # griffin-workload — synthetic ClueWeb12/TREC substitute
//!
//! The paper evaluates on the ClueWeb12 web crawl (41 M documents) with
//! TREC 2005/2006 efficiency-track query logs — both unavailable here
//! (license-gated, 300 GB). What the evaluation actually depends on is
//! captured by the paper's own characterization figures:
//!
//! * **Fig. 10** — the inverted-list size distribution (bulk between 1 K
//!   and 1 M elements, max 26 M);
//! * **Fig. 11** — the query term-count histogram (27 % two-term, 33 %
//!   three-term, 24 % four-term, the rest 5/6/>6);
//! * heavy-tailed d-gap distributions within lists (what makes
//!   compression-scheme comparisons meaningful).
//!
//! This crate generates workloads matching those published distributions,
//! deterministically from a seed: posting lists ([`lists`]), ratio-
//! controlled list pairs for the crossover studies ([`ratio`]), query logs
//! ([`queries`]), corpus/index generators for examples and experiments
//! ([`corpus`]), and latency statistics ([`stats`]). [`zipf`] provides the
//! Zipf sampler everything leans on.

pub mod corpus;
pub mod lists;
pub mod queries;
pub mod ratio;
pub mod stats;
pub mod zipf;

pub use corpus::{
    build_list_index, build_text_index, Corpus, CorpusSpec, ListIndexSpec, RawPosting,
};
pub use lists::{gen_correlated_lists, gen_docid_list, sample_list_len, GapProfile};
pub use queries::{MixedQuerySpec, QueryLogSpec, QueryShape};
pub use ratio::{gen_ratio_pair, gen_ratio_pair_opts, PairShape, RatioGroup, RATIO_GROUPS};
pub use stats::{percentile, size_cdf, LatencyStats};
pub use zipf::Zipf;

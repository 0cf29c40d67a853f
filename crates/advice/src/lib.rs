//! # `lma-advice` — advising schemes for local MST computation
//!
//! This crate is the reproduction of the primary contribution of
//! *"Local MST Computation with Short Advice"* (Fraigniaud, Korman, Lebhar;
//! SPAA 2007): the **advising-scheme** framework for distributed MST and the
//! concrete schemes the paper constructs.
//!
//! An *(m, t)-advising scheme* is a pair (oracle, algorithm): the oracle sees
//! the whole weighted graph and gives every node at most `m` bits of advice;
//! the distributed algorithm then computes a rooted MST (every node outputs
//! the port of its parent edge) in at most `t` synchronous rounds, using only
//! local knowledge plus the advice.
//!
//! | Scheme | Paper | (m, t) | Type |
//! |--------|-------|--------|------|
//! | [`trivial::TrivialScheme`] | §1 | (⌈log n⌉, 0) | baseline upper bound |
//! | [`one_round::OneRoundScheme`] | Theorem 2 | (O(log² n), 1), **average** O(1) | upper bound |
//! | [`constant::ConstantScheme`] | Theorem 3 | (O(1), O(log n)) | main result |
//! | [`tradeoff::TradeoffScheme`] | closing open question | (c + ⌈log n / 2^P⌉, O(2^P + log n / 2^P)) | frontier |
//! | [`lowerbound`] | Theorem 1 | average Ω(log n) at t = 0 | lower bound |
//!
//! Theorem 3 and the tradeoff share one pipeline ([`constant::encoder`],
//! [`constant::schedule`], [`constant::decoder`]): the tradeoff is that
//! pipeline stopped after `P` Borůvka phases with a `⌈log n / 2^P⌉`-bit
//! final segment, and [`constant::ConstantScheme`] is its
//! `P = ⌈log log n⌉` point.
//!
//! The oracles are built on the Borůvka decomposition of
//! [`lma_mst::boruvka`]; the decoders are [`lma_sim::NodeAlgorithm`]s run by
//! the synchronous simulator, so round counts and message sizes are measured,
//! not asserted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod bits;
pub mod constant;
pub mod lowerbound;
pub mod one_round;
pub mod scheme;
pub mod tradeoff;
pub mod trivial;

pub use accounting::AdviceStats;
pub use bits::{BitReader, BitString};
pub use constant::{ConstantScheme, ConstantVariant};
pub use one_round::OneRoundScheme;
pub use scheme::{
    evaluate_scheme, evaluate_scheme_with_advice, Advice, AdvisingScheme, DecodeOutcome,
    SchemeError, SchemeEvaluation, SchemeWorkload,
};
pub use tradeoff::{frontier, FrontierPoint, TradeoffScheme};
pub use trivial::TrivialScheme;

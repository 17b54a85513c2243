//! # sepdc-separator
//!
//! Random geometric separators — the dividing machinery of the paper.
//!
//! * [`mttv`] — the Miller–Teng–Thurston–Vavasis **Unit Time Sphere
//!   Separator Algorithm** (Section 2.1 of the paper): constant-size random
//!   sample, approximate centerpoint of the stereographic lift, conformal
//!   normalization, uniform random great circle, pulled back to a sphere or
//!   hyperplane in the input space. Constant work per candidate after the
//!   sample is drawn.
//! * [`hyperplane_cut`] — Bentley-style median hyperplane cuts, the baseline
//!   the paper improves on.
//! * [`quality`] — split ratios, intersection numbers `ι_B(S)`, and the
//!   "good separator" acceptance predicate.
//! * [`search`] — the retry loop ("iteratively apply the unit-time algorithm
//!   until a good separator is found") with a deterministic median-cut
//!   fallback so non-adversarial callers always make progress.
//! * [`config`] — all constants (`ε`, `δ`, sample sizes, retry caps) with
//!   paper-faithful defaults.

#![warn(missing_docs)]

pub mod config;
pub mod hyperplane_cut;
pub mod mttv;
pub mod quality;
pub mod search;

pub use config::SeparatorConfig;
pub use quality::{delta_default, intersection_number, split_counts, SplitCounts};
pub use search::{
    candidate_seed, find_good_separator, find_good_separator_seeded, FoundSeparator, SearchOutcome,
};

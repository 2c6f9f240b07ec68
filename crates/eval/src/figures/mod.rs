//! Reproductions of the paper's figures.
//!
//! Figures 1, 4, 5, 6 and 9 are *worked examples* with concrete numbers —
//! we re-execute them and claim the paper's values. Figures 2, 3, 7, 8,
//! 10 and 11 are architectural/strategic illustrations — we realize each
//! as a small executable scenario.

pub mod architecture;
pub mod strategies;
pub mod worked_examples;

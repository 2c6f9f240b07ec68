//! One module per evaluation table (paper Section 5), each exporting its
//! [`Artifact`](crate::Artifact) row next to its `run`.

pub mod extension;
pub mod profile;
pub mod table1;
pub mod table10;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
pub mod tuning;

//! # amoeba-traffic
//!
//! Traffic substrate for the Amoeba (CoNEXT'23) reproduction: flow types,
//! synthetic Tor/V2Ray/HTTPS generators (the documented substitution for
//! the paper's real captures — see DESIGN.md §2), network-environment
//! emulation (loss/retransmit/jitter for the Figure 6 experiment), the
//! 40/40/10/10 dataset split protocol, and the feature extractors consumed
//! by the censoring classifiers (166 hand-crafted features for DT/RF,
//! CUMUL traces for the SVM, normalised sequence representations for the
//! NN models).

#![warn(missing_docs)]

pub mod cumul;
pub mod dataset;
pub mod features;
pub mod flow;
pub mod generate;
pub mod netem;
pub mod repr;
pub mod stats;

pub use cumul::{cumul_features, cumul_features_batch, DEFAULT_POINTS};
pub use dataset::{build_dataset, Dataset, DatasetKind, Splits};
pub use features::{
    extract_features, extract_features_batch, feature_schema, FeatureKind, FeatureSchema,
    NUM_FEATURES,
};
pub use flow::{Bursts, Direction, Flow, Label, Packet};
pub use generate::{
    lognormal, HttpsTcpGenerator, HttpsTlsGenerator, Layer, TorGenerator, TrafficGenerator,
    V2RayGenerator,
};
pub use netem::NetEm;
pub use repr::FlowRepr;
pub use stats::{ecdf, histogram, percentile, std_dev, Summary};

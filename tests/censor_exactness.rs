//! Bit pins of the censor scoring path.
//!
//! * `features_are_pinned`: golden FNV-1a hashes of the bits of
//!   `extract_features` and `cumul_features(…, 40)` on every prefix
//!   1..=60 of seeded Tor and HTTPS flows;
//! * `scores_are_pinned`: the bits of the DT, RF, CUMUL and LSTM
//!   censors' `score` on the same prefixes, with the censors trained at a
//!   tiny fixed-seed scale;
//! * `non_finite_delays_are_scored`: NaN and ±Inf delays at several
//!   positions of flows of every length 1..=400 still give 166 finite
//!   features and a DT/RF score in [0, 1].
//!
//! The golden hashes were recorded before the scoring path was made
//! allocation-free; a moved feature or score bit fails here.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba::classifiers::{
    train_censor, Censor, CensorKind, LstmConfig, TrainConfig, TrainedCensor,
};
use amoeba::ml::ForestConfig;
use amoeba::traffic::{
    build_dataset, cumul_features, extract_features, DatasetKind, Flow, HttpsTcpGenerator, Layer,
    TorGenerator, TrafficGenerator, NUM_FEATURES,
};

/// Every prefix length `1..=PREFIXES` of every pinned flow is scored.
const PREFIXES: usize = 60;

/// FNV-1a over the little-endian bytes of a sequence of `f32` bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: f32) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Two Tor and two HTTPS flows of at least `PREFIXES` packets, drawn from
/// fixed seeds.
fn pinned_flows() -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut flows = Vec::new();
    let mut draw = |generate: &mut dyn FnMut(&mut StdRng) -> Flow| {
        let mut kept = 0;
        while kept < 2 {
            let flow = generate(&mut rng);
            if flow.len() >= PREFIXES {
                flows.push(flow);
                kept += 1;
            }
        }
    };
    draw(&mut |rng| TorGenerator::default().generate(rng));
    draw(&mut |rng| HttpsTcpGenerator::default().generate(rng));
    flows
}

/// The four censors, trained once on a tiny seeded Tor dataset.
fn censors() -> &'static [TrainedCensor] {
    static CENSORS: OnceLock<Vec<TrainedCensor>> = OnceLock::new();
    CENSORS.get_or_init(|| {
        let ds = build_dataset(DatasetKind::Tor, 30, None, 5);
        let cfg = TrainConfig {
            lstm_epochs: 1,
            lstm: LstmConfig {
                hidden: 8,
                layers: 2,
            },
            forest: ForestConfig {
                n_trees: 5,
                ..Default::default()
            },
            ..TrainConfig::fast()
        };
        [
            CensorKind::Dt,
            CensorKind::Rf,
            CensorKind::Cumul,
            CensorKind::Lstm,
        ]
        .into_iter()
        .map(|kind| train_censor(kind, &ds, Layer::Tcp, &cfg, 3))
        .collect()
    })
}

#[test]
fn features_are_pinned() {
    let mut features = Fnv::new();
    let mut cumul = Fnv::new();
    for flow in pinned_flows() {
        for n in 1..=PREFIXES {
            let prefix = flow.prefix(n);
            extract_features(&prefix, Layer::Tcp)
                .into_iter()
                .for_each(|v| features.push(v));
            cumul_features(&prefix, 40)
                .into_iter()
                .for_each(|v| cumul.push(v));
        }
    }
    assert_eq!(
        features.0, 0x627f_0c09_d37d_96f6,
        "extract_features bits moved"
    );
    assert_eq!(cumul.0, 0x012c_d1f8_e510_0afa, "cumul_features bits moved");
}

#[test]
fn scores_are_pinned() {
    let flows = pinned_flows();
    let got: Vec<(CensorKind, u64)> = censors()
        .iter()
        .map(|censor| {
            let mut h = Fnv::new();
            for flow in &flows {
                for n in 1..=PREFIXES {
                    h.push(censor.score(&flow.prefix(n)));
                }
            }
            (censor.kind(), h.0)
        })
        .collect();
    let want = [
        (CensorKind::Dt, 0x0b68_f5be_51a2_7ff8),
        (CensorKind::Rf, 0x9e7f_4793_61d1_594f),
        (CensorKind::Cumul, 0xe329_867b_7ee2_78d0),
        (CensorKind::Lstm, 0x505e_89b5_9a94_e2e6),
    ];
    assert_eq!(got, want, "censor score bits moved");
}

#[test]
fn non_finite_delays_are_scored() {
    let tree_censors: Vec<&TrainedCensor> = censors()
        .iter()
        .filter(|c| matches!(c.kind(), CensorKind::Dt | CensorKind::Rf))
        .collect();
    let base = &pinned_flows()[0];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for (first, stride) in [(0usize, 1usize), (1, 2), (0, 7), (3, 7), (10, 64)] {
            for len in 1..=400usize {
                let mut flow = Flow::from_pairs(
                    &(0..len)
                        .map(|i| {
                            let p = base.packets[i % base.len()];
                            (p.size, p.delay_ms)
                        })
                        .collect::<Vec<_>>(),
                );
                for p in flow.packets.iter_mut().skip(first).step_by(stride) {
                    p.delay_ms = bad;
                }
                let f = extract_features(&flow, Layer::Tcp);
                assert_eq!(f.len(), NUM_FEATURES);
                assert!(
                    f.iter().all(|v| v.is_finite()),
                    "non-finite feature: delay {bad} every {stride}th packet from {first}, len {len}"
                );
                for censor in &tree_censors {
                    let s = censor.score(&flow);
                    assert!(
                        (0.0..=1.0).contains(&s),
                        "{} score {s}: delay {bad} every {stride}th packet from {first}, len {len}",
                        censor.kind()
                    );
                }
            }
        }
    }
}

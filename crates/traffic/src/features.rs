//! The 166-dimensional flow feature vector used by the tree-based censors.
//!
//! The paper follows Barradas et al. \[2\] and "extract\[s\] 166 features from
//! each network flow, covering bi-directional packet/timing statistics,
//! burst behaviors, percentile features and flow-level information"
//! (§5.1). The exact list is not published; this module reconstructs a
//! 166-feature vector from those four documented categories. Every feature
//! is tagged [`FeatureKind::Packet`] or [`FeatureKind::Timing`], which is
//! what the Figure 4 experiment (packet- vs timing-feature importance)
//! consumes.
//!
//! [`extract_features`] and [`feature_schema`] share one emitter, so the
//! names and the values cannot drift apart. Names travel as
//! [`fmt::Arguments`] and only [`feature_schema`] formats them into
//! `String`s, once per process; extraction formats none.
//!
//! **Allocation rule.** One [`extract_features`] call allocates its output
//! and two scratch buffers sized to the flow, however long the flow is:
//! one gathers each sample in turn (a direction's sizes or gaps, one burst
//! statistic, the cumulative trace) and the other is what that sample is
//! sorted into. Summaries come back as fixed `[f32; 12]` arrays and
//! histograms are written into fixed arrays. Every sum runs in packet
//! order, as it always has, so no feature bit depends on this layout.

use std::fmt;
use std::sync::OnceLock;

use crate::flow::{Direction, Flow};
use crate::generate::Layer;
use crate::stats::{histogram, mean, Summary};

/// Total number of features produced by [`extract_features`].
pub const NUM_FEATURES: usize = 166;

/// Whether a feature is derived from packet sizes/counts or from timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Size/count/direction-derived.
    Packet,
    /// Delay/duration/rate-derived.
    Timing,
}

/// Static description of the feature vector layout.
#[derive(Debug, Clone)]
pub struct FeatureSchema {
    /// Feature names, in extraction order.
    pub names: Vec<String>,
    /// Feature kinds, parallel to `names`.
    pub kinds: Vec<FeatureKind>,
}

/// Clears `sample`, fills it from `values` and returns it.
fn gather(sample: &mut Vec<f32>, values: impl Iterator<Item = f32>) -> &[f32] {
    sample.clear();
    sample.extend(values);
    sample
}

fn emit_all(
    flow: &Flow,
    layer: Layer,
    emit: &mut impl FnMut(fmt::Arguments<'_>, FeatureKind, f32),
) {
    use Direction::{Inbound, Outbound};
    use FeatureKind::{Packet, Timing};
    let max_unit = layer.max_unit() as f32;
    let mut sample = Vec::with_capacity(flow.len());
    let mut sorted = Vec::with_capacity(flow.len());

    // --- 1. bidirectional packet-size statistics (3 x 12 = 36, Packet) ---
    // The out/in sizes also give the size histograms (section 4) and the
    // packet and byte counts, the sorted bi sizes the size diversity
    // (section 8).
    let mut size_hist = [[0.0f32; 10]; 2];
    let mut pkt_count = [0.0f32; 2];
    let mut byte_count = [0.0f32; 2];
    for (i, (tag, dir)) in [("out", Some(Outbound)), ("in", Some(Inbound)), ("bi", None)]
        .into_iter()
        .enumerate()
    {
        let sizes = gather(
            &mut sample,
            flow.packets
                .iter()
                .filter(|p| dir.is_none_or(|d| p.direction() == d))
                .map(|p| p.magnitude() as f32),
        );
        let s = Summary::of_sorting(sizes, &mut sorted);
        for (name, v) in Summary::names().iter().zip(s.to_array()) {
            emit(format_args!("size_{tag}_{name}"), Packet, v);
        }
        if i < 2 {
            histogram(sizes, 0.0, max_unit, &mut size_hist[i]);
            pkt_count[i] = sizes.len() as f32;
            byte_count[i] = sizes.iter().sum();
        }
    }
    let distinct_sizes = sorted.chunk_by(|a, b| a == b).count() as f32;

    // --- 2. timing statistics (3 x 12 = 36, Timing) -----------------------
    // The out/in gaps also give the mean gaps, the bi gaps the delay
    // histogram (section 5) and the idle and first-5 figures (section 8).
    let mut mean_gap = [0.0f32; 2];
    let mut gap_hist = [0.0f32; 10];
    let mut idle = 0.0f32;
    let mut mean_gap_first5 = 0.0f32;
    for (i, tag) in ["out", "in", "bi"].into_iter().enumerate() {
        let gaps = match i {
            0 => gather(&mut sample, flow.same_direction_gaps(Outbound)),
            1 => gather(&mut sample, flow.same_direction_gaps(Inbound)),
            _ => gather(&mut sample, flow.packets.iter().skip(1).map(|p| p.delay_ms)),
        };
        let s = Summary::of_sorting(gaps, &mut sorted);
        for (name, v) in Summary::names().iter().zip(s.to_array()) {
            emit(format_args!("gap_{tag}_{name}"), Timing, v);
        }
        if i < 2 {
            mean_gap[i] = mean(gaps);
        } else {
            histogram(gaps, 0.0, 500.0, &mut gap_hist);
            idle = gaps.iter().filter(|&&g| g > 100.0).sum();
            mean_gap_first5 = mean(&gaps[..gaps.len().min(5)]);
        }
    }

    // --- 3. burst behaviour (2 x (7 Packet + 2 Timing) = 18) --------------
    for (tag, dir) in [("out", Outbound), ("in", Inbound)] {
        let runs = || flow.bursts().filter(move |b| b.0 == dir);
        let ls = Summary::of_sorting(gather(&mut sample, runs().map(|b| b.1 as f32)), &mut sorted);
        let count = sample.len() as f32;
        let bs = Summary::of_sorting(gather(&mut sample, runs().map(|b| b.2 as f32)), &mut sorted);
        let ds = Summary::of_sorting(gather(&mut sample, runs().map(|b| b.3)), &mut sorted);
        emit(format_args!("burst_{tag}_count"), Packet, count);
        emit(format_args!("burst_{tag}_len_mean"), Packet, ls.mean);
        emit(format_args!("burst_{tag}_len_std"), Packet, ls.std);
        emit(format_args!("burst_{tag}_len_max"), Packet, ls.max);
        emit(format_args!("burst_{tag}_bytes_mean"), Packet, bs.mean);
        emit(format_args!("burst_{tag}_bytes_std"), Packet, bs.std);
        emit(format_args!("burst_{tag}_bytes_max"), Packet, bs.max);
        emit(format_args!("burst_{tag}_dur_mean"), Timing, ds.mean);
        emit(format_args!("burst_{tag}_dur_max"), Timing, ds.max);
    }

    // --- 4. size histograms (2 x 10 = 20, Packet) --------------------------
    for (tag, hist) in ["out", "in"].into_iter().zip(&size_hist) {
        for (i, &frac) in hist.iter().enumerate() {
            emit(format_args!("size_hist_{tag}_{i}"), Packet, frac);
        }
    }

    // --- 5. delay histogram (10, Timing) -----------------------------------
    for (i, &frac) in gap_hist.iter().enumerate() {
        emit(format_args!("gap_hist_bi_{i}"), Timing, frac);
    }

    // --- 6. cumulative-trace interpolation (10, Packet) --------------------
    let mut acc = 0.0f32;
    let cumulative = gather(
        &mut sample,
        flow.packets.iter().map(|p| {
            acc += p.size as f32;
            acc
        }),
    );
    for i in 0..10 {
        let v = if cumulative.is_empty() {
            0.0
        } else {
            let pos = (i as f32 / 9.0) * (cumulative.len() - 1) as f32;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f32;
            cumulative[lo] * (1.0 - frac) + cumulative[hi] * frac
        };
        emit(format_args!("cumul_{i}"), Packet, v);
    }

    // --- 7. first-packets behaviour (8 Packet + 8 Timing = 16) -------------
    for i in 0..8 {
        let v = flow.packets.get(i).map(|p| p.size as f32).unwrap_or(0.0);
        emit(format_args!("first_size_{i}"), Packet, v);
    }
    for i in 0..8 {
        let v = flow.packets.get(i).map(|p| p.delay_ms).unwrap_or(0.0);
        emit(format_args!("first_gap_{i}"), Timing, v);
    }

    // --- 8. flow-level features (11 Packet + 5 Timing = 16) ----------------
    let n = flow.len() as f32;
    let [n_out, n_in] = pkt_count;
    let [bytes_out, bytes_in] = byte_count;
    let duration = flow.duration_ms();
    emit(format_args!("pkt_count"), Packet, n);
    emit(format_args!("pkt_count_out"), Packet, n_out);
    emit(format_args!("pkt_count_in"), Packet, n_in);
    emit(
        format_args!("pkt_ratio_out"),
        Packet,
        if n > 0.0 { n_out / n } else { 0.0 },
    );
    emit(format_args!("bytes_total"), Packet, bytes_out + bytes_in);
    emit(format_args!("bytes_out"), Packet, bytes_out);
    emit(format_args!("bytes_in"), Packet, bytes_in);
    emit(
        format_args!("bytes_ratio_out"),
        Packet,
        if bytes_out + bytes_in > 0.0 {
            bytes_out / (bytes_out + bytes_in)
        } else {
            0.0
        },
    );
    let flips = flow
        .packets
        .windows(2)
        .filter(|w| w[0].direction() != w[1].direction())
        .count() as f32;
    emit(
        format_args!("dir_flip_rate"),
        Packet,
        if n > 1.0 { flips / (n - 1.0) } else { 0.0 },
    );
    let at_max = flow
        .packets
        .iter()
        .filter(|p| p.magnitude() as f32 >= max_unit)
        .count() as f32;
    emit(
        format_args!("frac_max_unit"),
        Packet,
        if n > 0.0 { at_max / n } else { 0.0 },
    );
    emit(
        format_args!("size_diversity"),
        Packet,
        if n > 0.0 { distinct_sizes / n } else { 0.0 },
    );

    emit(format_args!("duration_ms"), Timing, duration);
    let secs = (duration / 1000.0).max(1e-6);
    emit(format_args!("pkts_per_sec"), Timing, n / secs);
    emit(
        format_args!("bytes_per_sec"),
        Timing,
        (bytes_out + bytes_in) / secs,
    );
    let first_response = flow
        .packets
        .iter()
        .scan(0.0f32, |t, p| {
            *t += p.delay_ms;
            Some((*t, p.direction()))
        })
        .find(|(_, d)| *d == Direction::Inbound)
        .map(|(t, _)| t)
        .unwrap_or(0.0);
    emit(format_args!("first_response_ms"), Timing, first_response);
    let [mean_out_gap, mean_in_gap] = mean_gap;
    emit(
        format_args!("gap_ratio_out_in"),
        Timing,
        if mean_in_gap > 1e-9 {
            mean_out_gap / mean_in_gap
        } else {
            0.0
        },
    );
    emit(
        format_args!("burst_count_total"),
        Packet,
        flow.bursts().count() as f32,
    );
    let longest_run = flow.bursts().map(|b| b.1).max().unwrap_or(0) as f32;
    emit(
        format_args!("longest_run_frac"),
        Packet,
        if n > 0.0 { longest_run / n } else { 0.0 },
    );
    emit(
        format_args!("idle_frac"),
        Timing,
        if duration > 1e-9 {
            idle / duration
        } else {
            0.0
        },
    );
    emit(format_args!("mean_gap_first5"), Timing, mean_gap_first5);
}

/// Extracts the 166-feature vector for a flow on the given layer.
pub fn extract_features(flow: &Flow, layer: Layer) -> Vec<f32> {
    let mut values = Vec::with_capacity(NUM_FEATURES);
    emit_all(flow, layer, &mut |_, _, v| {
        values.push(if v.is_finite() { v } else { 0.0 })
    });
    debug_assert_eq!(values.len(), NUM_FEATURES);
    values
}

/// The static feature schema (names + kinds).
pub fn feature_schema() -> &'static FeatureSchema {
    static SCHEMA: OnceLock<FeatureSchema> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let mut names = Vec::with_capacity(NUM_FEATURES);
        let mut kinds = Vec::with_capacity(NUM_FEATURES);
        let dummy = Flow::from_pairs(&[(100, 0.0), (-200, 1.0)]);
        emit_all(&dummy, Layer::Tcp, &mut |n, k, _| {
            names.push(n.to_string());
            kinds.push(k);
        });
        assert_eq!(
            names.len(),
            NUM_FEATURES,
            "feature schema drifted from NUM_FEATURES"
        );
        FeatureSchema { names, kinds }
    })
}

/// Extracts features for every flow in a slice.
pub fn extract_features_batch(flows: &[Flow], layer: Layer) -> Vec<Vec<f32>> {
    flows.iter().map(|f| extract_features(f, layer)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Packet;
    use crate::generate::{TorGenerator, TrafficGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exactly_166_features() {
        let mut rng = StdRng::seed_from_u64(1);
        let flow = TorGenerator::default().generate(&mut rng);
        let f = extract_features(&flow, Layer::Tcp);
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f.len(), 166);
    }

    #[test]
    fn schema_is_consistent_and_unique() {
        let schema = feature_schema();
        assert_eq!(schema.names.len(), NUM_FEATURES);
        assert_eq!(schema.kinds.len(), NUM_FEATURES);
        let mut sorted = schema.names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), NUM_FEATURES, "duplicate feature names");
    }

    #[test]
    fn kind_split_covers_both_categories() {
        let schema = feature_schema();
        let packet = schema
            .kinds
            .iter()
            .filter(|k| **k == FeatureKind::Packet)
            .count();
        let timing = schema
            .kinds
            .iter()
            .filter(|k| **k == FeatureKind::Timing)
            .count();
        assert_eq!(packet + timing, NUM_FEATURES);
        assert!(packet > 40, "packet features: {packet}");
        assert!(timing > 40, "timing features: {timing}");
    }

    #[test]
    fn features_are_finite_for_edge_cases() {
        // Single-packet flow, single-direction flow, zero-delay flow.
        let cases = vec![
            Flow::from_pairs(&[(100, 0.0)]),
            Flow::from_pairs(&[(100, 0.0), (200, 0.0), (300, 0.0)]),
            Flow::from_pairs(&[(-500, 0.0), (-500, 0.0)]),
        ];
        for flow in cases {
            let f = extract_features(&flow, Layer::Tcp);
            assert_eq!(f.len(), NUM_FEATURES);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn byte_accounting_features_match_flow() {
        let mut flow = Flow::new();
        flow.push(Packet::outbound(300, 0.0));
        flow.push(Packet::inbound(700, 5.0));
        let f = extract_features(&flow, Layer::Tcp);
        let schema = feature_schema();
        let idx = |name: &str| schema.names.iter().position(|n| n == name).unwrap();
        assert_eq!(f[idx("bytes_out")], 300.0);
        assert_eq!(f[idx("bytes_in")], 700.0);
        assert_eq!(f[idx("bytes_total")], 1000.0);
        assert_eq!(f[idx("pkt_count")], 2.0);
        assert_eq!(f[idx("duration_ms")], 5.0);
        assert_eq!(f[idx("first_response_ms")], 5.0);
    }

    #[test]
    fn tor_and_https_feature_vectors_differ() {
        use crate::generate::HttpsTcpGenerator;
        let mut rng = StdRng::seed_from_u64(2);
        let tor = TorGenerator::default().generate(&mut rng);
        let https = HttpsTcpGenerator::default().generate(&mut rng);
        let ft = extract_features(&tor, Layer::Tcp);
        let fh = extract_features(&https, Layer::Tcp);
        let diff: f32 = ft.iter().zip(&fh).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "feature vectors should differ");
    }

    #[test]
    fn batch_matches_individual() {
        let mut rng = StdRng::seed_from_u64(3);
        let flows: Vec<Flow> = (0..3)
            .map(|_| TorGenerator::default().generate(&mut rng))
            .collect();
        let batch = extract_features_batch(&flows, Layer::Tcp);
        for (bf, f) in batch.iter().zip(&flows) {
            assert_eq!(*bf, extract_features(f, Layer::Tcp));
        }
    }
}

//! Accuracy metrics.

use crate::data::Dataset;
use crate::network::Network;
use eden_tensor::Tensor;

/// Classification accuracy of a network over a set of labelled samples.
///
/// The samples fan out over the [`eden_par`] pool: each prediction
/// is a pure forward pass through the shared `&Network`, and a count does
/// not depend on the order the predictions finish in.
pub fn accuracy(net: &Network, samples: &[(Tensor, usize)]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = eden_par::par_map(samples, |_, (x, label)| net.predict(x) == *label)
        .into_iter()
        .filter(|&hit| hit)
        .count();
    correct as f32 / samples.len() as f32
}

/// Test-set accuracy of a network over a dataset.
pub fn test_accuracy(net: &Network, dataset: &dyn Dataset) -> f32 {
    accuracy(net, dataset.test())
}

/// Top-k accuracy (the true label is among the k highest logits).
pub fn top_k_accuracy(net: &Network, samples: &[(Tensor, usize)], k: usize) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|(x, label)| {
            let logits = net.forward(x);
            let mut indexed: Vec<(usize, f32)> =
                logits.data().iter().copied().enumerate().collect();
            indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            indexed.iter().take(k).any(|(i, _)| i == label)
        })
        .count();
    correct as f32 / samples.len() as f32
}

/// Accuracy of a fixed set of predicted labels against ground truth.
pub fn prediction_accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::layers::{Dense, Flatten};
    use eden_tensor::init::seeded_rng;

    fn linear_net(d: &SyntheticVision) -> Network {
        let spec = d.spec();
        let mut rng = seeded_rng(0);
        let mut net = Network::new("lin", &spec.input_shape());
        net.push(Flatten::new("flatten")).push(Dense::new(
            "fc",
            spec.channels * spec.height * spec.width,
            spec.num_classes,
            &mut rng,
        ));
        net
    }

    #[test]
    fn accuracy_is_in_unit_interval() {
        let d = SyntheticVision::tiny(0);
        let net = linear_net(&d);
        let a = test_accuracy(&net, &d);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn top_k_grows_with_k() {
        let d = SyntheticVision::tiny(1);
        let net = linear_net(&d);
        let t1 = top_k_accuracy(&net, d.test(), 1);
        let t4 = top_k_accuracy(&net, d.test(), d.spec().num_classes);
        assert!(t4 >= t1);
        assert_eq!(t4, 1.0);
    }

    #[test]
    fn prediction_accuracy_counts_matches() {
        assert_eq!(prediction_accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(prediction_accuracy(&[], &[]), 0.0);
    }
}

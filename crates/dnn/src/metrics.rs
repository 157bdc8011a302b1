//! Accuracy metrics.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::layers::{Dense, Flatten};
    use crate::Dataset;
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
        let a = accuracy(&net, d.test());
        assert!((0.0..=1.0).contains(&a));
    }
}

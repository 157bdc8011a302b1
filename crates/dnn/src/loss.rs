//! Loss functions.

use eden_tensor::{ops, Tensor};

/// Softmax cross-entropy loss for a single sample.
///
/// Returns `(loss, gradient_wrt_logits)`.
pub fn cross_entropy(logits: &Tensor, label: usize) -> (f32, Tensor) {
    ops::softmax_cross_entropy(logits, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_prediction_has_low_loss() {
        let confident = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[3]);
        let (low, _) = cross_entropy(&confident, 0);
        let (high, _) = cross_entropy(&confident, 1);
        assert!(low < 0.01);
        assert!(high > 5.0);
    }

    #[test]
    fn gradient_points_away_from_wrong_class() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (_, g) = cross_entropy(&logits, 0);
        // Gradient of the true class is negative (its logit should increase).
        assert!(g.data()[0] < 0.0);
        assert!(g.data()[1] > 0.0);
    }
}

//! Gradient-descent optimizers, generic over the [`Scalar`] precision.
//!
//! Training in this workspace runs at the default `f64` (the
//! determinism-contract precision); the generic instantiation exists so the
//! optimizer math monomorphises alongside `Var<f32>` graphs.
//!
//! # Mini-batch gradient accumulation
//!
//! The optimizer contract is split in two: gradients can be *accumulated*
//! into a [`GradientBatch`] (an ordered sum over per-example gradients,
//! independent of which thread produced each term) and then *applied* as one
//! [`Optimizer::step`] via [`Optimizer::apply_batch`]. A batch holding a
//! single example's gradient reproduces the plain
//! `zero_grad → backward → step` trajectory bitwise: summing one gradient
//! into a zeroed buffer and re-depositing it into the (zeroed) parameter
//! gradients is exactly the accumulation `backward` itself performs.

use rm_tensor::{Matrix, Scalar, Var};

/// A first-order optimizer over a fixed set of parameters.
pub trait Optimizer<T: Scalar = f64> {
    /// Applies one update step using the gradients currently accumulated in
    /// the parameters.
    fn step(&mut self);

    /// Clears the accumulated gradients of all managed parameters.
    fn zero_grad(&self);

    /// The parameters managed by this optimizer.
    fn parameters(&self) -> &[Var<T>];

    /// Applies one update step from an externally accumulated gradient
    /// batch: the parameters' gradient buffers are zeroed, the batch sums
    /// are deposited into them, and a single [`Optimizer::step`] runs.
    ///
    /// # Panics
    /// Panics if the batch was not built for this optimizer's parameter
    /// list (length or shape mismatch).
    fn apply_batch(&mut self, batch: &GradientBatch<T>) {
        batch.load_into(self.parameters());
        self.step();
    }
}

/// An ordered accumulator for mini-batch gradients, matching one optimizer's
/// parameter list tensor for tensor.
///
/// Per-example gradients — typically extracted from detached graph replicas
/// evaluated on worker threads — are summed with [`GradientBatch::accumulate`]
/// **in the order the calls are made**. Callers that fan the per-example
/// backward passes out in parallel must therefore accumulate the results in
/// example-index order (e.g. from an order-preserving `par_map`), which makes
/// the summed gradient — and thus the whole training trajectory — bitwise
/// independent of which worker produced each term.
pub struct GradientBatch<T: Scalar = f64> {
    grads: Vec<Matrix<T>>,
    examples: usize,
}

impl<T: Scalar> GradientBatch<T> {
    /// Creates a zeroed batch shaped like `params` (one gradient buffer per
    /// parameter tensor, in the same order).
    pub fn zeros_like(params: &[Var<T>]) -> Self {
        Self {
            grads: params
                .iter()
                .map(|p| {
                    let (r, c) = p.shape();
                    Matrix::zeros(r, c)
                })
                .collect(),
            examples: 0,
        }
    }

    /// Adds one example's per-parameter gradients into the running sums.
    ///
    /// # Panics
    /// Panics if `grads` does not match the batch's parameter list (length
    /// or shape).
    pub fn accumulate(&mut self, grads: &[Matrix<T>]) {
        assert_eq!(
            self.grads.len(),
            grads.len(),
            "gradient batch holds {} tensors, example provided {}",
            self.grads.len(),
            grads.len()
        );
        for (sum, g) in self.grads.iter_mut().zip(grads.iter()) {
            sum.axpy(T::ONE, g);
        }
        self.examples += 1;
    }

    /// Number of examples accumulated so far.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// The per-parameter gradient sums accumulated so far.
    pub fn sums(&self) -> &[Matrix<T>] {
        &self.grads
    }

    /// Zeroes `params`' gradient buffers and deposits the accumulated sums
    /// into them (the load half of [`Optimizer::apply_batch`]).
    ///
    /// # Panics
    /// Panics if `params` does not match the batch (length or shape).
    pub fn load_into(&self, params: &[Var<T>]) {
        assert_eq!(
            self.grads.len(),
            params.len(),
            "gradient batch holds {} tensors, optimizer manages {}",
            self.grads.len(),
            params.len()
        );
        for (p, sum) in params.iter().zip(self.grads.iter()) {
            p.zero_grad();
            p.add_grad(sum);
        }
    }
}

/// Plain stochastic gradient descent with optional gradient clipping.
pub struct Sgd<T: Scalar = f64> {
    params: Vec<Var<T>>,
    learning_rate: T,
    clip: Option<T>,
}

impl<T: Scalar> Sgd<T> {
    /// Creates an SGD optimizer.
    pub fn new(params: Vec<Var<T>>, learning_rate: T) -> Self {
        Self {
            params,
            learning_rate,
            clip: None,
        }
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    pub fn with_clip(mut self, clip: T) -> Self {
        self.clip = Some(clip);
        self
    }
}

impl<T: Scalar> Optimizer<T> for Sgd<T> {
    fn step(&mut self) {
        let lr = self.learning_rate;
        let clip = self.clip;
        for p in &self.params {
            p.update_value(|value, grad| {
                for (v, g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
                    let g = match clip {
                        Some(c) => g.clamp(-c, c),
                        None => *g,
                    };
                    *v -= lr * g;
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn parameters(&self) -> &[Var<T>] {
        &self.params
    }
}

/// The Adam optimizer (Kingma & Ba), as used to train BiSIM and the neural
/// baselines in the paper (learning rate 0.001).
pub struct Adam<T: Scalar = f64> {
    params: Vec<Var<T>>,
    learning_rate: T,
    beta1: T,
    beta2: T,
    epsilon: T,
    clip: Option<T>,
    step_count: u64,
    first_moment: Vec<Matrix<T>>,
    second_moment: Vec<Matrix<T>>,
}

impl<T: Scalar> Adam<T> {
    /// Creates an Adam optimizer with the standard hyper-parameters
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`).
    pub fn new(params: Vec<Var<T>>, learning_rate: T) -> Self {
        let first_moment = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        let second_moment = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            params,
            learning_rate,
            beta1: T::from_f64(0.9),
            beta2: T::from_f64(0.999),
            epsilon: T::from_f64(1e-8),
            clip: None,
            step_count: 0,
            first_moment,
            second_moment,
        }
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    pub fn with_clip(mut self, clip: T) -> Self {
        self.clip = Some(clip);
        self
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }
}

/// The per-step constants of one [`Adam::step`].
#[derive(Clone, Copy)]
struct AdamStep<T: Scalar> {
    beta1: T,
    beta2: T,
    eps: T,
    lr: T,
    bias1: T,
    bias2: T,
}

impl<T: Scalar> AdamStep<T> {
    /// The element-wise Adam update over one parameter tensor, written over
    /// zipped slices so the loop has no bounds checks and vectorises. Each
    /// element evaluates exactly the expressions of the textbook loop, in the
    /// same order and with no fusing, so the result is bitwise the indexed
    /// loop's (pinned by `vectorised_adam_matches_the_indexed_loop_bitwise`).
    #[inline(always)]
    fn apply(self, w: &mut [T], grad: &[T], m: &mut [T], v: &mut [T], clip: impl Fn(T) -> T) {
        let AdamStep {
            beta1,
            beta2,
            eps,
            lr,
            bias1,
            bias2,
        } = self;
        for (((w, &g), m), v) in w.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut()) {
            let g = clip(g);
            let m_i = beta1 * *m + (T::ONE - beta1) * g;
            let v_i = beta2 * *v + (T::ONE - beta2) * g * g;
            *m = m_i;
            *v = v_i;
            let m_hat = m_i / bias1;
            let v_hat = v_i / bias2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

impl<T: Scalar> Optimizer<T> for Adam<T> {
    fn step(&mut self) {
        self.step_count += 1;
        let t = T::from_f64(self.step_count as f64);
        let bias1 = T::ONE - self.beta1.powf(t);
        let bias2 = T::ONE - self.beta2.powf(t);
        let hyper = AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.epsilon,
            lr: self.learning_rate,
            bias1,
            bias2,
        };
        for ((p, m), v) in self
            .params
            .iter()
            .zip(&mut self.first_moment)
            .zip(&mut self.second_moment)
        {
            p.update_value(|value, grad| {
                assert_eq!(value.shape(), m.shape(), "adam moment shape");
                assert_eq!(value.shape(), v.shape(), "adam moment shape");
                let (w, g, m, v) = (value.data_mut(), grad.data(), m.data_mut(), v.data_mut());
                // One loop per clip setting, so neither carries a branch and
                // both vectorise.
                match self.clip {
                    Some(c) => hyper.apply(w, g, m, v, |g| g.clamp(-c, c)),
                    None => hyper.apply(w, g, m, v, |g| g),
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn parameters(&self) -> &[Var<T>] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises (w - 3)^2 and checks convergence.
    fn optimise_quadratic(mut opt: impl Optimizer, steps: usize) -> f64 {
        for _ in 0..steps {
            let w = opt.parameters()[0].clone();
            opt.zero_grad();
            let loss = w.add_const(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
        opt.parameters()[0].value().get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = optimise_quadratic(Sgd::new(vec![w], 0.1), 200);
        assert!((final_w - 3.0).abs() < 1e-3, "w = {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = optimise_quadratic(Adam::new(vec![w], 0.1), 500);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_converges_at_f32_too() {
        let w: Var<f32> = Var::parameter(Matrix::from_vec(1, 1, vec![0.0f32]));
        let mut opt = Adam::new(vec![w.clone()], 0.1f32);
        for _ in 0..500 {
            opt.zero_grad();
            let loss = w.add_const(-3.0f32).square().sum();
            loss.backward();
            opt.step();
        }
        let final_w = w.value().get(0, 0);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_tracks_step_count_and_zeroes_grads() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(vec![w.clone()], 0.01);
        let loss = w.square().sum();
        loss.backward();
        assert!(w.grad().get(0, 0) != 0.0);
        adam.step();
        assert_eq!(adam.steps_taken(), 1);
        adam.zero_grad();
        assert_eq!(w.grad().get(0, 0), 0.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Sgd::new(vec![w.clone()], 1.0).with_clip(0.5);
        opt.zero_grad();
        // Gradient of 1000 * w at w=0 is 1000, clipped to 0.5.
        let big = w.scale(1000.0).sum();
        big.backward();
        opt.step();
        assert!((w.value().get(0, 0) + 0.5).abs() < 1e-12);
    }

    /// A single-example batch must reproduce the plain
    /// `zero_grad → backward → step` trajectory bitwise — the contract the
    /// batched trainers rely on for `batch_size = 1`.
    #[test]
    fn single_example_batch_matches_direct_step_bitwise() {
        let run = |batched: bool| -> Vec<u64> {
            let w = Var::parameter(Matrix::from_vec(2, 1, vec![0.3, -1.7]));
            let mut opt = Adam::new(vec![w.clone()], 0.05).with_clip(5.0);
            for step in 0..20 {
                let target = 1.0 + step as f64 * 0.1;
                if batched {
                    // Compute the gradient on a detached replica of the graph.
                    let replica = Var::parameter(w.value());
                    let loss = replica.add_const(-target).square().sum();
                    loss.backward();
                    let mut batch = GradientBatch::zeros_like(opt.parameters());
                    batch.accumulate(&[replica.grad()]);
                    assert_eq!(batch.examples(), 1);
                    opt.apply_batch(&batch);
                } else {
                    opt.zero_grad();
                    let loss = w.add_const(-target).square().sum();
                    loss.backward();
                    opt.step();
                }
            }
            w.value().data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    /// Accumulating N per-example gradients and applying once equals one
    /// step over the manually summed gradient.
    #[test]
    fn batch_accumulation_sums_in_order() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        let mut batch = GradientBatch::zeros_like(opt.parameters());
        for g in [0.25, -1.5, 3.0] {
            batch.accumulate(&[Matrix::from_vec(1, 1, vec![g])]);
        }
        assert_eq!(batch.examples(), 3);
        assert_eq!(batch.sums()[0].get(0, 0), 0.25 - 1.5 + 3.0);
        opt.apply_batch(&batch);
        assert!((w.value().get(0, 0) - (2.0 - 0.1 * 1.75)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gradient batch holds")]
    fn batch_rejects_mismatched_example() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let mut batch = GradientBatch::zeros_like(&[w]);
        batch.accumulate(&[]);
    }

    /// The indexed loop `Adam::step` ran before it was rewritten over zipped
    /// slices, kept as the bitwise reference of [`AdamStep::apply`].
    fn indexed_adam_update(
        h: AdamStep<f64>,
        clip: Option<f64>,
        value: &mut Matrix,
        grad: &Matrix,
        m: &mut Matrix,
        v: &mut Matrix,
    ) {
        for idx in 0..value.data().len() {
            let mut g = grad.data()[idx];
            if let Some(c) = clip {
                g = g.clamp(-c, c);
            }
            let m_i = h.beta1 * m.data()[idx] + (1.0 - h.beta1) * g;
            let v_i = h.beta2 * v.data()[idx] + (1.0 - h.beta2) * g * g;
            m.data_mut()[idx] = m_i;
            v.data_mut()[idx] = v_i;
            let m_hat = m_i / h.bias1;
            let v_hat = v_i / h.bias2;
            value.data_mut()[idx] -= h.lr * m_hat / (v_hat.sqrt() + h.eps);
        }
    }

    /// The vectorised update equals the indexed loop bit for bit, with and
    /// without clipping, over gradients holding NaN, ±∞, ±0, subnormals and
    /// values beyond the clip bound, across several steps (so the moments
    /// carry those values forward).
    #[test]
    fn vectorised_adam_matches_the_indexed_loop_bitwise() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(3),
            1e300,
            -7.5,
            5.0,
        ];
        let n = 67; // several vector widths plus a remainder
        for clip in [None, Some(5.0)] {
            let init = Matrix::from_fn(1, n, |_, j| (j as f64 * 0.37).sin());
            let (mut w_ref, mut m_ref, mut v_ref) =
                (init.clone(), Matrix::zeros(1, n), Matrix::zeros(1, n));
            let (mut w, mut m, mut v) = (init, Matrix::zeros(1, n), Matrix::zeros(1, n));
            for step in 1..=6u64 {
                let grad = Matrix::from_fn(1, n, |_, j| {
                    if (j + step as usize).is_multiple_of(3) {
                        specials[(j + step as usize) % specials.len()]
                    } else {
                        ((j * 7 + step as usize) as f64).cos() * 3.0
                    }
                });
                let t = step as f64;
                let h = AdamStep {
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                    lr: 0.01,
                    bias1: 1.0 - 0.9f64.powf(t),
                    bias2: 1.0 - 0.999f64.powf(t),
                };
                indexed_adam_update(h, clip, &mut w_ref, &grad, &mut m_ref, &mut v_ref);
                let (wd, md, vd) = (w.data_mut(), m.data_mut(), v.data_mut());
                match clip {
                    Some(c) => h.apply(wd, grad.data(), md, vd, |g: f64| g.clamp(-c, c)),
                    None => h.apply(wd, grad.data(), md, vd, |g| g),
                }
                assert!(
                    w.bits_eq(&w_ref),
                    "value diverged at step {step}, clip {clip:?}"
                );
                assert!(m.bits_eq(&m_ref), "first moment diverged at step {step}");
                assert!(v.bits_eq(&v_ref), "second moment diverged at step {step}");
            }
        }
    }

    /// `Adam::step` itself runs the vectorised update: a trajectory driven
    /// through `backward` matches the indexed loop bit for bit.
    #[test]
    fn adam_step_matches_the_indexed_loop_bitwise() {
        let w = Var::parameter(Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64 * 0.1 - 0.6));
        let mut adam = Adam::new(vec![w.clone()], 0.05).with_clip(1.0);
        let mut w_ref = w.value();
        let (mut m_ref, mut v_ref) = (Matrix::zeros(3, 5), Matrix::zeros(3, 5));
        for step in 1..=10u64 {
            adam.zero_grad();
            w.scale(3.0).square().sum().backward();
            let grad = w.grad();
            adam.step();
            let t = step as f64;
            let h = AdamStep {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                lr: 0.05,
                bias1: 1.0 - 0.9f64.powf(t),
                bias2: 1.0 - 0.999f64.powf(t),
            };
            indexed_adam_update(h, Some(1.0), &mut w_ref, &grad, &mut m_ref, &mut v_ref);
            assert!(w.value().bits_eq(&w_ref), "diverged at step {step}");
        }
    }

    #[test]
    fn multi_parameter_update_touches_all() {
        let a = Var::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let b = Var::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let mut opt = Adam::new(vec![a.clone(), b.clone()], 0.05);
        for _ in 0..50 {
            opt.zero_grad();
            let loss = a.square().add(&b.square()).sum();
            loss.backward();
            opt.step();
        }
        assert!(a.value().get(0, 0).abs() < 1.0);
        assert!(b.value().get(0, 0).abs() < 2.0);
    }
}

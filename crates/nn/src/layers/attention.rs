//! Tiny single-head self-attention block with a residual connection.

use super::{DigitalEngine, Layer, MatmulEngine, MatmulOrientation, ParamName};
use crate::init::Init;
use healthmon_tensor::{SeededRng, Tensor};

/// Single-head scaled-dot-product self-attention over `[N, T, D]` inputs:
/// `y = x + softmax(QKᵀ/√D)·V·Wo` with `Q = xWq`, `K = xWk`, `V = xWv`.
///
/// All four projections are square `[D, D]` matrices with no bias, so the
/// block preserves the input shape and exposes exactly four
/// conductance-mappable [`MatmulOrientation::XW`] matmuls (`wq.weight`,
/// `wk.weight`, `wv.weight`, `wo.weight`) through [`Layer::matmuls`]. The
/// attention arithmetic itself (scores, softmax, attention-weighted sum)
/// is activation×activation and stays digital on every backend, mirroring
/// how crossbar accelerators only map the stationary weight matrices.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    dim: usize,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    grad_wq: Tensor,
    grad_wk: Tensor,
    grad_wv: Tensor,
    grad_wo: Tensor,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x_flat: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-sample `[T, T]` softmax attention matrices.
    attn: Vec<Tensor>,
    /// Concatenated `A·V` rows, `[N·T, D]`.
    av: Tensor,
    n: usize,
    t: usize,
}

/// Copies `count` consecutive rows starting at `start` out of a 2-D tensor.
fn rows_block(m: &Tensor, start: usize, count: usize) -> Tensor {
    let cols = m.shape()[1];
    let s = &m.as_slice()[start * cols..(start + count) * cols];
    Tensor::from_vec(s.to_vec(), &[count, cols]).expect("rows_block shape")
}

impl SelfAttention {
    /// Creates a single-head attention block over token width `dim`.
    pub fn new(dim: usize, rng: &mut SeededRng) -> Self {
        let proj = |rng: &mut SeededRng| Init::XavierUniform.sample(&[dim, dim], dim, dim, rng);
        SelfAttention {
            dim,
            wq: proj(rng),
            wk: proj(rng),
            wv: proj(rng),
            wo: proj(rng),
            grad_wq: Tensor::zeros(&[dim, dim]),
            grad_wk: Tensor::zeros(&[dim, dim]),
            grad_wv: Tensor::zeros(&[dim, dim]),
            grad_wo: Tensor::zeros(&[dim, dim]),
            cache: None,
        }
    }

    fn check_input(&self, input: &Tensor) -> (usize, usize) {
        assert_eq!(
            input.ndim(),
            3,
            "self_attention expects [N, T, D] input, got {:?}",
            input.shape()
        );
        assert_eq!(
            input.shape()[2],
            self.dim,
            "self_attention token width mismatch: input D = {}, layer D = {}",
            input.shape()[2],
            self.dim
        );
        (input.shape()[0], input.shape()[1])
    }

    /// The block's arithmetic with every projection routed through
    /// `engine` under `{key_prefix}.{name}`: the output, and what
    /// `backward` needs.
    fn run(
        &self,
        input: &Tensor,
        key_prefix: &str,
        engine: &dyn MatmulEngine,
    ) -> (Tensor, AttnCache) {
        let (n, t) = self.check_input(input);
        let d = self.dim;
        let x_flat = input.reshape(&[n * t, d]).expect("attention flatten");
        let q = engine.matmul_xw(&format!("{key_prefix}.wq.weight"), &x_flat, &self.wq);
        let k = engine.matmul_xw(&format!("{key_prefix}.wk.weight"), &x_flat, &self.wk);
        let v = engine.matmul_xw(&format!("{key_prefix}.wv.weight"), &x_flat, &self.wv);
        // Per sample, `softmax(QKᵀ/√D)·V`.
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let mut av = Tensor::zeros(&[n * t, d]);
        let mut attn = Vec::with_capacity(n);
        for i in 0..n {
            let qi = rows_block(&q, i * t, t);
            let ki = rows_block(&k, i * t, t);
            let vi = rows_block(&v, i * t, t);
            let a = qi.matmul_bt(&ki).scale(inv_sqrt_d).softmax_rows();
            let avi = a.matmul(&vi);
            for r in 0..t {
                av.set_row(i * t + r, &avi.row(r));
            }
            attn.push(a);
        }
        let o = engine.matmul_xw(&format!("{key_prefix}.wo.weight"), &av, &self.wo);
        let y = x_flat.add(&o).reshape(&[n, t, d]).expect("attention unflatten");
        (y, AttnCache { x_flat, q, k, v, attn, av, n, t })
    }
}

impl Layer for SelfAttention {
    fn name(&self) -> &'static str {
        "self_attention"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (y, cache) = self.run(input, "", &DigitalEngine);
        self.cache = Some(cache);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let c = self.cache.as_ref().expect("self_attention backward before forward");
        let (n, t, d) = (c.n, c.t, self.dim);
        let g_flat = grad_out.reshape(&[n * t, d]).expect("attention grad flatten");

        // Output projection: o = av·Wo.
        self.grad_wo += &c.av.matmul_at(&g_flat);
        let g_av = g_flat.matmul_bt(&self.wo);

        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let mut dq = Tensor::zeros(&[n * t, d]);
        let mut dk = Tensor::zeros(&[n * t, d]);
        let mut dv = Tensor::zeros(&[n * t, d]);
        for i in 0..n {
            let gi = rows_block(&g_av, i * t, t);
            let a = &c.attn[i];
            let qi = rows_block(&c.q, i * t, t);
            let ki = rows_block(&c.k, i * t, t);
            let vi = rows_block(&c.v, i * t, t);

            let dvi = a.matmul_at(&gi); // Aᵀ·g
            let da = gi.matmul_bt(&vi); // g·Vᵀ
            // Softmax Jacobian per row: dS = A ⊙ (dA − Σⱼ dAⱼAⱼ).
            let mut ds = Tensor::zeros(&[t, t]);
            for r in 0..t {
                let mut dot = 0.0f32;
                for j in 0..t {
                    dot += da.at(&[r, j]) * a.at(&[r, j]);
                }
                for j in 0..t {
                    *ds.at_mut(&[r, j]) = a.at(&[r, j]) * (da.at(&[r, j]) - dot);
                }
            }
            let ds_raw = ds.scale(inv_sqrt_d); // undo the score scaling
            let dqi = ds_raw.matmul(&ki);
            let dki = ds_raw.matmul_at(&qi); // dSᵀ·Q
            for r in 0..t {
                dq.set_row(i * t + r, &dqi.row(r));
                dk.set_row(i * t + r, &dki.row(r));
                dv.set_row(i * t + r, &dvi.row(r));
            }
        }

        self.grad_wq += &c.x_flat.matmul_at(&dq);
        self.grad_wk += &c.x_flat.matmul_at(&dk);
        self.grad_wv += &c.x_flat.matmul_at(&dv);

        // Residual skip plus the three projection paths back into x.
        let mut dx = g_flat;
        dx += &dq.matmul_bt(&self.wq);
        dx += &dk.matmul_bt(&self.wk);
        dx += &dv.matmul_bt(&self.wv);
        dx.reshape(&[n, t, d]).expect("attention grad unflatten")
    }

    fn infer(&self, input: &Tensor, key_prefix: &str, engine: &dyn MatmulEngine) -> Tensor {
        self.run(input, key_prefix, engine).0
    }

    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        vec![
            ("wq.weight", MatmulOrientation::XW),
            ("wk.weight", MatmulOrientation::XW),
            ("wv.weight", MatmulOrientation::XW),
            ("wo.weight", MatmulOrientation::XW),
        ]
    }

    fn params(&self) -> Vec<(ParamName, &Tensor)> {
        vec![
            ("wq.weight".into(), &self.wq),
            ("wk.weight".into(), &self.wk),
            ("wv.weight".into(), &self.wv),
            ("wo.weight".into(), &self.wo),
        ]
    }

    fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
        vec![
            ("wq.weight".into(), &mut self.wq, &mut self.grad_wq),
            ("wk.weight".into(), &mut self.wk, &mut self.grad_wk),
            ("wv.weight".into(), &mut self.wv, &mut self.grad_wv),
            ("wo.weight".into(), &mut self.wo, &mut self.grad_wo),
        ]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use crate::layers::DigitalEngine;

    #[test]
    fn preserves_shape() {
        let mut rng = SeededRng::new(5);
        let mut attn = SelfAttention::new(4, &mut rng);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        assert_eq!(attn.forward(&x).shape(), &[2, 3, 4]);
    }

    #[test]
    fn input_gradients_check() {
        let mut rng = SeededRng::new(21);
        let mut attn = SelfAttention::new(4, &mut rng);
        let x = Tensor::randn(&[2, 3, 4], &mut rng).map(|v| v * 0.5);
        assert!(gradcheck::input_gradient_error(&mut attn, &x) < 1e-2);
    }

    #[test]
    fn param_gradients_check() {
        let mut rng = SeededRng::new(22);
        let mut attn = SelfAttention::new(3, &mut rng);
        let x = Tensor::randn(&[2, 2, 3], &mut rng).map(|v| v * 0.5);
        assert!(gradcheck::param_gradient_error(&mut attn, &x) < 1e-2);
    }

    #[test]
    fn infer_matches_forward_with_digital_engine() {
        let mut rng = SeededRng::new(23);
        let mut attn = SelfAttention::new(6, &mut rng);
        let x = Tensor::randn(&[3, 4, 6], &mut rng);
        let trained = attn.forward(&x);
        let inferred = attn.infer(&x, "layer0", &DigitalEngine);
        assert_eq!(trained, inferred);
    }

    #[test]
    fn exposes_four_mappable_matmuls() {
        let mut rng = SeededRng::new(1);
        let attn = SelfAttention::new(4, &mut rng);
        let m = attn.matmuls();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|&(_, o)| o == MatmulOrientation::XW));
        let names: Vec<_> = attn.params().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["wq.weight", "wk.weight", "wv.weight", "wo.weight"]);
    }

    #[test]
    #[should_panic(expected = "token width mismatch")]
    fn rejects_wrong_token_width() {
        let mut rng = SeededRng::new(1);
        let mut attn = SelfAttention::new(4, &mut rng);
        attn.forward(&Tensor::zeros(&[1, 2, 5]));
    }
}

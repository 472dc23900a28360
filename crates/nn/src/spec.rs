//! Network serialization: a compact binary format for trained models.
//!
//! The workspace builds hermetically with no external crates, so the
//! format is hand-rolled: a magic/version header followed
//! by one tagged record per layer, with tensors stored as
//! rank/dims/little-endian `f32` data. Round-tripping preserves weights
//! bit-for-bit, so a saved model classifies — and *leaks* — identically.

use crate::activation::{Relu, ReluStyle};
use crate::conv::{Conv2d, ConvStyle};
use crate::dense::{Dense, DenseStyle};
use crate::network::Network;
use crate::pool::MaxPool2d;
use crate::softmax::{Flatten, Softmax};
use scnn_tensor::wire::{ByteReader, ByteWriter};
use scnn_tensor::Tensor;
use std::error::Error;
use std::fmt;

const MAGIC: u32 = 0x5343_4e4e; // "SCNN"
const VERSION: u16 = 1;

/// Error decoding a serialized network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic number or version did not match.
    BadHeader,
    /// The buffer ended before the structure did.
    Truncated,
    /// An unknown layer tag was encountered.
    UnknownLayer(u8),
    /// An unknown enum discriminant inside a layer record.
    BadDiscriminant(u8),
    /// A tensor's declared geometry disagrees with its payload.
    BadTensor,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "not a scnn model (bad magic/version)"),
            DecodeError::Truncated => write!(f, "model data truncated"),
            DecodeError::UnknownLayer(t) => write!(f, "unknown layer tag {t}"),
            DecodeError::BadDiscriminant(d) => write!(f, "invalid enum discriminant {d}"),
            DecodeError::BadTensor => write!(f, "tensor geometry inconsistent with payload"),
        }
    }
}

impl Error for DecodeError {}

/// A serializable description of one layer, including its parameters.
///
/// [`Layer::spec`](crate::layer::Layer::spec) produces these;
/// [`LayerSpec::build`] turns one back into a live layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution with filters `[F, C, k, k]` and bias `[F]`.
    Conv2d {
        /// Filter tensor.
        filters: Tensor,
        /// Bias tensor (all zeros when `use_bias` is false).
        bias: Tensor,
        /// Kernel style.
        style: ConvStyle,
        /// Whether the bias is trainable.
        use_bias: bool,
    },
    /// ReLU activation.
    Relu {
        /// Execution style.
        style: ReluStyle,
        /// Sparsifying threshold.
        threshold: f32,
    },
    /// Non-overlapping max pooling with window `k`.
    MaxPool2d {
        /// Window/stride size.
        k: usize,
    },
    /// Flatten to rank 1.
    Flatten,
    /// Fully-connected layer with input-major weights `[in, out]`.
    Dense {
        /// Weight tensor.
        weight: Tensor,
        /// Bias tensor.
        bias: Tensor,
        /// Kernel style.
        style: DenseStyle,
    },
    /// Softmax over a vector.
    Softmax,
}

impl LayerSpec {
    /// Reconstructs the live layer.
    pub fn build(self) -> Box<dyn crate::layer::Layer> {
        match self {
            LayerSpec::Conv2d {
                filters,
                bias,
                style,
                use_bias,
            } => Box::new(Conv2d::from_params(filters, bias, style, use_bias)),
            LayerSpec::Relu { style, threshold } => {
                Box::new(Relu::new(style).with_threshold(threshold))
            }
            LayerSpec::MaxPool2d { k } => Box::new(MaxPool2d::new(k)),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::Dense {
                weight,
                bias,
                style,
            } => Box::new(Dense::from_params(weight, bias, style)),
            LayerSpec::Softmax => Box::new(Softmax::new()),
        }
    }
}

fn put_tensor(buf: &mut ByteWriter, t: &Tensor) {
    buf.put_u32(t.shape().rank() as u32);
    for &d in t.dims() {
        buf.put_u32(d as u32);
    }
    for &v in t.as_slice() {
        buf.put_f32_le(v);
    }
}

fn get_tensor(buf: &mut ByteReader<'_>) -> Result<Tensor, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let rank = buf.get_u32() as usize;
    if rank > 8 || buf.remaining() < rank * 4 {
        return Err(DecodeError::Truncated);
    }
    let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32() as usize).collect();
    // checked_mul + divide: crafted dims like [u32::MAX; 4] must surface
    // as a decode error, not wrap `len * 4` around and pass the bound.
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(DecodeError::BadTensor)?;
    if buf.remaining() / 4 < len {
        return Err(DecodeError::Truncated);
    }
    let data: Vec<f32> = (0..len).map(|_| buf.get_f32_le()).collect();
    Tensor::from_vec(data, dims).map_err(|_| DecodeError::BadTensor)
}

/// Encodes a sequence of layer specs into the binary model format.
pub fn encode(specs: &[LayerSpec]) -> Vec<u8> {
    let mut buf = ByteWriter::new();
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u32(specs.len() as u32);
    for spec in specs {
        match spec {
            LayerSpec::Conv2d {
                filters,
                bias,
                style,
                use_bias,
            } => {
                buf.put_u8(0);
                buf.put_u8(match style {
                    ConvStyle::ZeroSkip => 0,
                    ConvStyle::Dense => 1,
                });
                buf.put_u8(u8::from(*use_bias));
                put_tensor(&mut buf, filters);
                put_tensor(&mut buf, bias);
            }
            LayerSpec::Relu { style, threshold } => {
                buf.put_u8(1);
                buf.put_u8(match style {
                    ReluStyle::Branchy => 0,
                    ReluStyle::Branchless => 1,
                });
                buf.put_f32_le(*threshold);
            }
            LayerSpec::MaxPool2d { k } => {
                buf.put_u8(2);
                buf.put_u32(*k as u32);
            }
            LayerSpec::Flatten => buf.put_u8(3),
            LayerSpec::Dense {
                weight,
                bias,
                style,
            } => {
                buf.put_u8(4);
                buf.put_u8(match style {
                    DenseStyle::ZeroSkip => 0,
                    DenseStyle::Dense => 1,
                });
                put_tensor(&mut buf, weight);
                put_tensor(&mut buf, bias);
            }
            LayerSpec::Softmax => buf.put_u8(5),
        }
    }
    buf.into_vec()
}

/// Decodes the binary model format back into layer specs.
///
/// # Errors
///
/// Returns [`DecodeError`] on any structural inconsistency.
pub fn decode(data: &[u8]) -> Result<Vec<LayerSpec>, DecodeError> {
    let mut buf = ByteReader::new(data);
    if buf.remaining() < 10 {
        return Err(DecodeError::Truncated);
    }
    if buf.get_u32() != MAGIC || buf.get_u16() != VERSION {
        return Err(DecodeError::BadHeader);
    }
    let count = buf.get_u32() as usize;
    let mut specs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let tag = buf.get_u8();
        let spec = match tag {
            0 => {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let style = match buf.get_u8() {
                    0 => ConvStyle::ZeroSkip,
                    1 => ConvStyle::Dense,
                    d => return Err(DecodeError::BadDiscriminant(d)),
                };
                let use_bias = buf.get_u8() != 0;
                let filters = get_tensor(&mut buf)?;
                let bias = get_tensor(&mut buf)?;
                if filters.shape().rank() != 4
                    || bias.shape().rank() != 1
                    // Mirror Conv2d::from_params's invariants so corrupt
                    // bytes surface here as an error, not as its asserts.
                    || filters.dims()[2] != filters.dims()[3]
                    || bias.dims()[0] != filters.dims()[0]
                {
                    return Err(DecodeError::BadTensor);
                }
                LayerSpec::Conv2d {
                    filters,
                    bias,
                    style,
                    use_bias,
                }
            }
            1 => {
                if buf.remaining() < 5 {
                    return Err(DecodeError::Truncated);
                }
                let style = match buf.get_u8() {
                    0 => ReluStyle::Branchy,
                    1 => ReluStyle::Branchless,
                    d => return Err(DecodeError::BadDiscriminant(d)),
                };
                LayerSpec::Relu {
                    style,
                    threshold: buf.get_f32_le(),
                }
            }
            2 => {
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                LayerSpec::MaxPool2d {
                    k: buf.get_u32() as usize,
                }
            }
            3 => LayerSpec::Flatten,
            4 => {
                if buf.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let style = match buf.get_u8() {
                    0 => DenseStyle::ZeroSkip,
                    1 => DenseStyle::Dense,
                    d => return Err(DecodeError::BadDiscriminant(d)),
                };
                let weight = get_tensor(&mut buf)?;
                let bias = get_tensor(&mut buf)?;
                if weight.shape().rank() != 2
                    || bias.shape().rank() != 1
                    || bias.dims()[0] != weight.dims()[1]
                {
                    return Err(DecodeError::BadTensor);
                }
                LayerSpec::Dense {
                    weight,
                    bias,
                    style,
                }
            }
            5 => LayerSpec::Softmax,
            t => return Err(DecodeError::UnknownLayer(t)),
        };
        specs.push(spec);
    }
    Ok(specs)
}

impl Network {
    /// Serializes the network (architecture + weights) into the binary
    /// model format.
    ///
    /// # Examples
    ///
    /// ```
    /// use scnn_nn::models;
    ///
    /// # fn main() -> Result<(), scnn_nn::spec::DecodeError> {
    /// let net = models::tiny_cnn(7);
    /// let bytes = net.to_bytes();
    /// let restored = scnn_nn::Network::from_bytes(&bytes)?;
    /// assert_eq!(restored.len(), net.len());
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let specs: Vec<LayerSpec> = self.layers().iter().map(|l| l.spec()).collect();
        encode(&specs)
    }

    /// Reconstructs a network from [`Network::to_bytes`] output. The
    /// result is finalized (weight addresses assigned) and ready for both
    /// numeric and traced execution.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the data is not a valid model.
    pub fn from_bytes(data: &[u8]) -> Result<Network, DecodeError> {
        let specs = decode(data)?;
        let mut net = Network::new();
        for spec in specs {
            net.push_boxed(spec.build());
        }
        net.finalize();
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use scnn_uarch::CountingProbe;

    #[test]
    fn roundtrip_preserves_inference_exactly() {
        let mut net = models::tiny_cnn(9);
        let image = Tensor::from_vec(
            (0..64)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i % 7) as f32 / 7.0
                    }
                })
                .collect(),
            [1, 8, 8],
        )
        .unwrap();
        let want = net.infer(&image).unwrap();

        let bytes = net.to_bytes();
        let mut restored = Network::from_bytes(&bytes).unwrap();
        assert_eq!(restored.infer(&image).unwrap(), want);
        assert_eq!(restored.param_count(), net.param_count());
    }

    #[test]
    fn roundtrip_preserves_traced_footprint() {
        let net = models::tiny_cnn(3);
        let restored = Network::from_bytes(&net.to_bytes()).unwrap();
        let image = Tensor::full([1, 8, 8], 0.4);
        let count = |n: &Network| {
            let mut probe = CountingProbe::new();
            n.infer_traced(&image, &mut probe).unwrap();
            (probe.loads, probe.stores, probe.branches, probe.alu_ops)
        };
        assert_eq!(count(&net), count(&restored), "leak profile preserved");
    }

    #[test]
    fn roundtrip_paper_model() {
        let net = models::mnist_cnn(1);
        let bytes = net.to_bytes();
        let restored = Network::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), net.len());
        assert_eq!(restored.param_count(), net.param_count());
    }

    #[test]
    fn header_is_checked() {
        assert!(matches!(
            Network::from_bytes(&[]).map(|_| ()),
            Err(DecodeError::Truncated)
        ));
        let mut bytes = models::tiny_cnn(1).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Network::from_bytes(&bytes).map(|_| ()),
            Err(DecodeError::BadHeader)
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = models::tiny_cnn(1).to_bytes();
        for cut in [12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Network::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_truncation_point_errors_never_panics() {
        // Exhaustive sweep: these are now artifact-cache load paths, so a
        // cut anywhere in the stream must be a clean DecodeError.
        let bytes = models::tiny_cnn(2).to_bytes();
        for cut in 0..bytes.len() {
            assert!(Network::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_version_is_bad_header() {
        let mut buf = ByteWriter::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION + 1);
        buf.put_u32(0);
        assert_eq!(decode(buf.as_slice()), Err(DecodeError::BadHeader));
    }

    #[test]
    fn byte_flips_error_or_roundtrip_never_panic() {
        // Flip one byte at a time through the whole model: decode must
        // either reject it or produce some (possibly different) model —
        // a panic or abort is the only failure mode.
        let bytes = models::tiny_cnn(1).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            let _ = Network::from_bytes(&bad);
        }
    }

    #[test]
    fn huge_dims_error_instead_of_allocating() {
        // A conv record whose tensor claims ~2^128 elements: the dims
        // product must be overflow-checked, not wrapped into a small
        // bound that then over-reads or OOMs.
        let mut buf = ByteWriter::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u32(1);
        buf.put_u8(0); // Conv2d
        buf.put_u8(0); // ZeroSkip
        buf.put_u8(1); // use_bias
        buf.put_u32(4); // rank
        for _ in 0..4 {
            buf.put_u32(u32::MAX);
        }
        assert!(decode(buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = ByteWriter::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u32(1);
        buf.put_u8(99);
        assert_eq!(decode(buf.as_slice()), Err(DecodeError::UnknownLayer(99)));
    }

    #[test]
    fn specs_rebuild_individually() {
        for spec in [
            LayerSpec::Flatten,
            LayerSpec::Softmax,
            LayerSpec::MaxPool2d { k: 2 },
            LayerSpec::Relu {
                style: ReluStyle::Branchless,
                threshold: 0.1,
            },
        ] {
            let layer = spec.build();
            assert!(!layer.name().is_empty());
        }
    }
}

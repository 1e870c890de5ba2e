//! Layer shape descriptions and their MAC/parameter accounting.

use std::fmt;

/// The operator type of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_channels: u32,
        /// Output channels.
        out_channels: u32,
        /// Square kernel size (R = S).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Symmetric zero padding.
        padding: u32,
    },
    /// Depthwise 2-D convolution: one filter per channel (MobileNet's
    /// spatial stage).
    DepthwiseConv2d {
        /// Channel count (input = output).
        channels: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Symmetric zero padding.
        padding: u32,
    },
    /// Fully connected (dense) layer.
    Linear {
        /// Input features.
        in_features: u32,
        /// Output features.
        out_features: u32,
    },
    /// Max pooling (no MACs; changes spatial dims).
    MaxPool {
        /// Square window size.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Global average pooling down to 1×1 (no MACs worth modeling).
    GlobalAvgPool,
}

/// One layer instance: its kind plus the input spatial size it runs at.
///
/// The input size is part of the layer (rather than re-derived on every
/// query) so that MAC counts are cheap and the dataflow mapper can
/// treat layers independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Operator type and parameters.
    pub kind: LayerKind,
    /// Input height (= width; the paper's workloads are square).
    pub input_hw: u32,
}

impl Layer {
    /// Creates a convolution layer.
    pub fn conv(
        input_hw: u32,
        in_channels: u32,
        out_channels: u32,
        kernel: u32,
        stride: u32,
        padding: u32,
    ) -> Self {
        Layer {
            kind: LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            },
            input_hw,
        }
    }

    /// Creates a depthwise convolution layer.
    pub fn depthwise(channels: u32, input_hw: u32, kernel: u32, stride: u32, padding: u32) -> Self {
        Layer {
            kind: LayerKind::DepthwiseConv2d {
                channels,
                kernel,
                stride,
                padding,
            },
            input_hw,
        }
    }

    /// Creates a fully connected layer.
    pub fn linear(in_features: u32, out_features: u32) -> Self {
        Layer {
            kind: LayerKind::Linear {
                in_features,
                out_features,
            },
            input_hw: 1,
        }
    }

    /// Creates a max-pool layer.
    pub fn max_pool(input_hw: u32, kernel: u32, stride: u32) -> Self {
        Layer {
            kind: LayerKind::MaxPool { kernel, stride },
            input_hw,
        }
    }

    /// Creates a global-average-pool layer.
    pub fn global_avg_pool(input_hw: u32) -> Self {
        Layer {
            kind: LayerKind::GlobalAvgPool,
            input_hw,
        }
    }

    /// Output spatial size (height = width) after this layer.
    pub fn output_hw(&self) -> u32 {
        match self.kind {
            LayerKind::Conv2d {
                kernel,
                stride,
                padding,
                ..
            }
            | LayerKind::DepthwiseConv2d {
                kernel,
                stride,
                padding,
                ..
            } => (self.input_hw + 2 * padding - kernel) / stride + 1,
            LayerKind::Linear { .. } => 1,
            LayerKind::MaxPool { kernel, stride } => (self.input_hw - kernel) / stride + 1,
            LayerKind::GlobalAvgPool => 1,
        }
    }

    /// Multiply-accumulate operations performed by this layer.
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let out = u64::from(self.output_hw());
                u64::from(in_channels)
                    * u64::from(out_channels)
                    * u64::from(kernel)
                    * u64::from(kernel)
                    * out
                    * out
            }
            LayerKind::DepthwiseConv2d {
                channels, kernel, ..
            } => {
                let out = u64::from(self.output_hw());
                u64::from(channels) * u64::from(kernel) * u64::from(kernel) * out * out
            }
            LayerKind::Linear {
                in_features,
                out_features,
            } => u64::from(in_features) * u64::from(out_features),
            LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool => 0,
        }
    }

    /// Trainable parameter count (weights only; biases folded).
    pub fn params(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                u64::from(in_channels)
                    * u64::from(out_channels)
                    * u64::from(kernel)
                    * u64::from(kernel)
            }
            LayerKind::DepthwiseConv2d {
                channels, kernel, ..
            } => u64::from(channels) * u64::from(kernel) * u64::from(kernel),
            LayerKind::Linear {
                in_features,
                out_features,
            } => u64::from(in_features) * u64::from(out_features),
            LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool => 0,
        }
    }

    /// Whether the layer performs MACs (and therefore occupies the
    /// accelerator's MAC array).
    pub fn is_compute(&self) -> bool {
        self.macs() > 0
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                ..
            } => write!(
                f,
                "conv{kernel}x{kernel}/{stride} {in_channels}→{out_channels} @{0}²",
                self.input_hw
            ),
            LayerKind::DepthwiseConv2d {
                channels,
                kernel,
                stride,
                ..
            } => write!(
                f,
                "dwconv{kernel}x{kernel}/{stride} {channels}ch @{0}²",
                self.input_hw
            ),
            LayerKind::Linear {
                in_features,
                out_features,
            } => write!(f, "fc {in_features}→{out_features}"),
            LayerKind::MaxPool { kernel, stride } => {
                write!(f, "maxpool{kernel}/{stride} @{}²", self.input_hw)
            }
            LayerKind::GlobalAvgPool => write!(f, "gap @{}²", self.input_hw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_size_with_padding() {
        // Same-padding 3×3 conv keeps the spatial size.
        let l = Layer::conv(224, 3, 64, 3, 1, 1);
        assert_eq!(l.output_hw(), 224);
        // 7×7/2 with pad 3 on 224 → 112.
        let l = Layer::conv(224, 3, 64, 7, 2, 3);
        assert_eq!(l.output_hw(), 112);
    }

    #[test]
    fn pool_halves_spatial_size() {
        let l = Layer::max_pool(224, 2, 2);
        assert_eq!(l.output_hw(), 112);
        assert_eq!(l.macs(), 0);
    }

    #[test]
    fn first_vgg_conv_macs() {
        // conv3-64 on 3×224×224: 3·64·9·224·224 = 86 704 128.
        let l = Layer::conv(224, 3, 64, 3, 1, 1);
        assert_eq!(l.macs(), 86_704_128);
        assert_eq!(l.params(), 1_728);
    }

    #[test]
    fn linear_macs_equal_params() {
        let l = Layer::linear(4096, 1000);
        assert_eq!(l.macs(), 4_096_000);
        assert_eq!(l.params(), l.macs());
        assert_eq!(l.output_hw(), 1);
    }

    #[test]
    fn is_compute_flags_mac_layers() {
        assert!(Layer::conv(28, 8, 8, 3, 1, 1).is_compute());
        assert!(Layer::linear(10, 10).is_compute());
        assert!(!Layer::max_pool(28, 2, 2).is_compute());
    }

    #[test]
    fn depthwise_macs_and_params() {
        // dw3×3 on 32 channels @ 112²: 32·9·112² MACs, 288 params.
        let l = Layer::depthwise(32, 112, 3, 1, 1);
        assert_eq!(l.output_hw(), 112);
        assert_eq!(l.macs(), 32 * 9 * 112 * 112);
        assert_eq!(l.params(), 288);
        // Strided depthwise halves the map.
        let l = Layer::depthwise(64, 112, 3, 2, 1);
        assert_eq!(l.output_hw(), 56);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Layer::conv(224, 3, 64, 3, 1, 1).to_string(),
            "conv3x3/1 3→64 @224²"
        );
        assert_eq!(Layer::linear(10, 4).to_string(), "fc 10→4");
        assert_eq!(
            Layer::depthwise(32, 112, 3, 1, 1).to_string(),
            "dwconv3x3/1 32ch @112²"
        );
    }
}

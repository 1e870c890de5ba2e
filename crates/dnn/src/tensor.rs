//! A minimal dense CHW tensor for the behavioural engine.

use std::fmt;

/// A dense 3-D tensor in CHW layout over any element type.
///
/// The behavioural engine only needs channel-major indexing and
/// flat iteration; no broadcasting or views.
///
/// ```
/// use carma_dnn::tensor::Tensor;
///
/// let mut t = Tensor::zeros(2, 3, 3);
/// *t.get_mut(1, 2, 2) = 7i32;
/// assert_eq!(*t.get(1, 2, 2), 7);
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor<T> {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// A tensor filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "dimensions must be positive"
        );
        Tensor {
            channels,
            height,
            width,
            data: vec![T::default(); channels * height * width],
        }
    }

    /// Builds a tensor from existing data in CHW order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels · height · width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            channels * height * width,
            "data length mismatch"
        );
        Tensor {
            channels,
            height,
            width,
            data,
        }
    }
}

impl<T> Tensor<T> {
    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true: dimensions are
    /// validated positive).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        (c * self.height + y) * self.width + x
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if an index is out of range.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> &T {
        &self.data[self.offset(c, y, x)]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if an index is out of range.
    #[inline]
    pub fn get_mut(&mut self, c: usize, y: usize, x: usize) -> &mut T {
        let o = self.offset(c, y, x);
        &mut self.data[o]
    }

    /// The flat CHW data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor[{}×{}×{}]",
            self.channels, self.height, self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t: Tensor<i32> = Tensor::zeros(2, 3, 4);
        assert_eq!(t.len(), 24);
        *t.get_mut(1, 2, 3) = 42;
        assert_eq!(*t.get(1, 2, 3), 42);
        assert_eq!(*t.get(0, 0, 0), 0);
    }

    #[test]
    fn chw_layout_is_channel_major() {
        let data: Vec<u8> = (0..12).collect();
        let t = Tensor::from_vec(2, 2, 3, data);
        assert_eq!(*t.get(0, 0, 0), 0);
        assert_eq!(*t.get(0, 1, 2), 5);
        assert_eq!(*t.get(1, 0, 0), 6);
        assert_eq!(*t.get(1, 1, 2), 11);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(2, 2, 2, vec![0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _: Tensor<u8> = Tensor::zeros(0, 1, 1);
    }

    #[test]
    fn display_shows_shape() {
        let t: Tensor<u8> = Tensor::zeros(3, 8, 8);
        assert_eq!(t.to_string(), "Tensor[3×8×8]");
    }
}

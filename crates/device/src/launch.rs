//! Kernel launch machinery: the device access token.

use crate::Device;

/// Capability token proving code is executing "on the device".
///
/// A `Kernel` is only constructed inside
/// [`Device::launch`](crate::Device::launch); holding one is what lets a
/// kernel body call [`DeviceBuffer::as_slice`](crate::DeviceBuffer::as_slice)
/// and [`DeviceBuffer::as_mut_slice`](crate::DeviceBuffer::as_mut_slice).
/// This is the mechanism that turns the paper's residency claim into a
/// compile-time property: host code that tries to peek at device data
/// simply has no token.
pub struct Kernel<'d> {
    device: &'d Device,
}

impl<'d> Kernel<'d> {
    pub(crate) fn new(device: &'d Device) -> Self {
        Self { device }
    }

    pub(crate) fn check_device(&self, other: &Device) {
        assert!(
            std::ptr::eq(
                std::sync::Arc::as_ptr(&self.device.inner),
                std::sync::Arc::as_ptr(&other.inner)
            ),
            "kernel on device {} accessed a buffer on a different device {}",
            self.device.id(),
            other.id()
        );
    }

    /// The device this kernel runs on.
    pub fn device(&self) -> &Device {
        self.device
    }
}

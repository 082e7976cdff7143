//! Streams and events — the ordering constructs of the paper's host code.
//!
//! The original implementation launches the refine kernel on the fine
//! patch's stream, records an event, and makes the coarse stream wait on
//! it (Figure 5a). The simulated device executes synchronously, so
//! streams and events do not change *what* happens — but they preserve
//! the *structure* of the original host code (the `gpu-amr` operators
//! mirror Figure 5a line for line) and they validate usage: waiting on
//! an event that was never recorded, or on an event recorded on another
//! device's stream, is a programming error the real API would silently
//! deadlock or misorder on; here it is a typed [`StreamError`] and the
//! infallible path panics with it.

use crate::Device;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(0);

/// A stream/event protocol violation.
///
/// The simulated device executes synchronously, so these never corrupt
/// data — but each one corresponds to a real-API failure mode (deadlock
/// or silent misordering), so they are surfaced as typed errors and the
/// infallible [`Stream::wait_event`] panics with the error's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// A stream waited on an event that was never recorded
    /// (`cudaStreamWaitEvent` on a fresh `cudaEvent_t` deadlocks).
    UnrecordedEvent { stream_id: u64 },
    /// A stream waited on an event recorded on a stream that lives on a
    /// *different* device — cross-device ordering the single-device
    /// model cannot express. Before the record point carried its device
    /// this passed validation silently whenever the event object itself
    /// was created on the waiter's device.
    CrossDeviceWait { stream_id: u64, stream_device: u64, event_device: u64 },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnrecordedEvent { stream_id } => {
                write!(f, "stream {stream_id} waited on event that was never recorded")
            }
            StreamError::CrossDeviceWait { stream_id, stream_device, event_device } => write!(
                f,
                "stream {stream_id} (device {stream_device}) waited on an event from another \
                 device (recorded on device {event_device})"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// An in-order execution queue on a device.
#[derive(Clone)]
pub struct Stream {
    id: u64,
    device_id: u64,
    /// Number of operations submitted to this stream so far.
    submitted: Arc<AtomicU64>,
}

impl Stream {
    /// Create a stream on `device`.
    pub fn new(device: &Device) -> Self {
        Self {
            id: NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed),
            device_id: device.id(),
            submitted: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This stream's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the device the stream lives on.
    pub fn device_id(&self) -> u64 {
        self.device_id
    }

    /// Record that one operation was submitted; returns its sequence
    /// number within the stream.
    pub fn submit(&self) -> u64 {
        self.submitted.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of operations submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Block until all submitted work completes (`cudaStreamSynchronize`).
    /// Execution is synchronous, so this only validates the handle.
    pub fn synchronize(&self) {}

    /// Make this stream wait for `event` (`cudaStreamWaitEvent`).
    ///
    /// # Panics
    /// Panics with the [`StreamError`] message if the event was never
    /// recorded, or if its record point lives on a stream of a
    /// different device — the real API would deadlock or misorder;
    /// surfacing the bug loudly is strictly better.
    pub fn wait_event(&self, event: &Event) {
        if let Err(e) = self.try_wait_event(event) {
            panic!("{e}");
        }
    }

    /// Validating [`Stream::wait_event`]: checks the event is recorded
    /// and that the *record point's* stream lives on this stream's
    /// device (not merely the device the event object was created on).
    ///
    /// # Errors
    /// [`StreamError::UnrecordedEvent`] if the event was never
    /// recorded; [`StreamError::CrossDeviceWait`] if it was recorded on
    /// a stream of a different device.
    pub fn try_wait_event(&self, event: &Event) -> Result<(), StreamError> {
        let Some(point) = event.record_point() else {
            return Err(StreamError::UnrecordedEvent { stream_id: self.id });
        };
        if point.device_id != self.device_id {
            return Err(StreamError::CrossDeviceWait {
                stream_id: self.id,
                stream_device: self.device_id,
                event_device: point.device_id,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stream#{} (device {})", self.id, self.device_id)
    }
}

/// Where an [`Event`] was recorded: stream, device, and the stream's
/// submission count at the record point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPoint {
    pub stream_id: u64,
    pub device_id: u64,
    pub seq: u64,
}

/// A marker in a stream's timeline (`cudaEvent_t`).
pub struct Event {
    device_id: u64,
    /// The record point, if recorded. Carries the *recording stream's*
    /// device so a cross-device wait is caught even if the event object
    /// itself was created on the waiter's device.
    recorded_at: Mutex<Option<RecordPoint>>,
}

impl Event {
    /// Create an unrecorded event on `device` (`cudaEventCreate`).
    pub fn new(device: &Device) -> Self {
        Self { device_id: device.id(), recorded_at: Mutex::new(None) }
    }

    /// Record the event on `stream` (`cudaEventRecord`).
    ///
    /// # Panics
    /// Panics if the stream lives on a different device.
    pub fn record(&self, stream: &Stream) {
        assert_eq!(
            self.device_id,
            stream.device_id(),
            "event recorded on a stream from another device"
        );
        *self.recorded_at.lock() = Some(RecordPoint {
            stream_id: stream.id(),
            device_id: stream.device_id(),
            seq: stream.submitted(),
        });
    }

    /// The record point, if recorded.
    pub fn record_point(&self) -> Option<RecordPoint> {
        *self.recorded_at.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_count_submissions() {
        let dev = Device::k20x();
        let s = Stream::new(&dev);
        assert_eq!(s.submitted(), 0);
        assert_eq!(s.submit(), 0);
        assert_eq!(s.submit(), 1);
        assert_eq!(s.submitted(), 2);
        s.synchronize();
    }

    #[test]
    fn figure_5a_event_protocol() {
        // The exact sequence from the paper's host listing:
        // sync coarse; launch on fine; record event on fine; coarse waits.
        let dev = Device::k20x();
        let coarse = Stream::new(&dev);
        let fine = Stream::new(&dev);
        coarse.synchronize();
        fine.submit(); // the refine kernel
        let ev = Event::new(&dev);
        ev.record(&fine);
        coarse.wait_event(&ev);
        assert_eq!(
            ev.record_point(),
            Some(RecordPoint { stream_id: fine.id(), device_id: dev.id(), seq: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn waiting_on_unrecorded_event_panics() {
        let dev = Device::k20x();
        let s = Stream::new(&dev);
        let ev = Event::new(&dev);
        s.wait_event(&ev);
    }

    #[test]
    #[should_panic(expected = "another device")]
    fn cross_device_event_record_panics() {
        let a = Device::k20x();
        let b = Device::k20x();
        let s = Stream::new(&a);
        let ev = Event::new(&b);
        ev.record(&s);
    }

    #[test]
    #[should_panic(expected = "another device")]
    fn cross_device_event_wait_panics() {
        // The gap this closes: the event is created *and* recorded on
        // device B — internally consistent, so `record` passes — but
        // the wait comes from a stream on device A. Validating only the
        // event's creation device would let this through.
        let a = Device::k20x();
        let b = Device::k20x();
        let b_stream = Stream::new(&b);
        let ev = Event::new(&b);
        ev.record(&b_stream);
        let a_stream = Stream::new(&a);
        a_stream.wait_event(&ev);
    }

    #[test]
    fn try_wait_event_returns_typed_errors() {
        let a = Device::k20x();
        let b = Device::k20x();
        let a_stream = Stream::new(&a);
        let ev = Event::new(&b);
        assert_eq!(
            a_stream.try_wait_event(&ev),
            Err(StreamError::UnrecordedEvent { stream_id: a_stream.id() })
        );
        let b_stream = Stream::new(&b);
        ev.record(&b_stream);
        assert_eq!(
            a_stream.try_wait_event(&ev),
            Err(StreamError::CrossDeviceWait {
                stream_id: a_stream.id(),
                stream_device: a.id(),
                event_device: b.id(),
            })
        );
        let ok_stream = Stream::new(&b);
        assert_eq!(ok_stream.try_wait_event(&ev), Ok(()));
    }

    #[test]
    fn stream_ids_are_unique() {
        let dev = Device::k20x();
        assert_ne!(Stream::new(&dev).id(), Stream::new(&dev).id());
    }
}

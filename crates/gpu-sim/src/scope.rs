//! Scoped ownership of device buffers: what a function allocates is freed
//! when the function exits, by whatever path.

use crate::device::Gpu;
use crate::fault::DeviceError;
use crate::mem::{DeviceBuffer, DeviceWord};

/// Owns the device buffers of one call. Whatever is still held when the
/// scope drops — at the end of the function, at a `?`, or while a panic
/// unwinds — is freed then, in the order it was acquired; nothing a faulted
/// step allocated outlives the step.
///
/// Two facts of the simulator decide how a scope is used:
///
/// * **A free's position decides reuse.** A freed scratch buffer's block
///   goes to the device's caching allocator (see [`Gpu::alloc`]), and the
///   next request of its size class takes it instead of paying a
///   `cudaMalloc`; a block still held is no use to anyone. A buffer that
///   dies before the function ends is therefore released *where it dies*,
///   with [`Scope::free`]; `Drop` covers only what lives to the exit. For
///   an adopted upload the position is also timing: its `cudaFree`
///   advances the host clock, and inside an async window an operation
///   starts at `max(stream frontier, host clock)`.
/// * **A scope adds no fallible operation.** A [`crate::FaultPlan`] draws
///   once per driver call, by position in that sequence. [`Scope::alloc`]
///   is exactly one [`Gpu::alloc`]; `adopt`, `keep`, `free` and `Drop`
///   issue none, so routing a buffer through a scope never shifts an
///   operation's index.
///
/// Owners that outlive a call (a cached list, the running intermediate) keep
/// their own `free`; a scope [`adopt`](Scope::adopt)s their buffers for as
/// long as a function is answerable for them.
pub struct Scope<'g> {
    gpu: &'g Gpu,
    held: Vec<DeviceBuffer<u32>>,
}

impl<'g> Scope<'g> {
    pub fn new(gpu: &'g Gpu) -> Scope<'g> {
        Scope {
            gpu,
            held: Vec::new(),
        }
    }

    /// [`Gpu::alloc`], with the new buffer held by the scope.
    pub fn alloc<T: DeviceWord>(&mut self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let buf = self.gpu.alloc(len)?;
        Ok(self.adopt(buf))
    }

    /// Takes over a buffer allocated elsewhere (an upload, a callee's
    /// result). The handle comes back for use; the scope frees the storage.
    pub fn adopt<T: DeviceWord>(&mut self, buf: DeviceBuffer<T>) -> DeviceBuffer<T> {
        self.held.push(buf.cast());
        buf
    }

    /// Frees a held buffer now, at this program point.
    pub fn free<T: DeviceWord>(&mut self, buf: DeviceBuffer<T>) {
        let buf = self.keep(buf);
        self.gpu.free(buf);
    }

    /// Stops holding a buffer: it is the caller's from here on (a result
    /// handed up, an adopted buffer handed back).
    pub fn keep<T: DeviceWord>(&mut self, buf: DeviceBuffer<T>) -> DeviceBuffer<T> {
        let at = self
            .held
            .iter()
            .position(|h| h.id == buf.id && h.generation == buf.generation)
            .expect("buffer is not held by this scope");
        self.held.remove(at);
        buf
    }
}

impl Drop for Scope<'_> {
    /// Cannot fail for a buffer the scope still holds: only `free` and
    /// `keep` end a hold, and both go through the scope.
    fn drop(&mut self) {
        for buf in self.held.drain(..) {
            self.gpu.free(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn drop_frees_exactly_what_is_still_held() {
        let gpu = gpu();
        let outside = gpu.alloc::<u32>(8).unwrap();
        let kept;
        {
            let mut scope = Scope::new(&gpu);
            let a = scope.alloc::<u32>(100).unwrap();
            let _b = scope.alloc::<f32>(50).unwrap();
            let c = scope.adopt(gpu.htod(&[1u32, 2, 3]).unwrap());
            let d = scope.alloc::<u32>(10).unwrap();
            kept = scope.keep(d);
            assert_eq!(gpu.stats().allocs, 5, "one Gpu::alloc per Scope::alloc");
            assert_eq!(gpu.mem_in_use(), (8 + 100 + 50 + 3 + 10) * 4);

            scope.free(a);
            assert_eq!(gpu.mem_in_use(), (8 + 50 + 3 + 10) * 4);
            let reuse = scope.alloc::<u32>(128).unwrap();
            assert_eq!(
                gpu.stats().pool.hits,
                1,
                "an explicit free takes effect where it is written"
            );
            scope.free(reuse);
            assert_eq!(gpu.peek(&c, 2), 3, "held buffers stay readable");
        }
        // `_b` and `c` went with the scope; `kept` and `outside` did not.
        assert_eq!(gpu.stats().frees, 1, "the upload's cudaFree");
        assert_eq!(gpu.mem_in_use(), (8 + 10) * 4);
        gpu.free(kept);
        gpu.free(outside);
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    fn an_error_return_frees_what_the_function_had_allocated() {
        fn faulted(gpu: &Gpu) -> Result<DeviceBuffer<u32>, DeviceError> {
            let mut scope = Scope::new(gpu);
            let out = scope.alloc::<u32>(64)?;
            let _tmp = scope.alloc::<u32>(64)?;
            scope.alloc::<u32>(usize::MAX / 8)?; // larger than the device
            Ok(scope.keep(out))
        }
        let gpu = gpu();
        assert!(matches!(faulted(&gpu), Err(DeviceError::DeviceOom { .. })));
        assert_eq!(gpu.mem_in_use(), 0);
        assert_eq!(gpu.mem_cached(), 2 * 64 * 4, "both blocks are cached");
    }

    #[test]
    fn freeing_or_keeping_a_buffer_the_scope_does_not_hold_panics() {
        let gpu = gpu();
        let stranger = gpu.alloc::<u32>(4).unwrap();
        for release in [
            (|s: &mut Scope<'_>, b| s.free(b)) as fn(&mut Scope<'_>, DeviceBuffer<u32>),
            |s, b| {
                s.keep(b);
            },
        ] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                let mut scope = Scope::new(&gpu);
                release(&mut scope, stranger.clone());
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("not held by this scope"), "{msg}");
        }
        // Released once is released: a second `keep` finds nothing.
        let twice = catch_unwind(AssertUnwindSafe(|| {
            let mut scope = Scope::new(&gpu);
            let b = scope.alloc::<u32>(4).unwrap();
            let b = scope.keep(b);
            scope.keep(b.clone());
        }));
        assert!(twice.is_err());
        assert_eq!(gpu.mem_in_use(), 2 * 4 * 4, "the stranger and the kept one");
    }
}

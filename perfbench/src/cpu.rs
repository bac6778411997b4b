//! Processor time, which (unlike wall time) a guest does not accrue
//! while its virtual processor is descheduled by the host.

#[cfg(target_os = "linux")]
fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec that outlives the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(not(target_os = "linux"))]
fn clock_s(_clock: i32) -> f64 {
    0.0
}

/// Processor time used by the whole process so far, s.
pub fn process_s() -> f64 {
    clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// Processor time used by the calling thread so far, s.
pub fn thread_s() -> f64 {
    clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

//! Keep the load generator off the servers' processors.
//!
//! The servers run in this process, so without care the generator
//! thread and the reactor threads share processors, and the scheduler's
//! placement of the two — which changes from run to run — moves the
//! latency the generator records. Like the paper's clients on their own
//! workstations, the generator gets a processor of its own: the last
//! one this process may use. Server threads inherit the rest from the
//! thread that spawns them, so `NetConfig`'s default shard count (one
//! per available processor) follows the servers' share. On a host with
//! one processor nothing is pinned.

/// Processors this process may run on, ascending.
#[cfg(target_os = "linux")]
fn allowed() -> Vec<usize> {
    let mut mask = [0u8; 128];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    }
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

#[cfg(target_os = "linux")]
fn set(cpus: &[usize]) {
    let mut mask = [0u8; 128];
    for &c in cpus.iter().filter(|&&c| c < 128 * 8) {
        mask[c / 8] |= 1 << (c % 8);
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. Failure leaves affinity unchanged.
    unsafe {
        sched_setaffinity(0, mask.len(), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn set(_cpus: &[usize]) {}

/// The split of this process's processors between servers and client.
#[derive(Debug, Clone)]
pub struct Split {
    server: Vec<usize>,
    client: Vec<usize>,
}

impl Split {
    /// All but the last processor serve; the last one drives load.
    /// `None` when there is only one processor to share.
    pub fn new() -> Option<Split> {
        let mut cpus = allowed();
        let client = vec![cpus.pop()?];
        (!cpus.is_empty()).then_some(Split {
            server: cpus,
            client,
        })
    }

    /// Pin the calling thread (and the threads it spawns) to the
    /// servers' processors.
    pub fn enter_server(&self) {
        set(&self.server);
    }

    /// Pin the calling thread (and the threads it spawns) to the
    /// client's processor.
    pub fn enter_client(&self) {
        set(&self.client);
    }

    /// `(server, client)` processor lists, for the provenance line.
    pub fn describe(&self) -> String {
        format!(
            "{{\"server_cpus\": {:?}, \"client_cpus\": {:?}}}",
            self.server, self.client
        )
    }
}

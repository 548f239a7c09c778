//! Process resource readings taken without touching any file.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`
/// counters, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, in MiB. Input
/// generation runs in a child process, so it never raises this figure.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, which `getrusage` fills in full.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.counters[0] as f64 / 1024.0
}

/// Cores the library's parallel sections may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

//! Host and build fingerprint, and the process's peak resident set.

/// One JSON object naming the host and the build, printed with every run
/// so a number is never compared across machines or builds unknowingly.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"source_hash\": \"{}\"}}",
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC").replace('"', "'"),
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_SOURCE_HASH"),
    )
}

/// The CPU brand string from `cpuid` (x86-64), else the architecture.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86-64 processor, and leaves
        // above the reported maximum are never queried.
        #[allow(unused_unsafe)]
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                None
            } else {
                let mut bytes = Vec::with_capacity(48);
                for leaf in 0x8000_0002u32..=0x8000_0004 {
                    let r = __cpuid(leaf);
                    for word in [r.eax, r.ebx, r.ecx, r.edx] {
                        bytes.extend_from_slice(&word.to_le_bytes());
                    }
                }
                Some(bytes)
            }
        };
        if let Some(bytes) = brand {
            let s = String::from_utf8_lossy(&bytes);
            return s
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

#[cfg(unix)]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(unix)]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process in MiB (`getrusage` high-water mark).
pub fn peak_rss_mb() -> f64 {
    #[cfg(unix)]
    {
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a writable struct laid out like the 64-bit
        // `struct rusage` (two `timeval`s, then fourteen `long`s), and
        // RUSAGE_SELF (0) names this process.
        let rc = unsafe { getrusage(0, &mut usage) };
        if rc == 0 {
            // Linux reports KiB, macOS bytes
            let kib = if cfg!(target_os = "macos") {
                usage.maxrss as f64 / 1024.0
            } else {
                usage.maxrss as f64
            };
            return kib / 1024.0;
        }
    }
    0.0
}

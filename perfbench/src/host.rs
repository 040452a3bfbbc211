//! Host and run record printed with every result.

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(key)?
            .strip_prefix(':')
            .map(|v| v.trim().to_string())
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = status_field("VmHWM")?;
    let kb: f64 = v.trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        found.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree without git metadata reports `unknown`).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON object describing where and how the run was made.
pub fn record(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    samples: &[(&str, usize)],
) -> String {
    let samples = samples
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"cpus_allowed_list\":\"{}\",\"isa\":\"{}\",\"engine_threads\":1,\
         \"commit\":\"{}\",\"warmup_excluded\":true,\"samples\":{{{samples}}}}}",
        nproc(),
        status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string()),
        isa(),
        commit(),
    )
}

/// CPU masks as the kernel takes them: 1024 bits, glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Result<CpuMask, String> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
        // this live, aligned local array; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(mask)
    }

    pub fn set(mask: &CpuMask) -> Result<(), String> {
        // SAFETY: the kernel reads `size_of_val(mask)` bytes from a live,
        // aligned array; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuMask;

    pub fn get() -> Result<CpuMask, String> {
        Err("CPU affinity is only set on Linux".to_string())
    }

    pub fn set(_: &CpuMask) -> Result<(), String> {
        Err("CPU affinity is only set on Linux".to_string())
    }
}

/// The calling thread, and every thread it starts while this is alive,
/// restricted to one CPU; the previous mask comes back on drop.
pub struct Pinned {
    pub cpu: usize,
    saved: CpuMask,
}

impl Pinned {
    /// Pin to the lowest-numbered CPU the thread may run on.
    pub fn first_allowed() -> Result<Pinned, String> {
        let saved = affinity::get()?;
        let cpu = saved
            .iter()
            .enumerate()
            .find_map(|(w, &bits)| (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize))
            .ok_or("empty CPU affinity mask")?;
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        affinity::set(&one)?;
        Ok(Pinned { cpu, saved })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // threads started while pinned stay pinned; only the caller is restored
        let _ = affinity::set(&self.saved);
    }
}

//! Order statistics, the seeded generator, and process-level probes.

/// `q`-quantile (0..=1) by linear interpolation between order statistics.
/// Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median (0 for an empty or
/// zero-median sample).
pub fn rel_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// Geometric mean of positive values (0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: the only source of randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The calling thread pinned to the first CPU it may run on; dropping it
/// gives the thread its original CPU set back. Threads spawned while it
/// is held inherit the pin.
///
/// The vCPUs of a shared virtual machine do not run at the same speed
/// (one measured 4-20% slower than the other, run after run), so an
/// unpinned run's speed depended on where the scheduler put it.
pub struct CpuPin {
    pub cpu: usize,
    original: [u8; CPU_MASK_BYTES],
}

const CPU_MASK_BYTES: usize = 128;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

impl CpuPin {
    #[cfg(target_os = "linux")]
    pub fn first() -> Option<CpuPin> {
        let mut original = [0u8; CPU_MASK_BYTES];
        // SAFETY: `original` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, original.len(), original.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..CPU_MASK_BYTES * 8).find(|&c| original[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; CPU_MASK_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0)
            .then_some(CpuPin { cpu, original })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn first() -> Option<CpuPin> {
        None
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `original` is a readable buffer of exactly the size passed.
        unsafe {
            sched_setaffinity(0, self.original.len(), self.original.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pin_is_released_on_drop() {
        let before = nproc();
        if let Some(pin) = CpuPin::first() {
            assert_eq!(nproc(), 1);
            drop(pin);
        }
        assert_eq!(nproc(), before);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        let mut s = Rng::new(8);
        assert_ne!(a[0], s.next_u64());
    }
}

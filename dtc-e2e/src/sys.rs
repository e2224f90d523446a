//! Process statistics read from Linux's `/proc`. Each reader returns
//! `None` where `/proc` is unavailable or malformed.

use std::fs;

/// CPU time this process has used, in clock ticks: `utime + stime` from
/// `/proc/self/stat`. Both include threads that have already exited, so the
/// engine's short-lived scoped worker threads are counted.
pub fn cpu_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces; the fields
    // after it start at field 3, so utime (14) and stime (15) are the
    // 12th and 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Clock ticks per second (`USER_HZ`), the unit of [`cpu_ticks`]: the
/// `AT_CLKTCK` entry of the process's auxiliary vector.
pub fn user_hz() -> Option<u64> {
    const AT_CLKTCK: usize = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let auxv = fs::read("/proc/self/auxv").ok()?;
    let words: Vec<usize> = auxv
        .chunks_exact(WORD)
        .map(|w| usize::from_ne_bytes(w.try_into().expect("chunks are one word long")))
        .collect();
    words
        .chunks_exact(2)
        .find(|entry| entry[0] == AT_CLKTCK)
        .map(|entry| entry[1] as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_plausible_values() {
        let hz = user_hz().expect("AT_CLKTCK is in every Linux auxv");
        assert!((1..=10_000).contains(&hz), "USER_HZ {hz}");
        let before = cpu_ticks().expect("/proc/self/stat parses");
        assert!(cpu_ticks().unwrap() >= before);
        assert!(peak_rss_kib().unwrap() > 0);
    }
}

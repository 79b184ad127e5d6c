//! Peak resident memory of this process, read from `/proc`.

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into kibibytes.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// Peak resident memory of this process in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_high_water_mark_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
    }

    #[test]
    fn rejects_missing_or_malformed_high_water_marks() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t ten kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 10 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}

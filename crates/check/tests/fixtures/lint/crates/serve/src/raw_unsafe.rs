//! Lint fixture: an unannotated `unsafe` block in the serve crate
//! (`no-unsafe` — every `unsafe` must carry an allow with its reason).
//! The copy inside `#[cfg(test)]` must not report.

pub fn read_first(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_use_unsafe() {
        let xs = [7u8];
        assert_eq!(unsafe { *xs.as_ptr() }, 7);
    }
}

//! Lint fixture: assertions inside functions that return `Result`
//! (`no-assert-in-result`). The unit-returning function, the
//! `debug_assert!` and the allow-annotated site stay quiet.

pub fn checked(x: u32) -> Result<u32, String> {
    assert!(x > 0);
    Ok(x)
}

pub fn checked_pair(
    x: u32,
    y: [u8; 2],
) -> std::io::Result<()> {
    let check = |v: u32| {
        assert_eq!(v, x);
    };
    check(u32::from(y[0]));
    Ok(())
}

pub fn unchecked(x: u32) -> u32 {
    assert!(x > 0);
    debug_assert!(x < 10);
    x
}

pub fn outer(x: u32) -> Result<u32, String> {
    fn inner(v: u32) -> u32 {
        assert_ne!(v, 0);
        v
    }
    // cluster_check: allow(no-assert-in-result) — fixture: a documented
    // exception stays quiet.
    assert!(x < 100);
    Ok(inner(x))
}

pub fn after_nested(x: u32) -> Result<u32, String> {
    assert_ne!(x, 7);
    Ok(x)
}

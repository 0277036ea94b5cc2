//! Lint fixture: every `no-panic` token in non-test code, unsuppressed.

pub fn unwraps(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn expects(x: Option<u32>) -> u32 {
    x.expect("fixture")
}

pub fn panics() {
    panic!("fixture");
}

pub fn unreachables(tag: u8) -> u8 {
    match tag {
        0 => 0,
        _ => unreachable!("fixture"),
    }
}

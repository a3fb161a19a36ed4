//! Integrity belongs to the reliability layer: the sealed-frame codec
//! and the checksum are called from `reliability.rs` and nowhere else in
//! `nm-core`, so an unreliable lane cannot reach a CRC pass. `wire.rs`,
//! which defines them (and calls them from its own codec and its tests),
//! is not scanned.

use std::path::Path;

/// Calls only `reliability.rs` may make.
const SEALED: [&str; 4] = [
    "crc32(",
    "decode_frame(",
    "encode_frame(",
    "encode_packet_frame(",
];

/// Whether `line` calls `name` (which ends in `(`): the match must start
/// an identifier, so `decode_bare_frame(` is not `decode_frame(`.
fn calls(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        !line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn only_the_reliability_layer_seals_or_verifies_frames() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut callers = Vec::new();
    let mut scanned = 0;
    for entry in std::fs::read_dir(&src).expect("src is readable") {
        let path = entry.expect("a directory entry").path();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if !file.ends_with(".rs") || file == "wire.rs" {
            continue;
        }
        scanned += 1;
        let text = std::fs::read_to_string(&path).expect("a source file is UTF-8");
        // Everything from the first test module on is test code.
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (n, line) in code.lines().enumerate() {
            let line = line.split("//").next().unwrap_or_default();
            for name in SEALED {
                if calls(line, name) {
                    callers.push(format!("{file}:{}: {name}", n + 1));
                }
            }
        }
    }
    assert!(scanned > 10, "scanned only {scanned} files under {src:?}");
    let outside: Vec<&String> = callers
        .iter()
        .filter(|c| !c.starts_with("reliability.rs:"))
        .collect();
    assert!(
        outside.is_empty(),
        "sealed-frame codec called outside reliability.rs:\n{outside:#?}"
    );
    for name in SEALED.iter().filter(|n| **n != "crc32(") {
        assert!(
            callers.iter().any(|c| c.ends_with(name)),
            "reliability.rs no longer calls {name}: update this test"
        );
    }
}

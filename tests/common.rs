//! What every suite that reads `report()` agrees on: its key set.

/// The report's top-level keys, in order.
const REPORT_KEYS: [&str; 8] = [
    "enabled",
    "saturation",
    "stalls",
    "locks",
    "trace_tail",
    "slow_requests",
    "profile",
    "health",
];

/// The keys of the report's `locks` object: the live global hold only.
/// Lock waits live in the records of the requests that waited.
const LOCKS_KEYS: [&str; 1] = ["global_held_us"];

/// The keys of the report's `health` object, in order.
const HEALTH_KEYS: [&str; 5] = ["state", "state_code", "scrub", "canary", "findings"];

/// Asserts that the top-level keys of `report`, and of its `locks` and
/// `health` objects, are exactly the pinned lists: a section can
/// neither go missing nor come back unnoticed.
pub fn assert_report_keys(report: &str) {
    assert_eq!(keys(report), REPORT_KEYS, "report keys of {report}");
    for (section, pinned) in [("locks", &LOCKS_KEYS[..]), ("health", &HEALTH_KEYS[..])] {
        let name = format!("\"{section}\":");
        let at = report.find(&name).expect("the section is present") + name.len();
        assert_eq!(keys(&report[at..]), pinned, "{section} keys of {report}");
    }
}

/// The keys of the JSON object `json` starts with (leading whitespace
/// allowed, anything after the object ignored), in order.
fn keys(json: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut string: Option<usize> = None;
    let mut escaped = false;
    for (i, b) in json.bytes().enumerate() {
        if let Some(start) = string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    string = None;
                    if depth == 1 && json[i + 1..].trim_start().starts_with(':') {
                        keys.push(&json[start..i]);
                    }
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => string = Some(i + 1),
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
    }
    keys
}

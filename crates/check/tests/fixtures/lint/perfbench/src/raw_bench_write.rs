//! Lint fixture: the benchmark writing a report with bare `fs::write`
//! instead of `write_atomic` (`atomic-io`).

pub fn write_report_fixture(body: &str) -> std::io::Result<()> {
    std::fs::write("report.json", body)
}

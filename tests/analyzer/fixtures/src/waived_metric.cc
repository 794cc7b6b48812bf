// An instrument without a catalog row, suppressed by an in-source
// waiver with a written rationale.

void FixtureWaivedMetric(obs::MetricsRegistry* metrics) {
  // ANALYZER_WAIVE(metric-names): fixture-only counter proving the
  // waiver grammar; no dashboard reads it.
  metrics->GetCounter("fixture.unlisted")->Add();
}

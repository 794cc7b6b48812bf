// The fixture corpus's "test tree": arming a failpoint by literal name
// here is what makes it reachable for failpoint-reachability. Every
// consulted point is armed except bad_failpoint.cc's second consult and
// waived_failpoint.cc's retired one.

void ArmFixtureFailpoints() {
  FailpointRegistry::Global()->Arm("fixture.apply.armed",
                                   FailpointPolicy::ErrorOnce());
  FailpointRegistry::Global()->Arm("fixture.crash_window.cut",
                                   FailpointPolicy::ErrorOnce());
  // The textual-rule fixtures' points, so only their own rule fires.
  for (const char* name : {"wal.append", "wal.undocumented", "index.put",
                           "fixture.scratch"}) {
    FailpointRegistry::Global()->Arm(name, FailpointPolicy::ErrorOnce());
  }
}

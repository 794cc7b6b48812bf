// Seeded naked-new violation: the returned `new` carries no waiver; the
// waived line and placement new beside it must not fire.

namespace diffindex {

struct Widget {
  int x = 0;
};

Widget* FixtureNakedNew(char* mem) {
  Widget* waived = new Widget();  // ANALYZER_WAIVE(naked-new): caller owns it
  Widget* placed = new (mem) Widget();  // placement new: clean
  (void)waived;
  (void)placed;
  return new Widget();  // violation
}

}  // namespace diffindex

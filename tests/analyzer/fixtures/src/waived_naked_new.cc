// A naked `new` in a private-ctor factory, suppressed by an in-source
// waiver with a written rationale.

class Sealed {
 public:
  static void Open(std::unique_ptr<Sealed>* out) {
    // ANALYZER_WAIVE(naked-new): private-ctor factory
    out->reset(new Sealed());
  }

 private:
  Sealed() = default;
};

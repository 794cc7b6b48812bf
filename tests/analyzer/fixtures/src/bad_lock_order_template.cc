// Seeded lock-order-global violations reachable only by typing a
// receiver through a class template: a member declared with template
// arguments and a pointer to a `using` alias of the template both name
// Shelf, whose Take() takes the low-rank lock under the high-rank one.
// Decoy also defines Take(), so neither call resolves by name alone.

template <class T>
class Shelf {
 public:
  void Take() { MutexLock low(low_mu_); }

 private:
  Mutex low_mu_{LockRank::kLow};
};

class Decoy {
 public:
  void Take() {}
};

using IntShelf = Shelf<int>;

class Keeper {
 public:
  void ByMember() {
    MutexLock high(high_mu_);
    shelf_.Take();  // rank 10 acquired under rank 20
  }
  void ByAlias() {
    MutexLock high(high_mu_);
    aliased_->Take();  // rank 10 acquired under rank 20
  }

 private:
  Shelf<int> shelf_;
  std::shared_ptr<IntShelf> aliased_;
  Mutex high_mu_{LockRank::kHigh};
};

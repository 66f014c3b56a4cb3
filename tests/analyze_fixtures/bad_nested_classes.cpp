// ddpm_analyze fixture: facts of same-named nested classes, MUST-FLAG.
// Two classes each nest a `struct Node`; only `Poly::Node`, declared
// second, declares a virtual member. Class facts are keyed by the
// qualified class name, so the `virtual-dtor` finding lands on
// `Poly::Node` itself, and hot code calling through a `Poly::Node*` is a
// virtual dispatch. Keyed by the simple name `Node`, the two would share
// one record and the finding would land on `Plain::Node`, declared first.
#define DDPM_HOT

namespace fx {

class Plain {
 public:
  struct Node {
    int weight = 0;
    int get() const { return weight; }
  };
};

class Poly {
 public:
  struct Node {  // ddpm-analyze: expect(virtual-dtor)
    virtual int get() const { return 1; }
  };
  int sum() const;
  Node* node = nullptr;
};

DDPM_HOT int Poly::sum() const {
  return node->get();  // ddpm-analyze: expect(hot-no-virtual)
}

}  // namespace fx

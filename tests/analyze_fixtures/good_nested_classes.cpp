// ddpm_analyze fixture: facts of same-named nested classes, MUST-PASS.
// The twin of bad_nested_classes.cpp: `Poly::Node` is a well-formed
// polymorphic base, and hot code calls through a `Plain::Node*`, a
// concrete class. Class facts are keyed by the qualified class name, so
// the virtual member of `Poly::Node` says nothing about `Plain::Node`.
// Keyed by the simple name `Node`, every receiver typed `Node` would read
// as a virtual dispatch.
#define DDPM_HOT

namespace fx {

class Poly {
 public:
  struct Node {
    virtual ~Node() = default;
    virtual int get() const { return 1; }

   protected:
    Node() = default;
    Node(const Node&) = default;
    Node& operator=(const Node&) = default;
  };
};

class Plain {
 public:
  struct Node {
    int weight = 0;
    int get() const { return weight; }
  };
  int sum() const;
  Node* node = nullptr;
};

DDPM_HOT int Plain::sum() const {
  return node->get();  // Plain::Node: no virtual member
}

}  // namespace fx
